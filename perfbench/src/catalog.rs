//! The metric catalog: every metric the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the smoke test checks that the two agree.

/// One metric name and its unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
    }
}

/// The end-to-end metrics every untraced run prints, on every workload.
pub fn end_to_end() -> Vec<Spec> {
    vec![
        spec("setup_s", "s"),
        spec("day_s", "s"),
        spec("ingest_claims_per_s", "1/s"),
        spec("read_p99_us", "us"),
        spec("precision", "fraction"),
        spec("peak_rss_mb", "MB"),
    ]
}

/// Registry names of the sixteen fusion methods, in Table-7 order.
fn method_names() -> Vec<String> {
    fusion::all_methods()
        .iter()
        .map(|(_, m)| m.name())
        .collect()
}

/// The per-layer metrics every traced run prints, on every workload (a
/// layer a workload does not reach reads 0).
pub fn per_layer() -> Vec<Spec> {
    let mut specs = Vec::new();
    for name in method_names() {
        specs.push(spec(format!("fusion.run.{name}_s"), "s"));
    }
    for name in method_names() {
        specs.push(spec(format!("fusion.rounds.{name}"), "count"));
    }
    specs.extend([
        spec("fusion.cache_hits", "count"),
        spec("fusion.prepare_s", "s"),
        spec("fusion.advance_s", "s"),
        spec("fusion.dirty_items", "count"),
        spec("fusion.full_refreshes", "count"),
        spec("datamodel.ledger_s", "s"),
        spec("datamodel.materialize_s", "s"),
        spec("datamodel.diff_s", "s"),
        spec("datamodel.claims", "count"),
        spec("evaluation.score_s", "s"),
        spec("service.ingest_s", "s"),
        spec("service.ops_applied", "count"),
        spec("service.ops_dropped", "count"),
        spec("service.seal_prepare_s", "s"),
        spec("service.seal_fuse_s", "s"),
        spec("service.seal_rest_s", "s"),
        spec("service.read_state_us", "us"),
        spec("service.read_answer_us", "us"),
        spec("service.reads", "count"),
        spec("service.reader_late_us", "us"),
        spec("service.reader_late_p99_us", "us"),
        spec("bench.days", "count"),
        spec("bench.wall_s", "s"),
        spec("bench.layer_sum_s", "s"),
        spec("bench.other_s", "s"),
        spec("bench.other_share", "fraction"),
        spec("bench.overhead.day_s", "s"),
        spec("bench.overhead.ingest_claims_per_s", "1/s"),
        spec("bench.overhead.read_p99_us", "us"),
        spec("bench.available_parallelism", "count"),
        spec("bench.rayon_threads", "count"),
    ]);
    specs
}
