//! Figure 12 — fusion precision vs. execution time for every method.
//!
//! Absolute times depend on the machine and on the generated-data scale; the
//! paper's claim is about the relative ordering (VOTE fastest, the ATTR
//! variants and AccuCopy slowest) and about longer execution time not
//! guaranteeing better results.
//!
//! The binary runs the same (method × day) batch twice: once on the timed
//! sequential baseline ([`evaluate_all_methods`] per day) and once fanned
//! across CPU cores by [`evaluate_days`]. The Figure-12 table is printed from
//! the **sequential** rows, whose per-method timings are measured without
//! core contention; the sequential pass is repeated `--repeats` times
//! (default 3) and each per-method timing is the **median** across repeats,
//! so a one-off scheduler stall cannot masquerade as a perf regression in
//! the trajectory artifact; context preparation is hoisted out of the repeat
//! loop (built once, timed separately, added to the reported sequential
//! wall), so large worlds are not re-prepared N times. The trailing summary reports the measured
//! wall-clock speedup of the fan-out over the sequential pass — the gain a
//! multi-core evaluation pipeline gets over the paper's sequential
//! measurement loop — unless only one thread is available, in which case
//! the "speedup" would merely measure fan-out overhead and is flagged
//! invalid instead of printed. Both passes must agree on every result row
//! (fusion is deterministic); the binary asserts that.
//!
//! The artifact also records the fusion kernel backend (always `scalar`;
//! older artifacts may name a vector backend), the target architecture, and
//! the thread budget (`rayon_threads` / `available_parallelism`), so
//! trajectory points from different machines or core counts are not
//! silently compared as like-for-like.
//!
//! The artifact also carries a `delta` record: a dirty-fraction sweep (1%,
//! 10%, 50% changed claims per day) comparing the warm
//! [`fusion::DeltaEngine`] against cold per-day re-preparation on a planted
//! mutation stream ([`datagen::mutation_stream`]), the warm results asserted
//! bit-identical to the cold ones.

use bench::{ExpArgs, Json, Table};
use datagen::GeneratedDomain;
use evaluation::{
    evaluate_all_methods, evaluate_days, same_results, EvaluationContext, MethodEvaluation,
};
use std::time::{Duration, Instant};

/// Median of a set of duration samples (mean of the two middles when even).
fn median_duration(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2
    }
}

fn report(domain: &GeneratedDomain, repeats: usize) -> Json {
    // Evaluate the reference day plus the surrounding days (up to three) in
    // one batch, so the timing summary reflects a realistic multi-snapshot
    // evaluation workload.
    let num_days = domain.collection.num_days();
    let reference = domain.collection.reference_day_index();
    let day_indices: Vec<usize> = (reference.saturating_sub(1)..num_days)
        .take(3)
        .collect();

    let context_of = |i: usize| {
        let day = domain.collection.day(i);
        EvaluationContext::new(&day.snapshot, &day.gold)
    };

    // Untimed warm-up of one day so the sequential pass (which runs first)
    // does not absorb the one-time costs — first touch of the snapshot
    // pages, allocator warm-up — that would bias the measured speedup in
    // the fan-out's favor.
    let _ = evaluate_all_methods(&context_of(day_indices[0]));

    // Context preparation (FusionProblem build + trust sampling) is paid
    // ONCE, outside the repeat loop, so large worlds are not re-prepared N
    // times. The preparation wall is measured separately and added to the
    // median evaluation wall below, keeping the reported sequential wall
    // comparable with the single parallel pass (whose wall includes its own
    // preparation).
    let prep_start = Instant::now();
    let contexts: Vec<EvaluationContext<'_>> = day_indices.iter().map(|&i| context_of(i)).collect();
    let prep_wall = prep_start.elapsed();

    // Timed sequential pass, `repeats` times. Fusion is deterministic, so
    // the repeats differ only in timing (asserted below); the reported
    // per-method elapsed and sequential wall-clock are medians across the
    // repeats.
    let mut walls: Vec<Duration> = Vec::with_capacity(repeats);
    let mut runs: Vec<Vec<Vec<MethodEvaluation>>> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let sequential_start = Instant::now();
        runs.push(contexts.iter().map(evaluate_all_methods).collect());
        walls.push(sequential_start.elapsed());
    }
    let mut sequential = runs.pop().expect("--repeats is clamped to at least 1");
    for run in &runs {
        for ((seq_rows, rep_rows), context) in sequential.iter().zip(run).zip(&contexts) {
            assert!(
                same_results(seq_rows, rep_rows),
                "sequential repeats diverged on day {}",
                context.snapshot.day()
            );
        }
    }
    for (di, day_rows) in sequential.iter_mut().enumerate() {
        for (ri, row) in day_rows.iter_mut().enumerate() {
            let mut samples: Vec<Duration> = runs.iter().map(|run| run[di][ri].elapsed).collect();
            samples.push(row.elapsed);
            row.elapsed = median_duration(&mut samples);
        }
    }
    let sequential_wall = prep_wall + median_duration(&mut walls);

    let parallel_start = Instant::now();
    let parallel = evaluate_days(&domain.collection, &day_indices, false);
    let parallel_wall = parallel_start.elapsed();
    let threads = rayon::current_num_threads();
    for ((seq_rows, par_day), context) in sequential.iter().zip(&parallel).zip(&contexts) {
        assert!(
            same_results(seq_rows, &par_day.rows),
            "parallel rows diverged from sequential rows on day {}",
            context.snapshot.day()
        );
    }

    // Figure 12 proper: per-method time vs precision on the reference day,
    // timed on the uncontended sequential pass.
    let reference_rows = &sequential[day_indices
        .iter()
        .position(|&i| i == reference)
        .expect("reference day evaluated")];
    let mut rows: Vec<_> = reference_rows.iter().collect();
    rows.sort_by_key(|a| a.elapsed);

    let day = domain.collection.reference_day();
    let mut table = Table::new(
        format!(
            "Figure 12 ({}): precision vs execution time ({} items, {} sources, median of {} timed repeat{})",
            domain.config.domain,
            day.snapshot.num_items(),
            day.snapshot.active_sources().len(),
            repeats,
            if repeats == 1 { "" } else { "s" },
        ),
        &["method", "time (s)", "precision", "rounds"],
    );
    for row in &rows {
        table.row(&[
            row.method.clone(),
            format!("{:.3}", row.elapsed.as_secs_f64()),
            format!("{:.3}", row.precision_without_trust),
            format!("{}", row.rounds),
        ]);
    }
    table.print();

    // Efficiency of the evaluation pipeline itself: measured sequential
    // wall-clock vs measured parallel wall-clock on the identical batch. On
    // a single thread the ratio only measures fan-out overhead (a
    // misleading "0.9x speedup"), so it is flagged invalid instead of
    // reported as a speedup.
    let measured_speedup =
        sequential_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let fanout_speedup_valid = threads > 1;
    let speedup_note = if fanout_speedup_valid {
        format!("speedup {measured_speedup:.1}x")
    } else {
        "speedup n/a on 1 thread — the ratio would only measure fan-out overhead".to_string()
    };
    println!(
        "Fan-out: {} days x 16 methods on {} threads; wall-clock {:.2} s vs {:.2} s sequential ({})",
        parallel.len(),
        threads,
        parallel_wall.as_secs_f64(),
        sequential_wall.as_secs_f64(),
        speedup_note,
    );
    for (day_rows, context) in sequential.iter().zip(&contexts) {
        let method_time: Duration = day_rows.iter().map(|r| r.elapsed).sum();
        println!(
            "  day {:>2}: {:.2} s method time, slowest {}",
            context.snapshot.day(),
            method_time.as_secs_f64(),
            day_rows
                .iter()
                .max_by_key(|r| r.elapsed)
                .map(|r| format!("{} ({:.2} s)", r.method, r.elapsed.as_secs_f64()))
                .unwrap_or_default()
        );
    }

    println!();

    // Machine-readable record for the perf trajectory (BENCH_fig12.json):
    // reference-day per-method timings from the uncontended sequential pass,
    // plus the measured pipeline-level wall clocks.
    let methods = Json::Array(
        reference_rows
            .iter()
            .map(|row| {
                Json::object()
                    .field("method", Json::string(&row.method))
                    .field("elapsed_s", Json::Number(row.elapsed.as_secs_f64()))
                    .field("precision", Json::Number(row.precision_without_trust))
                    .field("rounds", Json::int(row.rounds))
            })
            .collect(),
    );
    Json::object()
        .field("domain", Json::string(&domain.config.domain))
        .field("num_items", Json::int(day.snapshot.num_items()))
        .field("num_sources", Json::int(day.snapshot.active_sources().len()))
        .field("days_evaluated", Json::int(day_indices.len()))
        .field("sequential_wall_s", Json::Number(sequential_wall.as_secs_f64()))
        .field("parallel_wall_s", Json::Number(parallel_wall.as_secs_f64()))
        .field("fanout_speedup", Json::Number(measured_speedup))
        .field("fanout_speedup_valid", Json::Bool(fanout_speedup_valid))
        .field("threads", Json::int(threads))
        .field("repeats", Json::int(repeats))
        .field("methods", methods)
}

/// Delta-engine measurement: a dirty-fraction sweep (1%, 10%, 50% changed
/// claims per day) over a planted day-over-day mutation stream on a neutral
/// scenario world. For each fraction the same successor days run twice:
/// cold — every day prepared from scratch and fused in full — and warm, on
/// one [`fusion::DeltaEngine`] (results asserted bit-identical
/// to the cold pass). Per-pass wall times are medians of `repeats` samples.
fn delta_report(args: &ExpArgs, repeats: usize) -> Json {
    use evaluation::DeltaUsage;
    use fusion::DeltaEngine;

    let world = datagen::Scenario::new("delta_sweep").with_seed(args.seed).build();
    let base = &world.domain.collection.reference_day().snapshot;
    let method_names = ["Vote", "Cosine"];
    let methods: Vec<_> = method_names
        .iter()
        .map(|n| fusion::method_by_name(n).expect("delta sweep methods are registered"))
        .collect();
    let options = fusion::FusionOptions::standard();
    let fractions = [0.01, 0.10, 0.50];
    let num_days = 3usize;

    let mut table = Table::new(
        format!(
            "Delta engine: warm re-fusion vs cold re-preparation ({} items, {} days x {} methods)",
            base.num_items(),
            num_days,
            method_names.len()
        ),
        &["dirty", "cold (s)", "warm exact (s)", "speedup"],
    );
    let mut sweep = Vec::new();
    for &fraction in &fractions {
        let stream = datagen::mutation_stream(base, num_days, fraction, args.seed);

        // Correctness pass (also the warm-up): the engine must match the
        // cold full re-preparation bit for bit on every day and method.
        {
            let mut engine = DeltaEngine::new();
            engine.advance(&stream.days[0]);
            for day in &stream.days[1..] {
                engine.advance(day);
                let cold_problem = fusion::FusionProblem::from_snapshot(day);
                for method in &methods {
                    let (warm, _) = engine.run(method.as_ref(), &options);
                    let cold = method.run(&cold_problem, &options);
                    assert_eq!(
                        warm.selection,
                        cold.selection,
                        "delta exact selection diverged ({}, dirty {fraction})",
                        method.name()
                    );
                    let wb: Vec<u64> = warm.trust.overall.iter().map(|t| t.to_bits()).collect();
                    let cb: Vec<u64> = cold.trust.overall.iter().map(|t| t.to_bits()).collect();
                    assert_eq!(
                        wb,
                        cb,
                        "delta exact trust bits diverged ({}, dirty {fraction})",
                        method.name()
                    );
                }
            }
        }

        // Cold baseline: what a pipeline without warm state pays — each
        // successor day builds its problem from scratch and every method
        // runs with a throwaway scratch.
        let mut cold_samples: Vec<Duration> = (0..repeats)
            .map(|_| {
                let start = Instant::now();
                for day in &stream.days[1..] {
                    let problem = fusion::FusionProblem::from_snapshot(day);
                    for method in &methods {
                        let _ = method.run(&problem, &options);
                    }
                }
                start.elapsed()
            })
            .collect();
        let cold_s = median_duration(&mut cold_samples).as_secs_f64();

        // Warm pass: prime on the base day, then time advance + run over
        // the successor days.
        let mut exact_samples: Vec<Duration> = Vec::with_capacity(repeats);
        let mut exact_usage = DeltaUsage::default();
        for rep in 0..repeats {
            let mut engine = DeltaEngine::new();
            engine.advance(&stream.days[0]);
            for method in &methods {
                let _ = engine.run(method.as_ref(), &options);
            }
            let mut rep_usage = DeltaUsage::default();
            let start = Instant::now();
            for day in &stream.days[1..] {
                rep_usage.record_advance(&engine.advance(day));
                for method in &methods {
                    let (_, report) = engine.run(method.as_ref(), &options);
                    rep_usage.record_run(&report);
                }
            }
            exact_samples.push(start.elapsed());
            if rep == 0 {
                exact_usage = rep_usage;
            }
        }
        let exact_s = median_duration(&mut exact_samples).as_secs_f64();

        let speedup = cold_s / exact_s.max(f64::MIN_POSITIVE);
        table.row(&[
            format!("{:.0}%", 100.0 * fraction),
            format!("{cold_s:.3}"),
            format!("{exact_s:.3}"),
            format!("{speedup:.2}x"),
        ]);
        sweep.push(
            Json::object()
                .field("dirty_fraction", Json::Number(fraction))
                .field("cold_s", Json::Number(cold_s))
                .field("warm_exact_s", Json::Number(exact_s))
                .field("exact_speedup", Json::Number(speedup))
                .field("full_refreshes", Json::int(exact_usage.full_refreshes))
                .field(
                    "mean_dirty_fraction",
                    Json::Number(exact_usage.mean_dirty_fraction()),
                ),
        );
    }
    table.print();

    Json::object()
        .field("world", Json::string("delta_sweep"))
        .field("num_items", Json::int(base.num_items()))
        .field("days", Json::int(num_days))
        .field(
            "methods",
            Json::Array(method_names.iter().map(|n| Json::string(*n)).collect()),
        )
        .field("repeats", Json::int(repeats))
        .field("sweep", Json::Array(sweep))
}

fn main() {
    let args = ExpArgs::from_env();
    // The regression gate fails closed, and before any expensive work: a
    // typo'd threshold must not let CI pass (or waste a run) silently.
    if args.fail_on_regression_invalid {
        eprintln!("FAIL: --fail-on-regression requires a finite numeric PCT (e.g. 25)");
        std::process::exit(1);
    }
    if args.fail_on_regression.is_some() && args.compare.is_none() {
        eprintln!("FAIL: --fail-on-regression requires --compare FILE");
        std::process::exit(1);
    }

    // Load the baseline up front — before any expensive work, and before the
    // fresh artifact write below (the checked-in baseline and the default
    // output path are typically the same file; reading after the write would
    // silently diff the fresh run against itself). Under the gate, a
    // baseline that is unreadable, malformed, or shaped so that no
    // (domain, method) row can ever match is an **unusable baseline**: fail
    // closed with a diagnostic now instead of wasting the run.
    let baseline = args.compare.as_ref().map(|path| {
        (
            path.clone(),
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text)),
        )
    });
    if args.fail_on_regression.is_some() {
        if let Some((path, result)) = &baseline {
            let usable = match result {
                Ok(doc) => bench::baseline_usability(doc),
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = usable {
                eprintln!("FAIL: unusable baseline {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let (stock, flight) = args.both_domains("Figure 12");
    let stock_json = report(&stock, args.repeats);
    let flight_json = report(&flight, args.repeats);
    let delta = delta_report(&args, args.repeats);
    println!(
        "Kernels: the {} backend (target: {})",
        fusion::kernels::backend_name(),
        fusion::kernels::detected_cpu_features(),
    );
    println!("Paper: VOTE finishes in under a second, most methods within 1-10 s, the ATTR");
    println!("       variants in 100-250 s, and AccuCopy in 855 s on Stock; longer execution");
    println!("       time does not guarantee better results.");

    // Emit the trajectory artifact so per-method timings are comparable
    // across PRs (elapsed fields are machine-dependent; compare like with
    // like). Path override: BENCH_FIG12_OUT.
    let out_path =
        std::env::var("BENCH_FIG12_OUT").unwrap_or_else(|_| "BENCH_fig12.json".to_string());
    let doc = Json::object()
        .field("schema_version", Json::int(1))
        .field("experiment", Json::string("fig12_efficiency"))
        .field("seed", Json::int(args.seed as usize))
        .field("scale", Json::Number(args.scale))
        .field("days", Json::Number(args.days))
        .field(
            "kernel_backend",
            Json::string(fusion::kernels::backend_name()),
        )
        .field(
            "cpu_features",
            Json::string(fusion::kernels::detected_cpu_features()),
        )
        .field(
            "rayon_threads",
            Json::int(rayon::current_num_threads()),
        )
        .field(
            "available_parallelism",
            Json::int(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
        )
        .field("delta", delta)
        .field("domains", Json::Array(vec![stock_json, flight_json]));

    match std::fs::write(&out_path, doc.render()) {
        Ok(()) => println!("\nWrote {out_path}"),
        Err(e) => eprintln!("\nCould not write {out_path}: {e}"),
    }

    // Perf trajectory: diff this run against the checked-in baseline. With
    // --fail-on-regression PCT the diff becomes a gate: any per-method
    // slowdown beyond PCT percent (or an unusable baseline) exits non-zero
    // instead of succeeding silently.
    if let Some((baseline_path, result)) = baseline {
        println!();
        match result {
            Ok(baseline) => {
                bench::print_fig12_comparison(&baseline, &doc);
                if let Some(pct) = args.fail_on_regression {
                    if !bench::same_scale(&baseline, &doc) {
                        eprintln!(
                            "FAIL: --fail-on-regression cannot be evaluated: baseline \
                             {baseline_path} uses different --seed/--scale/--days"
                        );
                        std::process::exit(1);
                    }
                    // A usable-shaped baseline can still share zero rows
                    // with this run (e.g. a different registry era). An
                    // empty diff must not read as "gate passed".
                    if bench::fig12_deltas(&baseline, &doc).is_empty() {
                        eprintln!(
                            "FAIL: unusable baseline {baseline_path}: no overlapping \
                             (domain, method) rows with the fresh run"
                        );
                        std::process::exit(1);
                    }
                    let regressions = bench::fig12_regressions(&baseline, &doc, pct);
                    if !regressions.is_empty() {
                        eprintln!(
                            "FAIL: {} per-method regression(s) beyond {pct}% vs {baseline_path}",
                            regressions.len()
                        );
                        std::process::exit(1);
                    }
                    println!("No per-method regressions beyond {pct}% — gate passed.");
                }
            }
            Err(e) => {
                eprintln!("Could not load baseline {baseline_path}: {e}");
                if args.fail_on_regression.is_some() {
                    std::process::exit(1);
                }
            }
        }
    }
}
