//! Figure 9 — fusion recall as sources are added in recall order, for a
//! representative method of each category.

use bench::{ExpArgs, Table};
use datagen::GeneratedDomain;
use evaluation::{incremental_recall, incremental_recall_delta, EvaluationContext};
use std::time::Instant;

fn report(domain: &GeneratedDomain, methods: &[&str], step: usize) {
    let day = domain.collection.reference_day();
    let context = EvaluationContext::new(&day.snapshot, &day.gold);
    let series = incremental_recall(&context, methods, step);

    let mut header: Vec<String> = vec!["#sources".to_string()];
    header.extend(series.iter().map(|s| s.method.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("Figure 9 ({}): recall as sources are added", domain.config.domain),
        &header_refs,
    );
    let num_points = series.first().map(|s| s.points.len()).unwrap_or(0);
    for i in 0..num_points {
        let mut row = vec![format!("{}", series[0].points[i].num_sources)];
        for s in &series {
            row.push(format!("{:.3}", s.points[i].recall));
        }
        table.row(&row);
    }
    table.print();

    for s in &series {
        if let Some(peak) = s.peak() {
            println!(
                "{}: peak recall {:.3} at {} sources, final recall {:.3}",
                s.method,
                peak.recall,
                peak.num_sources,
                s.final_recall()
            );
        }
    }
    println!();
}

/// The `--delta` leg: re-run the prefix ladder on one warm
/// [`fusion::DeltaEngine`]. Growing a source prefix is a pure
/// source-axis delta under pinned tolerances, so the engine splices every
/// item the new sources don't touch instead of re-bucketing the whole
/// prefix; the cold pass re-prepares each prefix from scratch. (The two
/// ladders restrict with different tolerance handling — recomputed vs.
/// pinned — so the recall columns are reported, not asserted equal.)
fn delta_report(domain: &GeneratedDomain, methods: &[&str], step: usize) {
    let day = domain.collection.reference_day();
    let context = EvaluationContext::new(&day.snapshot, &day.gold);

    let t_cold = Instant::now();
    let cold = incremental_recall(&context, methods, step);
    let cold_wall = t_cold.elapsed();

    let t_warm = Instant::now();
    let (warm, usage) = incremental_recall_delta(&context, methods, step);
    let warm_wall = t_warm.elapsed();

    println!(
        "[delta] {}: warm engine {:.3}s vs cold per-prefix pass {:.3}s over {} prefixes",
        domain.config.domain,
        warm_wall.as_secs_f64(),
        cold_wall.as_secs_f64(),
        usage.advances
    );
    println!(
        "[delta]   cache hits {}/{} runs, full refreshes {}/{}, mean dirty fraction {:.3}, \
         prepare {:.3}s",
        usage.cache_hits,
        usage.runs,
        usage.full_refreshes,
        usage.advances,
        usage.mean_dirty_fraction(),
        usage.prepare.as_secs_f64()
    );
    for (w, c) in warm.iter().zip(&cold) {
        println!(
            "[delta]   {}: pinned-prefix peak {:.3}, cold-prefix peak {:.3}",
            w.method,
            w.peak().map(|p| p.recall).unwrap_or(0.0),
            c.peak().map(|p| p.recall).unwrap_or(0.0)
        );
    }
    println!();
}

fn main() {
    let args = ExpArgs::from_env();
    let (stock, flight) = args.both_domains("Figure 9");
    // One representative per category, as in the paper's plots.
    let stock_methods = ["Vote", "Hub", "Cosine", "3-Estimates", "AccuFormatAttr", "AccuCopy"];
    let flight_methods = ["Vote", "PooledInvest", "Cosine", "2-Estimates", "PopAccu", "AccuCopy"];
    report(&stock, &stock_methods, 5);
    report(&flight, &flight_methods, 4);
    if args.delta {
        delta_report(&stock, &stock_methods, 5);
        delta_report(&flight, &flight_methods, 4);
    }
    println!("Paper: recall peaks at the 5th source for Stock and the 9th for Flight;");
    println!("       adding the remaining sources does not improve (and can hurt) recall.");
}
