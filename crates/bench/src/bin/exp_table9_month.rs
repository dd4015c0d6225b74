//! Table 9 — precision of every fusion method over the whole collection
//! period: average, minimum, and standard deviation of the daily precision.

use bench::{ExpArgs, Table};
use datagen::GeneratedDomain;
use evaluation::{evaluate_over_time, evaluate_over_time_delta};
use std::time::Instant;

/// Paper Table-9 averages for reference.
const PAPER_AVERAGE: [(&str, f64, f64); 16] = [
    ("Vote", 0.922, 0.887),
    ("Hub", 0.925, 0.885),
    ("AvgLog", 0.921, 0.868),
    ("Invest", 0.797, 0.786),
    ("PooledInvest", 0.871, 0.979),
    ("2-Estimates", 0.910, 0.639),
    ("3-Estimates", 0.923, 0.718),
    ("Cosine", 0.923, 0.880),
    ("TruthFinder", 0.930, 0.818),
    ("AccuPr", 0.922, 0.893),
    ("PopAccu", 0.912, 0.972),
    ("AccuSim", 0.932, 0.866),
    ("AccuFormat", 0.932, 0.866),
    ("AccuSimAttr", 0.941, 0.956),
    ("AccuFormatAttr", 0.941, 0.956),
    ("AccuCopy", 0.884, 0.987),
];

fn paper_avg(method: &str, flight: bool) -> String {
    PAPER_AVERAGE
        .iter()
        .find(|(m, _, _)| *m == method)
        .map(|(_, s, f)| format!("{:.3}", if flight { *f } else { *s }))
        .unwrap_or_else(|| "-".to_string())
}

fn report(domain: &GeneratedDomain, flight: bool) {
    let rows = evaluate_over_time(&domain.collection);
    let mut table = Table::new(
        format!(
            "Table 9 ({}): precision over {} days",
            domain.config.domain,
            domain.collection.num_days()
        ),
        &["method", "avg", "paper avg", "min", "deviation"],
    );
    for row in &rows {
        table.row(&[
            row.method.clone(),
            format!("{:.3}", row.average),
            paper_avg(&row.method, flight),
            format!("{:.3}", row.minimum),
            format!("{:.3}", row.deviation),
        ]);
    }
    table.print();
}

/// The `--delta` leg: re-run the month day-over-day on one warm
/// [`fusion::DeltaEngine`], assert the rows equal the cold per-day pass
/// bit-for-bit, and report warm-vs-cold wall time plus the engine's
/// cache-hit and fall-back accounting. Generated collections drift daily
/// (values move, so the recomputed tolerances move), which pushes the engine
/// toward its full-refresh fall-back — the leg reports how often that
/// happened rather than hiding it.
fn delta_report(domain: &GeneratedDomain) {
    let t_cold = Instant::now();
    let cold = evaluate_over_time(&domain.collection);
    let cold_wall = t_cold.elapsed();

    let t_warm = Instant::now();
    let (warm, usage) = evaluate_over_time_delta(&domain.collection);
    let warm_wall = t_warm.elapsed();

    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(
            w.daily_precision, c.daily_precision,
            "delta rows diverged from the cold pass for {}",
            w.method
        );
    }

    println!(
        "[delta] {}: warm engine {:.3}s vs cold per-day pass {:.3}s over {} days (rows bit-identical)",
        domain.config.domain,
        warm_wall.as_secs_f64(),
        cold_wall.as_secs_f64(),
        domain.collection.num_days()
    );
    println!(
        "[delta]   cache hits {}/{} runs, full refreshes {}/{}, identical days {}, \
         mean dirty fraction {:.3}, prepare {:.3}s",
        usage.cache_hits,
        usage.runs,
        usage.full_refreshes,
        usage.advances,
        usage.identical_days,
        usage.mean_dirty_fraction(),
        usage.prepare.as_secs_f64()
    );
    println!();
}

fn main() {
    let args = ExpArgs::from_env();
    let (stock, flight) = args.both_domains("Table 9");
    report(&stock, false);
    report(&flight, true);
    if args.delta {
        delta_report(&stock);
        delta_report(&flight);
    }
    println!("Paper: AccuFormatAttr is the best on Stock over the month (.941);");
    println!("       AccuCopy is the best on Flight (.987).");
}
