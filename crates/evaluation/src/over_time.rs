//! Precision over the full collection period (Table 9): average, minimum,
//! and standard deviation of every method's daily precision.
//!
//! [`evaluate_over_time`] fans the days across the rayon pool, one task per
//! day: each task prepares its day's problem and runs every method over it
//! with one reused scratch. [`evaluate_over_time_delta`] produces the same
//! rows, bit for bit, by walking the days in order on one warm
//! [`DeltaEngine`].

use crate::delta_usage::DeltaUsage;
use crate::metrics::precision_recall;
use datamodel::{Collection, CollectionDay};
use fusion::{all_methods, DeltaEngine, FusionMethod, FusionOptions, FusionProblem, FusionScratch};
use rayon::prelude::*;
use serde::Serialize;

/// Table-9 row for one method.
#[derive(Debug, Clone, Serialize)]
pub struct MethodOverTime {
    /// Method name.
    pub method: String,
    /// Category label.
    pub category: String,
    /// Daily precision values (one per collection day).
    pub daily_precision: Vec<f64>,
    /// Average precision over the period.
    pub average: f64,
    /// Minimum precision over the period.
    pub minimum: f64,
    /// Standard deviation of the daily precision.
    pub deviation: f64,
}

/// Run every method on every day of a collection and summarize. Table 9
/// only uses the standard (without-trust) runs, so no copy knowledge is
/// involved.
pub fn evaluate_over_time(collection: &Collection) -> Vec<MethodOverTime> {
    let mut rows = method_rows();
    let methods = all_methods();
    let options = FusionOptions::standard();

    // One task per day; each inner vector is that day's per-method
    // precisions, collected back in day order.
    let days: Vec<&CollectionDay> = collection.days().collect();
    let per_day: Vec<Vec<f64>> = days
        .into_par_iter()
        .map(|day| {
            let problem = FusionProblem::from_snapshot(&day.snapshot);
            let mut scratch = FusionScratch::new();
            methods
                .iter()
                .map(|(_, method)| {
                    let result = method.run_with_scratch(&problem, &options, &mut scratch);
                    precision_recall(&day.snapshot, &day.gold, &result).precision
                })
                .collect()
        })
        .collect();
    for day_precisions in per_day {
        for (row, precision) in rows.iter_mut().zip(day_precisions) {
            row.daily_precision.push(precision);
        }
    }

    summarize(&mut rows);
    rows
}

/// Run every method on every day of a collection through one warm
/// [`DeltaEngine`] (day-over-day delta'd preparation instead of per-day cold
/// refills) and summarize.
///
/// The returned rows are bit-identical to [`evaluate_over_time`]: each day's
/// problem is spliced from the previous day's CSR state (or fully refreshed
/// when the dirty fraction exceeds [`fusion::delta::MAX_DIRTY_FRACTION`])
/// and every method re-runs deterministically over it. The days are
/// inherently sequential — the warm state carries forward — so the
/// parallelism is within a day: [`DeltaEngine::run_all`] spreads each day's
/// methods over the rayon pool.
///
/// Also returns the aggregated [`DeltaUsage`] (dirty fractions, full-refresh,
/// run and cache-hit counts, preparation wall time) for the
/// `exp_table9_month --delta` leg.
pub fn evaluate_over_time_delta(collection: &Collection) -> (Vec<MethodOverTime>, DeltaUsage) {
    let mut rows = method_rows();
    let registry = all_methods();
    let methods: Vec<&dyn FusionMethod> = registry.iter().map(|(_, m)| m.as_ref()).collect();
    let options = FusionOptions::standard();

    let mut engine = DeltaEngine::new();
    let mut usage = DeltaUsage::default();
    for day in collection.days() {
        usage.record_advance(&engine.advance(&day.snapshot));
        let runs = engine.run_all(&methods, &options);
        for ((result, report), row) in runs.into_iter().zip(rows.iter_mut()) {
            usage.record_run(&report);
            row.daily_precision
                .push(precision_recall(&day.snapshot, &day.gold, &result).precision);
        }
    }

    summarize(&mut rows);
    (rows, usage)
}

fn method_rows() -> Vec<MethodOverTime> {
    all_methods()
        .iter()
        .map(|(category, method)| MethodOverTime {
            method: method.name(),
            category: category.label().to_string(),
            daily_precision: Vec::new(),
            average: 0.0,
            minimum: 0.0,
            deviation: 0.0,
        })
        .collect()
}

fn summarize(rows: &mut [MethodOverTime]) {
    for row in rows {
        row.average = datamodel::mean(&row.daily_precision);
        row.minimum = row
            .daily_precision
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .min(1.0);
        if !row.minimum.is_finite() {
            row.minimum = 0.0;
        }
        row.deviation = datamodel::stddev(&row.daily_precision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, stock_config};

    #[test]
    fn over_time_rows_cover_every_method_and_day() {
        let domain = generate(&stock_config(71).scaled(0.01, 0.15));
        let rows = evaluate_over_time(&domain.collection);
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert_eq!(row.daily_precision.len(), domain.collection.num_days());
            assert!(row.minimum <= row.average + 1e-12);
            assert!(row.average >= 0.0 && row.average <= 1.0);
            assert!(row.deviation >= 0.0);
        }
    }

    #[test]
    fn delta_exact_rows_match_the_cold_runner_bit_for_bit() {
        let domain = generate(&stock_config(72).scaled(0.008, 0.12));
        let cold = evaluate_over_time(&domain.collection);
        let (warm, usage) = evaluate_over_time_delta(&domain.collection);
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.method, c.method);
            assert_eq!(w.daily_precision, c.daily_precision, "method {}", w.method);
            assert_eq!(w.average.to_bits(), c.average.to_bits());
            assert_eq!(w.minimum.to_bits(), c.minimum.to_bits());
            assert_eq!(w.deviation.to_bits(), c.deviation.to_bits());
        }
        assert_eq!(usage.advances, domain.collection.num_days());
        assert!(usage.full_refreshes >= 1, "first day is always a full prepare");
        assert_eq!(usage.runs, 16 * domain.collection.num_days());
    }
}
