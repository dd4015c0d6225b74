//! Scenario golden-metrics evaluation.
//!
//! Every named stress scenario (see `datagen::scenario`) pins its behaviour
//! with a checked-in golden table: one precision row per registry method plus
//! the copy-detection hit/false-positive rates against the generator's
//! planted copy edges. [`evaluate_scenario_day`] computes the metrics from a
//! snapshot, its ground truth, and the true edge set;
//! [`render_golden_table`] serializes them into the deterministic text format
//! the `exp_scenarios` binary emits and `tests/scenarios.rs` asserts
//! bit-for-bit.
//!
//! Precision here is measured against the *generator truth* (not the
//! paper-style sampled gold standard): scenario knobs like Zipf coverage can
//! thin the authority-voting gold arbitrarily, while the truth restricted to
//! claimed items stays complete under every knob.

use crate::runner::{evaluate_all_methods, EvaluationContext};
use copydetect::{compare_edges, CopyDetector, EdgeComparison};
use datamodel::{GoldStandard, Snapshot, SourceId};
use serde::Serialize;
use std::fmt::Write as _;

/// One golden-table row: a method's precision/recall on the scenario day.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioMethodRow {
    /// Method name (paper spelling).
    pub method: String,
    /// Precision against the generator truth, method-estimated trust.
    pub precision: f64,
    /// Precision when the sampled trust is given as input.
    pub precision_with_trust: f64,
    /// Recall of the without-trust run.
    pub recall: f64,
}

/// All golden metrics of one scenario day.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Number of items in the evaluated snapshot.
    pub items: usize,
    /// Number of observations (claims) in the evaluated snapshot.
    pub observations: usize,
    /// Number of sources in the schema.
    pub sources: usize,
    /// Copy-detection score against the planted edges.
    pub copy_detection: EdgeComparison,
    /// One row per registry method, in Table-7 order.
    pub rows: Vec<ScenarioMethodRow>,
}

/// Evaluate all registry methods and the copy detector on one scenario day.
/// `truth` is the generator's ground truth for the day; `true_edges` is the
/// planted copy-edge set (see `datagen::scenario::ScenarioWorld`).
pub fn evaluate_scenario_day(
    name: &str,
    snapshot: &Snapshot,
    truth: &GoldStandard,
    true_edges: &[(SourceId, SourceId)],
) -> ScenarioOutcome {
    let context = EvaluationContext::new(snapshot, truth);
    let rows = evaluate_all_methods(&context)
        .into_iter()
        .map(|row| ScenarioMethodRow {
            method: row.method,
            precision: row.precision_without_trust,
            precision_with_trust: row.precision_with_trust,
            recall: row.recall_without_trust,
        })
        .collect();
    let report = CopyDetector::new().detect(snapshot, truth);
    let copy_detection = compare_edges(&report, true_edges);
    ScenarioOutcome {
        name: name.to_string(),
        items: snapshot.num_items(),
        observations: snapshot.num_observations(),
        sources: snapshot.schema().num_sources(),
        copy_detection,
        rows,
    }
}

/// Render the outcome as the golden-table text format: integer counts, six
/// fixed decimals for every rate, one method per line. The format is stable
/// by construction — bit-identical output across debug/release builds and
/// rayon pool sizes is what the golden suite asserts.
pub fn render_golden_table(outcome: &ScenarioOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario: {}", outcome.name);
    let _ = writeln!(
        out,
        "snapshot: items={} observations={} sources={}",
        outcome.items, outcome.observations, outcome.sources
    );
    let cd = &outcome.copy_detection;
    let _ = writeln!(
        out,
        "copy_detection: true_edges={} detected={} hits={} false_positives={}",
        cd.true_edges, cd.detected_edges, cd.hits, cd.false_positives
    );
    let _ = writeln!(
        out,
        "copy_detection_rates: hit_rate={:.6} false_positive_rate={:.6}",
        cd.hit_rate(),
        cd.false_positive_rate()
    );
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>12} {:>10}",
        "method", "precision", "prec_w_trust", "recall"
    );
    for row in &outcome.rows {
        let _ = writeln!(
            out,
            "{:<24} {:>10.6} {:>12.6} {:>10.6}",
            row.method, row.precision, row.precision_with_trust, row.recall
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::scenario::by_name;

    #[test]
    fn scenario_outcome_has_all_rows_and_sane_rates() {
        let world = by_name("copier_ring").unwrap().build();
        let day = world.domain.collection.reference_day();
        let outcome = evaluate_scenario_day(
            "copier_ring",
            &day.snapshot,
            &day.truth,
            &world.true_edges,
        );
        assert_eq!(outcome.rows.len(), 16);
        assert_eq!(outcome.rows[0].method, "Vote");
        assert_eq!(outcome.rows[15].method, "AccuCopy");
        for row in &outcome.rows {
            assert!(row.precision >= 0.0 && row.precision <= 1.0);
            assert!(row.recall <= row.precision + 1e-9);
        }
        assert!(outcome.copy_detection.true_edges > 0);
        // The laundered ring shares plenty of false values; detection must
        // recover a substantial part of the planted edges.
        assert!(
            outcome.copy_detection.hit_rate() > 0.3,
            "hit rate {} too low",
            outcome.copy_detection.hit_rate()
        );
    }

    #[test]
    fn rendered_table_is_deterministic_and_parseable() {
        let world = by_name("format_drift").unwrap().build();
        let day = world.domain.collection.reference_day();
        let a = render_golden_table(&evaluate_scenario_day(
            "format_drift",
            &day.snapshot,
            &day.truth,
            &world.true_edges,
        ));
        let b = render_golden_table(&evaluate_scenario_day(
            "format_drift",
            &day.snapshot,
            &day.truth,
            &world.true_edges,
        ));
        assert_eq!(a, b);
        assert!(a.starts_with("scenario: format_drift\n"));
        assert_eq!(a.lines().count(), 5 + 16);
        assert!(a.lines().any(|l| l.starts_with("Vote ")));
    }
}
