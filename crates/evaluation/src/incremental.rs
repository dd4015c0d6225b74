//! Incremental-source experiments (Figure 9): order the sources by recall
//! (coverage × accuracy against the gold standard), add them one at a time,
//! and measure each method's recall after every addition.
//!
//! The paper's headline observation from this experiment: fusing a few
//! high-recall sources reaches the best recall (the peak is at the 5th source
//! for Stock and the 9th for Flight); adding the remaining sources only
//! hurts.
//!
//! [`incremental_recall_delta`] walks the same prefix ladder on one warm
//! [`DeltaEngine`], with every prefix bucketed under the full snapshot's
//! tolerances, and is bit-identical to cold-preparing those pinned prefixes.

use crate::delta_usage::DeltaUsage;
use crate::metrics::precision_recall;
use crate::runner::EvaluationContext;
use datamodel::{GoldStandard, Snapshot, SourceId};
use fusion::{
    method_by_name, DeltaEngine, FusionMethod, FusionOptions, FusionScratch, ProblemBuilder,
};
use serde::Serialize;

/// Recall after adding the first `num_sources` sources.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IncrementalPoint {
    /// Number of sources fused.
    pub num_sources: usize,
    /// Recall against the gold standard.
    pub recall: f64,
}

/// The Figure-9 series of one method.
#[derive(Debug, Clone, Serialize)]
pub struct IncrementalSeries {
    /// Method name.
    pub method: String,
    /// One point per prefix of the recall-ordered source list.
    pub points: Vec<IncrementalPoint>,
}

impl IncrementalSeries {
    /// The number of sources at which recall peaks.
    pub fn peak(&self) -> Option<IncrementalPoint> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.recall.partial_cmp(&b.recall).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Recall with every source fused (the last point).
    pub fn final_recall(&self) -> f64 {
        self.points.last().map(|p| p.recall).unwrap_or(0.0)
    }
}

/// Order the sources by their recall (accuracy × coverage) against the gold
/// standard, best first.
pub fn sources_by_recall(snapshot: &Snapshot, gold: &GoldStandard) -> Vec<SourceId> {
    let mut scored: Vec<(SourceId, f64)> = snapshot
        .active_sources()
        .into_iter()
        .map(|source| {
            let mut correct = 0usize;
            for (item, truth) in gold.iter() {
                if let Some(value) = snapshot.value_of(source, *item) {
                    let tol = snapshot.tolerance().tolerance(item.attr);
                    if truth.matches(value, tol) || value.subsumes(truth) {
                        correct += 1;
                    }
                }
            }
            // Recall of the single source: correct values over all gold items.
            let recall = correct as f64 / gold.len().max(1) as f64;
            (source, recall)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().map(|(s, _)| s).collect()
}

/// Run the Figure-9 experiment for the named methods. `step` controls how
/// many sources are added between measurements (1 reproduces the paper's
/// per-source curve; larger steps keep the experiment fast on full-scale
/// data).
///
/// The prefix problems ride on one warm [`ProblemBuilder`]: each source
/// prefix re-fills the builder's problem in place and every method runs
/// against it with one reused [`FusionScratch`], so the experiment never
/// holds all prefix problems in memory at once. Unknown method names are
/// skipped.
pub fn incremental_recall(
    context: &EvaluationContext<'_>,
    methods: &[&str],
    step: usize,
) -> Vec<IncrementalSeries> {
    let order = sources_by_recall(context.snapshot, context.gold);
    let step = step.max(1);
    let resolved: Vec<_> = methods
        .iter()
        .filter_map(|name| method_by_name(name))
        .collect();
    let mut series: Vec<IncrementalSeries> = resolved
        .iter()
        .map(|method| IncrementalSeries {
            method: method.name(),
            points: Vec::new(),
        })
        .collect();

    let mut builder = ProblemBuilder::new();
    let mut scratch = FusionScratch::new();
    let mut k = 1;
    while k <= order.len() {
        let restricted = context.snapshot.restrict_to_sources(&order[..k], None);
        let problem = builder.prepare(&restricted);
        for (method, series) in resolved.iter().zip(series.iter_mut()) {
            let result = method.run_with_scratch(problem, &FusionOptions::standard(), &mut scratch);
            let pr = precision_recall(context.snapshot, context.gold, &result);
            series.points.push(IncrementalPoint {
                num_sources: k,
                recall: pr.recall,
            });
        }
        if k == order.len() {
            break;
        }
        k = (k + step).min(order.len());
    }
    series
}

/// Run the Figure-9 experiment prefix-over-prefix on one warm
/// [`DeltaEngine`].
///
/// Each prefix snapshot is built by [`Snapshot::restrict_to_sources`] with
/// the full snapshot's tolerance context carried over: growing the prefix
/// then only adds sources, so consecutive prefixes differ by a pure
/// source-axis delta and the engine splices the untouched item rows instead
/// of re-bucketing the whole prefix. (The classic [`incremental_recall`] recomputes each prefix's
/// tolerance from the restricted data, so the two runners can disagree on
/// tolerance-sensitive items; within this runner, the engine is still
/// bit-identical to cold-preparing the same pinned prefixes, as pinned by the
/// tests.)
///
/// Also returns the aggregated [`DeltaUsage`] for the
/// `exp_fig9_incremental --delta` leg.
pub fn incremental_recall_delta(
    context: &EvaluationContext<'_>,
    methods: &[&str],
    step: usize,
) -> (Vec<IncrementalSeries>, DeltaUsage) {
    let order = sources_by_recall(context.snapshot, context.gold);
    let step = step.max(1);
    let resolved: Vec<_> = methods
        .iter()
        .filter_map(|name| method_by_name(name))
        .collect();
    let methods: Vec<&dyn FusionMethod> = resolved.iter().map(AsRef::as_ref).collect();
    let mut series: Vec<IncrementalSeries> = resolved
        .iter()
        .map(|method| IncrementalSeries {
            method: method.name(),
            points: Vec::new(),
        })
        .collect();

    let mut engine = DeltaEngine::new();
    let mut usage = DeltaUsage::default();
    let mut k = 1;
    while k <= order.len() {
        let restricted = context
            .snapshot
            .restrict_to_sources(&order[..k], Some(context.snapshot.tolerance()));
        usage.record_advance(&engine.advance(&restricted));
        let runs = engine.run_all(&methods, &FusionOptions::standard());
        for ((result, report), series) in runs.into_iter().zip(series.iter_mut()) {
            usage.record_run(&report);
            let pr = precision_recall(context.snapshot, context.gold, &result);
            series.points.push(IncrementalPoint {
                num_sources: k,
                recall: pr.recall,
            });
        }
        if k == order.len() {
            break;
        }
        k = (k + step).min(order.len());
    }
    (series, usage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, stock_config};

    #[test]
    fn recall_ordering_is_descending_and_puts_good_sources_first() {
        let domain = generate(&stock_config(41).scaled(0.02, 0.1));
        let day = domain.collection.reference_day();
        let order = sources_by_recall(&day.snapshot, &day.gold);
        assert_eq!(order.len(), day.snapshot.active_sources().len());
        // The dead / lowest-quality sources must come last, and the head of
        // the ordering must be a high-accuracy source.
        let accuracy = |s: datamodel::SourceId| {
            profiling::source_accuracy(&day.snapshot, &day.gold, s)
                .accuracy
                .unwrap_or(0.0)
        };
        assert!(
            accuracy(order[0]) > 0.85,
            "best-recall source has accuracy {}",
            accuracy(order[0])
        );
        assert!(accuracy(order[order.len() - 1]) < accuracy(order[0]));
    }

    #[test]
    fn incremental_series_cover_all_prefixes_and_are_bounded() {
        let domain = generate(&stock_config(42).scaled(0.015, 0.1));
        let day = domain.collection.reference_day();
        let context = EvaluationContext::new(&day.snapshot, &day.gold);
        let series = incremental_recall(&context, &["Vote", "AccuPr"], 10);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert!(!s.points.is_empty());
            // Last point fuses every source.
            assert_eq!(
                s.points.last().unwrap().num_sources,
                day.snapshot.active_sources().len()
            );
            for p in &s.points {
                assert!(p.recall >= 0.0 && p.recall <= 1.0);
            }
            // Recall with a single source cannot exceed the peak.
            assert!(s.points[0].recall <= s.peak().unwrap().recall + 1e-12);
            assert!(s.final_recall() >= 0.0);
        }
    }

    #[test]
    fn delta_prefixes_match_cold_pinned_prefixes_bit_for_bit() {
        let domain = generate(&stock_config(44).scaled(0.012, 0.1));
        let day = domain.collection.reference_day();
        let context = EvaluationContext::new(&day.snapshot, &day.gold);
        let methods = ["Vote", "Cosine", "AccuPr"];
        let (warm, usage) = incremental_recall_delta(&context, &methods, 3);
        assert_eq!(warm.len(), methods.len());

        // Cold baseline: the same pinned prefixes, each prepared from scratch.
        let order = sources_by_recall(&day.snapshot, &day.gold);
        let mut builder = ProblemBuilder::new();
        let mut scratch = FusionScratch::new();
        let mut k = 1;
        let mut point = 0usize;
        while k <= order.len() {
            let restricted = day
                .snapshot
                .restrict_to_sources(&order[..k], Some(day.snapshot.tolerance()));
            let problem = builder.prepare(&restricted);
            for (name, series) in methods.iter().zip(&warm) {
                let method = method_by_name(name).unwrap();
                let result =
                    method.run_with_scratch(problem, &FusionOptions::standard(), &mut scratch);
                let pr = precision_recall(&day.snapshot, &day.gold, &result);
                let got = series.points[point];
                assert_eq!(got.num_sources, k);
                assert_eq!(got.recall.to_bits(), pr.recall.to_bits(), "method {name} at k={k}");
            }
            point += 1;
            if k == order.len() {
                break;
            }
            k = (k + 3).min(order.len());
        }
        for series in &warm {
            assert_eq!(series.points.len(), point);
        }
        assert_eq!(usage.advances, point);
        assert!(usage.full_refreshes >= 1);
    }

    #[test]
    fn unknown_methods_are_skipped() {
        let domain = generate(&stock_config(43).scaled(0.01, 0.1));
        let day = domain.collection.reference_day();
        let context = EvaluationContext::new(&day.snapshot, &day.gold);
        let series = incremental_recall(&context, &["Vote", "DoesNotExist"], 20);
        assert_eq!(series.len(), 1);
    }
}
