//! Running fusion methods over snapshots and collecting the Table-7
//! measurements: precision with and without input trust, trustworthiness
//! deviation and difference, execution time.
//!
//! [`evaluate_all_methods`] is the sequential reference for one prepared
//! [`EvaluationContext`]; [`evaluate_days`] is the one multi-day runner,
//! fanning every (day, method) pair across CPU cores with rows identical to
//! the reference.

use crate::metrics::{precision_recall, sampled_trust, trust_deviation_and_difference};
use copydetect::{known_copying, CopyReport};
use datamodel::{Collection, GoldStandard, Snapshot};
use fusion::{
    all_methods, method_by_name, CopyMatrix, FusionMethod, FusionOptions, FusionProblem,
    FusionResult, FusionScratch, MethodCategory,
};
use rayon::prelude::*;
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// Everything needed to evaluate methods on one snapshot.
///
/// Cloning is cheap: the snapshot and gold standard are borrowed, the
/// prepared problem (with all its `Value` strings) sits behind an `Arc`
/// shared by every clone, and only the sampled-trust vector and optional
/// copy matrix are flat copies — so callers can hand contexts around without
/// re-preparing or duplicating the problem.
#[derive(Clone)]
pub struct EvaluationContext<'a> {
    /// The observation table.
    pub snapshot: &'a Snapshot,
    /// The gold standard precision is measured against.
    pub gold: &'a GoldStandard,
    /// The prepared fusion problem (built once, shared by all methods and all
    /// clones of the context).
    pub problem: Arc<FusionProblem>,
    /// Sampled source trust (accuracy against the gold standard), used for
    /// the "with trust" runs and for trust deviation/difference.
    pub sampled_trust: Vec<f64>,
    /// Known copy probabilities (dense source-index pairs) used by copy-aware
    /// methods in the oracle runs; typically derived from the planted or
    /// claimed copy groups (Table 5).
    pub known_copying: Option<CopyMatrix>,
}

impl<'a> EvaluationContext<'a> {
    /// Build a context from a snapshot and gold standard.
    pub fn new(snapshot: &'a Snapshot, gold: &'a GoldStandard) -> Self {
        let problem = FusionProblem::from_snapshot(snapshot);
        let sampled_trust = sampled_trust(snapshot, gold, &problem, 0.8);
        Self {
            snapshot,
            gold,
            problem: Arc::new(problem),
            sampled_trust,
            known_copying: None,
        }
    }

    /// Attach known copying information (used by the oracle runs of
    /// copy-aware methods).
    pub fn with_known_copying(mut self, report: &CopyReport) -> Self {
        self.known_copying = Some(copy_report_to_dense(report, &self.problem));
        self
    }
}

/// Convert a [`CopyReport`] (source-id keyed) into the dense source-index
/// matrix the fusion options expect.
pub fn copy_report_to_dense(report: &CopyReport, problem: &FusionProblem) -> CopyMatrix {
    let mut matrix = CopyMatrix::new(problem.num_sources());
    for ((a, b), p) in report.pairs() {
        if let (Some(i), Some(j)) = (problem.source_index(*a), problem.source_index(*b)) {
            matrix.set(i, j, *p);
        }
    }
    matrix
}

/// Table-7 row for one method.
#[derive(Debug, Clone, Serialize)]
pub struct MethodEvaluation {
    /// Method name (paper spelling).
    pub method: String,
    /// Category label (Table 6).
    pub category: String,
    /// Precision when the method estimates trust itself ("prec w/o. trust").
    pub precision_without_trust: f64,
    /// Recall of the same run (equals precision when all items are output).
    pub recall_without_trust: f64,
    /// Precision when the sampled trust is given as input ("prec w. trust").
    pub precision_with_trust: f64,
    /// Trustworthiness deviation (Equation 4) of the without-trust run.
    pub trust_deviation: f64,
    /// Mean computed trust minus mean sampled trust.
    pub trust_difference: f64,
    /// Number of iterative rounds of the without-trust run.
    pub rounds: usize,
    /// Execution time of the without-trust run.
    pub elapsed: Duration,
}

/// Evaluate a single method on a context, on the calling thread. `category`
/// is only used for the report label.
pub fn evaluate_method(
    context: &EvaluationContext<'_>,
    category: MethodCategory,
    method: &dyn FusionMethod,
) -> MethodEvaluation {
    let mut scratch = FusionScratch::new();
    let without =
        method.run_with_scratch(&context.problem, &FusionOptions::standard(), &mut scratch);
    let pr_without = precision_recall(context.snapshot, context.gold, &without);
    let (deviation, difference) =
        trust_deviation_and_difference(&without.trust.overall, &context.sampled_trust);

    let mut with_opts = FusionOptions::standard().with_input_trust(context.sampled_trust.clone());
    if let Some(known) = &context.known_copying {
        with_opts = with_opts.with_known_copying(known.clone());
    }
    let with = method.run_with_scratch(&context.problem, &with_opts, &mut scratch);
    let pr_with = precision_recall(context.snapshot, context.gold, &with);

    MethodEvaluation {
        method: method.name(),
        category: category.label().to_string(),
        precision_without_trust: pr_without.precision,
        recall_without_trust: pr_without.recall,
        precision_with_trust: pr_with.precision,
        trust_deviation: deviation,
        trust_difference: difference,
        rounds: without.rounds,
        elapsed: without.elapsed,
    }
}

/// Evaluate all sixteen paper methods on a context, in Table-7 order.
pub fn evaluate_all_methods(context: &EvaluationContext<'_>) -> Vec<MethodEvaluation> {
    all_methods()
        .into_iter()
        .map(|(category, method)| evaluate_method(context, category, method.as_ref()))
        .collect()
}

/// All sixteen Table-7 rows for one collection day.
#[derive(Debug, Clone, Serialize)]
pub struct DayEvaluation {
    /// Index of the day within the evaluated selection.
    pub day_index: usize,
    /// The snapshot's own day stamp.
    pub day: u32,
    /// One row per registry method, in Table-7 order.
    pub rows: Vec<MethodEvaluation>,
}

/// Evaluate the sixteen registry methods on the selected days of a
/// collection, fanned across the rayon pool. `use_known_copying` feeds the
/// planted/claimed copy groups (Table 5) to the oracle with-trust runs of
/// copy-aware methods, as Table 7 does.
///
/// The contexts are prepared in parallel, then every (day, method) pair is
/// one task, so expensive methods on one day overlap cheap methods on
/// another; each method run is one sequential loop. Fusion is
/// deterministic, so the rows equal [`evaluate_all_methods`] on each day's
/// [`EvaluationContext`], in request order; [`same_results`] encodes that
/// equivalence.
///
/// # Panics
///
/// Panics if any index in `day_indices` is out of range for the collection
/// (mirroring [`Collection::day`]).
pub fn evaluate_days(
    collection: &Collection,
    day_indices: &[usize],
    use_known_copying: bool,
) -> Vec<DayEvaluation> {
    let contexts: Vec<EvaluationContext<'_>> = day_indices
        .par_iter()
        .map(|&i| {
            let day = collection.day(i);
            let context = EvaluationContext::new(&day.snapshot, &day.gold);
            if use_known_copying {
                context.with_known_copying(&known_copying(day.snapshot.schema()))
            } else {
                context
            }
        })
        .collect();

    let methods = all_methods();
    let tasks: Vec<(usize, usize)> = (0..contexts.len())
        .flat_map(|day| (0..methods.len()).map(move |method| (day, method)))
        .collect();
    // Rows come back in task order (day-major), so each day's rows are the
    // next `methods.len()` of them.
    let mut rows = tasks
        .into_par_iter()
        .map(|(day, method)| {
            let context = &contexts[day];
            let (category, method) = &methods[method];
            evaluate_method(context, *category, method.as_ref())
        })
        .collect::<Vec<_>>()
        .into_iter();
    contexts
        .iter()
        .enumerate()
        .map(|(day_index, context)| DayEvaluation {
            day_index,
            day: context.snapshot.day(),
            rows: rows.by_ref().take(methods.len()).collect(),
        })
        .collect()
}

/// True when two evaluations of the same context agree on everything a
/// deterministic method controls (name, category, precision, recall, trust
/// statistics, rounds) — i.e. everything except the measured `elapsed`.
pub fn same_results(a: &[MethodEvaluation], b: &[MethodEvaluation]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.method == y.method
                && x.category == y.category
                && x.precision_without_trust == y.precision_without_trust
                && x.recall_without_trust == y.recall_without_trust
                && x.precision_with_trust == y.precision_with_trust
                && x.trust_deviation == y.trust_deviation
                && x.trust_difference == y.trust_difference
                && x.rounds == y.rounds
        })
}

/// Run one named method (paper spelling) without input trust and return the
/// raw fusion result; convenience for the comparison and error-analysis
/// experiments.
pub fn run_named_method(
    context: &EvaluationContext<'_>,
    name: &str,
    options: &FusionOptions,
) -> Option<FusionResult> {
    let method = method_by_name(name)?;
    Some(method.run(&context.problem, options))
}

#[cfg(test)]
mod tests {
    use super::*;
    use copydetect::known_copying;
    use datagen::{generate, stock_config};
    use fusion::MethodCategory;

    #[test]
    fn evaluation_produces_all_sixteen_rows() {
        let domain = generate(&stock_config(21).scaled(0.015, 0.1));
        let day = domain.collection.reference_day();
        let context = EvaluationContext::new(&day.snapshot, &day.gold);
        let rows = evaluate_all_methods(&context);
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert!(row.precision_without_trust >= 0.0 && row.precision_without_trust <= 1.0);
            assert!(row.precision_with_trust >= 0.0 && row.precision_with_trust <= 1.0);
            assert!(row.recall_without_trust <= row.precision_without_trust + 1e-9);
            assert!(row.trust_deviation >= 0.0);
        }
        // The baseline row is VOTE and needs no iteration.
        assert_eq!(rows[0].method, "Vote");
        assert_eq!(rows[0].rounds, 0);
    }

    #[test]
    fn oracle_trust_never_hurts_much_and_usually_helps() {
        let domain = generate(&stock_config(22).scaled(0.015, 0.1));
        let day = domain.collection.reference_day();
        let report = known_copying(day.snapshot.schema());
        let context = EvaluationContext::new(&day.snapshot, &day.gold).with_known_copying(&report);
        let rows = evaluate_all_methods(&context);
        let helped = rows
            .iter()
            .filter(|r| r.method != "Vote")
            .filter(|r| r.precision_with_trust >= r.precision_without_trust - 0.02)
            .count();
        // The paper observes that giving sampled trustworthiness improves the
        // results for (almost) all methods.
        assert!(
            helped >= 12,
            "only {helped} methods kept or improved precision with oracle trust"
        );
    }

    #[test]
    fn single_method_evaluation_matches_registry_run() {
        let domain = generate(&stock_config(23).scaled(0.01, 0.1));
        let day = domain.collection.reference_day();
        let context = EvaluationContext::new(&day.snapshot, &day.gold);
        let accu = fusion::method_by_name("AccuPr").unwrap();
        let row = evaluate_method(&context, MethodCategory::Bayesian, accu.as_ref());
        assert_eq!(row.method, "AccuPr");
        assert_eq!(row.category, "Bayesian based");
        let direct = run_named_method(&context, "AccuPr", &FusionOptions::standard()).unwrap();
        let pr = precision_recall(context.snapshot, context.gold, &direct);
        assert!((pr.precision - row.precision_without_trust).abs() < 1e-9);
    }

    #[test]
    fn fanout_matches_sequential_on_one_day() {
        let domain = generate(&stock_config(31).scaled(0.015, 0.1));
        let reference = domain.collection.reference_day_index();
        let day = domain.collection.reference_day();
        let sequential = evaluate_all_methods(&EvaluationContext::new(&day.snapshot, &day.gold));
        let fanned = evaluate_days(&domain.collection, &[reference], false);
        assert_eq!(fanned.len(), 1);
        let rows = &fanned[0].rows;
        assert_eq!(rows.len(), 16);
        assert!(
            same_results(&sequential, rows),
            "fan-out rows diverged from sequential rows"
        );
        // Table-7 order is preserved.
        assert_eq!(rows[0].method, "Vote");
        assert_eq!(rows[15].method, "AccuCopy");
    }

    #[test]
    fn multi_day_fanout_covers_every_day_and_method() {
        let domain = generate(&stock_config(32).scaled(0.01, 0.2));
        let indices: Vec<usize> = (0..domain.collection.num_days()).collect();
        let days = evaluate_days(&domain.collection, &indices, false);
        assert_eq!(days.len(), domain.collection.num_days());
        for (i, day) in days.iter().enumerate() {
            assert_eq!(day.day_index, i);
            assert_eq!(day.day, domain.collection.day(i).snapshot.day());
            assert_eq!(day.rows.len(), 16);
            assert_eq!(day.rows[0].method, "Vote");
        }
    }

    #[test]
    fn multi_day_fanout_matches_sequential_baseline() {
        let domain = generate(&stock_config(33).scaled(0.01, 0.15));
        let indices: Vec<usize> = (0..domain.collection.num_days()).collect();
        let fanned = evaluate_days(&domain.collection, &indices, true);
        assert_eq!(fanned.len(), indices.len());
        for (&i, f) in indices.iter().zip(&fanned) {
            let day = domain.collection.day(i);
            let report = known_copying(day.snapshot.schema());
            let context =
                EvaluationContext::new(&day.snapshot, &day.gold).with_known_copying(&report);
            assert_eq!(f.day, day.snapshot.day());
            assert!(
                same_results(&f.rows, &evaluate_all_methods(&context)),
                "day {} diverged",
                f.day_index
            );
        }
    }

    #[test]
    fn copy_report_conversion_uses_dense_indices() {
        let domain = generate(&stock_config(24).scaled(0.01, 0.1));
        let day = domain.collection.reference_day();
        let report = known_copying(day.snapshot.schema());
        let problem = FusionProblem::from_snapshot(&day.snapshot);
        let dense = copy_report_to_dense(&report, &problem);
        assert!(dense.num_scored() > 0);
        assert_eq!(dense.num_sources(), problem.num_sources());
        for ((a, b), p) in dense.pairs() {
            assert!(a < b);
            assert!(b < problem.num_sources());
            assert!(p > 0.99);
        }
    }
}
