//! Integration tests pinning the fusion registry to the paper's Table 7:
//! exactly sixteen methods, exact order, exact categories — and every one of
//! them runs end-to-end on a tiny generated snapshot through both the
//! sequential and the parallel evaluation path.

use deepweb_truth::prelude::*;
use evaluation::{evaluate_days, same_results};
use fusion::MethodCategory;

/// Table 7 of the paper, in row order: (method name, Table-6 category).
const TABLE_7: [(&str, MethodCategory); 16] = [
    ("Vote", MethodCategory::Baseline),
    ("Hub", MethodCategory::WebLink),
    ("AvgLog", MethodCategory::WebLink),
    ("Invest", MethodCategory::WebLink),
    ("PooledInvest", MethodCategory::WebLink),
    ("2-Estimates", MethodCategory::IrBased),
    ("3-Estimates", MethodCategory::IrBased),
    ("Cosine", MethodCategory::IrBased),
    ("TruthFinder", MethodCategory::Bayesian),
    ("AccuPr", MethodCategory::Bayesian),
    ("PopAccu", MethodCategory::Bayesian),
    ("AccuSim", MethodCategory::Bayesian),
    ("AccuFormat", MethodCategory::Bayesian),
    ("AccuSimAttr", MethodCategory::Bayesian),
    ("AccuFormatAttr", MethodCategory::Bayesian),
    ("AccuCopy", MethodCategory::CopyingAffected),
];

#[test]
fn registry_matches_table_7_exactly() {
    let methods = all_methods();
    assert_eq!(methods.len(), 16);
    for (i, ((category, method), (expected_name, expected_category))) in
        methods.iter().zip(TABLE_7).enumerate()
    {
        assert_eq!(method.name(), expected_name, "row {i} name");
        assert_eq!(*category, expected_category, "row {i} category");
    }
}

#[test]
fn every_method_runs_end_to_end_on_a_tiny_snapshot() {
    let domain = generate(&stock_config(5).scaled(0.01, 0.1));
    let day = domain.collection.reference_day();
    let context = EvaluationContext::new(&day.snapshot, &day.gold);

    for (category, method) in all_methods() {
        let result = method.run(&context.problem, &FusionOptions::standard());
        // A value is selected for every prepared item and trust is finite.
        assert_eq!(
            result.selected.len(),
            context.problem.num_items(),
            "{} selected a value for every item",
            method.name()
        );
        for trust in &result.trust.overall {
            assert!(trust.is_finite(), "{} trust finite", method.name());
        }
        let pr = precision_recall(&day.snapshot, &day.gold, &result);
        assert!(
            (0.0..=1.0).contains(&pr.precision),
            "{} ({}) precision {} out of range",
            method.name(),
            category.label(),
            pr.precision
        );
    }
}

#[test]
fn parallel_runner_reproduces_sequential_rows_on_a_fixed_seed() {
    let domain = generate(&stock_config(1234).scaled(0.01, 0.1));
    let reference = domain.collection.reference_day_index();
    let day = domain.collection.reference_day();
    let context = EvaluationContext::new(&day.snapshot, &day.gold);
    let sequential = evaluate_all_methods(&context);
    let parallel = evaluate_days(&domain.collection, &[reference], false)
        .pop()
        .expect("one day requested")
        .rows;
    assert!(
        same_results(&sequential, &parallel),
        "parallel evaluation must be bit-identical to sequential (elapsed aside)"
    );
    // And the rows come back in Table-7 order.
    for (row, (expected_name, _)) in parallel.iter().zip(TABLE_7) {
        assert_eq!(row.method, expected_name);
    }
}
