//! Equivalence harness for the multi-day evaluation runner.
//!
//! `evaluate_days` fans every (day, method) pair across the pool; its whole
//! contract is that the fan-out changes nothing but the wall clock. Its rows
//! must be **bit-identical** to the sequential reference —
//! `evaluate_all_methods` on each requested day's own `EvaluationContext` —
//! in request order, across seeds, scales, day selections, and both the
//! detected and the oracle (known-copying) paths. CI runs this suite in
//! debug and `--release`, and at 1 and 2 rayon threads, because the
//! float-identical claims must hold under optimization and under any
//! schedule.

use copydetect::known_copying;
use datagen::{flight_config, generate, stock_config, GeneratedDomain};
use evaluation::{evaluate_all_methods, evaluate_days, same_results, EvaluationContext};
use proptest::prelude::*;

/// Assert that `evaluate_days` on `selection` reproduces the sequential
/// per-day rows, in request order, for one copy path.
fn assert_matches_sequential(
    domain: &GeneratedDomain,
    selection: &[usize],
    use_known_copying: bool,
) {
    let fanned = evaluate_days(&domain.collection, selection, use_known_copying);
    assert_eq!(
        fanned.len(),
        selection.len(),
        "one evaluation per requested day"
    );
    for (k, (&index, got)) in selection.iter().zip(&fanned).enumerate() {
        let day = domain.collection.day(index);
        let mut context = EvaluationContext::new(&day.snapshot, &day.gold);
        if use_known_copying {
            context = context.with_known_copying(&known_copying(day.snapshot.schema()));
        }
        let sequential = evaluate_all_methods(&context);
        assert_eq!(got.day_index, k, "day order changed");
        assert_eq!(got.day, day.snapshot.day(), "day stamps diverged");
        assert_eq!(got.rows.len(), 16, "row count");
        assert!(
            same_results(&sequential, &got.rows),
            "rows diverged from sequential on day {} (known_copying={use_known_copying})",
            got.day
        );
    }
}

/// Every day of `domain`, on both copy paths.
fn assert_all_days_both_paths(domain: &GeneratedDomain) {
    let all: Vec<usize> = (0..domain.collection.num_days()).collect();
    assert_matches_sequential(domain, &all, false);
    assert_matches_sequential(domain, &all, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random small collections (seed, scale, day count): the fan-out equals
    /// the sequential runner bit-identically on both copy paths.
    #[test]
    fn random_collections_agree_across_runners(
        seed in 0u64..10_000,
        scale in 0.004f64..0.012,
        days in 0.05f64..0.25,
    ) {
        let domain = generate(&stock_config(seed).scaled(scale, days));
        prop_assert!(domain.collection.num_days() >= 1);
        assert_all_days_both_paths(&domain);
    }
}

/// The acceptance fixtures: seeded Stock and Flight domains, both copy
/// paths. These are the exact domains the golden Table-7 suite
/// (`tests/equivalence.rs`) pins, so a divergence here triangulates
/// immediately.
#[test]
fn seeded_stock_fixture_agrees_across_runners() {
    assert_all_days_both_paths(&generate(&stock_config(2012).scaled(0.02, 0.1)));
}

#[test]
fn seeded_flight_fixture_agrees_across_runners() {
    assert_all_days_both_paths(&generate(&flight_config(2012).scaled(0.1, 0.06)));
}

/// A single requested day (the Table-7 shape): sixteen tasks over one
/// context, rows equal to the sequential reference on both copy paths.
#[test]
fn single_day_selection_agrees_across_runners() {
    let domain = generate(&stock_config(77).scaled(0.008, 0.25));
    assert!(
        domain.collection.num_days() >= 2,
        "fixture needs a multi-day collection"
    );
    let one_day = [domain.collection.reference_day_index()];
    assert_matches_sequential(&domain, &one_day, false);
    assert_matches_sequential(&domain, &one_day, true);
}

/// A sparse, out-of-order selection (not starting at day 0) keeps request
/// order on both copy paths.
#[test]
fn sparse_day_selections_keep_request_order() {
    let domain = generate(&stock_config(78).scaled(0.008, 0.3));
    let num_days = domain.collection.num_days();
    assert!(num_days >= 3);
    let selection = [num_days - 1, 0, num_days / 2];
    assert_matches_sequential(&domain, &selection, false);
    assert_matches_sequential(&domain, &selection, true);
}
