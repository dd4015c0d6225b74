//! Degenerate-world equivalence: a fusion run on the smallest shapes does not
//! depend on the buffers it was handed or on the pool it ran in.
//!
//! Every method runs its rounds as one sequential loop over the reusable
//! `FusionScratch` buffers, re-shaped for each problem before their first
//! read. The two worlds here are the edge shapes of that re-shaping — one
//! item, and a few items with ragged candidate rows (a four-way contested
//! item, a single-provider item, a unanimous item). The suite pins, for all
//! sixteen registry methods, three option sets and `RAYON_NUM_THREADS` ∈
//! {1, 2, 4}, that a run with a fresh scratch is **bit-identical** (same
//! selection, trust bits, per-attribute trust, rounds and selected values)
//! to a run whose scratch was first filled by a larger seeded Stock day and
//! then by every other method. The test names are kept from the suite
//! these worlds came from, which compared chunked with sequential rounds
//! before intra-day chunking was removed.

use datagen::{generate, stock_config};
use datamodel::{AttrId, AttrKind, DomainSchema, ObjectId, Snapshot, SnapshotBuilder, SourceId,
    Value};
use fusion::{all_methods, FusionOptions, FusionProblem, FusionResult, FusionScratch};
use std::sync::Arc;

/// Pool sizes the suite re-checks under. The rayon stand-in reads
/// `RAYON_NUM_THREADS` per call, so an in-process `set_var` takes effect for
/// the runs that follow.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// A one-item snapshot: two sources disagreeing on a single value.
fn one_item_snapshot() -> Snapshot {
    let mut schema = DomainSchema::new("one-item");
    schema.add_attribute("x", AttrKind::Numeric { scale: 100.0 }, false);
    schema.add_source("a", false);
    schema.add_source("b", false);
    let mut b = SnapshotBuilder::new(0);
    b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(1.0));
    b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(2.0));
    b.build(Arc::new(schema))
}

/// A few-item snapshot with ragged candidate rows: a four-way contested item,
/// a single-provider item, and a unanimous two-provider item.
fn ragged_snapshot() -> Snapshot {
    let mut schema = DomainSchema::new("ragged");
    schema.add_attribute("x", AttrKind::Numeric { scale: 100.0 }, false);
    for name in ["a", "b", "c", "d"] {
        schema.add_source(name, false);
    }
    let mut b = SnapshotBuilder::new(0);
    let a = AttrId(0);
    // Item 0: four providers, three distinct values (ragged row).
    b.add(SourceId(0), ObjectId(0), a, Value::number(10.0));
    b.add(SourceId(1), ObjectId(0), a, Value::number(10.0));
    b.add(SourceId(2), ObjectId(0), a, Value::number(55.0));
    b.add(SourceId(3), ObjectId(0), a, Value::number(70.0));
    // Item 1: one provider, one candidate.
    b.add(SourceId(2), ObjectId(1), a, Value::number(12.0));
    // Item 2: two providers, unanimous.
    b.add(SourceId(0), ObjectId(2), a, Value::number(33.0));
    b.add(SourceId(3), ObjectId(2), a, Value::number(33.0));
    b.build(Arc::new(schema))
}

/// The option sets every world is exercised under: standard, per-attribute
/// trust, and oracle input trust.
fn option_sets(num_sources: usize) -> Vec<(FusionOptions, &'static str)> {
    let trust: Vec<f64> = (0..num_sources)
        .map(|s| 0.5 + 0.4 * ((s % 7) as f64) / 7.0)
        .collect();
    vec![
        (FusionOptions::standard(), "standard"),
        (
            FusionOptions::standard().with_per_attribute_trust(),
            "per-attr",
        ),
        (
            FusionOptions::standard().with_input_trust(trust),
            "input-trust",
        ),
    ]
}

/// A scratch whose buffers every registry method has already filled on the
/// first day of a small seeded Stock world — more sources, items and
/// candidates than either degenerate world.
fn warm_scratch() -> FusionScratch {
    let domain = generate(&stock_config(2012).scaled(0.01, 0.05));
    let larger = FusionProblem::from_snapshot(&domain.collection.day(0).snapshot);
    let mut scratch = FusionScratch::new();
    for (_, method) in all_methods() {
        method.run_with_scratch(&larger, &FusionOptions::standard(), &mut scratch);
    }
    scratch
}

fn assert_same_bits(fresh: &FusionResult, warm: &FusionResult, label: &str) {
    let name = &fresh.method;
    assert_eq!(fresh.selection, warm.selection, "{label}: {name} selection diverged");
    assert_eq!(fresh.rounds, warm.rounds, "{label}: {name} rounds diverged");
    let bits = |r: &FusionResult| -> Vec<u64> {
        r.trust.overall.iter().map(|t| t.to_bits()).collect()
    };
    assert_eq!(bits(fresh), bits(warm), "{label}: {name} trust bits diverged");
    assert_eq!(
        fresh.trust.per_attr, warm.trust.per_attr,
        "{label}: {name} per-attribute trust diverged"
    );
    assert_eq!(fresh.selected, warm.selected, "{label}: {name} selected values diverged");
}

/// Every method, option set and pool size: a fresh-scratch run equals a run
/// on the warm scratch, which each method then hands on to the next.
fn assert_world_invariant(snapshot: &Snapshot, label: &str) {
    let problem = FusionProblem::from_snapshot(snapshot);
    for threads in THREAD_COUNTS {
        set_threads(threads);
        let mut scratch = warm_scratch();
        for (opts, mode) in option_sets(problem.num_sources()) {
            for (_, method) in all_methods() {
                let fresh = method.run(&problem, &opts);
                let warm = method.run_with_scratch(&problem, &opts, &mut scratch);
                assert!(!fresh.selection.is_empty(), "{label}: empty selection");
                assert_same_bits(&fresh, &warm, &format!("{label}/{mode}/threads={threads}"));
            }
        }
    }
}

#[test]
fn one_item_world_is_chunk_invariant() {
    assert_world_invariant(&one_item_snapshot(), "one-item");
}

#[test]
fn ragged_few_item_world_is_chunk_invariant() {
    assert_world_invariant(&ragged_snapshot(), "ragged");
}
