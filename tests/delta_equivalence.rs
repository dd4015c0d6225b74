//! Delta-vs-cold equivalence harness for the warm delta fusion engine.
//!
//! The contract of `fusion::delta` is that warm state is invisible in the
//! output: a `DeltaEngine` advanced through any day-over-day
//! mutation sequence produces, for every method and every day, results
//! **bit-identical** to a cold `FusionProblem::from_snapshot` + full run on
//! that day's snapshot — same selection, same trust bits, same rounds. This
//! suite pins that across:
//!
//! * all sixteen registry methods, one `run` at a time and fanned out over
//!   the pool by one `run_all` (results in the caller's order, cache hits
//!   answered in place);
//! * random seeded mutation sequences (proptest): value edits, item
//!   removal and re-addition, sources leaving and rejoining the active set,
//!   and no-op days — under pinned tolerances (the splice fast path) and
//!   recomputed tolerances (the attr-dirty / full-refresh path);
//! * the standard, per-attribute-trust, and oracle-input-trust option modes;
//! * `RAYON_NUM_THREADS` ∈ {1, 2, 4} and the `FUSION_FORCE_SCALAR` kernel leg
//!   (via the CI matrix — the assertions themselves are thread-agnostic);
//! * the planted `datagen::mutation_stream` worlds, where the observed
//!   `SnapshotDelta` must equal the planted dirty set exactly.

use datagen::{generate, mutation_stream, stock_config};
use datamodel::{Snapshot, SnapshotBuilder, SnapshotDelta, SourceId, Value};
use fusion::{all_methods, DeltaEngine, FusionMethod, FusionOptions, FusionProblem};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Assert one warm result is bit-identical to its cold counterpart.
fn assert_bit_identical(
    warm: &fusion::FusionResult,
    cold: &fusion::FusionResult,
    label: &str,
) {
    assert_eq!(
        warm.selection, cold.selection,
        "{label}: selection diverged"
    );
    assert_eq!(warm.rounds, cold.rounds, "{label}: rounds diverged");
    let wb: Vec<u64> = warm.trust.overall.iter().map(|t| t.to_bits()).collect();
    let cb: Vec<u64> = cold.trust.overall.iter().map(|t| t.to_bits()).collect();
    assert_eq!(wb, cb, "{label}: trust bits diverged");
    assert_eq!(
        warm.trust.per_attr, cold.trust.per_attr,
        "{label}: per-attribute trust diverged"
    );
    assert_eq!(warm.selected, cold.selected, "{label}: selected diverged");
}

/// The option sets every sequence is exercised under.
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

/// One random day-over-day mutation of `prev`: value edits, item removal,
/// re-addition of previously removed items, one source leaving or rejoining
/// the active set — or a verbatim no-op day. `pinned` keeps the base
/// tolerance context (the splice fast path); otherwise tolerances are
/// recomputed from the mutated data (attr-dirty / full-refresh path).
#[allow(clippy::too_many_arguments)]
fn mutate_day(
    base: &Snapshot,
    prev: &Snapshot,
    rng: &mut StdRng,
    removed_items: &mut Vec<datamodel::ItemId>,
    dropped_sources: &mut Vec<SourceId>,
    pinned: bool,
) -> Snapshot {
    let mut builder = SnapshotBuilder::new(prev.day() + 1);

    if rng.gen_bool(0.15) {
        // No-op day: identical observations.
        for (item, obs) in prev.items() {
            for o in obs {
                builder.add(o.source, item.object, item.attr, o.value.clone());
            }
        }
    } else {
        let items: Vec<datamodel::ItemId> = prev.item_ids().collect();
        let num_edits = rng.gen_range(0..=(items.len() / 8).max(1));
        let num_removals = if items.len() > 8 {
            rng.gen_range(0..=items.len() / 10)
        } else {
            0
        };
        let mut edit_set = BTreeSet::new();
        for _ in 0..num_edits {
            edit_set.insert(items[rng.gen_range(0..items.len())]);
        }
        let mut removal_set = BTreeSet::new();
        for _ in 0..num_removals {
            removal_set.insert(items[rng.gen_range(0..items.len())]);
        }
        removal_set.retain(|i| !edit_set.contains(i));

        // One source leaves the active set, or a previously dropped one
        // rejoins (its base-day claims restored on the surviving items).
        let mut leaving: Option<SourceId> = None;
        let mut rejoining: Option<SourceId> = None;
        if !dropped_sources.is_empty() && rng.gen_bool(0.5) {
            rejoining = Some(dropped_sources.remove(rng.gen_range(0..dropped_sources.len())));
        } else if rng.gen_bool(0.4) {
            let active: Vec<SourceId> = prev.active_sources().into_iter().collect();
            if active.len() > 3 {
                let s = active[rng.gen_range(0..active.len())];
                leaving = Some(s);
                dropped_sources.push(s);
            }
        }

        for (item, obs) in prev.items() {
            if removal_set.contains(item) {
                removed_items.push(*item);
                continue;
            }
            let edit_slot = if edit_set.contains(item) {
                obs.iter()
                    .position(|o| matches!(o.value, Value::Number { .. }))
            } else {
                None
            };
            for (i, o) in obs.iter().enumerate() {
                if Some(o.source) == leaving {
                    continue;
                }
                let value = if edit_slot == Some(i) {
                    let v = o.value.as_f64().expect("edit slot is numeric");
                    Value::number(v * 1.05 + 3.0)
                } else {
                    o.value.clone()
                };
                builder.add(o.source, item.object, item.attr, value);
            }
            if let Some(s) = rejoining {
                if let Some(value) = base.value_of(s, *item) {
                    builder.add(s, item.object, item.attr, value.clone());
                }
            }
        }

        // Re-add up to two previously removed items with their base rows.
        let num_readds = removed_items.len().min(2);
        for _ in 0..num_readds {
            if rng.gen_bool(0.6) {
                let item = removed_items.remove(rng.gen_range(0..removed_items.len()));
                for o in base.observations(item) {
                    if Some(o.source) == leaving || dropped_sources.contains(&o.source) {
                        continue;
                    }
                    builder.add(o.source, item.object, item.attr, o.value.clone());
                }
            }
        }
    }

    if pinned {
        builder.build_with_tolerance(base.schema_arc(), base.tolerance().clone())
    } else {
        builder.build(base.schema_arc())
    }
}

/// Drive one engine per option mode through the day sequence, comparing every
/// (day, method) against a cold from-scratch run. With `fan_out` the engine
/// fuses each day's sixteen methods with one `run_all` (over the pool,
/// longest first, on whichever warm scratch is free); otherwise with one
/// `run` per method.
fn assert_sequence_exact(days: &[Snapshot], label: &str, fan_out: bool) {
    let registry = all_methods();
    let methods: Vec<&dyn FusionMethod> = registry.iter().map(|(_, m)| m.as_ref()).collect();
    let cold_problems: Vec<FusionProblem> =
        days.iter().map(FusionProblem::from_snapshot).collect();
    let num_sources = cold_problems
        .iter()
        .map(FusionProblem::num_sources)
        .max()
        .unwrap_or(0);
    for (options, mode) in option_sets(num_sources) {
        let mut engine = DeltaEngine::new();
        for (di, (day, cold_problem)) in days.iter().zip(&cold_problems).enumerate() {
            engine.advance(day);
            let warm: Vec<_> = if fan_out {
                engine.run_all(&methods, &options)
            } else {
                methods.iter().map(|m| engine.run(*m, &options)).collect()
            };
            for (method, (warm, _)) in methods.iter().zip(&warm) {
                let label = format!("{label}/{mode}/day={di}/{}", method.name());
                assert_eq!(warm.method, method.name(), "{label}: result out of order");
                assert_bit_identical(warm, &method.run(cold_problem, &options), &label);
            }
        }
    }
}

/// Unit pin of [`SnapshotDelta`] itself: one day mixing every mutation axis
/// (a value edit, an item removal, a source leaving the active set) yields
/// exactly the expected dirty sets and dirty fraction.
#[test]
fn snapshot_delta_pins_every_mutation_axis_at_once() {
    let domain = generate(&stock_config(31).scaled(0.006, 0.05));
    let base = &domain.collection.reference_day().snapshot;
    let items: Vec<datamodel::ItemId> = base.item_ids().collect();
    assert!(items.len() >= 3, "world too small for the pin");
    let edited = items[0];
    let removed = items[items.len() / 2];
    let leaving = *base
        .active_sources()
        .iter()
        .max_by_key(|s| {
            base.items()
                .filter(|(_, obs)| obs.iter().any(|o| o.source == **s))
                .count()
        })
        .expect("world has sources");

    let mut builder = SnapshotBuilder::new(base.day() + 1);
    for (item, obs) in base.items() {
        if *item == removed {
            continue;
        }
        for (i, o) in obs.iter().enumerate() {
            if o.source == leaving {
                continue;
            }
            let value = if *item == edited && i == 0 {
                match o.value.as_f64() {
                    Some(v) => Value::number(v * 2.0 + 7.0),
                    None => o.value.clone(),
                }
            } else {
                o.value.clone()
            };
            builder.add(o.source, item.object, item.attr, value);
        }
    }
    let next = builder.build_with_tolerance(base.schema_arc(), base.tolerance().clone());

    let delta = SnapshotDelta::between(base, &next);
    assert!(!delta.is_empty());
    assert!(delta.dirty_items().contains(&edited), "edit must dirty its item");
    assert!(
        delta.removed_items().contains(&removed) || delta.dirty_items().contains(&removed),
        "removed item must be tracked (fully removed, or dirtied if the \
         leaving source was its only claimant elsewhere)"
    );
    assert!(
        delta.removed_sources().contains(&leaving),
        "source with zero remaining claims must leave the active set"
    );
    assert!(delta.dirty_attrs().is_empty(), "pinned tolerance: no attr dirt");
    // Every item the leaving source claimed (minus the removed one) is dirty.
    for (item, obs) in base.items() {
        if *item == removed {
            continue;
        }
        if obs.iter().any(|o| o.source == leaving) {
            assert!(
                delta.is_dirty_item(*item),
                "item claimed by the leaving source must be dirty"
            );
        }
    }
    let expected_fraction = (delta.dirty_items().len() + delta.removed_items().len()) as f64
        / (delta.num_next_items() + delta.removed_items().len()) as f64;
    assert!((delta.dirty_fraction() - expected_fraction).abs() < 1e-12);
}

/// The fixed-seed mutation sequence: a base day and three mutated days,
/// under pinned or recomputed tolerances.
fn fixed_sequence(pinned: bool) -> Vec<Snapshot> {
    let domain = generate(&stock_config(2012).scaled(0.006, 0.05));
    let base = domain.collection.reference_day().snapshot.clone();
    let mut rng = StdRng::seed_from_u64(99);
    let mut removed = Vec::new();
    let mut dropped = Vec::new();
    let mut days = vec![base.clone()];
    for _ in 0..3 {
        let next = mutate_day(
            &base,
            days.last().unwrap(),
            &mut rng,
            &mut removed,
            &mut dropped,
            pinned,
        );
        days.push(next);
    }
    days
}

/// Fixed-seed smoke form of the proptest below, so a plain `cargo test`
/// without the proptest cases still covers both tolerance paths.
#[test]
fn fixed_mutation_sequence_is_exact_for_all_methods() {
    for pinned in [true, false] {
        let days = fixed_sequence(pinned);
        let label = if pinned { "fixed/pinned" } else { "fixed/recomputed" };
        assert_sequence_exact(&days, label, false);
    }
}

/// `run_all` of all sixteen methods on a warm engine equals a cold
/// `method.run` per method, on every day of the fixed sequence and under
/// every option mode.
#[test]
fn run_all_on_a_warm_engine_is_exact_for_all_methods() {
    for pinned in [true, false] {
        let days = fixed_sequence(pinned);
        assert_sequence_exact(&days, &format!("run_all/pinned={pinned}"), true);
    }
}

/// `run_all` submits the most expensive method first, but its results come
/// back in the caller's order, here the reverse of that cost order.
#[test]
fn run_all_returns_results_in_the_callers_order() {
    let days = fixed_sequence(true);
    let registry = all_methods();
    let mut methods: Vec<&dyn FusionMethod> = registry.iter().map(|(_, m)| m.as_ref()).collect();
    let options = FusionOptions::standard();
    let mut engine = DeltaEngine::new();
    engine.advance(&days[0]);
    let first = engine.run_all(&methods, &options);
    // Cheapest first: the reverse of the order the engine submits in.
    let elapsed: Vec<_> = first.iter().map(|(result, _)| result.elapsed).collect();
    let mut order: Vec<usize> = (0..methods.len()).collect();
    order.sort_by_key(|&i| elapsed[i]);
    methods = order.iter().map(|&i| methods[i]).collect();

    for (di, day) in days.iter().enumerate().skip(1) {
        let report = engine.advance(day);
        assert!(!report.identical, "day {di} must change the problem");
        let cold_problem = FusionProblem::from_snapshot(day);
        let runs = engine.run_all(&methods, &options);
        for (method, (warm, run)) in methods.iter().zip(&runs) {
            let label = format!("reversed/day={di}/{}", method.name());
            assert!(!run.cache_hit, "{label}: a changed day must fuse");
            assert_eq!(warm.method, method.name(), "{label}: result out of order");
            assert_bit_identical(warm, &method.run(&cold_problem, &options), &label);
        }
    }
}

/// An identical advance answers every method of `run_all` from the cache,
/// with the results of the previous call; a changed `FusionOptions` then
/// fuses every method again.
#[test]
fn run_all_serves_an_identical_day_from_the_cache() {
    let day = &fixed_sequence(true)[1];
    let registry = all_methods();
    let methods: Vec<&dyn FusionMethod> = registry.iter().map(|(_, m)| m.as_ref()).collect();
    let options = FusionOptions::standard();
    let mut engine = DeltaEngine::new();
    engine.advance(day);
    let first = engine.run_all(&methods, &options);
    assert!(first.iter().all(|(_, run)| !run.cache_hit), "a cold engine must fuse");

    assert!(engine.advance(day).identical, "verbatim day must diff empty");
    let second = engine.run_all(&methods, &options);
    for (method, ((cached, run), (fused, _))) in methods.iter().zip(second.iter().zip(&first)) {
        let label = format!("identical/{}", method.name());
        assert!(run.cache_hit, "{label}: an identical day must hit the cache");
        assert_bit_identical(cached, fused, &label);
    }

    let per_attr = FusionOptions::standard().with_per_attribute_trust();
    let cold_problem = FusionProblem::from_snapshot(day);
    let third = engine.run_all(&methods, &per_attr);
    for (method, (warm, run)) in methods.iter().zip(&third) {
        let label = format!("options/{}", method.name());
        assert!(!run.cache_hit, "{label}: changed options must invalidate the cache");
        assert_bit_identical(warm, &method.run(&cold_problem, &per_attr), &label);
    }
}

/// No-op days hit the per-method result cache: the cached result is returned
/// without fusing and still equals the cold run. A method that skipped a
/// dirty day stays stale through a later no-op day, so its next run fuses
/// the current problem instead of replaying the result from before the edit.
#[test]
fn no_op_days_are_served_from_the_cache() {
    let domain = generate(&stock_config(21).scaled(0.006, 0.05));
    let day = &domain.collection.reference_day().snapshot;
    let options = FusionOptions::standard();
    let method = fusion::method_by_name("Cosine").expect("registered");
    let mut engine = DeltaEngine::new();
    engine.advance(day);
    let (first, first_report) = engine.run(method.as_ref(), &options);
    assert!(!first_report.cache_hit);
    let replay = day.clone();
    let report = engine.advance(&replay);
    assert!(report.identical, "verbatim day must diff empty");
    let (second, second_report) = engine.run(method.as_ref(), &options);
    assert!(second_report.cache_hit, "no-op day must hit the cache");
    assert_bit_identical(&second, &first, "cache replay");
    let cold = method.run(&FusionProblem::from_snapshot(&replay), &options);
    assert_bit_identical(&second, &cold, "cache vs cold");

    // d0 run above; now a dirty d1 advanced without a run, then d1 again.
    let stream = mutation_stream(day, 1, 0.1, 21);
    let dirty = &stream.days[1];
    let report = engine.advance(dirty);
    assert!(!report.identical, "mutated day must diff dirty");
    let report = engine.advance(dirty);
    assert!(report.identical, "repeated day must diff empty");
    let (third, third_report) = engine.run(method.as_ref(), &options);
    assert!(
        !third_report.cache_hit,
        "a run skipped on a dirty day must not be answered from the cache"
    );
    let cold = method.run(&FusionProblem::from_snapshot(dirty), &options);
    assert_bit_identical(&third, &cold, "skipped dirty day vs cold");
}

/// The planted mutation-stream worlds: the observed delta equals the planted
/// dirty set, and exact mode stays bit-identical along the stream.
#[test]
fn mutation_stream_days_observe_their_planted_delta_and_stay_exact() {
    let domain = generate(&stock_config(3).scaled(0.006, 0.05));
    let base = &domain.collection.reference_day().snapshot;
    let stream = mutation_stream(base, 3, 0.08, 13);
    for (i, planted) in stream.dirty_sets.iter().enumerate() {
        let delta = SnapshotDelta::between(&stream.days[i], &stream.days[i + 1]);
        assert_eq!(delta.dirty_items(), planted, "transition {i}");
        assert!(delta.removed_items().is_empty());
        assert!(delta.dirty_attrs().is_empty());
    }
    assert_sequence_exact(&stream.days, "mutation-stream", false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random mutation sequences: every method, every option mode, both
    /// tolerance paths produce the cold bits on every day.
    #[test]
    fn random_mutation_sequences_are_exact(
        seed in 0u64..10_000,
        scale in 0.004f64..0.010,
        pinned_bit in 0u8..2,
    ) {
        let pinned = pinned_bit == 1;
        let domain = generate(&stock_config(seed).scaled(scale, 0.05));
        let base = domain.collection.reference_day().snapshot.clone();
        prop_assert!(base.num_items() >= 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1f7);
        let mut removed = Vec::new();
        let mut dropped = Vec::new();
        let mut days = vec![base.clone()];
        for _ in 0..3 {
            let next = mutate_day(
                &base,
                days.last().unwrap(),
                &mut rng,
                &mut removed,
                &mut dropped,
                pinned,
            );
            days.push(next);
        }
        assert_sequence_exact(
            &days,
            &format!("seed={seed}/pinned={pinned}"),
            false,
        );
    }
}
