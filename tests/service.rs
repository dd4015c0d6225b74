//! Integration suite for the online [`service::FusionService`] shell.
//!
//! Two contracts are pinned here, end to end:
//!
//! 1. **Out-of-order convergence.** A day's claims streamed through the
//!    service in shuffled chunks — with exact-replay duplicates and a
//!    retraction mixed in — seal to selections and trust **bit-identical**
//!    to a cold `FusionProblem::from_snapshot` + batch run of the same
//!    logical day, for all sixteen registry methods. Arrival order is
//!    invisible in the output.
//! 2. **Readers never block on an advance.** Reader threads hammering the
//!    published state while the ingest thread seals day after day always
//!    observe a complete, internally consistent state with monotonically
//!    non-decreasing day and version — under `RAYON_NUM_THREADS` 1 and 2
//!    (the rayon stand-in reads the variable per call, so an in-process
//!    `set_var` takes effect for the seals that follow).

use datagen::{generate, mutation_stream, stock_config};
use datamodel::{ItemId, Snapshot, SnapshotBuilder};
use fusion::{all_methods, FusionOptions, FusionProblem};
use service::{day_ops, diff_ops, shuffle, FusionService, Operation, ServiceConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Rebuild `snapshot` without the claim `(skip_source, skip_item)` — the
/// logical day the convergence test's retraction leaves behind. Tolerances
/// are recomputed from the surviving values, exactly as the service's first
/// seal recomputes them from its ledger.
fn snapshot_without(snapshot: &Snapshot, skip: (datamodel::SourceId, ItemId)) -> Snapshot {
    let mut builder = SnapshotBuilder::new(snapshot.day());
    for (item, obs) in snapshot.items() {
        for o in obs {
            if (o.source, *item) == skip {
                continue;
            }
            builder.add(o.source, item.object, item.attr, o.value.clone());
        }
    }
    builder.build(snapshot.schema_arc())
}

/// Shuffled-chunk ingest of one Stock day — duplicates and a retraction
/// included — must publish the cold batch bits for every registry method.
#[test]
fn shuffled_out_of_order_ingest_matches_cold_batch_for_all_methods() {
    let domain = generate(&stock_config(4012).scaled(0.006, 0.05));
    let day = &domain.collection.reference_day().snapshot;
    assert!(day.num_items() >= 4, "world too small to be interesting");

    let mut ops = day_ops(day, 0);
    let base_len = ops.len() as u64;

    // A retraction (fresher than the upsert it supersedes) withdraws one
    // claim from an item that keeps other claimants; the logical day is the
    // snapshot minus that observation.
    let (victim_item, victim_source) = day
        .items()
        .find(|(_, obs)| obs.len() >= 3)
        .map(|(item, obs)| (*item, obs[0].source))
        .expect("some item has three claimants");
    // Exact replays of a handful of operations: idempotency must drop them
    // whether they land before or after their originals. The victim claim is
    // excluded — its replay may be dropped as Stale instead of Duplicate
    // when the shuffle lands the retraction first.
    let is_victim = |op: &Operation| {
        matches!(
            &op.kind,
            service::OpKind::UpsertClaim { source, object, attr, .. }
                if *source == victim_source
                    && ItemId::new(*object, *attr) == victim_item
        )
    };
    let dupes: Vec<Operation> = ops
        .iter()
        .step_by(97)
        .filter(|op| !is_victim(op))
        .cloned()
        .collect();
    let num_dupes = dupes.len();

    ops.push(Operation::retract(
        base_len,
        victim_source,
        victim_item.object,
        victim_item.attr,
    ));
    let expected = snapshot_without(day, (victim_source, victim_item));
    ops.extend(dupes);

    shuffle(&mut ops, 0xA5A5);

    let mut svc = FusionService::new(day.schema_arc());
    let mut applied = 0;
    let mut duplicates = 0;
    let mut stale = 0;
    for chunk in ops.chunks(64) {
        let summary = svc.apply_all(chunk.to_vec());
        applied += summary.applied;
        duplicates += summary.duplicates;
        stale += summary.stale;
        assert_eq!(summary.rejected, 0, "no op in the stream is invalid");
    }
    assert_eq!(duplicates, num_dupes, "every replay must be dropped");
    // The victim's original upsert is Stale when the retraction beat it,
    // Applied (then superseded in the ledger) otherwise.
    assert!(stale <= 1, "only the victim upsert can be stale");
    assert_eq!(
        applied as u64 + stale as u64,
        base_len + 1,
        "originals + the retraction, minus nothing"
    );
    svc.apply(Operation::seal(u64::MAX, 0));

    let state = svc.reader().state();
    assert_eq!(state.day(), Some(0));
    assert_eq!(state.items().len(), expected.num_items());
    assert!(
        !state.items().contains(&victim_item) || expected.observations(victim_item).len() >= 2,
        "the retracted claim must be gone from the served day"
    );

    let cold_problem = FusionProblem::from_snapshot(&expected);
    let options = FusionOptions::standard();
    for (_, method) in all_methods() {
        let name = method.name();
        let cold = method.run(&cold_problem, &options);
        let served = state
            .selection(&name)
            .unwrap_or_else(|| panic!("{name}: no served selection"));
        let cold_sel: Vec<u32> = cold.selection.iter().map(|&s| s as u32).collect();
        assert_eq!(served, cold_sel.as_slice(), "{name}: selection diverged");
        let served_bits: Vec<u64> = state
            .trust_vector(&name)
            .expect("served trust")
            .iter()
            .map(|t| t.to_bits())
            .collect();
        let cold_bits: Vec<u64> = cold.trust.overall.iter().map(|t| t.to_bits()).collect();
        assert_eq!(served_bits, cold_bits, "{name}: trust bits diverged");
    }
}

/// Spin readers against the published slot while the ingest side seals a
/// stream of mutated days: every observed state is complete and internally
/// consistent, and day/version never move backwards.
fn readers_never_observe_torn_state(num_readers: usize) {
    let domain = generate(&stock_config(77).scaled(0.006, 0.05));
    let base = domain.collection.reference_day().snapshot.clone();
    let stream = mutation_stream(&base, 4, 0.1, 7);

    let mut svc = FusionService::with_config(
        base.schema_arc(),
        ServiceConfig {
            methods: vec!["Vote".to_string(), "Cosine".to_string()],
            ..ServiceConfig::default()
        },
    );
    let reader = svc.reader();
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..num_readers {
            let reader = reader.clone();
            let stop = Arc::clone(&stop);
            handles.push(scope.spawn(move || {
                let mut last_day = None;
                let mut last_version = 0u64;
                let mut observed_published = 0usize;
                // Stop only after a read that began once the ingest side
                // had finished, so every reader sees the last published
                // state however late it was first scheduled.
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    let state = reader.state();
                    assert!(state.version() >= last_version, "version went backwards");
                    assert!(state.day() >= last_day, "day went backwards");
                    last_version = state.version();
                    last_day = state.day();
                    if let Some(day) = state.day() {
                        observed_published += 1;
                        // A published state is complete: both methods
                        // materialized over the full item set, and answers
                        // are self-consistent with the state's own day.
                        for method in ["Vote", "Cosine"] {
                            let sel = state
                                .selection(method)
                                .expect("published state has both methods");
                            assert_eq!(sel.len(), state.items().len());
                            assert_eq!(
                                state.trust_vector(method).expect("trust").len(),
                                state.sources().len()
                            );
                        }
                        let item = state.items()[0];
                        let answer = state.answer("Vote", item).expect("first item answers");
                        assert_eq!(answer.day, day);
                        assert!(!answer.sources.is_empty());
                        assert!((0.0..=1.0).contains(&answer.confidence));
                    }
                    if stopping {
                        break;
                    }
                }
                observed_published
            }));
        }

        // Ingest side: stream each day's diff into the ledger and seal it
        // while the readers hammer the slot.
        let mut seq = 0u64;
        let mut prev = SnapshotBuilder::new(0).build(base.schema_arc());
        for (day_index, day) in stream.days.iter().enumerate() {
            let ops = diff_ops(&prev, day, seq);
            seq += ops.len() as u64;
            svc.apply_all(ops);
            let outcome = svc.apply(Operation::seal(seq, day_index as u32));
            seq += 1;
            assert!(
                matches!(outcome, service::ApplyOutcome::Sealed(_)),
                "day {day_index} must seal"
            );
            prev = day.clone();
        }
        stop.store(true, Ordering::Release);
        for handle in handles {
            let observed = handle.join().expect("reader panicked");
            assert!(observed > 0, "reader never saw a published state");
        }
    });

    assert_eq!(reader.day(), Some(stream.days.len() as u32 - 1));
    let stats = reader.stats();
    assert_eq!(stats.seals, stream.days.len());
    assert_eq!(stats.delta.advances, stream.days.len());
}

#[test]
fn concurrent_readers_stay_consistent_across_thread_counts() {
    // The rayon stand-in sizes its pool from the environment per call, so
    // both legs run in-process; CI additionally runs the whole suite under
    // exported RAYON_NUM_THREADS legs.
    for threads in [1usize, 2] {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        readers_never_observe_torn_state(3);
    }
}
