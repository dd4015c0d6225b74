//! Random operation streams through the online [`service::FusionService`],
//! checked against cold batch runs, over Stock and Flight.
//!
//! Each day's logical claims come from [`datagen::mutation_stream`], with a
//! few claims edited (Flight has no numeric claims for the stream to nudge)
//! and a few retracted. The producer sends [`service::diff_ops`] from the
//! previous logical day, then mixes in noise that must not change what is
//! sealed:
//!
//! - exact duplicates of that day's operations;
//! - stale re-sends and retractions, below the key's last sequence number;
//! - value-equal re-sends at a fresh sequence number;
//! - retract-then-re-upsert pairs that end on the day's value;
//! - leave/rejoin pairs, and one source that stays offline for a day;
//! - invalid operations (out-of-range source or attribute, wrong value
//!   kind, non-finite number).
//!
//! The day's operations are shuffled and then sealed. Every sealed day must
//! match a cold `FusionProblem::from_snapshot` run of its valid claims in
//! selection and trust bits for all sixteen methods. The delta each seal
//! advanced the engine by must equal [`SnapshotDelta::between`] of the
//! previous and the new sealed snapshot.

use datagen::{flight_config, generate, mutation_stream, stock_config, DomainConfig};
use datamodel::{
    AttrId, ItemId, ObjectId, Snapshot, SnapshotBuilder, SnapshotDelta, SourceId, ToleranceContext,
    Value, ValueKind,
};
use fusion::{all_methods, FusionOptions, FusionProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{diff_ops, shuffle, ApplyOutcome, FusionService, OpKind, Operation};
use std::collections::{BTreeSet, HashMap};

/// Mutated days after the first.
const DAYS: usize = 4;

/// The producer side of a stream: hands out sequence numbers and remembers
/// the last one it sent per claim key and per source.
///
/// Real operations take even sequence numbers. A stale re-send takes the
/// odd number just below its key's last one, so it never collides with a
/// real operation of that key.
struct Producer {
    seq: u64,
    last: HashMap<(SourceId, ItemId), u64>,
    presence: HashMap<SourceId, u64>,
    rng: StdRng,
}

impl Producer {
    fn new(seed: u64) -> Self {
        Self {
            seq: 2,
            last: HashMap::new(),
            presence: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 2;
        self.seq
    }

    /// Renumber `ops` with fresh sequence numbers, recording each key's.
    fn stamp(&mut self, ops: &mut [Operation]) {
        for op in ops {
            op.seq = self.next_seq();
            self.record(op);
        }
    }

    fn record(&mut self, op: &Operation) {
        match &op.kind {
            OpKind::UpsertClaim {
                source,
                object,
                attr,
                ..
            }
            | OpKind::RetractClaim {
                source,
                object,
                attr,
            } => {
                self.last
                    .insert((*source, ItemId::new(*object, *attr)), op.seq);
            }
            OpKind::SourceLeave { source } | OpKind::SourceRejoin { source } => {
                self.presence.insert(*source, op.seq);
            }
            OpKind::SealDay { .. } => {}
        }
    }

    fn upsert(&mut self, source: SourceId, item: ItemId, value: Value) -> Operation {
        let op = Operation::upsert(self.next_seq(), source, item.object, item.attr, value);
        self.record(&op);
        op
    }

    fn retract(&mut self, source: SourceId, item: ItemId) -> Operation {
        let op = Operation::retract(self.next_seq(), source, item.object, item.attr);
        self.record(&op);
        op
    }

    fn presence(&mut self, source: SourceId, online: bool) -> Operation {
        let seq = self.next_seq();
        let op = if online {
            Operation::rejoin(seq, source)
        } else {
            Operation::leave(seq, source)
        };
        self.record(&op);
        op
    }
}

/// A value of the same kind as `value` that differs from it.
fn other_value(value: &Value) -> Value {
    match value {
        Value::Number { value, .. } => Value::number(value * 3.0 + 7.0),
        Value::Time(t) => Value::Time(t + 13),
        Value::Text(s) => Value::text(format!("{s} (stale)")),
    }
}

/// `claims` restricted to sources not in `offline`, with `tolerance`
/// pinned, or recomputed from the kept values when `None`.
fn expected_day(
    claims: &Snapshot,
    day: u32,
    offline: &BTreeSet<SourceId>,
    tolerance: Option<&ToleranceContext>,
) -> Snapshot {
    let mut builder = SnapshotBuilder::new(day);
    for (item, obs) in claims.items() {
        for o in obs.iter().filter(|o| !offline.contains(&o.source)) {
            builder.add(o.source, item.object, item.attr, o.value.clone());
        }
    }
    match tolerance {
        Some(t) => builder.build_with_tolerance(claims.schema_arc(), t.clone()),
        None => builder.build(claims.schema_arc()),
    }
}

/// `planned` with a few claims edited and, on items that keep at least two
/// other claimants, a few retracted; taken as planned unless `perturb`.
fn logical_day(planned: &Snapshot, perturb: bool, rng: &mut StdRng) -> Snapshot {
    let mut builder = SnapshotBuilder::new(planned.day());
    for (item, obs) in planned.items() {
        let retracted = (perturb && obs.len() >= 3 && rng.gen_bool(0.03))
            .then(|| obs[rng.gen_range(0..obs.len())].source);
        for o in obs.iter().filter(|o| Some(o.source) != retracted) {
            let value = if perturb && rng.gen_bool(0.004) {
                other_value(&o.value)
            } else {
                o.value.clone()
            };
            builder.add(o.source, item.object, item.attr, value);
        }
    }
    builder.build_with_tolerance(planned.schema_arc(), planned.tolerance().clone())
}

/// Invalid operations the service must reject, one per reason.
fn invalid_ops(p: &mut Producer, day: &Snapshot) -> Vec<Operation> {
    let schema = day.schema();
    let (item, obs) = day.items().next().expect("a day has items");
    let source = obs[0].source;
    let wrong_kind = match schema.attribute(item.attr).kind.value_kind() {
        ValueKind::Text => Value::number(1.0),
        ValueKind::Number | ValueKind::Time => Value::text("not a number"),
    };
    let bad_source = SourceId(schema.num_sources() as u32 + 5);
    let bad_attr = AttrId(schema.num_attributes() as u16 + 1);
    vec![
        Operation::upsert(
            p.next_seq(),
            bad_source,
            item.object,
            item.attr,
            obs[0].value.clone(),
        ),
        Operation::leave(p.next_seq(), bad_source),
        Operation::upsert(
            p.next_seq(),
            source,
            item.object,
            bad_attr,
            obs[0].value.clone(),
        ),
        Operation::retract(p.next_seq(), source, ObjectId(0), bad_attr),
        Operation::upsert(p.next_seq(), source, item.object, item.attr, wrong_kind),
        Operation::upsert(
            p.next_seq(),
            source,
            item.object,
            item.attr,
            Value::number(f64::NAN),
        ),
    ]
}

/// Drive one domain's random stream through a service and check every seal.
fn check_stream(config: &DomainConfig, seed: u64) {
    let domain = generate(config);
    let base = domain.collection.reference_day().snapshot.clone();
    let stream = mutation_stream(&base, DAYS, 0.05, seed);
    let sources: Vec<SourceId> = base.active_sources().into_iter().collect();
    let options = FusionOptions::standard();

    let mut svc = FusionService::new(base.schema_arc());
    let reader = svc.reader();
    let mut p = Producer::new(seed);
    let mut logical_prev = SnapshotBuilder::new(0).build(base.schema_arc());
    let mut pinned: Option<ToleranceContext> = None;
    let mut sealed_prev: Option<Snapshot> = None;
    // The source that stays offline through a day, and rejoins the next.
    let mut away: Option<SourceId> = None;

    for (d, planned) in stream.days.iter().enumerate() {
        let day = d as u32;
        let logical = logical_day(planned, d > 0, &mut p.rng);

        let mut ops = diff_ops(&logical_prev, &logical, 0);
        p.stamp(&mut ops);
        let mut noise = Vec::new();
        // Exact duplicates.
        noise.extend(ops.iter().step_by(17).cloned());
        for (item, obs) in logical.items() {
            for o in obs {
                let key = (o.source, *item);
                match p.rng.gen_range(0..40) {
                    // Stale re-send of another value, or stale retraction.
                    0 => {
                        let seq = p.last[&key] - 1;
                        noise.push(Operation::upsert(
                            seq,
                            o.source,
                            item.object,
                            item.attr,
                            other_value(&o.value),
                        ));
                    }
                    1 => {
                        let seq = p.last[&key] - 1;
                        noise.push(Operation::retract(seq, o.source, item.object, item.attr));
                    }
                    // Value-equal re-send.
                    2 | 3 => noise.push(p.upsert(o.source, *item, o.value.clone())),
                    // Retract, then re-upsert the day's value.
                    4 => {
                        noise.push(p.retract(o.source, *item));
                        noise.push(p.upsert(o.source, *item, o.value.clone()));
                    }
                    _ => {}
                }
            }
        }
        // Presence: last day's absentee rejoins; on odd days one source
        // leaves and rejoins within the day; on day 2 one stays away.
        if let Some(source) = away.take() {
            noise.push(p.presence(source, true));
        }
        if d % 2 == 1 {
            let source = sources[p.rng.gen_range(0..sources.len())];
            let stale_seq = p.presence.get(&source).map(|&s| s - 1);
            noise.push(p.presence(source, false));
            noise.push(p.presence(source, true));
            if let Some(seq) = stale_seq {
                noise.push(Operation::leave(seq, source));
            }
        }
        if d == 2 {
            let source = sources[p.rng.gen_range(0..sources.len())];
            noise.push(p.presence(source, false));
            away = Some(source);
        }
        let invalid = invalid_ops(&mut p, &logical);
        let num_invalid = invalid.len();
        noise.extend(invalid);

        ops.extend(noise);
        shuffle(&mut ops, seed ^ d as u64);
        let before = svc.stats().ops_rejected;
        svc.apply_all(ops);
        assert_eq!(
            svc.stats().ops_rejected - before,
            num_invalid,
            "day {day}: exactly the invalid operations are rejected"
        );
        let outcome = svc.apply(Operation::seal(p.next_seq(), day));
        assert!(
            matches!(outcome, ApplyOutcome::Sealed(_)),
            "day {day} must seal"
        );

        let offline: BTreeSet<SourceId> = away.into_iter().collect();
        let expected = expected_day(&logical, day, &offline, pinned.as_ref());
        if pinned.is_none() {
            pinned = Some(expected.tolerance().clone());
        }

        let sealed = svc.sealed_snapshot().expect("a sealed day").clone();
        assert!(
            sealed.items().eq(expected.items()),
            "day {day}: sealed claims differ from the valid operations"
        );
        if let Some(prev) = &sealed_prev {
            assert_eq!(
                svc.last_delta(),
                &SnapshotDelta::between(prev, &sealed),
                "day {day}: the seal's delta differs from a whole-world diff"
            );
        }

        let state = reader.state();
        assert_eq!(state.day(), Some(day));
        assert!(state.items().iter().copied().eq(expected.item_ids()));
        let problem = FusionProblem::from_snapshot(&expected);
        for (_, method) in all_methods() {
            let name = method.name();
            let cold = method.run(&problem, &options);
            let selection: Vec<u32> = cold.selection.iter().map(|&s| s as u32).collect();
            assert_eq!(
                state.selection(&name),
                Some(selection.as_slice()),
                "day {day} {name}: selection diverged"
            );
            let served: Vec<u64> = state
                .trust_vector(&name)
                .expect("served trust")
                .iter()
                .map(|t| t.to_bits())
                .collect();
            let cold_bits: Vec<u64> = cold.trust.overall.iter().map(|t| t.to_bits()).collect();
            assert_eq!(served, cold_bits, "day {day} {name}: trust bits diverged");
        }

        sealed_prev = Some(sealed);
        logical_prev = logical;
    }
}

#[test]
fn stock_random_streams_match_cold_batch() {
    for seed in [11, 12] {
        check_stream(&stock_config(seed).scaled(0.012, 0.05), seed);
    }
}

#[test]
fn flight_random_streams_match_cold_batch() {
    for seed in [21, 22] {
        check_stream(&flight_config(seed).scaled(0.04, 0.05), seed);
    }
}
