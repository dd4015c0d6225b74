//! The [`FusionService`]: ingest-side owner of the ledger, the
//! [`DeltaEngine`], and the publication slot.

use crate::ops::{OpKind, Operation};
use crate::state::{Reject, ServedState, ServiceReader, ServiceStats};
use datamodel::{
    ClaimLedger, DomainSchema, ItemId, LedgerWrite, Snapshot, SnapshotDelta, ToleranceContext,
};
use evaluation::DeltaUsage;
use fusion::delta::AdvanceReport;
use fusion::{method_by_name, DeltaEngine, FusionMethod, FusionOptions};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Tuning of a [`FusionService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Registry names of the methods to materialize on every seal
    /// (default: all sixteen).
    pub methods: Vec<String>,
    /// Fusion options every method runs under.
    pub options: FusionOptions,
    /// Pin the tolerance context of every seal after the first to the first
    /// sealed day's (default: true). This is what keeps day-over-day deltas
    /// small — a lone value edit dirties only its own item instead of,
    /// through a moved attribute median, every item of the attribute.
    pub pin_tolerance: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            methods: fusion::all_methods()
                .iter()
                .map(|(_, m)| m.name())
                .collect(),
            options: FusionOptions::standard(),
            pin_tolerance: true,
        }
    }
}

/// What applying one [`Operation`] did.
#[derive(Debug, Clone)]
pub enum ApplyOutcome {
    /// The ledger (or, for a seal, the published state) changed.
    Applied,
    /// Exact replay of an already-applied operation: no-op.
    Duplicate,
    /// A newer operation for the same key was already applied: no-op.
    Stale,
    /// The operation is invalid for this service (reason attached): no-op.
    Rejected(String),
    /// A day was sealed, advanced, fused, and published.
    Sealed(SealReport),
}

/// Accounting of one sealed day.
#[derive(Debug, Clone)]
pub struct SealReport {
    /// The day sealed.
    pub day: u32,
    /// Items in the sealed snapshot.
    pub items: usize,
    /// Observations in the sealed snapshot.
    pub observations: usize,
    /// The engine's preparation report for the seal.
    pub advance: AdvanceReport,
    /// Wall clock of fusing the configured methods: the one
    /// [`DeltaEngine::run_all`] call, which spreads them over the rayon
    /// pool, so this is not a sum of per-method times.
    pub fuse: Duration,
    /// Wall clock of the whole seal: the ledger's seal and the engine's
    /// refill (together `advance.prepare`), the fusion (`fuse`), and
    /// building and publishing the new [`ServedState`].
    pub total: Duration,
}

/// Outcome counts of one [`FusionService::apply_all`] batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// Operations that mutated the ledger.
    pub applied: usize,
    /// Exact replays dropped.
    pub duplicates: usize,
    /// Stale (superseded-seq) arrivals dropped.
    pub stale: usize,
    /// Invalid operations dropped.
    pub rejected: usize,
    /// Days sealed.
    pub seals: usize,
}

impl From<LedgerWrite> for ApplyOutcome {
    fn from(write: LedgerWrite) -> Self {
        match write {
            LedgerWrite::Applied => ApplyOutcome::Applied,
            LedgerWrite::Duplicate => ApplyOutcome::Duplicate,
            LedgerWrite::Stale => ApplyOutcome::Stale,
        }
    }
}

/// In-process online fusion service: one claim ledger + one warm
/// [`DeltaEngine`] per domain, operations in, published [`ServedState`]s
/// out. See the [crate docs](crate) for the operation model and read-path
/// contract.
pub struct FusionService {
    schema: Arc<DomainSchema>,
    config: ServiceConfig,
    methods: Vec<Box<dyn FusionMethod>>,
    /// Holds the last sealed snapshot, which the next seal patches.
    engine: DeltaEngine,
    /// Every claim and presence with its sequence gate. Claims of offline
    /// sources stay here and are left out of sealed snapshots.
    ledger: ClaimLedger,
    /// The first sealed day's tolerances, when pinning.
    pinned: Option<ToleranceContext>,
    next_day: u32,
    version: u64,
    stats: ServiceStats,
    shared: Arc<RwLock<Arc<ServedState>>>,
}

impl FusionService {
    /// A service over `schema` with the default configuration (all sixteen
    /// methods, pinned tolerances).
    pub fn new(schema: Arc<DomainSchema>) -> Self {
        Self::with_config(schema, ServiceConfig::default())
    }

    /// A service with an explicit configuration.
    ///
    /// # Panics
    ///
    /// When `config.methods` names a method the registry does not know.
    pub fn with_config(schema: Arc<DomainSchema>, config: ServiceConfig) -> Self {
        let methods: Vec<Box<dyn FusionMethod>> = config
            .methods
            .iter()
            .map(|name| {
                method_by_name(name)
                    .unwrap_or_else(|| panic!("unknown fusion method {name:?} in ServiceConfig"))
            })
            .collect();
        Self {
            schema,
            config,
            methods,
            engine: DeltaEngine::new(),
            ledger: ClaimLedger::new(),
            pinned: None,
            next_day: 0,
            version: 0,
            stats: ServiceStats::default(),
            shared: Arc::new(RwLock::new(Arc::new(ServedState::empty()))),
        }
    }

    /// A new reader handle onto the published state. Readers can be cloned
    /// and sent to other threads freely.
    pub fn reader(&self) -> ServiceReader {
        ServiceReader::new(Arc::clone(&self.shared))
    }

    /// The day the next [`OpKind::SealDay`] at or above will seal; days
    /// below this are already sealed (their seals are duplicates).
    pub fn next_day(&self) -> u32 {
        self.next_day
    }

    /// Claims currently in the ledger (including those of offline sources).
    pub fn ledger_observations(&self) -> usize {
        self.ledger.num_claims()
    }

    /// The snapshot the last seal advanced the engine to (`None` before the
    /// first seal).
    pub fn sealed_snapshot(&self) -> Option<&Snapshot> {
        self.engine.current_snapshot()
    }

    /// The delta the last seal advanced the engine by (empty on the first
    /// seal).
    pub fn last_delta(&self) -> &SnapshotDelta {
        self.engine.last_delta()
    }

    /// Current cumulative accounting (the published state carries the copy
    /// frozen at its seal).
    pub fn stats(&self) -> ServiceStats {
        self.stats.clone()
    }

    /// Apply one operation; see [`ApplyOutcome`] for what can happen.
    ///
    /// Claim and presence operations resolve out-of-order and duplicated
    /// delivery by sequence number (highest wins, replays are no-ops), so
    /// any interleaving of a producer's per-day operations converges to the
    /// same ledger. `SealDay` is the ordering barrier: it captures whatever
    /// has arrived, and sealing an already-sealed day is a duplicate no-op.
    pub fn apply(&mut self, op: Operation) -> ApplyOutcome {
        let outcome = self.apply_inner(op);
        match &outcome {
            ApplyOutcome::Applied => self.stats.ops_applied += 1,
            ApplyOutcome::Sealed(_) => self.stats.ops_applied += 1,
            ApplyOutcome::Duplicate => self.stats.ops_duplicate += 1,
            ApplyOutcome::Stale => self.stats.ops_stale += 1,
            ApplyOutcome::Rejected(_) => self.stats.ops_rejected += 1,
        }
        outcome
    }

    /// Apply a batch of operations, returning the outcome counts.
    pub fn apply_all(&mut self, ops: impl IntoIterator<Item = Operation>) -> IngestSummary {
        let mut summary = IngestSummary::default();
        for op in ops {
            match self.apply(op) {
                ApplyOutcome::Applied => summary.applied += 1,
                ApplyOutcome::Duplicate => summary.duplicates += 1,
                ApplyOutcome::Stale => summary.stale += 1,
                ApplyOutcome::Rejected(_) => summary.rejected += 1,
                ApplyOutcome::Sealed(_) => {
                    summary.applied += 1;
                    summary.seals += 1;
                }
            }
        }
        summary
    }

    fn apply_inner(&mut self, op: Operation) -> ApplyOutcome {
        if let Some((reject, reason)) = self.reject_reason(&op.kind) {
            self.stats.count_reject(reject);
            return ApplyOutcome::Rejected(reason);
        }
        let write = match op.kind {
            OpKind::UpsertClaim {
                source,
                object,
                attr,
                value,
            } => self
                .ledger
                .upsert(source, ItemId::new(object, attr), value, op.seq),
            OpKind::RetractClaim {
                source,
                object,
                attr,
            } => self
                .ledger
                .retract(source, ItemId::new(object, attr), op.seq),
            OpKind::SourceLeave { source } => self.ledger.set_online(source, false, op.seq),
            OpKind::SourceRejoin { source } => self.ledger.set_online(source, true, op.seq),
            OpKind::SealDay { day } => {
                if day < self.next_day {
                    return ApplyOutcome::Duplicate;
                }
                return ApplyOutcome::Sealed(self.seal(day));
            }
        };
        write.into()
    }

    /// Why `kind` may not enter the ledger, if it may not: a source or
    /// attribute outside the schema, a claimed value whose kind is not its
    /// attribute's, or a non-finite number or granularity.
    fn reject_reason(&self, kind: &OpKind) -> Option<(Reject, String)> {
        let (source, attr, value) = match kind {
            OpKind::UpsertClaim {
                source, attr, value, ..
            } => (*source, Some(*attr), Some(value)),
            OpKind::RetractClaim { source, attr, .. } => (*source, Some(*attr), None),
            OpKind::SourceLeave { source } | OpKind::SourceRejoin { source } => {
                (*source, None, None)
            }
            OpKind::SealDay { .. } => return None,
        };
        if source.index() >= self.schema.num_sources() {
            return Some((
                Reject::Source,
                format!(
                    "source {} out of range for schema with {} sources",
                    source.index(),
                    self.schema.num_sources()
                ),
            ));
        }
        let attr = attr?;
        if attr.index() >= self.schema.num_attributes() {
            return Some((
                Reject::Attribute,
                format!(
                    "attribute {} out of range for schema with {} attributes",
                    attr.index(),
                    self.schema.num_attributes()
                ),
            ));
        }
        let value = value?;
        let expected = self.schema.attribute(attr).kind.value_kind();
        if value.kind() != expected {
            return Some((
                Reject::Kind,
                format!(
                    "{:?} value for {:?} attribute {}",
                    value.kind(),
                    expected,
                    attr.index()
                ),
            ));
        }
        if !value.is_finite() {
            return Some((Reject::NonFinite, format!("non-finite number {value}")));
        }
        None
    }

    /// Seal the ledger into the snapshot of `day` and its delta (patching
    /// the engine's current snapshot), advance the engine by that delta,
    /// fuse every configured method across the rayon pool, and publish the
    /// new [`ServedState`].
    fn seal(&mut self, day: u32) -> SealReport {
        let started = Instant::now();
        let (ledger, schema, pinned) = (&mut self.ledger, &self.schema, self.pinned.as_ref());
        let advance = self
            .engine
            .advance_with(|prev| ledger.seal(Arc::clone(schema), day, pinned, prev));
        let mut seal_usage = DeltaUsage::default();
        seal_usage.record_advance(&advance);
        let sealed = self.engine.current_snapshot();
        let (items, observations) =
            sealed.map_or((0, 0), |s| (s.num_items(), s.num_observations()));
        if self.config.pin_tolerance && self.pinned.is_none() {
            self.pinned = sealed.map(|s| s.tolerance().clone());
        }

        let methods: Vec<&dyn FusionMethod> = self.methods.iter().map(AsRef::as_ref).collect();
        let fuse_started = Instant::now();
        let runs = self.engine.run_all(&methods, &self.config.options);
        let fuse = fuse_started.elapsed();
        let mut results = Vec::with_capacity(runs.len());
        for (method, (result, run)) in methods.iter().zip(runs) {
            seal_usage.record_run(&run);
            results.push((method.name(), result));
        }

        self.next_day = day + 1;
        self.version += 1;
        self.stats.seals += 1;
        self.stats.delta.merge(&seal_usage);

        let state = ServedState::from_problem(
            day,
            self.version,
            self.engine.problem(),
            &results,
            self.stats.clone(),
        );
        // The slot only ever holds a complete `Arc`, so a writer that
        // panicked while holding the lock left nothing half-written. The
        // replaced state is dropped after the lock is released, so readers
        // never wait on freeing it.
        let replaced = std::mem::replace(
            &mut *self.shared.write().unwrap_or_else(PoisonError::into_inner),
            Arc::new(state),
        );
        drop(replaced);

        SealReport {
            day,
            items,
            observations,
            advance,
            fuse,
            total: started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{AttrId, AttrKind, Granularity, ObjectId, SourceId, Value};

    fn schema() -> Arc<DomainSchema> {
        let mut s = DomainSchema::new("test");
        s.add_attribute("x", AttrKind::Numeric { scale: 100.0 }, false);
        for i in 0..4 {
            s.add_source(format!("s{i}"), false);
        }
        Arc::new(s)
    }

    fn vote_service() -> FusionService {
        FusionService::with_config(
            schema(),
            ServiceConfig {
                methods: vec!["Vote".to_string()],
                ..ServiceConfig::default()
            },
        )
    }

    fn upsert(seq: u64, s: u32, obj: u32, v: f64) -> Operation {
        Operation::upsert(seq, SourceId(s), ObjectId(obj), AttrId(0), Value::number(v))
    }

    #[test]
    fn duplicate_and_stale_claims_are_no_ops() {
        let mut svc = vote_service();
        assert!(matches!(svc.apply(upsert(5, 0, 0, 1.0)), ApplyOutcome::Applied));
        // Exact replay: duplicate.
        assert!(matches!(svc.apply(upsert(5, 0, 0, 1.0)), ApplyOutcome::Duplicate));
        // Lower seq for the same key: stale, value unchanged.
        assert!(matches!(svc.apply(upsert(3, 0, 0, 9.0)), ApplyOutcome::Stale));
        // Higher seq: replaces.
        assert!(matches!(svc.apply(upsert(7, 0, 0, 2.0)), ApplyOutcome::Applied));
        assert_eq!(svc.ledger_observations(), 1);

        let stats = svc.stats();
        assert_eq!(stats.ops_applied, 2);
        assert_eq!(stats.ops_duplicate, 1);
        assert_eq!(stats.ops_stale, 1);
    }

    #[test]
    fn retraction_commutes_with_its_upsert() {
        // Retract (seq 9) arrives before the upsert it supersedes (seq 4):
        // the upsert must be dropped, leaving no claim.
        let mut svc = vote_service();
        svc.apply(upsert(1, 1, 0, 5.0));
        assert!(matches!(
            svc.apply(Operation::retract(9, SourceId(0), ObjectId(0), AttrId(0))),
            ApplyOutcome::Applied
        ));
        assert!(matches!(svc.apply(upsert(4, 0, 0, 1.0)), ApplyOutcome::Stale));
        assert_eq!(svc.ledger_observations(), 1);
    }

    /// Every operation the schema cannot hold is rejected, not just an
    /// out-of-range attribute: a table of hostile operations.
    #[test]
    fn out_of_range_attribute_is_rejected() {
        let mut svc = vote_service();
        assert!(matches!(svc.apply(upsert(1, 0, 0, 1.0)), ApplyOutcome::Applied));
        let claim = |seq, s, attr, value| {
            Operation::upsert(seq, SourceId(s), ObjectId(1), AttrId(attr), value)
        };
        let bad = [
            ("attribute out of range", claim(2, 0, 7, Value::number(1.0))),
            (
                "retract of attribute out of range",
                Operation::retract(3, SourceId(0), ObjectId(0), AttrId(7)),
            ),
            ("source out of range", claim(4, 99, 0, Value::number(1.0))),
            (
                "retract by source out of range",
                Operation::retract(5, SourceId(99), ObjectId(0), AttrId(0)),
            ),
            ("leave of source out of range", Operation::leave(6, SourceId(99))),
            ("rejoin of source out of range", Operation::rejoin(7, SourceId(99))),
            ("text on a numeric attribute", claim(8, 1, 0, Value::text("abc"))),
            ("time on a numeric attribute", claim(9, 1, 0, Value::time(5))),
            ("NaN number", claim(10, 1, 0, Value::number(f64::NAN))),
            ("infinite number", claim(11, 1, 0, Value::number(f64::INFINITY))),
            (
                "NaN granularity",
                claim(
                    12,
                    1,
                    0,
                    Value::Number {
                        value: 1.0,
                        granularity: Granularity(f64::NAN),
                    },
                ),
            ),
        ];
        let count = bad.len();
        for (label, op) in bad {
            assert!(
                matches!(svc.apply(op), ApplyOutcome::Rejected(_)),
                "{label} must be rejected"
            );
            assert_eq!(svc.ledger_observations(), 1, "{label} changed the ledger");
        }
        let stats = svc.stats();
        assert_eq!(stats.ops_rejected, count);
        assert_eq!(stats.rejected_attribute, 2);
        assert_eq!(stats.rejected_source, 4);
        assert_eq!(stats.rejected_kind, 2);
        assert_eq!(stats.rejected_non_finite, 3);
        assert_eq!(stats.ops_applied, 1);

        // A rejected operation records no sequence number: a valid claim on
        // the same key at a lower seq still applies.
        assert!(matches!(svc.apply(upsert(3, 1, 1, 2.0)), ApplyOutcome::Applied));
        let ApplyOutcome::Sealed(report) = svc.apply(Operation::seal(20, 0)) else {
            panic!("seal failed");
        };
        assert_eq!(report.observations, 2);
    }

    #[test]
    fn seal_publishes_and_resealing_is_duplicate() {
        let mut svc = vote_service();
        let reader = svc.reader();
        assert_eq!(reader.day(), None);
        assert!(reader.answer("Vote", ItemId::new(ObjectId(0), AttrId(0))).is_none());

        // Median ~100 ⇒ tolerance ~1.0: the first three claims bucket
        // together, 150 stands alone.
        for (seq, (s, v)) in [(0u32, 100.0), (1, 100.0), (2, 100.2), (3, 150.0)]
            .into_iter()
            .enumerate()
        {
            svc.apply(upsert(seq as u64, s, 0, v));
        }
        let outcome = svc.apply(Operation::seal(100, 0));
        let ApplyOutcome::Sealed(report) = outcome else {
            panic!("expected Sealed, got {outcome:?}");
        };
        assert_eq!(report.day, 0);
        assert_eq!(report.items, 1);
        assert_eq!(report.observations, 4);
        assert!(report.advance.first_day);

        assert_eq!(reader.day(), Some(0));
        let answer = reader
            .answer("Vote", ItemId::new(ObjectId(0), AttrId(0)))
            .expect("sealed item answers");
        assert_eq!(answer.value, Value::number(100.0));
        assert_eq!(answer.sources.len(), 4);
        assert!(answer.confidence > 0.5 && answer.confidence <= 1.0);
        // Readings come back source-sorted, agreement flags match buckets.
        let agreeing = answer.sources.iter().filter(|r| r.agrees).count();
        assert_eq!(agreeing, 3);
        assert!(answer.sources.windows(2).all(|w| w[0].source < w[1].source));
        assert!(reader.trust("Vote", SourceId(0)).is_some());

        // Sealing day 0 again: duplicate, nothing republished.
        let v = reader.version();
        assert!(matches!(svc.apply(Operation::seal(101, 0)), ApplyOutcome::Duplicate));
        assert_eq!(reader.version(), v);
    }

    #[test]
    fn leave_excludes_claims_until_rejoin() {
        let mut svc = vote_service();
        svc.apply(upsert(0, 0, 0, 1.0));
        svc.apply(upsert(1, 1, 0, 1.0));
        svc.apply(Operation::leave(2, SourceId(1)));
        let ApplyOutcome::Sealed(r0) = svc.apply(Operation::seal(3, 0)) else {
            panic!("seal failed");
        };
        assert_eq!(r0.observations, 1);

        // Rejoin: the ledgered claim reappears on the next seal; the claim
        // itself never had to be re-sent.
        svc.apply(Operation::rejoin(4, SourceId(1)));
        let ApplyOutcome::Sealed(r1) = svc.apply(Operation::seal(5, 1)) else {
            panic!("seal failed");
        };
        assert_eq!(r1.observations, 2);
        assert_eq!(r1.advance.added_sources, 1);
        for report in [&r0, &r1] {
            assert!(report.total >= report.fuse);
        }

        // A stale leave (lower seq than the applied rejoin) is dropped.
        assert!(matches!(
            svc.apply(Operation::leave(3, SourceId(1))),
            ApplyOutcome::Stale
        ));

        let stats = svc.stats();
        assert_eq!(stats.seals, 2);
        assert_eq!(stats.delta.advances, 2);
    }

    #[test]
    fn shuffled_ingest_converges_to_direct_ledger_state() {
        // Same claims, two arrival orders (one with duplicates), same
        // published selection bits.
        let claims: Vec<(u64, u32, u32, f64)> = vec![
            (0, 0, 0, 1.0),
            (1, 1, 0, 1.0),
            (2, 2, 0, 2.0),
            (3, 0, 1, 7.0),
            (4, 1, 1, 7.2),
            (5, 2, 1, 9.0),
        ];
        let mut forward = vote_service();
        for &(seq, s, obj, v) in &claims {
            forward.apply(upsert(seq, s, obj, v));
        }
        forward.apply(Operation::seal(99, 0));

        let mut scrambled = vote_service();
        let mut order: Vec<usize> = vec![3, 0, 5, 2, 2, 4, 1, 0, 5];
        order.reverse();
        for i in order {
            let (seq, s, obj, v) = claims[i];
            scrambled.apply(upsert(seq, s, obj, v));
        }
        scrambled.apply(Operation::seal(99, 0));

        let a = forward.reader().state();
        let b = scrambled.reader().state();
        assert_eq!(a.items(), b.items());
        assert_eq!(a.selection("Vote"), b.selection("Vote"));
        let ta: Vec<u64> = a.trust_vector("Vote").unwrap().iter().map(|t| t.to_bits()).collect();
        let tb: Vec<u64> = b.trust_vector("Vote").unwrap().iter().map(|t| t.to_bits()).collect();
        assert_eq!(ta, tb);
    }

    /// The publication slot only ever holds a complete `Arc`, so a panic
    /// while its lock is held loses nothing: readers still read, and the
    /// next seal still publishes.
    #[test]
    fn a_poisoned_lock_still_reads_and_publishes() {
        let mut svc = vote_service();
        svc.apply(upsert(0, 0, 0, 1.0));
        svc.apply(Operation::seal(1, 0));
        let shared = Arc::clone(&svc.shared);
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.write().unwrap();
            panic!("poison the served state lock");
        });
        assert!(poisoner.join().is_err());
        assert!(svc.shared.is_poisoned());

        let reader = svc.reader();
        assert_eq!(reader.day(), Some(0));
        svc.apply(upsert(2, 1, 0, 1.0));
        assert!(matches!(svc.apply(Operation::seal(3, 1)), ApplyOutcome::Sealed(_)));
        assert_eq!(reader.day(), Some(1));
        assert_eq!(reader.state().items().len(), 1);
    }

    /// A method listed twice fuses once per seal: its second listing is a
    /// cache hit, and the published state holds one entry for it.
    #[test]
    fn a_method_listed_twice_fuses_once() {
        let mut svc = FusionService::with_config(
            schema(),
            ServiceConfig {
                methods: vec!["Vote".to_string(), "Vote".to_string()],
                ..ServiceConfig::default()
            },
        );
        svc.apply(upsert(0, 0, 0, 1.0));
        svc.apply(upsert(1, 1, 0, 2.0));
        assert!(matches!(svc.apply(Operation::seal(2, 0)), ApplyOutcome::Sealed(_)));
        let stats = svc.stats();
        assert_eq!(stats.delta.runs, 2);
        assert_eq!(stats.delta.cache_hits, 1, "the second listing must not fuse");
        let state = svc.reader().state();
        assert_eq!(state.methods().count(), 1);
        assert!(state.selection("Vote").is_some());
    }

    #[test]
    #[should_panic(expected = "unknown fusion method")]
    fn unknown_method_name_panics_at_construction() {
        let _ = FusionService::with_config(
            schema(),
            ServiceConfig {
                methods: vec!["NotAMethod".to_string()],
                ..ServiceConfig::default()
            },
        );
    }
}
