//! Observation tables: one [`Snapshot`] per domain per day.
//!
//! A snapshot records, for every data item, which sources provided which
//! (normalized) value on that day — exactly the table the paper's
//! measurements and fusion experiments run over. The snapshot also owns the
//! [`ToleranceContext`] computed from its own values, so bucketing is always
//! performed with the tolerances of Equation 3.

use crate::bucket::{Bucketing, ValueBucket};
use crate::ids::{AttrId, ItemId, ObjectId, SourceId};
use crate::schema::DomainSchema;
use crate::tolerance::{ToleranceContext, TolerancePolicy};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One source's claim about one data item.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The source making the claim.
    pub source: SourceId,
    /// The (normalized) value it provides.
    pub value: Value,
}

/// Builder for a [`Snapshot`]; accumulate observations then call
/// [`SnapshotBuilder::build`].
#[derive(Debug)]
pub struct SnapshotBuilder {
    day: u32,
    policy: TolerancePolicy,
    items: BTreeMap<ItemId, Vec<Observation>>,
}

impl SnapshotBuilder {
    /// Start building the snapshot for `day` (an index into the collection
    /// period, e.g. 0 for July 1st).
    pub fn new(day: u32) -> Self {
        Self {
            day,
            policy: TolerancePolicy::default(),
            items: BTreeMap::new(),
        }
    }

    /// Override the tolerance policy (default: α = 0.01, 10-minute times).
    pub fn with_policy(mut self, policy: TolerancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Record that `source` provides `value` for `(object, attr)`.
    ///
    /// Each source provides at most one value per data item (the paper's
    /// setting); adding a second claim from the same source replaces the
    /// first.
    pub fn add(&mut self, source: SourceId, object: ObjectId, attr: AttrId, value: Value) {
        let item = ItemId::new(object, attr);
        let obs = self.items.entry(item).or_default();
        match obs.iter_mut().find(|o| o.source == source) {
            Some(existing) => existing.value = value,
            None => obs.push(Observation { source, value }),
        }
    }

    /// Remove `source`'s claim for `(object, attr)` if present; returns
    /// whether anything was removed. An item whose last observation is
    /// removed disappears from the builder entirely (a snapshot never
    /// carries observation-less items).
    pub fn remove(&mut self, source: SourceId, object: ObjectId, attr: AttrId) -> bool {
        let item = ItemId::new(object, attr);
        let Some(obs) = self.items.get_mut(&item) else {
            return false;
        };
        let before = obs.len();
        obs.retain(|o| o.source != source);
        let removed = obs.len() < before;
        if obs.is_empty() {
            self.items.remove(&item);
        }
        removed
    }

    /// The day this builder targets.
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Retarget the builder to another day, so one builder kept alive as a
    /// claim ledger can be re-stamped before every [`Self::materialize`]
    /// instead of replaying all claims into a fresh builder per day. (The
    /// online service keeps its claims in a [`crate::ClaimLedger`].)
    pub fn set_day(&mut self, day: u32) {
        self.day = day;
    }

    /// The value `source` currently provides for `(object, attr)`, if any.
    pub fn value_of(&self, source: SourceId, object: ObjectId, attr: AttrId) -> Option<&Value> {
        self.items
            .get(&ItemId::new(object, attr))?
            .iter()
            .find(|o| o.source == source)
            .map(|o| &o.value)
    }

    /// Number of observations recorded so far.
    pub fn num_observations(&self) -> usize {
        self.items.values().map(Vec::len).sum()
    }

    /// Non-consuming build: materialize a snapshot from the current claims,
    /// skipping every observation whose source is in `exclude` (and any item
    /// that leaves empty). Per-item observations are emitted in ascending
    /// `SourceId` order — a canonical order independent of claim arrival
    /// order, so two ledgers holding the same claims always materialize
    /// byte-identical snapshots (the generator emits sources in index order,
    /// so generated snapshots already follow it). With `tolerance: Some`,
    /// the given context is pinned verbatim (see
    /// [`Self::build_with_tolerance`]); with `None` it is recomputed from
    /// the included values.
    pub fn materialize(
        &self,
        schema: Arc<DomainSchema>,
        tolerance: Option<&ToleranceContext>,
        exclude: &BTreeSet<SourceId>,
    ) -> Snapshot {
        let mut items: BTreeMap<ItemId, Vec<Observation>> = BTreeMap::new();
        for (item, obs) in &self.items {
            let mut kept: Vec<Observation> = obs
                .iter()
                .filter(|o| !exclude.contains(&o.source))
                .cloned()
                .collect();
            if kept.is_empty() {
                continue;
            }
            kept.sort_by_key(|o| o.source);
            items.insert(*item, kept);
        }
        Snapshot::from_items(schema, self.day, items, tolerance, self.policy)
    }

    /// Finalize the snapshot: computes the per-attribute tolerance context
    /// from all recorded values.
    pub fn build(self, schema: Arc<DomainSchema>) -> Snapshot {
        Snapshot::from_items(schema, self.day, self.items, None, self.policy)
    }

    /// Finalize the snapshot with an explicit, caller-provided tolerance
    /// context instead of recomputing one from the recorded values.
    ///
    /// This is the delta-fusion building block: a day-over-day mutation of a
    /// base snapshot keeps the base's tolerances so that bucketing stays
    /// comparable across days and a small value edit dirties only its own
    /// item instead of (through a moved attribute median) every item of the
    /// attribute. See [`crate::diff::SnapshotDelta`].
    pub fn build_with_tolerance(
        self,
        schema: Arc<DomainSchema>,
        tolerance: ToleranceContext,
    ) -> Snapshot {
        Snapshot {
            schema,
            day: self.day,
            items: self.items,
            tolerance,
        }
    }
}

/// The tolerance context `items`' values give under `policy`.
fn tolerance_of(
    schema: &DomainSchema,
    items: &BTreeMap<ItemId, Vec<Observation>>,
    policy: TolerancePolicy,
) -> ToleranceContext {
    let mut values_per_attr: Vec<Vec<Value>> = vec![Vec::new(); schema.num_attributes()];
    for (item, obs) in items {
        let slot = &mut values_per_attr[item.attr.index()];
        for o in obs {
            slot.push(o.value.clone());
        }
    }
    ToleranceContext::from_values(schema, &values_per_attr, policy)
}

/// The observation table for one domain on one day.
#[derive(Debug, Clone)]
pub struct Snapshot {
    schema: Arc<DomainSchema>,
    day: u32,
    items: BTreeMap<ItemId, Vec<Observation>>,
    tolerance: ToleranceContext,
}

impl Snapshot {
    /// A snapshot of `items`, bucketing with `tolerance` pinned verbatim, or
    /// with a context computed from the items' values under `policy` when
    /// `None`.
    pub(crate) fn from_items(
        schema: Arc<DomainSchema>,
        day: u32,
        items: BTreeMap<ItemId, Vec<Observation>>,
        tolerance: Option<&ToleranceContext>,
        policy: TolerancePolicy,
    ) -> Snapshot {
        let tolerance = match tolerance {
            Some(t) => t.clone(),
            None => tolerance_of(&schema, &items, policy),
        };
        Snapshot {
            schema,
            day,
            items,
            tolerance,
        }
    }

    /// The snapshot of `day` with no items, under the default tolerance
    /// policy.
    pub(crate) fn empty(schema: Arc<DomainSchema>, day: u32) -> Snapshot {
        Self::from_items(
            schema,
            day,
            BTreeMap::new(),
            None,
            TolerancePolicy::default(),
        )
    }

    /// The tolerance context this snapshot's own values give under its
    /// policy.
    pub(crate) fn computed_tolerance(&self) -> ToleranceContext {
        tolerance_of(&self.schema, &self.items, self.tolerance.policy())
    }

    /// Bucket with `tolerance` from now on.
    pub(crate) fn set_tolerance(&mut self, tolerance: ToleranceContext) {
        self.tolerance = tolerance;
    }

    /// Replace `item`'s row with `obs` (an empty row removes the item),
    /// returning the old row.
    pub(crate) fn replace_row(
        &mut self,
        item: ItemId,
        obs: Vec<Observation>,
    ) -> Option<Vec<Observation>> {
        if obs.is_empty() {
            self.items.remove(&item)
        } else {
            self.items.insert(item, obs)
        }
    }

    /// Re-stamp the snapshot as `day`'s.
    pub(crate) fn set_day(&mut self, day: u32) {
        self.day = day;
    }

    /// The day index this snapshot was collected on.
    pub fn day(&self) -> u32 {
        self.day
    }

    /// The domain schema.
    pub fn schema(&self) -> &DomainSchema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<DomainSchema> {
        Arc::clone(&self.schema)
    }

    /// The tolerance context computed from this snapshot's values.
    pub fn tolerance(&self) -> &ToleranceContext {
        &self.tolerance
    }

    /// Number of data items with at least one observation.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Total number of (source, item, value) observations.
    pub fn num_observations(&self) -> usize {
        self.items.values().map(Vec::len).sum()
    }

    /// Iterate over all data items and their observations, in item order.
    pub fn items(&self) -> impl Iterator<Item = (&ItemId, &[Observation])> {
        self.items.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Ids of all data items, in order.
    pub fn item_ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.items.keys().copied()
    }

    /// Observations for one data item (empty slice if the item is unknown).
    pub fn observations(&self, item: ItemId) -> &[Observation] {
        self.items.get(&item).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The value `source` provides for `item`, if any.
    pub fn value_of(&self, source: SourceId, item: ItemId) -> Option<&Value> {
        self.observations(item)
            .iter()
            .find(|o| o.source == source)
            .map(|o| &o.value)
    }

    /// All distinct objects observed in this snapshot.
    pub fn objects(&self) -> BTreeSet<ObjectId> {
        self.items.keys().map(|i| i.object).collect()
    }

    /// All sources that provide at least one observation.
    pub fn active_sources(&self) -> BTreeSet<SourceId> {
        self.items
            .values()
            .flat_map(|obs| obs.iter().map(|o| o.source))
            .collect()
    }

    /// All items of one attribute.
    pub fn items_of_attr(&self, attr: AttrId) -> Vec<ItemId> {
        self.items
            .keys()
            .copied()
            .filter(|i| i.attr == attr)
            .collect()
    }

    /// All items a given source provides a value for.
    pub fn items_of_source(&self, source: SourceId) -> Vec<ItemId> {
        self.items
            .iter()
            .filter(|(_, obs)| obs.iter().any(|o| o.source == source))
            .map(|(i, _)| *i)
            .collect()
    }

    /// Objects a given source covers (provides at least one attribute for).
    pub fn objects_of_source(&self, source: SourceId) -> BTreeSet<ObjectId> {
        self.items_of_source(source)
            .into_iter()
            .map(|i| i.object)
            .collect()
    }

    /// Attributes a given source provides (its local schema projected onto
    /// global attributes).
    pub fn attrs_of_source(&self, source: SourceId) -> BTreeSet<AttrId> {
        self.items_of_source(source)
            .into_iter()
            .map(|i| i.attr)
            .collect()
    }

    /// Tolerance-bucketed value groups for one item, dominant bucket first.
    pub fn buckets(&self, item: ItemId) -> Vec<ValueBucket> {
        let obs = self.observations(item);
        let pairs: Vec<(SourceId, Value)> =
            obs.iter().map(|o| (o.source, o.value.clone())).collect();
        Bucketing::for_attr(&self.tolerance, item.attr).bucket(&pairs)
    }

    /// [`Self::buckets`] into caller-provided storage: identical buckets,
    /// with every temporary drawn from `bucketer` and the output (including
    /// its provider vectors) recycled through `out` — the allocation-free
    /// form the warm-arena preparation path uses on every item of every day.
    pub fn buckets_into(
        &self,
        item: ItemId,
        bucketer: &mut crate::bucket::Bucketer,
        out: &mut Vec<ValueBucket>,
    ) {
        let cfg = Bucketing::for_attr(&self.tolerance, item.attr);
        bucketer.bucket_into(&cfg, self.observations(item), out);
    }

    /// A new snapshot containing only observations from `sources`.
    ///
    /// `tolerance` is the context the restricted snapshot buckets with, as
    /// in [`SnapshotBuilder::materialize`]: `None` recomputes it from the
    /// restricted data (the incremental-source experiments of Figure 9);
    /// `Some(self.tolerance())` carries this snapshot's context over. The
    /// delta-fusion form of Figure 9 pins it that way: growing source
    /// prefixes of one day then differ only on the source axis and diff
    /// cleanly (only items the new sources touch are dirty), instead of
    /// every numeric item going stale whenever the restricted median moves.
    pub fn restrict_to_sources(
        &self,
        sources: &[SourceId],
        tolerance: Option<&ToleranceContext>,
    ) -> Snapshot {
        let keep: BTreeSet<SourceId> = sources.iter().copied().collect();
        let mut builder = SnapshotBuilder::new(self.day).with_policy(self.tolerance.policy());
        for (item, obs) in &self.items {
            for o in obs {
                if keep.contains(&o.source) {
                    builder.add(o.source, item.object, item.attr, o.value.clone());
                }
            }
        }
        match tolerance {
            Some(t) => builder.build_with_tolerance(Arc::clone(&self.schema), t.clone()),
            None => builder.build(Arc::clone(&self.schema)),
        }
    }

    /// A new snapshot with all observations from `sources` removed.
    ///
    /// Used by the copier-removal experiments of Section 3.4.
    pub fn remove_sources(&self, sources: &[SourceId]) -> Snapshot {
        let drop: BTreeSet<SourceId> = sources.iter().copied().collect();
        let keep: Vec<SourceId> = self
            .active_sources()
            .into_iter()
            .filter(|s| !drop.contains(s))
            .collect();
        self.restrict_to_sources(&keep, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrKind;

    fn schema() -> Arc<DomainSchema> {
        let mut s = DomainSchema::new("stock");
        s.add_attribute("Last price", AttrKind::Numeric { scale: 100.0 }, false);
        s.add_attribute("Volume", AttrKind::Numeric { scale: 1e6 }, false);
        s.add_source("A", true);
        s.add_source("B", false);
        s.add_source("C", false);
        Arc::new(s)
    }

    fn snapshot() -> Snapshot {
        let mut b = SnapshotBuilder::new(0);
        let price = AttrId(0);
        let volume = AttrId(1);
        let obj = ObjectId(0);
        b.add(SourceId(0), obj, price, Value::number(100.0));
        b.add(SourceId(1), obj, price, Value::number(100.2));
        b.add(SourceId(2), obj, price, Value::number(105.0));
        b.add(SourceId(0), obj, volume, Value::number(1_000_000.0));
        b.add(SourceId(1), ObjectId(1), price, Value::number(50.0));
        b.build(schema())
    }

    #[test]
    fn counts_and_lookups() {
        let snap = snapshot();
        assert_eq!(snap.num_items(), 3);
        assert_eq!(snap.num_observations(), 5);
        assert_eq!(snap.objects().len(), 2);
        assert_eq!(snap.active_sources().len(), 3);
        let item = ItemId::new(ObjectId(0), AttrId(0));
        assert_eq!(snap.observations(item).len(), 3);
        assert_eq!(
            snap.value_of(SourceId(2), item),
            Some(&Value::number(105.0))
        );
        assert_eq!(snap.value_of(SourceId(2), ItemId::new(ObjectId(1), AttrId(0))), None);
    }

    #[test]
    fn duplicate_claims_replace() {
        let mut b = SnapshotBuilder::new(0);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(1.0));
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(2.0));
        let snap = b.build(schema());
        let item = ItemId::new(ObjectId(0), AttrId(0));
        assert_eq!(snap.observations(item).len(), 1);
        assert_eq!(snap.value_of(SourceId(0), item), Some(&Value::number(2.0)));
    }

    #[test]
    fn buckets_use_snapshot_tolerance() {
        let snap = snapshot();
        let item = ItemId::new(ObjectId(0), AttrId(0));
        let buckets = snap.buckets(item);
        // Median price ~100 => tolerance ~1.0, so 100.0 and 100.2 group together.
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].support(), 2);
    }

    #[test]
    fn source_projections() {
        let snap = snapshot();
        assert_eq!(snap.items_of_source(SourceId(1)).len(), 2);
        assert_eq!(snap.objects_of_source(SourceId(1)).len(), 2);
        assert_eq!(snap.attrs_of_source(SourceId(0)).len(), 2);
        assert_eq!(snap.items_of_attr(AttrId(0)).len(), 2);
    }

    #[test]
    fn restriction_and_removal() {
        let snap = snapshot();
        let only_a = snap.restrict_to_sources(&[SourceId(0)], None);
        assert_eq!(only_a.active_sources().len(), 1);
        assert_eq!(only_a.num_observations(), 2);

        let without_a = snap.remove_sources(&[SourceId(0)]);
        assert!(!without_a.active_sources().contains(&SourceId(0)));
        assert_eq!(without_a.num_observations(), 3);
        // The original is untouched.
        assert_eq!(snap.num_observations(), 5);
    }

    #[test]
    fn pinned_restrictions_keep_tolerance() {
        let snap = snapshot();
        let full_tol = snap.tolerance().tolerance(AttrId(0));

        // The recomputing restriction takes the median of what's left; the
        // pinned form must carry the full snapshot's context verbatim.
        let recomputed = snap.restrict_to_sources(&[SourceId(1)], None);
        assert_ne!(
            recomputed.tolerance().tolerance(AttrId(0)).to_bits(),
            full_tol.to_bits()
        );
        let pinned = snap.restrict_to_sources(&[SourceId(1)], Some(snap.tolerance()));
        assert_eq!(pinned.num_observations(), 2);
        let item = ItemId::new(ObjectId(0), AttrId(0));
        assert_eq!(pinned.observations(item), recomputed.observations(item));
        assert_eq!(
            pinned.tolerance().tolerance(AttrId(0)).to_bits(),
            full_tol.to_bits()
        );
    }

    #[test]
    fn build_with_tolerance_pins_context() {
        let snap = snapshot();
        let mut b = SnapshotBuilder::new(1);
        // A wildly different price that would move the recomputed median.
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(9000.0));
        let pinned = b.build_with_tolerance(snap.schema_arc(), snap.tolerance().clone());
        assert_eq!(
            pinned.tolerance().tolerance(AttrId(0)).to_bits(),
            snap.tolerance().tolerance(AttrId(0)).to_bits()
        );
        assert_eq!(pinned.day(), 1);
    }

    #[test]
    fn remove_drops_claims_and_empty_items() {
        let mut b = SnapshotBuilder::new(0);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(1.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(2.0));
        b.add(SourceId(0), ObjectId(1), AttrId(0), Value::number(3.0));

        assert!(b.remove(SourceId(1), ObjectId(0), AttrId(0)));
        // Removing again (or removing a claim that never existed) is a no-op.
        assert!(!b.remove(SourceId(1), ObjectId(0), AttrId(0)));
        assert!(!b.remove(SourceId(2), ObjectId(9), AttrId(0)));
        assert_eq!(b.value_of(SourceId(1), ObjectId(0), AttrId(0)), None);
        assert_eq!(
            b.value_of(SourceId(0), ObjectId(0), AttrId(0)),
            Some(&Value::number(1.0))
        );

        // The last claim of an item takes the item with it.
        assert!(b.remove(SourceId(0), ObjectId(1), AttrId(0)));
        let snap = b.build(schema());
        assert_eq!(snap.num_items(), 1);
        assert_eq!(snap.num_observations(), 1);
    }

    #[test]
    fn materialize_is_canonical_and_non_consuming() {
        // Claims arrive in scrambled source order; materialize must emit
        // them source-sorted, identical to a builder fed in sorted order.
        let mut scrambled = SnapshotBuilder::new(2);
        scrambled.add(SourceId(2), ObjectId(0), AttrId(0), Value::number(105.0));
        scrambled.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        scrambled.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(100.2));

        let mut sorted = SnapshotBuilder::new(2);
        sorted.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        sorted.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(100.2));
        sorted.add(SourceId(2), ObjectId(0), AttrId(0), Value::number(105.0));

        let a = scrambled.materialize(schema(), None, &BTreeSet::new());
        let b = sorted.build(schema());
        let item = ItemId::new(ObjectId(0), AttrId(0));
        assert_eq!(a.observations(item), b.observations(item));
        assert_eq!(
            a.tolerance().tolerance(AttrId(0)).to_bits(),
            b.tolerance().tolerance(AttrId(0)).to_bits()
        );
        // Non-consuming: the builder still holds every claim.
        assert_eq!(scrambled.num_observations(), 3);
    }

    #[test]
    fn materialize_excludes_sources_and_pins_tolerance() {
        let mut b = SnapshotBuilder::new(0);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(100.2));
        b.add(SourceId(1), ObjectId(1), AttrId(0), Value::number(50.0));
        let full = b.materialize(schema(), None, &BTreeSet::new());

        // Excluding source 1 drops its claims and the item it alone covered.
        let without = b.materialize(schema(), None, &BTreeSet::from([SourceId(1)]));
        assert_eq!(without.num_observations(), 1);
        assert_eq!(without.num_items(), 1);

        // Pinned tolerance is carried verbatim even though the median moved.
        b.set_day(1);
        assert_eq!(b.day(), 1);
        let pinned = b.materialize(schema(), Some(full.tolerance()), &BTreeSet::from([SourceId(0)]));
        assert_eq!(pinned.day(), 1);
        assert_eq!(
            pinned.tolerance().tolerance(AttrId(0)).to_bits(),
            full.tolerance().tolerance(AttrId(0)).to_bits()
        );
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let snap = SnapshotBuilder::new(3).build(schema());
        assert_eq!(snap.day(), 3);
        assert_eq!(snap.num_items(), 0);
        assert!(snap.buckets(ItemId::new(ObjectId(0), AttrId(0))).is_empty());
    }
}
