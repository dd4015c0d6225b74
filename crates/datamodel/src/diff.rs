//! Day-over-day snapshot diffing for incremental (delta) fusion.
//!
//! [`SnapshotDelta::between`] compares two [`Snapshot`]s of the same domain
//! and reports exactly which parts of a prepared fusion problem are stale:
//! items whose observation rows changed (values edited, claims added or
//! retracted, items appearing or disappearing), sources whose claim sets
//! changed, and attributes whose tolerance context moved (which invalidates
//! the bucketing of *every* item of that attribute, since both the bucket
//! grouping of Equation 3 and the similarity scale depend on it).
//!
//! The online service's [`crate::ClaimLedger`] reaches the same delta
//! without the whole-world walk: it patches the previous snapshot row by
//! row and diffs only the rows its ingest touched, through the same per-row
//! code.
//!
//! The diff is the contract between `datamodel` and the warm-state delta
//! engine in the fusion crate: an item not listed as dirty is guaranteed to
//! bucket into the exact same candidate values, provider rows, and similarity
//! edges as in the previous snapshot, so its CSR rows can be spliced forward
//! verbatim instead of being recomputed.

use crate::ids::{AttrId, ItemId, SourceId};
use crate::snapshot::{Observation, Snapshot};
use crate::tolerance::ToleranceContext;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Whether `attr`'s tolerance or similarity scale differs between two
/// contexts, bit for bit.
fn attr_moved(prev: &ToleranceContext, next: &ToleranceContext, attr: AttrId) -> bool {
    prev.tolerance(attr).to_bits() != next.tolerance(attr).to_bits()
        || prev.similarity_scale(attr).to_bits() != next.similarity_scale(attr).to_bits()
}

/// The difference between two consecutive snapshots of one domain.
///
/// Produced by [`SnapshotDelta::between`]; consumed by the fusion crate's
/// partial-refill preparation and its `DeltaEngine`. All sets are exact, not
/// conservative over-approximations, with one deliberate exception: an
/// attribute whose tolerance context changed marks every item of that
/// attribute dirty, because bucketing is a function of the tolerance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDelta {
    dirty_items: BTreeSet<ItemId>,
    removed_items: BTreeSet<ItemId>,
    dirty_sources: BTreeSet<SourceId>,
    added_sources: BTreeSet<SourceId>,
    removed_sources: BTreeSet<SourceId>,
    dirty_attrs: BTreeSet<AttrId>,
    num_next_items: usize,
}

impl SnapshotDelta {
    /// Diff `prev` against `next` (two days of the same domain).
    ///
    /// An item is **dirty** when its observation row differs between the two
    /// snapshots (any value edit, claim addition/retraction, or observation
    /// reordering), when it only exists in `next`, or when the tolerance
    /// context of its attribute changed. Items that only exist in `prev` are
    /// **removed**. A source is **dirty** when the set of (item, value)
    /// claims it makes changed — including every source touched by an added
    /// or removed item, and every source that entered or left the snapshot.
    pub fn between(prev: &Snapshot, next: &Snapshot) -> Self {
        let mut delta = SnapshotDelta {
            num_next_items: next.num_items(),
            ..SnapshotDelta::default()
        };
        delta.diff_tolerance(prev, next);
        delta.diff_items(prev, next);
        delta.diff_sources(prev, next);
        delta
    }

    /// Patch `snapshot`, the previous seal, into the next one in place and
    /// return the delta between the two, as [`crate::ClaimLedger`] does at a
    /// seal. `rows` yields each item that may have changed with its new row
    /// (empty when the item is gone); every other row must be unchanged.
    /// `tolerance: Some` is pinned, `None` recomputes the context from the
    /// patched values. `added` and `removed` are the sources active in only
    /// one of the two snapshots.
    ///
    /// Under that precondition the result equals [`Self::between`] of the
    /// snapshot before and after, at the cost of the yielded rows instead of
    /// the whole world, unless a tolerance moved: then, as in `between`,
    /// every item of its attribute is dirty.
    pub(crate) fn patch(
        snapshot: &mut Snapshot,
        day: u32,
        rows: impl IntoIterator<Item = (ItemId, Vec<Observation>)>,
        tolerance: Option<&ToleranceContext>,
        added: &[SourceId],
        removed: &[SourceId],
    ) -> Self {
        let mut delta = SnapshotDelta::default();
        for (item, obs) in rows {
            let old = snapshot.replace_row(item, obs).unwrap_or_default();
            delta.diff_row(item, &old, snapshot.observations(item));
        }
        let tolerance = tolerance
            .cloned()
            .unwrap_or_else(|| snapshot.computed_tolerance());
        for idx in 0..snapshot.schema().num_attributes() {
            let attr = AttrId(idx as u16);
            if attr_moved(snapshot.tolerance(), &tolerance, attr) {
                delta.dirty_attrs.insert(attr);
            }
        }
        if !delta.dirty_attrs.is_empty() {
            let moved = snapshot
                .item_ids()
                .filter(|i| delta.dirty_attrs.contains(&i.attr));
            delta.dirty_items.extend(moved);
        }
        snapshot.set_tolerance(tolerance);
        snapshot.set_day(day);
        delta.num_next_items = snapshot.num_items();
        delta.added_sources.extend(added);
        delta.removed_sources.extend(removed);
        delta.dirty_sources.extend(added.iter().chain(removed));
        delta
    }

    /// Mark attributes whose tolerance or similarity scale moved. Compared
    /// bit-for-bit: the prepared CSR state (bucket grouping, similarity
    /// edges) is a deterministic function of these floats, so any bit change
    /// can change the preparation.
    fn diff_tolerance(&mut self, prev: &Snapshot, next: &Snapshot) {
        let num_attrs = prev
            .schema()
            .num_attributes()
            .max(next.schema().num_attributes());
        for idx in 0..num_attrs {
            let attr = AttrId(idx as u16);
            if attr_moved(prev.tolerance(), next.tolerance(), attr) {
                self.dirty_attrs.insert(attr);
            }
        }
    }

    /// Merge-walk the two (sorted) item maps, diffing every row.
    fn diff_items(&mut self, prev: &Snapshot, next: &Snapshot) {
        let mut prev_it = prev.items().peekable();
        let mut next_it = next.items().peekable();
        loop {
            let order = match (prev_it.peek(), next_it.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((pi, _)), Some((ni, _))) => pi.cmp(ni),
            };
            let (item, pobs, nobs) = match order {
                Ordering::Less => {
                    let (item, pobs) = prev_it.next().unwrap();
                    (*item, pobs, &[][..])
                }
                Ordering::Greater => {
                    let (item, nobs) = next_it.next().unwrap();
                    (*item, &[][..], nobs)
                }
                Ordering::Equal => {
                    let (item, pobs) = prev_it.next().unwrap();
                    (*item, pobs, next_it.next().unwrap().1)
                }
            };
            self.diff_row(item, pobs, nobs);
        }
    }

    /// Diff one item's rows; an empty row is an item absent from its
    /// snapshot (snapshots never carry observation-less items).
    fn diff_row(&mut self, item: ItemId, pobs: &[Observation], nobs: &[Observation]) {
        if nobs.is_empty() {
            if !pobs.is_empty() {
                self.removed_items.insert(item);
                self.dirty_sources.extend(pobs.iter().map(|o| o.source));
            }
            return;
        }
        if pobs.is_empty() {
            self.dirty_items.insert(item);
            self.dirty_sources.extend(nobs.iter().map(|o| o.source));
            return;
        }
        let row_changed = pobs != nobs;
        if row_changed || self.dirty_attrs.contains(&item.attr) {
            self.dirty_items.insert(item);
        }
        if row_changed {
            // A reordered-but-equal claim set still dirties the item
            // (observation order feeds bucket order), but only sources whose
            // *claim* on this item changed are trust-dirty.
            for p in pobs {
                match nobs.iter().find(|n| n.source == p.source) {
                    Some(n) if n.value == p.value => {}
                    _ => {
                        self.dirty_sources.insert(p.source);
                    }
                }
            }
            for n in nobs {
                if !pobs.iter().any(|p| p.source == n.source) {
                    self.dirty_sources.insert(n.source);
                }
            }
        }
    }

    /// Record sources entering or leaving the snapshot entirely (these also
    /// shift the dense source indexing of a prepared problem).
    fn diff_sources(&mut self, prev: &Snapshot, next: &Snapshot) {
        let prev_sources = prev.active_sources();
        let next_sources = next.active_sources();
        for s in next_sources.difference(&prev_sources) {
            self.added_sources.insert(*s);
            self.dirty_sources.insert(*s);
        }
        for s in prev_sources.difference(&next_sources) {
            self.removed_sources.insert(*s);
            self.dirty_sources.insert(*s);
        }
    }

    /// True when the two snapshots prepare to an identical fusion problem:
    /// no item row changed, no item or source was added or removed.
    pub fn is_empty(&self) -> bool {
        self.dirty_items.is_empty()
            && self.removed_items.is_empty()
            && self.added_sources.is_empty()
            && self.removed_sources.is_empty()
    }

    /// Fraction of the item universe that must be re-prepared:
    /// `(dirty + removed) / (next items + removed)`, in `[0, 1]`.
    pub fn dirty_fraction(&self) -> f64 {
        let stale = self.dirty_items.len() + self.removed_items.len();
        let universe = (self.num_next_items + self.removed_items.len()).max(1);
        stale as f64 / universe as f64
    }

    /// Whether `item`'s prepared rows are stale (changed or newly added).
    pub fn is_dirty_item(&self, item: ItemId) -> bool {
        self.dirty_items.contains(&item)
    }

    /// Items whose observation rows changed or that are new in `next`.
    pub fn dirty_items(&self) -> &BTreeSet<ItemId> {
        &self.dirty_items
    }

    /// Items present in `prev` but absent from `next`.
    pub fn removed_items(&self) -> &BTreeSet<ItemId> {
        &self.removed_items
    }

    /// Sources whose claim set changed (edited/added/retracted claims, or
    /// entering/leaving the snapshot).
    pub fn dirty_sources(&self) -> &BTreeSet<SourceId> {
        &self.dirty_sources
    }

    /// Sources active in `next` but not in `prev`.
    pub fn added_sources(&self) -> &BTreeSet<SourceId> {
        &self.added_sources
    }

    /// Sources active in `prev` but not in `next`.
    pub fn removed_sources(&self) -> &BTreeSet<SourceId> {
        &self.removed_sources
    }

    /// Attributes whose tolerance context (tolerance or similarity scale)
    /// changed between the snapshots.
    pub fn dirty_attrs(&self) -> &BTreeSet<AttrId> {
        &self.dirty_attrs
    }

    /// Number of items in the `next` snapshot (the denominator context for
    /// [`Self::dirty_fraction`]).
    pub fn num_next_items(&self) -> usize {
        self.num_next_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;
    use crate::schema::{AttrKind, DomainSchema};
    use crate::snapshot::SnapshotBuilder;
    use crate::value::Value;
    use std::sync::Arc;

    fn schema() -> Arc<DomainSchema> {
        let mut s = DomainSchema::new("stock");
        s.add_attribute("Last price", AttrKind::Numeric { scale: 100.0 }, false);
        s.add_attribute("Volume", AttrKind::Numeric { scale: 1e6 }, false);
        s.add_source("A", true);
        s.add_source("B", false);
        s.add_source("C", false);
        Arc::new(s)
    }

    fn base() -> Snapshot {
        let mut b = SnapshotBuilder::new(0);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(100.2));
        b.add(SourceId(0), ObjectId(1), AttrId(0), Value::number(50.0));
        b.add(SourceId(1), ObjectId(1), AttrId(1), Value::number(1e6));
        b.build(schema())
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let a = base();
        let b = base();
        let d = SnapshotDelta::between(&a, &b);
        assert!(d.is_empty());
        assert_eq!(d.dirty_fraction(), 0.0);
        assert!(d.dirty_items().is_empty());
        assert!(d.dirty_sources().is_empty());
        assert!(d.dirty_attrs().is_empty());
        assert_eq!(d.num_next_items(), 3);
    }

    #[test]
    fn value_edit_dirties_exactly_one_item_and_source() {
        let a = base();
        // Rebuild with one edited claim, pinning the tolerance context so the
        // numeric edit can't ripple into a per-attribute tolerance change.
        let mut b = SnapshotBuilder::new(1);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(104.0));
        b.add(SourceId(0), ObjectId(1), AttrId(0), Value::number(50.0));
        b.add(SourceId(1), ObjectId(1), AttrId(1), Value::number(1e6));
        let next = b.build_with_tolerance(schema(), a.tolerance().clone());

        let d = SnapshotDelta::between(&a, &next);
        assert!(!d.is_empty());
        let dirty: Vec<ItemId> = d.dirty_items().iter().copied().collect();
        assert_eq!(dirty, vec![ItemId::new(ObjectId(0), AttrId(0))]);
        let sources: Vec<SourceId> = d.dirty_sources().iter().copied().collect();
        assert_eq!(sources, vec![SourceId(1)]);
        assert!(d.removed_items().is_empty());
        assert!(d.added_sources().is_empty());
        assert!(d.dirty_attrs().is_empty());
        assert!((d.dirty_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!(d.is_dirty_item(ItemId::new(ObjectId(0), AttrId(0))));
        assert!(!d.is_dirty_item(ItemId::new(ObjectId(1), AttrId(0))));
    }

    #[test]
    fn item_addition_and_removal_are_tracked() {
        let a = base();
        let mut b = SnapshotBuilder::new(1);
        // Drop (ObjectId(1), AttrId(1)), add (ObjectId(2), AttrId(0)).
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(100.2));
        b.add(SourceId(0), ObjectId(1), AttrId(0), Value::number(50.0));
        b.add(SourceId(2), ObjectId(2), AttrId(0), Value::number(75.0));
        let next = b.build_with_tolerance(schema(), a.tolerance().clone());

        let d = SnapshotDelta::between(&a, &next);
        assert_eq!(
            d.dirty_items().iter().copied().collect::<Vec<_>>(),
            vec![ItemId::new(ObjectId(2), AttrId(0))]
        );
        assert_eq!(
            d.removed_items().iter().copied().collect::<Vec<_>>(),
            vec![ItemId::new(ObjectId(1), AttrId(1))]
        );
        // Source 2 is brand new; source 1 lost its Volume claim.
        assert!(d.added_sources().contains(&SourceId(2)));
        assert!(d.dirty_sources().contains(&SourceId(1)));
        assert!(d.dirty_sources().contains(&SourceId(2)));
        assert!(!d.dirty_sources().contains(&SourceId(0)));
    }

    #[test]
    fn source_removal_dirties_its_items() {
        let a = base();
        let next = a.remove_sources(&[SourceId(1)]);
        let d = SnapshotDelta::between(&a, &next);
        assert!(d.removed_sources().contains(&SourceId(1)));
        // Source 1 claimed (O0,A0) and (O1,A1); the former loses a claim,
        // the latter disappears entirely.
        assert!(d.is_dirty_item(ItemId::new(ObjectId(0), AttrId(0))));
        assert!(d.removed_items().contains(&ItemId::new(ObjectId(1), AttrId(1))));
    }

    #[test]
    fn tolerance_shift_dirties_all_items_of_attr() {
        let a = base();
        // Same observations, but tolerances recomputed from scratch after a
        // price edit large enough to move the attribute median.
        let mut b = SnapshotBuilder::new(1);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(300.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(100.2));
        b.add(SourceId(0), ObjectId(1), AttrId(0), Value::number(50.0));
        b.add(SourceId(1), ObjectId(1), AttrId(1), Value::number(1e6));
        let next = b.build(schema());

        let d = SnapshotDelta::between(&a, &next);
        assert!(d.dirty_attrs().contains(&AttrId(0)));
        // Every price item is dirty — including (O1,A0) whose row is unchanged.
        assert!(d.is_dirty_item(ItemId::new(ObjectId(1), AttrId(0))));
        // The volume item is untouched and its attribute is stable.
        assert!(!d.is_dirty_item(ItemId::new(ObjectId(1), AttrId(1))));
    }
}
