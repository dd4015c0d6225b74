//! The persistent claim ledger behind the online fusion service.
//!
//! A [`ClaimLedger`] holds, for every data item ever claimed, one row of
//! source-sorted slots. A slot is one source's claim on the item: the value
//! (or a tombstone after a retraction) and the highest sequence number
//! applied to it. The last-writer-wins gate and the value therefore share
//! one slot, and a write is one interned-row lookup plus a binary search in
//! that row.
//!
//! The ledger also knows what a write changed. A write that alters what a
//! sealed snapshot would hold marks its row touched, and so does a source
//! going offline or coming back. [`ClaimLedger::seal`] patches the previous
//! sealed snapshot into the next one and diffs only the touched rows,
//! through the per-row diff [`SnapshotDelta::between`] uses.

use crate::diff::SnapshotDelta;
use crate::ids::{ItemId, SourceId};
use crate::schema::DomainSchema;
use crate::snapshot::{Observation, Snapshot};
use crate::tolerance::ToleranceContext;
use crate::value::Value;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// What a sequence-gated ledger write did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerWrite {
    /// The write carried the key's highest sequence number so far and was
    /// applied.
    Applied,
    /// The key's applied sequence number equals the write's: a replay.
    Duplicate,
    /// The key already applied a higher sequence number.
    Stale,
}

/// Hashes for the row index: a multiply-rotate step per key word (rustc's
/// FxHash step) from a per-ledger random start, then a multiply-xorshift
/// finalizer so the bucket bits depend on every key bit. Cheaper than
/// SipHash for these two-word keys, and, being keyed, item ids that
/// collide in one ledger cannot be worked out in advance.
#[derive(Debug, Clone, Copy)]
struct RowHasher(u64);

impl RowHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn finish(&self) -> u64 {
        // The 64-bit finalizer of MurmurHash3.
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Starts every [`RowHasher`] of one ledger from the same random key.
#[derive(Debug, Clone)]
struct RowHashKey(u64);

impl Default for RowHashKey {
    fn default() -> Self {
        Self(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for RowHashKey {
    type Hasher = RowHasher;
    fn build_hasher(&self) -> RowHasher {
        RowHasher(self.0)
    }
}

/// All claims on one item, one slot per claiming source, sorted by source.
/// A slot is split across three arrays: a lookup searches the dense source
/// array, and an unchanged re-send reads its value and writes only its
/// sequence number.
#[derive(Debug)]
struct Row {
    item: ItemId,
    sources: Vec<SourceId>,
    /// Highest sequence number applied to each claim key.
    seqs: Vec<u64>,
    /// The claimed values; `None` is a retraction's tombstone.
    values: Vec<Option<Value>>,
    /// Changed since the last seal (listed in `ClaimLedger::touched`).
    touched: bool,
}

/// Per-source state: presence gate and live-claim count.
#[derive(Debug, Clone, Copy, Default)]
struct SourceState {
    /// Highest sequence number applied to the source's presence.
    seq: Option<u64>,
    offline: bool,
    /// Claims (slots that are not tombstones), online or not.
    live: usize,
    /// Offline flag as of the last seal.
    sealed_offline: bool,
    /// Whether the last sealed snapshot held any claim of this source.
    sealed_active: bool,
}

impl Row {
    fn insert(&mut self, i: usize, source: SourceId, seq: u64, value: Option<Value>) {
        self.sources.insert(i, source);
        self.seqs.insert(i, seq);
        self.values.insert(i, value);
    }
}

impl SourceState {
    fn active(&self) -> bool {
        self.live > 0 && !self.offline
    }
}

/// Sequence-gated claim ledger that seals into snapshots and the delta
/// since the previous seal. See the [module docs](self).
#[derive(Debug, Default)]
pub struct ClaimLedger {
    rows: Vec<Row>,
    index: HashMap<ItemId, u32, RowHashKey>,
    /// The row last written.
    last: u32,
    /// Rows changed since the last seal, in touch order.
    touched: Vec<u32>,
    /// Indexed by `SourceId`, covering every source with a slot.
    sources: Vec<SourceState>,
}

impl ClaimLedger {
    /// An empty ledger; unpinned seals compute tolerances under the default
    /// [`TolerancePolicy`](crate::TolerancePolicy).
    pub fn new() -> Self {
        Self::default()
    }

    /// `source` claims `value` for `item` at sequence number `seq`.
    ///
    /// Applied when `seq` is above every sequence number this claim key has
    /// seen, including a retraction's. Re-sending the stored value only
    /// raises the key's sequence number; it touches nothing.
    pub fn upsert(
        &mut self,
        source: SourceId,
        item: ItemId,
        value: Value,
        seq: u64,
    ) -> LedgerWrite {
        let row = self.intern(item);
        let r = &mut self.rows[row as usize];
        let revived = match r.sources.binary_search(&source) {
            Ok(i) => {
                if let Err(fail) = gate(r.seqs[i], seq) {
                    return fail;
                }
                r.seqs[i] = seq;
                if r.values[i]
                    .as_ref()
                    .is_some_and(|old| same_bits(old, &value))
                {
                    return LedgerWrite::Applied;
                }
                r.values[i].replace(value).is_none()
            }
            Err(i) => {
                r.insert(i, source, seq, Some(value));
                true
            }
        };
        if revived {
            self.source_mut(source).live += 1;
        }
        self.touch(row);
        LedgerWrite::Applied
    }

    /// `source` withdraws its claim on `item` at sequence number `seq`.
    ///
    /// An applied retraction leaves a tombstone holding `seq`, so the upsert
    /// it supersedes stays stale if it arrives later. Retracting a claim
    /// that never arrived is applied too, for the same reason.
    pub fn retract(&mut self, source: SourceId, item: ItemId, seq: u64) -> LedgerWrite {
        let row = self.intern(item);
        let r = &mut self.rows[row as usize];
        match r.sources.binary_search(&source) {
            Ok(i) => {
                if let Err(fail) = gate(r.seqs[i], seq) {
                    return fail;
                }
                r.seqs[i] = seq;
                if r.values[i].take().is_some() {
                    self.source_mut(source).live -= 1;
                    self.touch(row);
                }
            }
            Err(i) => {
                r.insert(i, source, seq, None);
                self.source_mut(source);
            }
        }
        LedgerWrite::Applied
    }

    /// Take `source` offline (`online: false`) or back online, gated by
    /// `seq` per source. An offline source keeps its claims in the ledger;
    /// seals leave them out until it rejoins.
    pub fn set_online(&mut self, source: SourceId, online: bool, seq: u64) -> LedgerWrite {
        let state = self.source_mut(source);
        if let Some(applied) = state.seq {
            if let Err(fail) = gate(applied, seq) {
                return fail;
            }
        }
        state.seq = Some(seq);
        state.offline = !online;
        LedgerWrite::Applied
    }

    /// Claims in the ledger, those of offline sources included.
    pub fn num_claims(&self) -> usize {
        self.sources.iter().map(|s| s.live).sum()
    }

    /// Seal the ledger's online claims into the snapshot of `day`, and the
    /// delta to it from `prev`, the snapshot the previous seal returned (or
    /// an empty snapshot on a first seal).
    ///
    /// `prev` is patched in place: only the rows touched since the previous
    /// seal are rebuilt and diffed, through the per-row code of
    /// [`SnapshotDelta::between`], and the delta equals what `between`
    /// would report. Per-item observations come out in ascending `SourceId`
    /// order, so two ledgers holding the same claims seal identical
    /// snapshots whatever order the claims arrived in. `tolerance: Some`
    /// pins that context verbatim; `None` computes one from the sealed
    /// values.
    pub fn seal(
        &mut self,
        schema: Arc<DomainSchema>,
        day: u32,
        tolerance: Option<&ToleranceContext>,
        prev: Option<Snapshot>,
    ) -> (Snapshot, SnapshotDelta) {
        // A source going offline or coming back changes every row it claims.
        if self.sources.iter().any(|s| s.offline != s.sealed_offline) {
            for row in 0..self.rows.len() as u32 {
                let r = &self.rows[row as usize];
                let flipped = r.sources.iter().zip(&r.values).any(|(source, value)| {
                    let state = &self.sources[source.index()];
                    value.is_some() && state.offline != state.sealed_offline
                });
                if flipped {
                    self.touch(row);
                }
            }
        }
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        for (s, state) in self.sources.iter().enumerate() {
            match (state.sealed_active, state.active()) {
                (false, true) => added.push(SourceId(s as u32)),
                (true, false) => removed.push(SourceId(s as u32)),
                _ => {}
            }
        }

        let mut snapshot = prev.unwrap_or_else(|| Snapshot::empty(schema, day));
        let rows = self.touched.iter().map(|&row| self.observations(row));
        let delta = SnapshotDelta::patch(&mut snapshot, day, rows, tolerance, &added, &removed);

        for &row in &self.touched {
            self.rows[row as usize].touched = false;
        }
        self.touched.clear();
        for state in &mut self.sources {
            state.sealed_offline = state.offline;
            state.sealed_active = state.active();
        }
        (snapshot, delta)
    }

    /// `row`'s item and the claims of its online sources, in source order.
    fn observations(&self, row: u32) -> (ItemId, Vec<Observation>) {
        let row = &self.rows[row as usize];
        let obs = row
            .sources
            .iter()
            .zip(&row.values)
            .filter(|(source, _)| !self.sources[source.index()].offline)
            .filter_map(|(&source, value)| {
                let value = value.clone()?;
                Some(Observation { source, value })
            })
            .collect();
        (row.item, obs)
    }

    /// The row of `item`, interned on first sight.
    fn intern(&mut self, item: ItemId) -> u32 {
        if self
            .rows
            .get(self.last as usize)
            .is_some_and(|r| r.item == item)
        {
            return self.last;
        }
        let rows = &mut self.rows;
        self.last = *self.index.entry(item).or_insert_with(|| {
            let row = rows.len() as u32;
            rows.push(Row {
                item,
                sources: Vec::new(),
                seqs: Vec::new(),
                values: Vec::new(),
                touched: false,
            });
            row
        });
        self.last
    }

    fn touch(&mut self, row: u32) {
        let r = &mut self.rows[row as usize];
        if !r.touched {
            r.touched = true;
            self.touched.push(row);
        }
    }

    fn source_mut(&mut self, source: SourceId) -> &mut SourceState {
        if source.index() >= self.sources.len() {
            self.sources
                .resize(source.index() + 1, SourceState::default());
        }
        &mut self.sources[source.index()]
    }
}

/// Last-writer-wins: a write at `seq` against a key that applied `applied`.
fn gate(applied: u64, seq: u64) -> Result<(), LedgerWrite> {
    match seq.cmp(&applied) {
        std::cmp::Ordering::Greater => Ok(()),
        std::cmp::Ordering::Equal => Err(LedgerWrite::Duplicate),
        std::cmp::Ordering::Less => Err(LedgerWrite::Stale),
    }
}

/// Value equality down to the bits of a number, so a re-send that flips
/// only the sign of a zero still replaces the stored value.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (
            Value::Number {
                value: x,
                granularity: gx,
            },
            Value::Number {
                value: y,
                granularity: gy,
            },
        ) => x.to_bits() == y.to_bits() && gx.0.to_bits() == gy.0.to_bits(),
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AttrId, ObjectId};
    use crate::schema::AttrKind;
    use crate::snapshot::SnapshotBuilder;
    use std::collections::BTreeSet;

    fn schema() -> Arc<DomainSchema> {
        let mut s = DomainSchema::new("stock");
        s.add_attribute("Last price", AttrKind::Numeric { scale: 100.0 }, false);
        s.add_attribute("Volume", AttrKind::Numeric { scale: 1e6 }, false);
        for i in 0..4 {
            s.add_source(format!("s{i}"), false);
        }
        Arc::new(s)
    }

    fn item(object: u32, attr: u16) -> ItemId {
        ItemId::new(ObjectId(object), AttrId(attr))
    }

    #[test]
    fn gates_keep_the_highest_seq_per_key() {
        let mut ledger = ClaimLedger::new();
        let (s, i) = (SourceId(1), item(0, 0));
        assert_eq!(
            ledger.upsert(s, i, Value::number(1.0), 5),
            LedgerWrite::Applied
        );
        assert_eq!(
            ledger.upsert(s, i, Value::number(1.0), 5),
            LedgerWrite::Duplicate
        );
        assert_eq!(
            ledger.upsert(s, i, Value::number(9.0), 3),
            LedgerWrite::Stale
        );
        assert_eq!(ledger.retract(s, i, 4), LedgerWrite::Stale);
        assert_eq!(ledger.num_claims(), 1);

        // A retraction leaves a tombstone: the upsert it supersedes stays
        // stale, also for a claim that never arrived.
        assert_eq!(ledger.retract(s, i, 8), LedgerWrite::Applied);
        assert_eq!(
            ledger.upsert(s, i, Value::number(2.0), 7),
            LedgerWrite::Stale
        );
        assert_eq!(ledger.retract(SourceId(2), i, 8), LedgerWrite::Applied);
        assert_eq!(
            ledger.upsert(SourceId(2), i, Value::number(2.0), 6),
            LedgerWrite::Stale
        );
        assert_eq!(ledger.num_claims(), 0);
        let (sealed, _) = ledger.seal(schema(), 0, None, None);
        assert_eq!(sealed.num_items(), 0, "tombstones seal to nothing");
        assert_eq!(
            ledger.upsert(s, i, Value::number(2.0), 9),
            LedgerWrite::Applied
        );
        assert_eq!(ledger.num_claims(), 1);

        assert_eq!(ledger.set_online(s, false, 2), LedgerWrite::Applied);
        assert_eq!(ledger.set_online(s, true, 2), LedgerWrite::Duplicate);
        assert_eq!(ledger.set_online(s, true, 1), LedgerWrite::Stale);
    }

    #[test]
    fn seal_is_canonical_and_matches_the_builder() {
        let claims = [
            (2, item(0, 0), 105.0),
            (0, item(0, 0), 100.0),
            (1, item(1, 0), 50.0),
            (1, item(0, 0), 100.2),
            (3, item(0, 1), 1e6),
        ];
        let mut ledger = ClaimLedger::new();
        let mut builder = SnapshotBuilder::new(4);
        for (seq, &(s, i, v)) in claims.iter().enumerate() {
            ledger.upsert(SourceId(s), i, Value::number(v), seq as u64);
            builder.add(SourceId(s), i.object, i.attr, Value::number(v));
        }
        ledger.set_online(SourceId(3), false, 0);
        let (sealed, delta) = ledger.seal(schema(), 4, None, None);
        let built = builder.materialize(schema(), None, &BTreeSet::from([SourceId(3)]));
        assert!(sealed.items().eq(built.items()));
        assert_eq!(sealed.day(), 4);
        assert_eq!(
            sealed.tolerance().tolerance(AttrId(0)).to_bits(),
            built.tolerance().tolerance(AttrId(0)).to_bits()
        );
        let empty = Snapshot::empty(schema(), 4);
        assert_eq!(delta, SnapshotDelta::between(&empty, &sealed));
        // The offline source's claim stays in the ledger.
        assert_eq!(ledger.num_claims(), 5);
    }

    /// Every seal's touched-row delta equals the whole-world diff, and the
    /// patched snapshot equals a `SnapshotBuilder` fed the same claims,
    /// through edits, value-equal re-sends, retractions, new items and
    /// presence changes.
    #[test]
    fn touched_row_delta_equals_between() {
        let mut ledger = ClaimLedger::new();
        let mut mirror = SnapshotBuilder::new(0);
        let mut offline = BTreeSet::new();
        let mut seq = 0;
        for obj in 0..6 {
            for s in 0..4 {
                let v = Value::number(100.0 + f64::from(obj) + if s == 3 { 5.0 } else { 0.0 });
                seq += 1;
                ledger.upsert(SourceId(s), item(obj, 0), v.clone(), seq);
                mirror.add(SourceId(s), ObjectId(obj), AttrId(0), v);
            }
        }
        let (mut prev, _) = ledger.seal(schema(), 0, None, None);
        let pinned = prev.tolerance().clone();

        type Day = Vec<(u32, ItemId, Option<f64>)>;
        let days: Vec<(Day, Vec<(u32, bool)>)> = vec![
            // A value-equal re-send and an edit.
            (
                vec![(0, item(0, 0), Some(100.0)), (1, item(2, 0), Some(150.0))],
                vec![],
            ),
            // A retraction.
            (vec![(2, item(1, 0), None)], vec![]),
            // A new item, and a source leaving.
            (vec![(0, item(9, 1), Some(1e6))], vec![(3, false)]),
            // The edit reverted, and the source back.
            (vec![(1, item(2, 0), Some(102.0))], vec![(3, true)]),
            // The new item's only claimant leaves: item and source go.
            (vec![], vec![(0, false)]),
            // Nothing at all.
            (vec![], vec![]),
            // A leave undone within the day.
            (vec![], vec![(1, false), (1, true)]),
        ];
        for (day, (claims, presence)) in days.into_iter().enumerate() {
            for (s, i, v) in claims {
                seq += 1;
                match v {
                    Some(v) => {
                        ledger.upsert(SourceId(s), i, Value::number(v), seq);
                        mirror.add(SourceId(s), i.object, i.attr, Value::number(v));
                    }
                    None => {
                        ledger.retract(SourceId(s), i, seq);
                        mirror.remove(SourceId(s), i.object, i.attr);
                    }
                }
            }
            for (s, online) in presence {
                seq += 1;
                ledger.set_online(SourceId(s), online, seq);
                if online {
                    offline.remove(&SourceId(s));
                } else {
                    offline.insert(SourceId(s));
                }
            }
            let day = day as u32 + 1;
            let (next, delta) = ledger.seal(schema(), day, Some(&pinned), Some(prev.clone()));
            assert_eq!(delta, SnapshotDelta::between(&prev, &next), "day {day}");
            let expected = mirror.materialize(schema(), Some(&pinned), &offline);
            assert!(next.items().eq(expected.items()), "day {day}");
            assert_eq!(next.day(), day);
            prev = next;
        }

        // A recomputed tolerance that moves dirties its whole attribute.
        ledger.upsert(SourceId(1), item(3, 0), Value::number(900.0), seq + 1);
        let (next, delta) = ledger.seal(schema(), 9, None, Some(prev.clone()));
        assert!(!delta.dirty_attrs().is_empty());
        assert_eq!(delta, SnapshotDelta::between(&prev, &next));
    }

    #[test]
    fn a_sign_flipped_zero_replaces_the_stored_value() {
        let mut ledger = ClaimLedger::new();
        let (s, i) = (SourceId(0), item(0, 0));
        ledger.upsert(s, i, Value::number(0.0), 1);
        let (prev, _) = ledger.seal(schema(), 0, None, None);
        ledger.upsert(s, i, Value::number(-0.0), 2);
        let tolerance = prev.tolerance().clone();
        let (next, _) = ledger.seal(schema(), 1, Some(&tolerance), Some(prev));
        let stored = next
            .value_of(s, i)
            .and_then(Value::as_f64)
            .expect("claim kept");
        assert_eq!(stored.to_bits(), (-0.0f64).to_bits());
    }
}
