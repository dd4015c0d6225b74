//! Preparation of a snapshot into the flat CSR representation the fusion
//! methods iterate over.
//!
//! Preparing once and sharing across methods keeps the per-method cost down
//! to the iterative vote/trust updates, mirroring how the paper times the
//! methods (bucketing and normalization are data preparation, not fusion).
//!
//! # Memory layout
//!
//! Everything the per-round loops read lives in contiguous arrays indexed by
//! offset tables (CSR), not in per-item heap vectors:
//!
//! * candidates are numbered **globally** (item-major, support-ordered within
//!   each item); `item_cand_offsets` maps an item to its global candidate
//!   range, and one `Vec<Value>` holds every candidate value;
//! * per-candidate providers, similarity links, and coarse (formatting)
//!   supporters are three flat arrays with one shared offset table each,
//!   indexed by global candidate;
//! * per-item provider unions and per-source claim lists are two more CSR
//!   pairs.
//!
//! The nested view the methods were written against survives as *thin slice
//! views*: [`PreparedItem`] and [`Candidate`] are `Copy` handles carrying a
//! problem reference and an index, and every accessor returns a slice into
//! the flat arrays. The inner vote loops therefore walk contiguous memory
//! the compiler can keep in cache (and vectorize), while reading like the
//! original nested code.
//!
//! # Lifecycle
//!
//! Preparation has an explicit arena form: [`ProblemBuilder`] owns one
//! [`FusionProblem`] and re-fills every CSR vector **in place** on each
//! [`ProblemBuilder::prepare`] call, so a runner that fuses many snapshots in
//! sequence (the delta engine, the incremental-source ladder) keeps one
//! warm set of allocations instead of rebuilding the problem from scratch per
//! day. [`FusionProblem::from_snapshot`] is a thin wrapper over a one-shot
//! builder, so the fresh and refill paths are the same code by construction;
//! a property suite additionally pins refill == fresh across
//! differently-shaped consecutive snapshots.

use datamodel::{ItemId, Snapshot, SnapshotDelta, SourceId, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// A full snapshot prepared for fusion, laid out as flat CSR arrays.
///
/// Equality compares every CSR array, offset table, and the claim order —
/// two problems are `==` exactly when every fusion method would walk
/// identical memory; the arena property tests rely on this.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionProblem {
    /// Sources, in dense-index order.
    pub sources: Vec<SourceId>,
    /// Number of global attributes (dense attribute indices are
    /// `0..num_attrs`).
    pub num_attrs: usize,
    /// Item identities, in item-index order.
    item_ids: Vec<ItemId>,
    /// Dense attribute index per item.
    item_attrs: Vec<u32>,
    /// Global-candidate extent per item (`num_items + 1` offsets). Candidate
    /// `c` of item `i` has global index `item_cand_offsets[i] + c`.
    item_cand_offsets: Vec<u32>,
    /// Representative value per global candidate, ordered by descending
    /// support within each item (the first candidate is the dominant value).
    cand_values: Vec<Value>,
    /// Dense attribute index per global candidate (the item's attribute,
    /// repeated over its candidates) — the column selector the per-attribute
    /// vote kernels gather with.
    cand_attrs: Vec<u32>,
    /// Provider extent per global candidate (`num_candidates + 1` offsets).
    provider_offsets: Vec<u32>,
    /// Dense source indices providing each candidate, flattened.
    providers: Vec<u32>,
    /// Similarity-link extent per global candidate.
    similar_offsets: Vec<u32>,
    /// `(local candidate index, similarity in (0, 1])` links, flattened; only
    /// entries above the similarity floor are stored.
    similar: Vec<(u32, f64)>,
    /// Coarse-supporter extent per global candidate.
    coarse_offsets: Vec<u32>,
    /// Local candidate indices whose (coarser, rounded) value subsumes the
    /// candidate, flattened.
    coarse_supporters: Vec<u32>,
    /// Provider-union extent per item.
    item_provider_offsets: Vec<u32>,
    /// Sorted, deduplicated dense source indices providing anything for each
    /// item, flattened.
    item_providers: Vec<u32>,
    /// Claim extent per source (`num_sources + 1` offsets).
    claim_offsets: Vec<u32>,
    /// `(item index, local candidate index)` claims, flattened per source in
    /// item order.
    claims: Vec<(u32, u32)>,
    // O(1) reverse lookup of `sources`; built once at preparation time so
    // per-pair conversions (copy reports, error analysis) don't pay a linear
    // scan per source.
    source_index: HashMap<SourceId, usize>,
}

/// Thin view of one prepared data item: a `Copy` handle into the problem's
/// flat arrays.
#[derive(Debug, Clone, Copy)]
pub struct PreparedItem<'a> {
    problem: &'a FusionProblem,
    index: usize,
}

/// Thin view of one candidate (tolerance-bucketed) value of a data item,
/// addressed by its global candidate index.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    problem: &'a FusionProblem,
    global: usize,
}

impl<'a> PreparedItem<'a> {
    /// Index of the item within the problem.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The item identity.
    #[inline]
    pub fn id(&self) -> ItemId {
        self.problem.item_ids[self.index]
    }

    /// Dense attribute index.
    #[inline]
    pub fn attr(&self) -> usize {
        self.problem.item_attrs[self.index] as usize
    }

    /// Global candidate range of the item.
    #[inline]
    pub fn cand_range(&self) -> Range<usize> {
        self.problem.item_cand_offsets[self.index] as usize
            ..self.problem.item_cand_offsets[self.index + 1] as usize
    }

    /// Number of candidate values.
    #[inline]
    pub fn num_candidates(&self) -> usize {
        self.cand_range().len()
    }

    /// Candidate `c` (local index) of the item.
    #[inline]
    pub fn candidate(&self, c: usize) -> Candidate<'a> {
        let range = self.cand_range();
        debug_assert!(c < range.len());
        Candidate {
            problem: self.problem,
            global: range.start + c,
        }
    }

    /// Candidate views, ordered by descending support (the first candidate
    /// is the dominant value).
    #[inline]
    pub fn candidates(&self) -> impl ExactSizeIterator<Item = Candidate<'a>> + '_ {
        let problem = self.problem;
        self.cand_range().map(move |global| Candidate { problem, global })
    }

    /// Dense indices of all sources providing any value for this item
    /// (sorted, deduplicated).
    #[inline]
    pub fn providers(&self) -> &'a [u32] {
        &self.problem.item_providers[self.provider_range()]
    }

    /// Range of the item's [`providers`](Self::providers) in the problem's
    /// flat provider-union table: one slot per (item, provider) pair, so a
    /// per-slot side table can be indexed alongside the providers.
    #[inline]
    pub(crate) fn provider_range(&self) -> Range<usize> {
        self.problem.item_provider_offsets[self.index] as usize
            ..self.problem.item_provider_offsets[self.index + 1] as usize
    }

    /// Total number of providers of the item.
    #[inline]
    pub fn num_providers(&self) -> usize {
        self.providers().len()
    }

    /// Total number of (candidate, provider) claim slots on the item —
    /// `Σ_c providers(c)`, one contiguous-offset subtraction.
    #[inline]
    pub fn total_provider_slots(&self) -> usize {
        let range = self.cand_range();
        (self.problem.provider_offsets[range.end] - self.problem.provider_offsets[range.start])
            as usize
    }
}

impl<'a> Candidate<'a> {
    /// Local candidate index within its item (the index selections use).
    #[inline]
    pub fn local_index(&self) -> usize {
        // Selections are per-item local indices; recover via the item range.
        let item = self
            .problem
            .item_cand_offsets
            .partition_point(|&o| (o as usize) <= self.global)
            - 1;
        self.global - self.problem.item_cand_offsets[item] as usize
    }

    /// Representative value of the bucket.
    #[inline]
    pub fn value(&self) -> &'a Value {
        &self.problem.cand_values[self.global]
    }

    /// Dense indices of the sources providing this value.
    #[inline]
    pub fn providers(&self) -> &'a [u32] {
        let lo = self.problem.provider_offsets[self.global] as usize;
        let hi = self.problem.provider_offsets[self.global + 1] as usize;
        &self.problem.providers[lo..hi]
    }

    /// Similarity to the other candidates of the same item:
    /// `(local candidate index, similarity in (0, 1])`, only entries above
    /// the similarity floor are stored.
    #[inline]
    pub fn similar(&self) -> &'a [(u32, f64)] {
        let lo = self.problem.similar_offsets[self.global] as usize;
        let hi = self.problem.similar_offsets[self.global + 1] as usize;
        &self.problem.similar[lo..hi]
    }

    /// Local candidate indices whose (coarser, rounded) value subsumes this
    /// one — their providers partially support this candidate under the
    /// formatting-aware methods.
    #[inline]
    pub fn coarse_supporters(&self) -> &'a [u32] {
        let lo = self.problem.coarse_offsets[self.global] as usize;
        let hi = self.problem.coarse_offsets[self.global + 1] as usize;
        &self.problem.coarse_supporters[lo..hi]
    }
}

/// Similarities below this floor are not stored (they contribute nothing
/// measurable to the similarity-aware methods but would bloat the problem).
const SIMILARITY_FLOOR: f64 = 0.05;

/// Reusable arena that prepares snapshots into one owned [`FusionProblem`],
/// re-filling every CSR vector **in place** on each [`prepare`] call.
///
/// Capacities grow to the largest snapshot seen and are then reused, so a
/// caller that fuses many consecutive snapshots (the delta engine, the
/// incremental-source ladder) pays the problem-construction allocations only
/// once. The refill path is the *only*
/// construction path ([`FusionProblem::from_snapshot`] delegates here), so a
/// warm and a fresh preparation of the same snapshot are identical by
/// construction — and additionally pinned by the arena property suite.
///
/// [`prepare`]: ProblemBuilder::prepare
#[derive(Debug, Default)]
pub struct ProblemBuilder {
    problem: FusionProblem,
    // Per-source claim lists during construction; the inner vectors keep
    // their capacity across refills.
    claims_nested: Vec<Vec<(u32, u32)>>,
    // Reusable bucketing scratch + recycled bucket storage: the per-item
    // tolerance bucketing is where a cold preparation spends ~90% of its
    // allocations, so the arena owns it too.
    bucketer: datamodel::Bucketer,
    buckets: Vec<datamodel::ValueBucket>,
    // Second problem buffer for the partial-refill path: `prepare_delta`
    // swaps the previous day's problem in here and splices its clean rows
    // into the (re-filled) primary, so both live sets of allocations are
    // recycled day over day.
    spare: FusionProblem,
    // Old dense source index -> new dense source index (`u32::MAX` for
    // sources that left the snapshot), rebuilt per `prepare_delta`.
    remap: Vec<u32>,
}

impl ProblemBuilder {
    /// An empty arena (the first [`prepare`](Self::prepare) sizes it).
    pub fn new() -> Self {
        Self::default()
    }

    /// The problem most recently prepared (empty before the first
    /// [`prepare`](Self::prepare) call).
    pub fn problem(&self) -> &FusionProblem {
        &self.problem
    }

    /// Give up the arena and keep only the prepared problem.
    pub fn into_problem(self) -> FusionProblem {
        self.problem
    }

    /// Prepare `snapshot` for fusion: bucket candidates, compute similarity
    /// and formatting links, then lay everything out as flat CSR arrays —
    /// re-using the arena's existing allocations.
    pub fn prepare(&mut self, snapshot: &Snapshot) -> &FusionProblem {
        let p = &mut self.problem;
        p.sources.clear();
        p.sources.extend(snapshot.active_sources());
        p.source_index.clear();
        p.source_index
            .extend(p.sources.iter().enumerate().map(|(i, s)| (*s, i)));
        p.num_attrs = snapshot.schema().num_attributes();

        p.item_ids.clear();
        p.item_attrs.clear();
        p.item_cand_offsets.clear();
        p.item_cand_offsets.push(0);
        p.cand_values.clear();
        p.cand_attrs.clear();
        p.provider_offsets.clear();
        p.provider_offsets.push(0);
        p.providers.clear();
        p.similar_offsets.clear();
        p.similar_offsets.push(0);
        p.similar.clear();
        p.coarse_offsets.clear();
        p.coarse_offsets.push(0);
        p.coarse_supporters.clear();
        p.item_provider_offsets.clear();
        p.item_provider_offsets.push(0);
        p.item_providers.clear();
        p.claims.clear();
        p.claim_offsets.clear();

        let num_sources = p.sources.len();
        for list in self.claims_nested.iter_mut() {
            list.clear();
        }
        if self.claims_nested.len() < num_sources {
            self.claims_nested.resize_with(num_sources, Vec::new);
        }

        for (item_id, _) in snapshot.items() {
            prepare_item_into(
                p,
                &mut self.claims_nested,
                &mut self.bucketer,
                &mut self.buckets,
                snapshot,
                *item_id,
            );
        }

        // Flatten the per-source claim lists (each already in item order).
        p.claim_offsets.push(0);
        for list in self.claims_nested.iter().take(num_sources) {
            p.claims.extend_from_slice(list);
            p.claim_offsets.push(p.claims.len() as u32);
        }

        check_layout(p);
        &self.problem
    }

    /// Prepare `snapshot` by re-bucketing only the items `delta` marks dirty
    /// and splicing every clean item's CSR rows forward from the previous
    /// preparation — the partial-refill entry point of the delta engine.
    ///
    /// # Contract
    ///
    /// The builder's current [`problem`](Self::problem) must be the
    /// preparation of the `prev` snapshot that `delta` was diffed against
    /// (i.e. the last `prepare`/`prepare_delta` call was for `prev`). Under
    /// that contract the result is **identical** (`==`, every array and
    /// offset table) to a cold [`prepare`](Self::prepare) of `snapshot`:
    /// a clean item buckets to the same candidates, similarity links, and
    /// provider rows by [`SnapshotDelta`]'s definition of clean (unchanged
    /// observation row, unchanged attribute tolerance/scale), so copying its
    /// rows is the same computation with the re-bucketing skipped. The
    /// equality is pinned across mutation sequences by
    /// `tests/delta_equivalence.rs`.
    ///
    /// Items absent from the previous preparation (or dirty) are recomputed
    /// from the snapshot, so the call degrades gracefully — with an
    /// all-dirty delta it *is* a full `prepare`, just with an extra buffer
    /// swap.
    pub fn prepare_delta(&mut self, snapshot: &Snapshot, delta: &SnapshotDelta) -> &FusionProblem {
        std::mem::swap(&mut self.problem, &mut self.spare);
        let prev = &self.spare;
        let p = &mut self.problem;

        p.sources.clear();
        p.sources.extend(snapshot.active_sources());
        p.source_index.clear();
        p.source_index
            .extend(p.sources.iter().enumerate().map(|(i, s)| (*s, i)));
        p.num_attrs = snapshot.schema().num_attributes();

        // Old dense source index -> new dense source index. Both source
        // lists are sorted by `SourceId`, so the remap is monotonic over the
        // surviving sources — which is what keeps spliced (sorted) provider
        // unions sorted without re-sorting.
        self.remap.clear();
        self.remap.resize(prev.sources.len(), u32::MAX);
        for (old, source) in prev.sources.iter().enumerate() {
            if let Some(&new) = p.source_index.get(source) {
                self.remap[old] = new as u32;
            }
        }

        p.item_ids.clear();
        p.item_attrs.clear();
        p.item_cand_offsets.clear();
        p.item_cand_offsets.push(0);
        p.cand_values.clear();
        p.cand_attrs.clear();
        p.provider_offsets.clear();
        p.provider_offsets.push(0);
        p.providers.clear();
        p.similar_offsets.clear();
        p.similar_offsets.push(0);
        p.similar.clear();
        p.coarse_offsets.clear();
        p.coarse_offsets.push(0);
        p.coarse_supporters.clear();
        p.item_provider_offsets.clear();
        p.item_provider_offsets.push(0);
        p.item_providers.clear();
        p.claims.clear();
        p.claim_offsets.clear();

        let num_sources = p.sources.len();
        for list in self.claims_nested.iter_mut() {
            list.clear();
        }
        if self.claims_nested.len() < num_sources {
            self.claims_nested.resize_with(num_sources, Vec::new);
        }

        // Merge-walk the snapshot's (sorted) items against the previous
        // preparation's (sorted) item table.
        let mut prev_pos = 0usize;
        for (item_id, _) in snapshot.items() {
            while prev_pos < prev.item_ids.len() && prev.item_ids[prev_pos] < *item_id {
                prev_pos += 1; // items that left the snapshot: dropped
            }
            let matched = prev_pos < prev.item_ids.len() && prev.item_ids[prev_pos] == *item_id;
            if matched && !delta.is_dirty_item(*item_id) {
                splice_item_from(p, &mut self.claims_nested, prev, &self.remap, prev_pos);
            } else {
                prepare_item_into(
                    p,
                    &mut self.claims_nested,
                    &mut self.bucketer,
                    &mut self.buckets,
                    snapshot,
                    *item_id,
                );
            }
            if matched {
                prev_pos += 1;
            }
        }

        p.claim_offsets.push(0);
        for list in self.claims_nested.iter().take(num_sources) {
            p.claims.extend_from_slice(list);
            p.claim_offsets.push(p.claims.len() as u32);
        }

        check_layout(p);
        &self.problem
    }
}

/// Invariants of a freshly filled problem that the fusion loops rely on.
///
/// In every build, O(1) checks that no `u32` offset or index overflowed
/// during the fill, that a dense item × source table is addressable (the
/// co-claim index of ACCUCOPY allocates one), and that a doubled candidate
/// index fits a `u32` (the IR methods' claim terms encode candidate `k` as
/// `2k` or `2k + 1`). In debug builds, also checks
/// that each source claims at most one candidate per item
/// ([`datamodel::SnapshotBuilder::add`] overwrites a repeated claim), which
/// the per-item candidate lookups of the methods assume.
fn check_layout(p: &FusionProblem) {
    let fits = |len: usize| u32::try_from(len).is_ok();
    assert!(
        fits(p.cand_values.len())
            && fits(p.providers.len())
            && fits(p.similar.len())
            && fits(p.coarse_supporters.len())
            && fits(p.item_providers.len())
            && fits(p.claims.len())
            && fits(p.item_ids.len())
            && fits(p.sources.len()),
        "prepared problem exceeds the u32 CSR offsets \
         ({} candidates, {} claims, {} similarity links)",
        p.cand_values.len(),
        p.claims.len(),
        p.similar.len(),
    );
    assert!(
        p.num_sources().checked_mul(p.num_items()).is_some(),
        "{} sources × {} items overflows a dense item × source table",
        p.num_sources(),
        p.num_items(),
    );
    check_doubled_candidates(p.num_candidates());
    debug_assert!(
        p.items().all(|item| item.total_provider_slots() == item.num_providers()),
        "a source claims two candidates of one item"
    );
}

/// Panic unless every candidate index doubled (plus one) fits a `u32`.
fn check_doubled_candidates(num_candidates: usize) {
    assert!(
        num_candidates
            .checked_mul(2)
            .is_some_and(|doubled| u32::try_from(doubled).is_ok()),
        "{num_candidates} candidates overflow the u32 claim terms of the IR methods \
         (2 × candidates must fit a u32)",
    );
}

/// Bucket one snapshot item and append its candidate values, provider rows,
/// similarity/formatting links, provider union, and claims to the problem
/// under construction — the shared per-item body of [`ProblemBuilder`]'s
/// full and partial refill paths.
fn prepare_item_into(
    p: &mut FusionProblem,
    claims_nested: &mut [Vec<(u32, u32)>],
    bucketer: &mut datamodel::Bucketer,
    buckets: &mut Vec<datamodel::ValueBucket>,
    snapshot: &Snapshot,
    item_id: ItemId,
) {
    snapshot.buckets_into(item_id, bucketer, buckets);
    if buckets.is_empty() {
        return;
    }
    let scale = snapshot.tolerance().similarity_scale(item_id.attr);
    let item_index = p.item_ids.len() as u32;
    let cand_start = p.cand_values.len();
    let union_start = p.item_providers.len();

    // Candidate values, providers, claims, and the provider union, in
    // bucket (descending-support) order.
    for (cand_index, bucket) in buckets.iter().enumerate() {
        p.cand_values.push(bucket.representative.clone());
        for source in &bucket.providers {
            let Some(&s) = p.source_index.get(source) else {
                continue;
            };
            p.providers.push(s as u32);
            p.item_providers.push(s as u32);
            claims_nested[s].push((item_index, cand_index as u32));
        }
        p.provider_offsets.push(p.providers.len() as u32);
    }
    // One attribute index per candidate just pushed.
    p.cand_attrs
        .resize(p.cand_values.len(), item_id.attr.index() as u32);

    // Pairwise similarity and formatting subsumption between candidates
    // (all of this item's values are already in `cand_values`).
    for i in 0..buckets.len() {
        for j in 0..buckets.len() {
            if i == j {
                continue;
            }
            let vi = &p.cand_values[cand_start + i];
            let vj = &p.cand_values[cand_start + j];
            let sim = vi.similarity(vj, scale);
            if sim > SIMILARITY_FLOOR {
                p.similar.push((j as u32, sim));
            }
            if vj.subsumes(vi) {
                p.coarse_supporters.push(j as u32);
            }
        }
        p.similar_offsets.push(p.similar.len() as u32);
        p.coarse_offsets.push(p.coarse_supporters.len() as u32);
    }

    let union = &mut p.item_providers[union_start..];
    union.sort_unstable();
    let mut kept = union_start;
    for k in union_start..p.item_providers.len() {
        if k == union_start || p.item_providers[k] != p.item_providers[k - 1] {
            p.item_providers[kept] = p.item_providers[k];
            kept += 1;
        }
    }
    p.item_providers.truncate(kept);
    p.item_provider_offsets.push(p.item_providers.len() as u32);
    p.item_cand_offsets.push(p.cand_values.len() as u32);

    p.item_ids.push(item_id);
    p.item_attrs.push(item_id.attr.index() as u32);
}

/// Append one clean item to the problem under construction by copying its
/// CSR rows from the previous day's preparation, translating dense source
/// indices through `remap`. Skips re-bucketing and the O(k²) similarity
/// pass entirely — the data-movement saving the delta engine is built on.
///
/// A clean item never references a removed source (removing a source dirties
/// every item it claimed), so every provider remap hit is guaranteed under
/// the [`ProblemBuilder::prepare_delta`] contract.
fn splice_item_from(
    p: &mut FusionProblem,
    claims_nested: &mut [Vec<(u32, u32)>],
    prev: &FusionProblem,
    remap: &[u32],
    old_index: usize,
) {
    let item_index = p.item_ids.len() as u32;
    let cand_lo = prev.item_cand_offsets[old_index] as usize;
    let cand_hi = prev.item_cand_offsets[old_index + 1] as usize;

    for g in cand_lo..cand_hi {
        let local = (g - cand_lo) as u32;
        p.cand_values.push(prev.cand_values[g].clone());
        let plo = prev.provider_offsets[g] as usize;
        let phi = prev.provider_offsets[g + 1] as usize;
        for &old_s in &prev.providers[plo..phi] {
            let s = remap[old_s as usize];
            debug_assert_ne!(s, u32::MAX, "clean item references a removed source");
            p.providers.push(s);
            claims_nested[s as usize].push((item_index, local));
        }
        p.provider_offsets.push(p.providers.len() as u32);
    }
    p.cand_attrs
        .extend_from_slice(&prev.cand_attrs[cand_lo..cand_hi]);

    // Similarity and coarse links hold *local* candidate indices, so they
    // copy verbatim; only the offset tables are re-based.
    let sim_lo = prev.similar_offsets[cand_lo];
    let sim_base = p.similar.len() as u32;
    p.similar
        .extend_from_slice(&prev.similar[sim_lo as usize..prev.similar_offsets[cand_hi] as usize]);
    let coarse_lo = prev.coarse_offsets[cand_lo];
    let coarse_base = p.coarse_supporters.len() as u32;
    p.coarse_supporters.extend_from_slice(
        &prev.coarse_supporters[coarse_lo as usize..prev.coarse_offsets[cand_hi] as usize],
    );
    for g in cand_lo..cand_hi {
        p.similar_offsets
            .push(sim_base + prev.similar_offsets[g + 1] - sim_lo);
        p.coarse_offsets
            .push(coarse_base + prev.coarse_offsets[g + 1] - coarse_lo);
    }

    // The previous union is sorted by old dense index; the remap is
    // monotonic, so the translated union stays sorted and deduplicated.
    let up_lo = prev.item_provider_offsets[old_index] as usize;
    let up_hi = prev.item_provider_offsets[old_index + 1] as usize;
    p.item_providers.extend(
        prev.item_providers[up_lo..up_hi]
            .iter()
            .map(|&old_s| remap[old_s as usize]),
    );
    p.item_provider_offsets.push(p.item_providers.len() as u32);
    p.item_cand_offsets.push(p.cand_values.len() as u32);
    p.item_ids.push(prev.item_ids[old_index]);
    p.item_attrs.push(prev.item_attrs[old_index]);
}

impl Default for FusionProblem {
    /// An empty problem (no sources, no items) with consistent offset tables;
    /// the state a [`ProblemBuilder`] holds before its first refill.
    fn default() -> Self {
        Self {
            sources: Vec::new(),
            num_attrs: 0,
            item_ids: Vec::new(),
            item_attrs: Vec::new(),
            item_cand_offsets: vec![0],
            cand_values: Vec::new(),
            cand_attrs: Vec::new(),
            provider_offsets: vec![0],
            providers: Vec::new(),
            similar_offsets: vec![0],
            similar: Vec::new(),
            coarse_offsets: vec![0],
            coarse_supporters: Vec::new(),
            item_provider_offsets: vec![0],
            item_providers: Vec::new(),
            claim_offsets: vec![0],
            claims: Vec::new(),
            source_index: HashMap::new(),
        }
    }
}

impl FusionProblem {
    /// Prepare `snapshot` for fusion with a one-shot [`ProblemBuilder`].
    /// Callers preparing many snapshots should hold a builder and
    /// [`ProblemBuilder::prepare`] into it instead.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let mut builder = ProblemBuilder::new();
        builder.prepare(snapshot);
        builder.into_problem()
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of prepared items.
    pub fn num_items(&self) -> usize {
        self.item_ids.len()
    }

    /// Total number of candidate values across all items (the length of the
    /// global candidate axis a [`crate::types::VotePlane`] spans).
    pub fn num_candidates(&self) -> usize {
        self.cand_values.len()
    }

    /// Largest candidate count of any item — the size the per-item scratch
    /// buffers of the iterative methods need.
    pub fn max_candidates(&self) -> usize {
        self.item_cand_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Total number of claims.
    pub fn num_claims(&self) -> usize {
        self.claims.len()
    }

    /// View of item `i`.
    #[inline]
    pub fn item(&self, i: usize) -> PreparedItem<'_> {
        debug_assert!(i < self.num_items());
        PreparedItem { problem: self, index: i }
    }

    /// Views of all prepared items, in item-index order.
    #[inline]
    pub fn items(&self) -> impl ExactSizeIterator<Item = PreparedItem<'_>> + '_ {
        (0..self.num_items()).map(move |index| PreparedItem { problem: self, index })
    }

    /// Dense attribute index of item `i` (O(1), no view construction).
    #[inline]
    pub fn item_attr(&self, i: usize) -> usize {
        self.item_attrs[i] as usize
    }

    /// The claims of source `s` as `(item index, local candidate index)`
    /// pairs, in item order.
    #[inline]
    pub fn claims(&self, s: usize) -> &[(u32, u32)] {
        &self.claims[self.claim_offsets[s] as usize..self.claim_offsets[s + 1] as usize]
    }

    /// Per-source claim slices, in dense source-index order.
    #[inline]
    pub fn claims_by_source(&self) -> impl ExactSizeIterator<Item = &[(u32, u32)]> + '_ {
        (0..self.num_sources()).map(move |s| self.claims(s))
    }

    /// Global-candidate offset table (`num_items + 1` entries); shared with
    /// [`crate::types::VotePlane`] so vote storage and problem layout can
    /// never drift apart.
    #[inline]
    pub fn item_cand_offsets(&self) -> &[u32] {
        &self.item_cand_offsets
    }

    /// Dense attribute index per global candidate (`num_candidates` entries:
    /// the owning item's attribute, repeated). Raw CSR table for the
    /// kernel-level consumers (kernels, benches, tests).
    #[inline]
    pub fn cand_attrs(&self) -> &[u32] {
        &self.cand_attrs
    }

    /// Provider extent per global candidate (`num_candidates + 1` offsets).
    /// Raw CSR table for the kernel-level consumers.
    #[inline]
    pub fn provider_offsets(&self) -> &[u32] {
        &self.provider_offsets
    }

    /// Flat dense source indices providing each candidate, indexed by
    /// [`provider_offsets`](Self::provider_offsets). Raw CSR table for the
    /// kernel-level consumers.
    #[inline]
    pub fn providers_flat(&self) -> &[u32] {
        &self.providers
    }

    /// Dense attribute index per item (`num_items` entries). Raw table for
    /// the kernel-level consumers.
    #[inline]
    pub fn item_attrs_flat(&self) -> &[u32] {
        &self.item_attrs
    }

    /// Dense index of a source id, if it is part of the problem (O(1)).
    pub fn source_index(&self, source: SourceId) -> Option<usize> {
        self.source_index.get(&source).copied()
    }

    /// Append a source that claims nothing, as the last dense index. A
    /// prepared snapshot lists only sources with claims; the per-source
    /// loops still have to handle an empty claim list.
    #[cfg(test)]
    pub(crate) fn push_idle_source(&mut self, source: SourceId) {
        self.source_index.insert(source, self.sources.len());
        self.sources.push(source);
        self.claim_offsets.push(self.claims.len() as u32);
    }

    /// Turn a per-item candidate selection into an item → value mapping.
    pub fn selection_to_values(&self, selection: &[usize]) -> BTreeMap<ItemId, Value> {
        self.item_ids
            .iter()
            .zip(self.item_cand_offsets.windows(2))
            .zip(selection)
            .map(|((id, w), &cand)| {
                let len = (w[1] - w[0]) as usize;
                let idx = cand.min(len.saturating_sub(1));
                (*id, self.cand_values[w[0] as usize + idx].clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datamodel::{AttrId, AttrKind, DomainSchema, ObjectId, SnapshotBuilder, Value};
    use std::sync::Arc;

    fn snapshot() -> datamodel::Snapshot {
        let mut schema = DomainSchema::new("test");
        schema.add_attribute("price", AttrKind::Numeric { scale: 100.0 }, false);
        schema.add_attribute("volume", AttrKind::Numeric { scale: 1e6 }, false);
        for i in 0..4 {
            schema.add_source(format!("s{i}"), false);
        }
        let mut b = SnapshotBuilder::new(0);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(2), ObjectId(0), AttrId(0), Value::number(105.0));
        // Volume: one exact, one rounded to millions that subsumes it.
        b.add(SourceId(0), ObjectId(0), AttrId(1), Value::number(7_528_396.0));
        b.add(
            SourceId(3),
            ObjectId(0),
            AttrId(1),
            Value::rounded_number(8_000_000.0, 1_000_000.0),
        );
        b.build(Arc::new(schema))
    }

    #[test]
    fn preparation_counts() {
        let problem = FusionProblem::from_snapshot(&snapshot());
        assert_eq!(problem.num_sources(), 4);
        assert_eq!(problem.num_items(), 2);
        assert_eq!(problem.num_claims(), 5);
        assert_eq!(problem.num_attrs, 2);
        assert_eq!(problem.num_candidates(), 4);
        assert_eq!(problem.max_candidates(), 2);
    }

    #[test]
    fn doubled_candidate_index_fits_u32() {
        check_doubled_candidates(u32::MAX as usize / 2);
    }

    #[test]
    #[should_panic(expected = "overflow the u32 claim terms")]
    fn doubled_candidate_index_overflow_is_rejected() {
        check_doubled_candidates(u32::MAX as usize / 2 + 1);
    }

    #[test]
    fn candidates_ordered_by_support() {
        let problem = FusionProblem::from_snapshot(&snapshot());
        let price_item = problem
            .items()
            .find(|i| i.id().attr == AttrId(0))
            .unwrap();
        assert_eq!(price_item.num_candidates(), 2);
        assert_eq!(price_item.candidate(0).providers().len(), 2);
        assert_eq!(price_item.candidate(1).providers().len(), 1);
        assert_eq!(price_item.num_providers(), 3);
        assert_eq!(price_item.total_provider_slots(), 3);
        assert_eq!(price_item.candidate(1).local_index(), 1);
    }

    #[test]
    fn similarity_and_formatting_links() {
        let problem = FusionProblem::from_snapshot(&snapshot());
        let price_item = problem
            .items()
            .find(|i| i.id().attr == AttrId(0))
            .unwrap();
        // 100.0 and 105.0 are similar numeric values.
        assert!(!price_item.candidate(0).similar().is_empty());

        let volume_item = problem
            .items()
            .find(|i| i.id().attr == AttrId(1))
            .unwrap();
        // The exact value is subsumed by the rounded one.
        let fine = volume_item
            .candidates()
            .position(|c| c.value() == &Value::number(7_528_396.0))
            .unwrap();
        assert!(!volume_item.candidate(fine).coarse_supporters().is_empty());
    }

    #[test]
    fn claims_are_indexed_per_source() {
        let problem = FusionProblem::from_snapshot(&snapshot());
        let s0 = problem.source_index(SourceId(0)).unwrap();
        assert_eq!(problem.claims(s0).len(), 2);
        let s3 = problem.source_index(SourceId(3)).unwrap();
        assert_eq!(problem.claims(s3).len(), 1);
        assert_eq!(problem.source_index(SourceId(9)), None);
        assert_eq!(problem.claims_by_source().map(<[_]>::len).sum::<usize>(), 5);
    }

    #[test]
    fn selection_round_trip() {
        let problem = FusionProblem::from_snapshot(&snapshot());
        let selection = vec![0; problem.num_items()];
        let values = problem.selection_to_values(&selection);
        assert_eq!(values.len(), 2);
        assert_eq!(
            values[&ItemId::new(ObjectId(0), AttrId(0))],
            Value::number(100.0)
        );
    }

    #[test]
    fn builder_refill_matches_fresh_preparation() {
        let snap_a = snapshot();
        // A differently-shaped second snapshot: fewer sources, other values.
        let mut schema = DomainSchema::new("test2");
        schema.add_attribute("price", AttrKind::Numeric { scale: 100.0 }, false);
        for i in 0..2 {
            schema.add_source(format!("t{i}"), false);
        }
        let mut b = SnapshotBuilder::new(1);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(42.0));
        b.add(SourceId(1), ObjectId(1), AttrId(0), Value::number(7.0));
        let snap_b = b.build(Arc::new(schema));

        let mut builder = ProblemBuilder::new();
        // Warm the arena on the big snapshot, then refill with the small one
        // (and back): every refill must equal a fresh preparation.
        assert_eq!(*builder.prepare(&snap_a), FusionProblem::from_snapshot(&snap_a));
        assert_eq!(*builder.prepare(&snap_b), FusionProblem::from_snapshot(&snap_b));
        assert_eq!(*builder.prepare(&snap_a), FusionProblem::from_snapshot(&snap_a));
        assert_eq!(builder.problem().num_items(), 2);
        assert_eq!(builder.into_problem(), FusionProblem::from_snapshot(&snap_a));
    }

    #[test]
    fn prepare_delta_matches_full_prepare() {
        use datamodel::SnapshotDelta;

        let day0 = snapshot();
        // Day 1: edit one price claim, retract the rounded volume claim
        // (source 3 leaves entirely), add a new item from a new source —
        // all with the day-0 tolerance context pinned so only the touched
        // items go dirty.
        let mut schema = DomainSchema::new("test");
        schema.add_attribute("price", AttrKind::Numeric { scale: 100.0 }, false);
        schema.add_attribute("volume", AttrKind::Numeric { scale: 1e6 }, false);
        for i in 0..6 {
            schema.add_source(format!("s{i}"), false);
        }
        let mut b = SnapshotBuilder::new(1);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(101.0));
        b.add(SourceId(2), ObjectId(0), AttrId(0), Value::number(105.0));
        b.add(SourceId(0), ObjectId(0), AttrId(1), Value::number(7_528_396.0));
        b.add(SourceId(5), ObjectId(1), AttrId(0), Value::number(55.0));
        let day1 =
            b.build_with_tolerance(Arc::new(schema), day0.tolerance().clone());

        let delta = SnapshotDelta::between(&day0, &day1);
        assert!(delta.is_dirty_item(ItemId::new(ObjectId(0), AttrId(0))));
        assert!(delta.is_dirty_item(ItemId::new(ObjectId(0), AttrId(1))));
        assert!(delta.is_dirty_item(ItemId::new(ObjectId(1), AttrId(0))));

        let mut builder = ProblemBuilder::new();
        builder.prepare(&day0);
        assert_eq!(
            *builder.prepare_delta(&day1, &delta),
            FusionProblem::from_snapshot(&day1)
        );

        // A no-op day over the now-current day1 splices every row.
        let noop = SnapshotDelta::between(&day1, &day1);
        assert!(noop.is_empty());
        assert_eq!(
            *builder.prepare_delta(&day1, &noop),
            FusionProblem::from_snapshot(&day1)
        );

        // And going back to day0's shape (item/source removal + edits) still
        // matches a cold preparation.
        let back = SnapshotDelta::between(&day1, &day0);
        assert_eq!(
            *builder.prepare_delta(&day0, &back),
            FusionProblem::from_snapshot(&day0)
        );
    }

    #[test]
    fn repeated_claims_collapse_to_one_claim_per_source_and_item() {
        let shape = |p: &FusionProblem| {
            let item = p.items().next().expect("one item");
            (item.num_providers(), item.total_provider_slots(), p.num_claims())
        };
        let mut schema = DomainSchema::new("test");
        schema.add_attribute("price", AttrKind::Numeric { scale: 100.0 }, false);
        for i in 0..2 {
            schema.add_source(format!("s{i}"), false);
        }
        // A repeated builder claim overwrites the earlier one.
        let mut b = SnapshotBuilder::new(0);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(100.0));
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(250.0));
        let problem = FusionProblem::from_snapshot(&b.build(Arc::new(schema)));
        assert_eq!(shape(&problem), (2, 2, 2));
        assert_eq!(problem.item(0).num_candidates(), 2);

        // So does a repeated CSV row, identical or conflicting.
        let mut schema = DomainSchema::new("test");
        schema.add_attribute("price", AttrKind::Numeric { scale: 100.0 }, false);
        let mut reader = datamodel::CsvReader::new(schema);
        let snap = reader
            .read_snapshot(0, "a,obj,price,100\nb,obj,price,100\na,obj,price,100\na,obj,price,250\n")
            .expect("valid csv");
        let problem = FusionProblem::from_snapshot(&snap);
        assert_eq!(shape(&problem), (2, 2, 2));
    }

    #[test]
    fn default_problem_is_empty_and_consistent() {
        let p = FusionProblem::default();
        assert_eq!(p.num_items(), 0);
        assert_eq!(p.num_sources(), 0);
        assert_eq!(p.num_candidates(), 0);
        assert_eq!(p.num_claims(), 0);
        assert_eq!(p.max_candidates(), 0);
        assert_eq!(p.item_cand_offsets(), &[0]);
        assert!(p.items().next().is_none());
    }

    #[test]
    fn offset_tables_are_consistent() {
        let problem = FusionProblem::from_snapshot(&snapshot());
        let offsets = problem.item_cand_offsets();
        assert_eq!(offsets.len(), problem.num_items() + 1);
        assert_eq!(*offsets.last().unwrap() as usize, problem.num_candidates());
        // Every item's candidate views agree with the offsets.
        for item in problem.items() {
            assert_eq!(item.candidates().len(), item.num_candidates());
            let slots: usize = item.candidates().map(|c| c.providers().len()).sum();
            assert_eq!(slots, item.total_provider_slots());
        }
    }
}
