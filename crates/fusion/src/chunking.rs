//! Intra-snapshot parallelism: chunk the CSR candidate/item axis so **one**
//! method saturates all cores on one huge day.
//!
//! Every parallelism axis before this module was *across* (day, method)
//! tasks — `evaluation::evaluate_days` fans out whole method runs — so a
//! single million-item snapshot still ran one method on one core, which is
//! exactly the per-method wall time the paper's Figure 12 measures. This
//! module cuts the flat candidate axis of a [`FusionProblem`] into
//! contiguous **item ranges** (respecting `item_cand_offsets` boundaries,
//! sized by candidate count so ragged rows balance), runs the per-round
//! walks — vote accumulation, per-item adjustment/softmax, argmax
//! selection, per-source trust partial sums, copy-pair LLR rescoring — on
//! rayon with per-chunk scratch, and merges deterministically.
//!
//! # Determinism (bit-identity contract)
//!
//! The chunked path produces **bit-identical** results to the sequential
//! path for *any* chunk plan and *any* thread count, because no
//! floating-point sum is ever re-associated across a chunk boundary:
//!
//! * **Per-item phases** (vote accumulation, similarity adjustment,
//!   softmax, argmax, investment growth) only read shared state and write
//!   their own item's plane row — each item's arithmetic is the exact
//!   scalar sequence of the sequential loop, regardless of which chunk ran
//!   it.
//! * **Per-source reductions** (trust updates, cosine similarity,
//!   investment payback) are chunked along the *source* axis: each
//!   source's claim-order sum stays intact, and each source owns its own
//!   accumulator slot, so nothing merges across sources at all.
//! * **Global normalize/rescale** splits into two passes: the `max`/`min`
//!   reduction runs over the full slice first (exact for non-NaN input —
//!   `max`/`min` folds are associative), then the elementwise scaling is
//!   applied per chunk — correctly-rounded IEEE division, identical bits
//!   on every backend and chunk layout.
//! * **Copy-pair rescoring** is chunked along the pair axis; each pair's
//!   entry-order LLR sum is computed by the same kernel the sequential
//!   path calls.
//!
//! Chunk boundaries are fixed per run (not per round), reductions merge in
//! chunk-index order, and there are no atomics on `f64` anywhere. The
//! contract is pinned by `tests/chunk_equivalence.rs` plus the existing
//! oracle, golden Table-7, golden scenario, and cross-runner proptest
//! harnesses, which CI runs under `RAYON_NUM_THREADS` ∈ {1, 2}.
//!
//! [`FusionProblem`]: crate::FusionProblem

use crate::kernels;
use crate::problem::FusionProblem;
use crate::types::{FusionOptions, VotePlane};
use rayon::prelude::*;
use std::ops::Range;

/// Items per chunk below which splitting a snapshot is not worth the
/// scoped-thread spawn: tiny days stay sequential even when the caller
/// requested chunking.
pub const MIN_ITEMS_PER_CHUNK: usize = 256;

/// A fixed partition of `0..len` entries into contiguous, non-empty,
/// weight-balanced ranges. Built once per method run, so every round sees
/// the same boundaries (part of the determinism contract, and it keeps the
/// plan cost out of the round loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    ranges: Vec<Range<usize>>,
}

impl ChunkPlan {
    /// A single chunk spanning all of `0..len` (the degenerate plan used
    /// when an axis is too small to split).
    // The plan genuinely holds one Range covering the whole axis — this is
    // not the `vec![0..len]` / `(0..len).collect()` mix-up the lint guards.
    #[allow(clippy::single_range_in_vec_init)]
    pub fn single(len: usize) -> Self {
        Self { ranges: vec![0..len] }
    }

    /// Balance `num_chunks` contiguous ranges over the entries of a CSR
    /// offset table (`offsets.len() - 1` entries, entry `i` weighing
    /// `offsets[i + 1] - offsets[i]`), so ragged rows spread evenly.
    pub fn balanced_by_extents(offsets: &[u32], num_chunks: usize) -> Self {
        debug_assert!(!offsets.is_empty());
        let len = offsets.len() - 1;
        let base = offsets[0] as u64;
        let total = *offsets.last().expect("non-empty offsets") as u64 - base;
        Self::cut(len, num_chunks, total, |end| offsets[end] as u64 - base)
    }

    /// Balance `num_chunks` contiguous ranges over explicitly weighted
    /// entries (e.g. sources weighted by claim count).
    pub fn balanced_by_weights(weights: &[usize], num_chunks: usize) -> Self {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        let mut cum = 0u64;
        prefix.push(0u64);
        for &w in weights {
            cum += w as u64;
            prefix.push(cum);
        }
        Self::cut(weights.len(), num_chunks, total, |end| prefix[end])
    }

    /// Core fair-share cut: close chunk `k` (1-based) at the smallest
    /// boundary whose cumulative weight reaches `k/n` of the total, while
    /// always leaving enough entries for the remaining chunks to be
    /// non-empty. `cum(end)` is the total weight of entries `0..end`.
    fn cut(len: usize, num_chunks: usize, total: u64, cum: impl Fn(usize) -> u64) -> Self {
        let n = num_chunks.clamp(1, len.max(1));
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0usize;
        for k in 1..n {
            let max_end = len - (n - k);
            let mut end = start + 1;
            while end < max_end && (cum(end) as u128) * (n as u128) < (k as u128) * (total as u128)
            {
                end += 1;
            }
            ranges.push(start..end);
            start = end;
        }
        ranges.push(start..len);
        Self { ranges }
    }

    /// Number of chunks in the plan (always ≥ 1).
    pub fn num_chunks(&self) -> usize {
        self.ranges.len()
    }

    /// The contiguous entry ranges, in axis order; together they cover
    /// `0..len` exactly.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.ranges.iter().cloned()
    }

    /// Total number of entries covered by the plan.
    pub fn len(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
    }

    /// Whether the plan covers no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-run chunk plans of one method invocation: the item axis (vote
/// plane rows, weighted by candidate count) and the source axis (trust
/// accumulators, weighted by claim count). Built once before the round
/// loop via [`ChunkPlans::from_options`].
#[derive(Debug, Clone)]
pub struct ChunkPlans {
    /// Item-axis plan (plane rows, argmax, per-item adjustment).
    pub items: ChunkPlan,
    /// Source-axis plan (trust updates, payback, error rates).
    pub sources: ChunkPlan,
}

impl ChunkPlans {
    /// Build the plans [`FusionOptions::intra_day_chunks`] requests, or
    /// `None` when the run should stay sequential (0 or 1 chunks
    /// requested, or the snapshot is too small for splitting to pay).
    pub fn from_options(options: &FusionOptions, problem: &FusionProblem) -> Option<Self> {
        let requested = options.intra_day_chunks;
        if requested <= 1 {
            return None;
        }
        let num_items = problem.num_items();
        if num_items < 2 {
            return None;
        }
        let item_chunks = requested.min(num_items);
        let num_sources = problem.num_sources();
        let source_chunks = requested.min(num_sources.max(1));
        let mut claim_weights = Vec::with_capacity(num_sources);
        for s in 0..num_sources {
            claim_weights.push(problem.claims(s).len());
        }
        Some(Self {
            items: ChunkPlan::balanced_by_extents(problem.item_cand_offsets(), item_chunks),
            sources: ChunkPlan::balanced_by_weights(&claim_weights, source_chunks),
        })
    }

    /// Borrow the two per-axis plans out of the optional bundle
    /// [`from_options`](Self::from_options) returns — `(items, sources)`,
    /// both `None` on the sequential path.
    pub fn split(plans: &Option<Self>) -> (Option<&ChunkPlan>, Option<&ChunkPlan>) {
        match plans {
            Some(p) => (Some(&p.items), Some(&p.sources)),
            None => (None, None),
        }
    }
}

/// Run one owned task per chunk on rayon, returning the results in
/// chunk-index order (the stub and real rayon both restore input order).
/// Tasks own disjoint `&mut` sub-slices carved by `split_at_mut`, so the
/// borrow checker — not synchronization — guarantees non-interference.
pub fn run_chunks<T, R, F>(tasks: Vec<T>, body: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync + Send,
{
    tasks.into_par_iter().map(body).collect()
}

/// A disjoint mutable view of one chunk of a [`VotePlane`]: the item range,
/// the shared offset table, and the chunk's own slice of the flat value
/// plane (`split_at_mut`, no aliasing).
#[derive(Debug)]
pub struct PlaneChunkMut<'a> {
    items: Range<usize>,
    offsets: &'a [u32],
    base: usize,
    values: &'a mut [f64],
}

impl<'a> PlaneChunkMut<'a> {
    /// The global item indices this chunk owns.
    pub fn items(&self) -> Range<usize> {
        self.items.clone()
    }

    /// The global candidate range this chunk's values cover.
    pub fn cand_range(&self) -> Range<usize> {
        self.base..self.base + self.values.len()
    }

    /// Mutable plane row of global item `i` (must lie in
    /// [`items`](Self::items)).
    #[inline]
    pub fn item_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(self.items.contains(&i));
        let lo = self.offsets[i] as usize - self.base;
        let hi = self.offsets[i + 1] as usize - self.base;
        &mut self.values[lo..hi]
    }

    /// The chunk's flat values (its slice of the global candidate axis).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        self.values
    }
}

/// Carve `values` into the disjoint per-chunk views of `plan` (shared
/// `offsets` table, `split_at_mut` over the flat plane). `pub(crate)` so
/// [`VotePlane::chunks_mut`] can hand out views without exposing its
/// private fields.
pub(crate) fn plane_chunks<'a>(
    offsets: &'a [u32],
    values: &'a mut [f64],
    plan: &ChunkPlan,
) -> Vec<PlaneChunkMut<'a>> {
    debug_assert_eq!(plan.len(), offsets.len() - 1);
    let mut chunks = Vec::with_capacity(plan.num_chunks());
    let mut rest = values;
    let mut consumed = offsets[0] as usize;
    for items in plan.ranges() {
        let hi = offsets[items.end] as usize;
        let (head, tail) = rest.split_at_mut(hi - consumed);
        chunks.push(PlaneChunkMut {
            items,
            offsets,
            base: consumed,
            values: head,
        });
        rest = tail;
        consumed = hi;
    }
    chunks
}

/// Run `body(item, row, scratch)` for every item, either sequentially with
/// the caller's warm scratch (plan `None` — the allocation-free path every
/// existing golden pins) or chunked on rayon with one fresh scratch per
/// chunk. The body must fully determine the row from shared state, which
/// is what makes the two paths bit-identical.
pub fn for_each_item<S, M, F>(
    plane: &mut VotePlane,
    plan: Option<&ChunkPlan>,
    seq_scratch: &mut S,
    make_scratch: M,
    body: F,
) where
    S: Send,
    M: Fn() -> S + Sync + Send,
    F: Fn(usize, &mut [f64], &mut S) + Sync + Send,
{
    match plan {
        None => {
            for i in 0..plane.num_items() {
                body(i, plane.item_mut(i), seq_scratch);
            }
        }
        Some(plan) => {
            let chunks = plane.chunks_mut(plan);
            run_chunks(chunks, |mut chunk| {
                let mut scratch = make_scratch();
                for i in chunk.items() {
                    body(i, chunk.item_mut(i), &mut scratch);
                }
            });
        }
    }
}

/// Run `body(index, &mut out[index])` for every slot of `out`, sequentially
/// (plan `None`) or with `out` split into the disjoint per-chunk slices of
/// `plan` (which must partition `0..out.len()`). Used for the per-source
/// and per-item reduction targets: each slot is owned by exactly one
/// chunk, so per-slot arithmetic order never changes.
pub fn for_each_slot<F>(out: &mut [f64], plan: Option<&ChunkPlan>, body: F)
where
    F: Fn(usize, &mut f64) + Sync + Send,
{
    match plan {
        None => {
            for (i, slot) in out.iter_mut().enumerate() {
                body(i, slot);
            }
        }
        Some(plan) => {
            debug_assert_eq!(plan.len(), out.len());
            let mut tasks = Vec::with_capacity(plan.num_chunks());
            let mut rest = out;
            for r in plan.ranges() {
                let (head, tail) = rest.split_at_mut(r.len());
                tasks.push((r.start, head));
                rest = tail;
            }
            run_chunks(tasks, |(start, slice)| {
                for (off, slot) in slice.iter_mut().enumerate() {
                    body(start + off, slot);
                }
            });
        }
    }
}

/// Two-pass chunked [`normalize_by_max`](crate::types::normalize_by_max):
/// the exact `max` reduction runs over the full plane first, then each
/// chunk applies the correctly-rounded elementwise division. Bit-identical
/// to the sequential kernel for any chunk layout.
pub fn normalize_plane_by_max(plane: &mut VotePlane, plan: Option<&ChunkPlan>) {
    match plan {
        None => kernels::normalize_by_max(plane.values_mut()),
        Some(plan) => {
            let max = kernels::max_value(plane.values());
            let chunks = plane.chunks_mut(plan);
            run_chunks(chunks, |mut chunk| {
                kernels::apply_normalize_by_max(chunk.values_mut(), max);
            });
        }
    }
}

/// Two-pass chunked [`rescale_to_unit`](crate::types::rescale_to_unit):
/// exact global `min`/`max` folds, then per-chunk elementwise affine
/// scaling. Bit-identical to the sequential kernel for any chunk layout.
pub fn rescale_plane_to_unit(plane: &mut VotePlane, plan: Option<&ChunkPlan>) {
    match plan {
        None => kernels::rescale_to_unit(plane.values_mut()),
        Some(plan) => {
            let min = kernels::min_value(plane.values());
            let max = kernels::max_value(plane.values());
            let chunks = plane.chunks_mut(plan);
            run_chunks(chunks, |mut chunk| {
                kernels::apply_rescale_to_unit(chunk.values_mut(), min, max);
            });
        }
    }
}

/// Chunked argmax selection: `selection` is split into the disjoint
/// per-chunk item ranges and every chunk runs the same scalar kernel the
/// sequential [`VotePlane::argmax_into`] dispatches to, over its sub-table
/// of offsets. Embarrassingly parallel per item.
pub fn argmax_plane_into(plane: &VotePlane, plan: Option<&ChunkPlan>, selection: &mut Vec<usize>) {
    match plan {
        None => plane.argmax_into(selection),
        Some(plan) => {
            let num_items = plane.num_items();
            debug_assert_eq!(plan.len(), num_items);
            selection.clear();
            selection.resize(num_items, 0);
            let offsets = plane.offsets();
            let values = plane.values();
            let mut tasks = Vec::with_capacity(plan.num_chunks());
            let mut rest = selection.as_mut_slice();
            for r in plan.ranges() {
                let (head, tail) = rest.split_at_mut(r.len());
                tasks.push((r.start, head));
                rest = tail;
            }
            run_chunks(tasks, |(start, out)| {
                kernels::argmax_into_slice(&offsets[start..start + out.len() + 1], values, out);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_plan_spans_everything() {
        let plan = ChunkPlan::single(7);
        assert_eq!(plan.num_chunks(), 1);
        assert_eq!(plan.ranges().collect::<Vec<_>>(), vec![0..7]);
        assert_eq!(plan.len(), 7);
        assert!(!plan.is_empty());
    }

    #[test]
    fn balanced_extents_split_by_weight() {
        // Items with candidate counts 1, 1, 1, 9 (offsets CSR): the heavy
        // tail item must get its own chunk instead of item-count halves.
        let offsets = [0u32, 1, 2, 3, 12];
        let plan = ChunkPlan::balanced_by_extents(&offsets, 2);
        assert_eq!(plan.ranges().collect::<Vec<_>>(), vec![0..3, 3..4]);
    }

    #[test]
    fn plans_are_contiguous_non_empty_and_cover() {
        for (weights, chunks) in [
            (vec![0usize, 0, 0, 0], 2usize),
            (vec![5, 1, 1, 1, 1, 1], 3),
            (vec![1], 4),
            (vec![10, 10], 2),
            (vec![3, 3, 3, 3, 3, 3, 3], 16),
        ] {
            let plan = ChunkPlan::balanced_by_weights(&weights, chunks);
            let ranges: Vec<_> = plan.ranges().collect();
            assert!(plan.num_chunks() <= chunks.max(1));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, weights.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            for r in &ranges {
                assert!(!r.is_empty(), "non-empty ranges in {ranges:?}");
            }
        }
    }

    #[test]
    fn chunk_count_clamps_to_entries() {
        let plan = ChunkPlan::balanced_by_weights(&[1, 1], 16);
        assert_eq!(plan.num_chunks(), 2);
    }

    #[test]
    fn run_chunks_preserves_order() {
        let tasks: Vec<usize> = (0..23).collect();
        let out = run_chunks(tasks, |i| i * 3);
        assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn plane_chunks_are_disjoint_views() {
        let mut plane = VotePlane::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0],
        ]);
        let plan = ChunkPlan::balanced_by_extents(plane.offsets(), 2);
        let mut chunks = plane.chunks_mut(&plan);
        assert_eq!(chunks.len(), 2);
        let all_items: Vec<usize> = chunks.iter().flat_map(|c| c.items()).collect();
        assert_eq!(all_items, vec![0, 1, 2, 3]);
        for chunk in &mut chunks {
            for i in chunk.items() {
                for v in chunk.item_mut(i).iter_mut() {
                    *v += 10.0;
                }
            }
        }
        assert_eq!(plane.values(), &[11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]);
    }

    #[test]
    fn for_each_item_matches_sequential() {
        let rows = vec![vec![0.0; 3], vec![0.0; 1], vec![0.0; 2], vec![0.0; 5]];
        let mut seq_plane = VotePlane::from_rows(&rows);
        let mut par_plane = VotePlane::from_rows(&rows);
        let body = |i: usize, out: &mut [f64], scratch: &mut Vec<f64>| {
            scratch.clear();
            scratch.extend((0..out.len()).map(|c| (i * 10 + c) as f64));
            for (slot, v) in out.iter_mut().zip(scratch.iter()) {
                *slot = v * 0.5;
            }
        };
        let mut seq_scratch = Vec::new();
        for_each_item(&mut seq_plane, None, &mut seq_scratch, Vec::new, body);
        let plan = ChunkPlan::balanced_by_extents(par_plane.offsets(), 3);
        let mut unused = Vec::new();
        for_each_item(&mut par_plane, Some(&plan), &mut unused, Vec::new, body);
        assert_eq!(seq_plane.values(), par_plane.values());
    }

    #[test]
    fn for_each_slot_covers_every_index() {
        let mut seq = vec![0.0f64; 11];
        let mut par = vec![0.0f64; 11];
        let body = |i: usize, slot: &mut f64| *slot = (i * i) as f64;
        for_each_slot(&mut seq, None, body);
        let plan = ChunkPlan::balanced_by_weights(&[1; 11], 4);
        for_each_slot(&mut par, Some(&plan), body);
        assert_eq!(seq, par);
    }

    #[test]
    fn chunked_normalize_and_rescale_match_sequential() {
        let rows = vec![vec![2.0, 8.0], vec![4.0], vec![1.0, 16.0, 0.5]];
        for chunks in [1usize, 2, 3] {
            let mut seq = VotePlane::from_rows(&rows);
            let mut par = VotePlane::from_rows(&rows);
            let plan = ChunkPlan::balanced_by_extents(par.offsets(), chunks);
            normalize_plane_by_max(&mut seq, None);
            normalize_plane_by_max(&mut par, Some(&plan));
            assert_eq!(seq.values(), par.values());

            let mut seq = VotePlane::from_rows(&rows);
            let mut par = VotePlane::from_rows(&rows);
            rescale_plane_to_unit(&mut seq, None);
            rescale_plane_to_unit(&mut par, Some(&plan));
            assert_eq!(seq.values(), par.values());
        }
    }

    #[test]
    fn chunked_argmax_matches_sequential() {
        let rows = vec![
            vec![0.1, 0.9, 0.5],
            vec![1.0],
            vec![],
            vec![0.3, 0.3, 0.7, 0.2],
        ];
        let plane = VotePlane::from_rows(&rows);
        let mut seq = Vec::new();
        let mut par = Vec::new();
        argmax_plane_into(&plane, None, &mut seq);
        let plan = ChunkPlan::balanced_by_extents(plane.offsets(), 3);
        argmax_plane_into(&plane, Some(&plan), &mut par);
        assert_eq!(seq, par);
        assert_eq!(seq, vec![1, 0, 0, 2]);
    }
}
