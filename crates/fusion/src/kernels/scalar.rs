//! Portable scalar fallback kernels.
//!
//! These are the reference implementations every SIMD backend must match
//! **bit-for-bit**: per-candidate / per-claim accumulation order is
//! exactly the order the pre-kernel method code used, so swapping the old
//! inline loops for these kernels cannot move a single ULP. The only manual
//! unrolling is in the `max`/`min` reductions, where four independent
//! accumulators break the serial dependency chain — exact for non-NaN input
//! because `max`/`min` folds are associative and commutative there.

use super::TrustView;
use std::cell::RefCell;

thread_local! {
    // Attr-major transpose of the per-attribute trust table, a kernel-private
    // warm scratch reused across rounds: transposing once per call (S×A
    // copies, no arithmetic, bit-exact) turns every provider read of the
    // `*ATTR` variants into the same stride-1 `col[p]` gather the overall
    // path uses, dropping the per-provider `p * num_attrs + a` multiply from
    // the hottest loop in the crate.
    static ATTR_MAJOR_TRUST: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// See [`super::accumulate_weighted_votes`].
pub fn accumulate_weighted_votes(
    out: &mut [f64],
    provider_offsets: &[u32],
    providers: &[u32],
    trust: &TrustView<'_>,
) {
    if out.is_empty() {
        return;
    }
    match *trust {
        TrustView::Overall(t) => {
            let mut lo = provider_offsets[0] as usize;
            for (slot, &end) in out.iter_mut().zip(&provider_offsets[1..]) {
                let hi = end as usize;
                let mut acc = 0.0;
                for &p in &providers[lo..hi] {
                    acc += t[p as usize];
                }
                *slot = acc;
                lo = hi;
            }
        }
        TrustView::PerAttr {
            values,
            num_attrs,
            cand_attrs,
        } => ATTR_MAJOR_TRUST.with(|buf| {
            let num_sources = values.len() / num_attrs.max(1);
            let mut t = buf.borrow_mut();
            t.clear();
            t.resize(values.len(), 0.0);
            for s in 0..num_sources {
                for a in 0..num_attrs {
                    t[a * num_sources + s] = values[s * num_attrs + a];
                }
            }
            let mut lo = provider_offsets[0] as usize;
            for (c, (slot, &end)) in out.iter_mut().zip(&provider_offsets[1..]).enumerate() {
                let hi = end as usize;
                let col = &t[cand_attrs[c] as usize * num_sources..][..num_sources];
                let mut acc = 0.0;
                for &p in &providers[lo..hi] {
                    acc += col[p as usize];
                }
                *slot = acc;
                lo = hi;
            }
        }),
    }
}

/// The argmax of one item's CSR range `values[lo..hi]` (local index).
#[inline]
fn argmax_one(lo: usize, hi: usize, values: &[f64]) -> usize {
    // 0- and 1-candidate items always select index 0 (on one vote the
    // chain either updates to index 0 or keeps its index-0 start), which
    // skips the float-compare walk for the most common item shape.
    if hi - lo <= 1 {
        return 0;
    }
    let item_votes = &values[lo..hi];
    let mut best = 0usize;
    let mut best_vote = f64::NEG_INFINITY;
    for (i, &v) in item_votes.iter().enumerate() {
        if v > best_vote + 1e-12 {
            best = i;
            best_vote = v;
        }
    }
    best
}

/// See [`super::argmax_into`].
pub fn argmax_into(offsets: &[u32], values: &[f64], selection: &mut Vec<usize>) {
    selection.clear();
    selection.extend(
        offsets
            .windows(2)
            .map(|w| argmax_one(w[0] as usize, w[1] as usize, values)),
    );
}

/// Unrolled `max` fold: four independent accumulators, combined at the end.
fn max_value(xs: &[f64]) -> f64 {
    let mut iter = xs.chunks_exact(4);
    let mut acc = [f64::NEG_INFINITY; 4];
    for chunk in &mut iter {
        acc[0] = acc[0].max(chunk[0]);
        acc[1] = acc[1].max(chunk[1]);
        acc[2] = acc[2].max(chunk[2]);
        acc[3] = acc[3].max(chunk[3]);
    }
    let mut max = acc[0].max(acc[1]).max(acc[2]).max(acc[3]);
    for &x in iter.remainder() {
        max = max.max(x);
    }
    max
}

/// Unrolled `min` fold (see `max_value`).
fn min_value(xs: &[f64]) -> f64 {
    let mut iter = xs.chunks_exact(4);
    let mut acc = [f64::INFINITY; 4];
    for chunk in &mut iter {
        acc[0] = acc[0].min(chunk[0]);
        acc[1] = acc[1].min(chunk[1]);
        acc[2] = acc[2].min(chunk[2]);
        acc[3] = acc[3].min(chunk[3]);
    }
    let mut min = acc[0].min(acc[1]).min(acc[2]).min(acc[3]);
    for &x in iter.remainder() {
        min = min.min(x);
    }
    min
}

/// See [`super::normalize_by_max`].
pub fn normalize_by_max(xs: &mut [f64]) {
    let max = max_value(xs);
    if max > 0.0 {
        for x in xs.iter_mut() {
            *x /= max;
        }
    }
}

/// See [`super::rescale_to_unit`].
pub fn rescale_to_unit(xs: &mut [f64]) {
    let min = min_value(xs);
    let max = max_value(xs);
    if !min.is_finite() || !max.is_finite() {
        return;
    }
    let range = max - min;
    for x in xs.iter_mut() {
        *x = if range > 1e-12 { (*x - min) / range } else { 0.5 };
    }
}

/// See [`super::sum_claim_scores`].
pub fn sum_claim_scores(claims: &[(u32, u32)], offsets: &[u32], values: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &(i, c) in claims {
        sum += values[offsets[i as usize] as usize + c as usize];
    }
    sum
}

/// See [`super::sum_claim_scores_per_attr`].
pub fn sum_claim_scores_per_attr(
    claims: &[(u32, u32)],
    offsets: &[u32],
    values: &[f64],
    item_attrs: &[u32],
    attr_sum: &mut [f64],
    attr_count: &mut [usize],
) -> f64 {
    let mut sum = 0.0;
    for &(i, c) in claims {
        let score = values[offsets[i as usize] as usize + c as usize];
        sum += score;
        let a = item_attrs[i as usize] as usize;
        attr_sum[a] += score;
        attr_count[a] += 1;
    }
    sum
}
