//! The numeric kernels of the warm vote-plane inner loops.
//!
//! Every iterative method in the paper's Table 6 funnels through the same
//! handful of flat-array walks per round: accumulating trust-weighted votes
//! over the candidate axis (the vote equations of Section 3), selecting the
//! highest-voted candidate per item (the truth selection the precision of
//! Table 7 scores), normalizing vote or trust vectors (the web-link and IR
//! methods of Sections 3.1–3.2), averaging per-claim scores into source
//! trust (the Bayesian methods of Section 3.3). Those loops run over
//! CSR/SoA layouts; this module holds each of them once, as portable
//! scalar code the compiler is free to inline into the round loops.
//!
//! # One scalar backend
//!
//! There is no runtime dispatch and no `unsafe`. Explicit SIMD variants were
//! built and measured with the `vote_plane` criterion bench and with
//! end-to-end `perfbench` pairs: gather-based lock-step versions of the CSR
//! walks ran 1.1–2× *slower* than these loops on the short, ragged provider
//! rows of the Stock/Flight problems, and 4-lane versions of the contiguous
//! rescalers did not move a workload's `day_s` past the host's run-to-run
//! spread — the walks are bound by memory traffic, not arithmetic.
//!
//! # Bit-identity contract
//!
//! Per-candidate and per-claim accumulation order is exactly the order the
//! pre-kernel method code used, so these kernels cannot move a single ULP
//! against the frozen reference oracles. The only manual unrolling is in the
//! `max`/`min` reductions of [`normalize_by_max`] and [`rescale_to_unit`],
//! where four independent accumulators break the serial dependency chain —
//! exact for non-NaN input because `max`/`min` folds are associative and
//! commutative there (the vote planes never hold NaN). The contract is
//! pinned by the kernel proptest suite (`tests/kernel_equivalence.rs`, which
//! compares every kernel with a plain in-test loop), the reference-oracle
//! and golden Table-7 harnesses, and the cross-runner batch-equivalence
//! suite.

use std::cell::RefCell;

/// Name of the kernel backend, recorded by the efficiency reports: always
/// `"scalar"` (the portable kernels of this module are the only ones).
pub fn backend_name() -> &'static str {
    "scalar"
}

/// The target architecture the kernels were compiled for
/// (`std::env::consts::ARCH`, e.g. `"x86_64"`). Recorded next to the backend
/// in the efficiency JSON so trajectory points from different machines stay
/// interpretable; no kernel depends on a runtime-probed CPU feature.
pub fn detected_cpu_features() -> String {
    String::from(std::env::consts::ARCH)
}

/// A read-only view of source trust as the vote-accumulation kernels consume
/// it: either one value per source, or the flat `source * num_attrs + attr`
/// table of the `*ATTR` variants plus the per-candidate attribute index that
/// selects the column.
#[derive(Debug, Clone, Copy)]
pub enum TrustView<'a> {
    /// One trust value per dense source index.
    Overall(&'a [f64]),
    /// Per-(source, attribute) trust in [`AttrTrust`](crate::AttrTrust)
    /// layout.
    PerAttr {
        /// Flat values, indexed `source * num_attrs + attr`.
        values: &'a [f64],
        /// Row stride (attributes per source).
        num_attrs: usize,
        /// Dense attribute index per global candidate
        /// ([`FusionProblem::cand_attrs`](crate::FusionProblem::cand_attrs)).
        cand_attrs: &'a [u32],
    },
}

thread_local! {
    // Attr-major transpose of the per-attribute trust table, a kernel-private
    // warm scratch reused across rounds: transposing once per call (S×A
    // copies, no arithmetic, bit-exact) turns every provider read of the
    // `*ATTR` variants into the same stride-1 `col[p]` gather the overall
    // path uses, dropping the per-provider `p * num_attrs + a` multiply from
    // the hottest loop in the crate.
    static ATTR_MAJOR_TRUST: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `out[c] = Σ_{p ∈ providers(c)} trust(p, attr(c))` for every global
/// candidate `c`, where `providers(c)` is the CSR range
/// `providers[provider_offsets[c]..provider_offsets[c + 1]]`. Every slot of
/// `out` is overwritten; per-candidate summation order is the provider-list
/// order.
pub fn accumulate_weighted_votes(
    out: &mut [f64],
    provider_offsets: &[u32],
    providers: &[u32],
    trust: &TrustView<'_>,
) {
    debug_assert_eq!(provider_offsets.len(), out.len() + 1);
    debug_assert!(provider_offsets.last().copied().unwrap_or(0) as usize <= providers.len());
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

/// For every item `i` (the CSR range `values[offsets[i]..offsets[i + 1]]`),
/// select the index of the highest value, writing into `selection`
/// (allocation reused). Ties within `1e-12` go to the lower index; empty
/// items select 0. Exactly the selection rule of
/// [`VotePlane::argmax_into`](crate::VotePlane::argmax_into).
pub fn argmax_into(offsets: &[u32], values: &[f64], selection: &mut Vec<usize>) {
    debug_assert!(!offsets.is_empty());
    debug_assert!(offsets.last().copied().unwrap_or(0) as usize <= values.len());
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

/// Divide every element by the slice maximum (no-op when the maximum is not
/// positive). Used by the web-link methods to prevent unbounded growth. The
/// unrolled max reduction is exact for non-NaN inputs.
pub fn normalize_by_max(xs: &mut [f64]) {
    let max = max_value(xs);
    if max > 0.0 {
        for x in xs.iter_mut() {
            *x /= max;
        }
    }
}

/// Affine rescaling of a slice to `[0, 1]` (the normalization 2-ESTIMATES and
/// 3-ESTIMATES require); constant slices map to 0.5 and slices with
/// non-finite extrema are left untouched. The unrolled min/max reductions
/// are exact for non-NaN inputs.
pub fn rescale_to_unit(xs: &mut [f64]) {
    let min = min_value(xs);
    let max = max_value(xs);
    if !min.is_finite() || !max.is_finite() {
        return;
    }
    let range = max - min;
    for x in xs.iter_mut() {
        *x = if range > 1e-12 {
            (*x - min) / range
        } else {
            0.5
        };
    }
}

/// Sum of `values[offsets[item] + cand]` over the `(item, cand)` claims of
/// one source, in claim order — the overall-trust accumulator of
/// `update_trust_from_scores`. Claims must reference valid plane slots.
pub fn sum_claim_scores(claims: &[(u32, u32)], offsets: &[u32], values: &[f64]) -> f64 {
    debug_assert!(claims
        .iter()
        .all(|&(i, c)| ((i as usize) < offsets.len() - 1)
            && (offsets[i as usize] as usize + c as usize) < values.len().max(1)));
    let mut sum = 0.0;
    for &(i, c) in claims {
        sum += values[offsets[i as usize] as usize + c as usize];
    }
    sum
}

/// [`sum_claim_scores`] plus the S×A accumulators of the `*ATTR` variants:
/// for every claim, `attr_sum[attr(item)] += score` and
/// `attr_count[attr(item)] += 1` on the caller's per-source row slices, in
/// claim order. Returns the overall score sum.
pub fn sum_claim_scores_per_attr(
    claims: &[(u32, u32)],
    offsets: &[u32],
    values: &[f64],
    item_attrs: &[u32],
    attr_sum: &mut [f64],
    attr_count: &mut [usize],
) -> f64 {
    debug_assert_eq!(attr_sum.len(), attr_count.len());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_reports_a_name() {
        assert_eq!(backend_name(), "scalar");
    }

    #[test]
    fn detected_features_are_reported() {
        assert_eq!(detected_cpu_features(), std::env::consts::ARCH);
    }
}
