//! AVX2/FMA kernel implementations (4 × `f64` lanes).
//!
//! Bit-identity strategy: every kernel vectorizes across **independent**
//! lanes — four plane slots at a time — and performs, per lane, exactly
//! the scalar operation sequence of [`super::scalar`]. The `max`/`min` tree
//! reductions in [`normalize_by_max`] / [`rescale_to_unit`] assume non-NaN
//! input (`vmaxpd` propagates NaN where `f64::max` ignores it); the vote
//! planes never hold NaN, and the dispatch wrappers document the
//! precondition.
//!
//! This module deliberately implements **only** the kernels that beat the
//! scalar fallback on the warm-arena workload (the ROADMAP's "only keep it
//! if it beats the autovectorizer" gate, measured by the `vote_plane`
//! criterion bench): the contiguous elementwise rescalers. Gather-based
//! lock-step variants of the CSR walks (`accumulate_weighted_votes`,
//! `argmax_into`, the claim-score sums) were built, measured 1.1–2×
//! *slower* than the unrolled scalar kernels —
//! the provider/candidate rows of the Stock/Flight problems are too short
//! and ragged for `vpgatherdpd` lock-stepping to pay — and dropped; those
//! entry points always dispatch to [`super::scalar`].

use core::arch::x86_64::*;

/// Tree-reduced slice maximum; exact for non-NaN input.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn max_value(xs: &[f64]) -> f64 {
    let mut acc = _mm256_set1_pd(f64::NEG_INFINITY);
    let mut i = 0usize;
    while i + 4 <= xs.len() {
        acc = _mm256_max_pd(acc, _mm256_loadu_pd(xs.as_ptr().add(i)));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut max = lanes[0].max(lanes[1]).max(lanes[2]).max(lanes[3]);
    for &x in &xs[i..] {
        max = max.max(x);
    }
    max
}

/// Tree-reduced slice minimum; exact for non-NaN input.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn min_value(xs: &[f64]) -> f64 {
    let mut acc = _mm256_set1_pd(f64::INFINITY);
    let mut i = 0usize;
    while i + 4 <= xs.len() {
        acc = _mm256_min_pd(acc, _mm256_loadu_pd(xs.as_ptr().add(i)));
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut min = lanes[0].min(lanes[1]).min(lanes[2]).min(lanes[3]);
    for &x in &xs[i..] {
        min = min.min(x);
    }
    min
}

/// # Safety
/// Requires AVX2 and FMA CPU support (guaranteed by the dispatcher).
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn normalize_by_max(xs: &mut [f64]) {
    let max = max_value(xs);
    if max > 0.0 {
        let m = _mm256_set1_pd(max);
        let mut i = 0usize;
        while i + 4 <= xs.len() {
            let p = xs.as_mut_ptr().add(i);
            _mm256_storeu_pd(p, _mm256_div_pd(_mm256_loadu_pd(p), m));
            i += 4;
        }
        for x in &mut xs[i..] {
            *x /= max;
        }
    }
}

/// # Safety
/// Requires AVX2 and FMA CPU support (guaranteed by the dispatcher).
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) unsafe fn rescale_to_unit(xs: &mut [f64]) {
    let min = min_value(xs);
    let max = max_value(xs);
    if !min.is_finite() || !max.is_finite() {
        return;
    }
    let range = max - min;
    if range > 1e-12 {
        let min_v = _mm256_set1_pd(min);
        let range_v = _mm256_set1_pd(range);
        let mut i = 0usize;
        while i + 4 <= xs.len() {
            let p = xs.as_mut_ptr().add(i);
            let scaled = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(p), min_v), range_v);
            _mm256_storeu_pd(p, scaled);
            i += 4;
        }
        for x in &mut xs[i..] {
            *x = (*x - min) / range;
        }
    } else {
        xs.fill(0.5);
    }
}
