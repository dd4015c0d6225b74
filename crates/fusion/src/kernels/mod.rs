//! Explicit SIMD kernels for the warm vote-plane inner loops.
//!
//! Every iterative method in the paper's Table 6 funnels through the same
//! handful of flat-array walks per round: accumulating trust-weighted votes
//! over the candidate axis (the vote equations of Section 3), selecting the
//! highest-voted candidate per item (the truth selection the precision of
//! Table 7 scores), normalizing vote or trust vectors (the web-link and IR
//! methods of Sections 3.1–3.2), averaging per-claim scores into source
//! trust (the Bayesian methods of Section 3.3). Those loops run over
//! CSR/SoA layouts; this module puts every one of them behind one
//! dispatched kernel layer — explicit AVX2/FMA implementations where they
//! beat the compiler, tuned unrolled-scalar kernels where lock-step SIMD
//! lost the ROADMAP's "only keep it if it beats the autovectorizer" bench
//! gate (see the per-function docs and the `vote_plane` criterion bench) —
//! which is where the Figure-12 efficiency reproduction spends its time.
//!
//! # Dispatch model
//!
//! A backend is selected **once per process** and cached: [`Backend::Avx2Fma`]
//! when the running CPU supports AVX2 *and* FMA (checked with
//! `is_x86_feature_detected!`), [`Backend::Scalar`] otherwise. Setting the
//! environment variable `FUSION_FORCE_SCALAR=1` (any value other than `0` or
//! empty) forces the scalar path regardless of CPU support — CI runs the
//! whole fusion suite both ways. [`force_backend`] installs a backend
//! explicitly for in-process comparisons (benches, tests).
//!
//! # Bit-identity contract
//!
//! Every SIMD kernel produces **bit-identical** results to its scalar
//! fallback in [`scalar`]: vectorization is across *independent* lanes
//! (plane slots), never across the terms of one floating-point sum, so
//! each lane performs exactly the scalar operation sequence. The reductions in [`normalize_by_max`] and
//! [`rescale_to_unit`] reassociate a `max`/`min` fold, which is exact for
//! non-NaN inputs (the vote planes never hold NaN); everything downstream of
//! the reduced value is elementwise IEEE arithmetic. The contract is pinned
//! by the kernel proptest suite (`tests/kernel_equivalence.rs`), the
//! reference-oracle and golden Table-7 harnesses, and the cross-runner
//! batch-equivalence suite.

use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
mod avx2;
pub mod scalar;

/// The kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AVX2 + FMA intrinsics (`core::arch::x86_64`), 4 × `f64` lanes.
    Avx2Fma,
    /// Portable unrolled-scalar fallback ([`scalar`]).
    Scalar,
}

/// Cached backend choice: 0 = undecided, 1 = AVX2+FMA, 2 = scalar.
static BACKEND: AtomicU8 = AtomicU8::new(0);

fn backend_code(b: Backend) -> u8 {
    match b {
        Backend::Avx2Fma => 1,
        Backend::Scalar => 2,
    }
}

/// Whether the running CPU supports the AVX2+FMA backend.
fn avx2_fma_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn detect() -> Backend {
    let forced = std::env::var_os("FUSION_FORCE_SCALAR")
        .is_some_and(|v| !v.is_empty() && v != "0");
    if !forced && avx2_fma_supported() {
        Backend::Avx2Fma
    } else {
        Backend::Scalar
    }
}

/// The backend all kernels dispatch to, selected on first use and cached for
/// the lifetime of the process.
#[inline]
pub fn backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        1 => Backend::Avx2Fma,
        2 => Backend::Scalar,
        _ => {
            let b = detect();
            BACKEND.store(backend_code(b), Ordering::Relaxed);
            b
        }
    }
}

/// Install `requested` as the dispatch backend, returning the backend
/// actually installed ([`Backend::Avx2Fma`] is downgraded to
/// [`Backend::Scalar`] on CPUs without AVX2+FMA).
///
/// Intended for benches and tests that compare both paths in one process;
/// production callers should rely on the automatic detection in
/// [`backend`].
pub fn force_backend(requested: Backend) -> Backend {
    let installed = match requested {
        Backend::Avx2Fma if !avx2_fma_supported() => Backend::Scalar,
        other => other,
    };
    BACKEND.store(backend_code(installed), Ordering::Relaxed);
    installed
}

/// Human-readable name of the dispatched backend: `"avx2+fma"` or
/// `"scalar"` (the strings the efficiency reports record).
pub fn backend_name() -> &'static str {
    match backend() {
        Backend::Avx2Fma => "avx2+fma",
        Backend::Scalar => "scalar",
    }
}

/// Space-separated list of the probed CPU features the running machine
/// supports (`"portable"` on non-x86_64 targets). Recorded next to the
/// backend in the efficiency JSON so trajectory points from different
/// machines stay interpretable.
pub fn detected_cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features: Vec<&str> = Vec::new();
        macro_rules! probe {
            ($($name:tt),* $(,)?) => {
                $(if is_x86_feature_detected!($name) { features.push($name); })*
            };
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f");
        features.join(" ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("portable")
    }
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

/// `out[c] = Σ_{p ∈ providers(c)} trust(p, attr(c))` for every global
/// candidate `c`, where `providers(c)` is the CSR range
/// `providers[provider_offsets[c]..provider_offsets[c + 1]]`. Every slot of
/// `out` is overwritten; per-candidate summation order is the provider-list
/// order on both backends.
///
/// Always runs the unrolled scalar kernel: a gather-based AVX2 lock-step
/// variant was measured ~2× slower on the short ragged provider rows of the
/// warm-arena workload and dropped per the ROADMAP gate (see [`avx2`-module
/// docs](self)).
pub fn accumulate_weighted_votes(
    out: &mut [f64],
    provider_offsets: &[u32],
    providers: &[u32],
    trust: &TrustView<'_>,
) {
    debug_assert_eq!(provider_offsets.len(), out.len() + 1);
    debug_assert!(provider_offsets.last().copied().unwrap_or(0) as usize <= providers.len());
    scalar::accumulate_weighted_votes(out, provider_offsets, providers, trust);
}

/// For every item `i` (the CSR range `values[offsets[i]..offsets[i + 1]]`),
/// select the index of the highest value, writing into `selection`
/// (allocation reused). Ties within `1e-12` go to the lower index; empty
/// items select 0. Exactly the selection rule of
/// [`VotePlane::argmax_into`](crate::VotePlane::argmax_into).
///
/// Always runs the unrolled scalar kernel (the AVX2 lock-step variant lost
/// the ROADMAP bench gate; see [`accumulate_weighted_votes`]).
pub fn argmax_into(offsets: &[u32], values: &[f64], selection: &mut Vec<usize>) {
    debug_assert!(!offsets.is_empty());
    debug_assert!(offsets.last().copied().unwrap_or(0) as usize <= values.len());
    scalar::argmax_into(offsets, values, selection);
}

/// Divide every element by the slice maximum (no-op when the maximum is not
/// positive). The SIMD max reduction is exact for non-NaN inputs.
pub fn normalize_by_max(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2Fma {
        // SAFETY: backend gate as above.
        unsafe { avx2::normalize_by_max(xs) };
        return;
    }
    scalar::normalize_by_max(xs);
}

/// Affine rescaling of a slice to `[0, 1]`; constant slices map to 0.5 and
/// slices with non-finite extrema are left untouched. The SIMD min/max
/// reduction is exact for non-NaN inputs.
pub fn rescale_to_unit(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2Fma {
        // SAFETY: backend gate as above.
        unsafe { avx2::rescale_to_unit(xs) };
        return;
    }
    scalar::rescale_to_unit(xs);
}

/// Sum of `values[offsets[item] + cand]` over the `(item, cand)` claims of
/// one source, in claim order — the overall-trust accumulator of
/// `update_trust_from_scores`. Claims must reference valid plane slots.
///
/// Always runs the scalar kernel (a gathered AVX2 variant measured slightly
/// slower and was dropped per the ROADMAP gate; see
/// [`accumulate_weighted_votes`]).
pub fn sum_claim_scores(claims: &[(u32, u32)], offsets: &[u32], values: &[f64]) -> f64 {
    debug_assert!(claims
        .iter()
        .all(|&(i, c)| ((i as usize) < offsets.len() - 1)
            && (offsets[i as usize] as usize + c as usize) < values.len().max(1)));
    scalar::sum_claim_scores(claims, offsets, values)
}

/// [`sum_claim_scores`] plus the S×A accumulators of the `*ATTR` variants:
/// for every claim, `attr_sum[attr(item)] += score` and
/// `attr_count[attr(item)] += 1` on the caller's per-source row slices, in
/// claim order. Returns the overall score sum. Scalar-only, like
/// [`sum_claim_scores`].
pub fn sum_claim_scores_per_attr(
    claims: &[(u32, u32)],
    offsets: &[u32],
    values: &[f64],
    item_attrs: &[u32],
    attr_sum: &mut [f64],
    attr_count: &mut [usize],
) -> f64 {
    debug_assert_eq!(attr_sum.len(), attr_count.len());
    scalar::sum_claim_scores_per_attr(claims, offsets, values, item_attrs, attr_sum, attr_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_reports_a_name() {
        let name = backend_name();
        assert!(name == "avx2+fma" || name == "scalar");
    }

    #[test]
    fn force_backend_round_trips() {
        let original = backend();
        assert_eq!(force_backend(Backend::Scalar), Backend::Scalar);
        assert_eq!(backend(), Backend::Scalar);
        // Re-requesting AVX2 installs it only where supported.
        let installed = force_backend(Backend::Avx2Fma);
        assert_eq!(backend(), installed);
        force_backend(original);
    }

    #[test]
    fn detected_features_are_reported() {
        // On x86_64 the list is possibly empty but never panics; elsewhere
        // it is the literal "portable".
        let _ = detected_cpu_features();
    }
}
