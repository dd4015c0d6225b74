//! Kernel-level bit-identity suite: the dispatched kernels of
//! `fusion::kernels` (AVX2+FMA where the CPU supports it, scalar otherwise)
//! must produce results **bit-identical** to the portable scalar fallbacks in
//! `fusion::kernels::scalar` on every input shape — including the
//! lane-remainder edge cases a 4-wide SIMD kernel can get wrong: the empty
//! plane, items with 1/3/4/5/7 candidates, single-item problems, and
//! all-zero trust. CI runs this suite in debug and `--release`, with and
//! without `FUSION_FORCE_SCALAR=1` (where it degenerates to scalar-vs-scalar
//! but still pins the env override and the dispatched path).

use deepweb_truth::fusion::kernels::{self, scalar, TrustView};
use proptest::prelude::*;

/// A synthetic vote-plane CSR in exactly the layout `FusionProblem` /
/// `VotePlane` expose to the kernels, derived deterministically from sampled
/// candidate counts and a pool of random floats.
struct PlaneFixture {
    /// Item → candidate offsets (`num_items + 1`).
    offsets: Vec<u32>,
    /// One vote slot per global candidate.
    values: Vec<f64>,
    /// Candidate → provider offsets (`num_candidates + 1`).
    provider_offsets: Vec<u32>,
    /// Flat dense source indices.
    providers: Vec<u32>,
    /// Attribute index per global candidate (owning item's attribute).
    cand_attrs: Vec<u32>,
    /// Attribute index per item.
    item_attrs: Vec<u32>,
    num_sources: usize,
    num_attrs: usize,
}

impl PlaneFixture {
    fn build(cand_counts: &[usize], pool: &[f64], num_sources: usize, num_attrs: usize) -> Self {
        let at = |i: usize| pool[i % pool.len()];
        let mut offsets = vec![0u32];
        let mut values = Vec::new();
        let mut provider_offsets = vec![0u32];
        let mut providers = Vec::new();
        let mut cand_attrs = Vec::new();
        let mut item_attrs = Vec::new();
        for (i, &n) in cand_counts.iter().enumerate() {
            let attr = (i % num_attrs) as u32;
            item_attrs.push(attr);
            for k in 0..n {
                let c = values.len();
                values.push(at(c) * 10.0 - 2.0);
                cand_attrs.push(attr);
                // Provider-list length varies 0..=4 so CSR ranges of every
                // lane in a 4-candidate chunk differ.
                let np = (c * 7 + k + i) % 5;
                for p in 0..np {
                    providers.push(((c * 3 + p * 11 + i) % num_sources) as u32);
                }
                provider_offsets.push(providers.len() as u32);
            }
            offsets.push(values.len() as u32);
        }
        Self {
            offsets,
            values,
            provider_offsets,
            providers,
            cand_attrs,
            item_attrs,
            num_sources,
            num_attrs,
        }
    }

    /// Per-source claim lists `(item, cand)` covering every provider slot.
    fn claims(&self) -> Vec<Vec<(u32, u32)>> {
        let mut claims = vec![Vec::new(); self.num_sources];
        for i in 0..self.offsets.len() - 1 {
            for c in self.offsets[i] as usize..self.offsets[i + 1] as usize {
                let local = (c - self.offsets[i] as usize) as u32;
                let span = self.provider_offsets[c] as usize..self.provider_offsets[c + 1] as usize;
                for &p in &self.providers[span] {
                    claims[p as usize].push((i as u32, local));
                }
            }
        }
        claims
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Dispatched accumulate == scalar accumulate, both trust views, bit for bit.
fn assert_accumulate_matches(fx: &PlaneFixture, trust_pool: &[f64]) {
    let overall: Vec<f64> = (0..fx.num_sources)
        .map(|s| trust_pool[s % trust_pool.len()])
        .collect();
    let per_attr: Vec<f64> = (0..fx.num_sources * fx.num_attrs)
        .map(|k| trust_pool[(k * 13 + 5) % trust_pool.len()])
        .collect();
    for view in [
        TrustView::Overall(&overall),
        TrustView::PerAttr {
            values: &per_attr,
            num_attrs: fx.num_attrs,
            cand_attrs: &fx.cand_attrs,
        },
    ] {
        let mut dispatched = vec![f64::NAN; fx.values.len()];
        let mut reference = vec![f64::NAN; fx.values.len()];
        kernels::accumulate_weighted_votes(
            &mut dispatched,
            &fx.provider_offsets,
            &fx.providers,
            &view,
        );
        scalar::accumulate_weighted_votes(
            &mut reference,
            &fx.provider_offsets,
            &fx.providers,
            &view,
        );
        assert_eq!(bits(&dispatched), bits(&reference));
    }
}

/// Dispatched argmax == scalar argmax on the fixture's plane values.
fn assert_argmax_matches(fx: &PlaneFixture) {
    let mut dispatched = vec![usize::MAX; 3];
    let mut reference = vec![usize::MAX; 3];
    kernels::argmax_into(&fx.offsets, &fx.values, &mut dispatched);
    scalar::argmax_into(&fx.offsets, &fx.values, &mut reference);
    assert_eq!(dispatched, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Vote accumulation (overall and per-attribute trust) is bit-identical
    /// across random CSR shapes, including empty planes and empty items.
    #[test]
    fn accumulate_weighted_votes_matches_scalar(
        cand_counts in prop::collection::vec(0usize..9, 0..24),
        pool in prop::collection::vec(0.0f64..1.0, 1..64),
    ) {
        let fx = PlaneFixture::build(&cand_counts, &pool, 7, 3);
        assert_accumulate_matches(&fx, &pool);
    }

    /// Per-item argmax selection is bit-identical (same winning index under
    /// the `1e-12` tie rule, index 0 for empty items).
    #[test]
    fn argmax_matches_scalar(
        cand_counts in prop::collection::vec(0usize..9, 0..24),
        pool in prop::collection::vec(0.0f64..1.0, 1..64),
    ) {
        let fx = PlaneFixture::build(&cand_counts, &pool, 7, 3);
        assert_argmax_matches(&fx);
        // Duplicate-heavy values exercise the tie rule: quantize to a few
        // distinct levels so chunks contain exact repeats.
        let mut fx = fx;
        for v in fx.values.iter_mut() {
            *v = (*v * 4.0).round();
        }
        assert_argmax_matches(&fx);
    }

    /// `normalize_by_max` and `rescale_to_unit` are bit-identical, including
    /// on negative, all-zero, and sub-4-lane slices.
    #[test]
    fn elementwise_rescalers_match_scalar(xs in prop::collection::vec(-4.0f64..4.0, 0..40)) {
        let mut dispatched = xs.clone();
        let mut reference = xs.clone();
        kernels::normalize_by_max(&mut dispatched);
        scalar::normalize_by_max(&mut reference);
        assert_eq!(bits(&dispatched), bits(&reference));

        let mut dispatched = xs.clone();
        let mut reference = xs;
        kernels::rescale_to_unit(&mut dispatched);
        scalar::rescale_to_unit(&mut reference);
        assert_eq!(bits(&dispatched), bits(&reference));
    }

    /// The per-source claim-score sums (overall and S×A accumulators) are
    /// bit-identical in claim order.
    #[test]
    fn claim_score_sums_match_scalar(
        cand_counts in prop::collection::vec(1usize..9, 1..24),
        pool in prop::collection::vec(0.0f64..1.0, 1..64),
    ) {
        let fx = PlaneFixture::build(&cand_counts, &pool, 7, 3);
        for claims in fx.claims() {
            let a = kernels::sum_claim_scores(&claims, &fx.offsets, &fx.values);
            let b = scalar::sum_claim_scores(&claims, &fx.offsets, &fx.values);
            assert_eq!(a.to_bits(), b.to_bits());

            let mut sum_a = vec![0.25; fx.num_attrs];
            let mut cnt_a = vec![3usize; fx.num_attrs];
            let mut sum_b = sum_a.clone();
            let mut cnt_b = cnt_a.clone();
            let ta = kernels::sum_claim_scores_per_attr(
                &claims, &fx.offsets, &fx.values, &fx.item_attrs, &mut sum_a, &mut cnt_a,
            );
            let tb = scalar::sum_claim_scores_per_attr(
                &claims, &fx.offsets, &fx.values, &fx.item_attrs, &mut sum_b, &mut cnt_b,
            );
            assert_eq!(ta.to_bits(), tb.to_bits());
            assert_eq!(bits(&sum_a), bits(&sum_b));
            assert_eq!(cnt_a, cnt_b);
        }
    }

}

/// The exact lane-remainder shapes the issue calls out: empty plane, items
/// of 1/3/4/5/7 candidates, a single-item problem, and all-zero trust.
#[test]
fn lane_remainder_edge_cases() {
    let pool = [0.9, 0.1, 0.5, 0.3, 0.7, 0.2];
    for counts in [
        &[][..],
        &[1][..],
        &[3][..],
        &[4][..],
        &[5][..],
        &[7][..],
        &[1, 3, 4, 5, 7][..],
        &[0, 7, 0, 1][..],
    ] {
        let fx = PlaneFixture::build(counts, &pool, 5, 2);
        assert_accumulate_matches(&fx, &pool);
        assert_argmax_matches(&fx);
        // All-zero trust: every vote is an exact +0.0 sum on both paths.
        assert_accumulate_matches(&fx, &[0.0]);
    }
}

/// `FUSION_FORCE_SCALAR` pins the dispatched backend to the scalar path.
#[test]
fn env_override_is_respected() {
    let forced = std::env::var_os("FUSION_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
    if forced {
        assert_eq!(kernels::backend_name(), "scalar");
    } else {
        assert!(matches!(kernels::backend_name(), "avx2+fma" | "scalar"));
    }
}
