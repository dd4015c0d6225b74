//! Kernel-level bit-identity suite: every kernel of `fusion::kernels` must
//! produce results **bit-identical** to a plain in-test loop — the obvious
//! formulation of the same computation, with the summation order the method
//! code has always used — on every input shape, including the lane-remainder
//! edge cases the unrolled `max`/`min` folds (`chunks_exact(4)`) can get
//! wrong: the empty plane, items and slices of 1/3/4/5/7 elements,
//! single-item problems, and all-zero trust. CI runs this suite in debug and
//! `--release` (lane-remainder bugs and optimizer float reordering hide in
//! opposite build profiles).

use deepweb_truth::fusion::kernels::{self, TrustView};
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

/// The plain formulation of the vote accumulation: per candidate, the
/// providers' trust summed in provider-list order. Sums fold from `+0.0`
/// like the kernels (`Iterator::sum` of floats starts at `-0.0`, which would
/// differ in sign on empty rows).
fn plain_accumulate(fx: &PlaneFixture, view: &TrustView<'_>) -> Vec<f64> {
    (0..fx.values.len())
        .map(|c| {
            let span = fx.provider_offsets[c] as usize..fx.provider_offsets[c + 1] as usize;
            fx.providers[span]
                .iter()
                .map(|&p| match *view {
                    TrustView::Overall(t) => t[p as usize],
                    TrustView::PerAttr {
                        values,
                        num_attrs,
                        cand_attrs,
                    } => values[p as usize * num_attrs + cand_attrs[c] as usize],
                })
                .fold(0.0, |acc, t| acc + t)
        })
        .collect()
}

/// The plain argmax walk: first index whose vote beats the best so far by
/// more than `1e-12`; empty items select 0.
fn plain_argmax(offsets: &[u32], values: &[f64]) -> Vec<usize> {
    offsets
        .windows(2)
        .map(|w| {
            let mut best = 0usize;
            let mut best_vote = f64::NEG_INFINITY;
            for (i, &v) in values[w[0] as usize..w[1] as usize].iter().enumerate() {
                if v > best_vote + 1e-12 {
                    best = i;
                    best_vote = v;
                }
            }
            best
        })
        .collect()
}

/// The plain `normalize_by_max`: a serial `max` fold, then the divide.
fn plain_normalize_by_max(xs: &mut [f64]) {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max > 0.0 {
        for x in xs.iter_mut() {
            *x /= max;
        }
    }
}

/// The plain `rescale_to_unit`: serial `min`/`max` folds, then the affine map.
fn plain_rescale_to_unit(xs: &mut [f64]) {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if min.is_finite() && max.is_finite() {
        let range = max - min;
        for x in xs.iter_mut() {
            *x = if range > 1e-12 {
                (*x - min) / range
            } else {
                0.5
            };
        }
    }
}

/// Kernel accumulate == plain accumulate, both trust views, bit for bit.
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
        let mut out = vec![f64::NAN; fx.values.len()];
        kernels::accumulate_weighted_votes(&mut out, &fx.provider_offsets, &fx.providers, &view);
        assert_eq!(bits(&out), bits(&plain_accumulate(fx, &view)));
    }
}

/// Kernel argmax == plain argmax on the fixture's plane values.
fn assert_argmax_matches(fx: &PlaneFixture) {
    let mut selection = vec![usize::MAX; 3];
    kernels::argmax_into(&fx.offsets, &fx.values, &mut selection);
    assert_eq!(selection, plain_argmax(&fx.offsets, &fx.values));
}

/// Both rescalers == their plain formulations on `xs`, bit for bit.
fn assert_rescalers_match(xs: &[f64]) {
    let mut kernel = xs.to_vec();
    let mut plain = xs.to_vec();
    kernels::normalize_by_max(&mut kernel);
    plain_normalize_by_max(&mut plain);
    assert_eq!(bits(&kernel), bits(&plain));

    let mut kernel = xs.to_vec();
    let mut plain = xs.to_vec();
    kernels::rescale_to_unit(&mut kernel);
    plain_rescale_to_unit(&mut plain);
    assert_eq!(bits(&kernel), bits(&plain));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Vote accumulation (overall and per-attribute trust) is bit-identical
    /// to the per-candidate provider sums across random CSR shapes,
    /// including empty planes and empty items.
    #[test]
    fn accumulate_weighted_votes_matches_scalar(
        cand_counts in prop::collection::vec(0usize..9, 0..24),
        pool in prop::collection::vec(0.0f64..1.0, 1..64),
    ) {
        let fx = PlaneFixture::build(&cand_counts, &pool, 7, 3);
        assert_accumulate_matches(&fx, &pool);
    }

    /// Per-item argmax selection equals the plain walk (same winning index
    /// under the `1e-12` tie rule, index 0 for empty items).
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

    /// `normalize_by_max` and `rescale_to_unit` are bit-identical to their
    /// plain formulations, including on negative, all-zero, and sub-4-lane
    /// slices.
    #[test]
    fn elementwise_rescalers_match_scalar(xs in prop::collection::vec(-4.0f64..4.0, 0..40)) {
        assert_rescalers_match(&xs);
    }

    /// The per-source claim-score sums (overall and S×A accumulators) equal
    /// the plain sums in claim order, bit for bit.
    #[test]
    fn claim_score_sums_match_scalar(
        cand_counts in prop::collection::vec(1usize..9, 1..24),
        pool in prop::collection::vec(0.0f64..1.0, 1..64),
    ) {
        let fx = PlaneFixture::build(&cand_counts, &pool, 7, 3);
        for claims in fx.claims() {
            let scores: Vec<f64> = claims
                .iter()
                .map(|&(i, c)| fx.values[fx.offsets[i as usize] as usize + c as usize])
                .collect();
            let plain = scores.iter().fold(0.0, |acc, &x| acc + x);
            let sum = kernels::sum_claim_scores(&claims, &fx.offsets, &fx.values);
            assert_eq!(sum.to_bits(), plain.to_bits());

            let mut attr_sum = vec![0.25; fx.num_attrs];
            let mut attr_count = vec![3usize; fx.num_attrs];
            let mut plain_sum = attr_sum.clone();
            let mut plain_count = attr_count.clone();
            for (&(i, _), &score) in claims.iter().zip(&scores) {
                let a = fx.item_attrs[i as usize] as usize;
                plain_sum[a] += score;
                plain_count[a] += 1;
            }
            let total = kernels::sum_claim_scores_per_attr(
                &claims, &fx.offsets, &fx.values, &fx.item_attrs, &mut attr_sum, &mut attr_count,
            );
            assert_eq!(total.to_bits(), plain.to_bits());
            assert_eq!(bits(&attr_sum), bits(&plain_sum));
            assert_eq!(attr_count, plain_count);
        }
    }

}

/// The exact lane-remainder shapes: empty plane, items of 1/3/4/5/7
/// candidates, a single-item problem, and all-zero trust; and rescaler
/// slices of every length up to three 4-lane chunks, with the extremum in
/// each position so it lands in every accumulator and in the remainder.
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
        // All-zero trust: every vote is an exact +0.0 sum on both sides.
        assert_accumulate_matches(&fx, &[0.0]);
    }
    for len in 0..=12 {
        let base: Vec<f64> = (0..len).map(|k| pool[k % pool.len()] - 0.4).collect();
        assert_rescalers_match(&base);
        assert_rescalers_match(&vec![0.0; len]);
        assert_rescalers_match(&vec![-1.5; len]);
        for at in 0..len {
            for extremum in [9.0, -9.0] {
                let mut xs = base.clone();
                xs[at] = extremum;
                assert_rescalers_match(&xs);
            }
        }
    }
}
