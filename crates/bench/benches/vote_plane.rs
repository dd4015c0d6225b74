//! Criterion micro-benchmark of the flat vote plane: the
//! `weighted_votes`-equivalent trust-weighted accumulation every web-link
//! round performs, on the default-scale Stock problem, for both trust
//! layouts — overall (one `Vec<f64>` gather) and per-attribute (`*ATTR`,
//! flat SoA `source * num_attrs + attr` reads).
//!
//! Each walk is benchmarked two ways, the keep/drop gate for the
//! hand-written kernels of [`fusion::kernels`] ("only keep it if it beats
//! the autovectorizer"):
//!
//! - `kernel` — the plane methods and kernels as shipped (one portable
//!   scalar implementation, unrolled where it pays);
//! - `autovec` — an inline reimplementation of the pre-kernel nested-view
//!   loop, left to the compiler's autovectorizer.
//!
//! The `argmax` bench covers the per-round selection walk over the same
//! offsets; the rescaler benches cover the contiguous per-round
//! normalizations of the web-link and IR methods.
//!
//! The `vote_plane_long_rows` group re-runs the CSR-walk gate on the
//! `scale10_capacity` scenario world (80 high-coverage sources, ~75-provider
//! rows vs the base Stock's ~40), to check whether longer provider rows
//! change the verdict against gather-based lock-step kernels.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use datagen::{generate, stock_config};
use fusion::kernels;
use fusion::{FusionProblem, TrustEstimate, VotePlane};

/// The pre-kernel accumulation loop, verbatim: nested item/candidate views,
/// `trust.of` per provider, `.map().sum()` per candidate — what the
/// autovectorizer sees without the explicit kernels.
fn autovec_accumulate(
    values: &mut [f64],
    offsets: &[u32],
    problem: &FusionProblem,
    trust: &TrustEstimate,
) {
    for (i, item) in problem.items().enumerate() {
        let attr = item.attr();
        let out = &mut values[offsets[i] as usize..offsets[i + 1] as usize];
        for (slot, cand) in out.iter_mut().zip(item.candidates()) {
            *slot = cand
                .providers()
                .iter()
                .map(|&s| trust.of(s as usize, attr))
                .sum();
        }
    }
}

/// The pre-kernel argmax loop, verbatim.
fn autovec_argmax(offsets: &[u32], values: &[f64], selection: &mut Vec<usize>) {
    selection.clear();
    selection.extend(offsets.windows(2).map(|w| {
        let item_votes = &values[w[0] as usize..w[1] as usize];
        let mut best = 0usize;
        let mut best_vote = f64::NEG_INFINITY;
        for (i, &v) in item_votes.iter().enumerate() {
            if v > best_vote + 1e-12 {
                best = i;
                best_vote = v;
            }
        }
        best
    }));
}

/// Non-uniform trust estimates so the gathers read realistic values.
fn make_trusts(problem: &FusionProblem) -> (TrustEstimate, TrustEstimate) {
    let mut overall = TrustEstimate::uniform(problem.num_sources(), problem.num_attrs, 0.8, false);
    for (s, t) in overall.overall.iter_mut().enumerate() {
        *t = 0.5 + 0.4 * ((s % 7) as f64 / 7.0);
    }
    let mut per_attr = TrustEstimate::uniform(problem.num_sources(), problem.num_attrs, 0.8, true);
    if let Some(pa) = per_attr.per_attr.as_mut() {
        for s in 0..problem.num_sources() {
            for a in 0..problem.num_attrs {
                pa.set(s, a, 0.5 + 0.4 * (((s + a) % 5) as f64 / 5.0));
            }
        }
    }
    (overall, per_attr)
}

/// The two-way CSR-walk gate (kernel vs autovectorized pre-kernel loop)
/// over one prepared problem: the trust-weighted accumulation in both trust
/// layouts, the argmax selection, and the per-source claim-score sums.
fn csr_walk_benches(group: &mut BenchmarkGroup<'_>, problem: &FusionProblem) {
    let (overall, per_attr) = make_trusts(problem);

    for (trust, label) in [(&overall, "overall_trust"), (&per_attr, "per_attribute_trust")] {
        group.bench_function(format!("weighted_votes_{label}/kernel"), |b| {
            let mut plane = VotePlane::for_problem(problem);
            b.iter(|| {
                plane.accumulate_weighted_votes(problem, trust);
                plane.values().iter().sum::<f64>()
            })
        });
        group.bench_function(format!("weighted_votes_{label}/autovec"), |b| {
            let mut values = vec![0.0; problem.num_candidates()];
            let offsets = problem.item_cand_offsets().to_vec();
            b.iter(|| {
                autovec_accumulate(&mut values, &offsets, problem, trust);
                values.iter().sum::<f64>()
            })
        });
    }

    let mut plane = VotePlane::for_problem(problem);
    plane.accumulate_weighted_votes(problem, &overall);
    group.bench_function("argmax_into/kernel", |b| {
        let mut selection = Vec::new();
        b.iter(|| {
            plane.argmax_into(&mut selection);
            selection.len()
        })
    });
    group.bench_function("argmax_into/autovec", |b| {
        let mut selection = Vec::new();
        b.iter(|| {
            autovec_argmax(plane.offsets(), plane.values(), &mut selection);
            selection.len()
        })
    });

    let claims: Vec<Vec<(u32, u32)>> = problem
        .claims_by_source()
        .map(<[(u32, u32)]>::to_vec)
        .collect();
    group.bench_function("sum_claim_scores/kernel", |b| {
        b.iter(|| {
            claims
                .iter()
                .map(|cl| kernels::sum_claim_scores(cl, plane.offsets(), plane.values()))
                .sum::<f64>()
        })
    });
    group.bench_function("sum_claim_scores/autovec", |b| {
        b.iter(|| {
            claims
                .iter()
                .map(|cl| {
                    cl.iter()
                        .map(|&(i, c)| plane.get(i as usize, c as usize))
                        .sum::<f64>()
                })
                .sum::<f64>()
        })
    });
}

fn bench_vote_plane(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.25, 0.1));
    let problem = FusionProblem::from_snapshot(stock.reference_snapshot());

    let mut group = c.benchmark_group("vote_plane");
    csr_walk_benches(&mut group, &problem);

    // Elementwise rescalers over the full contiguous plane (the web-link /
    // IR per-round normalization), kernels vs the pre-kernel loops.
    let (overall, _) = make_trusts(&problem);
    let mut plane = VotePlane::for_problem(&problem);
    plane.accumulate_weighted_votes(&problem, &overall);
    let mut scratch = plane.values().to_vec();
    group.bench_function("normalize_by_max/kernel", |b| {
        b.iter(|| {
            scratch.copy_from_slice(plane.values());
            kernels::normalize_by_max(&mut scratch);
            scratch[0]
        })
    });
    group.bench_function("normalize_by_max/autovec", |b| {
        b.iter(|| {
            scratch.copy_from_slice(plane.values());
            let max = scratch.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if max > 0.0 {
                for x in scratch.iter_mut() {
                    *x /= max;
                }
            }
            scratch[0]
        })
    });
    group.bench_function("rescale_to_unit/kernel", |b| {
        b.iter(|| {
            scratch.copy_from_slice(plane.values());
            kernels::rescale_to_unit(&mut scratch);
            scratch[0]
        })
    });
    group.bench_function("rescale_to_unit/autovec", |b| {
        b.iter(|| {
            scratch.copy_from_slice(plane.values());
            let min = scratch.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = scratch.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if min.is_finite() && max.is_finite() {
                let range = max - min;
                for x in scratch.iter_mut() {
                    *x = if range > 1e-12 { (*x - min) / range } else { 0.5 };
                }
            }
            scratch[0]
        })
    });

    group.finish();
}

/// The long-row re-run of the CSR-walk gate: the `scale10_capacity` scenario
/// at object scale 1.0 (16k items/day, 80 sources, near-full coverage) — the
/// provider rows the ROADMAP asked about.
fn bench_vote_plane_long_rows(c: &mut Criterion) {
    let world = bench::long_row_scenario(1.0).build();
    let problem = FusionProblem::from_snapshot(world.domain.reference_snapshot());
    let providers: usize = problem.claims_by_source().map(<[_]>::len).sum();
    eprintln!(
        "[vote_plane_long_rows] {} items, {} sources, {:.1} providers/item",
        problem.num_items(),
        problem.num_sources(),
        providers as f64 / problem.num_items() as f64,
    );
    let mut group = c.benchmark_group("vote_plane_long_rows");
    csr_walk_benches(&mut group, &problem);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_vote_plane, bench_vote_plane_long_rows
}
criterion_main!(benches);
