//! Criterion micro-benchmark of pairwise copy detection, the dominant cost of
//! ACCUCOPY (the paper reports 855 s on the Stock snapshot versus seconds for
//! the other methods) — both the snapshot-level `copydetect` detector and the
//! fusion-internal dense path (`detect_copying`, and one full `AccuCopy::run`
//! so the tentpole's win stays measurable in-repo).

use criterion::{criterion_group, criterion_main, Criterion};
use copydetect::CopyDetector;
use datagen::{flight_config, generate, stock_config};
use fusion::methods::{detect_copying, AccuCopy, CoClaims};
use fusion::{FusionMethod, FusionOptions, FusionProblem};

fn bench_copy_detection(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    let flight = generate(&flight_config(2012).scaled(0.03, 0.1));

    let mut group = c.benchmark_group("copy_detection");
    group.bench_function("stock", |b| {
        let day = stock.collection.reference_day();
        b.iter(|| CopyDetector::new().detect(&day.snapshot, &day.gold))
    });
    group.bench_function("flight", |b| {
        let day = flight.collection.reference_day();
        b.iter(|| CopyDetector::new().detect(&day.snapshot, &day.gold))
    });
    group.finish();
}

/// The fusion-loop detection path: one-shot `detect_copying` (index build +
/// score), the per-round `CoClaims::rescore` alone, and a full `AccuCopy::run`
/// (detection × rounds + independence-discounted voting).
fn bench_fusion_detection(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    let problem = FusionProblem::from_snapshot(stock.reference_snapshot());
    let dominant = vec![0usize; problem.num_items()];
    let method = AccuCopy::default();

    let mut group = c.benchmark_group("fusion_copy_detection");
    group.bench_function("detect_copying_stock", |b| {
        b.iter(|| detect_copying(&problem, &dominant, 0.8, 0.1, 10))
    });
    group.bench_function("rescore_stock", |b| {
        let co = CoClaims::build(&problem, 10);
        let mut errors = vec![0.0; problem.num_sources()];
        let mut out = fusion::CopyMatrix::new(problem.num_sources());
        b.iter(|| co.rescore(&problem, &dominant, 0.8, 0.1, &mut errors, &mut out))
    });
    group.bench_function("accucopy_run_stock", |b| {
        b.iter(|| method.run(&problem, &FusionOptions::standard()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_copy_detection, bench_fusion_detection
}
criterion_main!(benches);
