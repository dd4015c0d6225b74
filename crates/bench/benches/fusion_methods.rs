//! Criterion micro-benchmarks of the fusion methods (the cost side of
//! Figure 12): per-method end-to-end fusion time on a reduced Stock and
//! Flight snapshot, the cost of problem preparation, and the sequential
//! vs. `evaluate_days` fan-out guard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{flight_config, generate, stock_config};
use evaluation::{evaluate_all_methods, evaluate_days, same_results, EvaluationContext};
use fusion::{all_methods, FusionOptions, FusionProblem};

fn bench_methods(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    let flight = generate(&flight_config(2012).scaled(0.03, 0.1));
    let stock_problem = FusionProblem::from_snapshot(stock.reference_snapshot());
    let flight_problem = FusionProblem::from_snapshot(flight.reference_snapshot());
    let options = FusionOptions::standard();

    let mut group = c.benchmark_group("fusion_methods");
    for (domain, problem) in [("stock", &stock_problem), ("flight", &flight_problem)] {
        for (_, method) in all_methods() {
            group.bench_with_input(
                BenchmarkId::new(method.name(), domain),
                problem,
                |b, problem| b.iter(|| method.run(problem, &options)),
            );
        }
    }
    group.finish();
}

fn bench_preparation(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    c.bench_function("problem_preparation_stock", |b| {
        b.iter(|| FusionProblem::from_snapshot(stock.reference_snapshot()))
    });
}

/// Guard: the multi-day fan-out must produce the same rows as the
/// sequential runner on the same seeded day — and this bench shows what the
/// fan-out buys in wall-clock. Both passes prepare the day's context and
/// evaluate all sixteen methods with and without sampled trust.
fn bench_runners(c: &mut Criterion) {
    let stock = generate(&stock_config(2012).scaled(0.03, 0.1));
    let reference = stock.collection.reference_day_index();
    let day = stock.collection.reference_day();
    let sequential_pass =
        || evaluate_all_methods(&EvaluationContext::new(&day.snapshot, &day.gold));
    let parallel_pass = || evaluate_days(&stock.collection, &[reference], false);

    // Correctness guard first: a timing comparison of two runners is only
    // meaningful if they compute the same thing.
    assert!(
        same_results(&sequential_pass(), &parallel_pass()[0].rows),
        "evaluate_days diverged from the sequential runner on the guard snapshot"
    );

    let mut group = c.benchmark_group("evaluation_runner");
    group.bench_function("sequential_16_methods", |b| b.iter(sequential_pass));
    group.bench_function("parallel_16_methods", |b| b.iter(parallel_pass));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(std::time::Duration::from_millis(500)).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_methods, bench_preparation, bench_runners
}
criterion_main!(benches);
