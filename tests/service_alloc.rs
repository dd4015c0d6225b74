//! Allocation pin for the service's ingest path.
//!
//! A Deep Web source re-publishes its whole table every day, and most of it
//! unchanged. Re-sending an unchanged day (every claim again, same values,
//! higher sequence numbers) must cost the claim ledger a lookup and a
//! sequence bump per claim, with no heap allocation anywhere in
//! `FusionService::apply`, and the seal that follows must find nothing to
//! re-prepare.
//!
//! This binary installs `profiling::CountingAllocator` as its global
//! allocator and holds a single test, so no other test allocates while the
//! count runs.

use datagen::{generate, stock_config};
use service::{day_ops, ApplyOutcome, FusionService, Operation, ServiceConfig};

#[global_allocator]
static ALLOC: profiling::CountingAllocator = profiling::CountingAllocator::new();

#[test]
fn resending_an_unchanged_day_allocates_nothing_and_seals_identical() {
    let domain = generate(&stock_config(4242).scaled(0.02, 0.05));
    let day = domain.collection.reference_day().snapshot.clone();
    let mut svc = FusionService::with_config(
        day.schema_arc(),
        ServiceConfig {
            methods: vec!["Vote".to_string()],
            ..ServiceConfig::default()
        },
    );

    let first = day_ops(&day, 0);
    let mut seq = first.len() as u64;
    svc.apply_all(first);
    assert!(matches!(
        svc.apply(Operation::seal(seq, 0)),
        ApplyOutcome::Sealed(_)
    ));
    seq += 1;

    let again = day_ops(&day, seq);
    let claims = again.len();
    seq += claims as u64;
    let before = profiling::allocation_count();
    let mut applied = 0;
    for op in again {
        applied += usize::from(matches!(svc.apply(op), ApplyOutcome::Applied));
    }
    let allocations = profiling::allocation_count() - before;
    assert_eq!(applied, claims, "every re-sent claim carries a higher seq");
    assert_eq!(
        allocations, 0,
        "re-sending {claims} unchanged claims allocated {allocations} times"
    );

    let ApplyOutcome::Sealed(report) = svc.apply(Operation::seal(seq, 1)) else {
        panic!("day 1 must seal");
    };
    assert!(
        report.advance.identical,
        "an unchanged day must seal identical"
    );
    assert_eq!(report.observations, day.num_observations());
}
