//! Online-service drill: stream a mutation sequence through the
//! [`service::FusionService`] shell the way a deployment would — a producer
//! emitting day diffs over a channel, one ingest thread owning the service,
//! reader threads polling the published state at a fixed rate throughout —
//! and report
//! per-seal cost plus the warm-vs-cold convergence check on the final day.
//!
//! This is the serving-side companion of `exp_delta`: where that binary
//! measures the engine, this one measures the shell around it (ingest
//! idempotency bookkeeping, materialization, publication) and proves the
//! read path never serves a torn or stale-diverged state.
//!
//! Usage: `exp_service [--scale S] [--days N] [--seed K]`

use bench::{ExpArgs, Table};
use datagen::{generate, mutation_stream, stock_config};
use datamodel::SnapshotBuilder;
use fusion::{all_methods, FusionOptions, FusionProblem};
use service::{diff_ops, ApplyOutcome, FusionService, Operation, SealReport};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const NUM_READERS: usize = 3;
/// Reads per second each reader is scheduled to issue. Readers sleep until
/// each read is due, so they leave the cores to the ingest thread instead of
/// spinning on the published slot.
const READS_PER_SECOND: f64 = 1_000.0;

fn main() {
    let args = ExpArgs::from_env();
    let num_days = (args.days * 20.0).round().max(3.0) as usize;
    println!(
        "[Service] scale={} seed={} sealed days={} readers={}\n",
        args.scale, args.seed, num_days, NUM_READERS
    );

    let domain = generate(&stock_config(args.seed).scaled(args.scale, 0.05));
    let base = domain.collection.reference_day().snapshot.clone();
    let stream = mutation_stream(&base, num_days - 1, 0.05, args.seed ^ 0x5e41);

    let schema = base.schema_arc();
    let service = FusionService::new(Arc::clone(&schema));
    let reader = service.reader();
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicUsize::new(0));

    // Producer (this thread) → channel → ingest thread that owns the
    // service; readers poll the published slot on a fixed schedule the
    // whole time.
    let (tx, rx) = mpsc::channel::<Vec<Operation>>();
    let ingest = std::thread::spawn(move || {
        let mut service = service;
        let mut reports: Vec<(SealReport, usize)> = Vec::new();
        while let Ok(batch) = rx.recv() {
            let ops = batch.len();
            for op in batch {
                if let ApplyOutcome::Sealed(report) = service.apply(op) {
                    reports.push((report, ops));
                }
            }
        }
        (service, reports)
    });
    let mut readers = Vec::new();
    for _ in 0..NUM_READERS {
        let reader = reader.clone();
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        readers.push(std::thread::spawn(move || {
            let period = Duration::from_secs_f64(1.0 / READS_PER_SECOND);
            let mut due = Instant::now();
            let mut last_version = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due += period;
                let state = reader.state();
                assert!(state.version() >= last_version, "version went backwards");
                last_version = state.version();
                if let Some(item) = state.items().first() {
                    let answer = state.answer("Vote", *item).expect("published item answers");
                    assert_eq!(Some(answer.day), state.day());
                }
                reads.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    let mut seq = 0u64;
    let mut prev = SnapshotBuilder::new(0).build(Arc::clone(&schema));
    for (day_index, day) in stream.days.iter().enumerate() {
        let mut batch = diff_ops(&prev, day, seq);
        seq += batch.len() as u64;
        batch.push(Operation::seal(seq, day_index as u32));
        seq += 1;
        tx.send(batch).expect("ingest thread alive");
        prev = day.clone();
    }
    drop(tx);
    let (service, reports) = ingest.join().expect("ingest thread panicked");
    stop.store(true, Ordering::Relaxed);
    for handle in readers {
        handle.join().expect("reader thread panicked");
    }

    let mut table = Table::new(
        "Per-seal cost (ops = diff upserts/retracts + the seal)",
        &["day", "ops", "items", "obs", "dirty", "fuse (ms)", "seal (ms)"],
    );
    for (report, ops) in &reports {
        table.row(&[
            format!("{}", report.day),
            format!("{ops}"),
            format!("{}", report.items),
            format!("{}", report.observations),
            if report.advance.first_day {
                "cold".to_string()
            } else {
                format!("{:.1}%", report.advance.dirty_fraction * 100.0)
            },
            format!("{:.2}", report.fuse.as_secs_f64() * 1e3),
            format!("{:.2}", report.total.as_secs_f64() * 1e3),
        ]);
    }
    table.print();

    let stats = service.stats();
    let mean_seal_ms = reports
        .iter()
        .map(|(report, _)| report.total.as_secs_f64() * 1e3)
        .sum::<f64>()
        / reports.len().max(1) as f64;
    println!(
        "Ingest: {} applied, {} duplicate, {} stale, {} rejected over {} seals",
        stats.ops_applied, stats.ops_duplicate, stats.ops_stale, stats.ops_rejected, stats.seals
    );
    println!(
        "Engine: cache hits {}/{} runs across {} advances ({} full refreshes); mean seal {:.2} ms",
        stats.delta.cache_hits,
        stats.delta.runs,
        stats.delta.advances,
        stats.delta.full_refreshes,
        mean_seal_ms
    );
    println!(
        "Readers: {} lock-cheap reads served during ingest ({} readers at {} reads/s each)",
        reads.load(Ordering::Relaxed),
        NUM_READERS,
        READS_PER_SECOND
    );

    // Convergence: the final published day must carry the cold batch bits
    // for every registry method (the delta engine's contract, end to end
    // through the shell).
    let state = reader.state();
    let last = stream.days.last().expect("stream has days");
    let cold_problem = FusionProblem::from_snapshot(last);
    let options = FusionOptions::standard();
    let mut diverged = 0;
    for (_, method) in all_methods() {
        let name = method.name();
        let cold = method.run(&cold_problem, &options);
        let cold_sel: Vec<u32> = cold.selection.iter().map(|&s| s as u32).collect();
        let sel_ok = state.selection(&name) == Some(cold_sel.as_slice());
        let trust_ok = state.trust_vector(&name).is_some_and(|served| {
            served.len() == cold.trust.overall.len()
                && served
                    .iter()
                    .zip(&cold.trust.overall)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if !(sel_ok && trust_ok) {
            eprintln!("DIVERGED: {name} (selection ok: {sel_ok}, trust ok: {trust_ok})");
            diverged += 1;
        }
    }
    if diverged > 0 {
        eprintln!("FAIL: {diverged} method(s) diverged from the cold batch on the final day");
        std::process::exit(1);
    }
    println!(
        "Convergence: all {} methods bit-identical to the cold batch on day {}.",
        all_methods().len(),
        state.day().expect("final day published")
    );
}
