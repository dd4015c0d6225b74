//! Smoke test of the benchmark itself: every workload, at a tiny scale,
//! untraced and traced, prints every catalog metric with its unit and fails
//! no check; `BENCHMARK.json` lists the same metrics and workloads.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::catalog::{end_to_end, per_layer, Spec};
use perfbench::WORKLOADS;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// The value of metric `name` in result line `line`, if printed with
/// `unit`.
fn metric(line: &str, name: &str, unit: &str) -> Option<f64> {
    let start = line.find(&format!("\"{name}\": {{\"value\": "))? + name.len() + 14;
    let rest = &line[start..];
    let end = rest.find(',')?;
    rest[end..]
        .starts_with(&format!(", \"unit\": \"{unit}\"}}"))
        .then(|| rest[..end].parse().ok())?
}

fn check_run(workload: &str, trace: &str, specs: &[Spec]) {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--scale",
        "0.05",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains(", \"failed\": 0, \"metrics\": {"), "{line}");
    assert!(stdout.contains("failed_ratio"), "{stdout}");
    for spec in specs {
        let value = metric(line, &spec.name, spec.unit);
        assert!(
            value.is_some(),
            "{workload}: {} [{}] missing in {line}",
            spec.name,
            spec.unit
        );
    }
    assert_eq!(line.matches("\"unit\": ").count(), specs.len(), "{line}");
    if trace == "0" {
        for spec in specs {
            let value = metric(line, &spec.name, spec.unit).unwrap_or_default();
            assert!(
                value > 0.0,
                "{workload}: end-to-end {} reads {value}",
                spec.name
            );
        }
    }
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    for workload in WORKLOADS {
        check_run(workload, "0", &end_to_end());
        check_run(workload, "1", &per_layer());
    }
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let specs: Vec<Spec> = end_to_end().into_iter().chain(per_layer()).collect();
    for spec in &specs {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", spec.name, spec.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\", \"why\": ")),
            "{workload}"
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        specs.len() + WORKLOADS.len()
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "stock_batch", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "stock_batch",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
