//! The repository's benchmark: batch truth finding and the online fusion
//! service, measured end to end and, in a traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stock_batch|serve_diff|serve_recrawl> --seed <n> \
//!     --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! Every run makes its inputs from `--seed`, measures for `--seconds`,
//! checks the outputs, and prints as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! (`--trace 0`) reports the end-to-end metrics of [`catalog::end_to_end`];
//! a traced run (`--trace 1`) reports the per-layer metrics of
//! [`catalog::per_layer`]. Any failed check makes the exit code 1.
//!
//! A workload runs several worlds, each generated by `datagen` (set-up
//! only) from its own seed drawn from `--seed`. Worlds differ in how fast
//! the iterative methods converge, which moves one world's cost by 20% from
//! seed to seed; per-world figures are therefore averaged over the worlds.
//! `setup_s` is the median of the worlds' set-up times: generation, the
//! producer's plan, and the cold first day.
//!
//! Layers are timed from outside, around calls into the public functions of
//! `datamodel`, `fusion`, `service` and `evaluation`; nothing inside the
//! library crates is instrumented. A traced run measures half its time
//! untraced and half traced, and reports the difference of the two as the
//! tracing overhead (`bench.overhead.*`). Time inside a traced day that no
//! layer accounts for is reported as `bench.other_s`.
//!
//! `--scale` shrinks or grows every world (default 1); the smoke test runs
//! every workload at a tiny scale.

mod batch;
pub mod catalog;
mod serve;
mod stats;

use catalog::Spec;
use stats::{mean, median, quantile};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Duration;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["stock_batch", "serve_diff", "serve_recrawl"];

const USAGE: &str = "usage: perfbench --workload <stock_batch|serve_diff|serve_recrawl> \
--seed <n> --seconds <s> --trace <0|1> [--scale <f>]";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    /// One of [`WORKLOADS`].
    workload: String,
    /// Seed every input is generated from.
    seed: u64,
    /// Seconds to measure for.
    seconds: f64,
    /// Print the per-layer metrics instead of the end-to-end ones.
    trace: bool,
    /// Multiplier on every world's size.
    scale: f64,
}

impl Args {
    /// Parse `--flag value` pairs; every flag but `--scale` is required.
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut rest = argv.iter();
        while let Some(flag) = rest.next() {
            let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            if flags.insert(flag.as_str(), value.as_str()).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        fn take<T: std::str::FromStr>(
            flags: &mut BTreeMap<&str, &str>,
            flag: &str,
        ) -> Result<Option<T>, String> {
            flags
                .remove(flag)
                .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {flag}")))
                .transpose()
        }
        let workload: String = take(&mut flags, "--workload")?.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seed = take(&mut flags, "--seed")?.ok_or("--seed is required")?;
        let seconds: f64 = take(&mut flags, "--seconds")?.ok_or("--seconds is required")?;
        let trace: u8 = take(&mut flags, "--trace")?.ok_or("--trace is required")?;
        let scale: f64 = take(&mut flags, "--scale")?.unwrap_or(1.0);
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag {flag}"));
        }
        if !(seconds > 0.0 && seconds.is_finite() && scale > 0.0 && scale.is_finite()) || trace > 1
        {
            return Err("--seconds and --scale must be positive, --trace 0 or 1".into());
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace: trace == 1,
            scale,
        })
    }
}

/// Run the benchmark on `argv` (without the program name) and return the
/// process exit code.
pub fn run_cli(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return 2;
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rayon_threads = rayon::current_num_threads();
    println!(
        "run: workload={} seed={} seconds={} trace={} scale={} available_parallelism={} \
         rayon_threads={} kernel_backend={} cpu_features=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        parallelism,
        rayon_threads,
        fusion::kernels::backend_name(),
        fusion::kernels::detected_cpu_features(),
    );

    let mut report = Report::default();
    match args.workload.as_str() {
        "stock_batch" => batch::run(&args, &mut report),
        "serve_diff" => serve::run(&args, &serve::DIFF, &mut report),
        _ => serve::run(&args, &serve::RECRAWL, &mut report),
    }
    if args.trace {
        report.set("bench.available_parallelism", parallelism as f64);
        report.set("bench.rayon_threads", rayon_threads as f64);
        report.emit(&catalog::per_layer(), true)
    } else {
        let rss = stats::peak_rss_mb();
        report.check(rss.is_some(), || {
            "peak resident memory is not reported".into()
        });
        report.set("peak_rss_mb", rss.unwrap_or(0.0));
        report.emit(&catalog::end_to_end(), false)
    }
}

/// Metric values plus the count of attempted and failed checks.
#[derive(Debug, Default)]
struct Report {
    values: BTreeMap<String, f64>,
    /// Figures printed in the table only, not in the result line.
    notes: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Record metric `name`.
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Print `name` in the table, but not in the result line.
    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    /// Count one attempted operation or check, failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAIL: {}", what());
            }
        }
    }

    /// Count `attempted` operations at once, `failed` of which failed.
    fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            eprintln!("FAIL: {failed} of {attempted} {what}");
        }
    }

    /// Print every metric of `specs` as a table and then as the final JSON
    /// line; a metric left unset reads 0 when `zero_fill`. Returns the exit
    /// code: 0 when every check passed.
    fn emit(mut self, specs: &[Spec], zero_fill: bool) -> i32 {
        for name in self.values.keys() {
            assert!(
                specs.iter().any(|s| &s.name == name),
                "metric {name} is not in the catalog"
            );
        }
        let mut fields = Vec::with_capacity(specs.len());
        let mut table = String::new();
        for spec in specs {
            let value = match self.values.get(&spec.name) {
                Some(&v) => v,
                None => {
                    assert!(zero_fill, "metric {} was not measured", spec.name);
                    0.0
                }
            };
            let value = if value.is_finite() {
                value
            } else {
                self.check(false, || format!("metric {} is not finite", spec.name));
                0.0
            };
            table.push_str(&format!(
                "  {:<36} {:>18} {}\n",
                spec.name, value, spec.unit
            ));
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name, value, spec.unit
            ));
        }
        for (name, value, unit) in &self.notes {
            table.push_str(&format!("  {name:<36} {value:>18} {unit}  (not gated)\n"));
        }
        let correct = self.failed == 0;
        let mut out = std::io::stdout().lock();
        let _ = write!(out, "{table}");
        let _ = writeln!(
            out,
            "  {:<36} {:>18} fraction  ({} of {} checks failed)",
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        let _ = out.flush();
        i32::from(!correct)
    }
}

/// Item lookups per read: a read is a page of items, whose time is steadier
/// than a single lookup's.
const PAGE: usize = 16;

/// Read samples per window for `read_p99_us`, the median of the windows'
/// 99th percentiles (about one second of reads on a service workload).
const READ_WINDOW: usize = 2_000;

/// End-to-end figures of one measured phase.
#[derive(Debug)]
struct Phase {
    /// Per world: wall time of each measured day's unit of work (a batch
    /// day, or a warm seal), in seconds.
    day_s: Vec<Vec<f64>>,
    /// Per world: claims taken in per second of intake wall, per day.
    ingest_rate: Vec<Vec<f64>>,
    /// Duration of every read, in microseconds, in the order issued.
    reads_us: Vec<f64>,
    /// How late the open-loop reader issued each read, in microseconds.
    late_us: Vec<f64>,
}

impl Phase {
    fn new(worlds: usize) -> Self {
        Self {
            day_s: vec![Vec::new(); worlds],
            ingest_rate: vec![Vec::new(); worlds],
            reads_us: Vec::new(),
            late_us: Vec::new(),
        }
    }

    /// Record one measured day of world `w`.
    fn day(&mut self, w: usize, day: Duration, claims: usize, intake: Duration) {
        self.day_s[w].push(day.as_secs_f64());
        self.ingest_rate[w].push(claims as f64 / intake.as_secs_f64().max(1e-9));
    }

    /// Whether every world has a measured day.
    fn covers_every_world(&self) -> bool {
        self.day_s.iter().all(|d| !d.is_empty())
    }

    /// The end-to-end figures: per-world medians averaged over the worlds
    /// (worlds differ in how fast their methods converge), read percentiles.
    fn figures(&self) -> [(&'static str, f64); 3] {
        let per_world =
            |samples: &[Vec<f64>]| mean(&samples.iter().map(|s| median(s)).collect::<Vec<_>>());
        let window_p99: Vec<f64> = self
            .reads_us
            .chunks(READ_WINDOW)
            .filter(|w| w.len() == READ_WINDOW || self.reads_us.len() < READ_WINDOW)
            .map(|w| quantile(w, 0.99))
            .collect();
        [
            ("day_s", per_world(&self.day_s)),
            ("ingest_claims_per_s", per_world(&self.ingest_rate)),
            ("read_p99_us", median(&window_p99)),
        ]
    }

    fn report(&self, report: &mut Report) {
        for (name, value) in self.figures() {
            report.set(name, value);
        }
        // A read's median time moves with the load on the machine more than
        // its tail does, too much to gate on.
        report.note("read_p50_us", median(&self.reads_us), "us");
        if !self.late_us.is_empty() {
            report.note("reader_late_p50_us", median(&self.late_us), "us");
            report.note("reader_late_p99_us", quantile(&self.late_us, 0.99), "us");
        }
    }

    /// Report how much worse the traced phase's figures are than the
    /// untraced one's (positive: tracing slowed the workload down).
    fn report_overhead(untraced: &Phase, traced: &Phase, report: &mut Report) {
        for ((name, plain), (_, with_trace)) in untraced.figures().into_iter().zip(traced.figures())
        {
            let worse = if name.ends_with("_per_s") {
                plain - with_trace
            } else {
                with_trace - plain
            };
            report.set(format!("bench.overhead.{name}"), worse);
        }
    }
}

/// Seed of world `w` of a run seeded with `seed`.
fn world_seed(seed: u64, w: usize) -> u64 {
    stats::SplitMix::new(seed ^ (w as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Per-layer accumulators of a traced phase.
#[derive(Debug, Default)]
struct Layers {
    per_day: BTreeMap<String, f64>,
    totals: BTreeMap<String, f64>,
    layer_sum: f64,
    wall: f64,
    days: u64,
}

impl Layers {
    /// Time spent in a top-level layer of the day's wall; layers partition
    /// the wall, whatever they leave over is `bench.other_s`.
    fn layer(&mut self, name: &str, time: Duration) {
        self.layer_sum += time.as_secs_f64();
        self.per_day(name, time.as_secs_f64());
    }

    /// A figure reported as its mean per day (sub-layer times measured on
    /// the side, rounds, sizes).
    fn per_day(&mut self, name: &str, value: f64) {
        *self.per_day.entry(name.to_string()).or_default() += value;
    }

    /// A figure reported as its total over the phase.
    fn total(&mut self, name: &str, value: f64) {
        *self.totals.entry(name.to_string()).or_default() += value;
    }

    /// Close one day whose layers sum to at most `wall`.
    fn day(&mut self, wall: Duration) {
        self.wall += wall.as_secs_f64();
        self.days += 1;
    }

    fn report(self, report: &mut Report) {
        let days = self.days.max(1) as f64;
        for (name, value) in self.per_day {
            report.set(name, value / days);
        }
        for (name, value) in self.totals {
            report.set(name, value);
        }
        let other = self.wall - self.layer_sum;
        report.set("bench.days", self.days as f64);
        report.set("bench.wall_s", self.wall / days);
        report.set("bench.layer_sum_s", self.layer_sum / days);
        report.set("bench.other_s", other / days);
        report.set(
            "bench.other_share",
            if self.wall > 0.0 {
                other / self.wall
            } else {
                0.0
            },
        );
    }
}
