//! Shared setup for the experiment binaries: command-line scaling arguments
//! and generation of the two paper domains.
//!
//! Every `exp_*` binary accepts the same optional arguments:
//!
//! ```text
//! exp_<name> [--scale S] [--days D] [--seed N] [--compare FILE]
//!            [--delta] [--repeats N] [--fail-on-regression PCT]
//! ```
//!
//! * `--scale` multiplies the number of objects (default 0.25 — a quarter of
//!   the paper's 1000 stocks / 1200 flights — so the experiments run in
//!   seconds; pass 1.0 to reproduce at full scale);
//! * `--days`  multiplies the number of collection days (default 0.25);
//! * `--seed`  master seed (default 2012, the paper's publication year);
//! * `--compare` (only meaningful to `exp_fig12_efficiency`) diffs the fresh
//!   run against a checked-in `BENCH_fig12.json` trajectory point and prints
//!   per-method speedup/regression;
//! * `--delta` (read by `exp_fig9_incremental` and `exp_table9_month`)
//!   additionally runs the same workload on one warm [`fusion::DeltaEngine`]
//!   (exact mode), asserts the rows equal the cold pass where the contract
//!   guarantees it, and reports warm-vs-cold wall time plus re-fused item
//!   counts;
//! * `--repeats` (read by `exp_fig12_efficiency`) repeats the timed
//!   sequential pass N times (default 3) and reports the per-method
//!   **median**, which suppresses one-off scheduler noise on shared or
//!   single-core machines;
//! * `--fail-on-regression PCT` (with `--compare`) exits with a non-zero
//!   status when any per-method timing regressed by more than `PCT` percent
//!   against the baseline artifact — the CI-facing form of the trajectory
//!   diff, which otherwise only prints.
//!
//! `exp_scenarios` additionally reads:
//!
//! * `--scenario NAME` — run a single named stress scenario instead of all;
//! * `--check` — compare each rendered golden table against the checked-in
//!   file and exit non-zero on any diff (the regression-gate form);
//! * `--bless` — rewrite the checked-in golden tables from this run;
//! * `--golden-dir DIR` — where the golden tables live (default
//!   `tests/golden`).

use datagen::scenario::{by_name, Scenario};
use datagen::{flight_config, generate, stock_config, GeneratedDomain};

/// Parsed experiment arguments.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Object-count multiplier relative to the paper scale.
    pub scale: f64,
    /// Day-count multiplier relative to the paper scale.
    pub days: f64,
    /// Master seed.
    pub seed: u64,
    /// Baseline artifact to diff a fresh run against
    /// (`exp_fig12_efficiency --compare BENCH_fig12.json`).
    pub compare: Option<String>,
    /// Number of timed repeats of the sequential pass; per-method timings
    /// are the **median** across repeats (`--repeats N`, default 3).
    pub repeats: usize,
    /// Also run the warm delta-engine leg and report warm-vs-cold wall time
    /// plus re-fused item counts (`--delta`, read by `exp_fig9_incremental`
    /// and `exp_table9_month`).
    pub delta: bool,
    /// With `--compare`: exit non-zero when any per-method timing regressed
    /// by more than this many percent (`--fail-on-regression PCT`).
    pub fail_on_regression: Option<f64>,
    /// `--fail-on-regression` was passed with a missing or unparseable PCT.
    /// The gate binaries must treat this as a hard error (fail **closed**) —
    /// silently skipping a CI gate on an operator typo defeats its purpose.
    pub fail_on_regression_invalid: bool,
    /// Run only this named stress scenario (`--scenario NAME`,
    /// `exp_scenarios`).
    pub scenario: Option<String>,
    /// Compare rendered golden tables against the checked-in files and exit
    /// non-zero on any diff (`--check`, `exp_scenarios`).
    pub check: bool,
    /// Rewrite the checked-in golden tables (`--bless`, `exp_scenarios`).
    pub bless: bool,
    /// Directory holding the golden tables (`--golden-dir`, default
    /// `tests/golden`).
    pub golden_dir: String,
    /// `--scale`/`--days`/`--seed` were passed explicitly (as opposed to
    /// defaulted). `exp_scenarios` refuses explicit overrides in `--check`/
    /// `--bless` mode — golden tables are only meaningful at the golden
    /// seed and scale.
    pub scale_explicit: bool,
    /// `--days` was passed explicitly; see [`scale_explicit`](Self::scale_explicit).
    pub days_explicit: bool,
    /// `--seed` was passed explicitly; see [`scale_explicit`](Self::scale_explicit).
    pub seed_explicit: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scale: 0.25,
            days: 0.25,
            seed: 2012,
            compare: None,
            repeats: 3,
            delta: false,
            fail_on_regression: None,
            fail_on_regression_invalid: false,
            scenario: None,
            check: false,
            bless: false,
            golden_dir: "tests/golden".to_string(),
            scale_explicit: false,
            days_explicit: false,
            seed_explicit: false,
        }
    }
}

impl ExpArgs {
    /// Parse from `std::env::args()` (unknown arguments are ignored).
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_args(&args)
    }

    /// Parse from an explicit argument vector (index 0 is the program name,
    /// as in `std::env::args()`); unknown arguments are ignored.
    pub fn from_args(args: &[String]) -> Self {
        let mut parsed = Self::default();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        parsed.scale = v;
                        parsed.scale_explicit = true;
                    }
                    i += 1;
                }
                "--days" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        parsed.days = v;
                        parsed.days_explicit = true;
                    }
                    i += 1;
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        parsed.seed = v;
                        parsed.seed_explicit = true;
                    }
                    i += 1;
                }
                "--compare" => match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        parsed.compare = Some(v.clone());
                        i += 1;
                    }
                    // Missing or flag-like value: leave the baseline unset
                    // and do NOT swallow the following flag (the
                    // --fail-on-regression gate then fails closed on the
                    // absent --compare).
                    _ => {}
                },
                "--delta" => {
                    parsed.delta = true;
                }
                "--repeats" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                        parsed.repeats = v.max(1);
                        i += 1;
                    }
                }
                "--scenario" => match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        parsed.scenario = Some(v.clone());
                        i += 1;
                    }
                    // Missing or flag-like value: leave unset, don't swallow
                    // the following flag (exp_scenarios then runs all
                    // scenarios, which is the safe default).
                    _ => {}
                },
                "--check" => {
                    parsed.check = true;
                }
                "--bless" => {
                    parsed.bless = true;
                }
                "--golden-dir" => match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        parsed.golden_dir = v.clone();
                        i += 1;
                    }
                    _ => {}
                },
                "--fail-on-regression" => {
                    match args.get(i + 1).map(|s| s.parse::<f64>()) {
                        Some(Ok(v)) if v.is_finite() => {
                            parsed.fail_on_regression = Some(v);
                            i += 1;
                        }
                        // Missing or malformed PCT: record the error and do
                        // NOT consume the next token, so a following flag
                        // (e.g. `--delta`) still applies.
                        _ => parsed.fail_on_regression_invalid = true,
                    }
                }
                _ => {}
            }
            i += 1;
        }
        parsed
    }

    /// Generate the Stock domain at the configured scale.
    pub fn stock(&self) -> GeneratedDomain {
        generate(&stock_config(self.seed).scaled(self.scale, self.days))
    }

    /// Generate the Flight domain at the configured scale.
    pub fn flight(&self) -> GeneratedDomain {
        generate(&flight_config(self.seed).scaled(self.scale, self.days))
    }

    /// True when any of `--seed`/`--scale`/`--days` was passed explicitly
    /// (the golden `--check`/`--bless` modes refuse overrides).
    pub fn scale_overridden(&self) -> bool {
        self.scale_explicit || self.days_explicit || self.seed_explicit
    }

    /// The named stress scenario, at its golden defaults or with the
    /// explicitly passed overrides applied. For scenarios, `--scale` is the
    /// object multiplier over the paper's 1000 objects (so `--scale 10`
    /// reaches ~160k items/day) and `--days` is an **absolute** day count.
    pub fn scenario(&self, name: &str) -> Option<Scenario> {
        let mut scenario = by_name(name)?;
        if self.seed_explicit {
            scenario = scenario.with_seed(self.seed);
        }
        if self.scale_explicit {
            scenario = scenario.scaled_to(self.scale);
        }
        if self.days_explicit {
            scenario = scenario.over_days(self.days.round().max(1.0) as u32);
        }
        Some(scenario)
    }

    /// Generate both domains and print a short banner.
    pub fn both_domains(&self, experiment: &str) -> (GeneratedDomain, GeneratedDomain) {
        println!(
            "[{experiment}] scale={} days={} seed={}  (pass --scale 1.0 --days 1.0 for paper scale)\n",
            self.scale, self.days, self.seed
        );
        (self.stock(), self.flight())
    }
}

/// Format a `(measured, paper)` pair for the report tables.
pub fn vs_paper(measured: f64, paper: f64) -> (String, String) {
    (format!("{measured:.3}"), format!("{paper:.3}"))
}

/// The long-row capacity world the `vote_plane` kernel gate re-runs on: the
/// `scale10_capacity` scenario (extra high-coverage sources lengthen every
/// item's provider row to ~75+ entries) at the given object scale over one
/// day. At `scale = 10.0` this is the full ~160k-items/day workload; benches
/// use a smaller scale to keep setup time sane.
pub fn long_row_scenario(scale: f64) -> Scenario {
    by_name("scale10_capacity")
        .expect("scale10_capacity is a registered scenario")
        .scaled_to(scale)
        .over_days(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_reduced_scale() {
        let args = ExpArgs::default();
        assert!(args.scale < 1.0);
        assert_eq!(args.seed, 2012);
        let stock = generate(&stock_config(args.seed).scaled(0.01, 0.1));
        assert_eq!(stock.config.domain, "stock");
    }

    #[test]
    fn vs_paper_formats_three_decimals() {
        assert_eq!(vs_paper(0.9081, 0.908), ("0.908".into(), "0.908".into()));
    }

    fn args_of(parts: &[&str]) -> Vec<String> {
        std::iter::once("exp_test")
            .chain(parts.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn delta_and_regression_flags_parse() {
        let parsed = ExpArgs::from_args(&args_of(&[
            "--delta",
            "--fail-on-regression",
            "7.5",
            "--scale",
            "0.5",
        ]));
        assert!(parsed.delta);
        assert_eq!(parsed.fail_on_regression, Some(7.5));
        assert_eq!(parsed.scale, 0.5);

        let defaults = ExpArgs::from_args(&args_of(&[]));
        assert!(!defaults.delta);
        assert_eq!(defaults.fail_on_regression, None);
        assert!(!defaults.fail_on_regression_invalid);
    }

    /// `--repeats` defaults to 3 medians-worth of passes, parses an explicit
    /// count, and clamps 0 to 1 (a zero-repeat run would report nothing).
    #[test]
    fn repeats_flag_parses_and_clamps() {
        assert_eq!(ExpArgs::from_args(&args_of(&[])).repeats, 3);
        assert_eq!(ExpArgs::from_args(&args_of(&["--repeats", "5"])).repeats, 5);
        assert_eq!(ExpArgs::from_args(&args_of(&["--repeats", "0"])).repeats, 1);
        // Malformed count keeps the default and does not swallow a flag.
        let bad = ExpArgs::from_args(&args_of(&["--repeats", "--delta"]));
        assert_eq!(bad.repeats, 3);
        assert!(bad.delta);
    }

    /// The regression gate must fail **closed**: a malformed or missing PCT
    /// is flagged as invalid (the gate binaries exit non-zero on it), and
    /// the bad token is not swallowed — a following flag still applies.
    #[test]
    fn malformed_regression_threshold_is_flagged_not_ignored() {
        let bad = ExpArgs::from_args(&args_of(&["--fail-on-regression", "5%"]));
        assert_eq!(bad.fail_on_regression, None);
        assert!(bad.fail_on_regression_invalid);

        // The next flag is not consumed as the PCT value.
        let chained = ExpArgs::from_args(&args_of(&["--fail-on-regression", "--delta"]));
        assert_eq!(chained.fail_on_regression, None);
        assert!(chained.fail_on_regression_invalid);
        assert!(chained.delta, "--delta must survive the malformed gate flag");

        // Trailing flag with no value at all.
        let missing = ExpArgs::from_args(&args_of(&["--fail-on-regression"]));
        assert!(missing.fail_on_regression_invalid);

        // Non-finite thresholds are rejected too.
        let nan = ExpArgs::from_args(&args_of(&["--fail-on-regression", "NaN"]));
        assert_eq!(nan.fail_on_regression, None);
        assert!(nan.fail_on_regression_invalid);
    }

    #[test]
    fn scenario_flags_parse() {
        let parsed = ExpArgs::from_args(&args_of(&[
            "--scenario",
            "copier_ring",
            "--check",
            "--golden-dir",
            "tests/golden",
        ]));
        assert_eq!(parsed.scenario.as_deref(), Some("copier_ring"));
        assert!(parsed.check);
        assert!(!parsed.bless);
        assert_eq!(parsed.golden_dir, "tests/golden");
        assert!(!parsed.scale_overridden());

        // Valueless --scenario / --golden-dir must not swallow a flag.
        let chained = ExpArgs::from_args(&args_of(&["--scenario", "--bless"]));
        assert_eq!(chained.scenario, None);
        assert!(chained.bless);
        let dir = ExpArgs::from_args(&args_of(&["--golden-dir", "--check"]));
        assert_eq!(dir.golden_dir, "tests/golden");
        assert!(dir.check);
    }

    #[test]
    fn explicit_scale_overrides_are_tracked_and_applied() {
        let defaults = ExpArgs::from_args(&args_of(&[]));
        assert!(!defaults.scale_overridden());
        let golden = defaults.scenario("copier_ring").unwrap();
        assert_eq!(golden, datagen::scenario::by_name("copier_ring").unwrap());

        let scaled = ExpArgs::from_args(&args_of(&["--scale", "10", "--days", "2"]));
        assert!(scaled.scale_overridden());
        let s = scaled.scenario("scale10_capacity").unwrap();
        assert_eq!(s.config().num_objects, 10_000);
        assert_eq!(s.num_days, 2);
        assert!(scaled.scenario("nonsense").is_none());
    }

    #[test]
    fn long_row_scenario_lengthens_rows() {
        let s = long_row_scenario(0.5);
        let cfg = s.config();
        assert_eq!(cfg.num_objects, 500);
        assert_eq!(cfg.num_days, 1);
        assert_eq!(cfg.num_sources(), 80);
    }

    /// `--compare` must not swallow a following flag as its file path.
    #[test]
    fn compare_never_consumes_a_following_flag() {
        let chained = ExpArgs::from_args(&args_of(&["--compare", "--delta"]));
        assert_eq!(chained.compare, None);
        assert!(chained.delta, "--delta must survive the valueless --compare");

        let ok = ExpArgs::from_args(&args_of(&["--compare", "BENCH_fig12.json", "--delta"]));
        assert_eq!(ok.compare.as_deref(), Some("BENCH_fig12.json"));
        assert!(ok.delta);

        let trailing = ExpArgs::from_args(&args_of(&["--compare"]));
        assert_eq!(trailing.compare, None);
    }
}
