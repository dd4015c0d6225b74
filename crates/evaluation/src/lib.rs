//! Evaluation harness for the fusion experiments (Section 4 of the paper).
//!
//! * [`metrics`] — precision/recall against a gold standard, trustworthiness
//!   deviation (Equation 4) and difference;
//! * [`runner`] — run one or all fusion methods on a snapshot with and
//!   without sampled trust (Table 7, Figure 12), sequentially on one
//!   context or fanned across CPU cores over any number of collection days
//!   ([`evaluate_days`]);
//! * [`compare`] — pairwise method comparison: errors fixed / introduced
//!   (Table 8);
//! * [`incremental`] — recall as sources are added in recall order
//!   (Figure 9), cold per prefix or prefix-over-prefix on one warm
//!   [`fusion::DeltaEngine`];
//! * [`delta_usage`] — aggregated delta-engine activity (re-fused item
//!   counts, fall-backs, cache hits) reported by the `--delta` bench legs;
//! * [`breakdown`] — precision vs. dominance factor (Figure 10);
//! * [`errors`] — error analysis of a method's mistakes (Figure 11);
//! * [`over_time`] — precision over all collection days (Table 9), cold
//!   one day per task or day-over-day on one warm delta engine;
//! * [`scenario`] — golden-metrics rows for the adversarial stress
//!   scenarios (per-method precision + copy-detection hit rates).

pub mod breakdown;
pub mod compare;
pub mod delta_usage;
pub mod errors;
pub mod incremental;
pub mod metrics;
pub mod over_time;
pub mod runner;
pub mod scenario;

pub use breakdown::{precision_by_dominance, DominancePrecisionPoint};
pub use compare::{compare_methods, MethodComparison, PAPER_METHOD_PAIRS};
pub use delta_usage::DeltaUsage;
pub use errors::{analyze_errors, ErrorAnalysis, ErrorCause};
pub use incremental::{
    incremental_recall, incremental_recall_delta, IncrementalPoint, IncrementalSeries,
};
pub use metrics::{
    precision_recall, sampled_trust, trust_deviation_and_difference, PrecisionRecall,
};
pub use over_time::{evaluate_over_time, evaluate_over_time_delta, MethodOverTime};
pub use runner::{
    copy_report_to_dense, evaluate_all_methods, evaluate_days, evaluate_method, same_results,
    DayEvaluation, EvaluationContext, MethodEvaluation,
};
pub use scenario::{
    evaluate_scenario_day, render_golden_table, ScenarioMethodRow, ScenarioOutcome,
};
