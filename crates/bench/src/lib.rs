//! Shared helpers for the experiment binaries (`exp_*`) and Criterion benches
//! that reproduce every table and figure of the paper.
//!
//! The README's "Reproducing the paper's tables and figures" section is the
//! experiment index (which binary regenerates which table/figure); each
//! binary prints the paper's figures next to the measured ones.

pub mod compare;
pub mod json;
pub mod report;
pub mod setup;

pub use compare::{
    baseline_usability, fig12_deltas, fig12_regressions, print_fig12_comparison, same_scale,
    Fig12Delta,
};
pub use json::Json;
pub use report::{format_percent, Table};
pub use setup::{long_row_scenario, vs_paper, ExpArgs};
