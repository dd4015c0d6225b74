//! Data-quality profiling: every measurement of Section 3 of the paper.
//!
//! * [`redundancy`] — object and data-item redundancy (Figures 2 and 3);
//! * [`coverage`] — attribute-coverage distribution (Figure 1);
//! * [`inconsistency`] — number of values, entropy (Equation 1), and
//!   deviation (Equation 2) per item and per attribute (Figure 4, Table 3);
//! * [`dominance`] — dominance factors and the precision of dominant values
//!   (Figure 7, Figure 8(c));
//! * [`accuracy`] — source accuracy, coverage, and stability over time
//!   (Figure 8(a)/(b), Table 4);
//! * [`reasons`] — attribution of inconsistency to reasons (Figure 6);
//! * [`copying`] — commonality statistics of copy groups (Table 5);
//! * [`alloc`] — allocation counting for allocation-budget tests.

pub mod accuracy;
pub mod alloc;
pub mod copying;
pub mod coverage;
pub mod dominance;
pub mod inconsistency;
pub mod reasons;
pub mod redundancy;

pub use accuracy::{
    accuracy_histogram, accuracy_over_time, accuracy_over_time_from_daily, authority_report,
    source_accuracies, source_accuracy, SourceAccuracy, SourceAccuracyOverTime,
};
pub use alloc::{allocation_count, CountingAllocator};
pub use copying::{all_copy_group_stats, copy_group_stats, value_commonality, CopyGroupStats};
pub use coverage::{attribute_coverage_cdf, fraction_covered_by, CoveragePoint};
pub use dominance::{
    dominance_profile, dominant_precision_over_time, dominant_value_precision, item_dominances,
    DominanceBucket, DominanceProfile, ItemDominance,
};
pub use inconsistency::{
    all_item_inconsistencies, attribute_inconsistency, dominant_value, item_inconsistency,
    snapshot_inconsistency, AttributeInconsistency, InconsistencyDistributions, ItemInconsistency,
};
pub use reasons::{inconsistency_reasons, ReasonShare};
pub use redundancy::{
    item_redundancies, item_redundancy_cdf, object_redundancies, object_redundancy_cdf,
    redundancy_summary, CdfPoint, RedundancySummary,
};
