//! Shared accounting for the delta-engine evaluation runners.
//!
//! Both temporal runners ([`crate::over_time::evaluate_over_time_delta`] and
//! [`crate::incremental::incremental_recall_delta`]) drive one
//! [`fusion::DeltaEngine`] across a sequence of snapshots; this module
//! aggregates the engine's per-step reports into the summary the `--delta`
//! bench legs print (run and cache-hit counts, fall-back counts, mean dirty
//! fraction, preparation wall time).

use fusion::delta::{AdvanceReport, RunReport};
use std::time::Duration;

/// Aggregated delta-engine activity over one runner invocation.
#[derive(Debug, Clone, Default)]
pub struct DeltaUsage {
    /// Snapshots advanced through (including the cold first one).
    pub advances: usize,
    /// Advances that fell back to a full re-preparation (first day included).
    pub full_refreshes: usize,
    /// Advances whose delta was empty (preparation skipped entirely).
    pub identical_days: usize,
    /// Run calls made (cache hits included).
    pub runs: usize,
    /// Run calls answered from the per-method cache without fusing.
    pub cache_hits: usize,
    /// Sum of per-advance dirty fractions over the non-first advances.
    pub dirty_fraction_sum: f64,
    /// Number of non-first advances folded into `dirty_fraction_sum`.
    pub dirty_steps: usize,
    /// Wall-clock time spent in `advance` (diff + partial refill).
    pub prepare: Duration,
}

impl DeltaUsage {
    /// Fold one [`AdvanceReport`] into the summary.
    pub fn record_advance(&mut self, report: &AdvanceReport) {
        self.advances += 1;
        if report.full_refresh {
            self.full_refreshes += 1;
        }
        if report.identical {
            self.identical_days += 1;
        }
        if !report.first_day {
            self.dirty_fraction_sum += report.dirty_fraction;
            self.dirty_steps += 1;
        }
        self.prepare += report.prepare;
    }

    /// Fold one [`RunReport`] into the summary.
    pub fn record_run(&mut self, report: &RunReport) {
        self.runs += 1;
        if report.cache_hit {
            self.cache_hits += 1;
        }
    }

    /// Fold another summary into this one (component-wise sums). The online
    /// service aggregates per-seal usage into its cumulative `ServiceStats`
    /// with this.
    pub fn merge(&mut self, other: &DeltaUsage) {
        self.advances += other.advances;
        self.full_refreshes += other.full_refreshes;
        self.identical_days += other.identical_days;
        self.runs += other.runs;
        self.cache_hits += other.cache_hits;
        self.dirty_fraction_sum += other.dirty_fraction_sum;
        self.dirty_steps += other.dirty_steps;
        self.prepare += other.prepare;
    }

    /// Mean dirty fraction over the non-first advances (0 when none).
    pub fn mean_dirty_fraction(&self) -> f64 {
        if self.dirty_steps == 0 {
            0.0
        } else {
            self.dirty_fraction_sum / self.dirty_steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_accumulates_reports() {
        let mut usage = DeltaUsage::default();
        usage.record_advance(&AdvanceReport {
            day: 0,
            first_day: true,
            identical: false,
            full_refresh: true,
            dirty_items: 10,
            removed_items: 0,
            dirty_sources: 3,
            added_sources: 3,
            removed_sources: 0,
            dirty_fraction: 1.0,
            prepare: Duration::from_millis(2),
        });
        usage.record_advance(&AdvanceReport {
            day: 1,
            first_day: false,
            identical: false,
            full_refresh: false,
            dirty_items: 1,
            removed_items: 0,
            dirty_sources: 1,
            added_sources: 0,
            removed_sources: 0,
            dirty_fraction: 0.1,
            prepare: Duration::from_millis(1),
        });
        usage.record_run(&RunReport { cache_hit: false });
        usage.record_run(&RunReport { cache_hit: true });
        assert_eq!(usage.advances, 2);
        assert_eq!(usage.full_refreshes, 1);
        assert_eq!(usage.runs, 2);
        assert_eq!(usage.cache_hits, 1);
        assert!((usage.mean_dirty_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(usage.prepare, Duration::from_millis(3));

        // Merging a summary into an empty one reproduces it; merging it into
        // itself doubles every counter.
        let mut merged = DeltaUsage::default();
        merged.merge(&usage);
        assert_eq!(merged.advances, usage.advances);
        assert_eq!(merged.prepare, usage.prepare);
        merged.merge(&usage);
        assert_eq!(merged.advances, 2 * usage.advances);
        assert_eq!(merged.runs, 2 * usage.runs);
        assert_eq!(merged.cache_hits, 2 * usage.cache_hits);
        assert_eq!(merged.dirty_steps, 2 * usage.dirty_steps);
        assert!((merged.mean_dirty_fraction() - usage.mean_dirty_fraction()).abs() < 1e-12);
    }
}
