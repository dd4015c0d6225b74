//! VOTE: the baseline strategy of taking the dominant value.
//!
//! Reproduces the "Baseline" category of the paper's Table 6 and the first
//! row of Table 7; its precision equals the dominant-value precision studied
//! in Section 3.2 (Figure 7).

use crate::methods::FusionMethod;
use crate::problem::FusionProblem;
use crate::types::{FusionOptions, FusionResult, FusionScratch, TrustEstimate};
use std::time::Instant;

/// The baseline VOTE strategy: for every data item select the value provided
/// by the largest number of sources. Its precision is by definition the
/// precision of the dominant values (Section 3.2 / Figure 7 of the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct Vote;

impl FusionMethod for Vote {
    fn name(&self) -> String {
        "Vote".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        _options: &FusionOptions,
        _scratch: &mut FusionScratch,
    ) -> FusionResult {
        let start = Instant::now();
        // Candidates are ordered by descending support, so the dominant value
        // is always candidate 0.
        let selection = vec![0usize; problem.num_items()];

        // VOTE does not estimate trust; report each source's agreement with
        // the dominant values, which is the natural a-posteriori reading.
        let overall = problem
            .claims_by_source()
            .map(|claims| {
                let agree = claims.iter().filter(|&&(_item, cand)| cand == 0).count();
                if claims.is_empty() {
                    0.0
                } else {
                    agree as f64 / claims.len() as f64
                }
            })
            .collect();

        FusionResult::from_selection(
            &self.name(),
            problem,
            selection,
            TrustEstimate {
                overall,
                per_attr: None,
            },
            0,
            start,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{precision, trust_sensitive_snapshot};

    #[test]
    fn vote_selects_dominant_values() {
        let (snap, gold) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let result = Vote.run(&problem, &FusionOptions::standard());
        assert_eq!(result.method, "Vote");
        assert_eq!(result.rounds, 0);
        // The majority is wrong on item 1, so VOTE scores 4/5.
        let p = precision(&result, &snap, &gold);
        assert!((p - 0.8).abs() < 1e-12, "precision {p}");
    }

    #[test]
    fn vote_trust_reflects_agreement_with_majority() {
        let (snap, _) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let result = Vote.run(&problem, &FusionOptions::standard());
        // Source 2 disagrees with the majority on item 0 only.
        let s2 = problem.source_index(datamodel::SourceId(2)).unwrap();
        assert!(result.trust.overall[s2] < 1.0);
    }
}
