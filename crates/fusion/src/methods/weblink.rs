//! Web-link based methods: HUB, AVGLOG, INVEST, POOLEDINVEST.
//!
//! Reproduces the "Web-link based" category of the paper's Table 6 (rows
//! 2-5 of Table 7); the discussion of their trust deviation is in
//! Section 4.1 and Figure 12 times them.
//!
//! These methods are inspired by measuring web-page authority from link
//! analysis (Kleinberg's hubs and authorities) and by the fact-finding
//! framework of Pasternack & Roth. Source trust and value votes reinforce
//! each other; normalization (dividing by the maximum) keeps the scores from
//! growing without bound — except for POOLEDINVEST, whose per-item linear
//! rescaling makes normalization unnecessary (and whose trust scale therefore
//! drifts far away from sampled accuracies, reproducing the large trust
//! deviation the paper reports for it).

use crate::methods::{effective_rounds, initial_trust, FusionMethod};
use crate::problem::FusionProblem;
use crate::types::{normalize_by_max, FusionOptions, FusionResult, FusionScratch, TrustEstimate};
use std::time::Instant;

/// HUB (Kleinberg-style sums): a value's vote is the sum of its providers'
/// trust; a source's trust is the sum of its values' votes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hub;

/// AVGLOG: like HUB but dampens the effect of the number of provided values
/// by averaging the votes and scaling by the logarithm of the claim count.
#[derive(Debug, Clone, Copy, Default)]
pub struct AvgLog;

/// INVEST: a source invests its trust uniformly among its claims; value votes
/// grow non-linearly in the invested amount and are paid back proportionally.
#[derive(Debug, Clone, Copy)]
pub struct Invest {
    /// Non-linear vote growth exponent (1.2 in Pasternack & Roth).
    pub growth: f64,
}

impl Default for Invest {
    fn default() -> Self {
        Self { growth: 1.2 }
    }
}

/// POOLEDINVEST: INVEST with the votes of each item linearly rescaled so that
/// they sum to the total investment on the item.
#[derive(Debug, Clone, Copy)]
pub struct PooledInvest {
    /// Non-linear vote growth exponent (1.4 in Pasternack & Roth).
    pub growth: f64,
}

impl Default for PooledInvest {
    fn default() -> Self {
        Self { growth: 1.4 }
    }
}

impl FusionMethod for Hub {
    fn name(&self) -> String {
        "Hub".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        let start = Instant::now();
        let mut trust = initial_trust(problem, options, 1.0);
        let max_rounds = effective_rounds(options);
        let votes = &mut scratch.plane;
        // Fused refill-accumulate: the plane is shaped for `problem` and
        // filled with the first round's votes in one pass (no intermediate
        // zero-fill); subsequent rounds re-accumulate at the loop tail only
        // when another iteration actually runs.
        votes.refill_accumulate(problem, &trust);
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            normalize_by_max(votes.values_mut());
            let mut new_trust: Vec<f64> = problem
                .claims_by_source()
                .map(|claims| {
                    claims
                        .iter()
                        .map(|&(i, c)| votes.get(i as usize, c as usize))
                        .sum()
                })
                .collect();
            normalize_by_max(&mut new_trust);
            let new_estimate = TrustEstimate {
                overall: new_trust,
                per_attr: None,
            };
            let change = new_estimate.max_change(&trust);
            trust = new_estimate;
            if change < options.epsilon || rounds >= max_rounds {
                break;
            }
            votes.accumulate_weighted_votes(problem, &trust);
        }
        let mut selection = Vec::new();
        votes.argmax_into(&mut selection);
        FusionResult::from_selection(&self.name(), problem, selection, trust, rounds, start)
    }
}

impl FusionMethod for AvgLog {
    fn name(&self) -> String {
        "AvgLog".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        let start = Instant::now();
        let mut trust = initial_trust(problem, options, 1.0);
        let max_rounds = effective_rounds(options);
        let votes = &mut scratch.plane;
        // Same fused refill-accumulate structure as HUB above.
        votes.refill_accumulate(problem, &trust);
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            normalize_by_max(votes.values_mut());
            let mut new_trust = vec![0.0; problem.num_sources()];
            for (slot, claims) in new_trust.iter_mut().zip(problem.claims_by_source()) {
                if claims.is_empty() {
                    continue;
                }
                let avg: f64 = claims
                    .iter()
                    .map(|&(i, c)| votes.get(i as usize, c as usize))
                    .sum::<f64>()
                    / claims.len() as f64;
                *slot = (1.0 + claims.len() as f64).ln() * avg;
            }
            normalize_by_max(&mut new_trust);
            let new_estimate = TrustEstimate {
                overall: new_trust,
                per_attr: None,
            };
            let change = new_estimate.max_change(&trust);
            trust = new_estimate;
            if change < options.epsilon || rounds >= max_rounds {
                break;
            }
            votes.accumulate_weighted_votes(problem, &trust);
        }
        let mut selection = Vec::new();
        votes.argmax_into(&mut selection);
        FusionResult::from_selection(&self.name(), problem, selection, trust, rounds, start)
    }
}

/// Shared INVEST / POOLEDINVEST iteration.
fn run_invest(
    name: &str,
    growth: f64,
    pooled: bool,
    problem: &FusionProblem,
    options: &FusionOptions,
    scratch: &mut FusionScratch,
) -> FusionResult {
    let start = Instant::now();
    let mut trust = initial_trust(problem, options, 1.0);
    let cand_offsets = problem.item_cand_offsets();
    // Reusable buffers: the vote plane, the per-source investment, the
    // per-item non-linear-growth scratch, and the per-candidate total
    // investment the pay-back divides by.
    let FusionScratch {
        plane: votes,
        source_f: invested,
        cand_a: grown,
        cand_b: total_investment,
        ..
    } = scratch;
    votes.reset_for(problem);
    invested.clear();
    invested.resize(problem.num_sources(), 0.0);
    grown.clear();
    let mut rounds = 0usize;
    for _ in 0..effective_rounds(options) {
        rounds += 1;
        // Invested amount per source: trust spread uniformly over its claims.
        for (s, claims) in problem.claims_by_source().enumerate() {
            invested[s] = if claims.is_empty() {
                0.0
            } else {
                trust.overall[s] / claims.len() as f64
            };
        }
        // Accumulated investment per candidate.
        for i in 0..votes.num_items() {
            let item = problem.item(i);
            for (slot, cand) in votes.item_mut(i).iter_mut().zip(item.candidates()) {
                *slot = cand
                    .providers()
                    .iter()
                    .map(|&s| invested[s as usize])
                    .sum::<f64>();
            }
        }
        // The pay-back below divides by exactly these sums (same providers,
        // same order), so keep them before growth overwrites the plane.
        total_investment.clear();
        total_investment.extend_from_slice(votes.values());
        // Non-linear growth, optionally rescaled per item so the votes sum to
        // the total investment on the item.
        for i in 0..votes.num_items() {
            let item_votes = votes.item_mut(i);
            let total: f64 = item_votes.iter().sum();
            grown.clear();
            grown.resize(item_votes.len(), 0.0);
            for (g, h) in grown.iter_mut().zip(item_votes.iter()) {
                *g = h.powf(growth);
            }
            let grown_total: f64 = grown.iter().sum();
            for (slot, g) in item_votes.iter_mut().zip(grown.iter()) {
                *slot = if pooled {
                    if grown_total > 0.0 {
                        g / grown_total * total
                    } else {
                        0.0
                    }
                } else {
                    *g
                };
            }
        }

        // Pay the votes back to the investors, proportionally to their share
        // of the investment, each source summing its claims in claim order.
        // The sum stays in a local: accumulating through the `&mut` slot
        // makes every claim a store and reload of it.
        let mut new_trust = vec![0.0; problem.num_sources()];
        let grown_votes = votes.values();
        for (s, slot) in new_trust.iter_mut().enumerate() {
            let mut paid = 0.0;
            for &(i, c) in problem.claims(s) {
                let g = cand_offsets[i as usize] as usize + c as usize;
                if total_investment[g] > 0.0 {
                    paid += grown_votes[g] * invested[s] / total_investment[g];
                }
            }
            *slot = paid;
        }
        if !pooled {
            normalize_by_max(&mut new_trust);
        }
        let new_estimate = TrustEstimate {
            overall: new_trust,
            per_attr: None,
        };
        let change = new_estimate.max_change(&trust);
        trust = new_estimate;
        if change < options.epsilon {
            break;
        }
    }
    let mut selection = Vec::new();
    votes.argmax_into(&mut selection);
    FusionResult::from_selection(name, problem, selection, trust, rounds, start)
}

impl FusionMethod for Invest {
    fn name(&self) -> String {
        "Invest".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        run_invest(&self.name(), self.growth, false, problem, options, scratch)
    }
}

impl FusionMethod for PooledInvest {
    fn name(&self) -> String {
        "PooledInvest".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        run_invest(&self.name(), self.growth, true, problem, options, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{precision, trust_sensitive_snapshot};

    fn check_method(method: &dyn FusionMethod, min_precision: f64) {
        let (snap, gold) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let result = method.run(&problem, &FusionOptions::standard());
        assert!(result.rounds >= 1);
        assert_eq!(result.selected.len(), problem.num_items());
        let p = precision(&result, &snap, &gold);
        assert!(
            p >= min_precision,
            "{} precision {p} below {min_precision}",
            method.name()
        );
        // Trust scores are finite and non-negative.
        for t in &result.trust.overall {
            assert!(t.is_finite() && *t >= 0.0);
        }
    }

    #[test]
    fn hub_runs_and_is_at_least_as_good_as_majority() {
        check_method(&Hub, 0.8);
    }

    #[test]
    fn avglog_runs() {
        check_method(&AvgLog, 0.8);
    }

    #[test]
    fn invest_runs() {
        check_method(&Invest::default(), 0.6);
    }

    #[test]
    fn pooledinvest_runs() {
        check_method(&PooledInvest::default(), 0.6);
    }

    #[test]
    fn input_trust_short_circuits_iteration() {
        let (snap, gold) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        // Oracle trust: s0 perfect, s1/s2 mediocre — the minority-but-correct
        // value on item 1 should win for HUB with this input.
        let opts = FusionOptions::standard().with_input_trust(vec![1.0, 0.3, 0.3]);
        let result = Hub.run(&problem, &opts);
        assert_eq!(result.rounds, 1);
        let p = precision(&result, &snap, &gold);
        assert!(p > 0.99, "oracle-trust HUB precision {p}");
    }

    #[test]
    fn pooled_invest_trust_scale_is_not_normalized() {
        let (snap, _) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let pooled = PooledInvest::default().run(&problem, &FusionOptions::standard());
        let max_trust = pooled.trust.overall.iter().cloned().fold(0.0, f64::max);
        // Unlike the normalized methods, POOLEDINVEST trust is on the scale
        // of vote mass, not probabilities.
        assert!(max_trust > 1.0, "max trust {max_trust}");
    }
}
