//! IR-based methods: COSINE, 2-ESTIMATES, 3-ESTIMATES (Galland et al.,
//! WSDM 2010).
//!
//! Reproduces the "IR based" category of the paper's Table 6 (rows 6-8 of
//! Table 7); Section 4.1 discusses their sensitivity to the complement vote.
//!
//! These methods treat a source's claims as a ±1 vector over the candidate
//! values of the items it covers: +1 for the value it provides, −1 for the
//! competing values (the "complement vote"). COSINE measures source trust as
//! the cosine similarity between that vector and the current truth estimate;
//! 2-ESTIMATES averages complement-aware votes and applies an affine
//! rescaling of all scores to `[0, 1]`; 3-ESTIMATES additionally estimates a
//! per-item difficulty that dampens votes on hard items.

use crate::chunking::{self, ChunkPlans};
use crate::methods::{effective_rounds, initial_trust, FusionMethod};
use crate::problem::FusionProblem;
use crate::types::{rescale_to_unit, FusionOptions, FusionResult, FusionScratch, TrustEstimate};
use std::time::Instant;

/// COSINE: source trust is the cosine similarity between the source's ±1
/// claim vector and the current estimated truth, with damping between rounds.
#[derive(Debug, Clone, Copy)]
pub struct Cosine {
    /// Weight of the previous round's trust in the damped update.
    pub damping: f64,
}

impl Default for Cosine {
    fn default() -> Self {
        Self { damping: 0.3 }
    }
}

/// 2-ESTIMATES: complement votes averaged over providers with affine
/// normalization of votes and trust to `[0, 1]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoEstimates;

/// 3-ESTIMATES: 2-ESTIMATES plus a per-item difficulty estimate that scales
/// how much a vote on that item is worth.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeEstimates;

impl FusionMethod for Cosine {
    fn name(&self) -> String {
        "Cosine".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        let start = Instant::now();
        let mut trust = initial_trust(problem, options, 0.8);
        let plans = ChunkPlans::from_options(options, problem);
        let (item_plan, source_plan) = ChunkPlans::split(&plans);
        let estimates = &mut scratch.plane;
        estimates.reset_for(problem);
        let mut rounds = 0usize;
        for _ in 0..effective_rounds(options) {
            rounds += 1;
            // Truth estimate per candidate in [-1, 1]: supporters minus
            // opponents, normalized by the total trust on the item.
            let trust_r = &trust;
            chunking::for_each_item(
                estimates,
                item_plan,
                &mut (),
                || (),
                |i, out, _| {
                    let item = problem.item(i);
                    let total: f64 = item
                        .providers()
                        .iter()
                        .map(|&s| trust_r.overall[s as usize])
                        .sum();
                    for (c, cand) in item.candidates().enumerate() {
                        let support: f64 = cand
                            .providers()
                            .iter()
                            .map(|&s| trust_r.overall[s as usize])
                            .sum();
                        let oppose = total - support;
                        out[c] = if total > 0.0 {
                            (support - oppose) / total
                        } else {
                            0.0
                        };
                    }
                },
            );
            // Cosine similarity between each source's ±1 vector and the
            // estimates at the positions the source covers.
            let mut new_trust = vec![0.0; problem.num_sources()];
            let estimates_r: &_ = estimates;
            chunking::for_each_slot(&mut new_trust, source_plan, |s, slot| {
                let mut dot = 0.0_f64;
                let mut claim_norm = 0.0_f64;
                let mut est_norm = 0.0_f64;
                for &(i, c) in problem.claims(s) {
                    for (c2, &e) in estimates_r.item(i as usize).iter().enumerate() {
                        let claim_entry = if c2 == c as usize { 1.0 } else { -1.0 };
                        dot += claim_entry * e;
                        claim_norm += 1.0;
                        est_norm += e * e;
                    }
                }
                let denom = claim_norm.sqrt() * est_norm.sqrt();
                let cosine = if denom > 1e-12 { dot / denom } else { 0.0 };
                *slot =
                    self.damping * trust_r.overall[s] + (1.0 - self.damping) * cosine.clamp(0.0, 1.0);
            });
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
        chunking::argmax_plane_into(estimates, item_plan, &mut selection);
        FusionResult::from_selection(&self.name(), problem, selection, trust, rounds, start)
    }
}

/// Shared 2-ESTIMATES / 3-ESTIMATES iteration (`difficulty = true` enables the
/// third estimate).
fn run_estimates(
    name: &str,
    difficulty: bool,
    problem: &FusionProblem,
    options: &FusionOptions,
    scratch: &mut FusionScratch,
) -> FusionResult {
    let start = Instant::now();
    let mut trust = initial_trust(problem, options, 0.8);
    let plans = ChunkPlans::from_options(options, problem);
    let (item_plan, source_plan) = ChunkPlans::split(&plans);
    let num_sources = problem.num_sources();
    let FusionScratch {
        plane: votes,
        item_f: hardness,
        providers: owner,
        ..
    } = scratch;
    votes.reset_for(problem);
    // Per-source candidate lookup for the item being voted on: a source
    // claims at most one candidate per item (checked when the problem is
    // built), so `owner[s] == c` exactly when `s` provides candidate `c`.
    // Each item rewrites the slots of all its providers before reading any,
    // so stale slots from other items are never read.
    owner.clear();
    owner.resize(num_sources, u32::MAX);
    // Per-item difficulty in [0, 1]; 0 = easy (votes count fully).
    hardness.clear();
    hardness.resize(problem.num_items(), 0.5);
    let mut rounds = 0usize;
    for _ in 0..effective_rounds(options) {
        rounds += 1;
        // Complement-aware vote: providers contribute their (difficulty-
        // dampened) trust, non-providers contribute their distrust.
        let trust_r = &trust;
        let hardness_r: &[f64] = hardness;
        chunking::for_each_item(
            votes,
            item_plan,
            owner,
            || vec![u32::MAX; num_sources],
            |i, out, owner: &mut Vec<u32>| {
                let item = problem.item(i);
                let dampen = |t: f64| -> f64 {
                    if difficulty {
                        t * (1.0 - hardness_r[i]) + 0.5 * hardness_r[i]
                    } else {
                        t
                    }
                };
                for (c, cand) in item.candidates().enumerate() {
                    for &s in cand.providers() {
                        owner[s as usize] = c as u32;
                    }
                }
                // Each candidate sums over the item's providers in order;
                // walking providers in the outer loop keeps that order per
                // candidate and lets the candidates' sums overlap.
                out.fill(0.0);
                for &s in item.providers() {
                    let t = dampen(trust_r.overall[s as usize]);
                    let own = owner[s as usize] as usize;
                    for (c, vote) in out.iter_mut().enumerate() {
                        *vote += if c == own { t } else { 1.0 - t };
                    }
                }
                let n = item.num_providers().max(1) as f64;
                for vote in out.iter_mut() {
                    *vote /= n;
                }
            },
        );
        // Affine rescaling of all votes to [0, 1] — the plane is already the
        // flat item-major vector the old code materialized each round; the
        // chunked variant splits into the exact global min/max reduction and
        // a per-chunk elementwise pass.
        chunking::rescale_plane_to_unit(votes, item_plan);
        // Difficulty update: items whose best value is uncertain are hard.
        // Per item, so the item plan chunks it directly.
        if difficulty {
            let votes_r: &_ = votes;
            chunking::for_each_slot(hardness, item_plan, |i, h| {
                let best = votes_r.item(i).iter().cloned().fold(0.0, f64::max);
                *h = (1.0 - best).clamp(0.0, 1.0);
            });
        }
        // Trust update: average over claimed values' votes and the complement
        // of the competing values' votes; then affine rescaling.
        let mut new_trust = vec![0.0; problem.num_sources()];
        let votes_r: &_ = votes;
        chunking::for_each_slot(&mut new_trust, source_plan, |s, slot| {
            let mut acc = 0.0;
            let mut count = 0usize;
            for &(i, c) in problem.claims(s) {
                for (c2, &v) in votes_r.item(i as usize).iter().enumerate() {
                    if c2 == c as usize {
                        acc += v;
                    } else {
                        acc += 1.0 - v;
                    }
                    count += 1;
                }
            }
            *slot = if count == 0 { 0.5 } else { acc / count as f64 };
        });
        rescale_to_unit(&mut new_trust);
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
    chunking::argmax_plane_into(votes, item_plan, &mut selection);
    FusionResult::from_selection(name, problem, selection, trust, rounds, start)
}

impl FusionMethod for TwoEstimates {
    fn name(&self) -> String {
        "2-Estimates".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        run_estimates(&self.name(), false, problem, options, scratch)
    }
}

impl FusionMethod for ThreeEstimates {
    fn name(&self) -> String {
        "3-Estimates".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        run_estimates(&self.name(), true, problem, options, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{precision, trust_sensitive_snapshot};

    fn check(method: &dyn FusionMethod, min_precision: f64) {
        let (snap, gold) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let result = method.run(&problem, &FusionOptions::standard());
        let p = precision(&result, &snap, &gold);
        assert!(
            p >= min_precision,
            "{} precision {p} below {min_precision}",
            method.name()
        );
        for t in &result.trust.overall {
            assert!(t.is_finite(), "{} produced a non-finite trust", method.name());
        }
        assert_eq!(result.selected.len(), problem.num_items());
    }

    #[test]
    fn cosine_runs() {
        check(&Cosine::default(), 0.8);
    }

    #[test]
    fn two_estimates_runs() {
        check(&TwoEstimates, 0.8);
    }

    #[test]
    fn three_estimates_runs() {
        check(&ThreeEstimates, 0.8);
    }

    #[test]
    fn trust_scores_live_in_unit_interval() {
        let (snap, _) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        for method in [&TwoEstimates as &dyn FusionMethod, &ThreeEstimates] {
            let result = method.run(&problem, &FusionOptions::standard());
            for t in &result.trust.overall {
                assert!(*t >= 0.0 && *t <= 1.0);
            }
        }
    }

    #[test]
    fn input_trust_gives_oracle_result() {
        let (snap, gold) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let opts = FusionOptions::standard().with_input_trust(vec![1.0, 0.4, 0.4]);
        let result = TwoEstimates.run(&problem, &opts);
        let p = precision(&result, &snap, &gold);
        assert!(p > 0.99, "2-Estimates with oracle trust scored {p}");
    }
}
