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
//!
//! # Hot-path layout
//!
//! Every round of these methods sums over the same claim structure, which
//! never changes within a run. Each run therefore builds two read-only
//! `u32` index tables ([`ClaimSlots`]) up front and drops them at its end:
//!
//! * `own` — one entry per (item, provider) slot of
//!   [`PreparedItem::providers`](crate::problem::PreparedItem::providers):
//!   the local candidate that provider claims. The ESTIMATES vote writes
//!   `[t, 1 − t]` once per provider of an item, then each candidate sums
//!   `d[2p + (own[p] != c)]` over the providers in order into a register.
//! * `terms` — per source, its claims in claim order; per claim, the item's
//!   global candidate indices `k` in order, encoded as `2k` for the claimed
//!   candidate and `2k + 1` for the others. Each round fills one interleaved
//!   candidate plane `x` (`x[2k] = v`, `x[2k + 1] = 1 − v` for ESTIMATES;
//!   `e` and `−e` for COSINE), so a source's trust sum is a straight
//!   gather over its `terms` range, and its term count is the range length.
//!
//! Every per-candidate and per-source sum keeps the operand order of the
//! nested loops it replaces, so results are bit-identical to them (pinned
//! by the frozen loops in `methods/reference.rs`). The encoding doubles the
//! candidate index, so the problem's layout check requires `2 ×
//! num_candidates` to fit a `u32`.

use crate::kernels::rescale_to_unit;
use crate::methods::{effective_rounds, initial_trust, FusionMethod};
use crate::problem::FusionProblem;
use crate::types::{FusionOptions, FusionResult, FusionScratch, TrustEstimate};
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

/// Read-only per-run index tables of the IR rounds (see the module's
/// hot-path layout).
struct ClaimSlots {
    /// Claimed local candidate per (item, provider) slot, indexed by
    /// [`PreparedItem::provider_range`](crate::problem::PreparedItem::provider_range).
    own: Vec<u32>,
    /// Extent of each source's terms (`num_sources + 1` offsets).
    term_offsets: Vec<u32>,
    /// Per source, per claim, per candidate of the claimed item: `2k` for
    /// the claimed global candidate `k`, `2k + 1` for the others.
    terms: Vec<u32>,
}

impl ClaimSlots {
    fn build(problem: &FusionProblem) -> Self {
        // A source claims at most one candidate per item (checked when the
        // problem is built), so one per-source lookup filled per item gives
        // every provider slot its candidate.
        let mut owner = vec![u32::MAX; problem.num_sources()];
        let mut own = Vec::with_capacity(problem.num_claims());
        for item in problem.items() {
            for (c, cand) in item.candidates().enumerate() {
                for &s in cand.providers() {
                    owner[s as usize] = c as u32;
                }
            }
            own.extend(item.providers().iter().map(|&s| owner[s as usize]));
        }
        // Σ claims × candidates can overflow the u32 offsets even when the
        // claims fit; every offset is at most this total.
        let total: usize = problem
            .items()
            .map(|item| item.num_providers() * item.num_candidates())
            .sum();
        assert!(
            u32::try_from(total).is_ok(),
            "{total} claim terms overflow the u32 offsets of the IR methods"
        );
        let mut term_offsets = Vec::with_capacity(problem.num_sources() + 1);
        let mut terms = Vec::with_capacity(total);
        term_offsets.push(0);
        for s in 0..problem.num_sources() {
            for &(i, c) in problem.claims(s) {
                let range = problem.item(i as usize).cand_range();
                let claimed = range.start + c as usize;
                // Fits: the layout check bounds 2 × num_candidates by u32.
                terms.extend(range.map(|k| (2 * k + usize::from(k != claimed)) as u32));
            }
            term_offsets.push(terms.len() as u32);
        }
        Self {
            own,
            term_offsets,
            terms,
        }
    }

    /// Cosine between source `s`'s ±1 claim vector and the estimates, read
    /// from the round's interleaved `signed` plane and `squared` estimates.
    ///
    /// Not inlined: inside the run's round loop this walk shares registers
    /// with the whole run and spills its loop invariants, which measured
    /// about 1.7× slower than the walk on its own.
    #[inline(never)]
    fn cosine(&self, s: usize, signed: &[f64], squared: &[f64]) -> f64 {
        let mut dot = 0.0_f64;
        let mut claim_norm = 0.0_f64;
        let mut est_norm = 0.0_f64;
        for &t in self.terms(s) {
            dot += signed[t as usize];
            claim_norm += 1.0;
            est_norm += squared[t as usize >> 1];
        }
        let denom = claim_norm.sqrt() * est_norm.sqrt();
        if denom > 1e-12 {
            dot / denom
        } else {
            0.0
        }
    }

    /// The encoded terms of source `s`.
    #[inline]
    fn terms(&self, s: usize) -> &[u32] {
        &self.terms[self.term_offsets[s] as usize..self.term_offsets[s + 1] as usize]
    }
}

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
        let slots = ClaimSlots::build(problem);
        let estimates = &mut scratch.plane;
        estimates.reset_for(problem);
        // Per global candidate `k`: the claim entry times the estimate at
        // `2k` (claimed) and `2k + 1` (competing), and the squared estimate.
        let mut signed = vec![0.0; 2 * problem.num_candidates()];
        let mut squared = vec![0.0; problem.num_candidates()];
        let mut rounds = 0usize;
        for _ in 0..effective_rounds(options) {
            rounds += 1;
            // Truth estimate per candidate in [-1, 1]: supporters minus
            // opponents, normalized by the total trust on the item.
            for i in 0..estimates.num_items() {
                let item = problem.item(i);
                let total: f64 = item
                    .providers()
                    .iter()
                    .map(|&s| trust.overall[s as usize])
                    .sum();
                for (out, cand) in estimates.item_mut(i).iter_mut().zip(item.candidates()) {
                    let support: f64 = cand
                        .providers()
                        .iter()
                        .map(|&s| trust.overall[s as usize])
                        .sum();
                    let oppose = total - support;
                    *out = if total > 0.0 {
                        (support - oppose) / total
                    } else {
                        0.0
                    };
                }
            }
            // Cosine similarity between each source's ±1 vector and the
            // estimates at the positions the source covers.
            for ((pair, sq), &e) in signed
                .chunks_exact_mut(2)
                .zip(squared.iter_mut())
                .zip(estimates.values())
            {
                pair[0] = e;
                // `-e` is `-1.0 * e` bit for bit on every non-NaN estimate.
                pair[1] = -e;
                *sq = e * e;
            }
            let mut new_trust = vec![0.0; problem.num_sources()];
            for (s, slot) in new_trust.iter_mut().enumerate() {
                let cosine = slots.cosine(s, &signed, &squared);
                *slot =
                    self.damping * trust.overall[s] + (1.0 - self.damping) * cosine.clamp(0.0, 1.0);
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
        estimates.argmax_into(&mut selection);
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
    let slots = ClaimSlots::build(problem);
    let FusionScratch {
        plane: votes,
        item_f: hardness,
        ..
    } = scratch;
    votes.reset_for(problem);
    // Per-item difficulty in [0, 1]; 0 = easy (votes count fully).
    hardness.clear();
    hardness.resize(problem.num_items(), 0.5);
    // Per global candidate `k`: its vote at `2k` (what a claim on it earns)
    // and the complement at `2k + 1` (what a claim on a competitor earns).
    let mut earned = vec![0.0; 2 * problem.num_candidates()];
    let mut dampened: Vec<[f64; 2]> = Vec::new();
    let mut rounds = 0usize;
    for _ in 0..effective_rounds(options) {
        rounds += 1;
        // Complement-aware vote: providers contribute their (difficulty-
        // dampened) trust, non-providers contribute their distrust.
        for (i, &hard) in hardness.iter().enumerate() {
            let item = problem.item(i);
            let dampen = |t: f64| -> f64 {
                if difficulty {
                    t * (1.0 - hard) + 0.5 * hard
                } else {
                    t
                }
            };
            dampened.clear();
            dampened.extend(item.providers().iter().map(|&s| {
                let t = dampen(trust.overall[s as usize]);
                [t, 1.0 - t]
            }));
            // Each candidate sums over the item's providers in order.
            let owned = &slots.own[item.provider_range()];
            let n = item.num_providers().max(1) as f64;
            for (c, vote) in votes.item_mut(i).iter_mut().enumerate() {
                let mut acc = 0.0;
                for (d, &o) in dampened.iter().zip(owned) {
                    acc += d[usize::from(o != c as u32)];
                }
                *vote = acc / n;
            }
        }
        // Affine rescaling of all votes to [0, 1] — the plane is already the
        // flat item-major vector the old code materialized each round.
        rescale_to_unit(votes.values_mut());
        // Difficulty update: items whose best value is uncertain are hard.
        if difficulty {
            for (i, h) in hardness.iter_mut().enumerate() {
                let best = votes.item(i).iter().cloned().fold(0.0, f64::max);
                *h = (1.0 - best).clamp(0.0, 1.0);
            }
        }
        // Trust update: average over claimed values' votes and the complement
        // of the competing values' votes; then affine rescaling.
        for (pair, &v) in earned.chunks_exact_mut(2).zip(votes.values()) {
            pair[0] = v;
            pair[1] = 1.0 - v;
        }
        let mut new_trust = vec![0.0; problem.num_sources()];
        for (s, slot) in new_trust.iter_mut().enumerate() {
            let terms = slots.terms(s);
            let mut acc = 0.0;
            for &t in terms {
                acc += earned[t as usize];
            }
            *slot = if terms.is_empty() {
                0.5
            } else {
                acc / terms.len() as f64
            };
        }
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
    votes.argmax_into(&mut selection);
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

    /// A source that claims nothing, a one-candidate item and an item with
    /// `max_candidates()` candidates: each method equals its frozen loop,
    /// whose ESTIMATES trust update gives a source with no claim terms 0.5
    /// before the rescale.
    #[test]
    fn edge_shapes_match_the_frozen_loops() {
        use crate::methods::reference::{
            assert_same_bits, reference_run_cosine, reference_run_estimates,
        };
        use datamodel::{AttrId, AttrKind, DomainSchema, ObjectId, SnapshotBuilder, SourceId, Value};
        use std::sync::Arc;

        let mut schema = DomainSchema::new("edges");
        schema.add_attribute("x", AttrKind::Numeric { scale: 1.0 }, false);
        for s in 0..6 {
            schema.add_source(format!("s{s}"), false);
        }
        let mut b = SnapshotBuilder::new(0);
        let a = AttrId(0);
        // Object 0: every source agrees, one candidate.
        for s in 0..5 {
            b.add(SourceId(s), ObjectId(0), a, Value::number(7.0));
        }
        // Object 1: five sources, five far-apart values.
        for s in 0..5 {
            b.add(SourceId(s), ObjectId(1), a, Value::number(1000.0 * (s + 1) as f64));
        }
        // Object 2: a 3-to-1 split.
        for s in 0..4 {
            let v = if s == 3 { 50.0 } else { 10.0 };
            b.add(SourceId(s), ObjectId(2), a, Value::number(v));
        }
        let snap = b.build(Arc::new(schema));
        let mut problem = FusionProblem::from_snapshot(&snap);
        problem.push_idle_source(SourceId(5));
        let idle = problem.num_sources() - 1;
        assert!(problem.claims(idle).is_empty());
        assert!(problem.items().any(|item| item.num_candidates() == 1));
        assert_eq!(problem.max_candidates(), 5);

        let input: Vec<f64> = (0..problem.num_sources())
            .map(|s| 0.2 + 0.15 * s as f64)
            .collect();
        for opts in [
            FusionOptions::standard(),
            FusionOptions::standard().with_input_trust(input),
        ] {
            let context = |name: &str| {
                format!("{name} (input {})", opts.input_trust.is_some())
            };
            let mut scratch = FusionScratch::new();
            let two = TwoEstimates.run(&problem, &opts);
            assert_same_bits(
                &two,
                &reference_run_estimates("2-Estimates", false, &problem, &opts, &mut scratch),
                &context("2-Estimates"),
            );
            let three = ThreeEstimates.run(&problem, &opts);
            assert_same_bits(
                &three,
                &reference_run_estimates("3-Estimates", true, &problem, &opts, &mut scratch),
                &context("3-Estimates"),
            );
            let cosine = Cosine::default();
            assert_same_bits(
                &cosine.run(&problem, &opts),
                &reference_run_cosine(&cosine, &problem, &opts, &mut scratch),
                &context("Cosine"),
            );
            // The idle source's ESTIMATES slot takes the count-0 branch
            // (0.5 before the rescale), so it stays a finite unit trust.
            for result in [&two, &three] {
                let t = result.trust.overall[idle];
                assert!((0.0..=1.0).contains(&t), "{}: idle trust {t}", context(&result.method));
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
