//! Test-only oracle: the pre-dense-layout ACCUCOPY implementation.
//!
//! The dense hot path (triangular [`CopyMatrix`](crate::copymatrix::CopyMatrix),
//! the co-claim table, the flat [`VotePlane`](crate::types::VotePlane), scratch
//! buffers) is a *representation* change — the equivalence tests in
//! [`copyaware`](super::copyaware) assert that every selection and trust
//! vector is bit-identical to what this original map-and-nested-`Vec`
//! implementation computes. Keep this file in sync with nothing: it is frozen
//! on purpose. (It reads the problem through the thin slice views — the only
//! access path that still exists — but every per-round structure it builds is
//! the original nested one, and its private helpers are verbatim copies of
//! the pre-flattening `argmax_selection` and `update_trust_from_scores`.)
//!
//! The same file freezes the INVEST / POOLEDINVEST, 2-/3-ESTIMATES,
//! COSINE, ACCU-family and TRUTHFINDER round loops as they were before their
//! per-claim rewrites, and the tests at the bottom assert the live methods
//! reproduce them bit for bit.

use crate::methods::bayesian::{
    clamp_trust, softmax_into, update_trust_from_scores, Accu, AccuVariant, TruthFinder,
};
use crate::methods::copyaware::AccuCopy;
use crate::methods::ir::Cosine;
use crate::methods::{effective_rounds, initial_trust, FusionMethod};
use crate::problem::{FusionProblem, PreparedItem};
use crate::types::{
    normalize_by_max, rescale_to_unit, AttrTrust, FusionOptions, FusionResult, FusionScratch,
    TrustEstimate,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// The original per-claim ACCU vote score: one provider's vote for
/// candidate `c` of `item` under accuracy `a`, a logarithm per call.
fn provider_score(method: &Accu, a: f64, item: PreparedItem<'_>, c: usize) -> f64 {
    let a = a.clamp(0.01, 0.99);
    match method.variant {
        AccuVariant::PopAccu => {
            // Popularity-aware false-value prior: popular values get less
            // of a boost per provider, so copied false values stop
            // dominating.
            let total = item.total_provider_slots();
            let support = item.candidate(c).providers().len();
            let k = item.num_candidates() as f64;
            let pop = (support as f64 + 0.5) / (total as f64 + 0.5 * k);
            (a / (1.0 - a)).ln() - pop.ln()
        }
        _ => (method.n_false_values * a / (1.0 - a)).ln(),
    }
}

fn pair_probability(probs: &BTreeMap<(usize, usize), f64>, a: usize, b: usize) -> f64 {
    let key = if a <= b { (a, b) } else { (b, a) };
    probs.get(&key).copied().unwrap_or(0.0)
}

/// The original nested-`Vec` argmax: ties go to the lower candidate index.
fn nested_argmax_selection(votes: &[Vec<f64>]) -> Vec<usize> {
    votes
        .iter()
        .map(|item_votes| {
            let mut best = 0usize;
            let mut best_vote = f64::NEG_INFINITY;
            for (i, &v) in item_votes.iter().enumerate() {
                if v > best_vote + 1e-12 {
                    best = i;
                    best_vote = v;
                }
            }
            best
        })
        .collect()
}

/// The original trust update over nested per-item score rows, with the
/// original `Vec<Vec<_>>` S×A accumulators.
fn nested_update_trust_from_scores(
    problem: &FusionProblem,
    scores: &[Vec<f64>],
    options: &FusionOptions,
    trust: &mut TrustEstimate,
) {
    let per_attr = options.per_attribute_trust || trust.per_attr.is_some();
    let mut overall_sum = vec![0.0; problem.num_sources()];
    let mut overall_count = vec![0usize; problem.num_sources()];
    let mut attr_sum: Vec<Vec<f64>> = Vec::new();
    let mut attr_count: Vec<Vec<usize>> = Vec::new();
    if per_attr {
        attr_sum = vec![vec![0.0; problem.num_attrs]; problem.num_sources()];
        attr_count = vec![vec![0usize; problem.num_attrs]; problem.num_sources()];
    }
    for (s, claims) in problem.claims_by_source().enumerate() {
        for &(i, c) in claims {
            let score = scores[i as usize][c as usize];
            overall_sum[s] += score;
            overall_count[s] += 1;
            if per_attr {
                let a = problem.item_attr(i as usize);
                attr_sum[s][a] += score;
                attr_count[s][a] += 1;
            }
        }
    }
    for s in 0..problem.num_sources() {
        if overall_count[s] > 0 {
            trust.overall[s] = overall_sum[s] / overall_count[s] as f64;
        }
    }
    if per_attr {
        let pa = trust
            .per_attr
            .get_or_insert_with(|| AttrTrust::filled(problem.num_sources(), problem.num_attrs, 0.8));
        for s in 0..problem.num_sources() {
            for a in 0..problem.num_attrs {
                if attr_count[s][a] > 0 {
                    pa.set(s, a, attr_sum[s][a] / attr_count[s][a] as f64);
                } else {
                    // Attributes the source does not provide inherit its
                    // overall trust.
                    pa.set(s, a, trust.overall[s]);
                }
            }
        }
    }
}

/// The original `detect_copying`: rebuilds the dense S×I claim table and
/// re-derives both log-likelihood terms per shared item, every call.
pub(crate) fn reference_detect_copying(
    problem: &FusionProblem,
    selection: &[usize],
    copy_rate: f64,
    prior: f64,
    min_shared_items: usize,
) -> BTreeMap<(usize, usize), f64> {
    let num_sources = problem.num_sources();
    let mut table: Vec<Vec<Option<u32>>> = vec![vec![None; problem.num_items()]; num_sources];
    for (s, claims) in problem.claims_by_source().enumerate() {
        for &(i, c) in claims {
            table[s][i as usize] = Some(c);
        }
    }
    let error_rate: Vec<f64> = problem
        .claims_by_source()
        .map(|claims| {
            if claims.is_empty() {
                return 0.2;
            }
            let wrong = claims
                .iter()
                .filter(|&&(i, c)| selection.get(i as usize).copied().unwrap_or(0) != c as usize)
                .count();
            (wrong as f64 / claims.len() as f64).clamp(0.01, 0.99)
        })
        .collect();

    let c = copy_rate.clamp(1e-6, 1.0 - 1e-6);
    let prior = prior.clamp(1e-6, 1.0 - 1e-6);
    let n = 10.0;
    let mut result = BTreeMap::new();
    for a in 0..num_sources {
        for b in (a + 1)..num_sources {
            let mut shared = 0usize;
            let mut llr = 0.0;
            for (i, (ta, tb)) in table[a].iter().zip(&table[b]).enumerate() {
                let (Some(ca), Some(cb)) = (*ta, *tb) else {
                    continue;
                };
                shared += 1;
                let ea = error_rate[a];
                let eb = error_rate[b];
                let p_same_true = (1.0 - ea) * (1.0 - eb);
                let p_same_false = ea * eb / n;
                let p_diff = (1.0 - p_same_true - p_same_false).max(1e-9);
                let selected = selection.get(i).copied().unwrap_or(0) as u32;
                let (p_indep, p_copy) = if ca == cb {
                    if ca == selected {
                        continue;
                    }
                    (p_same_false, c * ea + (1.0 - c) * p_same_false)
                } else {
                    (p_diff, (1.0 - c) * p_diff)
                };
                llr += p_copy.max(1e-12).ln() - p_indep.max(1e-12).ln();
            }
            if shared < min_shared_items {
                continue;
            }
            let logit = llr + (prior / (1.0 - prior)).ln();
            result.insert((a, b), 1.0 / (1.0 + (-logit).exp()));
        }
    }
    result
}

/// The original `AccuCopy::run` loop: per-item `Vec` allocations, a stable
/// provider sort on a cloned provider list, and map-based pair lookups.
pub(crate) fn reference_run(
    method: &AccuCopy,
    problem: &FusionProblem,
    options: &FusionOptions,
) -> FusionResult {
    let start = Instant::now();
    let mut opts = options.clone();
    opts.per_attribute_trust = opts.per_attribute_trust || method.base.per_attribute;
    // The old oracle path cloned a caller-supplied map every round; the
    // options now carry a matrix, so materialize the equivalent map once.
    let known: Option<BTreeMap<(usize, usize), f64>> = opts
        .known_copy_probabilities
        .as_ref()
        .map(|m| m.pairs().collect());
    let mut trust = initial_trust(problem, &opts, method.base.initial_accuracy);
    let mut probabilities: Vec<Vec<f64>> = problem
        .items()
        .map(|i| vec![0.0; i.num_candidates()])
        .collect();
    let mut selection = vec![0usize; problem.num_items()];
    let mut rounds = 0usize;
    for _ in 0..effective_rounds(&opts) {
        rounds += 1;
        let copy_probs = match &known {
            Some(known) => known.clone(),
            None => reference_detect_copying(
                problem,
                &selection,
                method.copy_rate,
                method.prior,
                method.min_shared_items,
            ),
        };
        for (i, item) in problem.items().enumerate() {
            let votes: Vec<f64> = item
                .candidates()
                .enumerate()
                .map(|(c, cand)| {
                    let mut providers: Vec<usize> =
                        cand.providers().iter().map(|&s| s as usize).collect();
                    providers.sort_by(|&a, &b| {
                        trust
                            .of(b, item.attr())
                            .partial_cmp(&trust.of(a, item.attr()))
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.cmp(&b))
                    });
                    let mut vote = 0.0;
                    for (k, &s) in providers.iter().enumerate() {
                        let mut independent = 1.0;
                        for &earlier in &providers[..k] {
                            let p = pair_probability(&copy_probs, s, earlier);
                            independent *= 1.0 - method.copy_rate * p;
                        }
                        vote += independent
                            * provider_score(&method.base, trust.of(s, item.attr()), item, c);
                    }
                    vote
                })
                .collect();
            let adjusted: Vec<f64> = item
                .candidates()
                .enumerate()
                .map(|(c, cand)| {
                    let mut v = votes[c];
                    for &(j, sim) in cand.similar() {
                        v += method.base.rho * sim * votes[j as usize];
                    }
                    for &j in cand.coarse_supporters() {
                        v += method.base.format_weight * votes[j as usize];
                    }
                    v
                })
                .collect();
            softmax_into(&adjusted, &mut probabilities[i]);
        }
        selection = nested_argmax_selection(&probabilities);
        let mut new_trust = trust.clone();
        nested_update_trust_from_scores(problem, &probabilities, &opts, &mut new_trust);
        clamp_trust(&mut new_trust, 0.01, 0.99);
        let change = new_trust.max_change(&trust);
        trust = new_trust;
        if change < opts.epsilon {
            break;
        }
    }
    FusionResult::from_selection(
        &method.name(),
        problem,
        selection,
        trust,
        rounds,
        start,
    )
}

/// The ACCU-family iteration (all six variants) before the per-round score
/// table: every provider of every candidate takes its own logarithm through
/// [`provider_score`], every round.
fn reference_run_accu(
    method: &Accu,
    problem: &FusionProblem,
    options: &FusionOptions,
    scratch: &mut FusionScratch,
) -> FusionResult {
    let start = Instant::now();
    let mut opts = options.clone();
    opts.per_attribute_trust = opts.per_attribute_trust || method.per_attribute;
    let uses_similarity =
        matches!(method.variant, AccuVariant::AccuSim | AccuVariant::AccuFormat);
    let uses_formatting = matches!(method.variant, AccuVariant::AccuFormat);
    let FusionScratch {
        plane: probabilities,
        cand_a: votes,
        cand_b: adjusted,
        trust_acc,
        ..
    } = scratch;
    let mut trust = initial_trust(problem, &opts, method.initial_accuracy);
    probabilities.reset_for(problem);
    let mut rounds = 0usize;
    for _ in 0..effective_rounds(&opts) {
        rounds += 1;
        for i in 0..probabilities.num_items() {
            let item = problem.item(i);
            let num_candidates = item.num_candidates();
            votes.clear();
            votes.resize(num_candidates, 0.0);
            adjusted.clear();
            adjusted.resize(num_candidates, 0.0);
            for (c, cand) in item.candidates().enumerate() {
                votes[c] = cand
                    .providers()
                    .iter()
                    .map(|&s| provider_score(method, trust.of(s as usize, item.attr()), item, c))
                    .sum();
            }
            for (c, cand) in item.candidates().enumerate() {
                let mut v = votes[c];
                if uses_similarity {
                    for &(j, sim) in cand.similar() {
                        v += method.rho * sim * votes[j as usize];
                    }
                }
                if uses_formatting {
                    for &j in cand.coarse_supporters() {
                        v += method.format_weight * votes[j as usize];
                    }
                }
                adjusted[c] = v;
            }
            softmax_into(&adjusted[..num_candidates], probabilities.item_mut(i));
        }
        let mut new_trust = trust.clone();
        update_trust_from_scores(problem, probabilities, &opts, &mut new_trust, trust_acc);
        clamp_trust(&mut new_trust, 0.01, 0.99);
        let change = new_trust.max_change(&trust);
        trust = new_trust;
        if change < opts.epsilon {
            break;
        }
    }
    let mut selection = Vec::new();
    probabilities.argmax_into(&mut selection);
    FusionResult::from_selection(&method.name(), problem, selection, trust, rounds, start)
}

/// The TRUTHFINDER iteration before the per-round score table: every
/// provider of every candidate takes `-ln(1 - min(t, 0.999))`, every round.
fn reference_run_truthfinder(
    method: &TruthFinder,
    problem: &FusionProblem,
    options: &FusionOptions,
    scratch: &mut FusionScratch,
) -> FusionResult {
    let start = Instant::now();
    let FusionScratch {
        plane: confidence,
        cand_a: raw,
        trust_acc,
        ..
    } = scratch;
    let mut trust = initial_trust(problem, options, method.initial_trust);
    confidence.reset_for(problem);
    raw.clear();
    let mut rounds = 0usize;
    for _ in 0..effective_rounds(options) {
        rounds += 1;
        for i in 0..confidence.num_items() {
            let item = problem.item(i);
            raw.clear();
            raw.resize(item.num_candidates(), 0.0);
            for (c, cand) in item.candidates().enumerate() {
                raw[c] = cand
                    .providers()
                    .iter()
                    .map(|&s| -(1.0 - trust.of(s as usize, item.attr()).min(0.999)).ln())
                    .sum();
            }
            let out = confidence.item_mut(i);
            for (c, cand) in item.candidates().enumerate() {
                let mut adjusted = raw[c];
                for &(j, sim) in cand.similar() {
                    adjusted += method.rho * sim * raw[j as usize];
                }
                out[c] = 1.0 / (1.0 + (-method.gamma * adjusted).exp());
            }
        }
        let mut new_trust = trust.clone();
        update_trust_from_scores(problem, confidence, options, &mut new_trust, trust_acc);
        let change = new_trust.max_change(&trust);
        trust = new_trust;
        if change < options.epsilon {
            break;
        }
    }
    let mut selection = Vec::new();
    confidence.argmax_into(&mut selection);
    FusionResult::from_selection(&method.name(), problem, selection, trust, rounds, start)
}

/// The INVEST / POOLEDINVEST iteration before the pay-back step reused the
/// first phase's per-candidate investment sums: it re-sums every claimed
/// candidate's providers for each claim.
fn reference_run_invest(
    name: &str,
    growth: f64,
    pooled: bool,
    problem: &FusionProblem,
    options: &FusionOptions,
    scratch: &mut FusionScratch,
) -> FusionResult {
    let start = Instant::now();
    let mut trust = initial_trust(problem, options, 1.0);
    // Reusable buffers: the vote plane, the per-source investment, and the
    // per-item non-linear-growth scratch.
    let FusionScratch {
        plane: votes,
        source_f: invested,
        cand_a: grown,
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
        // of the investment.
        let mut new_trust = vec![0.0; problem.num_sources()];
        for (s, slot) in new_trust.iter_mut().enumerate() {
            for &(i, c) in problem.claims(s) {
                let total_investment: f64 = problem
                    .item(i as usize)
                    .candidate(c as usize)
                    .providers()
                    .iter()
                    .map(|&p| invested[p as usize])
                    .sum();
                if total_investment > 0.0 {
                    *slot += votes.get(i as usize, c as usize) * invested[s] / total_investment;
                }
            }
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

/// The 2-ESTIMATES / 3-ESTIMATES iteration before the per-item candidate
/// lookup: membership is a `contains` scan of the candidate's providers
/// (`difficulty = true` enables the third estimate).
pub(crate) fn reference_run_estimates(
    name: &str,
    difficulty: bool,
    problem: &FusionProblem,
    options: &FusionOptions,
    scratch: &mut FusionScratch,
) -> FusionResult {
    let start = Instant::now();
    let mut trust = initial_trust(problem, options, 0.8);
    let FusionScratch {
        plane: votes,
        item_f: hardness,
        ..
    } = scratch;
    votes.reset_for(problem);
    // Per-item difficulty in [0, 1]; 0 = easy (votes count fully).
    hardness.clear();
    hardness.resize(problem.num_items(), 0.5);
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
            let out = votes.item_mut(i);
            for (c, cand) in item.candidates().enumerate() {
                let mut vote = 0.0;
                for &s in item.providers() {
                    let t = dampen(trust.overall[s as usize]);
                    if cand.providers().contains(&s) {
                        vote += t;
                    } else {
                        vote += 1.0 - t;
                    }
                }
                out[c] = vote / item.num_providers().max(1) as f64;
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
        let mut new_trust = vec![0.0; problem.num_sources()];
        for (s, slot) in new_trust.iter_mut().enumerate() {
            let mut acc = 0.0;
            let mut count = 0usize;
            for &(i, c) in problem.claims(s) {
                for (c2, &v) in votes.item(i as usize).iter().enumerate() {
                    if c2 == c as usize {
                        acc += v;
                    } else {
                        acc += 1.0 - v;
                    }
                    count += 1;
                }
            }
            *slot = if count == 0 { 0.5 } else { acc / count as f64 };
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

/// The COSINE iteration before the precomputed claim terms: each source's
/// dot product and norms walk every claimed item's candidate row, choosing
/// the ±1 claim entry per candidate.
pub(crate) fn reference_run_cosine(
    method: &Cosine,
    problem: &FusionProblem,
    options: &FusionOptions,
    scratch: &mut FusionScratch,
) -> FusionResult {
    let start = Instant::now();
    let mut trust = initial_trust(problem, options, 0.8);
    let estimates = &mut scratch.plane;
    estimates.reset_for(problem);
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
            let out = estimates.item_mut(i);
            for (c, cand) in item.candidates().enumerate() {
                let support: f64 = cand
                    .providers()
                    .iter()
                    .map(|&s| trust.overall[s as usize])
                    .sum();
                let oppose = total - support;
                out[c] = if total > 0.0 {
                    (support - oppose) / total
                } else {
                    0.0
                };
            }
        }
        // Cosine similarity between each source's ±1 vector and the
        // estimates at the positions the source covers.
        let mut new_trust = vec![0.0; problem.num_sources()];
        for (s, slot) in new_trust.iter_mut().enumerate() {
            let mut dot = 0.0_f64;
            let mut claim_norm = 0.0_f64;
            let mut est_norm = 0.0_f64;
            for &(i, c) in problem.claims(s) {
                for (c2, &e) in estimates.item(i as usize).iter().enumerate() {
                    let claim_entry = if c2 == c as usize { 1.0 } else { -1.0 };
                    dot += claim_entry * e;
                    claim_norm += 1.0;
                    est_norm += e * e;
                }
            }
            let denom = claim_norm.sqrt() * est_norm.sqrt();
            let cosine = if denom > 1e-12 { dot / denom } else { 0.0 };
            *slot = method.damping * trust.overall[s]
                + (1.0 - method.damping) * cosine.clamp(0.0, 1.0);
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
    FusionResult::from_selection(&method.name(), problem, selection, trust, rounds, start)
}

/// Assert that two runs agree bit for bit: selection, rounds, and every
/// overall and per-attribute trust value.
pub(crate) fn assert_same_bits(live: &FusionResult, frozen: &FusionResult, context: &str) {
    assert_eq!(live.selection, frozen.selection, "{context}: selection");
    assert_eq!(live.rounds, frozen.rounds, "{context}: rounds");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&live.trust.overall),
        bits(&frozen.trust.overall),
        "{context}: overall trust"
    );
    assert_eq!(
        live.trust.per_attr.as_ref().map(|pa| bits(pa.values())),
        frozen.trust.per_attr.as_ref().map(|pa| bits(pa.values())),
        "{context}: per-attribute trust"
    );
}

mod tests {
    use super::*;
    use crate::methods::{Cosine, Invest, PooledInvest, ThreeEstimates, TwoEstimates};
    use datamodel::{AttrId, AttrKind, DomainSchema, ObjectId, Snapshot, SnapshotBuilder, SourceId,
        Value};
    use std::sync::Arc;

    /// A one-item snapshot: two sources disagreeing on a single value.
    fn one_item_snapshot() -> Snapshot {
        let mut schema = DomainSchema::new("one-item");
        schema.add_attribute("x", AttrKind::Numeric { scale: 100.0 }, false);
        schema.add_source("a", false);
        schema.add_source("b", false);
        let mut b = SnapshotBuilder::new(0);
        b.add(SourceId(0), ObjectId(0), AttrId(0), Value::number(1.0));
        b.add(SourceId(1), ObjectId(0), AttrId(0), Value::number(2.0));
        b.build(Arc::new(schema))
    }

    /// A few-item snapshot with ragged candidate rows: a four-way contested
    /// item, a single-provider item, and a unanimous two-provider item.
    fn ragged_snapshot() -> Snapshot {
        let mut schema = DomainSchema::new("ragged");
        schema.add_attribute("x", AttrKind::Numeric { scale: 100.0 }, false);
        for name in ["a", "b", "c", "d"] {
            schema.add_source(name, false);
        }
        let mut b = SnapshotBuilder::new(0);
        let a = AttrId(0);
        // Item 0: four providers, three distinct values (ragged row).
        b.add(SourceId(0), ObjectId(0), a, Value::number(10.0));
        b.add(SourceId(1), ObjectId(0), a, Value::number(10.0));
        b.add(SourceId(2), ObjectId(0), a, Value::number(55.0));
        b.add(SourceId(3), ObjectId(0), a, Value::number(70.0));
        // Item 1: one provider, one candidate.
        b.add(SourceId(2), ObjectId(1), a, Value::number(12.0));
        // Item 2: two providers, unanimous.
        b.add(SourceId(0), ObjectId(2), a, Value::number(33.0));
        b.add(SourceId(3), ObjectId(2), a, Value::number(33.0));
        b.build(Arc::new(schema))
    }

    /// Seeded Stock and Flight reference days, the stacked `kitchen_sink`
    /// scenario's reference day, and the degenerate one-item and ragged
    /// few-item snapshots.
    fn worlds() -> Vec<(&'static str, FusionProblem)> {
        let stock = datagen::generate(&datagen::stock_config(2012).scaled(0.02, 0.1));
        let flight = datagen::generate(&datagen::flight_config(2012).scaled(0.1, 0.06));
        let kitchen_sink = datagen::scenario::by_name("kitchen_sink")
            .expect("kitchen_sink is a registered scenario")
            .build();
        vec![
            ("stock", FusionProblem::from_snapshot(stock.reference_snapshot())),
            ("flight", FusionProblem::from_snapshot(flight.reference_snapshot())),
            (
                "kitchen_sink",
                FusionProblem::from_snapshot(&kitchen_sink.domain.collection.reference_day().snapshot),
            ),
            ("one_item", FusionProblem::from_snapshot(&one_item_snapshot())),
            ("ragged", FusionProblem::from_snapshot(&ragged_snapshot())),
        ]
    }

    /// Standard, per-attribute, and input-trust options.
    fn option_grid(problem: &FusionProblem) -> [FusionOptions; 3] {
        let input: Vec<f64> = (0..problem.num_sources())
            .map(|s| 0.3 + 0.6 * (s % 7) as f64 / 6.0)
            .collect();
        [
            FusionOptions::standard(),
            FusionOptions::standard().with_per_attribute_trust(),
            FusionOptions::standard().with_input_trust(input),
        ]
    }

    #[test]
    fn iterative_rounds_match_the_frozen_loops() {
        for (world, problem) in worlds() {
            for opts in option_grid(&problem) {
                let context = |name: &str| {
                    format!(
                        "{name} on {world} (per_attr {}, input {})",
                        opts.per_attribute_trust,
                        opts.input_trust.is_some()
                    )
                };
                let mut scratch = FusionScratch::new();
                let invest = Invest::default();
                assert_same_bits(
                    &invest.run(&problem, &opts),
                    &reference_run_invest("Invest", invest.growth, false, &problem, &opts, &mut scratch),
                    &context("Invest"),
                );
                let pooled = PooledInvest::default();
                assert_same_bits(
                    &pooled.run(&problem, &opts),
                    &reference_run_invest(
                        "PooledInvest",
                        pooled.growth,
                        true,
                        &problem,
                        &opts,
                        &mut scratch,
                    ),
                    &context("PooledInvest"),
                );
                assert_same_bits(
                    &TwoEstimates.run(&problem, &opts),
                    &reference_run_estimates("2-Estimates", false, &problem, &opts, &mut scratch),
                    &context("2-Estimates"),
                );
                assert_same_bits(
                    &ThreeEstimates.run(&problem, &opts),
                    &reference_run_estimates("3-Estimates", true, &problem, &opts, &mut scratch),
                    &context("3-Estimates"),
                );
                let cosine = Cosine::default();
                assert_same_bits(
                    &cosine.run(&problem, &opts),
                    &reference_run_cosine(&cosine, &problem, &opts, &mut scratch),
                    &context("Cosine"),
                );
                for accu in [
                    Accu::accupr(),
                    Accu::popaccu(),
                    Accu::accusim(),
                    Accu::accuformat(),
                    Accu::accusim_attr(),
                    Accu::accuformat_attr(),
                ] {
                    assert_same_bits(
                        &accu.run(&problem, &opts),
                        &reference_run_accu(&accu, &problem, &opts, &mut scratch),
                        &context(&accu.name()),
                    );
                }
                let truthfinder = TruthFinder::default();
                assert_same_bits(
                    &truthfinder.run(&problem, &opts),
                    &reference_run_truthfinder(&truthfinder, &problem, &opts, &mut scratch),
                    &context("TruthFinder"),
                );
            }
        }
    }
}
