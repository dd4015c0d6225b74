//! ACCUCOPY: the copying-aware member of the ACCU family.
//!
//! Reproduces the "Copying affected" category of the paper's Table 6 (the
//! last row of Table 7): the paper's best method on Flight (.943 without
//! input trust, .960 with oracle trust and the claimed copy relations of
//! Table 5) and its slowest (Figure 12: 855 s on the Stock snapshot).
//!
//! ACCUCOPY augments ACCUFORMAT by weighting the vote of every provider by
//! the probability that it provided the value *independently* (Dong et al.,
//! PVLDB 2009). Copy probabilities either come from the caller (the paper's
//! oracle experiments feed the claimed dependencies of Table 5) or are
//! re-detected every round from the current truth selection, treating shared
//! false values as strong evidence of copying — including the known weakness
//! the paper highlights: on numeric data the detector does not account for
//! value similarity, so near-the-truth values shared by accurate sources can
//! be mistaken for copied false values.
//!
//! # Hot-path layout
//!
//! Copy detection and the independence-discounted vote dominate the
//! method's runtime, so both run over dense per-run tables instead of
//! per-round tree maps:
//!
//! * [`CoClaims`] — an item × source table of claimed candidates (4 bytes
//!   a slot, `u32::MAX` for no claim), built **once** per run. Which items
//!   two sources share never changes between rounds; only the current
//!   selection decides whether a shared value counts as false. Each round
//!   walks every source `a`'s item-ordered claim list once and, per claimed
//!   item, reads the item's table row for all later sources `b` at once,
//!   adding one of two per-pair-constant log-likelihood increments to each
//!   pair that shares the item. Every pair's sum thus runs over its shared
//!   items in item order, and nothing per shared item is stored: the index
//!   is `num_items × num_sources` slots however much the sources overlap.
//! * [`CopyMatrix`] — a flat triangular array of the pair probabilities.
//!   Each round expands it into a square table of independence factors
//!   `1 - copy_rate * p`, one row per source, so the vote loop's one factor
//!   per (provider, earlier provider) combination is a single row read.
//! * Accuracy ranks — each round ranks the sources by accuracy once per
//!   attribute; a candidate's providers are put in voting order by setting
//!   their rank bits and reading the set bits back in rank order.
//! * Score table — each round fills the base ACCU method's S × A table of
//!   provider scores (see the `bayesian` module's hot-path layout), so a
//!   provider's discounted vote reads its score instead of taking a
//!   logarithm; a POPACCU base also subtracts its per-run `ln(pop)` plane.

use crate::copymatrix::CopyMatrix;
use crate::methods::bayesian::{clamp_trust, softmax_into, update_trust_from_scores, Accu};
use crate::methods::{effective_rounds, initial_trust, FusionMethod};
use crate::problem::FusionProblem;
use crate::types::{FusionOptions, FusionResult, FusionScratch};
use std::time::Instant;

/// ACCUCOPY.
#[derive(Debug, Clone, Copy)]
pub struct AccuCopy {
    /// The underlying ACCUFORMAT parameterization.
    pub base: Accu,
    /// Probability that a copier copies any particular value, given that the
    /// pair has a copy relation (the `c` of Dong et al.).
    pub copy_rate: f64,
    /// Prior probability of a copy relation between an arbitrary source pair.
    pub prior: f64,
    /// Minimum number of shared items before a pair is scored.
    pub min_shared_items: usize,
}

impl Default for AccuCopy {
    fn default() -> Self {
        Self {
            base: Accu::accuformat(),
            copy_rate: 0.8,
            prior: 0.1,
            min_shared_items: 10,
        }
    }
}

impl FusionMethod for AccuCopy {
    fn name(&self) -> String {
        "AccuCopy".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        let start = Instant::now();
        let mut opts = options.clone();
        opts.per_attribute_trust = opts.per_attribute_trust || self.base.per_attribute;
        // The oracle matrix is borrowed for the whole run; the detection path
        // re-scores one reusable matrix against the round's selection.
        let known = opts.known_copy_probabilities.take();
        let co_claims = known
            .is_none()
            .then(|| CoClaims::build(problem, self.min_shared_items));
        // Reusable scratch: the probability plane, the per-item vote buffers,
        // the accuracy-ordered provider list, the per-source error rates, the
        // detected-copying matrix, and the trust accumulators.
        let FusionScratch {
            plane: probabilities,
            cand_a: votes,
            cand_b: adjusted,
            providers: ordered_providers,
            source_f: error_rates,
            copy_probs: detected,
            trust_acc,
            score_table,
            ..
        } = scratch;
        detected.reset(problem.num_sources());
        error_rates.clear();
        error_rates.resize(problem.num_sources(), 0.0);

        let num_sources = problem.num_sources();
        // Per-round tables of the vote loop: each attribute's accuracy order
        // of the sources, every source's rank in it, and the independence
        // factor `1 - copy_rate * p` of every ordered source pair.
        let mut orders: Vec<u32> = (0..problem.num_attrs)
            .flat_map(|_| 0..num_sources as u32)
            .collect();
        let mut ranks = vec![0u32; num_sources * problem.num_attrs];
        let mut factors = vec![0.0; num_sources * num_sources];
        let pop_ln = self.base.popularity_ln(problem);
        let num_attrs = problem.num_attrs;

        let mut trust = initial_trust(problem, &opts, self.base.initial_accuracy);
        probabilities.reset_for(problem);
        // Start from the dominant-value selection for the first copy-detection
        // pass.
        let mut selection = vec![0usize; problem.num_items()];
        // Rank bits of the candidate whose providers are being ordered.
        let mut ranked = vec![0u64; num_sources.div_ceil(64)];

        let mut rounds = 0usize;
        for _ in 0..effective_rounds(&opts) {
            rounds += 1;
            let copy_probs: &CopyMatrix = match (&known, &co_claims) {
                (Some(k), _) => k,
                (None, Some(co)) => {
                    co.rescore(
                        problem,
                        &selection,
                        self.copy_rate,
                        self.prior,
                        error_rates,
                        detected,
                    );
                    detected
                }
                (None, None) => unreachable!("co-claims are built whenever no oracle is given"),
            };
            for (s, row) in factors.chunks_exact_mut(num_sources.max(1)).enumerate() {
                for (e, factor) in row.iter_mut().enumerate() {
                    *factor = 1.0 - self.copy_rate * copy_probs.get(s, e);
                }
            }
            // Providers are voted in decreasing accuracy. The index tiebreak
            // makes this a strict total order over distinct sources, so a
            // candidate's providers listed in rank order are its providers
            // sorted by this comparison.
            let per_attr = orders
                .chunks_exact_mut(num_sources.max(1))
                .zip(ranks.chunks_exact_mut(num_sources.max(1)));
            for (attr, (order, rank)) in per_attr.enumerate() {
                order.sort_unstable_by(|&a, &b| {
                    trust
                        .of(b as usize, attr)
                        .partial_cmp(&trust.of(a as usize, attr))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                for (r, &s) in order.iter().enumerate() {
                    rank[s as usize] = r as u32;
                }
            }
            self.base.fill_score_table(problem, &trust, score_table);
            for i in 0..probabilities.num_items() {
                let item = problem.item(i);
                let num_candidates = item.num_candidates();
                let attr = item.attr();
                votes.clear();
                votes.resize(num_candidates, 0.0);
                adjusted.clear();
                adjusted.resize(num_candidates, 0.0);
                // Independence-discounted vote: order providers by accuracy
                // and discount each by the probability that it copied from an
                // earlier provider of the same value.
                let order = &orders[attr * num_sources..(attr + 1) * num_sources];
                let rank = &ranks[attr * num_sources..(attr + 1) * num_sources];
                let first = item.cand_range().start;
                for (c, cand) in item.candidates().enumerate() {
                    let pop = pop_ln.as_ref().map_or(0.0, |pop_ln| pop_ln[first + c]);
                    // Set each provider's rank bit, then list the set bits in
                    // increasing rank (clearing them again).
                    for &s in cand.providers() {
                        let r = rank[s as usize] as usize;
                        ranked[r / 64] |= 1 << (r % 64);
                    }
                    ordered_providers.clear();
                    for (w, word) in ranked.iter_mut().enumerate() {
                        while *word != 0 {
                            let r = w * 64 + word.trailing_zeros() as usize;
                            ordered_providers.push(order[r]);
                            *word &= *word - 1;
                        }
                    }
                    let mut vote = 0.0;
                    for (k, &s) in ordered_providers.iter().enumerate() {
                        let row = &factors[s as usize * num_sources..][..num_sources];
                        let mut independent = 1.0;
                        for &earlier in &ordered_providers[..k] {
                            independent *= row[earlier as usize];
                        }
                        vote += independent * (score_table[s as usize * num_attrs + attr] - pop);
                    }
                    votes[c] = vote;
                }
                for (c, cand) in item.candidates().enumerate() {
                    let mut v = votes[c];
                    for &(j, sim) in cand.similar() {
                        v += self.base.rho * sim * votes[j as usize];
                    }
                    for &j in cand.coarse_supporters() {
                        v += self.base.format_weight * votes[j as usize];
                    }
                    adjusted[c] = v;
                }
                softmax_into(&adjusted[..num_candidates], probabilities.item_mut(i));
            }
            probabilities.argmax_into(&mut selection);
            let mut new_trust = trust.clone();
            update_trust_from_scores(problem, probabilities, &opts, &mut new_trust, trust_acc);
            clamp_trust(&mut new_trust, 0.01, 0.99);
            let change = new_trust.max_change(&trust);
            trust = new_trust;
            if change < opts.epsilon {
                break;
            }
        }
        FusionResult::from_selection(&self.name(), problem, selection, trust, rounds, start)
    }
}

/// Index of the items each source pair co-claims.
///
/// Holds a dense item × source table of claimed candidates and the list of
/// unordered source pairs that share at least `min_shared_items` items.
/// Walking source `a`'s claim list (which is in item order) and reading each
/// claimed item's table row visits every item `a` shares with each later
/// source `b`, in increasing item order — the order the scoring loop (and
/// its floating-point accumulation) expects. The structure depends only on
/// the prepared problem, never on the current selection, so a fusion run
/// builds it once and re-scores it every round.
#[derive(Debug, Clone)]
pub struct CoClaims {
    /// Scored pairs `(a, b)` with `a < b`, in lexicographic order.
    pairs: Vec<(u32, u32)>,
    /// Source `a`'s scored pairs are `pairs[first_pair[a]..first_pair[a +
    /// 1]]` (`num_sources + 1` offsets).
    first_pair: Vec<u32>,
    /// Candidate each source claims for each item, row-major by item
    /// (`num_items × num_sources`); `u32::MAX` where the source is silent.
    cand_of: Vec<u32>,
    /// Row length of `cand_of`.
    num_sources: usize,
    /// Shared items summed over the scored pairs.
    num_entries: usize,
}

/// `cand_of` marker for an item the source does not claim.
const NO_CLAIM: u32 = u32::MAX;

impl CoClaims {
    /// Index every source pair of `problem` sharing at least
    /// `min_shared_items` items.
    pub fn build(problem: &FusionProblem, min_shared_items: usize) -> Self {
        let num_sources = problem.num_sources();
        let mut cand_of = vec![NO_CLAIM; problem.num_items() * num_sources];
        for s in 0..num_sources {
            for &(i, c) in problem.claims(s) {
                cand_of[i as usize * num_sources + s] = c;
            }
        }
        let mut co = Self {
            pairs: Vec::new(),
            first_pair: vec![0],
            cand_of,
            num_sources,
            num_entries: 0,
        };
        let mut shared = vec![0u32; num_sources];
        for a in 0..num_sources {
            // `shared[k]`: items `a` shares with source `a + 1 + k`.
            let shared = &mut shared[a + 1..];
            shared.fill(0);
            for &(i, _) in problem.claims(a) {
                for (n, &cb) in shared.iter_mut().zip(co.later_row(i, a)) {
                    *n += u32::from(cb != NO_CLAIM);
                }
            }
            for (k, &n) in shared.iter().enumerate() {
                if n as usize >= min_shared_items {
                    co.pairs.push((a as u32, (a + 1 + k) as u32));
                    co.num_entries += n as usize;
                }
            }
            co.first_pair.push(co.pairs.len() as u32);
        }
        co
    }

    /// The candidates sources `a + 1..` claim for item `i`.
    #[inline]
    fn later_row(&self, i: u32, a: usize) -> &[u32] {
        let row = i as usize * self.num_sources;
        &self.cand_of[row + a + 1..row + self.num_sources]
    }

    /// Number of scored pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Total number of co-claimed (pair, item) entries across all scored
    /// pairs.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Score every indexed pair against `selection`, writing posterior copy
    /// probabilities into `out`. The matrix is cleared first, so pairs below
    /// the sharing floor read as `0.0` even if `out` held older scores.
    ///
    /// `error_rates` is caller-provided scratch of length `num_sources`,
    /// reused across rounds.
    pub fn rescore(
        &self,
        problem: &FusionProblem,
        selection: &[usize],
        copy_rate: f64,
        prior: f64,
        error_rates: &mut [f64],
        out: &mut CopyMatrix,
    ) {
        out.clear();
        // Error rate of each source w.r.t. the current selection.
        for (rate, claims) in error_rates.iter_mut().zip(problem.claims_by_source()) {
            *rate = if claims.is_empty() {
                0.2
            } else {
                let wrong = claims
                    .iter()
                    .filter(|&&(i, c)| selection.get(i as usize).copied().unwrap_or(0) != c as usize)
                    .count();
                (wrong as f64 / claims.len() as f64).clamp(0.01, 0.99)
            };
        }

        let scorer = PairScorer {
            co: self,
            problem,
            selection,
            error_rates,
            c: copy_rate.clamp(1e-6, 1.0 - 1e-6),
            prior_logit: {
                let prior = prior.clamp(1e-6, 1.0 - 1e-6);
                (prior / (1.0 - prior)).ln()
            },
        };
        let mut walk = PairWalk::default();
        for a in 0..self.num_sources {
            scorer.score_source(a, &mut walk, |p, prob| {
                let (a, b) = self.pairs[p];
                out.set(a as usize, b as usize, prob);
            });
        }
    }
}

/// The per-round constants of [`CoClaims::rescore`].
struct PairScorer<'a> {
    co: &'a CoClaims,
    problem: &'a FusionProblem,
    selection: &'a [usize],
    error_rates: &'a [f64],
    /// Clamped copy rate.
    c: f64,
    prior_logit: f64,
}

/// Per-partner buffers of one source's walk, indexed by `b - a - 1`.
#[derive(Default)]
struct PairWalk {
    /// Log-likelihood-ratio increment of sharing a value the selection
    /// calls false.
    same_false: Vec<f64>,
    /// Increment of claiming different values.
    diff: Vec<f64>,
    /// All zeros: the increment of sharing the selected value.
    zeros: Vec<f64>,
    llr: Vec<f64>,
}

impl PairScorer<'_> {
    /// Score source `a` against every later source, passing each scored
    /// pair's index and copy probability to `emit`.
    fn score_source(&self, a: usize, walk: &mut PairWalk, mut emit: impl FnMut(usize, f64)) {
        let co = self.co;
        let pairs = co.first_pair[a] as usize..co.first_pair[a + 1] as usize;
        if pairs.is_empty() {
            return;
        }
        let (c, n) = (self.c, 10.0);
        let ea = self.error_rates[a];
        let partners = co.num_sources - a - 1;
        walk.same_false.clear();
        walk.diff.clear();
        // The three case probabilities depend only on the pair's error
        // rates, so the two possible log-likelihood-ratio increments are
        // computed once per pair instead of twice-ln per shared item.
        for &eb in &self.error_rates[a + 1..] {
            let p_same_true = (1.0 - ea) * (1.0 - eb);
            let p_same_false = ea * eb / n;
            let p_diff = (1.0 - p_same_true - p_same_false).max(1e-9);
            walk.same_false.push(
                (c * ea + (1.0 - c) * p_same_false).max(1e-12).ln()
                    - p_same_false.max(1e-12).ln(),
            );
            walk.diff
                .push(((1.0 - c) * p_diff).max(1e-12).ln() - p_diff.max(1e-12).ln());
        }
        walk.zeros.clear();
        walk.zeros.resize(partners, 0.0);
        walk.llr.clear();
        walk.llr.resize(partners, 0.0);

        // Sharing the selected (presumed true) value is treated as neutral:
        // accurate independent sources agree on most items, so counting
        // agreement as evidence would flag every pair of good sources.
        // Sharing a *false* value is the strong signal; disagreeing is
        // evidence of independence (Dong et al.).
        //
        // Every partner takes an increment for every item `a` claims,
        // `+0.0` where it does not claim the item or shares the selected
        // value, so the inner loop has no data-dependent branch. Adding
        // `+0.0` leaves a sum's bits as they are (a sum that starts at
        // `+0.0` never becomes `-0.0`), so each partner's result is its
        // sum over the shared items alone, in item order.
        for &(i, ca) in self.problem.claims(a) {
            let selected = self.selection.get(i as usize).copied().unwrap_or(0) as u32;
            let same = if ca != selected {
                &walk.same_false
            } else {
                &walk.zeros
            };
            let lanes = walk.llr.iter_mut().zip(co.later_row(i, a)).zip(same).zip(&walk.diff);
            for (((llr, &cb), &same), &diff) in lanes {
                *llr += if cb == ca {
                    same
                } else if cb == NO_CLAIM {
                    0.0
                } else {
                    diff
                };
            }
        }
        for p in pairs {
            let b = co.pairs[p].1 as usize;
            let logit = walk.llr[b - a - 1] + self.prior_logit;
            emit(p, 1.0 / (1.0 + (-logit).exp()));
        }
    }
}

/// Detect pairwise copy probabilities from the current selection.
///
/// This is the same Bayesian log-likelihood-ratio accumulation as the
/// `copydetect` crate, expressed over the prepared problem (which is what the
/// fusion loop has at hand): sharing a non-selected value is strong evidence
/// of copying, sharing the selected value is weak evidence, disagreeing is
/// evidence of independence.
///
/// One-shot convenience over [`CoClaims`]: callers that score several
/// selections against the same problem (as [`AccuCopy::run`] does every
/// round) should build the index once and [`CoClaims::rescore`] it instead.
pub fn detect_copying(
    problem: &FusionProblem,
    selection: &[usize],
    copy_rate: f64,
    prior: f64,
    min_shared_items: usize,
) -> CopyMatrix {
    let co_claims = CoClaims::build(problem, min_shared_items);
    let mut error_rates = vec![0.0; problem.num_sources()];
    let mut out = CopyMatrix::new(problem.num_sources());
    co_claims.rescore(
        problem,
        selection,
        copy_rate,
        prior,
        &mut error_rates,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::precision;
    use datamodel::{AttrId, AttrKind, DomainSchema, GoldStandard, ItemId, ObjectId, Snapshot,
        SnapshotBuilder, SourceId, Value};
    use std::sync::Arc;

    /// Seven sources over 60 items. Sources s0-s3 are honest (s2/s3 only
    /// cover two thirds of the objects); s4-s6 are a copier clique that
    /// shares the same wrong value on objects ≡ 0 and ≡ 1 (mod 3):
    ///
    /// * objects ≡ 0 (mod 3): providers are s0, s1 (truth) and the clique
    ///   (wrong) — the copied wrong value **dominates** 3-to-2, so VOTE fails;
    /// * objects ≡ 1 (mod 3): all honest sources are present, the clique is
    ///   outvoted — these items expose the clique's shared false values to
    ///   the copy detector;
    /// * objects ≡ 2 (mod 3): everyone provides the truth.
    fn copied_majority_snapshot() -> (Snapshot, GoldStandard) {
        let mut schema = DomainSchema::new("test");
        schema.add_attribute("x", AttrKind::Numeric { scale: 100.0 }, false);
        for i in 0..7 {
            schema.add_source(format!("s{i}"), false);
        }
        let mut b = SnapshotBuilder::new(0);
        let a = AttrId(0);
        let mut gold = GoldStandard::new();
        for obj in 0..60u32 {
            let truth = 100.0 + 2.0 * obj as f64;
            gold.insert(ItemId::new(ObjectId(obj), a), Value::number(truth));
            b.add(SourceId(0), ObjectId(obj), a, Value::number(truth));
            b.add(SourceId(1), ObjectId(obj), a, Value::number(truth));
            if obj % 3 != 0 {
                b.add(SourceId(2), ObjectId(obj), a, Value::number(truth));
                b.add(SourceId(3), ObjectId(obj), a, Value::number(truth));
            }
            let clique_value = if obj % 3 == 2 { truth } else { truth + 50.0 };
            for s in 4..7 {
                b.add(SourceId(s), ObjectId(obj), a, Value::number(clique_value));
            }
        }
        (b.build(Arc::new(schema)), gold)
    }

    #[test]
    fn accucopy_recovers_items_where_the_copied_value_dominates() {
        let (snap, gold) = copied_majority_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let vote = crate::methods::Vote.run(&problem, &FusionOptions::standard());
        let vote_p = precision(&vote, &snap, &gold);
        assert!(vote_p < 0.75, "VOTE should fail on copied items, got {vote_p}");

        let accucopy = AccuCopy::default().run(&problem, &FusionOptions::standard());
        let copy_p = precision(&accucopy, &snap, &gold);
        assert!(
            copy_p > vote_p,
            "AccuCopy ({copy_p}) should beat VOTE ({vote_p}) when wrong values are copied"
        );
        assert!(copy_p > 0.9, "AccuCopy precision {copy_p}");
    }

    #[test]
    fn detection_scores_the_clique_higher_than_unrelated_honest_pairs() {
        let (snap, _) = copied_majority_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let selection = vec![0usize; problem.num_items()];
        let probs = detect_copying(&problem, &selection, 0.8, 0.1, 10);
        let idx = |i: u32| problem.source_index(SourceId(i)).unwrap();
        let clique_p = probs.get(idx(4), idx(5));
        // s2 and s3 never share a value the dominant selection calls false.
        let honest_p = probs.get(idx(2), idx(3));
        assert!(
            clique_p > honest_p,
            "clique pair {clique_p} should out-score honest pair {honest_p}"
        );
        assert!(clique_p > 0.5, "clique pair probability {clique_p}");
        assert!(honest_p < 0.5, "honest pair probability {honest_p}");
    }

    #[test]
    fn known_copying_is_used_when_supplied() {
        let (snap, gold) = copied_majority_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let mut known = CopyMatrix::new(problem.num_sources());
        for i in 4..7usize {
            for j in (i + 1)..7usize {
                let a = problem.source_index(SourceId(i as u32)).unwrap();
                let b = problem.source_index(SourceId(j as u32)).unwrap();
                known.set(a, b, 1.0);
            }
        }
        let opts = FusionOptions::standard().with_known_copying(known);
        let result = AccuCopy::default().run(&problem, &opts);
        let p = precision(&result, &snap, &gold);
        assert!(p > 0.95, "AccuCopy with oracle copying scored {p}");
    }

    /// Bit-exact equivalence of the dense hot path against the frozen
    /// map-based implementation in [`crate::methods::reference`]: identical
    /// `selection`, `trust.overall`, `trust.per_attr`, and `rounds`.
    fn assert_bit_identical(method: &AccuCopy, problem: &FusionProblem, opts: &FusionOptions) {
        let new = method.run(problem, opts);
        let old = crate::methods::reference::reference_run(method, problem, opts);
        assert_eq!(new.selection, old.selection, "selections diverged");
        assert_eq!(new.rounds, old.rounds, "round counts diverged");
        assert_eq!(
            new.trust.overall, old.trust.overall,
            "overall trust diverged"
        );
        assert_eq!(
            new.trust.per_attr, old.trust.per_attr,
            "per-attribute trust diverged"
        );
        assert_eq!(new.selected, old.selected, "selected values diverged");
    }

    #[test]
    fn dense_path_is_bit_identical_on_the_fixture() {
        let (snap, _) = copied_majority_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        // The clique's copy relations as a known (oracle) matrix.
        let mut clique = CopyMatrix::new(problem.num_sources());
        for i in 4..7u32 {
            for j in (i + 1)..7u32 {
                let a = problem.source_index(SourceId(i)).unwrap();
                let b = problem.source_index(SourceId(j)).unwrap();
                clique.set(a, b, 1.0);
            }
        }
        // A POPACCU base subtracts its `ln(pop)` plane from every score.
        let popaccu_base = AccuCopy {
            base: Accu::popaccu(),
            ..AccuCopy::default()
        };
        let input = vec![0.9, 0.9, 0.8, 0.8, 0.4, 0.4, 0.4];
        for known in [None, Some(clique)] {
            for opts in [
                FusionOptions::standard(),
                FusionOptions::standard().with_per_attribute_trust(),
                FusionOptions::standard().with_input_trust(input.clone()),
            ] {
                let opts = match &known {
                    Some(known) => opts.with_known_copying(known.clone()),
                    None => opts,
                };
                assert_bit_identical(&AccuCopy::default(), &problem, &opts);
                assert_bit_identical(&popaccu_base, &problem, &opts);
            }
        }
    }

    #[test]
    fn dense_path_is_bit_identical_on_seeded_stock_and_flight() {
        for domain in [
            datagen::generate(&datagen::stock_config(2012).scaled(0.02, 0.1)),
            datagen::generate(&datagen::flight_config(2012).scaled(0.1, 0.06)),
        ] {
            let problem = FusionProblem::from_snapshot(domain.reference_snapshot());
            // Detected-copying path.
            assert_bit_identical(&AccuCopy::default(), &problem, &FusionOptions::standard());
            // Oracle path: the planted copy groups as a known matrix.
            let mut known = CopyMatrix::new(problem.num_sources());
            for group in &domain.copy_groups {
                for x in 0..group.len() {
                    for y in (x + 1)..group.len() {
                        let (Some(a), Some(b)) = (
                            problem.source_index(group[x]),
                            problem.source_index(group[y]),
                        ) else {
                            continue;
                        };
                        known.set(a, b, 1.0);
                    }
                }
            }
            let opts = FusionOptions::standard().with_known_copying(known);
            assert_bit_identical(&AccuCopy::default(), &problem, &opts);
        }
    }

    #[test]
    fn dense_detection_matches_reference_detection_exactly() {
        let domain = datagen::generate(&datagen::stock_config(2012).scaled(0.02, 0.1));
        let problem = FusionProblem::from_snapshot(domain.reference_snapshot());
        let selection = vec![0usize; problem.num_items()];
        let dense = detect_copying(&problem, &selection, 0.8, 0.1, 10);
        let reference = crate::methods::reference::reference_detect_copying(
            &problem, &selection, 0.8, 0.1, 10,
        );
        assert!(!reference.is_empty(), "reference detection found no pairs");
        for a in 0..problem.num_sources() {
            for b in (a + 1)..problem.num_sources() {
                let old = reference.get(&(a, b)).copied().unwrap_or(0.0);
                assert_eq!(dense.get(a, b), old, "pair ({a},{b}) diverged");
            }
        }
    }

    #[test]
    fn co_claims_index_matches_the_problem() {
        let (snap, _) = copied_majority_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        // With no sharing floor, every pair of the seven sources co-claims
        // something; the per-pair entry counts must match a naive recount.
        let co = CoClaims::build(&problem, 0);
        assert_eq!(co.num_pairs(), 7 * 6 / 2);
        let naive: usize = problem
            .items()
            .map(|i| i.num_providers() * (i.num_providers() - 1) / 2)
            .sum();
        assert_eq!(co.num_entries(), naive);
        // s2/s3 cover 40 of the 60 items; a floor of 41 drops exactly the
        // pairs involving one of them against each other but keeps full-cover
        // pairs.
        let co_floored = CoClaims::build(&problem, 41);
        assert!(co_floored.num_pairs() < co.num_pairs());
        assert!(co_floored.num_pairs() > 0);
    }
}
