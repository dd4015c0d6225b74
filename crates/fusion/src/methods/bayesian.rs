//! Bayesian methods: TRUTHFINDER and the ACCU family (ACCUPR, POPACCU,
//! ACCUSIM, ACCUFORMAT and the per-attribute variants).
//!
//! Reproduces the "Bayesian based" category of the paper's Table 6 (rows
//! 9-15 of Table 7). The `*ATTR` variants are the paper's best performers on
//! Stock (Table 7: .929/.930) and the subject of the Table-8 pairwise
//! comparison; Figure 12 shows they are also among the slowest.
//!
//! TRUTHFINDER (Yin et al., TKDE 2008) computes the probability of a value
//! being true conditioned on its providers via a log-odds accumulation and a
//! sigmoid, boosting values by their similar peers. The ACCU family (Dong et
//! al., PVLDB 2009) performs Bayesian analysis under the assumption that the
//! false values on an item are mutually exclusive: ACCUPR assumes `n`
//! uniformly-distributed false values, POPACCU replaces that assumption with
//! the observed popularity of the values, ACCUSIM adds value similarity,
//! ACCUFORMAT adds formatting (granularity subsumption), and the `*ATTR`
//! variants maintain one trustworthiness per (source, attribute).
//!
//! # Hot-path layout
//!
//! A provider's vote depends only on its trust on the item's attribute —
//! the ACCU paper's vote count `ln(n·A/(1 − A))` (Dong et al., PVLDB 2009),
//! and TRUTHFINDER's `−ln(1 − min(t, 0.999))` — plus, for POPACCU, a
//! per-candidate popularity term that no round changes. So the rounds take
//! no logarithm per claim:
//!
//! * **Score table** — at the start of each round, one S × A table (source
//!   × attribute, in [`FusionScratch`]) holds every provider score, filled
//!   from the round's trust with the same clamp and the same expression the
//!   per-claim form used. A candidate's vote sums `table[s·A + attr]` over
//!   its providers in provider order.
//! * **`ln(pop)` plane** — POPACCU (and ACCUCOPY over a POPACCU base) builds
//!   one `ln(pop)` per global candidate once per run, and each provider's
//!   term is `table[s·A + attr] − pop_ln[g]`. The other variants subtract
//!   `0.0`, which leaves every term's bits as they are.
//!
//! Every summand is the same `f64` the per-claim form computed, and the
//! summation order is unchanged, so the results are bit-identical to it
//! (the frozen loops in `methods/reference.rs` pin this).

use crate::kernels;
use crate::methods::{effective_rounds, initial_trust, FusionMethod};
use crate::problem::FusionProblem;
use crate::types::{
    AttrTrust, FusionOptions, FusionResult, FusionScratch, TrustEstimate, TrustScratch, VotePlane,
};
use std::time::Instant;

/// TRUTHFINDER (Yin et al.).
#[derive(Debug, Clone, Copy)]
pub struct TruthFinder {
    /// Dampening factor γ of the sigmoid.
    pub gamma: f64,
    /// Weight ρ of the similarity adjustment.
    pub rho: f64,
    /// Initial source trustworthiness.
    pub initial_trust: f64,
}

impl Default for TruthFinder {
    fn default() -> Self {
        Self {
            gamma: 0.3,
            rho: 0.5,
            initial_trust: 0.9,
        }
    }
}

impl FusionMethod for TruthFinder {
    fn name(&self) -> String {
        "TruthFinder".to_string()
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        let start = Instant::now();
        let FusionScratch {
            plane: confidence,
            cand_a: raw,
            trust_acc,
            score_table,
            ..
        } = scratch;
        let mut trust = initial_trust(problem, options, self.initial_trust);
        confidence.reset_for(problem);
        raw.clear();
        let num_attrs = problem.num_attrs;
        let mut rounds = 0usize;
        for _ in 0..effective_rounds(options) {
            rounds += 1;
            // Per-provider score `-ln(1 - τ)`, one per (source, attribute).
            fill_table_from_trust(problem, &trust, score_table, |t| {
                -(1.0 - t.min(0.999)).ln()
            });
            for i in 0..confidence.num_items() {
                let item = problem.item(i);
                let attr = item.attr();
                raw.clear();
                raw.resize(item.num_candidates(), 0.0);
                // Raw trustworthiness score: sum of -ln(1 - τ) over providers.
                for (c, cand) in item.candidates().enumerate() {
                    raw[c] = cand
                        .providers()
                        .iter()
                        .map(|&s| score_table[s as usize * num_attrs + attr])
                        .sum();
                }
                // Similarity adjustment and sigmoid.
                let out = confidence.item_mut(i);
                for (c, cand) in item.candidates().enumerate() {
                    let mut adjusted = raw[c];
                    for &(j, sim) in cand.similar() {
                        adjusted += self.rho * sim * raw[j as usize];
                    }
                    out[c] = 1.0 / (1.0 + (-self.gamma * adjusted).exp());
                }
            }
            // Trust update: average confidence of the source's claims.
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
        FusionResult::from_selection(&self.name(), problem, selection, trust, rounds, start)
    }
}

/// Which member of the ACCU family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuVariant {
    /// Bayesian analysis with `n` uniformly-distributed false values.
    AccuPr,
    /// Replace the uniform-false-value assumption by observed popularity.
    PopAccu,
    /// ACCUPR plus value similarity.
    AccuSim,
    /// ACCUSIM plus value formatting (granularity subsumption).
    AccuFormat,
}

/// The ACCU family of Bayesian fusion methods.
#[derive(Debug, Clone, Copy)]
pub struct Accu {
    /// Which variant to run.
    pub variant: AccuVariant,
    /// Maintain one trustworthiness per (source, attribute).
    pub per_attribute: bool,
    /// Assumed number of uniformly-distributed false values (`n`).
    pub n_false_values: f64,
    /// Weight ρ of the similarity adjustment.
    pub rho: f64,
    /// Weight of the formatting (subsumption) adjustment.
    pub format_weight: f64,
    /// Initial source accuracy.
    pub initial_accuracy: f64,
}

impl Accu {
    /// ACCUPR.
    pub fn accupr() -> Self {
        Self::new(AccuVariant::AccuPr, false)
    }

    /// POPACCU.
    pub fn popaccu() -> Self {
        Self::new(AccuVariant::PopAccu, false)
    }

    /// ACCUSIM.
    pub fn accusim() -> Self {
        Self::new(AccuVariant::AccuSim, false)
    }

    /// ACCUFORMAT.
    pub fn accuformat() -> Self {
        Self::new(AccuVariant::AccuFormat, false)
    }

    /// ACCUSIMATTR.
    pub fn accusim_attr() -> Self {
        Self::new(AccuVariant::AccuSim, true)
    }

    /// ACCUFORMATATTR.
    pub fn accuformat_attr() -> Self {
        Self::new(AccuVariant::AccuFormat, true)
    }

    fn new(variant: AccuVariant, per_attribute: bool) -> Self {
        Self {
            variant,
            per_attribute,
            n_false_values: 10.0,
            rho: 0.5,
            format_weight: 0.5,
            initial_accuracy: 0.8,
        }
    }

    /// Fill `table` with the round's per-(source, attribute) provider score
    /// under `trust`: `ln(n·a / (1 − a))` with the accuracy `a` clamped to
    /// `[0.01, 0.99]`. POPACCU replaces the `n` uniform false values by its
    /// per-candidate [`popularity_ln`](Self::popularity_ln), so its table is
    /// the log-odds, `n = 1` (a product with `1.0` is exact).
    pub(crate) fn fill_score_table(
        &self,
        problem: &FusionProblem,
        trust: &TrustEstimate,
        table: &mut Vec<f64>,
    ) {
        let n = match self.variant {
            AccuVariant::PopAccu => 1.0,
            _ => self.n_false_values,
        };
        fill_table_from_trust(problem, trust, table, |a| {
            let a = a.clamp(0.01, 0.99);
            (n * a / (1.0 - a)).ln()
        });
    }

    /// POPACCU's popularity-aware false-value prior as `ln(pop)` per global
    /// candidate (`None` for the other variants): popular values get less
    /// of a boost per provider, so copied false values stop dominating.
    pub(crate) fn popularity_ln(&self, problem: &FusionProblem) -> Option<Vec<f64>> {
        if self.variant != AccuVariant::PopAccu {
            return None;
        }
        let mut pop_ln = Vec::with_capacity(problem.num_candidates());
        for item in problem.items() {
            let total = item.total_provider_slots();
            let k = item.num_candidates() as f64;
            for cand in item.candidates() {
                let support = cand.providers().len();
                let pop = (support as f64 + 0.5) / (total as f64 + 0.5 * k);
                pop_ln.push(pop.ln());
            }
        }
        Some(pop_ln)
    }

    fn uses_similarity(&self) -> bool {
        matches!(self.variant, AccuVariant::AccuSim | AccuVariant::AccuFormat)
    }

    fn uses_formatting(&self) -> bool {
        matches!(self.variant, AccuVariant::AccuFormat)
    }
}

impl FusionMethod for Accu {
    fn name(&self) -> String {
        let base = match self.variant {
            AccuVariant::AccuPr => "AccuPr",
            AccuVariant::PopAccu => "PopAccu",
            AccuVariant::AccuSim => "AccuSim",
            AccuVariant::AccuFormat => "AccuFormat",
        };
        if self.per_attribute {
            format!("{base}Attr")
        } else {
            base.to_string()
        }
    }

    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult {
        let start = Instant::now();
        let mut opts = options.clone();
        opts.per_attribute_trust = opts.per_attribute_trust || self.per_attribute;
        let FusionScratch {
            plane: probabilities,
            cand_a: votes,
            cand_b: adjusted,
            trust_acc,
            score_table,
            ..
        } = scratch;
        let mut trust = initial_trust(problem, &opts, self.initial_accuracy);
        probabilities.reset_for(problem);
        let pop_ln = self.popularity_ln(problem);
        let pop_ln = pop_ln.as_deref();
        let num_attrs = problem.num_attrs;
        let mut rounds = 0usize;
        for _ in 0..effective_rounds(&opts) {
            rounds += 1;
            self.fill_score_table(problem, &trust, score_table);
            for i in 0..probabilities.num_items() {
                let item = problem.item(i);
                let attr = item.attr();
                let num_candidates = item.num_candidates();
                votes.clear();
                votes.resize(num_candidates, 0.0);
                adjusted.clear();
                adjusted.resize(num_candidates, 0.0);
                let first = item.cand_range().start;
                for (c, cand) in item.candidates().enumerate() {
                    // `x - 0.0 == x` bit for bit, so the variants without a
                    // popularity term share this sum.
                    let pop = pop_ln.map_or(0.0, |pop_ln| pop_ln[first + c]);
                    votes[c] = cand
                        .providers()
                        .iter()
                        .map(|&s| score_table[s as usize * num_attrs + attr] - pop)
                        .sum();
                }
                for (c, cand) in item.candidates().enumerate() {
                    let mut v = votes[c];
                    if self.uses_similarity() {
                        for &(j, sim) in cand.similar() {
                            v += self.rho * sim * votes[j as usize];
                        }
                    }
                    if self.uses_formatting() {
                        for &j in cand.coarse_supporters() {
                            v += self.format_weight * votes[j as usize];
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
        FusionResult::from_selection(&self.name(), problem, selection, trust, rounds, start)
    }
}

/// Fill the S × A `table` (the flat `source * num_attrs + attr` layout of
/// [`AttrTrust`]) with `score` of every source's trust on every attribute.
fn fill_table_from_trust(
    problem: &FusionProblem,
    trust: &TrustEstimate,
    table: &mut Vec<f64>,
    score: impl Fn(f64) -> f64,
) {
    let num_attrs = problem.num_attrs;
    table.clear();
    for s in 0..problem.num_sources() {
        table.extend((0..num_attrs).map(|attr| score(trust.of(s, attr))));
    }
}

/// Stable softmax of `scores` into `out`.
pub(crate) fn softmax_into(scores: &[f64], out: &mut [f64]) {
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    for (o, s) in out.iter_mut().zip(scores) {
        let e = (s - max).exp();
        *o = e;
        total += e;
    }
    if total > 0.0 {
        for o in out.iter_mut() {
            *o /= total;
        }
    }
}

/// Update trust as the average per-claim score (probability or confidence) of
/// each source, optionally per attribute. `acc` provides the reusable S and
/// S×A accumulators (re-zeroed here), so the per-round update allocates
/// nothing once the scratch is warm.
pub(crate) fn update_trust_from_scores(
    problem: &FusionProblem,
    scores: &VotePlane,
    options: &FusionOptions,
    trust: &mut TrustEstimate,
    acc: &mut TrustScratch,
) {
    let per_attr = options.per_attribute_trust || trust.per_attr.is_some();
    let num_attrs = problem.num_attrs;
    // The S×A accumulators are only needed (and only sized) for the
    // per-attribute variants; they share the flat `source * num_attrs + attr`
    // layout of [`AttrTrust`].
    acc.reset(problem.num_sources(), num_attrs, per_attr);
    for (s, claims) in problem.claims_by_source().enumerate() {
        acc.overall_count[s] = claims.len();
        if per_attr {
            let row = s * num_attrs..(s + 1) * num_attrs;
            acc.overall_sum[s] = kernels::sum_claim_scores_per_attr(
                claims,
                scores.offsets(),
                scores.values(),
                problem.item_attrs_flat(),
                &mut acc.attr_sum[row.clone()],
                &mut acc.attr_count[row],
            );
        } else {
            acc.overall_sum[s] =
                kernels::sum_claim_scores(claims, scores.offsets(), scores.values());
        }
    }
    for s in 0..problem.num_sources() {
        if acc.overall_count[s] > 0 {
            trust.overall[s] = acc.overall_sum[s] / acc.overall_count[s] as f64;
        }
    }
    if per_attr {
        let pa = trust
            .per_attr
            .get_or_insert_with(|| AttrTrust::filled(problem.num_sources(), num_attrs, 0.8));
        for s in 0..problem.num_sources() {
            for a in 0..num_attrs {
                let k = s * num_attrs + a;
                if acc.attr_count[k] > 0 {
                    pa.set(s, a, acc.attr_sum[k] / acc.attr_count[k] as f64);
                } else {
                    // Attributes the source does not provide inherit its
                    // overall trust.
                    pa.set(s, a, trust.overall[s]);
                }
            }
        }
    }
}

/// Clamp all trust entries into `[lo, hi]`.
pub(crate) fn clamp_trust(trust: &mut TrustEstimate, lo: f64, hi: f64) {
    for t in trust.overall.iter_mut() {
        *t = t.clamp(lo, hi);
    }
    if let Some(pa) = trust.per_attr.as_mut() {
        for t in pa.values_mut() {
            *t = t.clamp(lo, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testutil::{precision, trust_sensitive_snapshot};

    fn check(method: &dyn FusionMethod, min_precision: f64) -> FusionResult {
        let (snap, gold) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let result = method.run(&problem, &FusionOptions::standard());
        let p = precision(&result, &snap, &gold);
        assert!(
            p >= min_precision,
            "{} precision {p} below {min_precision}",
            method.name()
        );
        result
    }

    #[test]
    fn truthfinder_runs_and_computes_high_trust() {
        let result = check(&TruthFinder::default(), 0.8);
        // TruthFinder is known to over-estimate trust (paper Section 4.2).
        let avg: f64 =
            result.trust.overall.iter().sum::<f64>() / result.trust.overall.len() as f64;
        assert!(avg > 0.7, "average TruthFinder trust {avg}");
    }

    #[test]
    fn accu_family_beats_vote_on_learnable_accuracy_data() {
        use crate::methods::testutil::learnable_accuracy_snapshot;
        use crate::methods::Vote;
        let (snap, gold) = learnable_accuracy_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let vote_p = precision(&Vote.run(&problem, &FusionOptions::standard()), &snap, &gold);
        assert!(vote_p < 0.99, "VOTE must fail on the copied-majority item");
        for method in [Accu::accupr(), Accu::accusim(), Accu::accuformat()] {
            let result = method.run(&problem, &FusionOptions::standard());
            let p = precision(&result, &snap, &gold);
            assert!(
                p > vote_p,
                "{} ({p}) should beat VOTE ({vote_p}) once accuracies are learned",
                method.name()
            );
            // The always-correct source 0 must end among the most trusted.
            let s0 = problem.source_index(datamodel::SourceId(0)).unwrap();
            let max = result.trust.overall.iter().cloned().fold(0.0, f64::max);
            assert!(result.trust.overall[s0] >= max - 1e-9);
        }
    }

    #[test]
    fn popaccu_runs() {
        check(&Accu::popaccu(), 0.8);
    }

    #[test]
    fn attr_variants_produce_per_attribute_trust() {
        let (snap, _) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let result = Accu::accuformat_attr().run(&problem, &FusionOptions::standard());
        assert_eq!(result.method, "AccuFormatAttr");
        let pa = result.trust.per_attr.as_ref().expect("per-attribute trust");
        assert_eq!(pa.num_sources(), problem.num_sources());
        assert_eq!(pa.num_attrs(), problem.num_attrs);
    }

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(Accu::accupr().name(), "AccuPr");
        assert_eq!(Accu::popaccu().name(), "PopAccu");
        assert_eq!(Accu::accusim().name(), "AccuSim");
        assert_eq!(Accu::accuformat().name(), "AccuFormat");
        assert_eq!(Accu::accusim_attr().name(), "AccuSimAttr");
        assert_eq!(Accu::accuformat_attr().name(), "AccuFormatAttr");
    }

    #[test]
    fn softmax_is_a_distribution() {
        let mut out = vec![0.0; 3];
        softmax_into(&[1.0, 2.0, 3.0], &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn input_trust_short_circuits() {
        let (snap, gold) = trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        // With sampled (oracle) trust the two wrong sources carry so little
        // weight that the minority-but-correct value wins in a single pass.
        let opts = FusionOptions::standard().with_input_trust(vec![0.95, 0.5, 0.5]);
        let result = Accu::accupr().run(&problem, &opts);
        assert_eq!(result.rounds, 1);
        assert!(precision(&result, &snap, &gold) > 0.99);
    }
}
