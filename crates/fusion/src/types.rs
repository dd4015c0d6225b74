//! Options, trust estimates, vote storage, and results shared by all fusion
//! methods.

use crate::copymatrix::CopyMatrix;
use crate::kernels;
use crate::problem::FusionProblem;
use datamodel::{ItemId, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Options controlling a fusion run.
#[derive(Debug, Clone, Default)]
pub struct FusionOptions {
    /// Maximum number of iterative rounds (ignored by VOTE).
    pub max_rounds: usize,
    /// Convergence threshold on the L∞ change of source trust between rounds.
    pub epsilon: f64,
    /// Sampled source trustworthiness supplied as input, indexed like
    /// `FusionProblem::sources`. When present the method uses it directly and
    /// performs a single vote-and-select pass — the paper's "precision with
    /// trust" columns.
    pub input_trust: Option<Vec<f64>>,
    /// Distinguish trustworthiness per attribute (the `*ATTR` variants).
    pub per_attribute_trust: bool,
    /// Known copy probabilities per unordered dense source-index pair, fed to
    /// copy-aware methods instead of running detection (the paper's
    /// "ignore copiers of Table 5" oracle experiments).
    pub known_copy_probabilities: Option<CopyMatrix>,
}

impl FusionOptions {
    /// Default options: at most 20 rounds, ε = 1e-4, no input trust.
    pub fn standard() -> Self {
        Self {
            max_rounds: 20,
            epsilon: 1e-4,
            input_trust: None,
            per_attribute_trust: false,
            known_copy_probabilities: None,
        }
    }

    /// Enable per-attribute trust.
    pub fn with_per_attribute_trust(mut self) -> Self {
        self.per_attribute_trust = true;
        self
    }

    /// Provide sampled trust as input.
    pub fn with_input_trust(mut self, trust: Vec<f64>) -> Self {
        self.input_trust = Some(trust);
        self
    }

    /// Provide known copy probabilities (dense source-index pairs).
    pub fn with_known_copying(mut self, probs: CopyMatrix) -> Self {
        self.known_copy_probabilities = Some(probs);
        self
    }

    /// Effective maximum number of rounds (at least one).
    pub fn rounds(&self) -> usize {
        self.max_rounds.max(1)
    }
}

/// Per-(source, attribute) trust in structure-of-arrays layout: one flat
/// `Vec<f64>` indexed `source * num_attrs + attr`, so the `*ATTR` variants'
/// inner `trust.of(s, attr)` reads are a single cache-linear index instead of
/// one heap hop per source row.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrTrust {
    num_attrs: usize,
    /// Flat values, indexed `source * num_attrs + attr`.
    values: Vec<f64>,
}

impl AttrTrust {
    /// A matrix with every entry set to `value`.
    pub fn filled(num_sources: usize, num_attrs: usize, value: f64) -> Self {
        Self {
            num_attrs,
            values: vec![value; num_sources * num_attrs],
        }
    }

    /// Number of attributes per source (the row stride).
    pub fn num_attrs(&self) -> usize {
        self.num_attrs
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.values.len().checked_div(self.num_attrs).unwrap_or(0)
    }

    /// Trust of `source` on attribute `attr`.
    #[inline]
    pub fn of(&self, source: usize, attr: usize) -> f64 {
        debug_assert!(attr < self.num_attrs);
        self.values[source * self.num_attrs + attr]
    }

    /// Set the trust of `source` on attribute `attr`.
    #[inline]
    pub fn set(&mut self, source: usize, attr: usize, value: f64) {
        debug_assert!(attr < self.num_attrs);
        self.values[source * self.num_attrs + attr] = value;
    }

    /// The per-attribute row of one source.
    #[inline]
    pub fn row(&self, source: usize) -> &[f64] {
        &self.values[source * self.num_attrs..(source + 1) * self.num_attrs]
    }

    /// Mutable per-attribute row of one source.
    #[inline]
    pub fn row_mut(&mut self, source: usize) -> &mut [f64] {
        &mut self.values[source * self.num_attrs..(source + 1) * self.num_attrs]
    }

    /// All values, source-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to all values, source-major.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

/// Final trust estimates of a fusion run.
///
/// Iterative convergence is defined on the [`overall`](Self::overall) vector
/// **only**: [`max_change`](Self::max_change) ignores `per_attr` entirely, so
/// the `*ATTR` variants stop exactly when their overall trust stabilizes even
/// if individual (source, attribute) cells are still moving. This is pinned
/// by a regression test and must survive representation changes.
#[derive(Debug, Clone)]
pub struct TrustEstimate {
    /// Per-source trust, indexed like `FusionProblem::sources`.
    pub overall: Vec<f64>,
    /// Per-(source, attribute) trust for the `*ATTR` variants, in flat SoA
    /// layout (see [`AttrTrust`]).
    pub per_attr: Option<AttrTrust>,
}

impl TrustEstimate {
    /// A uniform estimate (used as the starting point of iteration).
    pub fn uniform(num_sources: usize, num_attrs: usize, value: f64, per_attr: bool) -> Self {
        Self {
            overall: vec![value; num_sources],
            per_attr: per_attr.then(|| AttrTrust::filled(num_sources, num_attrs, value)),
        }
    }

    /// Trust of `source` when voting on attribute `attr`.
    #[inline]
    pub fn of(&self, source: usize, attr: usize) -> f64 {
        match &self.per_attr {
            Some(pa) => pa.of(source, attr),
            None => self.overall[source],
        }
    }

    /// L∞ distance between two estimates' **overall** vectors — the
    /// convergence check. Per-attribute trust deliberately does not
    /// participate (see the type-level docs).
    pub fn max_change(&self, other: &TrustEstimate) -> f64 {
        self.overall
            .iter()
            .zip(&other.overall)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Per-candidate vote (score, probability, confidence…) storage for one
/// fusion round: a single flat `Vec<f64>` over the problem's global candidate
/// axis plus the same item → candidate offset table the problem uses.
///
/// Replaces the `Vec<Vec<f64>>` the methods used to allocate every round:
/// one plane is created per run and re-filled in place, so the inner vote
/// loop is a gather-multiply-add over contiguous slices the compiler can
/// vectorize, and per-round allocations disappear.
#[derive(Debug, Clone, PartialEq)]
pub struct VotePlane {
    /// `num_items + 1` offsets into `values` (clone of
    /// [`FusionProblem::item_cand_offsets`]).
    offsets: Vec<u32>,
    /// One value per global candidate, item-major.
    values: Vec<f64>,
}

impl VotePlane {
    /// A zeroed plane spanning every candidate of `problem`.
    pub fn for_problem(problem: &FusionProblem) -> Self {
        let mut plane = Self::empty();
        plane.reset_for(problem);
        plane
    }

    /// A plane spanning no items (the state a scratch plane holds before its
    /// first [`reset_for`](Self::reset_for)).
    pub fn empty() -> Self {
        Self {
            offsets: vec![0],
            values: Vec::new(),
        }
    }

    /// Re-shape the plane for `problem` and zero every slot, keeping the
    /// existing capacity. A plane freshly [`reset_for`](Self::reset_for) a
    /// problem is indistinguishable from [`for_problem`](Self::for_problem)
    /// on it, so warm reuse across differently-shaped problems cannot leak
    /// state between runs.
    pub fn reset_for(&mut self, problem: &FusionProblem) {
        self.offsets.clear();
        self.offsets.extend_from_slice(problem.item_cand_offsets());
        self.values.clear();
        self.values.resize(problem.num_candidates(), 0.0);
    }

    /// Build a plane from nested per-item rows (test and migration
    /// convenience — the hot paths never materialize nested rows).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        let mut values = Vec::new();
        for row in rows {
            values.extend_from_slice(row);
            offsets.push(values.len() as u32);
        }
        Self { offsets, values }
    }

    /// Number of items the plane spans.
    pub fn num_items(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of candidate slots.
    pub fn num_candidates(&self) -> usize {
        self.values.len()
    }

    /// The votes of item `i`, one slot per candidate.
    #[inline]
    pub fn item(&self, i: usize) -> &[f64] {
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Mutable votes of item `i`.
    #[inline]
    pub fn item_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The vote of candidate `c` (local index) of item `i`.
    #[inline]
    pub fn get(&self, i: usize, c: usize) -> f64 {
        self.values[self.offsets[i] as usize + c]
    }

    /// All values, item-major (the order `rescale_to_unit` /
    /// `normalize_by_max` historically saw when the nested rows were
    /// flattened).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The item → candidate offset table (`num_items + 1` entries), shared
    /// layout with [`FusionProblem::item_cand_offsets`]. Exposed for the
    /// kernel-level consumers (kernels, benches, tests).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Mutable access to all values, item-major.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Set every slot to `x`.
    pub fn fill(&mut self, x: f64) {
        self.values.fill(x);
    }

    /// Accumulate trust-weighted vote counts over `problem`:
    /// `votes[item][candidate] = Σ_{s ∈ providers} trust(s, attr(item))`.
    /// Every slot is overwritten; the plane layout must match `problem`.
    /// Runs the kernels of [`crate::kernels`].
    pub fn accumulate_weighted_votes(&mut self, problem: &FusionProblem, trust: &TrustEstimate) {
        debug_assert_eq!(self.num_items(), problem.num_items());
        let view = match &trust.per_attr {
            Some(pa) => kernels::TrustView::PerAttr {
                values: pa.values(),
                num_attrs: pa.num_attrs(),
                cand_attrs: problem.cand_attrs(),
            },
            None => kernels::TrustView::Overall(&trust.overall),
        };
        kernels::accumulate_weighted_votes(
            &mut self.values,
            problem.provider_offsets(),
            problem.providers_flat(),
            &view,
        );
    }

    /// Combined [`reset_for`](Self::reset_for) + first
    /// [`accumulate_weighted_votes`](Self::accumulate_weighted_votes): the
    /// plane is re-shaped for `problem` and every slot is overwritten with
    /// the trust-weighted votes in one pass, skipping the intermediate
    /// zero-fill — so a warm scratch touches each vote cache line once per
    /// run instead of twice. Produces exactly the plane that
    /// `reset_for` followed by `accumulate_weighted_votes` would.
    pub fn refill_accumulate(&mut self, problem: &FusionProblem, trust: &TrustEstimate) {
        self.offsets.clear();
        self.offsets.extend_from_slice(problem.item_cand_offsets());
        // Reshape without the zero-fill `reset_for` pays: `resize` only
        // writes the grown tail (truncation is free), and the accumulate
        // kernel overwrites every slot.
        self.values.resize(problem.num_candidates(), 0.0);
        self.accumulate_weighted_votes(problem, trust);
    }

    /// Select, for every item, the candidate with the highest vote, writing
    /// into `selection` (allocation reused). Ties go to the lower candidate
    /// index (the better-supported bucket), which keeps the output
    /// deterministic. Runs the kernels of [`crate::kernels`].
    pub fn argmax_into(&self, selection: &mut Vec<usize>) {
        kernels::argmax_into(&self.offsets, &self.values, selection);
    }
}

/// Reusable accumulators for the per-round trust updates: one slot per
/// source for the overall estimate plus the flat `source * num_attrs + attr`
/// S×A accumulators of the `*ATTR` variants. Sized lazily on first use and
/// reused across rounds, methods, and (in the batch runner) days.
#[derive(Debug, Clone, Default)]
pub struct TrustScratch {
    /// Per-source score sums.
    pub(crate) overall_sum: Vec<f64>,
    /// Per-source claim counts.
    pub(crate) overall_count: Vec<usize>,
    /// Per-(source, attribute) score sums, [`AttrTrust`] layout.
    pub(crate) attr_sum: Vec<f64>,
    /// Per-(source, attribute) claim counts, [`AttrTrust`] layout.
    pub(crate) attr_count: Vec<usize>,
}

impl TrustScratch {
    /// Zero the overall accumulators for `num_sources` sources and, when
    /// `per_attr`, the S×A accumulators for `num_attrs` attributes.
    pub(crate) fn reset(&mut self, num_sources: usize, num_attrs: usize, per_attr: bool) {
        self.overall_sum.clear();
        self.overall_sum.resize(num_sources, 0.0);
        self.overall_count.clear();
        self.overall_count.resize(num_sources, 0);
        if per_attr {
            self.attr_sum.clear();
            self.attr_sum.resize(num_sources * num_attrs, 0.0);
            self.attr_count.clear();
            self.attr_count.resize(num_sources * num_attrs, 0);
        }
    }
}

/// Reusable working memory for one [`FusionMethod`] run.
///
/// Every buffer a method's inner rounds need — the candidate-axis
/// [`VotePlane`], the per-item candidate scratch, the per-source and per-item
/// vectors, the trust-update accumulators, and the copy-detection matrix — is
/// re-shaped for the problem at hand (old contents are never read), so one
/// scratch can be reused across methods, runs, and differently-shaped
/// problems with zero steady-state allocation. `FusionMethod::run` creates a
/// throwaway scratch; warm paths (the delta engine, a day's sixteen method
/// runs) hold one and call `FusionMethod::run_with_scratch`.
///
/// [`FusionMethod`]: crate::methods::FusionMethod
#[derive(Debug, Default)]
pub struct FusionScratch {
    /// Candidate-axis plane (probabilities / confidence / votes / estimates).
    pub(crate) plane: VotePlane,
    /// Per-item candidate scratch A (raw scores / votes).
    pub(crate) cand_a: Vec<f64>,
    /// Candidate scratch B (adjusted votes per item; INVEST's total
    /// investment per global candidate).
    pub(crate) cand_b: Vec<f64>,
    /// Per-item scratch (3-ESTIMATES difficulty).
    pub(crate) item_f: Vec<f64>,
    /// Per-source scratch (investments, error rates).
    pub(crate) source_f: Vec<f64>,
    /// Per-provider index scratch (ACCUCOPY's accuracy-ordered providers).
    pub(crate) providers: Vec<u32>,
    /// Trust-update accumulators.
    pub(crate) trust_acc: TrustScratch,
    /// Detected copy probabilities (ACCUCOPY's per-round re-scoring target).
    pub(crate) copy_probs: CopyMatrix,
    /// Per-(source, attribute) provider scores of the round (the Bayesian
    /// methods' vote table, `source * num_attrs + attr`).
    pub(crate) score_table: Vec<f64>,
}

impl FusionScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for VotePlane {
    /// Same as [`VotePlane::empty`].
    fn default() -> Self {
        Self::empty()
    }
}

/// The outcome of running one fusion method on one prepared snapshot.
#[derive(Debug, Clone)]
pub struct FusionResult {
    /// Name of the method that produced the result.
    pub method: String,
    /// Selected value per data item. Built **after** `elapsed` is captured,
    /// so method timings measure fusion, not map construction.
    pub selected: BTreeMap<ItemId, Value>,
    /// Per-item selected candidate index (aligned with
    /// `FusionProblem::items`).
    pub selection: Vec<usize>,
    /// Final trust estimates.
    pub trust: TrustEstimate,
    /// Number of iterative rounds executed.
    pub rounds: usize,
    /// Wall-clock execution time of the method (excluding problem
    /// preparation and excluding the construction of `selected`).
    pub elapsed: Duration,
}

impl FusionResult {
    /// Build a result from a per-item candidate selection.
    ///
    /// `started` is the instant the method began: the elapsed time is
    /// captured *first*, then the item → value map is materialized, so the
    /// Figure-12 timings never include map construction.
    pub fn from_selection(
        method: &str,
        problem: &FusionProblem,
        selection: Vec<usize>,
        trust: TrustEstimate,
        rounds: usize,
        started: Instant,
    ) -> Self {
        let elapsed = started.elapsed();
        let selected = problem.selection_to_values(&selection);
        Self {
            method: method.to_string(),
            selected,
            selection,
            trust,
            rounds,
            elapsed,
        }
    }

    /// The value selected for `item`, if the item was part of the problem.
    pub fn value_for(&self, item: ItemId) -> Option<&Value> {
        self.selected.get(&item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_builders() {
        let opts = FusionOptions::standard()
            .with_per_attribute_trust()
            .with_input_trust(vec![0.9, 0.8]);
        assert!(opts.per_attribute_trust);
        assert_eq!(opts.input_trust.as_ref().unwrap().len(), 2);
        assert_eq!(opts.rounds(), 20);
        assert_eq!(FusionOptions::default().rounds(), 1);
    }

    #[test]
    fn trust_estimate_lookup() {
        let mut t = TrustEstimate::uniform(2, 3, 0.8, true);
        t.per_attr.as_mut().unwrap().set(1, 2, 0.3);
        assert_eq!(t.of(0, 0), 0.8);
        assert_eq!(t.of(1, 2), 0.3);
        let flat = TrustEstimate::uniform(2, 3, 0.5, false);
        assert_eq!(flat.of(1, 2), 0.5);
        assert!((t.max_change(&flat) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn attr_trust_is_source_major() {
        let mut pa = AttrTrust::filled(3, 2, 0.5);
        assert_eq!(pa.num_sources(), 3);
        assert_eq!(pa.num_attrs(), 2);
        pa.set(2, 1, 0.9);
        assert_eq!(pa.of(2, 1), 0.9);
        assert_eq!(pa.row(2), &[0.5, 0.9]);
        assert_eq!(pa.values()[2 * 2 + 1], 0.9);
        pa.row_mut(0)[0] = 0.1;
        assert_eq!(pa.of(0, 0), 0.1);
    }

    /// Regression pin: iterative convergence is defined on `overall` only.
    /// The `*ATTR` variants must keep today's stopping behavior through any
    /// per-attribute representation change — per-attribute cells that still
    /// move between rounds do NOT keep the iteration alive.
    #[test]
    fn max_change_ignores_per_attribute_trust() {
        let a = TrustEstimate {
            overall: vec![0.5, 0.5],
            per_attr: Some(AttrTrust::filled(2, 3, 0.1)),
        };
        let b = TrustEstimate {
            overall: vec![0.5, 0.5],
            per_attr: Some(AttrTrust::filled(2, 3, 0.9)),
        };
        assert_eq!(a.max_change(&b), 0.0, "per-attr changes must not count");
        // And the overall vector alone decides the magnitude.
        let c = TrustEstimate {
            overall: vec![0.5, 0.75],
            per_attr: None,
        };
        assert!((a.max_change(&c) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn argmax_is_deterministic_on_ties() {
        let votes = VotePlane::from_rows(&[vec![1.0, 1.0, 0.5], vec![0.1, 0.9]]);
        let mut selection = vec![7; 5];
        votes.argmax_into(&mut selection);
        assert_eq!(selection, vec![0, 1]);
        VotePlane::from_rows(&[]).argmax_into(&mut selection);
        assert_eq!(selection, Vec::<usize>::new());
    }

    #[test]
    fn vote_plane_layout() {
        let mut plane = VotePlane::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(plane.num_items(), 2);
        assert_eq!(plane.num_candidates(), 3);
        assert_eq!(plane.item(0), &[1.0, 2.0]);
        assert_eq!(plane.get(1, 0), 3.0);
        plane.item_mut(1)[0] = 4.0;
        assert_eq!(plane.values(), &[1.0, 2.0, 4.0]);
        plane.fill(0.0);
        assert_eq!(plane.values(), &[0.0; 3]);
    }

    #[test]
    fn normalization_helpers() {
        use kernels::{normalize_by_max, rescale_to_unit};

        let mut xs = vec![2.0, 4.0, 1.0];
        normalize_by_max(&mut xs);
        assert_eq!(xs, vec![0.5, 1.0, 0.25]);

        let mut ys = vec![2.0, 4.0, 6.0];
        rescale_to_unit(&mut ys);
        assert_eq!(ys, vec![0.0, 0.5, 1.0]);

        let mut flat = vec![3.0, 3.0];
        rescale_to_unit(&mut flat);
        assert_eq!(flat, vec![0.5, 0.5]);

        let mut zeros = vec![0.0, -1.0];
        normalize_by_max(&mut zeros);
        assert_eq!(zeros, vec![0.0, -1.0]);
    }
}
