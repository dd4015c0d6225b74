//! Adversarial & heavy-tail scenario layer.
//!
//! The paper's two regimes (Stock, Flight) are well-behaved: copiers form
//! flat star groups, coverage is near-uniform, and source quality is constant
//! over the collection window. The method rankings only truly diverge under
//! hostile data, so this module layers composable *stress knobs* on top of
//! the existing [`DomainConfig`]/[`crate::generate`] pipeline:
//!
//! * **Copier rings** — a clique laundering a wrong value through mutual
//!   copying: a low-accuracy ring head plus a chain of high-fidelity copiers
//!   (copier-of-copier provenance, resolved transitively by
//!   `DomainSchema::copy_groups`).
//! * **Zipf coverage** — object coverage of the non-authority sources decays
//!   as `rank^-s`, producing the heavy-tail redundancy distribution real
//!   deep-web domains exhibit.
//! * **Quality flips** — sources whose stochastic error budget is re-targeted
//!   mid-stream (see [`crate::config::QualityFlip`]).
//! * **Format drift** — per-day multiplicative growth of a source's rounding
//!   granularity, so values drift in *format* while staying numerically close.
//! * **Scale / long rows** — an object-count multiplier (`--scale 10` reaches
//!   hundreds of thousands of items per day) plus extra high-coverage
//!   sources that lengthen every item's provider row.
//!
//! Every named scenario ([`by_name`]) is deterministic in its seed and doubles
//! as a regression suite: the `exp_scenarios` binary renders a golden-metrics
//! table per scenario (per-method precision, copy-detection hit/false-positive
//! rates against the generator's planted copy edges) that is checked in and
//! asserted bit-for-bit by `tests/scenarios.rs`.

use crate::config::{DomainConfig, SourceSpec};
use crate::generator::{generate, GeneratedDomain};
use crate::stock::stock_config;
use datamodel::{ItemId, Snapshot, SnapshotBuilder, SourceId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Seed used by every checked-in golden scenario world.
pub const GOLDEN_SEED: u64 = 2012;

/// Names of the built-in scenarios, in golden-suite order.
pub const SCENARIO_NAMES: [&str; 6] = [
    "copier_ring",
    "zipf_coverage",
    "quality_flip",
    "format_drift",
    "scale10_capacity",
    "kitchen_sink",
];

/// Copier-ring knob: `size` sources appended to the base population — one
/// independent low-accuracy head plus `size - 1` chained copiers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RingKnob {
    /// Total ring size (head + copiers); at least 2.
    pub size: u32,
    /// Accuracy of the ring head (low: the ring launders *wrong* values).
    pub head_accuracy: f64,
    /// Copy fidelity along the chain.
    pub fidelity: f64,
}

/// Quality-flip knob: the last `count` plain independent sources of the base
/// population flip to `accuracy_after` from `day` onwards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlipKnob {
    /// Number of sources to flip.
    pub count: u32,
    /// First day the flipped accuracy applies to.
    pub day: u32,
    /// Accuracy from the flip day onwards.
    pub accuracy_after: f64,
}

/// Format-drift knob: the last `count` plain independent sources round to
/// `base_rounding` of the attribute scale, growing `growth`× per day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftKnob {
    /// Number of drifting sources.
    pub count: u32,
    /// Day-0 rounding granularity (fraction of the attribute scale).
    pub base_rounding: f64,
    /// Per-day multiplicative growth of the granularity.
    pub growth: f64,
}

/// A composable stress scenario over the Stock base population. Knobs stack:
/// a single scenario may combine a ring, Zipf coverage, flips, drift, and a
/// scale axis. [`Scenario::build`] materializes the seeded world together
/// with ground-truth annotations for every active knob.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (used for golden-table file names).
    pub name: String,
    /// Master seed (golden suites use [`GOLDEN_SEED`]).
    pub seed: u64,
    /// Object-count multiplier over the paper-scale base (1.0 ≙ 1000
    /// objects ≙ 16 000 items/day; 10.0 reaches 160 000 items/day).
    pub scale: f64,
    /// Number of collection days.
    pub num_days: u32,
    /// Copier-ring knob.
    pub ring: Option<RingKnob>,
    /// Zipf-coverage exponent (non-authority coverage decays as `rank^-s`).
    pub zipf_exponent: Option<f64>,
    /// Quality-flip knob.
    pub flips: Option<FlipKnob>,
    /// Format-drift knob.
    pub drift: Option<DriftKnob>,
    /// Extra independent high-coverage sources appended to lengthen every
    /// item's provider row (the long-row axis of the `vote_plane` bench).
    pub extra_sources: u32,
}

/// A materialized scenario: the generated domain plus the ground-truth
/// annotations the regression metrics compare against.
#[derive(Debug, Clone)]
pub struct ScenarioWorld {
    /// The scenario this world was built from.
    pub scenario: Scenario,
    /// The generated domain (collection, provenance, copy groups, world).
    pub domain: GeneratedDomain,
    /// Every unordered source pair related by planted copying (all pairs
    /// within each transitive copy group) — the copy-detection ground truth.
    pub true_edges: Vec<(SourceId, SourceId)>,
    /// Ring members (head first), when a ring knob is active.
    pub ring_sources: Vec<SourceId>,
    /// Quality-flipped sources, when a flip knob is active.
    pub flipped_sources: Vec<SourceId>,
    /// Format-drifting sources, when a drift knob is active.
    pub drifting_sources: Vec<SourceId>,
    /// Non-authority sources in Zipf rank order (rank 0 = highest coverage),
    /// when the Zipf knob is active.
    pub zipf_ranked: Vec<SourceId>,
}

impl Scenario {
    /// A neutral scenario over the Stock base population: no knobs, golden
    /// seed, small scale, three days.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            seed: GOLDEN_SEED,
            scale: 0.06,
            num_days: 3,
            ring: None,
            zipf_exponent: None,
            flips: None,
            drift: None,
            extra_sources: 0,
        }
    }

    /// Override the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the object-count multiplier (1.0 ≙ the paper's 1000 objects).
    pub fn scaled_to(mut self, scale: f64) -> Self {
        self.scale = scale.max(1e-3);
        self
    }

    /// Set the number of collection days.
    pub fn over_days(mut self, days: u32) -> Self {
        self.num_days = days.max(1);
        self
    }

    /// Add a copier ring of `size` sources laundering the head's values.
    pub fn with_copier_ring(mut self, size: u32, head_accuracy: f64, fidelity: f64) -> Self {
        self.ring = Some(RingKnob {
            size: size.max(2),
            head_accuracy,
            fidelity,
        });
        self
    }

    /// Decay non-authority object coverage as `rank^-exponent`.
    pub fn with_zipf_coverage(mut self, exponent: f64) -> Self {
        self.zipf_exponent = Some(exponent.max(0.0));
        self
    }

    /// Flip the last `count` plain independent sources to `accuracy_after`
    /// from `day` onwards.
    pub fn with_quality_flips(mut self, count: u32, day: u32, accuracy_after: f64) -> Self {
        self.flips = Some(FlipKnob {
            count,
            day,
            accuracy_after,
        });
        self
    }

    /// Make the last `count` plain independent sources round at
    /// `base_rounding`, growing `growth`× per day.
    pub fn with_format_drift(mut self, count: u32, base_rounding: f64, growth: f64) -> Self {
        self.drift = Some(DriftKnob {
            count,
            base_rounding,
            growth,
        });
        self
    }

    /// Append `count` extra high-coverage independent sources (long rows).
    pub fn with_extra_sources(mut self, count: u32) -> Self {
        self.extra_sources = count;
        self
    }

    /// Materialize the scenario's [`DomainConfig`] (without generating).
    pub fn config(&self) -> DomainConfig {
        self.config_and_annotations().0
    }

    /// Generate the scenario world.
    pub fn build(&self) -> ScenarioWorld {
        let (config, ann) = self.config_and_annotations();
        let domain = generate(&config);
        let true_edges = edges_of_groups(&domain.copy_groups);
        ScenarioWorld {
            scenario: self.clone(),
            domain,
            true_edges,
            ring_sources: ann.ring,
            flipped_sources: ann.flipped,
            drifting_sources: ann.drifting,
            zipf_ranked: ann.zipf_ranked,
        }
    }

    fn config_and_annotations(&self) -> (DomainConfig, Annotations) {
        let mut config = stock_config(self.seed).scaled(self.scale, 1.0);
        config.domain = format!("scenario:{}", self.name);
        config.num_days = self.num_days;
        let mut ann = Annotations::default();

        // Plain independent sources (no authority/copier/dead/gold role) are
        // the candidate pool for the flip and drift knobs; picked from the
        // back of the population (the "StockSite NN" tail) so the knobs never
        // collide with the base copy groups or the gold standard.
        let plain: Vec<usize> = config
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                !s.authority
                    && !s.gold_provider
                    && s.copies_from.is_none()
                    && s.dead_after_day.is_none()
            })
            .map(|(i, _)| i)
            .collect();

        if let Some(flip) = self.flips {
            let count = (flip.count as usize).min(plain.len());
            for &i in plain.iter().rev().take(count) {
                config.sources[i] = config.sources[i]
                    .clone()
                    .flipping_quality(flip.day, flip.accuracy_after);
                ann.flipped.push(SourceId(i as u32));
            }
            ann.flipped.reverse();
        }

        if let Some(drift) = self.drift {
            // Drift marks from the front of the plain pool, so a scenario
            // combining flips and drift stresses disjoint sources.
            let count = (drift.count as usize).min(plain.len());
            for &i in plain.iter().take(count) {
                config.sources[i] = config.sources[i]
                    .clone()
                    .with_rounding(drift.base_rounding)
                    .with_rounding_drift(drift.growth);
                ann.drifting.push(SourceId(i as u32));
            }
        }

        if let Some(exponent) = self.zipf_exponent {
            // Authority sources keep their coverage (they feed the voting
            // gold standard); everything else decays by rank. Copiers'
            // object coverage is inert (they mirror their original's items),
            // but ranking them uniformly keeps the knob simple to reason
            // about.
            let mut rank = 0usize;
            for (i, spec) in config.sources.iter_mut().enumerate() {
                if spec.authority {
                    continue;
                }
                spec.object_coverage =
                    (1.0 / ((rank + 1) as f64).powf(exponent)).clamp(0.02, 1.0);
                ann.zipf_ranked.push(SourceId(i as u32));
                rank += 1;
            }
        }

        if let Some(ring) = self.ring {
            let head_index = config.sources.len();
            config.sources.push(
                SourceSpec::independent("Ring Head", ring.head_accuracy, 0.97)
                    .with_attr_coverage(1.0),
            );
            ann.ring.push(SourceId(head_index as u32));
            for m in 1..ring.size as usize {
                let i = config.sources.len();
                config.sources.push(
                    SourceSpec::independent(format!("Ring Member {m}"), ring.head_accuracy, 0.97)
                        .with_attr_coverage(1.0)
                        .copying(i - 1, ring.fidelity),
                );
                ann.ring.push(SourceId(i as u32));
            }
        }

        for e in 0..self.extra_sources {
            let accuracy = 0.95 - 0.25 * (e % 7) as f64 / 6.0;
            config.sources.push(
                SourceSpec::independent(format!("LongRow {:02}", e + 1), accuracy, 0.98)
                    .with_attr_coverage(0.95),
            );
        }

        (config, ann)
    }
}

#[derive(Default)]
struct Annotations {
    ring: Vec<SourceId>,
    flipped: Vec<SourceId>,
    drifting: Vec<SourceId>,
    zipf_ranked: Vec<SourceId>,
}

/// A day-over-day mutation stream with a planted, known dirty fraction —
/// the workload the delta fusion engine is benchmarked on.
///
/// `days[0]` is the base snapshot; each successor perturbs exactly
/// `⌈dirty_fraction × num_items⌉` numeric items of its predecessor (one
/// changed claim per item) and is rebuilt with the base's tolerance context
/// pinned ([`SnapshotBuilder::build_with_tolerance`]), so the observed
/// [`datamodel::SnapshotDelta`] between consecutive days equals the planted
/// dirty set exactly — no tolerance recomputation smears the dirt across the
/// whole attribute.
#[derive(Debug, Clone)]
pub struct MutationStream {
    /// The snapshots: the base first, then the mutated successors.
    pub days: Vec<Snapshot>,
    /// Planted dirty items per transition (`days[i]` → `days[i + 1]`).
    pub dirty_sets: Vec<BTreeSet<ItemId>>,
    /// The requested per-transition dirty fraction.
    pub dirty_fraction: f64,
}

/// Build a deterministic day-over-day mutation stream over `base`: `num_days`
/// successor snapshots, each perturbing `⌈dirty_fraction × num_items⌉`
/// numeric items of the previous day (one claim per item gets its value
/// nudged, so the item and exactly one of its sources go dirty).
pub fn mutation_stream(
    base: &Snapshot,
    num_days: usize,
    dirty_fraction: f64,
    seed: u64,
) -> MutationStream {
    let dirty_fraction = dirty_fraction.clamp(0.0, 1.0);
    // Items with at least one plain-numeric claim are eligible for
    // perturbation; the item set is constant along the stream, so
    // eligibility is computed once from the base.
    let eligible: Vec<ItemId> = base
        .items()
        .filter(|(_, obs)| obs.iter().any(|o| matches!(o.value, Value::Number { .. })))
        .map(|(item, _)| *item)
        .collect();
    let count = ((dirty_fraction * base.num_items() as f64).ceil() as usize).min(eligible.len());

    let mut days = vec![base.clone()];
    let mut dirty_sets = Vec::with_capacity(num_days);
    for d in 0..num_days {
        let prev = days.last().unwrap();
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_add((d as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        // Partial Fisher-Yates: the first `count` slots are a uniform sample
        // of the eligible items, deterministic in (seed, day).
        let mut pool: Vec<usize> = (0..eligible.len()).collect();
        for i in 0..count {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let planted: BTreeSet<ItemId> = pool[..count].iter().map(|&i| eligible[i]).collect();

        let mut builder = SnapshotBuilder::new(prev.day() + 1);
        for (item, obs) in prev.items() {
            if planted.contains(item) {
                // Nudge one numeric claim of the item; every other claim is
                // carried verbatim so exactly one source goes dirty.
                let numeric: Vec<usize> = obs
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| matches!(o.value, Value::Number { .. }))
                    .map(|(i, _)| i)
                    .collect();
                let pick = numeric[rng.gen_range(0..numeric.len())];
                for (i, o) in obs.iter().enumerate() {
                    let value = if i == pick {
                        let v = o.value.as_f64().expect("picked claim is numeric");
                        let mut nudged = v * 1.1 + 1.0;
                        if nudged == v {
                            nudged = v + 1.0;
                        }
                        Value::number(nudged)
                    } else {
                        o.value.clone()
                    };
                    builder.add(o.source, item.object, item.attr, value);
                }
            } else {
                for o in obs {
                    builder.add(o.source, item.object, item.attr, o.value.clone());
                }
            }
        }
        days.push(builder.build_with_tolerance(base.schema_arc(), base.tolerance().clone()));
        dirty_sets.push(planted);
    }

    MutationStream {
        days,
        dirty_sets,
        dirty_fraction,
    }
}

/// All unordered source pairs within each copy group: the ground-truth edge
/// set copy detection is scored against. Pairs are emitted `(low, high)` in
/// ascending order.
pub fn edges_of_groups(groups: &[Vec<SourceId>]) -> Vec<(SourceId, SourceId)> {
    let mut edges = Vec::new();
    for group in groups {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                edges.push(if a.0 <= b.0 { (a, b) } else { (b, a) });
            }
        }
    }
    edges.sort();
    edges.dedup();
    edges
}

/// The golden-suite instance of a named scenario: fixed seed, small scale.
/// Returns `None` for unknown names; see [`SCENARIO_NAMES`].
pub fn by_name(name: &str) -> Option<Scenario> {
    let scenario = match name {
        // A six-member ring laundering a ~0.30-accuracy head through 0.97
        // fidelity copies — copy detection must catch the whole clique.
        "copier_ring" => Scenario::new(name).with_copier_ring(6, 0.30, 0.97),
        // Heavy-tail coverage: the tail sources see 2% of the objects.
        "zipf_coverage" => Scenario::new(name).with_zipf_coverage(1.1),
        // Eight sources collapse from their configured accuracy to 0.45
        // halfway through a six-day window.
        "quality_flip" => Scenario::new(name)
            .over_days(6)
            .with_quality_flips(8, 3, 0.45),
        // Ten sources whose rounding granularity grows 1.8× per day: values
        // stay close to the truth but drift in format.
        "format_drift" => Scenario::new(name)
            .over_days(4)
            .with_format_drift(10, 1e-3, 1.8),
        // The capacity/long-row axis: golden default stays CI-sized, but the
        // same scenario scaled to 10 reaches ~160k items/day with ~80-source
        // provider rows (the `vote_plane` long-row workload).
        "scale10_capacity" => Scenario::new(name)
            .scaled_to(0.1)
            .over_days(2)
            .with_extra_sources(25),
        // Every knob at once: a laundering ring over heavy-tail coverage,
        // mid-stream quality flips, format drift, and long provider rows.
        // The golden default stays CI-sized; `.scaled_to(10.0)` of this same
        // scenario reaches about a million observations per day.
        "kitchen_sink" => Scenario::new(name)
            .scaled_to(0.08)
            .over_days(3)
            .with_copier_ring(6, 0.30, 0.97)
            .with_zipf_coverage(0.8)
            .with_quality_flips(6, 2, 0.45)
            .with_format_drift(6, 1e-3, 1.6)
            .with_extra_sources(20),
        _ => return None,
    };
    Some(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_all_names() {
        for name in SCENARIO_NAMES {
            let s = by_name(name).unwrap();
            assert_eq!(s.name, name);
            assert_eq!(s.seed, GOLDEN_SEED);
        }
        assert!(by_name("nonsense").is_none());
    }

    #[test]
    fn ring_world_annotates_and_chains() {
        let world = by_name("copier_ring").unwrap().build();
        assert_eq!(world.ring_sources.len(), 6);
        let schema = world.domain.reference_snapshot().schema();
        let head = world.ring_sources[0];
        for &member in &world.ring_sources[1..] {
            assert_eq!(schema.copy_root(member), head);
        }
        // The whole ring lands in one transitive copy group.
        let ring_group = world
            .domain
            .copy_groups
            .iter()
            .find(|g| g[0] == head)
            .expect("ring copy group");
        assert_eq!(ring_group.len(), 6);
        // Ground-truth edges include every intra-ring pair.
        let intra_ring = world
            .true_edges
            .iter()
            .filter(|(a, b)| world.ring_sources.contains(a) && world.ring_sources.contains(b))
            .count();
        assert_eq!(intra_ring, 6 * 5 / 2);
    }

    #[test]
    fn zipf_world_coverage_is_monotone_in_rank() {
        let scenario = by_name("zipf_coverage").unwrap();
        let config = scenario.config();
        let world = scenario.build();
        let mut last = f64::INFINITY;
        for &s in &world.zipf_ranked {
            let cov = config.sources[s.index()].object_coverage;
            assert!(cov <= last + 1e-12, "coverage not monotone at {s:?}");
            last = cov;
        }
        assert!(config.sources[world.zipf_ranked[0].index()].object_coverage > 0.9);
        let tail = *world.zipf_ranked.last().unwrap();
        assert!(config.sources[tail.index()].object_coverage < 0.05);
    }

    #[test]
    fn flip_and_drift_mark_disjoint_plain_sources() {
        let world = Scenario::new("combo")
            .over_days(4)
            .with_quality_flips(5, 2, 0.4)
            .with_format_drift(5, 1e-3, 1.5)
            .build();
        assert_eq!(world.flipped_sources.len(), 5);
        assert_eq!(world.drifting_sources.len(), 5);
        for s in &world.flipped_sources {
            assert!(!world.drifting_sources.contains(s));
        }
        let config = world.scenario.config();
        for &s in &world.flipped_sources {
            assert!(config.sources[s.index()].quality_flip.is_some());
        }
        for &s in &world.drifting_sources {
            assert!(config.sources[s.index()].rounding_drift > 1.0);
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = by_name("copier_ring").unwrap().build();
        let b = by_name("copier_ring").unwrap().build();
        let snap_a = a.domain.reference_snapshot();
        let snap_b = b.domain.reference_snapshot();
        assert_eq!(snap_a.num_observations(), snap_b.num_observations());
        let item = snap_a.item_ids().next().unwrap();
        assert_eq!(snap_a.observations(item), snap_b.observations(item));
        assert_eq!(a.true_edges, b.true_edges);
    }

    #[test]
    fn kitchen_sink_stacks_every_knob() {
        let world = by_name("kitchen_sink").unwrap().build();
        assert_eq!(world.ring_sources.len(), 6);
        assert_eq!(world.flipped_sources.len(), 6);
        assert_eq!(world.drifting_sources.len(), 6);
        assert!(!world.zipf_ranked.is_empty());
        assert!(!world.true_edges.is_empty());
        // Flip and drift pick disjoint plain sources even with every knob on.
        for s in &world.flipped_sources {
            assert!(!world.drifting_sources.contains(s));
        }
        // The long-row and ring sources sit on top of the base population.
        let base = stock_config(GOLDEN_SEED).num_sources();
        assert_eq!(world.scenario.config().num_sources(), base + 6 + 20);
    }

    #[test]
    fn mutation_stream_plants_exactly_the_observed_delta() {
        let world = Scenario::new("mutation_base").scaled_to(0.04).build();
        let base = world.domain.reference_snapshot();
        let stream = mutation_stream(base, 3, 0.1, 7);
        assert_eq!(stream.days.len(), 4);
        assert_eq!(stream.dirty_sets.len(), 3);
        let expected = (0.1 * base.num_items() as f64).ceil() as usize;
        for (i, planted) in stream.dirty_sets.iter().enumerate() {
            assert_eq!(planted.len(), expected.min(base.num_items()));
            let delta =
                datamodel::SnapshotDelta::between(&stream.days[i], &stream.days[i + 1]);
            // Pinned tolerances: the observed delta is exactly the planted
            // set — one dirty source per dirty item, nothing added/removed.
            assert_eq!(delta.dirty_items(), planted);
            assert!(delta.removed_items().is_empty());
            assert!(delta.added_sources().is_empty());
            assert!(delta.removed_sources().is_empty());
            assert!(delta.dirty_attrs().is_empty());
            assert!(delta.dirty_sources().len() <= planted.len());
            assert!((delta.dirty_fraction() - planted.len() as f64 / base.num_items() as f64)
                .abs()
                < 1e-12);
        }
        // Tolerances stay pinned to the base context along the whole stream.
        for day in &stream.days {
            assert_eq!(
                day.tolerance().tolerance(datamodel::AttrId(0)),
                base.tolerance().tolerance(datamodel::AttrId(0))
            );
        }
    }

    #[test]
    fn mutation_stream_is_deterministic_in_its_seed() {
        let world = Scenario::new("mutation_det").scaled_to(0.03).build();
        let base = world.domain.reference_snapshot();
        let a = mutation_stream(base, 2, 0.05, 11);
        let b = mutation_stream(base, 2, 0.05, 11);
        assert_eq!(a.dirty_sets, b.dirty_sets);
        let probe = *a.dirty_sets[0].iter().next().unwrap();
        assert_eq!(a.days[1].observations(probe), b.days[1].observations(probe));
        // A different seed plants different dirt.
        let c = mutation_stream(base, 2, 0.05, 12);
        assert_ne!(a.dirty_sets, c.dirty_sets);
    }

    #[test]
    fn scale_axis_multiplies_objects_and_rows() {
        let small = by_name("scale10_capacity").unwrap();
        assert_eq!(small.config().num_objects, 100);
        let big = small.clone().scaled_to(10.0);
        assert_eq!(big.config().num_objects, 10_000);
        // 25 long-row sources on top of the 55-source base.
        assert_eq!(big.config().num_sources(), 80);
    }
}
