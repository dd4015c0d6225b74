//! `stock_batch`: the paper's Table 7 / Figure 12 job on one thread.
//!
//! Twelve paper-shaped Stock worlds (500 objects × 16 attributes = 8 000
//! items, 55 sources, one day each) are fused in turn. A day is
//! cold-prepared with a fresh [`ProblemBuilder`], fused by all sixteen
//! registry methods through [`FusionMethod::run_with_scratch`], and scored
//! with [`evaluation::precision_recall`] against the day's gold standard.
//! Fusing a day again must give the bits of its first fusion.
//!
//! A day's unit of work (`day_s`) is preparation plus fusion. Claims are
//! taken in by the preparation, and a read is a page of 16 `(method, item)`
//! lookups of fused values in the day's results.

use crate::stats::{mean, median, SplitMix};
use crate::{world_seed, Args, Layers, Phase, Report, PAGE};
use datagen::{generate, stock_config};
use datamodel::{GoldStandard, ItemId, Snapshot};
use fusion::{
    all_methods, FusionMethod, FusionOptions, FusionResult, FusionScratch, ProblemBuilder,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Worlds per run: their methods converge at different speeds, so one
/// world's cost depends on its seed much more than twelve worlds' mean does.
const WORLDS: usize = 12;
/// Object scale of each Stock world: 1 000 × 0.5 = 500 objects.
const OBJECT_SCALE: f64 = 0.5;
/// Lookups into each day's results.
const READS_PER_DAY: usize = 8_192;

struct World {
    snapshot: Snapshot,
    gold: GoldStandard,
    items: Vec<ItemId>,
    /// Digest of the results of the world's first fusion.
    digest: u64,
}

struct Batch {
    methods: Vec<Box<dyn FusionMethod>>,
    options: FusionOptions,
    scratch: FusionScratch,
    worlds: Vec<World>,
    /// Precision of every method on every world, from its first fusion.
    precision: Vec<f64>,
    rng: SplitMix,
}

/// Run `stock_batch` and record its metrics.
pub(crate) fn run(args: &Args, report: &mut Report) {
    let mut batch = Batch {
        methods: all_methods().into_iter().map(|(_, m)| m).collect(),
        options: FusionOptions::standard(),
        scratch: FusionScratch::new(),
        worlds: Vec::with_capacity(WORLDS),
        precision: Vec::new(),
        rng: SplitMix::new(args.seed),
    };
    let mut setup_s = Vec::with_capacity(WORLDS);
    for w in 0..WORLDS {
        let started = Instant::now();
        batch.add_world(args, w, report);
        setup_s.push(started.elapsed().as_secs_f64());
    }

    if args.trace {
        let untraced = batch.measure(args.seconds / 2.0, report, None);
        let mut layers = Layers::default();
        let traced = batch.measure(args.seconds / 2.0, report, Some(&mut layers));
        Phase::report_overhead(&untraced, &traced, report);
        layers.report(report);
    } else {
        batch.measure(args.seconds, report, None).report(report);
        report.set("setup_s", median(&setup_s));
        report.set("precision", mean(&batch.precision));
    }
}

impl Batch {
    /// Generate world `w` and fuse its day cold: the world's set-up.
    fn add_world(&mut self, args: &Args, w: usize, report: &mut Report) {
        let config =
            stock_config(world_seed(args.seed, w)).scaled(OBJECT_SCALE * args.scale, 1.0 / 21.0);
        let day = generate(&config).collection.day(0).clone();
        self.worlds.push(World {
            items: day.snapshot.item_ids().collect(),
            snapshot: day.snapshot,
            gold: day.gold,
            digest: 0,
        });
        let (results, _) = self.fuse(w, None);
        self.worlds[w].digest = digest(&results);
        for (method, result) in self.methods.iter().zip(&results) {
            let (judged, correct) = self.score(w, method.as_ref(), result, report);
            self.precision.push(correct as f64 / judged.max(1) as f64);
        }
    }

    /// Fuse every world in turn until `seconds` have passed and every world
    /// was fused at least once.
    fn measure(
        &mut self,
        seconds: f64,
        report: &mut Report,
        mut layers: Option<&mut Layers>,
    ) -> Phase {
        let mut phase = Phase::new(self.worlds.len());
        let started = Instant::now();
        while !phase.covers_every_world() || started.elapsed().as_secs_f64() < seconds {
            for w in 0..self.worlds.len() {
                self.measure_day(w, report, &mut phase, layers.as_deref_mut());
            }
        }
        phase
    }

    /// Cold-prepare and fuse world `w`'s day; returns the results and the
    /// preparation time.
    fn fuse(&mut self, w: usize, mut layers: Option<&mut Layers>) -> (Vec<FusionResult>, Duration) {
        let started = Instant::now();
        let mut builder = ProblemBuilder::new();
        let problem = builder.prepare(&self.worlds[w].snapshot);
        let prepare = started.elapsed();
        if let Some(layers) = layers.as_deref_mut() {
            layers.layer("fusion.prepare_s", prepare);
        }
        let mut results = Vec::with_capacity(self.methods.len());
        for method in &self.methods {
            let run_started = layers.is_some().then(Instant::now);
            let result = method.run_with_scratch(problem, &self.options, &mut self.scratch);
            if let (Some(layers), Some(t)) = (layers.as_deref_mut(), run_started) {
                let name = method.name();
                layers.layer(&format!("fusion.run.{name}_s"), t.elapsed());
                layers.per_day(&format!("fusion.rounds.{name}"), result.rounds as f64);
            }
            results.push(result);
        }
        (results, prepare)
    }

    /// One measured day of world `w`: fuse, score, check, read.
    fn measure_day(
        &mut self,
        w: usize,
        report: &mut Report,
        phase: &mut Phase,
        mut layers: Option<&mut Layers>,
    ) {
        let started = Instant::now();
        let (results, prepare) = self.fuse(w, layers.as_deref_mut());
        let fused = Instant::now();
        for (method, result) in self.methods.iter().zip(&results) {
            self.score(w, method.as_ref(), result, report);
        }
        let scored = Instant::now();

        let claims = self.worlds[w].snapshot.num_observations();
        phase.day(w, fused - started, claims, prepare);
        if let Some(layers) = layers {
            layers.layer("evaluation.score_s", scored - fused);
            layers.per_day("datamodel.claims", claims as f64);
            layers.day(scored - started);
        }
        let world = &self.worlds[w];
        report.check(digest(&results) == world.digest, || {
            format!("world {w} fused to different bits on a later pass")
        });

        let mut failed_reads = 0;
        for _ in 0..READS_PER_DAY / PAGE {
            let targets: [(usize, ItemId); PAGE] = std::array::from_fn(|_| {
                (
                    self.rng.below(results.len()),
                    world.items[self.rng.below(world.items.len())],
                )
            });
            let read_started = Instant::now();
            for (m, item) in targets {
                failed_reads += u64::from(black_box(results[m].value_for(item)).is_none());
            }
            let elapsed = read_started.elapsed();
            phase.reads_us.push(elapsed.as_secs_f64() * 1e6);
        }
        report.count(
            READS_PER_DAY as u64,
            failed_reads,
            "reads of a fused item found no value",
        );
    }

    /// Score `result` with the evaluation crate and again from the gold
    /// standard; the two must agree. Returns `(judged, correct)`.
    fn score(
        &self,
        w: usize,
        method: &dyn FusionMethod,
        result: &FusionResult,
        report: &mut Report,
    ) -> (usize, usize) {
        let world = &self.worlds[w];
        let score = evaluation::precision_recall(&world.snapshot, &world.gold, result);
        let mut judged = 0;
        let mut correct = 0;
        for (item, truth) in world.gold.iter() {
            if let Some(value) = result.value_for(*item) {
                judged += 1;
                let tolerance = world.snapshot.tolerance().tolerance(item.attr);
                if truth.matches(value, tolerance) || value.subsumes(truth) {
                    correct += 1;
                }
            }
        }
        report.check(
            judged > 0 && score.judged == judged && score.judged - score.errors == correct,
            || {
                format!(
                    "{} on world {w}: evaluation says {}/{} correct, the gold says {correct}/{judged}",
                    method.name(),
                    score.judged - score.errors,
                    score.judged
                )
            },
        );
        (judged, correct)
    }
}

/// FNV-1a over every result's selection, trust bits and round count.
fn digest(results: &[FusionResult]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for result in results {
        result.selection.iter().for_each(|&s| mix(s as u64));
        result.trust.overall.iter().for_each(|t| mix(t.to_bits()));
        mix(result.rounds as u64);
    }
    hash
}
