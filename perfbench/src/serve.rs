//! `serve_diff` and `serve_recrawl`: the online [`FusionService`] under a
//! closed-loop ingest driver and an open-loop reader.
//!
//! The ingest thread (this one) owns the service. Each day it derives the
//! next day's claims, turns them into operations (only the changed claims
//! for `serve_diff`, every claim again for `serve_recrawl`), applies them,
//! and seals the day.
//!
//! Days stay alike, so that a longer run does not drift to a different
//! load: [`mutation_stream`] nudges one claim of every item once, in
//! set-up, and day `k` carries the nudged claims of a window of items that
//! slides by half its width per day through a seeded order of the items. A
//! day therefore differs from the one before in exactly the dirty fraction
//! of items, and no day repeats an earlier day's claims until the window
//! has passed every item (about 40 days on `serve_diff`, 200 on
//! `serve_recrawl`). Chaining `mutation_stream` days instead nudges nudged
//! values again, and seals grow slower day by day.
//!
//! One reader thread issues page reads, one [`ServiceReader::state`] and 16
//! [`ServedState::answer`] calls each, at a fixed rate, sleeping until each
//! read is due. A read's latency is the duration of those calls; how late
//! the reader woke is reported on its own.
//!
//! Each world's cold first day is part of its set-up; one warm day follows
//! before measuring, because the first warm seal still grows buffers.
//! `day_s` is the warm-seal wall time (`apply(SealDay)` until the new state
//! is published): each world's median, averaged over the worlds.
//!
//! Materialize, diff and per-method runs happen inside `apply(SealDay)`.
//! A traced run times them on a shadow ledger and engine fed the identical
//! operations, through the same public functions the service calls.
//!
//! [`ServedState::answer`]: service::ServedState::answer

use crate::stats::{mean, median, quantile, SplitMix};
use crate::{world_seed, Args, Layers, Phase, Report, PAGE};
use datagen::{generate, mutation_stream, stock_config};
use datamodel::{
    DomainSchema, GoldStandard, ItemId, Snapshot, SnapshotBuilder, SnapshotDelta, ToleranceContext,
};
use fusion::{method_by_name, DeltaEngine, FusionMethod, FusionOptions, FusionProblem};
use service::{
    day_ops, diff_ops, ApplyOutcome, FusionService, OpKind, Operation, SealReport, ServiceConfig,
    ServiceReader,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shape of one service workload.
pub(crate) struct Shape {
    /// Worlds per run, each with its own service; worlds differ in how fast
    /// their methods converge, so a mean over several is steadier.
    worlds: usize,
    /// Object scale of the Stock world (1 000 objects × this, 16 attributes).
    object_scale: f64,
    /// Registry names of the served methods; empty for all sixteen.
    methods: &'static [&'static str],
    /// Share of items whose one nudged claim changes from one day to the
    /// next.
    dirty_fraction: f64,
    /// Re-deliver every claim each day instead of only the changed ones.
    recrawl: bool,
}

/// All sixteen methods over 8 000 items; each day sends the diff of a
/// 5%-dirty day.
pub(crate) const DIFF: Shape = Shape {
    worlds: 6,
    object_scale: 0.5,
    methods: &[],
    dirty_fraction: 0.05,
    recrawl: false,
};

/// Vote over 32 000 items; each day re-delivers every claim, 1% of items
/// changed.
pub(crate) const RECRAWL: Shape = Shape {
    worlds: 2,
    object_scale: 2.0,
    methods: &["Vote"],
    dirty_fraction: 0.01,
    recrawl: true,
};

/// Page reads per second the reader is scheduled to issue.
const READ_RATE_HZ: f64 = 1_000.0;

struct World {
    service: FusionService,
    reader: ServiceReader,
    methods: Vec<String>,
    gold: GoldStandard,
    days: DayPlan,
    /// Claims of the last sealed day.
    sealed: Snapshot,
    seq: u64,
    next_day: u32,
}

/// The producer's plan of every day's claims.
struct DayPlan {
    base: Snapshot,
    /// `base` with one claim of every eligible item nudged.
    nudged: Snapshot,
    /// The nudged items in a seeded order.
    order: Vec<ItemId>,
    /// Items carrying their nudged claim on any day.
    window: usize,
    /// Tolerances of day 0, which the service pins for every later day.
    tolerance: ToleranceContext,
}

impl DayPlan {
    fn new(base: Snapshot, dirty_fraction: f64, seed: u64) -> Self {
        let mut stream = mutation_stream(&base, 1, 1.0, seed);
        let nudged = stream
            .days
            .pop()
            .expect("a mutation stream ends with its successor day");
        let mut order: Vec<ItemId> = stream
            .dirty_sets
            .pop()
            .unwrap_or_default()
            .into_iter()
            .collect();
        service::shuffle(&mut order, seed);
        // A window sliding by half its width changes `window` items a day.
        let window = ((dirty_fraction * base.num_items() as f64).round() as usize)
            .max(2)
            .min(order.len() / 2)
            & !1;
        let mut plan = Self {
            tolerance: base.tolerance().clone(),
            base,
            nudged,
            order,
            window,
        };
        plan.tolerance = plan
            .claims(0)
            .build(plan.base.schema_arc())
            .tolerance()
            .clone();
        plan
    }

    /// The claims of day `day`, with day 0's tolerances.
    fn day(&self, day: u32) -> Snapshot {
        self.claims(day)
            .build_with_tolerance(self.base.schema_arc(), self.tolerance.clone())
    }

    fn claims(&self, day: u32) -> SnapshotBuilder {
        let start = day as usize * self.window / 2;
        let nudged: BTreeSet<ItemId> = (start..start + self.window)
            .map(|i| self.order[i % self.order.len()])
            .collect();
        let mut builder = SnapshotBuilder::new(day);
        for ((item, plain), (_, changed)) in self.base.items().zip(self.nudged.items()) {
            let obs = if nudged.contains(item) {
                changed
            } else {
                plain
            };
            for o in obs {
                builder.add(o.source, item.object, item.attr, o.value.clone());
            }
        }
        builder
    }
}

/// Outcome counts of one day's ingest.
#[derive(Default)]
struct Ingest {
    applied: u64,
    dropped: u64,
    rejected: u64,
}

/// Run a service workload of shape `shape` and record its metrics.
pub(crate) fn run(args: &Args, shape: &Shape, report: &mut Report) {
    let mut worlds = Vec::with_capacity(shape.worlds);
    let mut setup_s = Vec::with_capacity(shape.worlds);
    for w in 0..shape.worlds {
        let started = Instant::now();
        worlds.push(World::set_up(args, shape, w, report));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    // One warm day per world before measuring; precision is scored on it.
    for world in &mut worlds {
        world.day(shape, report, None);
    }
    let precision: Vec<f64> = worlds.iter().map(|w| w.served_precision(report)).collect();

    if args.trace {
        let untraced = measure(
            &mut worlds,
            args.seconds / 2.0,
            shape,
            args.seed,
            report,
            None,
        );
        let mut layers = Layers::default();
        let mut shadows: Vec<Shadow> = worlds.iter().map(Shadow::new).collect();
        let traced = measure(
            &mut worlds,
            args.seconds / 2.0,
            shape,
            args.seed,
            report,
            Some((&mut layers, &mut shadows)),
        );
        Phase::report_overhead(&untraced, &traced, report);
        layers.report(report);
    } else {
        measure(&mut worlds, args.seconds, shape, args.seed, report, None).report(report);
        report.set("setup_s", median(&setup_s));
        report.set("precision", mean(&precision));
    }
    for world in &worlds {
        world.check_against_cold(report);
    }
}

/// Run every world's days in turn until `seconds` have passed, with the
/// reader running throughout.
fn measure(
    worlds: &mut [World],
    seconds: f64,
    shape: &Shape,
    seed: u64,
    report: &mut Report,
    mut traced: Option<(&mut Layers, &mut [Shadow])>,
) -> Phase {
    let stop = AtomicBool::new(false);
    let readers: Vec<(ServiceReader, Vec<String>)> = worlds
        .iter()
        .map(|w| (w.reader.clone(), w.methods.clone()))
        .collect();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| read_loop(&readers, &stop, seed));
        let mut phase = Phase::new(worlds.len());
        let started = Instant::now();
        while !phase.covers_every_world() || started.elapsed().as_secs_f64() < seconds {
            for (w, world) in worlds.iter_mut().enumerate() {
                let day_traced = traced
                    .as_mut()
                    .map(|(layers, shadows)| (&mut **layers, &mut shadows[w]));
                let day = world.day(shape, report, day_traced);
                phase.day(w, day.seal, day.claims, day.ingest);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let reads = handle.join().expect("reader thread panicked");
        report.count(reads.total_us.len() as u64, reads.failed, "reads failed");
        if let Some((layers, _)) = traced {
            layers.total("service.reads", reads.total_us.len() as f64);
            report.set("service.read_state_us", mean(&reads.state_us));
            report.set("service.read_answer_us", mean(&reads.answer_us));
            report.set("service.reader_late_us", median(&reads.late_us));
            report.set("service.reader_late_p99_us", quantile(&reads.late_us, 0.99));
        }
        phase.reads_us = reads.total_us;
        phase.late_us = reads.late_us;
        phase
    })
}

/// Wall times of one service day.
struct DayTimes {
    /// Claim operations delivered.
    claims: usize,
    /// Applying them.
    ingest: Duration,
    /// `apply(SealDay)` until the new state is published.
    seal: Duration,
}

impl World {
    /// Generate the world, start the service, and ingest and seal the cold
    /// first day.
    fn set_up(args: &Args, shape: &Shape, w: usize, report: &mut Report) -> Self {
        let seed = world_seed(args.seed, w);
        let config = stock_config(seed).scaled(shape.object_scale * args.scale, 1.0 / 21.0);
        let domain = generate(&config);
        let first = domain.collection.day(0);
        let days = DayPlan::new(first.snapshot.clone(), shape.dirty_fraction, seed);
        let gold = first.gold.clone();
        drop(domain);

        let mut config = ServiceConfig::default();
        if !shape.methods.is_empty() {
            config.methods = shape.methods.iter().map(|m| m.to_string()).collect();
        }
        let methods = config.methods.clone();
        let service = FusionService::with_config(days.base.schema_arc(), config);
        let reader = service.reader();
        let sealed = days.day(0);
        let ops = day_ops(&sealed, 0);
        let mut world = Self {
            service,
            reader,
            methods,
            gold,
            days,
            sealed,
            seq: ops.len() as u64,
            next_day: 0,
        };
        let claims = ops.len();
        let ingest = world.ingest(ops);
        report.count(claims as u64, ingest.rejected, "operations were rejected");
        let sealed = world.seal();
        report.check(sealed.is_some(), || {
            "the cold first day did not seal".into()
        });
        world
    }

    /// Derive the next day and its operations (the producer's work, outside
    /// every timed region).
    fn produce(&mut self, shape: &Shape) -> (Snapshot, Vec<Operation>) {
        let next = self.days.day(self.next_day);
        let ops = if shape.recrawl {
            day_ops(&next, self.seq)
        } else {
            diff_ops(&self.sealed, &next, self.seq)
        };
        self.seq += ops.len() as u64;
        (next, ops)
    }

    fn ingest(&mut self, ops: Vec<Operation>) -> Ingest {
        let mut counts = Ingest::default();
        for op in ops {
            match self.service.apply(op) {
                ApplyOutcome::Applied => counts.applied += 1,
                ApplyOutcome::Duplicate | ApplyOutcome::Stale => counts.dropped += 1,
                ApplyOutcome::Rejected(_) | ApplyOutcome::Sealed(_) => counts.rejected += 1,
            }
        }
        counts
    }

    fn seal(&mut self) -> Option<SealReport> {
        let op = Operation::seal(self.seq, self.next_day);
        self.seq += 1;
        self.next_day += 1;
        match self.service.apply(op) {
            ApplyOutcome::Sealed(report) => Some(report),
            _ => None,
        }
    }

    /// One day: produce, ingest, seal (traced into `traced`).
    fn day(
        &mut self,
        shape: &Shape,
        report: &mut Report,
        mut traced: Option<(&mut Layers, &mut Shadow)>,
    ) -> DayTimes {
        let (next, ops) = self.produce(shape);
        let claims = ops.len();
        if let Some((layers, shadow)) = traced.as_mut() {
            shadow.ingest(&ops, layers);
        }

        let started = Instant::now();
        let ingest = self.ingest(ops);
        let ingested = Instant::now();
        let sealed = self.seal();
        let published = Instant::now();

        report.count(claims as u64, ingest.rejected, "operations were rejected");
        report.check(sealed.is_some(), || {
            format!("day {} did not seal", self.next_day - 1)
        });
        if let (Some((layers, shadow)), Some(seal)) = (traced, sealed) {
            let rest = seal.total.saturating_sub(seal.advance.prepare + seal.fuse);
            layers.layer("service.ingest_s", ingested - started);
            layers.layer("service.seal_prepare_s", seal.advance.prepare);
            layers.layer("service.seal_fuse_s", seal.fuse);
            layers.layer("service.seal_rest_s", rest);
            layers.day(published - started);
            layers.total("service.ops_applied", ingest.applied as f64);
            layers.total(
                "service.ops_dropped",
                (ingest.dropped + ingest.rejected) as f64,
            );
            layers.per_day("fusion.dirty_items", seal.advance.dirty_items as f64);
            layers.total(
                "fusion.full_refreshes",
                f64::from(u8::from(seal.advance.full_refresh)),
            );
            shadow.seal(self.next_day - 1, layers);
        }
        self.sealed = next;
        DayTimes {
            claims,
            ingest: ingested - started,
            seal: published - ingested,
        }
    }

    /// Mean precision over the served methods of the published answers for
    /// every gold item.
    fn served_precision(&self, report: &mut Report) -> f64 {
        let state = self.reader.state();
        let mut sum = 0.0;
        for method in &self.methods {
            let (mut judged, mut correct) = (0usize, 0usize);
            for (item, truth) in self.gold.iter() {
                if let Some(answer) = state.answer(method, *item) {
                    judged += 1;
                    let tolerance = self.sealed.tolerance().tolerance(item.attr);
                    if truth.matches(&answer.value, tolerance) || answer.value.subsumes(truth) {
                        correct += 1;
                    }
                }
            }
            report.check(judged > 0, || format!("{method} answers no gold item"));
            sum += correct as f64 / judged.max(1) as f64;
        }
        sum / self.methods.len() as f64
    }

    /// The final published day must carry, for every served method, the
    /// selection and trust bits of a cold run over that day's claims.
    fn check_against_cold(&self, report: &mut Report) {
        let state = self.reader.state();
        report.check(state.day() == Some(self.next_day - 1), || {
            format!(
                "published day {:?}, sealed {}",
                state.day(),
                self.next_day - 1
            )
        });
        let problem = FusionProblem::from_snapshot(&self.sealed);
        let options = FusionOptions::standard();
        for name in &self.methods {
            let method = method_by_name(name).expect("served methods are registry names");
            let cold = method.run(&problem, &options);
            let selection: Vec<u32> = cold.selection.iter().map(|&s| s as u32).collect();
            let same_selection = state.selection(name) == Some(selection.as_slice());
            let same_trust = state.trust_vector(name).is_some_and(|served| {
                served.len() == cold.trust.overall.len()
                    && served
                        .iter()
                        .zip(&cold.trust.overall)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            report.check(same_selection && same_trust, || {
                format!("{name}: served day differs from a cold run (selection {same_selection}, trust {same_trust})")
            });
        }
    }
}

/// What the reader thread saw.
#[derive(Default)]
struct Reads {
    total_us: Vec<f64>,
    state_us: Vec<f64>,
    answer_us: Vec<f64>,
    late_us: Vec<f64>,
    failed: u64,
}

/// Open-loop reader: one page read every `1 / READ_RATE_HZ` seconds of
/// schedule, sleeping until each is due. A page is one `state()` and
/// [`PAGE`] `answer()` calls for random items under random methods of a
/// random world.
fn read_loop(readers: &[(ServiceReader, Vec<String>)], stop: &AtomicBool, seed: u64) -> Reads {
    let period = Duration::from_secs_f64(1.0 / READ_RATE_HZ);
    let mut rng = SplitMix::new(seed ^ 0x0bad_5eed);
    let mut reads = Reads::default();
    let mut versions = vec![0; readers.len()];
    let mut due = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let w = rng.below(readers.len());
        let (reader, methods) = &readers[w];
        let began = Instant::now();
        let state = reader.state();
        let got_state = Instant::now();
        let items = state.items();
        let mut answered = 0;
        if !items.is_empty() {
            for _ in 0..PAGE {
                let answer = state.answer(
                    &methods[rng.below(methods.len())],
                    items[rng.below(items.len())],
                );
                answered += usize::from(black_box(answer).is_some());
            }
        }
        let done = Instant::now();

        reads.failed += u64::from(answered != PAGE || state.version() < versions[w]);
        versions[w] = state.version();
        reads
            .late_us
            .push(began.saturating_duration_since(due).as_secs_f64() * 1e6);
        reads.state_us.push((got_state - began).as_secs_f64() * 1e6);
        reads
            .answer_us
            .push((done - got_state).as_secs_f64() * 1e6 / PAGE as f64);
        reads.total_us.push((done - began).as_secs_f64() * 1e6);
        due += period;
    }
    reads
}

/// A ledger and delta engine fed the same operations as the service, so a
/// traced run can time the steps `apply(SealDay)` performs internally.
struct Shadow {
    schema: Arc<DomainSchema>,
    ledger: SnapshotBuilder,
    engine: DeltaEngine,
    pinned: ToleranceContext,
    methods: Vec<Box<dyn FusionMethod>>,
    options: FusionOptions,
}

impl Shadow {
    /// A shadow holding the world's last sealed day, untimed.
    fn new(world: &World) -> Self {
        let schema = world.sealed.schema_arc();
        let pinned = world.sealed.tolerance().clone();
        let mut ledger = SnapshotBuilder::new(world.sealed.day());
        for (item, obs) in world.sealed.items() {
            for o in obs {
                ledger.add(o.source, item.object, item.attr, o.value.clone());
            }
        }
        let mut engine = DeltaEngine::new();
        engine.advance(&ledger.materialize(Arc::clone(&schema), Some(&pinned), &BTreeSet::new()));
        Self {
            schema,
            ledger,
            engine,
            pinned,
            methods: world
                .methods
                .iter()
                .map(|name| method_by_name(name).expect("served methods are registry names"))
                .collect(),
            options: FusionOptions::standard(),
        }
    }

    fn ingest(&mut self, ops: &[Operation], layers: &mut Layers) {
        let started = Instant::now();
        for op in ops {
            match &op.kind {
                OpKind::UpsertClaim {
                    source,
                    object,
                    attr,
                    value,
                } => self.ledger.add(*source, *object, *attr, value.clone()),
                OpKind::RetractClaim {
                    source,
                    object,
                    attr,
                } => {
                    self.ledger.remove(*source, *object, *attr);
                }
                OpKind::SourceLeave { .. }
                | OpKind::SourceRejoin { .. }
                | OpKind::SealDay { .. } => {}
            }
        }
        layers.per_day("datamodel.ledger_s", started.elapsed().as_secs_f64());
    }

    fn seal(&mut self, day: u32, layers: &mut Layers) {
        self.ledger.set_day(day);
        let started = Instant::now();
        let snapshot = self.ledger.materialize(
            Arc::clone(&self.schema),
            Some(&self.pinned),
            &BTreeSet::new(),
        );
        let materialized = Instant::now();
        let previous = self
            .engine
            .current_snapshot()
            .expect("the shadow engine is warm");
        black_box(SnapshotDelta::between(previous, &snapshot));
        let diffed = Instant::now();
        let advance = self.engine.advance(&snapshot);
        let advanced = Instant::now();
        layers.per_day(
            "datamodel.materialize_s",
            (materialized - started).as_secs_f64(),
        );
        layers.per_day("datamodel.diff_s", (diffed - materialized).as_secs_f64());
        layers.per_day("fusion.advance_s", (advanced - diffed).as_secs_f64());
        layers.per_day("datamodel.claims", snapshot.num_observations() as f64);
        black_box(advance);
        for method in &self.methods {
            let run_started = Instant::now();
            let (result, run) = self.engine.run(method.as_ref(), &self.options);
            let elapsed = run_started.elapsed();
            let name = method.name();
            layers.per_day(&format!("fusion.run.{name}_s"), elapsed.as_secs_f64());
            layers.per_day(&format!("fusion.rounds.{name}"), result.rounds as f64);
            layers.total("fusion.cache_hits", f64::from(u8::from(run.cache_hit)));
        }
    }
}
