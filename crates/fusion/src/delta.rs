//! Delta fusion engine: delta'd preparation over warm CSR state.
//!
//! The temporal experiments (Table 9's day-over-day collection, Figure 9's
//! growing source prefixes) re-prepare and re-fuse the entire world on every
//! step, even though consecutive snapshots share the vast majority of
//! claims. [`DeltaEngine`] holds warm state between snapshots — the
//! [`ProblemBuilder`]'s CSR problem, each method's last result, and the
//! reusable [`FusionScratch`] (including the copy-pair LLR buffers the
//! copy-aware methods re-score into) — and, given the next snapshot:
//!
//! 1. diffs it against the previous one ([`SnapshotDelta`]), or lets the
//!    caller supply both ([`advance_with`](DeltaEngine::advance_with): the
//!    online service's claim ledger patches the previous snapshot and diffs
//!    only the rows its ingest touched),
//! 2. refills only the dirty CSR rows in place
//!    ([`ProblemBuilder::prepare_delta`], splicing clean rows forward), and
//! 3. re-runs each method over the full spliced problem deterministically,
//!    unless the problem is unchanged since that method's last run, in which
//!    case the cached result is returned without fusing.
//!    [`run_all`](DeltaEngine::run_all) spreads the methods that must fuse
//!    over the rayon pool, one task per method, longest first by each
//!    method's last wall time; each task borrows a warm [`FusionScratch`]
//!    from the engine's pool, so there is at most one per worker.
//!
//! Every result is bit-identical to a cold full-batch run of the same
//! snapshot: preparation is delta'd (the dominant data-movement saving —
//! bucketing and the O(k²) similarity pass are skipped for every clean
//! item), but the fusion itself is never restricted. The iterative methods
//! couple every source's trust to every item each round, so re-fusing only a
//! dirty frontier would move low-order float bits — and on the paper's
//! worlds, where most sources claim most items, one dirty source pulls the
//! whole world into any such frontier anyway. Bit-identity is pinned across
//! all sixteen methods, mutation kinds, and trust modes by
//! `tests/delta_equivalence.rs`.
//!
//! The methods are independent of each other and every buffer is re-shaped
//! before its first read, so neither the worker a method lands on nor the
//! scratch it borrows shows in the output.
//!
//! A day whose dirty fraction exceeds [`MAX_DIRTY_FRACTION`] is re-prepared
//! from scratch instead of spliced.

use crate::methods::FusionMethod;
use crate::problem::ProblemBuilder;
use crate::types::{FusionOptions, FusionResult, FusionScratch};
use datamodel::{Snapshot, SnapshotDelta};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// When a day's [`SnapshotDelta::dirty_fraction`] exceeds this,
/// [`DeltaEngine::advance`] abandons splicing and re-prepares the problem
/// from scratch. On the `exp_fig12_efficiency` dirty-fraction sweep the
/// splice path beats a cold re-preparation at 1% and 10% dirty but loses at
/// 50%, where the merge-walk bookkeeping costs more than it saves; a quarter
/// sits between the two.
pub const MAX_DIRTY_FRACTION: f64 = 0.25;

/// What [`DeltaEngine::advance`] did with one day's snapshot.
#[derive(Debug, Clone)]
pub struct AdvanceReport {
    /// Day index of the snapshot advanced to.
    pub day: u32,
    /// True on the engine's first snapshot (cold full preparation).
    pub first_day: bool,
    /// True when the delta was empty and preparation was skipped entirely.
    pub identical: bool,
    /// True when the engine re-prepared from scratch (first day, or dirty
    /// fraction above [`MAX_DIRTY_FRACTION`]).
    pub full_refresh: bool,
    /// Items whose CSR rows were re-bucketed (dirty or new).
    pub dirty_items: usize,
    /// Items dropped since the previous snapshot.
    pub removed_items: usize,
    /// Sources whose claim sets changed.
    pub dirty_sources: usize,
    /// Sources that entered the snapshot.
    pub added_sources: usize,
    /// Sources that left the snapshot.
    pub removed_sources: usize,
    /// The delta's dirty fraction (`1.0` on the first day).
    pub dirty_fraction: f64,
    /// Wall-clock time of the preparation: producing the snapshot and its
    /// delta (a copy and [`SnapshotDelta::between`], or the caller's step),
    /// then the refill.
    pub prepare: Duration,
}

/// How [`DeltaEngine::run`] or [`DeltaEngine::run_all`] satisfied one
/// method's request. The method's own wall time is its
/// [`FusionResult::elapsed`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// True when a result was returned without fusing: the problem is
    /// unchanged since the method's last run under compatible options, or
    /// the method is listed earlier in the same
    /// [`run_all`](DeltaEngine::run_all) call. Otherwise the method ran over
    /// the full problem.
    pub cache_hit: bool,
}

/// Per-method warm state carried between snapshots.
#[derive(Debug)]
struct MethodWarm {
    /// The options the warm result was produced under (compatibility key).
    options_key: FusionOptions,
    /// Last produced result.
    result: FusionResult,
    /// True when the problem changed at all since this method last ran.
    stale: bool,
}

/// Warm-state re-fusion engine for day-over-day and incremental workloads.
///
/// Feed it one snapshot at a time with [`advance`](Self::advance), then ask
/// for per-method results with [`run_all`](Self::run_all) (or
/// [`run`](Self::run) for one method). The engine owns every reusable buffer
/// of the pipeline — the [`ProblemBuilder`] whose CSR rows are spliced
/// forward day over day and a pool of [`FusionScratch`]es, one per worker
/// that has fused a method — so steady-state operation allocates almost
/// nothing and never re-buckets a clean item.
///
/// See the [module docs](self) for the bit-identity contract.
#[derive(Debug, Default)]
pub struct DeltaEngine {
    builder: ProblemBuilder,
    /// Warm scratches; a fusing task takes one and puts it back, so the pool
    /// holds at most one per worker.
    scratch: Vec<FusionScratch>,
    current: Option<Snapshot>,
    delta: SnapshotDelta,
    per_method: HashMap<String, MethodWarm>,
}

impl DeltaEngine {
    /// An engine with no warm state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently prepared problem (empty before the first
    /// [`advance`](Self::advance)).
    pub fn problem(&self) -> &crate::problem::FusionProblem {
        self.builder.problem()
    }

    /// The delta computed by the last [`advance`](Self::advance) (default —
    /// empty — before the second snapshot).
    pub fn last_delta(&self) -> &SnapshotDelta {
        &self.delta
    }

    /// The snapshot the engine last advanced to, if any.
    ///
    /// The online service re-enters the engine between seals (confidence and
    /// per-source readings are derived from the advanced problem); this
    /// exposes which snapshot that state belongs to.
    pub fn current_snapshot(&self) -> Option<&Snapshot> {
        self.current.as_ref()
    }

    /// Whether the engine holds warm state (has advanced at least once).
    pub fn is_warm(&self) -> bool {
        self.current.is_some()
    }

    /// Advance the engine to `snapshot`: diff against the previous day and
    /// refill only the dirty CSR rows (or re-prepare from scratch above
    /// [`MAX_DIRTY_FRACTION`]). Every method's cached result goes stale
    /// unless the delta is empty.
    ///
    /// This is [`advance_with`](Self::advance_with) of a step that diffs by
    /// [`SnapshotDelta::between`] and takes a copy of `snapshot`.
    pub fn advance(&mut self, snapshot: &Snapshot) -> AdvanceReport {
        self.advance_with(|prev| {
            let delta = prev
                .map(|prev| SnapshotDelta::between(&prev, snapshot))
                .unwrap_or_default();
            (snapshot.clone(), delta)
        })
    }

    /// Advance the engine by a caller-supplied step. `step` receives the
    /// current snapshot by value (`None` before the first) and returns the
    /// next snapshot together with the delta to it, which must equal
    /// [`SnapshotDelta::between`] of the two; the delta is ignored on the
    /// first snapshot, which is prepared cold. A caller that knows which
    /// rows changed, like the service's claim ledger, can patch the current
    /// snapshot in place and diff only those rows, with no whole-world copy
    /// or diff. The report's `prepare` covers the step and the refill.
    pub fn advance_with(
        &mut self,
        step: impl FnOnce(Option<Snapshot>) -> (Snapshot, SnapshotDelta),
    ) -> AdvanceReport {
        let started = Instant::now();
        let first_day = self.current.is_none();
        let (snapshot, delta) = step(self.current.take());
        let report = if first_day {
            self.builder.prepare(&snapshot);
            self.delta = SnapshotDelta::default();
            self.mark_stale();
            let sources = self.builder.problem().num_sources();
            AdvanceReport {
                day: snapshot.day(),
                first_day: true,
                identical: false,
                full_refresh: true,
                dirty_items: snapshot.num_items(),
                removed_items: 0,
                dirty_sources: sources,
                added_sources: sources,
                removed_sources: 0,
                dirty_fraction: 1.0,
                prepare: started.elapsed(),
            }
        } else {
            let identical = delta.is_empty();
            let fraction = delta.dirty_fraction();
            let full_refresh = !identical && fraction > MAX_DIRTY_FRACTION;
            if full_refresh {
                self.builder.prepare(&snapshot);
            } else if !identical {
                self.builder.prepare_delta(&snapshot, &delta);
            }
            if !identical {
                self.mark_stale();
            }
            let report = AdvanceReport {
                day: snapshot.day(),
                first_day: false,
                identical,
                full_refresh,
                dirty_items: delta.dirty_items().len(),
                removed_items: delta.removed_items().len(),
                dirty_sources: delta.dirty_sources().len(),
                added_sources: delta.added_sources().len(),
                removed_sources: delta.removed_sources().len(),
                dirty_fraction: fraction,
                prepare: started.elapsed(),
            };
            self.delta = delta;
            report
        };
        self.current = Some(snapshot);
        report
    }

    /// Run `method` over the current snapshot: [`run_all`](Self::run_all)
    /// of that one method.
    ///
    /// The returned [`FusionResult`] is bit-identical to `method.run` on a
    /// cold preparation of the current snapshot.
    pub fn run(&mut self, method: &dyn FusionMethod, options: &FusionOptions) -> (FusionResult, RunReport) {
        self.run_all(&[method], options)
            .pop()
            .expect("run_all returns one result per method")
    }

    /// Run every method in `methods` over the current snapshot, returning
    /// one result and report per method, in `methods`' order.
    ///
    /// Methods whose cached result still holds are answered in place. The
    /// rest fuse as one task each on the rayon pool, submitted longest first
    /// by their last [`FusionResult::elapsed`] (methods with no history go
    /// first, in `methods`' order). Each task borrows a warm scratch from the
    /// engine's pool and returns it. With nothing to fuse no thread is
    /// involved, and a single method fuses on the caller's thread. A method
    /// listed twice fuses once; its later listings are cache hits.
    ///
    /// Every returned [`FusionResult`] is bit-identical to `method.run` on a
    /// cold preparation of the current snapshot.
    pub fn run_all(
        &mut self,
        methods: &[&dyn FusionMethod],
        options: &FusionOptions,
    ) -> Vec<(FusionResult, RunReport)> {
        let names: Vec<String> = methods.iter().map(|m| m.name()).collect();
        let mut misses: Vec<usize> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let cached = self
                .per_method
                .get(name)
                .is_some_and(|warm| !warm.stale && options_compatible(&warm.options_key, options));
            if !cached && !misses.iter().any(|&j| names[j] == *name) {
                misses.push(i);
            }
        }
        misses.sort_by_key(|&i| {
            std::cmp::Reverse(
                self.per_method
                    .get(&names[i])
                    .map_or(Duration::MAX, |warm| warm.result.elapsed),
            )
        });

        let problem = self.builder.problem();
        // A push or pop leaves the pool valid, so a lock poisoned by a
        // panicking task is safe to recover; the panic itself still reaches
        // the caller through the pool.
        let pool = Mutex::new(std::mem::take(&mut self.scratch));
        let fuse = |i: usize| {
            let taken = pool.lock().unwrap_or_else(PoisonError::into_inner).pop();
            let mut scratch = taken.unwrap_or_default();
            let result = methods[i].run_with_scratch(problem, options, &mut scratch);
            pool.lock().unwrap_or_else(PoisonError::into_inner).push(scratch);
            (i, result)
        };
        let fused: Vec<(usize, FusionResult)> = match misses.as_slice() {
            [] => Vec::new(),
            [i] => vec![fuse(*i)],
            _ => misses.into_par_iter().map(fuse).collect(),
        };
        self.scratch = pool.into_inner().unwrap_or_else(PoisonError::into_inner);

        // The cache keeps a copy made on this thread and the caller gets the
        // fused result, so what outlives the call is not held in a worker
        // thread's allocator arena (holding it there raised `serve_diff`'s
        // peak RSS by ~7%).
        let mut fresh: Vec<Option<FusionResult>> = vec![None; methods.len()];
        for (i, result) in fused {
            let warm = MethodWarm {
                options_key: options.clone(),
                result: result.clone(),
                stale: false,
            };
            self.per_method.insert(names[i].clone(), warm);
            fresh[i] = Some(result);
        }
        names
            .iter()
            .zip(fresh)
            .map(|(name, fresh)| match fresh {
                Some(result) => (result, RunReport { cache_hit: false }),
                None => {
                    let result = self.per_method[name].result.clone();
                    (result, RunReport { cache_hit: true })
                }
            })
            .collect()
    }

    /// Invalidate every method's cached result; a method stays stale until
    /// it runs again, however many advances come in between.
    fn mark_stale(&mut self) {
        for warm in self.per_method.values_mut() {
            warm.stale = true;
        }
    }
}

/// Whether two option sets produce interchangeable results for caching
/// purposes: every field of [`FusionOptions`] agrees, floats bit for bit.
fn options_compatible(a: &FusionOptions, b: &FusionOptions) -> bool {
    a.max_rounds == b.max_rounds
        && a.epsilon.to_bits() == b.epsilon.to_bits()
        && a.input_trust == b.input_trust
        && a.per_attribute_trust == b.per_attribute_trust
        && a.known_copy_probabilities == b.known_copy_probabilities
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FusionProblem;
    use crate::registry::all_methods;
    use datamodel::{AttrId, AttrKind, DomainSchema, ObjectId, SnapshotBuilder, SourceId, Value};
    use std::sync::Arc;

    fn schema(num_sources: usize) -> Arc<DomainSchema> {
        let mut s = DomainSchema::new("test");
        s.add_attribute("x", AttrKind::Numeric { scale: 100.0 }, false);
        s.add_attribute("y", AttrKind::Numeric { scale: 10.0 }, false);
        for i in 0..num_sources {
            s.add_source(format!("s{i}"), false);
        }
        Arc::new(s)
    }

    fn day0() -> Snapshot {
        let mut b = SnapshotBuilder::new(0);
        for obj in 0..8u32 {
            for s in 0..4u16 {
                let v = 100.0 + obj as f64 + if s == 3 { 5.0 } else { 0.0 };
                b.add(SourceId(s as u32), ObjectId(obj), AttrId(0), Value::number(v));
            }
            b.add(SourceId(0), ObjectId(obj), AttrId(1), Value::number(10.0 + obj as f64));
        }
        b.build(schema(4))
    }

    /// Day 1: one value edit (object 2), pinned tolerance.
    fn day1(base: &Snapshot) -> Snapshot {
        let mut b = SnapshotBuilder::new(1);
        for (item, obs) in base.items() {
            for o in obs {
                let v = if item.object == ObjectId(2) && o.source == SourceId(1) {
                    Value::number(222.0)
                } else {
                    o.value.clone()
                };
                b.add(o.source, item.object, item.attr, v);
            }
        }
        b.build_with_tolerance(base.schema_arc(), base.tolerance().clone())
    }

    #[test]
    fn exact_mode_matches_cold_run_day_over_day() {
        let d0 = day0();
        let d1 = day1(&d0);
        let mut engine = DeltaEngine::new();
        let options = FusionOptions::standard();

        let r0 = engine.advance(&d0);
        assert!(r0.first_day && r0.full_refresh);
        let r1 = engine.advance(&d1);
        assert!(!r1.full_refresh && !r1.identical);
        assert_eq!(r1.dirty_items, 1);

        for (_, method) in all_methods() {
            // Re-advance per method is unnecessary: every run is a full run
            // on the spliced problem, which is shared by all methods.
            let cold = method.run(&FusionProblem::from_snapshot(&d1), &options);
            let (warm, report) = engine.run(method.as_ref(), &options);
            assert!(!report.cache_hit);
            assert_eq!(warm.selection, cold.selection, "{}", method.name());
            assert_eq!(warm.rounds, cold.rounds, "{}", method.name());
            let warm_bits: Vec<u64> = warm.trust.overall.iter().map(|t| t.to_bits()).collect();
            let cold_bits: Vec<u64> = cold.trust.overall.iter().map(|t| t.to_bits()).collect();
            assert_eq!(warm_bits, cold_bits, "{}", method.name());
        }
    }

    #[test]
    fn empty_delta_returns_cached_result() {
        let d0 = day0();
        let mut engine = DeltaEngine::new();
        let options = FusionOptions::standard();
        engine.advance(&d0);
        let method = crate::registry::method_by_name("Vote").unwrap();
        let (first, report0) = engine.run(method.as_ref(), &options);
        assert!(!report0.cache_hit);

        // Same snapshot again: no preparation, no fusion.
        let r = engine.advance(&d0);
        assert!(r.identical && !r.full_refresh);
        let (second, report1) = engine.run(method.as_ref(), &options);
        assert!(report1.cache_hit);
        assert_eq!(second.selection, first.selection);

        // Changing options invalidates the cache.
        let per_attr = FusionOptions::standard().with_per_attribute_trust();
        let (_, report2) = engine.run(method.as_ref(), &per_attr);
        assert!(!report2.cache_hit);
    }

    #[test]
    fn high_dirty_fraction_falls_back_to_full_refresh() {
        let d0 = day0();
        // Rewrite every item's dominant value: ~100% dirty.
        let mut b = SnapshotBuilder::new(1);
        for (item, obs) in d0.items() {
            for o in obs {
                b.add(o.source, item.object, item.attr, Value::number(999.0));
            }
        }
        let d1 = b.build_with_tolerance(d0.schema_arc(), d0.tolerance().clone());

        let mut engine = DeltaEngine::new();
        engine.advance(&d0);
        let r = engine.advance(&d1);
        assert!(r.full_refresh);
        assert!(r.dirty_fraction > 0.9);
    }
}
