//! The published read path: immutable [`ServedState`] snapshots behind
//! cloneable [`ServiceReader`] handles.
//!
//! Publication is pointer-swap cheap: the service builds the next state off
//! to the side, then takes the write lock only to replace the inner `Arc`.
//! Readers take the read lock only to clone that `Arc`, so neither side ever
//! holds the lock across real work — queries run lock-free against the
//! cloned state, and an in-flight seal never blocks a reader.

use datamodel::{ItemId, SourceId, Value};
use evaluation::DeltaUsage;
use fusion::{FusionProblem, FusionResult};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Cumulative service accounting: ingest outcomes, seal counts, and the
/// folded [`DeltaUsage`] of the underlying engine.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Operations that mutated the ledger (or sealed a day).
    pub ops_applied: usize,
    /// Exact replays dropped by the idempotency keys.
    pub ops_duplicate: usize,
    /// Late lower-sequence arrivals dropped by last-writer-wins.
    pub ops_stale: usize,
    /// Operations rejected at the ingest boundary: the sum of the four
    /// per-reason counts below.
    pub ops_rejected: usize,
    /// Rejected for naming a source outside the schema.
    pub rejected_source: usize,
    /// Rejected for naming an attribute outside the schema.
    pub rejected_attribute: usize,
    /// Rejected for a value whose kind is not its attribute's.
    pub rejected_kind: usize,
    /// Rejected for a non-finite number or granularity.
    pub rejected_non_finite: usize,
    /// Days sealed so far (each seal's timing is on its `SealReport`).
    pub seals: usize,
    /// The delta engine's own accounting, folded over every seal.
    pub delta: DeltaUsage,
}

/// Why the ingest boundary rejected an operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reject {
    Source,
    Attribute,
    Kind,
    NonFinite,
}

impl ServiceStats {
    /// Count one rejected operation under its reason.
    pub(crate) fn count_reject(&mut self, reject: Reject) {
        *match reject {
            Reject::Source => &mut self.rejected_source,
            Reject::Attribute => &mut self.rejected_attribute,
            Reject::Kind => &mut self.rejected_kind,
            Reject::NonFinite => &mut self.rejected_non_finite,
        } += 1;
    }
}

/// One method's materialized results inside a [`ServedState`].
#[derive(Debug, Clone)]
struct MethodServe {
    /// Selected local candidate per item (aligned with `ServedState::items`).
    selection: Vec<u32>,
    /// Trust-weighted vote share of the selected candidate per item.
    confidence: Vec<f64>,
    /// Overall trust per source (aligned with `ServedState::sources`).
    trust: Vec<f64>,
}

/// An immutable, fully materialized view of one sealed day: everything the
/// read path needs, detached from the engine that produced it.
///
/// The claim table mirrors the engine's CSR problem (item-major, sources as
/// dense indices), so per-item answers are O(providers) slice walks with no
/// map lookups beyond the initial item binary search.
#[derive(Debug, Clone)]
pub struct ServedState {
    day: Option<u32>,
    version: u64,
    items: Vec<ItemId>,
    sources: Vec<SourceId>,
    /// `items.len() + 1` offsets into `cand_values`.
    cand_offsets: Vec<u32>,
    cand_values: Vec<Value>,
    /// `items.len() + 1` offsets into `claims`.
    claim_offsets: Vec<u32>,
    /// `(source index, local candidate)` per claim, source-sorted per item.
    claims: Vec<(u32, u32)>,
    per_method: BTreeMap<String, MethodServe>,
    stats: ServiceStats,
}

/// What one source said about one item, and how the service weighs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceReading {
    /// The claiming source.
    pub source: SourceId,
    /// The source's overall trust under the answering method.
    pub trust: f64,
    /// The value the source claimed.
    pub claimed: Value,
    /// Whether the claim falls in the selected candidate's bucket.
    pub agrees: bool,
}

/// A full per-item answer: the fused value, how confident the method is in
/// it, and every contributing source's claim and trust.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemAnswer {
    /// The sealed day this answer belongs to.
    pub day: u32,
    /// The item queried.
    pub item: ItemId,
    /// The selected (fused) value.
    pub value: Value,
    /// Trust-weighted vote share of the selected candidate in `[0, 1]`.
    pub confidence: f64,
    /// Per-source readings, in ascending source order.
    pub sources: Vec<SourceReading>,
}

impl ServedState {
    /// The state served before any day is sealed: no items, no methods.
    pub fn empty() -> Self {
        Self {
            day: None,
            version: 0,
            items: Vec::new(),
            sources: Vec::new(),
            cand_offsets: vec![0],
            cand_values: Vec::new(),
            claim_offsets: vec![0],
            claims: Vec::new(),
            per_method: BTreeMap::new(),
            stats: ServiceStats::default(),
        }
    }

    /// Materialize a state from the engine's prepared problem plus each
    /// method's result for it.
    pub(crate) fn from_problem(
        day: u32,
        version: u64,
        problem: &FusionProblem,
        results: &[(String, FusionResult)],
        stats: ServiceStats,
    ) -> Self {
        let items: Vec<ItemId> = problem.items().map(|i| i.id()).collect();
        let sources = problem.sources.clone();
        let mut cand_offsets = Vec::with_capacity(items.len() + 1);
        let mut claim_offsets = Vec::with_capacity(items.len() + 1);
        let mut cand_values = Vec::new();
        let mut claims: Vec<(u32, u32)> = Vec::new();
        cand_offsets.push(0);
        claim_offsets.push(0);
        for item in problem.items() {
            let claim_base = claims.len();
            for cand in item.candidates() {
                let local = cand.local_index() as u32;
                cand_values.push(cand.value().clone());
                for &p in cand.providers() {
                    claims.push((p, local));
                }
            }
            claims[claim_base..].sort_unstable();
            cand_offsets.push(cand_values.len() as u32);
            claim_offsets.push(claims.len() as u32);
        }

        let mut per_method = BTreeMap::new();
        for (name, result) in results {
            let selection: Vec<u32> = result.selection.iter().map(|&s| s as u32).collect();
            let trust = result.trust.overall.clone();
            let mut confidence = Vec::with_capacity(items.len());
            for i in 0..items.len() {
                let sel = selection[i];
                let row = &claims[claim_offsets[i] as usize..claim_offsets[i + 1] as usize];
                let mut total = 0.0f64;
                let mut selected = 0.0f64;
                for &(s, c) in row {
                    let t = trust.get(s as usize).copied().unwrap_or(0.0);
                    let w = if t.is_finite() { t.max(0.0) } else { 0.0 };
                    total += w;
                    if c == sel {
                        selected += w;
                    }
                }
                confidence.push(if total > 0.0 {
                    selected / total
                } else if row.is_empty() {
                    0.0
                } else {
                    // Degenerate all-zero trust: fall back to the plain vote
                    // share so the answer still ranks candidates sensibly.
                    row.iter().filter(|&&(_, c)| c == sel).count() as f64 / row.len() as f64
                });
            }
            per_method.insert(
                name.clone(),
                MethodServe {
                    selection,
                    confidence,
                    trust,
                },
            );
        }

        Self {
            day: Some(day),
            version,
            items,
            sources,
            cand_offsets,
            cand_values,
            claim_offsets,
            claims,
            per_method,
            stats,
        }
    }

    /// The sealed day this state was published for (`None` before the first
    /// seal).
    pub fn day(&self) -> Option<u32> {
        self.day
    }

    /// Monotonically increasing publication counter (0 for the empty state).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Item ids served by this state, in ascending order.
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Sources known to this state, in ascending order.
    pub fn sources(&self) -> &[SourceId] {
        &self.sources
    }

    /// Names of the methods with materialized results, in sorted order.
    pub fn methods(&self) -> impl Iterator<Item = &str> {
        self.per_method.keys().map(String::as_str)
    }

    /// The service accounting frozen at publication time.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The selected local candidate per item under `method` (the raw
    /// selection vector, for bit-identity comparisons against batch runs).
    pub fn selection(&self, method: &str) -> Option<&[u32]> {
        self.per_method.get(method).map(|m| m.selection.as_slice())
    }

    /// Overall trust per source under `method`, aligned with
    /// [`sources`](Self::sources).
    pub fn trust_vector(&self, method: &str) -> Option<&[f64]> {
        self.per_method.get(method).map(|m| m.trust.as_slice())
    }

    /// Overall trust of one source under `method`.
    pub fn trust(&self, method: &str, source: SourceId) -> Option<f64> {
        let m = self.per_method.get(method)?;
        let i = self.sources.binary_search(&source).ok()?;
        Some(m.trust[i])
    }

    /// The full answer for `item` under `method`, or `None` when the method
    /// or item is unknown (or nothing is sealed yet).
    pub fn answer(&self, method: &str, item: ItemId) -> Option<ItemAnswer> {
        let day = self.day?;
        let m = self.per_method.get(method)?;
        let i = self.items.binary_search(&item).ok()?;
        let sel = m.selection[i];
        let cand_base = self.cand_offsets[i] as usize;
        let value = self.cand_values[cand_base + sel as usize].clone();
        let sources = self.claims[self.claim_offsets[i] as usize..self.claim_offsets[i + 1] as usize]
            .iter()
            .map(|&(s, c)| SourceReading {
                source: self.sources[s as usize],
                trust: m.trust[s as usize],
                claimed: self.cand_values[cand_base + c as usize].clone(),
                agrees: c == sel,
            })
            .collect();
        Some(ItemAnswer {
            day,
            item,
            value,
            confidence: m.confidence[i],
            sources,
        })
    }
}

/// Cloneable, thread-safe handle onto the service's published state.
///
/// Each accessor clones the current `Arc<ServedState>` under a momentary
/// read lock and then works lock-free; see the [crate docs](crate) for the
/// consistency contract.
#[derive(Debug, Clone)]
pub struct ServiceReader {
    shared: Arc<RwLock<Arc<ServedState>>>,
}

impl ServiceReader {
    pub(crate) fn new(shared: Arc<RwLock<Arc<ServedState>>>) -> Self {
        Self { shared }
    }

    /// The current published state. Holding the returned `Arc` pins that
    /// state (not the lock): later seals publish new states without
    /// disturbing it. A poisoned lock still holds a complete state, so it
    /// is read through.
    pub fn state(&self) -> Arc<ServedState> {
        Arc::clone(&self.shared.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The latest sealed day (`None` before the first seal).
    pub fn day(&self) -> Option<u32> {
        self.state().day()
    }

    /// The latest publication counter.
    pub fn version(&self) -> u64 {
        self.state().version()
    }

    /// [`ServedState::answer`] against the current state.
    pub fn answer(&self, method: &str, item: ItemId) -> Option<ItemAnswer> {
        self.state().answer(method, item)
    }

    /// [`ServedState::trust`] against the current state.
    pub fn trust(&self, method: &str, source: SourceId) -> Option<f64> {
        self.state().trust(method, source)
    }

    /// The service accounting as of the current state's publication.
    pub fn stats(&self) -> ServiceStats {
        self.state().stats().clone()
    }
}
