//! In-process online fusion service over the warm [`fusion::DeltaEngine`].
//!
//! The batch `exp_*` runners re-fuse whole snapshots; this crate is the
//! serving shell the ROADMAP's online-service item asks for, modeled on
//! Chronicle's ledger/API split: **operations in, state deltas out, queries
//! from materialized state**.
//!
//! # Ingest path
//!
//! A [`FusionService`] accepts a stream of typed [`Operation`]s —
//! [`UpsertClaim`](OpKind::UpsertClaim), [`RetractClaim`](OpKind::RetractClaim),
//! [`SourceLeave`](OpKind::SourceLeave) / [`SourceRejoin`](OpKind::SourceRejoin),
//! and [`SealDay`](OpKind::SealDay) — applied to one persistent
//! [`datamodel::ClaimLedger`]. The ledger interns each item to a row of
//! source-sorted slots, and each slot holds one claim's value (or a
//! retraction's tombstone) together with its sequence gate, so a write is
//! one lookup. Operations carry a producer-assigned sequence number and are
//! **idempotent under duplication and commutative under reordering** within
//! a day: for each claim key `(source, item)` (and each source for
//! leave/rejoin) the highest sequence number wins, exact replays are
//! [`Duplicate`](ApplyOutcome::Duplicate) no-ops, and late lower-seq arrivals
//! are [`Stale`](ApplyOutcome::Stale) no-ops. Re-sending a claim's stored
//! value only raises its sequence number.
//!
//! `SealDay` has the ledger patch the previous sealed snapshot into a
//! canonical one for the day (per-item observations in `SourceId` order,
//! tolerances pinned to the first sealed day), rebuilding and diffing only
//! the rows ingest touched since the last seal. That delta advances the
//! [`fusion::DeltaEngine`], so consecutive seals pay for preparation only
//! where something changed. The seal then fuses every configured method
//! with one [`fusion::DeltaEngine::run_all`], which answers unchanged
//! methods from its cache and spreads the rest over the rayon pool, one
//! task per method.
//!
//! # Read path
//!
//! Every seal publishes an immutable [`ServedState`] — per-method selected
//! values, per-item confidence, per-source trust, and the claim table needed
//! to answer "who said what" — behind an `RwLock<Arc<ServedState>>`.
//! [`ServiceReader`]s (cloneable, `Send + Sync`) take the read lock only long
//! enough to clone the inner `Arc`, so readers are never blocked by an
//! in-flight advance: they keep serving the previous day's state until the
//! swap, and a reader holding a state keeps it alive arbitrarily long.
//!
//! The container is offline (no tokio), so concurrency is std threads +
//! channels: an ingest thread owns the service, reader threads clone
//! [`ServiceReader`]s. See `tests/service.rs` and the `exp_service` binary.

#![deny(missing_docs)]

mod ops;
mod service;
mod state;

pub use ops::{day_ops, diff_ops, shuffle, OpKind, Operation};
pub use service::{ApplyOutcome, FusionService, IngestSummary, SealReport, ServiceConfig};
pub use state::{ItemAnswer, ServedState, ServiceReader, ServiceStats, SourceReading};
