//! Data model for Deep-Web truth finding.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: identifiers for sources, objects, and attributes; typed
//! [`Value`]s with normalization, tolerance-aware comparison, similarity, and
//! formatting (granularity) relations; observation tables ([`Snapshot`] and
//! [`Collection`]); and [`GoldStandard`]s.
//!
//! The model follows Section 2 of *"Truth Finding on the Deep Web: Is the
//! Problem Solved?"* (Li et al., VLDB 2012):
//!
//! * a **domain** (Stock, Flight, ...) contains **objects** of one type,
//! * each object is described by a set of **attributes**,
//! * an (object, attribute) pair is a **data item** with a single true value,
//! * each **source** provides values for a subset of data items,
//! * values are compared under a per-attribute **tolerance** (Equation 3 of
//!   the paper) and grouped into **buckets** before any measurement or fusion.

pub mod bucket;
pub mod collection;
pub mod csv;
pub mod diff;
pub mod gold;
pub mod ids;
pub mod ledger;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod tolerance;
pub mod value;

pub use bucket::{bucket_values, Bucketer, Bucketing, ValueBucket};
pub use csv::{write_snapshot, CsvError, CsvReader};
pub use collection::{Collection, CollectionDay};
pub use diff::SnapshotDelta;
pub use gold::GoldStandard;
pub use ids::{AttrId, ItemId, ObjectId, SourceId};
pub use ledger::{ClaimLedger, LedgerWrite};
pub use schema::{AttrKind, AttributeDef, DomainSchema, SourceInfo};
pub use snapshot::{Observation, Snapshot, SnapshotBuilder};
pub use stats::{entropy, mean, median, percentile, stddev};
pub use tolerance::{ToleranceContext, TolerancePolicy, DEFAULT_ALPHA, TIME_TOLERANCE_MINUTES};
pub use value::{Granularity, Value, ValueKind};
