//! Data-fusion (truth-discovery) methods.
//!
//! This crate implements every fusion method compared in the paper
//! (Table 6), behind one [`FusionMethod`] trait:
//!
//! | Category | Methods |
//! |---|---|
//! | Baseline | [`methods::Vote`] |
//! | Web-link based | [`methods::Hub`], [`methods::AvgLog`], [`methods::Invest`], [`methods::PooledInvest`] |
//! | IR based | [`methods::Cosine`], [`methods::TwoEstimates`], [`methods::ThreeEstimates`] |
//! | Bayesian based | [`methods::TruthFinder`], [`methods::Accu`] (ACCUPR, POPACCU, ACCUSIM, ACCUFORMAT and their per-attribute variants) |
//! | Copying affected | [`methods::AccuCopy`] |
//!
//! All methods run over a [`FusionProblem`] prepared once from a
//! [`datamodel::Snapshot`] (tolerance-bucketed candidate values, similarity
//! and formatting relations, provider lists) and produce a [`FusionResult`]
//! (selected value per item, final trust estimates, rounds, wall time).
//!
//! The usual entry point is [`registry::all_methods`], which returns the
//! sixteen paper configurations in Table-7 order, or
//! [`registry::method_by_name`].

#![deny(missing_docs)]

pub mod copymatrix;
pub mod delta;
pub mod kernels;
pub mod methods;
pub mod problem;
pub mod registry;
pub mod types;

pub use copymatrix::CopyMatrix;
pub use delta::{AdvanceReport, DeltaEngine, RunReport};
pub use methods::FusionMethod;
pub use problem::{Candidate, FusionProblem, PreparedItem, ProblemBuilder};
pub use registry::{all_methods, method_by_name, MethodCategory};
pub use types::{
    AttrTrust, FusionOptions, FusionResult, FusionScratch, TrustEstimate, VotePlane,
};
