//! The fusion methods themselves.
//!
//! Every method implements [`FusionMethod`]; see the crate docs for the
//! mapping to the paper's Table 6. All methods follow the same iterative
//! scheme — compute value votes from source trust, select values, recompute
//! trust — and differ in the vote and trust equations.

mod bayesian;
mod copyaware;
mod ir;
#[cfg(test)]
mod reference;
mod vote;
mod weblink;

pub use bayesian::{Accu, AccuVariant, TruthFinder};
pub use copyaware::{detect_copying, AccuCopy, CoClaims};
pub use ir::{Cosine, ThreeEstimates, TwoEstimates};
pub use vote::Vote;
pub use weblink::{AvgLog, Hub, Invest, PooledInvest};

use crate::problem::FusionProblem;
use crate::types::{FusionOptions, FusionResult, FusionScratch};

/// A data-fusion (truth-discovery) method.
pub trait FusionMethod: Send + Sync {
    /// The method name as used in the paper's tables (e.g. `"AccuCopy"`).
    fn name(&self) -> String;

    /// Run the method over a prepared problem, using `scratch` for every
    /// reusable buffer the rounds need. Each buffer is re-shaped for
    /// `problem` before its first read, so the same scratch can be handed
    /// across methods, runs, and differently-shaped problems: the result is
    /// bit-identical to a run with a fresh scratch (the batch-equivalence
    /// suites pin this).
    fn run_with_scratch(
        &self,
        problem: &FusionProblem,
        options: &FusionOptions,
        scratch: &mut FusionScratch,
    ) -> FusionResult;

    /// Run the method over a prepared problem with a throwaway scratch.
    /// Callers fusing many snapshots should hold one [`FusionScratch`] and
    /// use [`run_with_scratch`](Self::run_with_scratch) instead.
    fn run(&self, problem: &FusionProblem, options: &FusionOptions) -> FusionResult {
        self.run_with_scratch(problem, options, &mut FusionScratch::new())
    }
}

/// Initial trust for iterative methods: the supplied input trust when
/// present, otherwise a uniform default.
pub(crate) fn initial_trust(
    problem: &FusionProblem,
    options: &FusionOptions,
    default: f64,
) -> crate::types::TrustEstimate {
    let mut trust = crate::types::TrustEstimate::uniform(
        problem.num_sources(),
        problem.num_attrs,
        default,
        options.per_attribute_trust,
    );
    if let Some(input) = &options.input_trust {
        for (i, t) in input.iter().enumerate().take(problem.num_sources()) {
            trust.overall[i] = *t;
            if let Some(pa) = trust.per_attr.as_mut() {
                for slot in pa.row_mut(i) {
                    *slot = *t;
                }
            }
        }
    }
    trust
}

/// Number of iterative rounds to run: one (vote-and-select) when sampled
/// trust is supplied as input, the configured maximum otherwise.
pub(crate) fn effective_rounds(options: &FusionOptions) -> usize {
    if options.input_trust.is_some() {
        1
    } else {
        options.rounds()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Small hand-checkable fixtures shared by the per-method tests.

    use datamodel::{AttrId, AttrKind, DomainSchema, ObjectId, Snapshot, SnapshotBuilder, SourceId, Value};
    use std::sync::Arc;

    /// Three-source snapshot where the majority is right on item 0 and wrong
    /// on item 1, but the minority source is always right — methods that
    /// weigh source trust can beat VOTE on it.
    ///
    /// * item 0 (object 0): truth 10.0 — s0 and s1 provide 10.0, s2 provides 20.0
    /// * item 1 (object 1): truth 30.0 — s0 provides 30.0, s1 and s2 provide 50.0
    /// * items 2-4 (objects 2-4): all three sources agree (30.0), giving the
    ///   good source extra support.
    pub fn trust_sensitive_snapshot() -> (Snapshot, datamodel::GoldStandard) {
        let mut schema = DomainSchema::new("test");
        schema.add_attribute("x", AttrKind::Numeric { scale: 10.0 }, false);
        for i in 0..3 {
            schema.add_source(format!("s{i}"), false);
        }
        let mut b = SnapshotBuilder::new(0);
        let a = AttrId(0);
        b.add(SourceId(0), ObjectId(0), a, Value::number(10.0));
        b.add(SourceId(1), ObjectId(0), a, Value::number(10.0));
        b.add(SourceId(2), ObjectId(0), a, Value::number(20.0));

        b.add(SourceId(0), ObjectId(1), a, Value::number(30.0));
        b.add(SourceId(1), ObjectId(1), a, Value::number(50.0));
        b.add(SourceId(2), ObjectId(1), a, Value::number(50.0));

        for obj in 2..5 {
            for s in 0..3 {
                b.add(SourceId(s), ObjectId(obj), a, Value::number(30.0));
            }
        }
        let snap = b.build(Arc::new(schema));
        let mut gold = datamodel::GoldStandard::new();
        gold.insert(datamodel::ItemId::new(ObjectId(0), a), Value::number(10.0));
        gold.insert(datamodel::ItemId::new(ObjectId(1), a), Value::number(30.0));
        for obj in 2..5 {
            gold.insert(datamodel::ItemId::new(ObjectId(obj), a), Value::number(30.0));
        }
        (snap, gold)
    }

    /// Five-source snapshot where source accuracy is learnable from many
    /// uncontested items, and one item ("object 14") where the majority is
    /// wrong: s1, s2, and s4 provide the same wrong value while s0 and s3
    /// provide the truth. VOTE fails on it; accuracy-aware methods recover it
    /// after learning that s2 (wrong on objects 0-9) and s1 (wrong on objects
    /// 10-13) are less reliable.
    pub fn learnable_accuracy_snapshot() -> (Snapshot, datamodel::GoldStandard) {
        let mut schema = DomainSchema::new("test");
        schema.add_attribute("x", AttrKind::Numeric { scale: 100.0 }, false);
        for i in 0..5 {
            schema.add_source(format!("s{i}"), false);
        }
        let mut b = SnapshotBuilder::new(0);
        let a = AttrId(0);
        let mut gold = datamodel::GoldStandard::new();
        for obj in 0..15u32 {
            let truth = 100.0 + 10.0 * obj as f64;
            gold.insert(datamodel::ItemId::new(ObjectId(obj), a), Value::number(truth));
            // s0 and s3 always provide the truth.
            b.add(SourceId(0), ObjectId(obj), a, Value::number(truth));
            b.add(SourceId(3), ObjectId(obj), a, Value::number(truth));
            // s1 is wrong on objects 10-13, s2 on objects 0-9, s4 only on the
            // special object 14 — where all three agree on the same wrong value.
            let wrong_shared = truth + 55.0;
            let s1_value = if obj == 14 {
                wrong_shared
            } else if (10..14).contains(&obj) {
                truth + 71.0
            } else {
                truth
            };
            let s2_value = if obj == 14 {
                wrong_shared
            } else if obj < 10 {
                truth - 43.0
            } else {
                truth
            };
            // s4 is wrong (in its own way) on objects 12-13, so its accuracy is
            // learnably imperfect before the special object is decided.
            let s4_value = if obj == 14 {
                wrong_shared
            } else if (12..14).contains(&obj) {
                truth + 29.0
            } else {
                truth
            };
            b.add(SourceId(1), ObjectId(obj), a, Value::number(s1_value));
            b.add(SourceId(2), ObjectId(obj), a, Value::number(s2_value));
            b.add(SourceId(4), ObjectId(obj), a, Value::number(s4_value));
        }
        (b.build(Arc::new(schema)), gold)
    }

    /// Precision of a fusion result against a gold standard.
    pub fn precision(
        result: &crate::types::FusionResult,
        snapshot: &Snapshot,
        gold: &datamodel::GoldStandard,
    ) -> f64 {
        let mut judged = 0usize;
        let mut correct = 0usize;
        for (item, value) in &result.selected {
            if let Some(ok) = gold.judge(snapshot, *item, value) {
                judged += 1;
                if ok {
                    correct += 1;
                }
            }
        }
        if judged == 0 {
            0.0
        } else {
            correct as f64 / judged as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{TrustEstimate, VotePlane};

    #[test]
    fn weighted_votes_use_trust() {
        let (snap, _) = testutil::trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let mut trust = TrustEstimate::uniform(3, 1, 1.0, false);
        trust.overall[2] = 0.0;
        let mut votes = VotePlane::for_problem(&problem);
        votes.accumulate_weighted_votes(&problem, &trust);
        assert_eq!(votes.num_items(), problem.num_items());
        // Item 0: candidate 10.0 has providers s0+s1 (trust 2.0), 20.0 has s2 (0.0).
        let item0 = problem
            .items()
            .position(|i| i.id().object == datamodel::ObjectId(0))
            .unwrap();
        assert_eq!(votes.get(item0, 0), 2.0);
        assert_eq!(votes.get(item0, 1), 0.0);
    }

    #[test]
    fn initial_trust_respects_input() {
        let (snap, _) = testutil::trust_sensitive_snapshot();
        let problem = FusionProblem::from_snapshot(&snap);
        let opts = FusionOptions::standard()
            .with_per_attribute_trust()
            .with_input_trust(vec![0.9, 0.5, 0.1]);
        let trust = initial_trust(&problem, &opts, 0.8);
        assert_eq!(trust.overall, vec![0.9, 0.5, 0.1]);
        // Input trust fills every per-attribute slot of its source.
        assert_eq!(trust.per_attr.as_ref().unwrap().of(0, 0), 0.9);
        assert_eq!(trust.per_attr.as_ref().unwrap().of(2, 0), 0.1);
        assert_eq!(effective_rounds(&opts), 1);
        assert_eq!(effective_rounds(&FusionOptions::standard()), 20);
    }
}
