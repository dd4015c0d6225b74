//! Ablation study of the generator and method design choices (the
//! `exp_ablation` row of the README's "Reproducing the paper's tables and
//! figures"):
//!
//! 1. the tolerance factor α of Equation 3 (how forgiving value matching is),
//! 2. the `n` false-value assumption of the ACCU family,
//! 3. the similarity weight ρ of ACCUSIM,
//! 4. re-detecting copying every round vs. using the known copy groups
//!    (ACCUCOPY).
//!
//! None of these are separate tables in the paper, but they are the knobs the
//! paper's Section-5 discussion turns on (tolerance/bucketing, the uniform
//! false-value assumption that POPACCU removes, value similarity, and the
//! cost/robustness of copy detection).

use bench::{ExpArgs, Table};
use copydetect::known_copying;
use datagen::generate;
use datamodel::TolerancePolicy;
use evaluation::{precision_recall, EvaluationContext};
use fusion::methods::{Accu, AccuCopy};
use fusion::{FusionMethod, FusionOptions, FusionProblem, FusionScratch};

fn main() {
    let args = ExpArgs::from_env();
    println!(
        "[Ablations] scale={} days={} seed={}\n",
        args.scale, args.days, args.seed
    );

    tolerance_ablation(&args);
    accu_parameter_ablation(&args);
    copy_knowledge_ablation(&args);
}

/// Ablation 1 — tolerance factor α: stricter matching inflates the apparent
/// inconsistency and deflates dominant-value precision.
fn tolerance_ablation(args: &ExpArgs) {
    let mut table = Table::new(
        "Ablation 1: tolerance factor α (stock)",
        &["alpha", "conflicting items", "mean #values", "dominant precision"],
    );
    for alpha in [0.0, 0.001, 0.01, 0.05] {
        let mut config = datagen::stock_config(args.seed).scaled(args.scale, args.days);
        // Regenerate, then re-bucket the reference snapshot under the ablated
        // tolerance policy by rebuilding it from its own observations.
        config.seed = args.seed;
        let domain = generate(&config);
        let day = domain.collection.reference_day();
        let policy = TolerancePolicy {
            alpha,
            ..TolerancePolicy::default()
        };
        let rebuilt = rebuild_with_policy(&day.snapshot, policy);
        let inconsistency = profiling::snapshot_inconsistency(&rebuilt);
        let precision = profiling::dominant_value_precision(&rebuilt, &day.gold);
        table.row(&[
            format!("{alpha}"),
            format!("{:.1}%", inconsistency.fraction_conflicting * 100.0),
            format!("{:.2}", inconsistency.mean_num_values),
            format!("{precision:.3}"),
        ]);
    }
    table.print();
}

fn rebuild_with_policy(
    snapshot: &datamodel::Snapshot,
    policy: TolerancePolicy,
) -> datamodel::Snapshot {
    let mut builder = datamodel::SnapshotBuilder::new(snapshot.day()).with_policy(policy);
    for (item, obs) in snapshot.items() {
        for o in obs {
            builder.add(o.source, item.object, item.attr, o.value.clone());
        }
    }
    builder.build(snapshot.schema_arc())
}

/// 2./3. ACCU family parameters: the assumed number of false values and the
/// similarity weight.
fn accu_parameter_ablation(args: &ExpArgs) {
    let domain = generate(&datagen::stock_config(args.seed).scaled(args.scale, args.days));
    let day = domain.collection.reference_day();
    let context = EvaluationContext::new(&day.snapshot, &day.gold);

    let mut table = Table::new(
        "Ablation 2: ACCUSIM parameters (stock)",
        &["n false values", "similarity weight", "precision"],
    );
    // Reuse one scratch arena across the 9 configurations instead of
    // reallocating per run; results must not depend on the entry point.
    let mut scratch = FusionScratch::new();
    let mut checked = false;
    for n in [2.0, 10.0, 100.0] {
        for rho in [0.0, 0.5, 1.0] {
            let method = Accu {
                n_false_values: n,
                rho,
                ..Accu::accusim()
            };
            let result =
                method.run_with_scratch(&context.problem, &FusionOptions::standard(), &mut scratch);
            if !checked {
                checked = true;
                debug_assert_eq!(
                    result.selection,
                    method.run(&context.problem, &FusionOptions::standard()).selection,
                    "scratch-backed AccuSim must match the plain run"
                );
            }
            let pr = precision_recall(&day.snapshot, &day.gold, &result);
            table.row(&[
                format!("{n}"),
                format!("{rho}"),
                format!("{:.3}", pr.precision),
            ]);
        }
    }
    table.print();
}

/// 4. ACCUCOPY with detected vs. known copying (flight).
fn copy_knowledge_ablation(args: &ExpArgs) {
    let domain = generate(&datagen::flight_config(args.seed).scaled(args.scale, args.days));
    let day = domain.collection.reference_day();
    let problem = FusionProblem::from_snapshot(&day.snapshot);
    let mut table = Table::new(
        "Ablation 3: AccuCopy copy knowledge (flight)",
        &["copy knowledge", "precision", "time (s)"],
    );

    // All three variants share one scratch arena; the selections must be
    // identical to the plain `run` path (asserted on the cheapest variant).
    let mut scratch = FusionScratch::new();
    let detected =
        AccuCopy::default().run_with_scratch(&problem, &FusionOptions::standard(), &mut scratch);
    let pr = precision_recall(&day.snapshot, &day.gold, &detected);
    table.row(&[
        "re-detected every round".to_string(),
        format!("{:.3}", pr.precision),
        format!("{:.2}", detected.elapsed.as_secs_f64()),
    ]);

    let oracle = known_copying(day.snapshot.schema());
    let dense = evaluation::copy_report_to_dense(&oracle, &problem);
    let with_known = AccuCopy::default().run_with_scratch(
        &problem,
        &FusionOptions::standard().with_known_copying(dense),
        &mut scratch,
    );
    let pr_known = precision_recall(&day.snapshot, &day.gold, &with_known);
    table.row(&[
        "known copy groups (Table 5)".to_string(),
        format!("{:.3}", pr_known.precision),
        format!("{:.2}", with_known.elapsed.as_secs_f64()),
    ]);

    let oblivious =
        Accu::accuformat().run_with_scratch(&problem, &FusionOptions::standard(), &mut scratch);
    debug_assert_eq!(
        oblivious.selection,
        Accu::accuformat().run(&problem, &FusionOptions::standard()).selection,
        "scratch-backed AccuFormat must match the plain run"
    );
    let pr_obl = precision_recall(&day.snapshot, &day.gold, &oblivious);
    table.row(&[
        "ignored (AccuFormat)".to_string(),
        format!("{:.3}", pr_obl.precision),
        format!("{:.2}", oblivious.elapsed.as_secs_f64()),
    ]);
    table.print();
}
