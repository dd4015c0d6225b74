//! Table 7 — precision of all sixteen data-fusion methods on one snapshot per
//! domain, with and without sampled source trustworthiness as input, together
//! with the trustworthiness deviation and difference.
//!
//! The sixteen methods are evaluated concurrently by [`evaluate_days`] (one
//! task per method on the reference day); the reported per-method times are
//! still each method's own execution time, so the table matches the
//! sequential runner's output row for row.

use bench::{ExpArgs, Table};
use datagen::GeneratedDomain;
use evaluation::evaluate_days;

/// The paper's Table-7 precisions (without input trust) for reference.
const PAPER_WITHOUT_TRUST: [(&str, f64, f64); 16] = [
    ("Vote", 0.908, 0.864),
    ("Hub", 0.907, 0.857),
    ("AvgLog", 0.899, 0.839),
    ("Invest", 0.764, 0.754),
    ("PooledInvest", 0.856, 0.921),
    ("2-Estimates", 0.903, 0.754),
    ("3-Estimates", 0.905, 0.708),
    ("Cosine", 0.900, 0.791),
    ("TruthFinder", 0.911, 0.793),
    ("AccuPr", 0.899, 0.868),
    ("PopAccu", 0.892, 0.925),
    ("AccuSim", 0.913, 0.844),
    ("AccuFormat", 0.911, 0.844),
    ("AccuSimAttr", 0.929, 0.833),
    ("AccuFormatAttr", 0.930, 0.833),
    ("AccuCopy", 0.892, 0.943),
];

fn paper_value(method: &str, flight: bool) -> String {
    PAPER_WITHOUT_TRUST
        .iter()
        .find(|(m, _, _)| *m == method)
        .map(|(_, s, f)| format!("{:.3}", if flight { *f } else { *s }))
        .unwrap_or_else(|| "-".to_string())
}

fn report(domain: &GeneratedDomain, flight: bool) {
    let reference = domain.collection.reference_day_index();
    let rows = evaluate_days(&domain.collection, &[reference], true)
        .pop()
        .expect("one day requested")
        .rows;

    let mut table = Table::new(
        format!("Table 7 ({}): precision of data-fusion methods", domain.config.domain),
        &[
            "category",
            "method",
            "prec w. trust",
            "prec w/o trust",
            "paper w/o",
            "trust dev",
            "trust diff",
            "time (s)",
        ],
    );
    for row in &rows {
        table.row(&[
            row.category.clone(),
            row.method.clone(),
            format!("{:.3}", row.precision_with_trust),
            format!("{:.3}", row.precision_without_trust),
            paper_value(&row.method, flight),
            format!("{:.2}", row.trust_deviation),
            format!("{:+.2}", row.trust_difference),
            format!("{:.2}", row.elapsed.as_secs_f64()),
        ]);
    }
    table.print();

    let best = rows
        .iter()
        .max_by(|a, b| {
            a.precision_without_trust
                .partial_cmp(&b.precision_without_trust)
                .unwrap()
        })
        .unwrap();
    let vote = rows.iter().find(|r| r.method == "Vote").unwrap();
    println!(
        "Best without trust: {} ({:.3}); VOTE: {:.3}; improvement {:+.1} points.\n",
        best.method,
        best.precision_without_trust,
        vote.precision_without_trust,
        (best.precision_without_trust - vote.precision_without_trust) * 100.0
    );
}

fn main() {
    let args = ExpArgs::from_env();
    let (stock, flight) = args.both_domains("Table 7");
    report(&stock, false);
    report(&flight, true);
    println!("Paper: AccuFormatAttr is best on Stock (.930), AccuCopy on Flight (.943);");
    println!("       with sampled trust as input AccuCopy is best on both (.958 / .960).");
}
