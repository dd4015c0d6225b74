//! Figure 8 — source accuracy: (a) distribution of source accuracy on the
//! reference snapshot, (b) accuracy deviation over the collection period,
//! (c) precision of dominant values over time. Also prints the headline
//! averages quoted in Section 3.3.
//!
//! The per-day measurements behind (b) and (c) are independent, so they are
//! fanned across CPU cores with rayon and merged afterwards — the same
//! numbers the sequential `accuracy_over_time` /
//! `dominant_precision_over_time` loops produce, day order preserved.

use bench::{format_percent, ExpArgs, Table};
use datagen::GeneratedDomain;
use datamodel::CollectionDay;
use profiling::{
    accuracy_histogram, accuracy_over_time_from_daily, dominance::dominant_value_precision,
    source_accuracies,
};
use rayon::prelude::*;

fn report(domain: &GeneratedDomain, paper_avg_accuracy: f64) {
    let name = &domain.config.domain;

    // One parallel pass over the days computes the per-source accuracies
    // behind Figures 8(a) and 8(b) and the dominant-value precision of
    // Figure 8(c); the reference day's accuracies are indexed out of the
    // per-day results rather than recomputed.
    let days: Vec<&CollectionDay> = domain.collection.days().collect();
    let per_day: Vec<(Vec<profiling::SourceAccuracy>, f64)> = days
        .into_par_iter()
        .map(|day| {
            (
                source_accuracies(&day.snapshot, &day.gold),
                dominant_value_precision(&day.snapshot, &day.gold),
            )
        })
        .collect();
    let (daily_accuracies, daily_dominant): (Vec<_>, Vec<f64>) = per_day.into_iter().unzip();
    let accuracies = &daily_accuracies[domain.collection.reference_day_index()];

    let hist = accuracy_histogram(accuracies);
    let mut table = Table::new(
        format!("Figure 8(a) ({name}): source-accuracy distribution"),
        &["accuracy bin", "fraction of sources"],
    );
    for (i, share) in hist.iter().enumerate() {
        table.row(&[
            format!("[{:.1}, {:.1})", i as f64 / 10.0, (i + 1) as f64 / 10.0),
            format_percent(*share),
        ]);
    }
    table.print();

    let values: Vec<f64> = accuracies.iter().filter_map(|a| a.accuracy).collect();
    println!(
        "Mean source accuracy ({name}): {:.2} (paper {:.2})",
        datamodel::mean(&values),
        paper_avg_accuracy
    );

    let over_time = accuracy_over_time_from_daily(daily_accuracies);
    let deviations: Vec<f64> = over_time.iter().map(|s| s.accuracy_deviation).collect();
    let steady = deviations.iter().filter(|d| **d < 0.05).count();
    println!(
        "Figure 8(b) ({name}): mean accuracy deviation {:.3} (paper ~0.05-0.06); {} of {} sources below 0.05",
        datamodel::mean(&deviations),
        steady,
        deviations.len()
    );

    let line: Vec<String> = daily_dominant.iter().map(|p| format!("{p:.3}")).collect();
    println!(
        "Figure 8(c) ({name}): precision of dominant values per day: {}",
        line.join(" ")
    );
    println!();
}

fn main() {
    let args = ExpArgs::from_env();
    let (stock, flight) = args.both_domains("Figure 8");
    report(&stock, 0.86);
    report(&flight, 0.80);
}
