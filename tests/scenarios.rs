//! Golden-metrics regression suite over the named adversarial scenarios.
//!
//! Each test builds its scenario world at the golden seed
//! (`datagen::scenario::GOLDEN_SEED`), renders the per-method
//! precision / copy-detection table, and asserts it matches the checked-in
//! file under `tests/golden/` **bit for bit** — any change to the generator,
//! a fusion method, or the copy detector that moves a single metric fails
//! loudly here. The tables are regenerated with:
//!
//! ```text
//! cargo run --release --bin exp_scenarios -- --bless
//! ```
//!
//! after which the diff of `tests/golden/*.txt` documents the behaviour
//! change in review. The rendering uses fixed `{:.6}` formatting and fusion
//! is deterministic at any pool size, so the same tables hold in debug and
//! release runs and at any `RAYON_NUM_THREADS` (CI pins 1 and 2).

use datagen::scenario::by_name;
use evaluation::{evaluate_scenario_day, render_golden_table};

/// Build `name`'s golden world, render its table, and compare against the
/// checked-in golden text, printing a line-level diff on mismatch.
fn assert_matches_golden(name: &str, golden: &str) {
    let scenario = by_name(name).unwrap_or_else(|| panic!("unknown scenario {name:?}"));
    let world = scenario.build();
    let day = world.domain.collection.reference_day();
    let outcome = evaluate_scenario_day(name, &day.snapshot, &day.truth, &world.true_edges);
    let table = render_golden_table(&outcome);
    if table == golden {
        return;
    }
    let mut diff = String::new();
    for (line_no, (got, want)) in table.lines().zip(golden.lines()).enumerate() {
        if got != want {
            diff.push_str(&format!(
                "  line {}:\n    golden: {want}\n    fresh:  {got}\n",
                line_no + 1
            ));
        }
    }
    if table.lines().count() != golden.lines().count() {
        diff.push_str(&format!(
            "  line counts differ: golden {}, fresh {}\n",
            golden.lines().count(),
            table.lines().count()
        ));
    }
    panic!(
        "scenario {name:?} diverged from tests/golden/{name}.txt:\n{diff}\
         If the change is intentional, regenerate the tables with:\n  \
         cargo run --release --bin exp_scenarios -- --bless"
    );
}

#[test]
fn golden_copier_ring() {
    assert_matches_golden("copier_ring", include_str!("golden/copier_ring.txt"));
}

#[test]
fn golden_zipf_coverage() {
    assert_matches_golden("zipf_coverage", include_str!("golden/zipf_coverage.txt"));
}

#[test]
fn golden_quality_flip() {
    assert_matches_golden("quality_flip", include_str!("golden/quality_flip.txt"));
}

#[test]
fn golden_format_drift() {
    assert_matches_golden("format_drift", include_str!("golden/format_drift.txt"));
}

#[test]
fn golden_scale10_capacity() {
    assert_matches_golden("scale10_capacity", include_str!("golden/scale10_capacity.txt"));
}

#[test]
fn golden_kitchen_sink() {
    assert_matches_golden("kitchen_sink", include_str!("golden/kitchen_sink.txt"));
}

/// The checked-in files cover exactly the scenario registry — a new named
/// scenario without a golden table (or a stale file for a removed one) fails
/// here rather than going silently untested.
#[test]
fn golden_files_cover_the_registry() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = datagen::scenario::SCENARIO_NAMES
        .iter()
        .map(|n| n.to_string())
        .collect();
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "tests/golden/*.txt must match datagen::scenario::SCENARIO_NAMES"
    );
}
