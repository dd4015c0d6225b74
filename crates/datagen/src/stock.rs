//! Paper-calibrated configuration of the Stock domain.
//!
//! Reproduces the collection described in Section 2.2 of the paper: 55
//! sources, 1000 symbols, every weekday of July 2011 (21 snapshots), the 16
//! attributes of Table 2, five authoritative sources with the accuracies of
//! Table 4, one source that stopped refreshing its data (StockSmart), and the
//! two copy groups of Table 5 (11 sources derived from Financial Content with
//! accuracy ≈ .92, and a merged pair with accuracy ≈ .75).

use crate::config::{AttrSpec, DomainConfig, ErrorMix, GoldMode, GoldSpec, SourceSpec};
use datamodel::AttrKind;

/// Number of sources in the Stock collection.
pub const STOCK_SOURCES: usize = 55;
/// Number of stock symbols.
pub const STOCK_OBJECTS: u32 = 1000;
/// Number of weekday snapshots in July 2011.
pub const STOCK_DAYS: u32 = 21;

fn numeric(
    name: &str,
    scale: f64,
    statistical: bool,
    variant: f64,
    adoption: f64,
    drift: f64,
) -> AttrSpec {
    AttrSpec {
        name: name.to_string(),
        kind: AttrKind::Numeric { scale },
        statistical,
        variant_factor: variant,
        variant_adoption: adoption,
        drift,
    }
}

/// The 16 considered attributes of Table 2, with scales, semantics-variant
/// factors (how far a source using a different definition lands from the
/// truth), variant adoption rates (how widely the alternative semantics are
/// used — high for Dividend and P/E, which the paper singles out as the most
/// ambiguous attributes), and day-to-day drift (real-time attributes change
/// daily, while statistical ones move slowly).
pub fn stock_attributes() -> Vec<AttrSpec> {
    vec![
        numeric("Last price", 100.0, false, 1.0, 0.0, 0.02),
        numeric("Open price", 100.0, false, 1.0, 0.0, 0.02),
        numeric("Today's change (%)", 2.0, false, 1.0, 0.0, 0.30),
        numeric("Today's change ($)", 2.0, false, 1.0, 0.0, 0.30),
        numeric("Market cap", 5e9, true, 1.06, 0.12, 0.02),
        numeric("Volume", 5e6, true, 1.25, 0.15, 0.35),
        numeric("Today's high price", 102.0, false, 1.0, 0.0, 0.02),
        numeric("Today's low price", 98.0, false, 1.0, 0.0, 0.02),
        numeric("Dividend", 1.5, true, 4.0, 0.36, 0.002),
        numeric("Yield", 2.5, true, 2.0, 0.22, 0.005),
        numeric("52-week high price", 120.0, true, 1.08, 0.12, 0.002),
        numeric("52-week low price", 80.0, true, 0.90, 0.18, 0.002),
        numeric("EPS", 4.0, true, 1.33, 0.15, 0.002),
        numeric("P/E", 18.0, true, 0.75, 0.33, 0.01),
        numeric("Shares outstanding", 2e8, true, 1.03, 0.08, 0.001),
        numeric("Previous close", 100.0, false, 1.0, 0.0, 0.02),
    ]
}

/// Build the full Stock-domain configuration for the given master seed.
pub fn stock_config(seed: u64) -> DomainConfig {
    let mut sources = Vec::with_capacity(STOCK_SOURCES);

    // Five authoritative sources (Table 4). Bloomberg's lower accuracy stems
    // from divergent semantics on statistical attributes, which the error mix
    // will realize as semantics ambiguity.
    sources.push(
        SourceSpec::independent("Google Finance", 0.94, 0.97)
            .authority()
            .with_attr_coverage(0.84),
    );
    sources.push(
        SourceSpec::independent("Yahoo! Finance", 0.93, 0.97)
            .authority()
            .with_attr_coverage(0.83),
    );
    sources.push(
        SourceSpec::independent("NASDAQ", 0.92, 0.98)
            .authority()
            .with_attr_coverage(0.86),
    );
    sources.push(
        SourceSpec::independent("MSN Money", 0.91, 0.98)
            .authority()
            .with_attr_coverage(0.91),
    );
    sources.push(
        SourceSpec::independent("Bloomberg", 0.83, 0.96)
            .authority()
            .with_attr_coverage(0.83),
    );

    // The source that stopped refreshing its data (paper: StockSmart,
    // accuracy .06). Its claims are dominated by stale and plainly wrong
    // values: the generator approximates it with a low base accuracy plus
    // 30-day staleness, so its measured accuracy (`exp_fig8_accuracy`, see
    // the README's "Reproducing the paper's tables and figures") is near,
    // not pinned to, the paper's.
    sources.push(
        SourceSpec::independent("StockSmart", 0.10, 0.95)
            .with_attr_coverage(0.75)
            .with_staleness_days(30),
    );

    // Copy group 1 (Table 5): Financial Content and 10 sites deriving their
    // data from it — 11 sources, accuracy ≈ .92, identical schema and data.
    let financial_content_index = sources.len();
    sources.push(
        SourceSpec::independent("Financial Content", 0.92, 0.99).with_attr_coverage(0.80),
    );
    for i in 0..10 {
        sources.push(
            SourceSpec::independent(format!("FC Mirror {}", i + 1), 0.92, 0.99)
                .with_attr_coverage(0.80)
                .copying(financial_content_index, 0.99),
        );
    }

    // Copy group 2 (Table 5): two merged websites, accuracy ≈ .75.
    let merged_index = sources.len();
    sources.push(SourceSpec::independent("MergedQuotes A", 0.75, 0.96).with_attr_coverage(0.70));
    sources.push(
        SourceSpec::independent("MergedQuotes B", 0.75, 0.96)
            .with_attr_coverage(0.70)
            .copying(merged_index, 0.995),
    );

    // Remaining independent sources: accuracies spread over the paper's
    // observed range (.54 – .97, mean ≈ .86), with varying attribute coverage
    // (driving the Zipf-like item redundancy) and occasional rounding habits.
    let remaining = STOCK_SOURCES - sources.len();
    for i in 0..remaining {
        let frac = i as f64 / (remaining.saturating_sub(1).max(1)) as f64;
        // Accuracy sweeps from .97 down to .54, denser near the top so the
        // mean lands near .86.
        let accuracy = 0.97 - 0.43 * frac * frac;
        let object_coverage = 0.92 + 0.08 * ((i * 7) % 10) as f64 / 10.0;
        let attr_coverage = 0.40 + 0.60 * (((i * 13) % 17) as f64 / 16.0);
        let rounding = if i % 6 == 5 { 2e-3 } else { 0.0 };
        sources.push(
            SourceSpec::independent(format!("StockSite {:02}", i + 1), accuracy, object_coverage)
                .with_attr_coverage(attr_coverage)
                .with_rounding(rounding),
        );
    }

    DomainConfig {
        domain: "stock".to_string(),
        seed,
        num_objects: STOCK_OBJECTS,
        num_days: STOCK_DAYS,
        attributes: stock_attributes(),
        total_global_attributes: 153,
        total_local_attributes: 333,
        sources,
        error_mix: ErrorMix::stock(),
        gold: GoldSpec {
            mode: GoldMode::AuthorityVoting,
            num_gold_objects: 200,
            min_providers: 3,
        },
        ambiguous_object_fraction: 0.01,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_parameters() {
        let cfg = stock_config(1);
        assert_eq!(cfg.num_sources(), STOCK_SOURCES);
        assert_eq!(cfg.num_objects, STOCK_OBJECTS);
        assert_eq!(cfg.num_days, STOCK_DAYS);
        assert_eq!(cfg.num_attributes(), 16);
        assert_eq!(cfg.total_global_attributes, 153);
        assert_eq!(cfg.gold.num_gold_objects, 200);
    }

    #[test]
    fn authority_and_copy_structure() {
        let cfg = stock_config(1);
        let authorities = cfg.sources.iter().filter(|s| s.authority).count();
        assert_eq!(authorities, 5);
        let copiers = cfg.sources.iter().filter(|s| s.copies_from.is_some()).count();
        // 10 Financial Content mirrors + 1 merged copier.
        assert_eq!(copiers, 11);
    }

    #[test]
    fn accuracy_band_matches_paper() {
        let cfg = stock_config(1);
        let accuracies: Vec<f64> = cfg
            .sources
            .iter()
            .filter(|s| s.name != "StockSmart")
            .map(|s| s.accuracy)
            .collect();
        let mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
        assert!(mean > 0.82 && mean < 0.92, "mean accuracy {mean}");
        assert!(accuracies.iter().cloned().fold(f64::INFINITY, f64::min) >= 0.54);
        assert!(accuracies.iter().cloned().fold(0.0, f64::max) <= 0.97);
    }

    #[test]
    fn statistical_attributes_are_marked() {
        let attrs = stock_attributes();
        let statistical = attrs.iter().filter(|a| a.statistical).count();
        assert!(statistical >= 8);
        assert!(attrs.iter().any(|a| a.name == "Volume" && a.statistical));
        assert!(attrs.iter().any(|a| a.name == "Last price" && !a.statistical));
    }
}
