//! Typed attribute values with normalization, similarity, and formatting.
//!
//! The paper (Section 2.1) distinguishes heterogeneity at the *value level*:
//! a provided value may be exactly the true value, a close/differently
//! formatted representation of it, or plainly wrong. This module models:
//!
//! * [`Value`] — a normalized value: a floating-point number, a time in
//!   minutes, or free text;
//! * [`Granularity`] — the rounding unit a source used to format a numeric
//!   value (e.g. "6.7M" has a granularity of 100 000), used by the
//!   `AccuFormat` family of fusion methods;
//! * similarity between values (used by `TruthFinder` / `AccuSim`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of an attribute value. Drives tolerance, similarity, and deviation
/// computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueKind {
    /// Real-valued numeric data (prices, volumes, percentages...).
    Number,
    /// Time-of-day / timestamp data measured in minutes.
    Time,
    /// Categorical or free-text data (gate numbers, names...).
    Text,
}

/// Rounding granularity of a formatted numeric value.
///
/// A source that reports `"76M"` is treated as providing the value
/// `76_000_000` at granularity `1_000_000`: it is a *partial* provider of any
/// finer-grained value that rounds to the same number (paper, Section 4.1,
/// "Formatting of values").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Granularity(pub f64);

impl Granularity {
    /// Exact values: no rounding was applied by the source.
    pub const EXACT: Granularity = Granularity(0.0);

    /// Whether this granularity denotes an exact (non-rounded) value.
    #[inline]
    pub fn is_exact(self) -> bool {
        self.0 <= 0.0
    }

    /// Round `x` to this granularity.
    #[inline]
    pub fn round(self, x: f64) -> f64 {
        if self.is_exact() {
            x
        } else {
            (x / self.0).round() * self.0
        }
    }

    /// True when `self` is a coarser (larger rounding unit) granularity than `other`.
    #[inline]
    pub fn coarser_than(self, other: Granularity) -> bool {
        if self.is_exact() {
            false
        } else if other.is_exact() {
            true
        } else {
            self.0 > other.0
        }
    }
}

impl Default for Granularity {
    fn default() -> Self {
        Granularity::EXACT
    }
}

/// A normalized attribute value provided by a source (or recorded as truth).
///
/// Values are stored *after* the normalization step the paper applies
/// manually ("6.7M", "6,700,000", and "6700000" are considered as the same
/// value): numeric strings become [`Value::Number`], times become minutes in
/// [`Value::Time`], everything else is trimmed, lower-cased [`Value::Text`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A numeric value together with the granularity the source formatted it at.
    Number {
        /// The (possibly rounded) numeric value.
        value: f64,
        /// The rounding unit the source applied; `Granularity::EXACT` if none.
        granularity: Granularity,
    },
    /// A time value in minutes (since midnight for times of day, or since an
    /// arbitrary epoch for timestamps — only differences matter).
    Time(i64),
    /// Normalized free text.
    Text(String),
}

impl Value {
    /// An exact (non-rounded) numeric value.
    pub fn number(value: f64) -> Self {
        Value::Number {
            value,
            granularity: Granularity::EXACT,
        }
    }

    /// A numeric value the source rounded to `granularity`.
    pub fn rounded_number(value: f64, granularity: f64) -> Self {
        let g = Granularity(granularity);
        Value::Number {
            value: g.round(value),
            granularity: g,
        }
    }

    /// A time value in minutes.
    pub fn time(minutes: i64) -> Self {
        Value::Time(minutes)
    }

    /// A text value; normalizes by trimming and lower-casing, and collapsing
    /// internal whitespace runs to single spaces.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(normalize_text(s.as_ref()))
    }

    /// The kind of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Number { .. } => ValueKind::Number,
            Value::Time(_) => ValueKind::Time,
            Value::Text(_) => ValueKind::Text,
        }
    }

    /// Whether the value can be fused: a number's value and granularity must
    /// both be finite (`NaN`, `±inf` and overflowing literals are not
    /// values); times and text always are. Both ingest boundaries — the CSV
    /// reader and the service's `apply` — reject a value that fails this.
    #[inline]
    pub fn is_finite(&self) -> bool {
        match self {
            Value::Number { value, granularity } => {
                value.is_finite() && granularity.0.is_finite()
            }
            Value::Time(_) | Value::Text(_) => true,
        }
    }

    /// Numeric view of the value, when one exists (numbers and times).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number { value, .. } => Some(*value),
            Value::Time(m) => Some(*m as f64),
            Value::Text(_) => None,
        }
    }

    /// Granularity of a numeric value (`EXACT` for times and text).
    pub fn granularity(&self) -> Granularity {
        match self {
            Value::Number { granularity, .. } => *granularity,
            _ => Granularity::EXACT,
        }
    }

    /// Whether this value, interpreted as a coarse/rounded representation,
    /// *subsumes* `finer` — i.e. rounding `finer` at this value's granularity
    /// yields this value (within a small epsilon).
    ///
    /// Used by the `AccuFormat` methods: the provider of `"8M"` is treated as
    /// a partial provider of `7,528,396` only when the coarse value is what
    /// the fine value rounds to, which is *not* the case here (it rounds to
    /// 8M only when granularity is 1M and the fine value is within 0.5M).
    pub fn subsumes(&self, finer: &Value) -> bool {
        match (self, finer) {
            (
                Value::Number {
                    value: coarse,
                    granularity: g,
                },
                Value::Number {
                    value: fine,
                    granularity: gf,
                },
            ) => {
                if g.is_exact() || !g.coarser_than(*gf) {
                    return false;
                }
                let rounded = g.round(*fine);
                relative_close(rounded, *coarse, 1e-9)
            }
            _ => false,
        }
    }

    /// Similarity in `[0, 1]` between two values of the same kind.
    ///
    /// * numbers: `exp(-|a-b| / scale)` where `scale` is the provided
    ///   per-attribute scale (typically the tolerance of Equation 3);
    /// * times: `exp(-|a-b| / scale)` with `scale` in minutes;
    /// * text: Jaccard similarity over character trigrams (1.0 for equal
    ///   strings).
    ///
    /// Values of different kinds have similarity 0.
    pub fn similarity(&self, other: &Value, scale: f64) -> f64 {
        let scale = if scale > 0.0 { scale } else { 1.0 };
        match (self, other) {
            (Value::Number { value: a, .. }, Value::Number { value: b, .. }) => {
                (-((a - b).abs() / scale)).exp()
            }
            (Value::Time(a), Value::Time(b)) => {
                (-(((*a - *b).abs() as f64) / scale)).exp()
            }
            (Value::Text(a), Value::Text(b)) => text_similarity(a, b),
            _ => 0.0,
        }
    }

    /// Tolerance-aware equality: numbers match within `tolerance` (absolute),
    /// times match within `tolerance` minutes, text matches exactly after
    /// normalization.
    pub fn matches(&self, other: &Value, tolerance: f64) -> bool {
        match (self, other) {
            (Value::Number { value: a, .. }, Value::Number { value: b, .. }) => {
                (a - b).abs() <= tolerance
            }
            (Value::Time(a), Value::Time(b)) => ((a - b).abs() as f64) <= tolerance,
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number { value, granularity } => {
                if granularity.is_exact() {
                    write!(f, "{value}")
                } else {
                    write!(f, "{value}~{}", granularity.0)
                }
            }
            Value::Time(m) => write!(f, "t{m}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

/// Normalize free text: trim, lower-case, collapse whitespace.
pub fn normalize_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.trim().chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
                last_space = true;
            }
        } else {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Character-trigram Jaccard similarity between two normalized strings.
fn text_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let grams = |s: &str| -> Vec<[char; 3]> {
        let chars: Vec<char> = s.chars().collect();
        if chars.len() < 3 {
            return vec![[
                chars[0],
                *chars.get(1).unwrap_or(&'\0'),
                '\0',
            ]];
        }
        chars.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
    };
    let ga = grams(a);
    let gb = grams(b);
    let mut inter = 0usize;
    let mut gb_used = vec![false; gb.len()];
    for g in &ga {
        if let Some(pos) = gb
            .iter()
            .enumerate()
            .position(|(i, h)| !gb_used[i] && h == g)
        {
            gb_used[pos] = true;
            inter += 1;
        }
    }
    let union = ga.len() + gb.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[inline]
fn relative_close(a: f64, b: f64, eps: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= eps * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_constructors() {
        let v = Value::number(6_700_000.0);
        assert_eq!(v.kind(), ValueKind::Number);
        assert_eq!(v.as_f64(), Some(6_700_000.0));
        assert!(v.granularity().is_exact());

        let r = Value::rounded_number(6_712_345.0, 100_000.0);
        assert_eq!(r.as_f64(), Some(6_700_000.0));
        assert!(!r.granularity().is_exact());
    }

    #[test]
    fn granularity_rounding() {
        let g = Granularity(1_000_000.0);
        assert_eq!(g.round(7_528_396.0), 8_000_000.0);
        assert_eq!(g.round(7_400_000.0), 7_000_000.0);
        assert!(g.coarser_than(Granularity(1000.0)));
        assert!(!Granularity::EXACT.coarser_than(g));
        assert!(g.coarser_than(Granularity::EXACT));
    }

    #[test]
    fn subsumption_follows_paper_example() {
        // A source that rounds to millions and provides "8M" subsumes 7,528,396.
        let coarse = Value::rounded_number(8_000_000.0, 1_000_000.0);
        let fine = Value::number(7_528_396.0);
        assert!(coarse.subsumes(&fine));
        // ...but "7M" does not.
        let wrong = Value::rounded_number(7_000_000.0, 1_000_000.0);
        assert!(!wrong.subsumes(&fine));
        // An exact value never subsumes anything.
        assert!(!fine.subsumes(&coarse));
    }

    #[test]
    fn matching_with_tolerance() {
        let a = Value::number(100.0);
        let b = Value::number(100.9);
        assert!(a.matches(&b, 1.0));
        assert!(!a.matches(&b, 0.5));

        let t1 = Value::time(600);
        let t2 = Value::time(609);
        assert!(t1.matches(&t2, 10.0));
        assert!(!t1.matches(&t2, 5.0));

        let s1 = Value::text("Gate B12");
        let s2 = Value::text("  gate   b12 ");
        assert!(s1.matches(&s2, 0.0));
    }

    #[test]
    fn kind_mismatch_never_matches() {
        assert!(!Value::number(600.0).matches(&Value::time(600), 1e9));
        assert!(!Value::text("600").matches(&Value::number(600.0), 1e9));
    }

    #[test]
    fn similarity_properties() {
        let a = Value::number(100.0);
        let b = Value::number(101.0);
        let c = Value::number(150.0);
        let sab = a.similarity(&b, 10.0);
        let sac = a.similarity(&c, 10.0);
        assert!(sab > sac);
        assert!((a.similarity(&a, 10.0) - 1.0).abs() < 1e-12);
        assert!(sab > 0.0 && sab < 1.0);

        let t = Value::text("gate b12");
        let u = Value::text("gate b14");
        let v = Value::text("terminal 4");
        assert!(t.similarity(&u, 1.0) > t.similarity(&v, 1.0));
        assert_eq!(t.similarity(&a, 1.0), 0.0);
    }

    #[test]
    fn text_normalization() {
        assert_eq!(normalize_text("  Hello   World "), "hello world");
        assert_eq!(normalize_text(""), "");
        assert_eq!(normalize_text("A"), "a");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::number(3.5).to_string(), "3.5");
        assert_eq!(Value::time(120).to_string(), "t120");
        assert_eq!(Value::text("NASDAQ").to_string(), "nasdaq");
    }
}
