//! Small statistics helpers shared across the workspace.
//!
//! These are the numeric primitives behind the paper's measurements: medians
//! for the tolerance of Equation 3, entropy for Equation 1, standard deviation
//! for source-accuracy stability (Section 3.3), and percentiles for reporting.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0.0 for slices with fewer than 2 elements.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median (average of the middle two for even lengths); 0.0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile in `[0, 100]` using nearest-rank on sorted data; 0.0 for empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

/// Shannon entropy (natural units of the paper's Equation 1 use log base 2 is
/// not specified; we use log2, the convention for "maximum entropy for two
/// values ... is 1" stated in Section 3.2) of a discrete distribution given as
/// counts. Zero counts are ignored; returns 0.0 if fewer than two non-zero
/// counts remain.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    let mut e = 0.0;
    for &c in counts {
        if c == 0 {
            continue;
        }
        let p = c as f64 / total;
        e -= p * p.log2();
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        let sd = stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((sd - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_ignores_nan() {
        assert_eq!(median(&[f64::NAN, 1.0, 3.0]), 2.0);
    }

    #[test]
    fn percentile_bounds() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn entropy_known_values() {
        // Uniform over two values -> 1 bit (the paper's stated maximum for two values).
        assert!((entropy(&[5, 5]) - 1.0).abs() < 1e-12);
        // Single value -> 0.
        assert_eq!(entropy(&[10]), 0.0);
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[0, 0]), 0.0);
        // Uniform over four values -> 2 bits.
        assert!((entropy(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        // Skewed distributions have lower entropy than uniform ones.
        assert!(entropy(&[9, 1]) < entropy(&[5, 5]));
    }
}
