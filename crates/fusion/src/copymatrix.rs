//! Dense triangular storage for pairwise copy probabilities.
//!
//! The copy-aware hot path looks up the copy probability of an unordered
//! source pair once per (provider, earlier-provider) combination, per
//! candidate, per item, per round — millions of times on the paper's Stock
//! snapshot. A `BTreeMap<(usize, usize), f64>` pays a pointer-chasing
//! logarithmic lookup each time; [`CopyMatrix`] stores the strict upper
//! triangle of the S×S probability matrix as one flat `Vec<f64>` and answers
//! in O(1) with a single multiply-free index computation.

/// Row-major strict-upper-triangle slot of the pair `(lo, hi)`; requires
/// `lo < hi < n`.
#[inline]
fn triangular_slot(n: usize, lo: usize, hi: usize) -> usize {
    lo * (2 * n - lo - 1) / 2 + (hi - lo - 1)
}

/// Flat strict-upper-triangular matrix of pairwise copy probabilities over
/// dense source indices.
///
/// Unscored pairs (and the diagonal) read as probability `0.0`, mirroring the
/// `unwrap_or(0.0)` behaviour of the map-based representation it replaces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CopyMatrix {
    num_sources: usize,
    /// Row-major strict upper triangle: entry `(a, b)` with `a < b` lives at
    /// `a*(2n - a - 1)/2 + (b - a - 1)`.
    data: Vec<f64>,
}

impl CopyMatrix {
    /// An all-zero matrix over `num_sources` sources.
    pub fn new(num_sources: usize) -> Self {
        Self {
            num_sources,
            data: vec![0.0; num_sources * num_sources.saturating_sub(1) / 2],
        }
    }

    /// Build from unordered-pair entries (later duplicates overwrite earlier
    /// ones, like map insertion). Pairs outside `0..num_sources` and diagonal
    /// pairs are ignored.
    pub fn from_pairs(
        num_sources: usize,
        pairs: impl IntoIterator<Item = ((usize, usize), f64)>,
    ) -> Self {
        let mut m = Self::new(num_sources);
        for ((a, b), p) in pairs {
            m.set(a, b, p);
        }
        m
    }

    /// Number of sources the matrix is defined over.
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    #[inline]
    fn index(&self, a: usize, b: usize) -> Option<usize> {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if lo == hi || hi >= self.num_sources {
            return None;
        }
        Some(triangular_slot(self.num_sources, lo, hi))
    }

    /// Copy probability of the unordered pair `(a, b)`; `0.0` for unscored,
    /// diagonal, or out-of-range pairs.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> f64 {
        match self.index(a, b) {
            Some(i) => self.data[i],
            None => 0.0,
        }
    }

    /// Set the probability of the unordered pair `(a, b)`. Diagonal and
    /// out-of-range pairs are ignored.
    #[inline]
    pub fn set(&mut self, a: usize, b: usize, p: f64) {
        if let Some(i) = self.index(a, b) {
            self.data[i] = p;
        }
    }

    /// Reset every pair to `0.0` (capacity is kept).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Re-shape the matrix for `num_sources` sources and reset every pair to
    /// `0.0`, keeping the existing capacity — the warm-arena fusion scratch
    /// reuses one matrix across differently-sized problems.
    pub fn reset(&mut self, num_sources: usize) {
        self.num_sources = num_sources;
        self.data.clear();
        self.data
            .resize(num_sources * num_sources.saturating_sub(1) / 2, 0.0);
    }

    /// Iterate over all pairs with a non-zero probability, in `(a, b)`
    /// lexicographic order (`a < b`).
    pub fn pairs(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        let n = self.num_sources;
        (0..n)
            .flat_map(move |a| ((a + 1)..n).map(move |b| (a, b)))
            .zip(self.data.iter().copied())
            .filter(|(_, p)| *p != 0.0)
    }

    /// Number of pairs with a non-zero probability.
    pub fn num_scored(&self) -> usize {
        self.data.iter().filter(|p| **p != 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_indexing_is_unordered_and_bounds_checked() {
        let mut m = CopyMatrix::new(4);
        m.set(2, 0, 0.75);
        m.set(1, 3, 0.5);
        assert_eq!(m.get(0, 2), 0.75);
        assert_eq!(m.get(2, 0), 0.75);
        assert_eq!(m.get(3, 1), 0.5);
        // Diagonal and out-of-range read as zero and are not writable.
        m.set(1, 1, 0.9);
        m.set(0, 9, 0.9);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(0, 9), 0.0);
        assert_eq!(m.get(9, 0), 0.0);
        // Unscored pairs read as zero.
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn every_pair_has_a_distinct_slot() {
        let n = 7;
        let mut m = CopyMatrix::new(n);
        let mut value = 0.0;
        for a in 0..n {
            for b in (a + 1)..n {
                value += 1.0;
                m.set(a, b, value);
            }
        }
        let mut seen = 0.0;
        for a in 0..n {
            for b in (a + 1)..n {
                seen += 1.0;
                assert_eq!(m.get(a, b), seen, "pair ({a},{b})");
            }
        }
        assert_eq!(m.num_scored(), n * (n - 1) / 2);
    }

    #[test]
    fn pairs_iterates_in_lexicographic_order() {
        let m = CopyMatrix::from_pairs(4, [((3, 1), 0.5), ((0, 2), 0.25)]);
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs, vec![((0, 2), 0.25), ((1, 3), 0.5)]);
        assert_eq!(m.num_scored(), 2);
    }

    #[test]
    fn clear_and_empty_matrices() {
        let mut m = CopyMatrix::from_pairs(3, [((0, 1), 0.9)]);
        m.clear();
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(CopyMatrix::new(0).get(0, 0), 0.0);
        assert_eq!(CopyMatrix::default().get(0, 1), 0.0);
        assert_eq!(CopyMatrix::new(1).pairs().count(), 0);
    }
}
