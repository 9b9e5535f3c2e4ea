//! Discretization of integer attributes into bounded bin ids.
//!
//! Small domains map one value per bin (lossless); large domains use
//! equi-depth quantile bins over the observed values. Every data-driven
//! model (BN, SPN, AR) operates on bin ids; range predicates translate to
//! bin ranges with partial-coverage fractions at the boundary bins.

/// Maps `i64` values to bin ids `0..bin_count`.
#[derive(Debug, Clone)]
pub struct Discretizer {
    /// Ascending exclusive upper edges: bin `i` covers
    /// `(edges[i-1], edges[i]]`; the first bin starts at `min`.
    edges: Vec<i64>,
    /// Dataset minimum (values below clamp to bin 0).
    min: i64,
    /// One distinct value per bin (lossless categorical mapping).
    lossless: bool,
}

impl Discretizer {
    /// Builds a discretizer from observed non-null values.
    pub fn fit(values: &[i64], max_bins: usize) -> Discretizer {
        assert!(max_bins >= 1);
        let mut sorted: Vec<i64> = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.is_empty() {
            return Discretizer {
                edges: vec![0],
                min: 0,
                lossless: true,
            };
        }
        let min = sorted[0];
        if sorted.len() <= max_bins {
            return Discretizer {
                edges: sorted,
                min,
                lossless: true,
            };
        }
        // Equi-depth over distinct values.
        let mut edges = Vec::with_capacity(max_bins);
        for b in 1..=max_bins {
            let idx = (b * sorted.len()) / max_bins - 1;
            let e = sorted[idx];
            if edges.last() != Some(&e) {
                edges.push(e);
            }
        }
        Discretizer {
            edges,
            min,
            lossless: false,
        }
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.edges.len()
    }

    /// True when each bin holds exactly one distinct value.
    pub fn is_lossless(&self) -> bool {
        self.lossless
    }

    /// Bin id of a value (clamped into range).
    pub fn bin_of(&self, v: i64) -> usize {
        self.edges
            .partition_point(|&e| e < v)
            .min(self.edges.len() - 1)
    }

    /// Inclusive bin range covered by the value range `[lo, hi]`, or
    /// `None` when the range misses all bins.
    pub fn bin_range(&self, lo: i64, hi: i64) -> Option<(usize, usize)> {
        if hi < lo || hi < self.min || lo > *self.edges.last().expect("at least one bin edge") {
            return None;
        }
        Some((self.bin_of(lo.max(self.min)), self.bin_of(hi)))
    }

    /// Fraction of bin `b` covered by `[lo, hi]`, assuming uniform spread
    /// of values inside the bin (1.0 for fully covered bins; exact for
    /// lossless bins, which hold a single distinct value).
    pub fn coverage(&self, b: usize, lo: i64, hi: i64) -> f64 {
        if self.lossless {
            let v = self.edges[b];
            return if lo <= v && v <= hi { 1.0 } else { 0.0 };
        }
        let b_lo = if b == 0 {
            self.min
        } else {
            self.edges[b - 1] + 1
        };
        let b_hi = self.edges[b];
        if lo <= b_lo && hi >= b_hi {
            return 1.0;
        }
        if hi < b_lo || lo > b_hi {
            return 0.0;
        }
        let span = (b_hi - b_lo + 1) as f64;
        let cov = (hi.min(b_hi) - lo.max(b_lo) + 1) as f64;
        (cov / span).clamp(0.0, 1.0)
    }

    /// Heap size in bytes.
    pub fn heap_size(&self) -> usize {
        self.edges.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_for_small_domain() {
        let d = Discretizer::fit(&[5, 1, 3, 3, 1], 10);
        assert!(d.is_lossless());
        assert_eq!(d.bin_count(), 3);
        assert_eq!(d.bin_of(1), 0);
        assert_eq!(d.bin_of(3), 1);
        assert_eq!(d.bin_of(5), 2);
    }

    #[test]
    fn equi_depth_for_large_domain() {
        let values: Vec<i64> = (0..1000).collect();
        let d = Discretizer::fit(&values, 10);
        assert!(!d.is_lossless());
        assert_eq!(d.bin_count(), 10);
        // Roughly 100 values per bin.
        assert_eq!(d.bin_of(0), 0);
        assert_eq!(d.bin_of(999), 9);
        assert_eq!(d.bin_of(550), 5);
    }

    #[test]
    fn bin_range_clips() {
        let d = Discretizer::fit(&(0..100).collect::<Vec<i64>>(), 4);
        assert_eq!(d.bin_range(-50, 500), Some((0, 3)));
        assert_eq!(d.bin_range(200, 300), None);
        assert_eq!(d.bin_range(10, 5), None);
    }

    #[test]
    fn coverage_fractions() {
        // Bins of 25 values each: [0..24], [25..49], [50..74], [75..99].
        let d = Discretizer::fit(&(0..100).collect::<Vec<i64>>(), 4);
        assert_eq!(d.coverage(0, 0, 99), 1.0);
        assert!((d.coverage(0, 0, 11) - 12.0 / 25.0).abs() < 1e-9);
        assert_eq!(d.coverage(3, 0, 10), 0.0);
    }

    #[test]
    fn empty_input_safe() {
        let d = Discretizer::fit(&[], 8);
        assert_eq!(d.bin_count(), 1);
        assert_eq!(d.bin_of(42), 0);
    }
}
