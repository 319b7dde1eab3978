//! Order statistics over a run's samples.

use std::time::Duration;

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), plus the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Quartiles {
    /// Quartiles of `values`; a single sample is its own median and
    /// quartiles.
    ///
    /// # Panics
    /// Panics on an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let n = sorted.len();
        if n == 1 {
            return Quartiles { q1: sorted[0], median: sorted[0], q3: sorted[0], samples: 1 };
        }
        // Python's exclusive method, step for step: cut point i of 4 sits at
        // 1-based position i·(n+1)/4, interpolated between its neighbours.
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Quartiles { q1: cut(1), median: cut(2), q3: cut(3), samples: n }
    }

    /// Quartiles of durations, in seconds.
    pub fn of_secs(durations: &[Duration]) -> Self {
        let secs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
        Quartiles::of(&secs)
    }

    /// The quartiles with every value mapped through `f` (which must be
    /// monotone; a decreasing `f` swaps the quartiles back into order).
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.q1), f(self.q3));
        Quartiles { q1: a.min(b), median: f(self.median), q3: a.max(b), samples: self.samples }
    }
}

/// Nearest-rank quantile of an ascending sample: the smallest value with at
/// least `per_mille`/1000 of the sample at or below it (integer arithmetic,
/// so p99.9 of 1000 samples is exactly the 999th).
///
/// # Panics
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[u64], per_mille: usize) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (per_mille * sorted.len()).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&values);
        assert_eq!((q.q1, q.median, q.q3, q.samples), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // Two samples extrapolate: statistics.quantiles([1, 2], n=4).
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let q = Quartiles::of(&[4.0]);
        assert_eq!((q.q1, q.median, q.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn nearest_rank_picks_a_member() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&sorted, 500), 500);
        assert_eq!(nearest_rank(&sorted, 990), 990);
        assert_eq!(nearest_rank(&sorted, 999), 999);
        assert_eq!(nearest_rank(&[7], 999), 7);
    }
}
