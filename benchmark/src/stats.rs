//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the pipeline computes
//! when it judges a metric's run-to-run spread: the harness and its judge
//! must agree on what "the distance between the quartiles" means.

/// Five-number summary of a sample, plus its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN: both mean the harness measured
    /// nothing, which is a bug here, not a data point.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// bounds in `BENCHMARK.json` are compared against. Zero for a constant
    /// sample (also when that constant is zero).
    pub fn spread(&self) -> f64 {
        if self.q3 == self.q1 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points of an ascending `sorted` sample, by the
/// exclusive method: cut `i` sits at rank `i·(n+1)/4`, interpolated between
/// its neighbours and clamped to the sample. A single value is its own
/// quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Signed: clamping `j` may push the interpolation weight outside
        // [0, 4], which extrapolates exactly as Python does.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_odd_even_and_single_samples() {
        let median = |values: &[f64]| Summary::of(values).median;
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median_and_zero_for_constants() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::of(&ten).spread(), 1.0);
        assert_eq!(Summary::of(&[7.0, 7.0, 7.0]).spread(), 0.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }
}
