//! Evaluation summary statistics (CDFs).

use serde::{Deserialize, Serialize};

/// An empirical CDF over session-level samples, as plotted throughout the
/// paper's evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF from raw samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|s| !s.is_nan()),
            "samples must not be NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of an empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Sample median.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Evenly spaced `(x, P(X ≤ x))` points for plotting/printing.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        if lo == hi {
            // Degenerate support: every sample is identical, so the whole
            // curve is the single point (lo, 1) rather than `points + 1`
            // copies of it.
            return vec![(lo, 1.0)];
        }
        (0..=points)
            .map(|k| {
                let x = lo + (hi - lo) * k as f64 / points as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Cdf::new(iter.into_iter().collect())
    }
}

/// Renders a CDF as a plain-text table, the form the bench binaries print.
pub fn render_cdf(name: &str, cdf: &Cdf, points: usize) -> String {
    let mut out = format!("# CDF: {name} (n={}, mean={:.3})\n", cdf.len(), cdf.mean());
    for (x, p) in cdf.curve(points) {
        out.push_str(&format!("{x:>12.4}  {p:>6.3}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.at(0.5), 0.0);
        assert_eq!(cdf.at(1.0), 0.25);
        assert_eq!(cdf.at(2.0), 0.75);
        assert_eq!(cdf.at(10.0), 1.0);
        assert_eq!(cdf.mean(), 2.0);
        assert_eq!(cdf.median(), 2.0);
        assert_eq!(cdf.quantile(1.0), 3.0);
        assert_eq!(cdf.quantile(0.0 + 1e-9), 1.0);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let cdf: Cdf = (0..100).map(|i| (i * 37 % 100) as f64).collect();
        let curve = cdf.curve(20);
        assert_eq!(curve.len(), 21);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn degenerate_curve_collapses_to_one_point() {
        let cdf = Cdf::new(vec![4.2; 7]);
        assert_eq!(cdf.curve(20), vec![(4.2, 1.0)]);
        // A single sample is the same degenerate case.
        assert_eq!(Cdf::new(vec![1.5]).curve(5), vec![(1.5, 1.0)]);
    }

    #[test]
    fn render_contains_header_and_rows() {
        let cdf = Cdf::new(vec![1.0, 2.0]);
        let text = render_cdf("test", &cdf, 2);
        assert!(text.contains("# CDF: test"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_samples_panic() {
        let _ = Cdf::new(vec![1.0, f64::NAN]);
    }
}
