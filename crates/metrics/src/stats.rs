//! Summary statistics used throughout the paper's evaluation: means and
//! standard deviations across the 50 repetitions of each experiment
//! (Fig. 8b, Fig. 9c) and geometric means across workload pairs (Fig. 7a).

/// Streaming summary statistics (Welford's online algorithm).
///
/// Numerically stable for long traces; `O(1)` memory. The standard
/// deviation reported is the *sample* standard deviation (n − 1 in the
/// denominator), matching what one reports over repeated experiments.
///
/// ```
/// let mut s = rubic_metrics::Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.add(x);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_stddev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice in one pass.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in values {
            s.add(v);
        }
        s
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another summary into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n − 1); `0.0` with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Population variance (n in the denominator).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn population_stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation; `NaN` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation; `NaN` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Coefficient of variation (stddev / mean); `0.0` when the mean is 0.
    #[must_use]
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.stddev() / m
        }
    }
}

impl std::iter::FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.add(v);
        }
        s
    }
}

/// Geometric mean of a slice of positive values, used by the paper to
/// average the three pairwise experiments ("GeoAvg" in Fig. 7a).
///
/// Computed in log space for robustness. Returns `0.0` if any value is
/// non-positive (a zero factor annihilates a geometric mean) and `0.0`
/// for an empty slice.
///
/// ```
/// let g = rubic_metrics::geometric_mean(&[1.0, 8.0]);
/// assert!((g - 2.8284271247461903).abs() < 1e-12);
/// ```
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for &v in values {
        if v <= 0.0 {
            return 0.0;
        }
        acc += v.ln();
    }
    (acc / values.len() as f64).exp()
}

/// The `p`-th percentile (nearest-rank with linear interpolation,
/// `p ∈ [0, 100]`). Returns `NaN` for an empty slice. Not streaming;
/// clones and sorts.
///
/// ```
/// let xs = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(rubic_metrics::stats::percentile(&xs, 0.0), 10.0);
/// assert_eq!(rubic_metrics::stats::percentile(&xs, 100.0), 40.0);
/// assert_eq!(rubic_metrics::stats::percentile(&xs, 50.0), 25.0);
/// ```
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median of a slice (averaging the two middle elements for even lengths).
/// Returns `NaN` for an empty slice. Not streaming; clones and sorts.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn single_value() {
        let s = Summary::from_slice(&[42.0]);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn known_variance() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.variance() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let whole = Summary::from_slice(&data);
        let mut a = Summary::from_slice(&data[..37]);
        let b = Summary::from_slice(&data[37..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn from_iterator() {
        let s: Summary = (1..=4).map(f64::from).collect();
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[2.0, 0.0]), 0.0);
        assert_eq!(geometric_mean(&[2.0, -1.0]), 0.0);
    }

    #[test]
    fn geometric_le_arithmetic() {
        let v = [1.5, 2.0, 9.0, 0.4];
        let g = geometric_mean(&v);
        let a = v.iter().sum::<f64>() / v.len() as f64;
        assert!(g <= a + 1e-12);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_edges_and_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert!((percentile(&xs, 25.0) - 2.0).abs() < 1e-12);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
        // Median agreement.
        let ys = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&ys, 50.0), median(&ys));
        // Out-of-range p clamps.
        assert_eq!(percentile(&xs, -5.0), 1.0);
        assert_eq!(percentile(&xs, 150.0), 5.0);
    }

    #[test]
    fn cv_zero_mean() {
        let s = Summary::from_slice(&[-1.0, 1.0]);
        assert_eq!(s.cv(), 0.0);
    }
}
