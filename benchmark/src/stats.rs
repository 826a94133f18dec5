//! The statistics `rubic::metrics` does not have: quartiles by the rule the
//! acceptance procedure uses, and a plain mean.

/// Sorted copy of `values` (total order; the benchmark never produces NaN
/// rates, and `total_cmp` keeps a stray one from panicking the sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the acceptance rule for this benchmark is stated in
/// those terms, so `--repeat` must agree with it digit for digit.
///
/// # Panics
/// Panics with fewer than two samples (Python raises there too).
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance rule compares with a bound.
#[must_use]
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Arithmetic mean (`0.0` for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn iqr_share_of_constant_sample_is_zero() {
        assert_eq!(iqr_share(&[7.0; 10]), 0.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }
}
