//! The benchmark's estimators.
//!
//! Interference on a shared VM only ever *slows* a timed window, so the
//! lower quartile of many short windows estimates the undisturbed time far
//! more steadily than the mean or the median (see `README.md`, "Estimator").

/// Quantile `q` in `[0, 1]` of `xs` by linear interpolation between order
/// statistics (the "type 7" rule of R and NumPy).  Panics on an empty
/// slice: every caller times at least one sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn lower_quartile(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

/// How far an estimate from the first half of the samples lies from the
/// estimate from the second half, as a share of the estimate from all of
/// them: the spread `benchmark compare` holds against a metric's bound.
/// It sees both the estimator's noise and a drift across the run.  One
/// sample has no halves and reads 0.
pub fn split_half_spread(xs: &[f64], estimate: fn(&[f64]) -> f64) -> f64 {
    let all = estimate(xs);
    if xs.len() < 2 || all == 0.0 {
        return 0.0;
    }
    let (first, second) = xs.split_at(xs.len() / 2);
    (estimate(first) - estimate(second)).abs() / all.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_inputs() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.75), 4.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        // Interpolation between order statistics.
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(lower_quartile(&[0.0, 4.0]), 1.0);
        assert_eq!(quantile(&[10.0, 20.0, 30.0, 40.0], 0.9), 37.0);
        // A single sample is every quantile.
        assert_eq!(quantile(&[7.5], 0.25), 7.5);
        // Out-of-range q clamps.
        assert_eq!(quantile(&xs, 2.0), 5.0);
    }

    #[test]
    fn lower_quartile_ignores_slow_outliers() {
        // Nine undisturbed windows and three hit by a noisy neighbour.
        let mut xs = vec![0.125; 9];
        xs.extend([0.2, 0.31, 0.5]);
        assert_eq!(lower_quartile(&xs), 0.125);
        assert!(xs.iter().sum::<f64>() / xs.len() as f64 > 0.17);
    }

    #[test]
    fn split_half_spread_of_known_inputs() {
        // Halves [1, 2] and [3, 4, 5]: medians 1.5 and 4 around 3.
        assert_eq!(
            split_half_spread(&[1.0, 2.0, 3.0, 4.0, 5.0], median),
            2.5 / 3.0
        );
        assert_eq!(
            split_half_spread(&[2.0, 2.0, 2.0, 2.0], lower_quartile),
            0.0
        );
        assert_eq!(split_half_spread(&[10.0, 11.0], median), 1.0 / 10.5);
        assert_eq!(split_half_spread(&[9.0], median), 0.0);
    }
}
