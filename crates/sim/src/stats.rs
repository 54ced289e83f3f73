//! Small statistics helpers used when aggregating experiment results.

/// Arithmetic mean of a slice. Returns NaN for an empty slice so that an
/// absent statistic is distinguishable from a genuine zero (the JSON writer
/// maps non-finite values to `null`, and tables render them as `-`).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation. Returns 0.0 for fewer than two values.
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Linear-interpolated percentile (`p` in `[0, 100]`). Returns NaN for an
/// empty slice. The input does not need to be sorted.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Formats a statistic for a table cell: `-` when the value is non-finite
/// (the empty-input sentinel), otherwise the value at the given precision.
/// Keeps absent statistics visually distinct from a genuine zero.
pub fn fmt_stat(value: f64, precision: usize) -> String {
    if value.is_finite() {
        format!("{value:.precision$}")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert!(mean(&[]).is_nan());
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn stddev_of_values() {
        assert_eq!(stddev(&[1.0]), 0.0);
        assert!((stddev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138).abs() < 1e-3);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn fmt_stat_renders_dash_for_non_finite() {
        assert_eq!(fmt_stat(1.25, 2), "1.25");
        assert_eq!(fmt_stat(f64::NAN, 2), "-");
        assert_eq!(fmt_stat(f64::INFINITY, 2), "-");
    }
}
