//! Order statistics over a run's per-pass samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles a timing may be summarised by, in tenths of a percent,
/// highest first.
const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`LADDER`] whose nearest-rank value has at
/// least ten samples beyond it, with that value; `None` below 20 samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let rank = |permille: usize| (permille * n).div_ceil(1000).max(1);
    let p = LADDER.into_iter().find(|&p| n >= rank(p) + 10)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((p as f64 / 10.0, v[rank(p) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }
}
