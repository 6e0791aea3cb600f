//! Order statistics for the report: medians, quartiles, and the rule for
//! which tail percentile a sample can support.

/// Percentiles the report may quote, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile must leave beyond it before it is quoted.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Rank (0-based) of percentile `p` in a sorted sample of `n`: nearest rank.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990 despite rounding.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (0–100); 0.0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    v[rank(v.len(), p)]
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by linear interpolation between closest ranks.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let v = sorted(values);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Whether a sample of `n` leaves at least [`MIN_BEYOND`] values strictly
/// beyond its nearest-rank percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support; `None`
/// when even the median has fewer than ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        // 20 samples: the median is the 10th, ten lie beyond it.
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        // p95 of 200 is the 190th value: exactly ten beyond.
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
