//! Order statistics over timing samples: medians, nearest-rank
//! percentiles, the "highest percentile the sample supports" picker, and
//! the quartile spread the two-set comparison uses.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Percentiles the picker chooses among, ascending.
pub const CANDIDATE_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest candidate percentile with at least [`MIN_SAMPLES_BEYOND`]
/// samples beyond it, or `None` when even the median is unsupported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The small slack keeps 99.9% of 10 000 at rank 9 990, not one above.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of `samples` (0 for an empty slice).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 10th, 20th, … 90th percentiles, for a one-line view of a timing
/// distribution's shape.
pub fn deciles(samples: &[f64]) -> Vec<f64> {
    (1..10)
        .map(|d| percentile(samples, f64::from(d) * 10.0))
        .collect()
}

/// Median with the usual midpoint rule for even counts.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// ones computed outside. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // Position i*(n+1)/4 on the 1-based sample, linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a bound is compared against. 0 when it cannot be computed.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let med = median(samples);
    match quartiles(samples) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(iqr_share(&v), 1.0);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
