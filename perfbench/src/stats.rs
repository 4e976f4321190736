//! Order statistics for the benchmark's samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The percentile levels a tail is reported at, highest first, in
/// hundredths of a percent so ranks are computed exactly.
const TAIL_LEVELS: [u64; 5] = [9999, 9990, 9900, 9000, 5000];

/// The tail of a latency sample: the highest of [`TAIL_LEVELS`] with at
/// least ten samples beyond it, as `(level, value)` by nearest rank.
/// `None` when no level has ten samples beyond it (fewer than 20 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LEVELS.iter().find_map(|&level| {
        // Nearest rank: the smallest rank covering `level`.
        let rank = (level * n as u64).div_ceil(10_000) as usize;
        (rank >= 1 && n - rank >= 10).then(|| (level as f64 / 100.0, v[rank - 1]))
    })
}

/// Nearest-rank quantile `q` in `[0, 1]` of `samples`; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: the median rank is 10, leaving only 9 beyond.
        assert_eq!(tail_percentile(&xs(19)), None);
        assert_eq!(tail_percentile(&xs(20)), Some((50.0, 10.0)));
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(tail_percentile(&xs(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&xs(999)), Some((90.0, 900.0)));
        assert_eq!(tail_percentile(&xs(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&xs(10_000)), Some((99.9, 9_990.0)));
        assert_eq!(tail_percentile(&xs(100_000)), Some((99.99, 99_990.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
    }

    #[test]
    fn quantile_by_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
        assert_eq!(quantile(&xs, 0.9), Some(9.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
