//! Order statistics for every reported figure: nearest-rank percentiles
//! with the ten-beyond rule, and medians.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so one stray sample cannot set it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `(0, 100]`) among `n`
/// samples: the smallest rank with at least `p`% of the samples at or
/// below it.
pub fn rank(n: usize, p: f64) -> usize {
    // p·n before the division keeps whole-number products exact.
    let exact = p * n as f64 / 100.0;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// Samples that lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Smallest sample count for which percentile `p` has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (1..=1_000_000)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Nearest-rank percentile of `samples` (any order). `None` when empty.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// A tail percentile under the ten-beyond rule.
///
/// # Errors
///
/// When fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if beyond(n, p) < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples has {} beyond it; the ten-beyond rule needs >= {} samples",
            beyond(n, p),
            min_samples_for(p)
        ));
    }
    nearest_rank(samples, p).ok_or_else(|| "no samples".to_string())
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 95.0), Some(95.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn ten_beyond_rule_sets_the_sample_floor() {
        assert_eq!(min_samples_for(95.0), 200);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(199, 95.0), 9);
        let ok: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&ok, 95.0), Ok(190.0));
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(tail_percentile(&short, 95.0).is_err());
    }

    #[test]
    fn failures_sort_last_as_infinite_latency() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        for v in s.iter_mut().skip(185) {
            *v = f64::INFINITY;
        }
        assert_eq!(tail_percentile(&s, 95.0), Ok(f64::INFINITY));
        assert_eq!(nearest_rank(&s, 50.0), Some(100.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }
}
