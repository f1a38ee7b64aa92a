//! Sample summaries: the median and the highest percentile the sample
//! can support.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer, the tail is noise from a handful of
//! outliers. The median is always reported, so a small sample yields
//! p50 for both the median and the tail.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder tried for the tail, lowest first.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// A summarised sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The highest ladder percentile, at most the cap passed to
    /// [`summarize`], with at least [`MIN_BEYOND`] samples beyond it.
    pub tail_pct: f64,
    /// Its value (nearest rank).
    pub tail: f64,
}

/// Nearest-rank index of percentile `pct` in a sorted sample of `n`.
fn rank(pct: f64, n: usize) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10_000 is a hair above
    // 9990) from pushing an exact rank one place up.
    let r = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Summarise `samples`, trying tail percentiles up to `max_pct`.
/// Returns `None` for an empty sample.
pub fn summarize(samples: &[f64], max_pct: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = sorted[rank(50.0, n)];
    let (tail_pct, tail) = LADDER
        .iter()
        .rev()
        .filter(|&&p| p <= max_pct)
        .map(|&p| (p, rank(p, n)))
        .find(|&(p, i)| p == 50.0 || n - (i + 1) >= MIN_BEYOND)
        .map(|(p, i)| (p, sorted[i]))
        .unwrap_or((50.0, p50));
    Some(Summary {
        n,
        p50,
        tail_pct,
        tail,
    })
}

/// The mean of `samples`, or 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The median of `samples` (nearest rank), or 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples, 50.0).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn empty_sample_has_no_summary() {
        assert_eq!(summarize(&[], 99.0), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn too_few_samples_allow_only_the_median() {
        // 19 samples: p90 is rank 18, leaving one sample beyond it.
        let s = summarize(&ramp(19), 99.9).unwrap();
        assert_eq!(s.n, 19);
        assert_eq!(s.p50, 10.0);
        assert_eq!(s.tail_pct, 50.0);
        assert_eq!(s.tail, s.p50);
        // A single sample is its own median.
        let one = summarize(&[4.5], 99.0).unwrap();
        assert_eq!((one.p50, one.tail_pct, one.tail), (4.5, 50.0, 4.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 is value 90 with exactly 10 beyond.
        let s = summarize(&ramp(100), 99.9).unwrap();
        assert_eq!((s.tail_pct, s.tail), (90.0, 90.0));
        // 99 samples: p90 is rank 90 (ceil 89.1), 9 beyond — too few.
        let s = summarize(&ramp(99), 99.9).unwrap();
        assert_eq!(s.tail_pct, 50.0);
        // 1000 samples reach p99 but not p99.9.
        let s = summarize(&ramp(1000), 99.9).unwrap();
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        // 10 000 samples reach p99.9.
        let s = summarize(&ramp(10_000), 99.9).unwrap();
        assert_eq!((s.tail_pct, s.tail), (99.9, 9990.0));
    }

    #[test]
    fn cap_limits_the_tail() {
        let s = summarize(&ramp(10_000), 99.0).unwrap();
        assert_eq!((s.tail_pct, s.tail), (99.0, 9900.0));
        let s = summarize(&ramp(10_000), 50.0).unwrap();
        assert_eq!((s.tail_pct, s.tail), (50.0, 5000.0));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
