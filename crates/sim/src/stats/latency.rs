//! Latency sampling with percentile queries.

use crate::time::Time;

/// A collection of latency samples supporting percentile queries.
///
/// Used for the paper's 95th-percentile memcached response times (Figure 8)
/// and memory queueing delays (Figure 11). Samples are stored exactly (the
/// experiments are bounded), sorted lazily on the first query after an
/// insert.
///
/// # Example
///
/// ```
/// use pard_sim::stats::LatencySample;
/// use pard_sim::Time;
///
/// let mut s = LatencySample::new();
/// for ns in [1u64, 2, 3, 4, 100] {
///     s.record(Time::from_ns(ns));
/// }
/// assert_eq!(s.percentile(0.5), Time::from_ns(3));
/// assert_eq!(s.max(), Time::from_ns(100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencySample {
    samples: Vec<u64>,
    sorted: bool,
    sum: u128,
}

impl LatencySample {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation.
    #[inline]
    pub fn record(&mut self, latency: Time) {
        self.samples.push(latency.units());
        self.sum += u128::from(latency.units());
        self.sorted = false;
    }

    /// Number of recorded samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency, or [`Time::ZERO`] when empty.
    pub fn mean(&self) -> Time {
        if self.samples.is_empty() {
            Time::ZERO
        } else {
            Time::from_units((self.sum / self.samples.len() as u128) as u64)
        }
    }

    /// Largest recorded latency, or [`Time::ZERO`] when empty.
    pub fn max(&self) -> Time {
        self.samples
            .iter()
            .copied()
            .max()
            .map(Time::from_units)
            .unwrap_or(Time::ZERO)
    }

    /// The `p`-quantile (`0.0 ..= 1.0`) using nearest-rank on sorted samples,
    /// or [`Time::ZERO`] when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0 ..= 1.0`.
    pub fn percentile(&mut self, p: f64) -> Time {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.samples.is_empty() {
            return Time::ZERO;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Time::from_units(self.samples[rank - 1])
    }

    /// Convenience alias for the 95th percentile the paper reports.
    pub fn p95(&mut self) -> Time {
        self.percentile(0.95)
    }

    /// Every recorded latency, in ascending order.
    pub fn sorted(&mut self) -> impl Iterator<Item = Time> + '_ {
        self.ensure_sorted();
        self.samples.iter().map(|&u| Time::from_units(u))
    }

    /// Empirical CDF as `(latency, cumulative_fraction)` pairs, one per
    /// distinct latency value.
    pub fn cdf(&mut self) -> Vec<(Time, f64)> {
        self.ensure_sorted();
        let n = self.samples.len();
        let mut out: Vec<(Time, f64)> = Vec::new();
        for (i, &v) in self.samples.iter().enumerate() {
            let frac = (i + 1) as f64 / n as f64;
            match out.last_mut() {
                Some((t, f)) if t.units() == v => *f = frac,
                _ => out.push((Time::from_units(v), frac)),
            }
        }
        out
    }

    /// Folds another sample set into this one (fleet-level aggregation:
    /// per-tenant samples merge into a per-tier distribution).
    pub fn absorb(&mut self, other: &LatencySample) {
        self.samples.extend_from_slice(&other.samples);
        self.sum += other.sum;
        self.sorted = false;
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
        self.sum = 0;
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[u64]) -> LatencySample {
        let mut s = LatencySample::new();
        for &v in values {
            s.record(Time::from_units(v));
        }
        s
    }

    #[test]
    fn empty_sample_is_zero_everywhere() {
        let mut s = LatencySample::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), Time::ZERO);
        assert_eq!(s.max(), Time::ZERO);
        assert_eq!(s.percentile(0.95), Time::ZERO);
        assert!(s.cdf().is_empty());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = filled(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.percentile(0.0), Time::from_units(10));
        assert_eq!(s.percentile(0.1), Time::from_units(10));
        assert_eq!(s.percentile(0.5), Time::from_units(50));
        assert_eq!(s.percentile(0.95), Time::from_units(100));
        assert_eq!(s.percentile(1.0), Time::from_units(100));
    }

    #[test]
    fn mean_and_max() {
        let s = filled(&[1, 2, 3]);
        assert_eq!(s.mean(), Time::from_units(2));
        assert_eq!(s.max(), Time::from_units(3));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn cdf_collapses_duplicates() {
        let mut s = filled(&[5, 5, 10, 20]);
        let cdf = s.cdf();
        assert_eq!(
            cdf,
            vec![
                (Time::from_units(5), 0.5),
                (Time::from_units(10), 0.75),
                (Time::from_units(20), 1.0),
            ]
        );
    }

    #[test]
    fn records_after_query_resort() {
        let mut s = filled(&[30, 10]);
        assert_eq!(s.percentile(0.5), Time::from_units(10));
        s.record(Time::from_units(1));
        assert_eq!(s.percentile(0.0), Time::from_units(1));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 1]")]
    fn out_of_range_percentile_panics() {
        let mut s = filled(&[1]);
        let _ = s.percentile(1.5);
    }

    #[test]
    fn clear_empties() {
        let mut s = filled(&[1, 2]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.mean(), Time::ZERO);
    }
}
