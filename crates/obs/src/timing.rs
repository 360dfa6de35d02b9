//! Latency summaries: the one definition of "p99".
//!
//! [`LatencySummary`] is what every report prints — built within one bucket
//! from a histogram (`Histogram::summary`, the server) or exactly from
//! samples ([`LatencySummary::from_samples`], the reference the histogram is
//! checked against) — and [`percentile`] is the nearest-rank rule both agree
//! on.

use std::time::Duration;

/// Ready-made latency summary: the percentiles a serving system reports.
/// Built within one bucket from a histogram
/// ([`Histogram::summary`](crate::Histogram::summary), the server) or exactly
/// from samples ([`LatencySummary::from_samples`], the reference the
/// histogram is checked against), so every report agrees on what "p99"
/// means.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples summarised.
    pub samples: usize,
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// 99.9th-percentile latency.
    pub p999: Duration,
    /// Worst observed latency.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarises a sample set (need not be sorted; empty yields zeros).
    #[must_use]
    pub fn from_samples(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        LatencySummary {
            samples: sorted.len(),
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            p99: percentile(&sorted, 99.0),
            p999: percentile(&sorted, 99.9),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.3?}  p95 {:.3?}  p99 {:.3?}  p99.9 {:.3?}  max {:.3?} ({} samples)",
            self.p50, self.p95, self.p99, self.p999, self.max, self.samples
        )
    }
}

/// The `q`-th percentile (0–100) of an **ascending-sorted** sample set, using
/// the nearest-rank method.  Empty input yields zero.
#[must_use]
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let q = q.clamp(0.0, 100.0);
    // Nearest-rank: smallest sample with at least q% of the data at or below
    // it.  ceil(q/100 * n) with 1-based ranks.
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sorted, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&sorted, 95.0), Duration::from_millis(95));
        assert_eq!(percentile(&sorted, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&sorted, 100.0), Duration::from_millis(100));
        assert_eq!(percentile(&sorted, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
        // Single sample: every percentile is that sample.
        let one = [Duration::from_micros(7)];
        assert_eq!(percentile(&one, 1.0), one[0]);
        assert_eq!(percentile(&one, 99.0), one[0]);
    }

    #[test]
    fn latency_summary_from_unsorted_samples() {
        let samples: Vec<Duration> = (1..=200).rev().map(Duration::from_micros).collect();
        let summary = LatencySummary::from_samples(&samples);
        assert_eq!(summary.samples, 200);
        assert_eq!(summary.p50, Duration::from_micros(100));
        assert_eq!(summary.p95, Duration::from_micros(190));
        assert_eq!(summary.p99, Duration::from_micros(198));
        assert_eq!(summary.p999, Duration::from_micros(200));
        assert_eq!(summary.max, Duration::from_micros(200));
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
        let text = summary.to_string();
        assert!(text.contains("p99") && text.contains("200 samples"));
    }

    #[test]
    fn empty_window_summary_is_all_zeros() {
        let summary = LatencySummary::from_samples(&[]);
        assert_eq!(summary.samples, 0);
        assert_eq!(summary.p50, Duration::ZERO);
        assert_eq!(summary.p95, Duration::ZERO);
        assert_eq!(summary.p99, Duration::ZERO);
        assert_eq!(summary.p999, Duration::ZERO);
        assert_eq!(summary.max, Duration::ZERO);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let sample = Duration::from_micros(37);
        let summary = LatencySummary::from_samples(&[sample]);
        assert_eq!(summary.samples, 1);
        assert_eq!(summary.p50, sample);
        assert_eq!(summary.p95, sample);
        assert_eq!(summary.p99, sample);
        assert_eq!(summary.p999, sample);
        assert_eq!(summary.max, sample);
    }

    #[test]
    fn saturating_durations_do_not_panic() {
        // Duration::MAX alongside ordinary samples: the summary must not
        // overflow or panic, and MAX must surface as the worst percentiles.
        let samples = [Duration::from_nanos(1), Duration::MAX, Duration::MAX];
        let summary = LatencySummary::from_samples(&samples);
        assert_eq!(summary.samples, 3);
        assert_eq!(summary.p50, Duration::MAX);
        assert_eq!(summary.max, Duration::MAX);
        // Out-of-range percentile queries clamp rather than index out of
        // bounds.
        let sorted = [Duration::from_micros(1), Duration::from_micros(2)];
        assert_eq!(percentile(&sorted, -5.0), sorted[0]);
        assert_eq!(percentile(&sorted, 250.0), sorted[1]);
    }

    mod percentile_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn percentiles_are_monotone(raw in proptest::collection::vec(0u64..=1_000_000, 0..64)) {
                let samples: Vec<Duration> =
                    raw.iter().copied().map(Duration::from_nanos).collect();
                let s = LatencySummary::from_samples(&samples);
                prop_assert!(s.p50 <= s.p95);
                prop_assert!(s.p95 <= s.p99);
                prop_assert!(s.p99 <= s.p999);
                prop_assert!(s.p999 <= s.max);
                if !samples.is_empty() {
                    prop_assert_eq!(s.max, samples.iter().copied().max().unwrap());
                }
            }
        }
    }
}
