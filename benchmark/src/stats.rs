//! Order statistics: medians, quartiles and the tail percentile a sample is
//! large enough to support.

/// Tail percentiles the benchmark may report, highest first, per mille
/// (integers, so that "ten samples beyond" is exact).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The nearest-rank `q`-quantile of a sorted slice.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`], no higher than `cap`, that has
/// at least ten samples beyond it; the median when none has.
#[must_use]
pub fn supported_tail(samples: usize, cap: f64) -> f64 {
    TAIL_LADDER
        .into_iter()
        .filter(|&pm| pm as f64 / 1000.0 <= cap)
        .find(|&pm| samples - (samples * pm).div_ceil(1000) >= 10)
        .map_or(0.5, |pm| pm as f64 / 1000.0)
}

/// Median of unsorted values (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so the spread computed
/// here is the spread the driver computes.  A single value is its own
/// quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Median, quartiles and count of one metric's values across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty slice.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary { median: median(values), q1, q3, n: values.len() }
    }

    /// Inter-quartile distance as a share of the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median and supported tail of a latency sample, in the sample's unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is (0.99 when the sample supports it).
    pub tail_q: f64,
    pub samples: usize,
}

/// Sorts `samples` in place and reads its median and tail.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn latency_of(samples: &mut [u32], cap: f64) -> Latency {
    samples.sort_unstable();
    let tail_q = supported_tail(samples.len(), cap);
    Latency {
        p50: f64::from(quantile_sorted(samples, 0.5)),
        tail: f64::from(quantile_sorted(samples, tail_q)),
        tail_q,
        samples: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_tail(100_000, 0.999), 0.999);
        assert_eq!(supported_tail(10_000, 0.999), 0.999);
        assert_eq!(supported_tail(9_999, 0.999), 0.99);
        assert_eq!(supported_tail(1_000, 0.999), 0.99);
        assert_eq!(supported_tail(999, 0.999), 0.95);
        assert_eq!(supported_tail(200, 0.999), 0.95);
        assert_eq!(supported_tail(199, 0.999), 0.9);
        assert_eq!(supported_tail(100, 0.999), 0.9);
        assert_eq!(supported_tail(40, 0.999), 0.75);
        assert_eq!(supported_tail(20, 0.999), 0.5);
        assert_eq!(supported_tail(3, 0.999), 0.5);
        // The cap keeps a metric named p99 from reporting p99.9.
        assert_eq!(supported_tail(100_000, 0.99), 0.99);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1);
        assert_eq!(quantile_sorted(&[7u32], 0.99), 7);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: Python
        // extrapolates; clamping keeps the quartiles inside the sample.
        assert_eq!(quartiles(&[10.0, 20.0]), (10.0, 20.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        let summary = Summary::of(&ten);
        assert_eq!(summary.n, 10);
        assert!((summary.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_summary_reads_median_and_tail() {
        let mut samples: Vec<u32> = (1..=2000).rev().collect();
        let latency = latency_of(&mut samples, 0.99);
        assert_eq!(latency.p50, 1000.0);
        assert_eq!(latency.tail_q, 0.99);
        assert_eq!(latency.tail, 1980.0);
        assert_eq!(latency.samples, 2000);
    }
}
