//! Stage timing instrumentation.
//!
//! Table 1 of the paper reports per-stage execution times of the sequential
//! generator; Tables 2–4 report end-to-end times of the parallel
//! configurations.  [`StageTimings`] is the record both kinds of run produce,
//! and [`Stopwatch`] is the tiny helper used to fill it.  Those two are all
//! this module holds: latency percentiles (`LatencySummary`, `percentile`)
//! belong to the serving side and live in `dsearch_obs::timing`, beside the
//! histogram that builds them — the build pipeline never used them, and
//! `dsearch-obs` no longer depends on the build pipeline.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Wall-clock durations of each pipeline stage.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Stage 1: filename generation.
    pub filename_generation: Duration,
    /// Stage 2 + 3 for parallel runs (extraction and update overlap); for the
    /// sequential baseline this is the read-and-extract pass only.
    pub extraction: Duration,
    /// Stage 3 measured separately (sequential baseline only; zero when the
    /// update overlaps extraction).
    pub index_update: Duration,
    /// Join stage (Implementation 2 only; zero otherwise).
    pub join: Duration,
    /// Whole run, from before Stage 1 to after the join.
    pub total: Duration,
}

impl StageTimings {
    /// Sum of the individually measured stages (excludes `total`).
    #[must_use]
    pub fn stage_sum(&self) -> Duration {
        self.filename_generation + self.extraction + self.index_update + self.join
    }

    /// Speed-up of this run relative to `baseline` (total time ratio).
    #[must_use]
    pub fn speedup_vs(&self, baseline: &StageTimings) -> f64 {
        let own = self.total.as_secs_f64();
        if own == 0.0 {
            return 0.0;
        }
        baseline.total.as_secs_f64() / own
    }
}

/// Measures one duration at a time.
#[derive(Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch { started: Instant::now() }
    }

    /// Elapsed time since start.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Returns the elapsed time and restarts the stopwatch.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let elapsed = now - self.started;
        self.started = now;
        elapsed
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sum_adds_components() {
        let t = StageTimings {
            filename_generation: Duration::from_millis(5),
            extraction: Duration::from_millis(80),
            index_update: Duration::from_millis(20),
            join: Duration::from_millis(3),
            total: Duration::from_millis(110),
        };
        assert_eq!(t.stage_sum(), Duration::from_millis(108));
    }

    #[test]
    fn speedup_is_ratio_of_totals() {
        let seq = StageTimings { total: Duration::from_secs(220), ..Default::default() };
        let par = StageTimings { total: Duration::from_millis(46_700), ..Default::default() };
        let s = par.speedup_vs(&seq);
        assert!((s - 4.71).abs() < 0.02, "speedup {s}");
        let zero = StageTimings::default();
        assert_eq!(zero.speedup_vs(&seq), 0.0);
    }

    #[test]
    fn stopwatch_measures_monotonically() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let first = sw.lap();
        assert!(first >= Duration::from_millis(1));
        let second = sw.elapsed();
        assert!(second < first + Duration::from_secs(1));
        let _ = Stopwatch::default();
    }
}
