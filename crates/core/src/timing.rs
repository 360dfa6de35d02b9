//! Stage timing instrumentation.
//!
//! Table 1 of the paper reports per-stage execution times of the sequential
//! generator; Tables 2–4 report end-to-end times of the parallel
//! configurations.  [`StageTimings`] is the record a parallel run fills from
//! `Instant`s, and is all this module holds: latency percentiles
//! (`LatencySummary`, `percentile`) belong to the serving side and live in
//! `dsearch_obs::timing`, beside the histogram that builds them — the build
//! pipeline never used them, and `dsearch-obs` no longer depends on the build
//! pipeline.

use std::time::Duration;

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
