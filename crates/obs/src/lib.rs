//! Observability substrate shared by every dsearch process.
//!
//! A leaf crate: it depends on no other dsearch crate, so anything — the
//! server today, the build pipeline when it reports its stages — may depend
//! on it.  Five pieces, each usable on its own:
//!
//! * [`metrics`] — a process-wide registry of named counters, gauges and
//!   log₂-bucketed latency histograms.  Every mutation is a relaxed atomic
//!   operation: recording a sample on the query hot path takes no lock and
//!   allocates nothing.  The registry renders Prometheus-style text
//!   exposition (the `!metrics` command) and produces point-in-time
//!   [`MetricsSnapshot`]s that support window deltas; the server's `!stats`
//!   line is rendered from such a snapshot.
//! * [`timing`] — [`LatencySummary`] and [`percentile`], the one definition
//!   of "p99", beside the histogram that summarises into it.
//! * [`trace`] — a cheap per-query [`QueryTrace`]: a fixed-capacity stack of
//!   `(stage, duration)` spans (parse, queue_wait, postings, …) threaded
//!   from admission through evaluation to serialization, plus per-shard
//!   timing blocks at the router so a scatter-gathered response can report
//!   where time went shard by shard.
//! * [`slowlog`] — a threshold-armed ring buffer of rendered traces (the
//!   `!trace on|off|<n>` / `!slow` commands).  The non-slow path costs one
//!   relaxed atomic load.
//! * [`build`] — [`peak_rss_bytes`], the process's own peak resident set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod metrics;
pub mod slowlog;
pub mod timing;
pub mod trace;

pub use build::peak_rss_bytes;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use slowlog::{SlowLog, DEFAULT_SLOW_CAPACITY};
pub use timing::{percentile, LatencySummary};
pub use trace::{next_trace_id, parse_compact_stages, QueryTrace, ShardSpan, Span, Stage};
