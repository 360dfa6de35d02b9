//! Observability substrate shared by every dsearch serving process.
//!
//! Three pieces, each usable on its own:
//!
//! * [`metrics`] — a process-wide registry of named counters, gauges and
//!   log₂-bucketed latency histograms.  Every mutation is a relaxed atomic
//!   operation: recording a sample on the query hot path takes no lock and
//!   allocates nothing.  The registry renders Prometheus-style text
//!   exposition (the `!metrics` command) and produces point-in-time
//!   [`MetricsSnapshot`]s that support window deltas.
//! * [`trace`] — a cheap per-query [`QueryTrace`]: a fixed-capacity stack of
//!   `(stage, duration)` spans (parse, queue_wait, batch_fill, …) threaded
//!   from admission through evaluation to serialization, plus per-shard
//!   timing blocks at the router so a scatter-gathered response can report
//!   where time went shard by shard.
//! * [`slowlog`] — a threshold-armed ring buffer of rendered traces (the
//!   `!trace on|off|<n>` / `!slow` commands).  The non-slow path costs one
//!   relaxed atomic load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use build::{
    peak_rss_bytes, publish_build_counters, publish_index_heap, publish_peak_rss,
    publish_persist_time, BUILD_INDEX_HEAP_METRIC, BUILD_METRICS, BUILD_PEAK_RSS_METRIC,
    BUILD_PERSIST_METRIC,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use slowlog::{SlowLog, DEFAULT_SLOW_CAPACITY};
pub use trace::{next_trace_id, parse_compact_stages, QueryTrace, ShardSpan, Span, Stage};
