//! Per-query stage tracing.
//!
//! A [`QueryTrace`] is a fixed-capacity stack of `(stage, duration)` spans —
//! no allocation on the serving hot path — built up as a query moves through
//! admission, batching, evaluation and serialization.  At the router it
//! additionally carries one [`ShardSpan`] per backend so a scatter-gathered
//! response can attribute its latency shard by shard.
//!
//! Traces cross the wire in a compact text form (`parse:412;postings:9800`,
//! integer nanoseconds) carried in the line protocol's `stages=` field, and
//! queries fan out to remote shards under a `@<hex id>` prefix so the two
//! sides of a distributed trace can be joined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Maximum number of top-level spans a trace holds; later records are
/// silently dropped (every current pipeline records at most 8).
pub const MAX_SPANS: usize = 12;

/// A pipeline stage a query passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Query-string parsing (and canonicalisation).
    Parse,
    /// Time between submission to the admission queue and a worker draining
    /// the job.
    QueueWait,
    /// Acquiring the index snapshot for the batch.
    SnapshotLoad,
    /// Posting-list lookups (term and prefix resolution, decode).
    Postings,
    /// Set operations over the postings: intersect, union, difference,
    /// ranking.
    IntersectMerge,
    /// Rendering the response text.
    Serialize,
    /// Router only: fanning a query out to every shard and gathering the
    /// replies (wall time of the whole scatter, shard RTTs run inside it).
    Scatter,
    /// Router only: one shard's request round trip (labelled per shard in a
    /// [`ShardSpan`]).
    ShardRtt,
    /// Router only: k-way merge of the per-shard rankings.
    Merge,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::SnapshotLoad,
        Stage::Postings,
        Stage::IntersectMerge,
        Stage::Serialize,
        Stage::Scatter,
        Stage::ShardRtt,
        Stage::Merge,
    ];

    /// The stage's wire / metrics name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::SnapshotLoad => "snapshot_load",
            Stage::Postings => "postings",
            Stage::IntersectMerge => "intersect_merge",
            Stage::Serialize => "serialize",
            Stage::Scatter => "scatter",
            Stage::ShardRtt => "shard_rtt",
            Stage::Merge => "merge",
        }
    }

    /// Parses a wire name back to a stage.
    #[must_use]
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.as_str() == name)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timed stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which stage.
    pub stage: Stage,
    /// How long it took.
    pub dur: Duration,
}

/// One shard's contribution to a routed query: its round-trip time and the
/// stage breakdown the shard reported about itself.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardSpan {
    /// Shard identifier (its address for remote shards).
    pub shard: String,
    /// Round trip as observed from the router.
    pub rtt: Duration,
    /// The shard's own stage spans (empty when the shard predates tracing).
    pub stages: Vec<Span>,
}

/// A query's timing record.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    id: u64,
    spans: [Option<Span>; MAX_SPANS],
    len: usize,
    shards: Vec<ShardSpan>,
}

impl QueryTrace {
    /// Creates an empty trace with the given id (see [`next_trace_id`]).
    #[must_use]
    pub fn new(id: u64) -> Self {
        QueryTrace { id, ..QueryTrace::default() }
    }

    /// The trace id (zero when the query was never assigned one).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Re-brands the trace with a different id (used when one batch's shared
    /// timing record is fanned out to per-query traced responses).
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    /// Records a stage duration.  Recording a stage twice accumulates into
    /// the existing span; once the (generous) span capacity is exhausted,
    /// further new stages are dropped rather than reallocating.  Zero
    /// durations are dropped outright: a stage that did no work attributes
    /// nothing, and recording it would only pollute the stage histograms
    /// (e.g. `postings` on a cache hit) with meaningless zeros.
    pub fn record(&mut self, stage: Stage, dur: Duration) {
        if dur.is_zero() {
            return;
        }
        for span in self.spans.iter_mut().take(self.len).flatten() {
            if span.stage == stage {
                span.dur = span.dur.saturating_add(dur);
                return;
            }
        }
        if self.len < MAX_SPANS {
            self.spans[self.len] = Some(Span { stage, dur });
            self.len += 1;
        }
    }

    /// The recorded top-level spans, in recording order.
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.spans.iter().take(self.len).flatten().copied()
    }

    /// Duration of one stage, if recorded.
    #[must_use]
    pub fn get(&self, stage: Stage) -> Option<Duration> {
        self.spans().find(|s| s.stage == stage).map(|s| s.dur)
    }

    /// Attaches one shard's timing block (router only).
    pub fn push_shard(&mut self, shard: ShardSpan) {
        self.shards.push(shard);
    }

    /// The per-shard timing blocks.
    #[must_use]
    pub fn shards(&self) -> &[ShardSpan] {
        &self.shards
    }
}

/// Writes spans in the compact wire form, `parse:412;queue_wait:1200`
/// (integer nanoseconds, no spaces, so a whole breakdown fits in one
/// `stages=` status-line field), straight into `out`: no string per span.
///
/// # Errors
///
/// Propagates `out`'s.
pub fn write_spans_compact(
    out: &mut impl std::fmt::Write,
    spans: impl IntoIterator<Item = Span>,
) -> std::fmt::Result {
    for (i, span) in spans.into_iter().enumerate() {
        if i > 0 {
            out.write_char(';')?;
        }
        write!(out, "{}:{}", span.stage.as_str(), nanos(span.dur))?;
    }
    Ok(())
}

/// A span's duration in the wire's unit: whole nanoseconds, saturating.
#[must_use]
pub fn nanos(dur: Duration) -> u64 {
    u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX)
}

/// Parses the compact `stage:ns;stage:ns` form back into spans.  Unknown
/// stage names and malformed segments are skipped, so the format can grow
/// stages without breaking old readers.
#[must_use]
pub fn parse_compact_stages(text: &str) -> Vec<Span> {
    text.split(';')
        .filter_map(|segment| {
            let (name, ns) = segment.split_once(':')?;
            Some(Span { stage: Stage::parse(name)?, dur: Duration::from_nanos(ns.parse().ok()?) })
        })
        .collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Produces a fresh process-unique trace id: a counter mixed through
/// splitmix64 and seeded from the clock and pid, so ids from different
/// router processes are unlikely to collide in shared logs.  Never zero
/// (zero means "untraced").
#[must_use]
pub fn next_trace_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        let clock = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        splitmix64(clock ^ (u64::from(std::process::id()) << 32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(seed.wrapping_add(n)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_round_trip_their_names() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.as_str()), Some(stage));
            assert_eq!(stage.to_string(), stage.as_str());
        }
        assert_eq!(Stage::parse("bogus"), None);
    }

    #[test]
    fn traces_record_accumulate_and_attribute() {
        let mut trace = QueryTrace::new(7);
        assert_eq!(trace.id(), 7);
        trace.record(Stage::Parse, Duration::from_nanos(400));
        trace.record(Stage::Postings, Duration::from_nanos(1_000));
        trace.record(Stage::Postings, Duration::from_nanos(500)); // accumulates
        assert_eq!(trace.get(Stage::Postings), Some(Duration::from_nanos(1_500)));
        assert_eq!(trace.get(Stage::Merge), None);
        let stages: Vec<Stage> = trace.spans().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::Parse, Stage::Postings]);
    }

    #[test]
    fn full_traces_drop_new_stages_without_panicking() {
        let mut trace = QueryTrace::default();
        for i in 0..(MAX_SPANS * 2) {
            let stage = Stage::ALL[i % Stage::ALL.len()];
            trace.record(stage, Duration::from_nanos(1));
        }
        assert!(trace.spans().count() <= MAX_SPANS);
    }

    #[test]
    fn compact_form_round_trips() {
        let mut trace = QueryTrace::new(1);
        trace.record(Stage::Parse, Duration::from_nanos(412));
        trace.record(Stage::QueueWait, Duration::from_nanos(1_200));
        let mut text = String::new();
        write_spans_compact(&mut text, trace.spans()).unwrap();
        assert_eq!(text, "parse:412;queue_wait:1200");
        let spans = parse_compact_stages(&text);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], Span { stage: Stage::Parse, dur: Duration::from_nanos(412) });
        assert_eq!(spans[1], Span { stage: Stage::QueueWait, dur: Duration::from_nanos(1_200) });
        // Unknown stages and garbage segments are skipped, not fatal.
        let lenient = parse_compact_stages("parse:10;warp_drive:5;;nonsense;merge:abc");
        assert_eq!(lenient.len(), 1);
        assert_eq!(lenient[0].stage, Stage::Parse);
        assert!(parse_compact_stages("").is_empty());
    }

    #[test]
    fn shard_spans_attach_and_stay_out_of_attribution() {
        let mut trace = QueryTrace::new(2);
        trace.record(Stage::Scatter, Duration::from_micros(10));
        trace.push_shard(ShardSpan {
            shard: "127.0.0.1:7471".into(),
            rtt: Duration::from_micros(9),
            stages: vec![Span { stage: Stage::Postings, dur: Duration::from_micros(4) }],
        });
        assert_eq!(trace.shards().len(), 1);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }
}
