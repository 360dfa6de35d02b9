//! The line protocol `dsearch serve` speaks over stdin and TCP.
//!
//! Requests are single lines:
//!
//! * any ordinary line is a query (`rust AND search`, `inde*`, …); a
//!   `@<hex id> ` prefix attaches a trace id (the router uses this to join
//!   its trace with the shard's); a `@d=<ms> ` prefix attaches a deadline
//!   budget in milliseconds — the two compose in either order
//!   (`@d=50 @2a rust` ≡ `@2a @d=50 rust`), and the router forwards the
//!   *remaining* budget to each shard via the same prefix;
//! * `!stats` returns the server's metrics line;
//! * `!metrics` returns the Prometheus-style text exposition;
//! * `!trace on|off|<n>` arms/disarms the slow-query log (threshold in µs);
//! * `!slow` dumps the retained slow-query traces;
//! * `!reload` is answered by the serving front end (snapshot reload);
//! * `!quit` closes the connection.
//!
//! Responses are line-oriented and end with a lone `END` line:
//!
//! ```text
//! OK 2 generation=3 cached=false micros=184 stages=parse:412;postings:9123;serialize:804
//! b.txt (2 terms)
//! e.txt (2 terms)
//! END
//! ```
//!
//! The `stages=` field is the query's stage breakdown in integer
//! nanoseconds; traced queries also carry `trace=<hex id>`.  Routed
//! responses append one `# shard <id> rtt=<ns> stages=…` comment line per
//! answering shard after the hits (comment lines are ignored by the hit
//! parser).  Errors answer `ERR <message>` followed by `END`, so a client
//! can always resynchronise on `END`.
//!
//! A query whose budget runs out answers distinctly from other errors:
//! single-store responses use `ERR deadline_exceeded …`, while a routed
//! scatter that ran out of budget degrades to a normal `OK` status carrying
//! `partial=true deadline=exceeded` with whatever shards answered in time.

use std::fmt::Write;
use std::time::{Duration, Instant};

use dsearch_obs::trace::{nanos, write_spans_compact};
use dsearch_obs::QueryTrace;
use dsearch_query::{Hit, RankedHit};

use crate::engine::{QueryResponse, ServerError};
use crate::route::RoutedResponse;

/// Terminator line of every response.
pub const END: &str = "END";

/// Bytes reserved for a status line ahead of its body: counts, generation or
/// shard health, `micros=`, a trace id and a full trace's `stages=` fit.
const STATUS_CAPACITY: usize = 384;

/// Bytes reserved per body line beyond its path: ` (<n> terms) score=<s>`
/// with a BM25-sized score.
const HIT_LINE_CAPACITY: usize = 32;

/// A parsed request line, borrowing its arguments from the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Evaluate a query.
    Query(&'a str),
    /// Report serving metrics.
    Stats,
    /// Report the Prometheus-style metrics exposition.
    Metrics,
    /// Arm or disarm the slow-query log: the argument is `on`, `off` or a
    /// threshold in microseconds.
    Trace(&'a str),
    /// Dump the retained slow-query traces.
    Slow,
    /// Reload the snapshot from the store.
    Reload,
    /// Close the connection.
    Quit,
    /// Blank line: ignored.
    Empty,
}

/// Parses one request line.
#[must_use]
pub fn parse_request(line: &str) -> Request<'_> {
    let trimmed = line.trim();
    if let Some(arg) = trimmed.strip_prefix("!trace") {
        if arg.is_empty() || arg.starts_with(' ') {
            return Request::Trace(arg.trim());
        }
    }
    match trimmed {
        "" => Request::Empty,
        "!stats" => Request::Stats,
        "!metrics" => Request::Metrics,
        "!slow" => Request::Slow,
        "!reload" => Request::Reload,
        "!quit" => Request::Quit,
        query => Request::Query(query),
    }
}

/// Splits an optional `@<hex id> ` trace-id prefix off a query line.  Lines
/// without a well-formed prefix come back whole with id zero ("untraced"),
/// so no query text is ever lost to a parse guess.
#[must_use]
pub fn split_trace_id(raw: &str) -> (u64, &str) {
    let Some(rest) = raw.strip_prefix('@') else { return (0, raw) };
    let Some((id_text, query)) = rest.split_once(' ') else { return (0, raw) };
    match u64::from_str_radix(id_text, 16) {
        Ok(id) if id != 0 && !query.trim().is_empty() => (id, query.trim_start()),
        _ => (0, raw),
    }
}

/// Prepends a trace id to a query in the wire form [`split_trace_id`]
/// understands (a no-op for id zero).
#[must_use]
pub fn prefix_trace_id(id: u64, query: &str) -> String {
    if id == 0 {
        query.to_string()
    } else {
        format!("@{id:x} {query}")
    }
}

/// Per-request metadata carried as `@`-prefixes on a query line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestMeta {
    /// Trace id from a `@<hex id>` prefix (zero: untraced).
    pub trace_id: u64,
    /// Deadline budget in milliseconds from a `@d=<ms>` prefix.
    pub deadline_ms: Option<u64>,
}

impl RequestMeta {
    /// The absolute deadline of a request submitted at `anchor`: its own
    /// budget, else `default`'s.
    #[must_use]
    pub fn deadline(&self, anchor: Instant, default: Option<Duration>) -> Option<Instant> {
        self.deadline_ms.map(Duration::from_millis).or(default).map(|budget| anchor + budget)
    }
}

/// Splits the optional `@<hex id>` trace and `@d=<ms>` deadline prefixes off
/// a query line, in either order.  Like [`split_trace_id`], malformed
/// prefixes come back as part of the query text with default metadata, so no
/// query text is ever lost to a parse guess.
#[must_use]
pub fn split_request_meta(raw: &str) -> (RequestMeta, &str) {
    let mut meta = RequestMeta::default();
    let mut rest = raw;
    loop {
        if meta.deadline_ms.is_none() {
            if let Some(split) = split_deadline_prefix(rest) {
                meta.deadline_ms = Some(split.0);
                rest = split.1;
                continue;
            }
        }
        if meta.trace_id == 0 {
            let (id, after) = split_trace_id(rest);
            if id != 0 {
                meta.trace_id = id;
                rest = after;
                continue;
            }
        }
        return (meta, rest);
    }
}

/// Splits a leading `@d=<ms> ` deadline prefix, requiring a non-empty
/// remainder (so a bare `@d=50` line stays a query and fails parsing with a
/// normal error, mirroring [`split_trace_id`]'s fallback).
fn split_deadline_prefix(raw: &str) -> Option<(u64, &str)> {
    let rest = raw.strip_prefix("@d=")?;
    let (ms_text, query) = rest.split_once(' ')?;
    let ms = ms_text.parse::<u64>().ok()?;
    if query.trim().is_empty() {
        return None;
    }
    Some((ms, query.trim_start()))
}

/// Prepends a `@d=<ms>` deadline-budget prefix in the wire form
/// [`split_request_meta`] understands (the router uses this to forward the
/// remaining budget to each shard).
#[must_use]
pub fn prefix_deadline_ms(ms: u64, query: &str) -> String {
    format!("@d={ms} {query}")
}

/// Ends a status line: the ` trace=<hex>` field of a traced response, then
/// ` stages=…` — the trace's spans plus the `serialize` span the caller
/// measured while producing the body (the one stage that cannot be inside
/// the trace, because the status line that reports it precedes the body) —
/// and the newline.
fn finish_status(out: &mut String, trace: &QueryTrace, serialize: Duration) {
    if trace.id() != 0 {
        let _ = write!(out, " trace={:x}", trace.id());
    }
    out.push_str(" stages=");
    let _ = write_spans_compact(out, trace.spans());
    if trace.spans().next().is_some() {
        out.push(';');
    }
    let _ = writeln!(out, "serialize:{}", nanos(serialize));
}

/// Renders a successful query response.  The body is the hit lines, rendered
/// into the results the first time any response carries them and only copied
/// after that — a cached answer is formatted once, however many requests it
/// answers; producing it is timed as the `serialize` span of `stages=`.
#[must_use]
pub fn render_response(response: &QueryResponse) -> String {
    let serialize_started = Instant::now();
    let body = response.results.render_once(render_hits);
    let serialize = serialize_started.elapsed();
    let mut out = String::with_capacity(STATUS_CAPACITY + body.len() + END.len() + 1);
    let _ = write!(
        out,
        "OK {} generation={} cached={} micros={}",
        response.results.len(),
        response.generation,
        response.cached,
        response.latency.as_micros(),
    );
    finish_status(&mut out, &response.trace, serialize);
    out.push_str(body);
    out.push_str(END);
    out.push('\n');
    out
}

/// Renders a scatter-gathered query response.  The status line carries the
/// shard health of the answer instead of a single generation:
/// `shards=<answered>/<total>` and `partial=true` when at least one shard
/// failed or timed out, so clients can tell a complete answer from a
/// degraded one.  After the hits, one `# shard <id> rtt=<ns> stages=…`
/// comment line per answering shard reports where the scatter's time went.
#[must_use]
pub fn render_routed_response(response: &RoutedResponse) -> String {
    let serialize_started = Instant::now();
    let mut body = String::with_capacity(body_capacity(response.hits.iter().map(|h| &h.path)));
    for hit in &response.hits {
        write_hit_line(&mut body, &hit.path, hit.matched_terms, hit.score);
    }
    for shard in response.trace.shards() {
        let _ = write!(body, "# shard {} rtt={} stages=", shard.shard, nanos(shard.rtt));
        let _ = write_spans_compact(&mut body, shard.stages.iter().copied());
        body.push('\n');
    }
    let serialize = serialize_started.elapsed();
    let deadline = if response.deadline_exceeded { " deadline=exceeded" } else { "" };
    let mut out = String::with_capacity(STATUS_CAPACITY + body.len() + END.len() + 1);
    let _ = write!(
        out,
        "OK {} shards={}/{} partial={}{} micros={}",
        response.hits.len(),
        response.shards_ok(),
        response.shards_total,
        response.partial(),
        deadline,
        response.latency.as_micros(),
    );
    finish_status(&mut out, &response.trace, serialize);
    out.push_str(&body);
    out.push_str(END);
    out.push('\n');
    out
}

/// A body's hit lines, in one buffer sized for them.
fn render_hits(hits: &[Hit]) -> String {
    let mut body = String::with_capacity(body_capacity(hits.iter().map(|h| &h.path)));
    for hit in hits {
        write_hit_line(&mut body, &hit.path, hit.matched_terms, hit.score);
    }
    body
}

/// Bytes to reserve for the hit lines of hits with these paths.
fn body_capacity<'a>(paths: impl Iterator<Item = &'a std::sync::Arc<str>>) -> usize {
    paths.map(|path| path.len() + HIT_LINE_CAPACITY).sum()
}

/// Writes one response body line: `<path> (<n> terms)`, with a trailing
/// ` score=<s>` field when the hit is scored (unranked evaluation leaves
/// scores at zero and the field off the wire, so pre-ranking shards and
/// clients interoperate unchanged).  `f32` `Display` is shortest-roundtrip,
/// so the score a shard prints is the score the router parses, bit for bit.
fn write_hit_line(out: &mut String, path: &str, matched_terms: usize, score: f32) {
    let _ = if score == 0.0 {
        writeln!(out, "{path} ({matched_terms} terms)")
    } else {
        writeln!(out, "{path} ({matched_terms} terms) score={score}")
    };
}

/// Parses one response body line of the `<path> (<n> terms)[ score=<s>]`
/// form back into a ranked hit (the client side of [`render_response`]'s
/// body, used by the router's remote-shard client).  Returns `None` for
/// lines of any other shape.
#[must_use]
pub fn parse_hit_line(line: &str) -> Option<RankedHit> {
    let (rest, score) = match line.rsplit_once(" score=") {
        // A path could itself contain " score=", in which case the suffix
        // after the split won't parse as a float and the whole line is the
        // unscored form.
        Some((head, value)) => match value.parse::<f32>() {
            Ok(score) => (head, score),
            Err(_) => (line, 0.0),
        },
        None => (line, 0.0),
    };
    let rest = rest.strip_suffix(" terms)")?;
    let (path, count) = rest.rsplit_once(" (")?;
    Some(RankedHit::new(path, count.parse().ok()?, score))
}

/// Parses one `# shard <id> rtt=<ns> stages=…` body comment line of a
/// routed response back into a shard timing block (the client side of
/// [`render_routed_response`]'s per-shard breakdown).  Returns `None` for
/// lines of any other shape.
#[must_use]
pub fn parse_shard_line(line: &str) -> Option<dsearch_obs::ShardSpan> {
    let rest = line.strip_prefix("# shard ")?;
    let mut fields = rest.split_whitespace();
    let shard = fields.next()?.to_owned();
    let mut span = dsearch_obs::ShardSpan { shard, ..Default::default() };
    for field in fields {
        if let Some(ns) = field.strip_prefix("rtt=") {
            span.rtt = Duration::from_nanos(ns.parse().ok()?);
        } else if let Some(stages) = field.strip_prefix("stages=") {
            span.stages = dsearch_obs::parse_compact_stages(stages);
        }
    }
    Some(span)
}

/// Renders an error response.
#[must_use]
pub fn render_error(error: &ServerError) -> String {
    render_error_text(&error.to_string())
}

/// Renders an error response from plain text (for errors that are not
/// [`ServerError`]s, like reload failures).
#[must_use]
pub fn render_error_text(message: &str) -> String {
    format!("ERR {message}\n{END}\n")
}

/// Renders a one-line informational response (stats, reload confirmations).
#[must_use]
pub fn render_info(info: &str) -> String {
    format!("OK {info}\n{END}\n")
}

/// Renders an informational response with body lines (the router's `!stats`
/// answer: one aggregate status line, one body line per shard).
#[must_use]
pub fn render_info_with_body<I, S>(info: &str, body: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = format!("OK {info}\n");
    for line in body {
        out.push_str(line.as_ref());
        out.push('\n');
    }
    out.push_str(END);
    out.push('\n');
    out
}

/// A client-side parse of one protocol response (used by the TCP load
/// generator and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedResponse {
    /// `true` for `OK`, `false` for `ERR`.
    pub ok: bool,
    /// The rest of the status line.
    pub status: String,
    /// Body lines between the status line and `END`.
    pub body: Vec<String>,
}

impl ParsedResponse {
    /// Number of hits announced by an `OK <n> …` status line (0 otherwise).
    #[must_use]
    pub fn hit_count(&self) -> usize {
        self.status.split_whitespace().next().and_then(|n| n.parse().ok()).unwrap_or(0)
    }

    /// The raw text of a `name=value` field of the status line, if present.
    /// Stats lines are made of such fields (`shed=3`, `generation=2`, …).
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&str> {
        self.status.split_whitespace().find_map(|field| field.strip_prefix(name)?.strip_prefix('='))
    }

    /// The `generation=<g>` field of the status line, if present.
    #[must_use]
    pub fn generation(&self) -> Option<u64> {
        self.field("generation")?.parse().ok()
    }

    /// The `cached=<bool>` field of the status line, if present.
    #[must_use]
    pub fn cached(&self) -> Option<bool> {
        self.field("cached")?.parse().ok()
    }

    /// The `trace=<hex>` id of the status line, if present.
    #[must_use]
    pub fn trace_id(&self) -> Option<u64> {
        u64::from_str_radix(self.field("trace")?, 16).ok()
    }

    /// Whether the response reports a blown deadline — either an
    /// `ERR deadline_exceeded …` status or a routed `deadline=exceeded`
    /// status field.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        (!self.ok && self.status.starts_with("deadline_exceeded"))
            || self.field("deadline") == Some("exceeded")
    }

    /// The parsed `stages=` breakdown of the status line (empty when the
    /// server predates tracing).
    #[must_use]
    pub fn stages(&self) -> Vec<dsearch_obs::Span> {
        self.field("stages").map(dsearch_obs::parse_compact_stages).unwrap_or_default()
    }

    /// The parsed `# shard …` timing blocks of a routed response's body.
    #[must_use]
    pub fn shard_spans(&self) -> Vec<dsearch_obs::ShardSpan> {
        self.body.iter().filter_map(|line| parse_shard_line(line)).collect()
    }
}

/// Reads one full response (through `END`) from a line iterator.
///
/// Returns `None` when the stream ends before a status line arrives.
pub fn read_response<I, E>(lines: &mut I) -> Option<Result<ParsedResponse, E>>
where
    I: Iterator<Item = Result<String, E>>,
{
    let status_line = match lines.next()? {
        Ok(line) => line,
        Err(e) => return Some(Err(e)),
    };
    let (ok, status) = if let Some(rest) = status_line.strip_prefix("OK") {
        (true, rest.trim().to_string())
    } else if let Some(rest) = status_line.strip_prefix("ERR") {
        (false, rest.trim().to_string())
    } else {
        (false, status_line)
    };
    let mut body = Vec::new();
    for line in lines {
        match line {
            Ok(line) if line == END => {
                return Some(Ok(ParsedResponse { ok, status, body }));
            }
            Ok(line) => body.push(line),
            Err(e) => return Some(Err(e)),
        }
    }
    // Stream ended before END: report what we have.
    Some(Ok(ParsedResponse { ok, status, body }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsearch_query::{Hit, SearchResults};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn requests_parse() {
        assert_eq!(parse_request("rust AND search"), Request::Query("rust AND search"));
        assert_eq!(parse_request("  !stats  "), Request::Stats);
        assert_eq!(parse_request("!reload"), Request::Reload);
        assert_eq!(parse_request("!quit"), Request::Quit);
        assert_eq!(parse_request("   "), Request::Empty);
        assert_eq!(parse_request("!metrics"), Request::Metrics);
        assert_eq!(parse_request("!slow"), Request::Slow);
        assert_eq!(parse_request("!trace"), Request::Trace(""));
        assert_eq!(parse_request("!trace on"), Request::Trace("on"));
        assert_eq!(parse_request("!trace 1500"), Request::Trace("1500"));
        // `!tracer` is not a `!trace` with an argument; unknown bangs stay
        // queries (and fail parse downstream like any bad query).
        assert_eq!(parse_request("!tracer"), Request::Query("!tracer"));
        // Traced queries keep their prefix: the engine strips it.
        assert_eq!(parse_request("@a3f rust"), Request::Query("@a3f rust"));
    }

    #[test]
    fn request_meta_prefixes_compose_in_either_order() {
        let (meta, query) = split_request_meta("@d=50 @2a rust AND search");
        assert_eq!(meta, RequestMeta { trace_id: 0x2a, deadline_ms: Some(50) });
        assert_eq!(query, "rust AND search");
        let (meta, query) = split_request_meta("@2a @d=50 rust AND search");
        assert_eq!(meta, RequestMeta { trace_id: 0x2a, deadline_ms: Some(50) });
        assert_eq!(query, "rust AND search");
        // Each prefix alone.
        let (meta, query) = split_request_meta("@d=5 rust");
        assert_eq!(meta, RequestMeta { trace_id: 0, deadline_ms: Some(5) });
        assert_eq!(query, "rust");
        let (meta, query) = split_request_meta("@2a rust");
        assert_eq!(meta, RequestMeta { trace_id: 0x2a, deadline_ms: None });
        assert_eq!(query, "rust");
        // A zero budget is well-formed (already expired on arrival).
        assert_eq!(split_request_meta("@d=0 rust").0.deadline_ms, Some(0));
        // Malformed or queryless prefixes fall back to plain query text.
        assert_eq!(split_request_meta("rust"), (RequestMeta::default(), "rust"));
        assert_eq!(split_request_meta("@d=abc rust"), (RequestMeta::default(), "@d=abc rust"));
        assert_eq!(split_request_meta("@d=50"), (RequestMeta::default(), "@d=50"));
        assert_eq!(split_request_meta("@d=50 "), (RequestMeta::default(), "@d=50 "));
        // Round trip through the renderer.
        assert_eq!(prefix_deadline_ms(50, "rust"), "@d=50 rust");
        let forwarded = prefix_deadline_ms(7, &prefix_trace_id(0x2a, "rust"));
        assert_eq!(
            split_request_meta(&forwarded).0,
            RequestMeta { trace_id: 0x2a, deadline_ms: Some(7) }
        );
    }

    #[test]
    fn trace_id_prefixes_round_trip_and_reject_garbage() {
        assert_eq!(prefix_trace_id(0x2a, "rust AND search"), "@2a rust AND search");
        assert_eq!(prefix_trace_id(0, "rust"), "rust");
        assert_eq!(split_trace_id("@2a rust AND search"), (0x2a, "rust AND search"));
        assert_eq!(split_trace_id("rust"), (0, "rust"));
        // Malformed ids, zero ids and empty queries fall back to the whole
        // line, which then fails query parsing with a normal error.
        assert_eq!(split_trace_id("@zz rust"), (0, "@zz rust"));
        assert_eq!(split_trace_id("@0 rust"), (0, "@0 rust"));
        assert_eq!(split_trace_id("@2a "), (0, "@2a "));
        assert_eq!(split_trace_id("@2a"), (0, "@2a"));
    }

    fn traced(id: u64) -> Arc<dsearch_obs::QueryTrace> {
        use dsearch_obs::{QueryTrace, Stage};
        let mut trace = QueryTrace::new(id);
        trace.record(Stage::Parse, Duration::from_nanos(400));
        trace.record(Stage::Postings, Duration::from_micros(9));
        Arc::new(trace)
    }

    #[test]
    fn responses_render_and_parse_back() {
        let response = QueryResponse {
            query: "rust".into(),
            results: Arc::new(SearchResults::new(vec![Hit {
                file_id: dsearch_index::FileId(0),
                path: "a.txt".into(),
                matched_terms: 2,
                score: 0.0,
            }])),
            generation: 5,
            cached: true,
            latency: Duration::from_micros(123),
            trace: traced(0x1f),
        };
        let text = render_response(&response);
        assert!(text.ends_with("END\n"));

        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        assert!(parsed.ok);
        assert_eq!(parsed.hit_count(), 1);
        assert_eq!(parsed.generation(), Some(5));
        assert_eq!(parsed.cached(), Some(true));
        assert_eq!(parsed.trace_id(), Some(0x1f));
        let stages = parsed.stages();
        // parse + postings from the trace, plus the measured serialize span.
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].stage, dsearch_obs::Stage::Parse);
        assert_eq!(stages[2].stage, dsearch_obs::Stage::Serialize);
        assert_eq!(parsed.body, vec!["a.txt (2 terms)"]);
    }

    #[test]
    fn untraced_responses_omit_the_trace_field() {
        let response = QueryResponse {
            query: "rust".into(),
            results: Arc::new(SearchResults::new(vec![])),
            generation: 1,
            cached: false,
            latency: Duration::from_micros(10),
            trace: Arc::new(dsearch_obs::QueryTrace::default()),
        };
        let text = render_response(&response);
        assert!(!text.contains("trace="), "{text}");
        assert!(text.contains("stages=serialize:"), "{text}");
    }

    #[test]
    fn hit_lines_round_trip_through_the_client_parser() {
        let hit = parse_hit_line("docs/a (1).txt (2 terms)").unwrap();
        assert_eq!(&*hit.path, "docs/a (1).txt");
        assert_eq!(hit.matched_terms, 2);
        assert_eq!(hit.score, 0.0);
        assert!(parse_hit_line("queries=3 qps=1.0").is_none());
        assert!(parse_hit_line("x (many terms)").is_none());
        assert!(parse_hit_line("").is_none());
    }

    fn hit_line(path: &str, matched_terms: usize, score: f32) -> String {
        let mut line = String::new();
        write_hit_line(&mut line, path, matched_terms, score);
        line
    }

    #[test]
    fn scored_hit_lines_round_trip_bit_for_bit() {
        for score in [3.5f32, 0.123_456_79, 17.0, f32::MIN_POSITIVE] {
            let rendered = hit_line("docs/a.txt", 2, score);
            let hit = parse_hit_line(rendered.trim_end()).unwrap();
            assert_eq!(&*hit.path, "docs/a.txt");
            assert_eq!(hit.matched_terms, 2);
            assert_eq!(hit.score.to_bits(), score.to_bits(), "score {score} must round-trip");
        }
        // Unscored hits keep the score field off the wire entirely.
        assert!(!hit_line("a.txt", 1, 0.0).contains("score="));
        // A path containing " score=" only confuses nobody: the trailing
        // field wins, and a non-float suffix falls back to the whole line.
        let hit = parse_hit_line("odd score=x.txt (1 terms) score=2.5").unwrap();
        assert_eq!(&*hit.path, "odd score=x.txt");
        assert_eq!(hit.score, 2.5);
        let hit = parse_hit_line("odd score=x.txt (1 terms)").unwrap();
        assert_eq!(&*hit.path, "odd score=x.txt");
        assert_eq!(hit.score, 0.0);
    }

    #[test]
    fn routed_responses_render_shard_health_and_parse_back() {
        use dsearch_obs::{ShardSpan, Span, Stage};
        let mut trace = dsearch_obs::QueryTrace::new(0xbeef);
        trace.record(Stage::Scatter, Duration::from_micros(40));
        trace.push_shard(ShardSpan {
            shard: "127.0.0.1:7471".into(),
            rtt: Duration::from_micros(39),
            stages: vec![Span { stage: Stage::Postings, dur: Duration::from_micros(12) }],
        });
        let response = crate::route::RoutedResponse {
            query: "rust".into(),
            hits: vec![RankedHit::new("a.txt", 2, 1.25)],
            shards_total: 2,
            shard_failures: vec![(
                "127.0.0.1:7472".into(),
                crate::route::ShardError::Unavailable("gone".into()),
            )],
            latency: Duration::from_micros(88),
            deadline_exceeded: false,
            trace: Arc::new(trace),
        };
        let text = render_routed_response(&response);
        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        assert!(parsed.ok);
        assert_eq!(parsed.hit_count(), 1);
        assert_eq!(parsed.field("shards"), Some("1/2"));
        assert_eq!(parsed.field("partial"), Some("true"));
        assert_eq!(parsed.trace_id(), Some(0xbeef));
        let parsed_hit = parse_hit_line(&parsed.body[0]).unwrap();
        assert_eq!(&*parsed_hit.path, "a.txt");
        assert_eq!(parsed_hit.score, 1.25, "scores survive the routed wire");
        // The shard timing block renders as a comment line the hit parser
        // ignores and the shard-span parser reads back.
        assert!(parsed.body[1].starts_with("# shard 127.0.0.1:7471 rtt="), "{}", parsed.body[1]);
        assert!(parse_hit_line(&parsed.body[1]).is_none());
        let shards = parsed.shard_spans();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].shard, "127.0.0.1:7471");
        assert_eq!(shards[0].rtt, Duration::from_micros(39));
        assert_eq!(
            shards[0].stages,
            vec![Span { stage: Stage::Postings, dur: Duration::from_micros(12) }]
        );
        assert!(parse_shard_line("a.txt (2 terms)").is_none());
    }

    #[test]
    fn info_with_body_renders_every_line_before_end() {
        let text = render_info_with_body("router shards=2", ["shard a ok", "shard b DOWN"]);
        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        assert!(parsed.ok);
        assert_eq!(parsed.field("shards"), Some("2"));
        assert_eq!(parsed.body, vec!["shard a ok", "shard b DOWN"]);
    }

    #[test]
    fn errors_render_with_end_marker() {
        let err = ServerError::ShuttingDown;
        let text = render_error(&err);
        assert!(text.starts_with("ERR "));
        assert!(text.ends_with("END\n"));
        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        assert!(!parsed.ok);
        assert!(parsed.status.contains("shutting down"));
    }

    #[test]
    fn info_lines_round_trip() {
        let text = render_info("queries=10 qps=5.0");
        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        assert!(parsed.ok);
        assert!(parsed.status.contains("qps=5.0"));
        assert!(parsed.body.is_empty());
    }

    #[test]
    fn status_fields_parse_by_name() {
        let text = render_info("queries=10 shed=3 dedup_hits=7 generation=2");
        let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
        let parsed = read_response(&mut lines).unwrap().unwrap();
        assert_eq!(parsed.field("shed"), Some("3"));
        assert_eq!(parsed.field("dedup_hits"), Some("7"));
        assert_eq!(parsed.field("queries"), Some("10"));
        assert_eq!(parsed.generation(), Some(2));
        // Prefix names never match a longer field.
        assert_eq!(parsed.field("dedup"), None);
        assert_eq!(parsed.field("missing"), None);
    }
}
