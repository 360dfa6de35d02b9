//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to.  Spans stay in memory while the run measures and
//! are written out once, when it ends.  A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::{count, obj, render, text, Value};

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, [`u32::MAX`] for a root.
    pub parent: u32,
    /// Identifier shared by the spans of one request (or file).
    pub request: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span called `name`; spans opened by `work` (it is
    /// handed the tracer back) become its children.  Returns `work`'s value
    /// and the span's duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(index);
        let value = work(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index as usize].end_ns = end_ns;
        (value, end_ns - start_ns)
    }

    /// A span around a call that opens no spans of its own.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        request: u64,
        work: impl FnOnce() -> T,
    ) -> (T, u64) {
        self.span(name, request, |_| work())
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, grouped by span name, in nanoseconds.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                covered[span.parent as usize] += span.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            by_name.entry(span.name).or_default().push(span.duration_ns().saturating_sub(covered));
        }
        by_name
    }

    /// Total self time of the spans called `name`, in seconds.
    #[must_use]
    pub fn total_self_s(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |times| times.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be written.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        // One span per line, rendered one at a time: a trace holds tens of
        // thousands of spans and need not exist twice in memory.
        writeln!(out, "{{\"workload\":{},\"unit\":\"ns\",\"spans\":[", render(&text(workload)))?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent =
                if span.parent == ROOT { Value::Int(-1) } else { count(u64::from(span.parent)) };
            let line = obj([
                ("id", count(i as u64)),
                ("name", text(span.name)),
                ("start", count(span.start_ns)),
                ("end", count(span.end_ns)),
                ("parent", parent),
                ("request", count(span.request)),
            ]);
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(out, "{}{comma}", render(&line))?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Median of a list of nanosecond values (0 for an empty list).
#[must_use]
pub fn median_ns(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    crate::stats::quantile_sorted(&sorted, 0.5) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{get, get_num, get_str};

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new();
        let spin = |ns: u64| {
            let started = Instant::now();
            while (started.elapsed().as_nanos() as u64) < ns {}
        };
        for request in 0..3 {
            tracer.span("request", request, |t| {
                t.leaf("parse", request, || spin(200_000));
                t.span("eval", request, |t| {
                    spin(100_000);
                    t.leaf("postings", request, || spin(300_000));
                });
                spin(50_000);
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 12);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2, "postings is a child of eval");
        assert_eq!(spans[4].parent, ROOT, "the next request is a new root");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[5].request, 1);

        let self_times = tracer.self_times();
        let median = |name: &str| median_ns(&self_times[name]);
        // request = 50 µs of its own; eval = 100 µs of its own.
        assert!((45_000.0..150_000.0).contains(&median("request")), "{}", median("request"));
        assert!((95_000.0..200_000.0).contains(&median("eval")), "{}", median("eval"));
        assert!(median("postings") >= 300_000.0);
        // Self times tile the roots: nothing is counted twice.
        let total_self: u64 = self_times.values().flatten().sum();
        let total_roots: u64 =
            spans.iter().filter(|s| s.parent == ROOT).map(Span::duration_ns).sum();
        assert_eq!(total_self, total_roots);
    }

    #[test]
    fn the_trace_file_is_json_with_every_span() {
        let mut tracer = Tracer::new();
        tracer.span("outer", 7, |t| {
            t.leaf("inner", 7, || ());
        });
        let dir = crate::procs::TempDir::new_in(&crate::test_dir(), "trace").unwrap();
        let path = dir.path().join("trace.json");
        tracer.write_json(&path, "serve_cold").unwrap();
        let parsed = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(get_str(&parsed, "workload"), Some("serve_cold"));
        let spans = get(&parsed, "spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(get_num(&spans[0], "parent"), Some(-1.0));
        assert_eq!(get_num(&spans[1], "parent"), Some(0.0));
        assert_eq!(get_str(&spans[1], "name"), Some("inner"));
        assert_eq!(get_num(&spans[1], "request"), Some(7.0));
    }
}
