//! End-to-end observability over a live cluster: a two-shard `dsearch
//! serve` + `dsearch route` topology (real TCP on every hop), scraped with
//! `!metrics` from both tiers.  The exposition must be well-formed
//! Prometheus text — one `# TYPE` per family, every sample numeric and
//! belonging to a declared family, histogram `+Inf` buckets equal to their
//! `_count` — and the tracing surface (`@id` prefixes, `!trace`, `!slow`)
//! must attribute a routed query's wall time to named stages end to end.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_server::protocol::{read_response, ParsedResponse};
use dsearch_server::{
    EngineConfig, IndexSnapshot, QueryEngine, RemoteShard, RemoteShardConfig, RouteService, Router,
    RouterConfig, Service, ShardBackend, TcpServer,
};
use dsearch_text::Term;

fn engine_over(files: &[(&str, &[&str])]) -> Arc<QueryEngine> {
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    for (path, words) in files {
        let id = docs.insert(*path);
        index.insert_file(id, words.iter().map(|w| Term::from(*w)));
    }
    QueryEngine::new(
        IndexSnapshot::from_index(index, docs, 1),
        EngineConfig { workers: 2, ..EngineConfig::default() },
    )
    .unwrap()
}

fn shard_server(files: &[(&str, &[&str])]) -> (Arc<Service>, TcpServer, String) {
    let service = Arc::new(Service::start(engine_over(files), None));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    (service, server, addr)
}

fn remote(addr: &str) -> Box<dyn ShardBackend> {
    Box::new(RemoteShard::with_config(
        addr,
        RemoteShardConfig {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            max_pooled: 2,
        },
    ))
}

/// A line-protocol client over one TCP connection.
struct Client {
    stream: TcpStream,
    reader: Lines<BufReader<TcpStream>>,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap()).lines();
        Client { stream, reader }
    }

    fn request(&mut self, line: &str) -> ParsedResponse {
        writeln!(self.stream, "{line}").unwrap();
        read_response(&mut self.reader).unwrap().unwrap()
    }
}

/// Validates Prometheus text-exposition well-formedness and returns the
/// declared families (`name -> kind`).
fn check_exposition(lines: &[String]) -> BTreeMap<String, String> {
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    // series name (with labels, sans le) -> (inf_bucket, count)
    let mut histogram_series: BTreeMap<String, (Option<u64>, Option<u64>)> = BTreeMap::new();

    for line in lines {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a name").to_owned();
            let kind = parts.next().expect("TYPE line has a kind").to_owned();
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind.as_str()),
                "unknown kind: {line}"
            );
            let previous = families.insert(name, kind);
            assert!(previous.is_none(), "duplicate # TYPE: {line}");
            continue;
        }
        assert!(!line.starts_with('#'), "only # TYPE comments are emitted: {line}");

        // Sample line: `name value` or `name{labels} value`; the value is
        // always the last whitespace token and always numeric.
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("non-numeric sample: {line}"));
        assert!(value >= 0.0, "negative sample: {line}");
        let name = series.split('{').next().unwrap();

        // Resolve the family: histogram samples use _bucket/_sum/_count
        // suffixes on the family name.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| families.get(*base).is_some_and(|kind| kind == "histogram"))
            .unwrap_or(name);
        assert!(
            families.contains_key(family),
            "sample without a # TYPE declaration: {line} (family {family})"
        );

        // Track per-series +Inf bucket vs _count for the histogram invariant.
        if let Some(base) = name.strip_suffix("_bucket") {
            if series.contains("le=\"+Inf\"") {
                let key = format!("{base}{}", strip_le_label(series));
                histogram_series.entry(key).or_default().0 = Some(value as u64);
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if families.get(base).is_some_and(|kind| kind == "histogram") {
                let labels = series.strip_prefix(name).unwrap_or("");
                let key = format!("{base}{labels}");
                histogram_series.entry(key).or_default().1 = Some(value as u64);
            }
        }
    }

    assert!(!families.is_empty(), "empty exposition");
    for (series, (inf, count)) in &histogram_series {
        assert_eq!(
            inf.expect("+Inf bucket present"),
            count.unwrap_or_else(|| panic!("no _count for {series}")),
            "histogram {series}: +Inf bucket != _count"
        );
    }
    families
}

/// Drops the `le="…"` pair from a `_bucket` series so it keys with `_count`.
fn strip_le_label(series: &str) -> String {
    let Some((name, labels)) = series.split_once('{') else {
        return String::new();
    };
    let _ = name;
    let kept: Vec<&str> =
        labels.trim_end_matches('}').split(',').filter(|pair| !pair.starts_with("le=")).collect();
    if kept.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", kept.join(","))
    }
}

const SHARD_A: &[(&str, &[&str])] = &[
    ("a.txt", &["rust", "index", "parallel"]),
    ("b.txt", &["rust", "search"]),
    ("c.txt", &["java", "search", "index"]),
];
const SHARD_B: &[(&str, &[&str])] = &[
    ("m.txt", &["parallel", "search", "rust"]),
    ("n.txt", &["rust", "index"]),
    ("o.txt", &["java", "parallel"]),
];

#[test]
fn cluster_metrics_and_tracing_end_to_end() {
    let (_svc0, server0, addr0) = shard_server(SHARD_A);
    let (_svc1, server1, addr1) = shard_server(SHARD_B);
    let router =
        Router::new(vec![remote(&addr0), remote(&addr1)], RouterConfig::default()).unwrap();
    let route_service = Arc::new(RouteService::start(router));
    let route_server = TcpServer::bind(Arc::clone(&route_service), "127.0.0.1:0").unwrap();
    let route_addr = route_server.local_addr().to_string();

    let mut client = Client::connect(&route_addr);

    // Warm the pipeline with untraced traffic first.
    for raw in ["rust", "rust search", "index OR java", "parallel NOT java"] {
        let response = client.request(raw);
        assert!(response.ok, "{raw}: {}", response.status);
        assert!(response.trace_id().is_none(), "untraced query must not carry an id");
    }

    // A client-traced query: `@id` comes back on the response together with
    // the router's stage breakdown and one block per shard.  The query text
    // is deliberately not one of the warmed spellings: a cache hit does no
    // postings work, and zero-duration stages are (correctly) not recorded.
    let traced = client.request("@c0ffee parallel index");
    assert!(traced.ok, "{}", traced.status);
    assert_eq!(traced.trace_id(), Some(0xc0ffee));
    let stages = traced.stages();
    assert!(!stages.is_empty(), "traced response must carry stages: {}", traced.status);
    let names: Vec<&str> = stages.iter().map(|span| span.stage.as_str()).collect();
    assert!(names.contains(&"parse"), "{names:?}");
    assert!(names.contains(&"scatter"), "{names:?}");
    assert!(names.contains(&"merge"), "{names:?}");
    let shard_spans = traced.shard_spans();
    assert_eq!(shard_spans.len(), 2, "one block per shard: {:?}", traced.body);
    for span in &shard_spans {
        assert!(span.shard == addr0 || span.shard == addr1, "{}", span.shard);
        assert!(span.rtt > Duration::ZERO);
        assert!(
            span.stages.iter().any(|s| s.stage.as_str() == "postings"),
            "shard stages missing postings: {:?}",
            span.stages
        );
    }
    // ≥95% of the response's wall time is attributed to named stages.
    let attributed: Duration = stages.iter().map(|span| span.dur).sum();
    let total_us: u64 = traced.field("micros").expect("micros on status").parse().unwrap();
    let total = Duration::from_micros(total_us);
    assert!(
        attributed.as_secs_f64() >= 0.95 * total.as_secs_f64(),
        "stages attribute {attributed:?} of {total:?}: {stages:?}"
    );

    // Arm the slow log at 0µs so every query qualifies, run one, dump it.
    let armed = client.request("!trace 0");
    assert!(armed.ok, "{}", armed.status);
    assert!(armed.status.contains("trace armed"), "{}", armed.status);
    let response = client.request("rust index");
    assert!(response.ok);
    let slow = client.request("!slow");
    assert!(slow.ok, "{}", slow.status);
    assert!(!slow.body.is_empty(), "slow log must have entries: {}", slow.status);
    let entry = slow.body.join("\n");
    assert!(entry.contains("stages="), "{entry}");
    assert!(entry.contains("shard "), "slow entries carry shard blocks: {entry}");
    let off = client.request("!trace off");
    assert!(off.ok, "{}", off.status);

    // Scrape the router.
    let scraped = client.request("!metrics");
    assert!(scraped.ok, "{}", scraped.status);
    assert!(scraped.status.starts_with("metrics lines="), "{}", scraped.status);
    let families = check_exposition(&scraped.body);
    assert_eq!(families.get("dsearch_queries_total").map(String::as_str), Some("counter"));
    assert_eq!(families.get("dsearch_conns_active").map(String::as_str), Some("gauge"));
    assert_eq!(families.get("dsearch_query_latency_ns").map(String::as_str), Some("histogram"));
    assert_eq!(families.get("dsearch_stage_latency_ns").map(String::as_str), Some("histogram"));
    assert_eq!(families.get("dsearch_shard_rtt_ns").map(String::as_str), Some("histogram"));
    let text = scraped.body.join("\n");
    for stage in ["parse", "scatter", "merge"] {
        assert!(
            text.contains(&format!("dsearch_stage_latency_ns_count{{stage=\"{stage}\"}}")),
            "router missing stage histogram {stage}:\n{text}"
        );
    }
    for addr in [&addr0, &addr1] {
        assert!(
            text.contains(&format!("dsearch_shard_rtt_ns_count{{shard=\"{addr}\"}}")),
            "router missing shard rtt histogram for {addr}:\n{text}"
        );
    }

    // Scrape a shard directly: same format, shard-side stage histograms.
    let mut shard_client = Client::connect(&addr0);
    let scraped = shard_client.request("!metrics");
    assert!(scraped.ok, "{}", scraped.status);
    let families = check_exposition(&scraped.body);
    assert_eq!(families.get("dsearch_queries_total").map(String::as_str), Some("counter"));
    assert_eq!(families.get("dsearch_stage_latency_ns").map(String::as_str), Some("histogram"));
    let text = scraped.body.join("\n");
    for stage in ["parse", "postings", "intersect_merge", "serialize"] {
        assert!(
            text.contains(&format!("dsearch_stage_latency_ns_count{{stage=\"{stage}\"}}")),
            "shard missing stage histogram {stage}:\n{text}"
        );
    }

    // The footprint gauges are brought up to date by the scrape itself and
    // agree with the `!stats` line: the shard served queries above, so both
    // its image and its cache hold bytes.
    let gauge = |name: &str| -> u64 {
        let line = scraped.body.iter().find(|l| l.starts_with(&format!("{name} "))).unwrap();
        line.rsplit(' ').next().unwrap().parse().unwrap()
    };
    assert_eq!(families.get("dsearch_snapshot_resident_bytes").map(String::as_str), Some("gauge"));
    assert_eq!(families.get("dsearch_cache_resident_bytes").map(String::as_str), Some("gauge"));
    let stats = shard_client.request("!stats").status;
    assert!(gauge("dsearch_snapshot_resident_bytes") > 0);
    assert!(
        stats.contains(&format!(" resident_bytes={}]", gauge("dsearch_snapshot_resident_bytes"))),
        "{stats}"
    );
    assert!(gauge("dsearch_cache_resident_bytes") > 0);
    assert!(
        stats.contains(&format!(" bytes={}]", gauge("dsearch_cache_resident_bytes"))),
        "{stats}"
    );

    route_server.stop();
    server0.stop();
    server1.stop();
}

#[test]
fn single_node_trace_lifecycle_over_tcp() {
    let (_service, server, addr) = shard_server(SHARD_A);
    let mut client = Client::connect(&addr);

    // Reports "off" before arming; rejects garbage thresholds.
    let state = client.request("!trace");
    assert!(state.ok && state.status.contains("off"), "{}", state.status);
    let bad = client.request("!trace sometimes");
    assert!(!bad.ok, "{}", bad.status);
    assert!(bad.status.contains("usage"), "{}", bad.status);

    // `on` arms at 0µs (log everything); µs suffixes parse.
    let armed = client.request("!trace 250us");
    assert!(armed.ok && armed.status.contains("threshold_us=250"), "{}", armed.status);
    let armed = client.request("!trace on");
    assert!(armed.ok, "{}", armed.status);

    let response = client.request("rust");
    assert!(response.ok);
    assert!(response.trace_id().is_none());
    // Even untraced responses carry the serialize stage measurement.
    assert!(!response.stages().is_empty(), "stages missing: {}", response.status);

    let slow = client.request("!slow");
    assert!(slow.ok && !slow.body.is_empty(), "{}", slow.status);
    assert!(slow.body[0].contains("query="), "{}", slow.body[0]);
    assert!(slow.body[0].contains("stages="), "{}", slow.body[0]);

    let off = client.request("!trace off");
    assert!(off.ok && off.status.contains("off"), "{}", off.status);
    server.stop();
}
