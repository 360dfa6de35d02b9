//! The contract between the two stats surfaces, stated once.
//!
//! `!stats` is a rendering of a subset of `!metrics`: for `dsearch serve`
//! (a `QueryEngine` behind `Service`) and for `dsearch route` (a `Router`
//! over two `LocalShards`), after a few hits, misses, a parse error and an
//! expired shed,
//!
//! * the `name=` keys of the status line (bracket groups included) are the
//!   ones the wire has always had — nothing renamed, nothing dropped;
//! * every key that a table row declares has its series in the `!metrics`
//!   exposition, and the two values agree;
//! * the cache's counters and the snapshot's figures, which `!stats` always
//!   showed and `!metrics` never did, are series like any other.

use std::sync::Arc;

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_server::stats::{Shown, TABLE};
use dsearch_server::{
    AdmissionPolicy, EngineConfig, Handled, IndexSnapshot, LineHandler, LocalShards, QueryEngine,
    RouteService, Router, RouterConfig, Service, ShardBackend,
};
use dsearch_text::Term;

/// The keys of `dsearch serve`'s status line at the parent of the PR that
/// introduced the metric table, in line order (`name[` opens a group), and
/// `inline` (`dsearch_inline_total`), which joined the batching keys with the
/// execution slots.
const SERVE_KEYS: &[&str] = &[
    "queries",
    "errors",
    "shed",
    "expired",
    "deadline_exceeded",
    "retry_exhausted",
    "inline",
    "batched",
    "dedup_hits",
    "adaptive_waits",
    "adaptive_skips",
    "shard_errors",
    "partial",
    "qps",
    "generation",
    "blocks_scored",
    "blocks_skipped",
    "cache_hit_rate",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_rejected",
    "conns",
    "conns_rejected",
    "idle_closed",
    "latency[",
    "index[",
    "shards",
    "postings",
    "posting_bytes",
    "raw_bytes",
    "compression",
    "load_ms",
    "resident_bytes",
    "cache[",
    "entries",
    "bytes",
];

/// The same for `dsearch route` (after its `router` tag).
const ROUTE_KEYS: &[&str] = &[
    "queries",
    "errors",
    "shed",
    "expired",
    "deadline_exceeded",
    "retry_exhausted",
    "inline",
    "dedup_hits",
    "shard_errors",
    "partial",
    "cache_hits",
    "cache_misses",
    "qps",
    "shards",
    "shards_down",
    "shards_queries",
    "shards_errors",
    "shards_shed",
    "shards_batched",
    "shards_dedup_hits",
    "latency[",
];

/// The counters the repo benchmark's per-layer pass reads off either line,
/// each by the first field of its name.
const BENCHMARK_KEYS: &[&str] = &[
    "queries",
    "batched",
    "dedup_hits",
    "shed",
    "partial",
    "conns_rejected",
    "blocks_scored",
    "blocks_skipped",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_rejected",
];

/// A one-entry TinyLFU cache: a second distinct query is refused until it has
/// been requested more often than the entry it would evict.
fn engine_over(files: &[(&str, &[&str])]) -> Arc<QueryEngine> {
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    for (path, words) in files {
        let id = docs.insert(*path);
        index.insert_file(id, words.iter().map(|w| Term::from(*w)));
    }
    QueryEngine::new(
        IndexSnapshot::from_index(index, docs, 1),
        EngineConfig {
            workers: 1,
            cache_capacity: 1,
            cache_shards: 1,
            cache_admission: AdmissionPolicy::TinyLfu,
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

const LEFT: &[(&str, &[&str])] =
    &[("a.txt", &["rust", "parallel", "index"]), ("b.txt", &["rust", "search"])];
const RIGHT: &[(&str, &[&str])] = &[("c.txt", &["java", "search"]), ("d.txt", &["rust"])];

/// Hits, misses, a refused and an evicting insert, a parse error, a shed.
const TRAFFIC: &[&str] =
    &["rust", "rust", "search", "search", "search", "rust", "AND", "@d=0 rust"];

/// Drives `TRAFFIC` and returns the `!stats` status line (sans `OK`) and the
/// `!metrics` body.
fn drive(service: &impl LineHandler) -> (String, Vec<String>) {
    let answer = |line: &str| match service.handle(line) {
        Handled::Respond(text) => text,
        other => panic!("{line:?} answered {other:?}"),
    };
    for line in TRAFFIC {
        answer(line);
    }
    let stats = answer("!stats");
    let status = stats.lines().next().unwrap().strip_prefix("OK ").expect("an OK answer");
    let metrics = answer("!metrics");
    let body = metrics.lines().skip(1).take_while(|line| *line != "END").map(str::to_owned);
    (status.to_owned(), body.collect())
}

/// The line's fields: `name=value` tokens and `group[` openers, in order.
fn fields(status: &str) -> Vec<(String, String)> {
    status
        .split([' ', ']'])
        .flat_map(|token| match token.split_once('[') {
            Some((group, rest)) => vec![format!("{group}["), rest.to_owned()],
            None => vec![token.to_owned()],
        })
        .filter_map(|token| match token.split_once('=') {
            Some((name, value)) => Some((name.to_owned(), value.to_owned())),
            None => token.ends_with('[').then(|| (token, String::new())),
        })
        .collect()
}

fn keys(status: &str) -> Vec<String> {
    fields(status).into_iter().map(|(name, _)| name).collect()
}

/// The first field called `name`, as the benchmark's parser reads it.
fn field(status: &str, name: &str) -> f64 {
    let (_, value) = fields(status)
        .into_iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no {name}= in {status}"));
    value.trim_end_matches('x').parse().unwrap_or_else(|_| panic!("{name}={value} in {status}"))
}

/// The sample of the unlabelled series `name`, with its declared kind.
fn series(metrics: &[String], name: &str) -> Option<(f64, String)> {
    let kind = metrics.iter().find_map(|line| line.strip_prefix(&format!("# TYPE {name} ")))?;
    let sample = metrics.iter().find_map(|line| line.strip_prefix(&format!("{name} ")))?;
    Some((sample.parse().unwrap(), kind.to_owned()))
}

/// (b): every keyed row of the table is a series, and the surfaces agree.
fn rows_agree(status: &str, metrics: &[String], serves_index: bool) {
    for row in TABLE {
        let key = match row.shown {
            Shown::Nowhere => continue,
            Shown::Index(_) if !serves_index => {
                assert!(series(metrics, row.series).is_none(), "{} on a router", row.series);
                continue;
            }
            Shown::Line(key) | Shown::Index(key) | Shown::Cache(key) => key,
        };
        let (sample, kind) = series(metrics, row.series)
            .unwrap_or_else(|| panic!("{key}= has no series {} in !metrics", row.series));
        assert_eq!(kind, format!("{:?}", row.kind).to_lowercase(), "{}", row.series);
        let shown = field(status, key);
        if row.series.ends_with("_seconds") {
            assert!((sample * 1e3 - shown).abs() < 0.06, "{key}={shown} vs {sample} s");
        } else {
            assert_eq!(shown, sample, "{key}= vs {}", row.series);
        }
    }
}

#[test]
fn serve_stats_is_a_rendering_of_its_metrics() {
    let service = Service::start(engine_over(LEFT), None);
    let (status, metrics) = drive(&service);
    // (a) exactly the keys the wire has always had, in their order.
    assert_eq!(keys(&status), SERVE_KEYS, "{status}");
    rows_agree(&status, &metrics, true);
    // (c) the figures that used to be `!stats`-only.
    for (key, name) in [
        ("cache_hits", "dsearch_cache_hits_total"),
        ("cache_misses", "dsearch_cache_misses_total"),
        ("cache_evictions", "dsearch_cache_evictions_total"),
        ("cache_rejected", "dsearch_cache_rejected_total"),
        ("generation", "dsearch_snapshot_generation"),
        ("shards", "dsearch_snapshot_shards"),
        ("postings", "dsearch_snapshot_postings"),
        ("posting_bytes", "dsearch_snapshot_posting_bytes"),
    ] {
        let (sample, _) = series(&metrics, name).unwrap_or_else(|| panic!("no series {name}"));
        assert!(sample > 0.0, "{name} is zero after {TRAFFIC:?}");
        assert_eq!(field(&status, key), sample, "{key}= vs {name}");
    }
    // The second `rust` hits; `search` is refused twice, then evicts `rust`,
    // whose return is refused in turn.
    assert_eq!(field(&status, "cache_hits"), 1.0, "{status}");
    assert_eq!(field(&status, "cache_rejected"), 3.0, "{status}");
    assert_eq!(field(&status, "cache_evictions"), 1.0, "{status}");
    assert_eq!((field(&status, "errors"), field(&status, "shed")), (1.0, 1.0), "{status}");
    assert_eq!(field(&status, "expired"), 1.0, "{status}");
    // One connection never waits for a slot: everything but the shed ran
    // where it arrived.
    assert_eq!(field(&status, "inline"), 7.0, "{status}");
}

#[test]
fn route_stats_is_the_same_rendering_over_the_routers_registry() {
    let local = |files, id: &str| -> Box<dyn ShardBackend> {
        Box::new(LocalShards::new(engine_over(files)).with_id(id))
    };
    let router = Router::new(
        vec![local(LEFT, "left"), local(RIGHT, "right")],
        RouterConfig { workers: 1, cache_capacity: 1, cache_shards: 1, ..RouterConfig::default() },
    )
    .unwrap();
    let service = RouteService::start(router);
    let (status, metrics) = drive(&service);
    let status = status.strip_prefix("router ").expect("the router's tag");
    // (a) a superset of the keys the router's line has always had, each of
    // the benchmark's still the first field of its name.
    let keys = keys(status);
    for key in ROUTE_KEYS {
        assert!(keys.iter().any(|k| k == key), "{key} dropped from {status}");
    }
    for key in BENCHMARK_KEYS {
        let first = keys.iter().position(|k| k.ends_with(key)).unwrap();
        assert_eq!(keys[first], *key, "{key} is shadowed in {status}");
    }
    // `shards=` is the router's backend count: it serves no snapshot.
    assert_eq!(field(status, "shards"), 2.0, "{status}");
    assert!(!keys.iter().any(|k| k == "index["), "{status}");
    rows_agree(status, &metrics, false);
    // (c) one plain LRU entry: both repeats of a query hit, the rest evict.
    for (key, name) in [
        ("cache_hits", "dsearch_cache_hits_total"),
        ("cache_misses", "dsearch_cache_misses_total"),
        ("cache_evictions", "dsearch_cache_evictions_total"),
        ("generation", "dsearch_snapshot_generation"),
    ] {
        let (sample, _) = series(&metrics, name).unwrap_or_else(|| panic!("no series {name}"));
        assert!(sample > 0.0, "{name} is zero after {TRAFFIC:?}");
        assert_eq!(field(status, key), sample, "{key}= vs {name}");
    }
    assert_eq!((field(status, "errors"), field(status, "shed")), (1.0, 1.0), "{status}");
    assert_eq!(field(status, "shards_queries"), 6.0, "three scatters to two shards: {status}");
    assert_eq!(field(status, "inline"), 7.0, "{status}");
}
