//! Scatter-gather integration: a [`Router`] over two real TCP shard servers
//! (each a full [`Service`] + [`TcpServer`], exactly what `dsearch serve`
//! runs) must merge per-shard rankings into the same answers a single
//! snapshot over the union corpus produces, and must degrade to partial
//! results — not errors — when a shard goes down mid-run or cuts a reply
//! short.

use std::sync::Arc;
use std::time::Duration;

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_query::Query;
use dsearch_server::{
    EngineConfig, Handled, IndexSnapshot, LineHandler, Metric, QueryEngine, RemoteShard,
    RemoteShardConfig, RouteService, Router, RouterConfig, Service, ShardBackend, TcpServer,
};
use dsearch_text::Term;

use dsearch_query::RankedHit;

/// The corpus, split into two shards by the leading path letter.  Paths are
/// inserted in ascending order so the union snapshot's file-id tie order
/// matches the router's path tie order and answers compare exactly.
const CORPUS: &[(&str, &[&str])] = &[
    ("a.txt", &["rust", "index", "parallel"]),
    ("b.txt", &["rust", "search"]),
    ("c.txt", &["java", "search", "index"]),
    ("d.txt", &["rust", "java"]),
    ("m.txt", &["parallel", "search", "rust"]),
    ("n.txt", &["rust", "index"]),
    ("o.txt", &["java", "parallel"]),
    ("p.txt", &["search", "indexing"]),
];

const QUERIES: &[&str] = &[
    "rust",
    "rust search",
    "index OR java",
    "inde*",
    "rust NOT java",
    "parallel rust OR java search",
    "missingterm",
];

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

/// Boots one shard server on an ephemeral port, returning its front end and
/// address.
fn shard_server(files: &[(&str, &[&str])]) -> (Arc<Service>, TcpServer, String) {
    let service = Arc::new(Service::start(engine_over(files), None));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    (service, server, addr)
}

type Docs = Vec<(&'static str, &'static [&'static str])>;

fn split_corpus() -> (Docs, Docs) {
    let first: Docs = CORPUS.iter().filter(|(p, _)| *p < "m").copied().collect();
    let second: Docs = CORPUS.iter().filter(|(p, _)| *p >= "m").copied().collect();
    (first, second)
}

/// The union corpus as one snapshot holding the *same* two-shard partition
/// the TCP servers serve.  BM25 statistics are per sealed shard, so the
/// partition must match for routed scores to equal local ones bit-for-bit.
fn union_snapshot() -> IndexSnapshot {
    let (first, second) = split_corpus();
    let mut docs = DocTable::new();
    let mut shards = Vec::new();
    for slice in [first, second] {
        let mut index = InMemoryIndex::new();
        for (path, words) in &slice {
            let id = docs.insert(*path);
            index.insert_file(id, words.iter().map(|w| Term::from(*w)));
        }
        shards.push(index);
    }
    IndexSnapshot::from_shards(shards, docs, 1)
}

/// What the serving path answers locally: ranked top-k when the query is
/// scorable, the exhaustive boolean path otherwise.
fn expected_hits(snapshot: &IndexSnapshot, raw: &str) -> Vec<RankedHit> {
    let query = Query::parse(raw).unwrap();
    match snapshot.search_topk(&query, 20, &|| false) {
        Some((results, _)) => results.ranked(),
        None => snapshot.search(&query).ranked(),
    }
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

#[test]
fn router_over_two_tcp_shards_matches_the_union_snapshot() {
    let (first, second) = split_corpus();
    let (_svc0, server0, addr0) = shard_server(&first);
    let (_svc1, server1, addr1) = shard_server(&second);

    let union = union_snapshot();
    let router =
        Router::new(vec![remote(&addr0), remote(&addr1)], RouterConfig::default()).unwrap();

    for raw in QUERIES {
        let routed = router.route(raw).unwrap();
        assert_eq!(routed.shards_total, 2, "query {raw:?}");
        assert!(!routed.partial(), "query {raw:?}: {:?}", routed.shard_failures);
        assert_eq!(routed.hits, expected_hits(&union, raw), "query {raw:?}");
    }
    assert_eq!(router.stats().get(Metric::Queries), QUERIES.len() as u64);
    assert_eq!(router.stats().get(Metric::ShardErrors), 0);

    // Batched routing pipelines the whole batch per shard and answers in
    // submission order with identical results.
    let responses = router.route_batch(QUERIES);
    for (raw, response) in QUERIES.iter().zip(responses) {
        let response = response.unwrap();
        assert_eq!(response.hits, expected_hits(&union, raw), "batched query {raw:?}");
    }

    server0.stop();
    server1.stop();
}

#[test]
fn shard_going_down_mid_run_degrades_to_partial_results() {
    let (first, second) = split_corpus();
    let (_svc0, server0, addr0) = shard_server(&first);
    let (_svc1, server1, addr1) = shard_server(&second);

    // Cache off: this test re-asks the same query across the fault, and a
    // cached complete answer would (correctly) keep serving instead of
    // degrading — the cache-path behaviour has its own regression test.
    let no_cache = RouterConfig { cache_capacity: 0, ..RouterConfig::default() };
    let router = Router::new(vec![remote(&addr0), remote(&addr1)], no_cache.clone()).unwrap();
    let service = RouteService::start(Arc::clone(&router));

    // Healthy run first: both shards answer.
    let healthy = router.route("rust").unwrap();
    assert!(!healthy.partial());
    assert_eq!(healthy.hits.len(), 5, "a, b, d, m, n");

    // Shard 1 dies mid-run.
    server1.stop();

    let degraded = router.route("rust").unwrap();
    assert!(degraded.partial(), "losing a shard must flag the response");
    assert_eq!(degraded.shards_ok(), 1);
    assert_eq!(degraded.shard_failures.len(), 1);
    assert_eq!(degraded.shard_failures[0].0, addr1);
    // Only the surviving shard's documents remain, BM25-ordered: b and d are
    // the shorter documents (higher norm), a is longer, ties break by path.
    let paths: Vec<&str> = degraded.hits.iter().map(|h| &*h.path).collect();
    assert_eq!(paths, vec!["b.txt", "d.txt", "a.txt"]);

    // The protocol front end flags the degradation and counts it.
    let Handled::Respond(response) = service.handle("rust index") else {
        panic!("query should respond");
    };
    assert!(response.contains("shards=1/2 partial=true"), "{response}");
    let Handled::Respond(stats) = service.handle("!stats") else {
        panic!("stats should respond");
    };
    assert!(stats.contains("shard_errors="), "{stats}");
    let shard_errors: u64 = stats
        .split_whitespace()
        .find_map(|token| token.strip_prefix("shard_errors=")?.parse().ok())
        .unwrap();
    assert!(shard_errors >= 2, "both degraded queries count: {stats}");
    assert!(stats.contains(&format!("shard {addr1} DOWN")), "{stats}");
    assert!(stats.contains("shards_down=1"), "{stats}");

    // A shard coming back is picked up without router restarts: bind a new
    // server for the same corpus and a new router at its address.
    let (_svc2, server2, addr2) = shard_server(&second);
    let revived = Router::new(vec![remote(&addr0), remote(&addr2)], no_cache).unwrap();
    let healed = revived.route("rust").unwrap();
    assert!(!healed.partial());
    assert_eq!(healed.hits.len(), 5);

    service.shutdown();
    server0.stop();
    server2.stop();
}

/// A shard that answers two connections one request each: the first with
/// a reply that announces three hits, sends one and closes, the second
/// well-formed, with one hit.
fn cut_then_whole_shard() -> (String, std::thread::JoinHandle<()>) {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shard = std::thread::spawn(move || {
        let hit = "z.txt (1 terms) score=9\n";
        for reply in [
            format!("OK 3 generation=1 micros=5\n{hit}"),
            format!("OK 1 generation=1 micros=5\n{hit}END\n"),
        ] {
            let (stream, _) = listener.accept().unwrap();
            BufReader::new(&stream).read_line(&mut String::new()).unwrap();
            (&stream).write_all(reply.as_bytes()).unwrap();
        }
    });
    (addr, shard)
}

#[test]
fn a_reply_cut_before_end_is_a_shard_failure_and_is_never_cached() {
    let (first, _) = split_corpus();
    let (_svc0, server0, addr0) = shard_server(&first);
    let (cut, shard) = cut_then_whole_shard();
    let router = Router::new(vec![remote(&addr0), remote(&cut)], RouterConfig::default()).unwrap();

    let degraded = router.route("rust").unwrap();
    assert!(degraded.partial(), "a cut reply is not an answer: {degraded:?}");
    assert_eq!(degraded.shard_failures.len(), 1);
    assert_eq!(degraded.shard_failures[0].0, cut);
    assert!(degraded.hits.iter().all(|hit| &*hit.path != "z.txt"), "{:?}", degraded.hits);
    assert_eq!(router.stats().get(Metric::ShardErrors), 1);
    assert_eq!(router.cache_counters().insertions, 0);

    // Once the shard answers well-formed, the same query scatters again (the
    // degraded merge was not cached), is answered in full, and only that
    // answer is cached.
    let whole = router.route("rust").unwrap();
    assert!(!whole.partial(), "{:?}", whole.shard_failures);
    assert_eq!(whole.hits[0].path.as_ref(), "z.txt");
    assert_eq!(router.stats().get(Metric::ShardErrors), 1);
    assert_eq!(router.cache_counters().insertions, 1);
    shard.join().unwrap();
    server0.stop();
}
