//! Admission-control acceptance tests: open-loop load past a tiny queue
//! bound must shed (and the shed count must be visible through the `!stats`
//! protocol verb), while closed-loop load that stays under the bound must
//! never shed.

use std::sync::Arc;

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_server::protocol::read_response;
use dsearch_server::LineHandler;
use dsearch_server::{
    loadgen, BatchConfig, EngineConfig, Handled, IndexSnapshot, LoadConfig, LoadMode, QueryEngine,
    Service, Workload,
};
use dsearch_text::Term;

/// A snapshot with a wide vocabulary so broad prefix queries cost real work
/// (a `w*` query unions all 8 000 single-document posting lists through the
/// k-way merge), keeping a single worker busy long enough for an open-loop
/// generator to overrun a small queue.
fn wide_snapshot() -> IndexSnapshot {
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    for doc in 0..400u32 {
        let id = docs.insert(format!("doc{doc}.txt"));
        let words = (0..20).map(|w| Term::from(format!("w{:05}", doc * 20 + w)));
        index.insert_file(id, words);
    }
    IndexSnapshot::from_index(index, docs, 1)
}

/// Distinct heavy queries: every one unions the entire vocabulary (`w*`),
/// and the varying second OR group keeps the canonical forms distinct so
/// none is answerable from the (tiny) cache.  The dictionary-backed prefix
/// range made narrow prefixes cheap, so the sustained pressure this suite
/// needs has to come from the merge itself, not the term scan.
fn scan_workload(distinct: usize) -> Workload {
    Workload::from_queries((0..distinct).map(|i| format!("w* OR w{:03}*", i % 1000)).collect())
}

fn bounded_engine(queue_bound: usize) -> Arc<QueryEngine> {
    QueryEngine::new(
        wide_snapshot(),
        EngineConfig {
            workers: 1,
            cache_capacity: 1,
            cache_shards: 1,
            result_limit: 10,
            batch: BatchConfig { max_batch: 1, queue_bound },
            ..EngineConfig::default()
        },
    )
    .unwrap()
}

fn stats_field(service: &Service, name: &str) -> u64 {
    let Handled::Respond(text) = service.handle("!stats") else {
        panic!("!stats must respond");
    };
    let mut lines = text.lines().map(|l| Ok::<_, std::io::Error>(l.to_string()));
    let parsed = read_response(&mut lines).unwrap().unwrap();
    assert!(parsed.ok, "{text}");
    parsed
        .field(name)
        .unwrap_or_else(|| panic!("stats line missing {name}: {text}"))
        .parse()
        .unwrap_or_else(|_| panic!("stats field {name} not a number: {text}"))
}

#[test]
fn open_loop_overload_sheds_and_reports_via_stats() {
    let engine = bounded_engine(2);
    let service = Arc::new(Service::start(Arc::clone(&engine), None));

    // 500 submissions at 200k qps against one worker doing full-vocabulary
    // merges behind a depth-2 queue: the generator must overrun the bound.
    let report = loadgen::run(
        service.pool(),
        &scan_workload(500),
        &LoadConfig {
            requests: 500,
            mode: LoadMode::Open { rate_qps: 200_000.0 },
            stage_report: false,
            deadline_ms: None,
        },
    );

    assert!(report.shed > 0, "an overrun bounded queue must shed: {report}");
    assert_eq!(report.errors, 0, "shedding is not an error: {report}");
    assert_eq!(
        report.shed + report.latency.samples,
        500,
        "every request was either served or shed: {report}"
    );

    // The shed count is visible to protocol clients via !stats.
    let shed = stats_field(&service, "shed");
    assert_eq!(shed, report.shed as u64);
    assert_eq!(stats_field(&service, "queries") as usize, report.latency.samples);
}

#[test]
fn closed_loop_under_the_bound_sheds_nothing() {
    let engine = bounded_engine(4);
    let service = Arc::new(Service::start(Arc::clone(&engine), None));

    // Two synchronous clients can keep at most two requests outstanding —
    // under a bound of four, admission control must never trigger.
    let report = loadgen::run(
        service.pool(),
        &scan_workload(64),
        &LoadConfig {
            requests: 200,
            mode: LoadMode::Closed { clients: 2 },
            stage_report: false,
            deadline_ms: None,
        },
    );

    assert_eq!(report.shed, 0, "closed-loop under the bound must not shed: {report}");
    assert_eq!(report.errors, 0, "{report}");
    assert_eq!(report.latency.samples, 200);
    assert_eq!(stats_field(&service, "shed"), 0);
    assert_eq!(stats_field(&service, "queries"), 200);
}
