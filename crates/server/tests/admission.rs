//! Admission-control acceptance tests: more closed-loop callers than a
//! tiny queue bound can hold must shed (and the shed count must be visible
//! through the `!stats` protocol verb), while callers that stay under the
//! bound must never shed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_server::protocol::read_response;
use dsearch_server::LineHandler;
use dsearch_server::{
    BatchConfig, EngineConfig, Handled, IndexSnapshot, QueryEngine, ServerError, Service,
};
use dsearch_text::Term;

/// A snapshot with a wide vocabulary so broad prefix queries cost real work
/// (a `w*` query unions all 8 000 single-document posting lists through the
/// k-way merge), keeping a single worker busy long enough for an open-loop
/// callers to overrun a small queue.
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
fn scan_queries(distinct: usize) -> Vec<String> {
    (0..distinct).map(|i| format!("w* OR w{:03}*", i % 1000)).collect()
}

/// What `callers` closed-loop threads saw issuing `requests` of `queries`
/// (cycled) through `service.pool().execute`.
#[derive(Debug, Default)]
struct Outcome {
    served: usize,
    shed: usize,
    errors: usize,
}

fn run_callers(service: &Service, queries: &[String], requests: usize, callers: usize) -> Outcome {
    let issued = AtomicUsize::new(0);
    let [served, shed, errors] = [(); 3].map(|()| AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for _ in 0..callers {
            scope.spawn(|| loop {
                let slot = issued.fetch_add(1, Ordering::Relaxed);
                if slot >= requests {
                    break;
                }
                let counter = match service.pool().execute(&queries[slot % queries.len()]) {
                    Ok(_) => &served,
                    Err(ServerError::Overloaded) => &shed,
                    Err(_) => &errors,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    Outcome { served: served.into_inner(), shed: shed.into_inner(), errors: errors.into_inner() }
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
    let service = Service::start(Arc::clone(&engine), None);

    // 500 requests from 16 callers against one execution slot doing
    // full-vocabulary merges behind a depth-2 queue: the callers must
    // overrun the bound.
    let outcome = run_callers(&service, &scan_queries(500), 500, 16);

    assert!(outcome.shed > 0, "an overrun bounded queue must shed: {outcome:?}");
    assert_eq!(outcome.errors, 0, "shedding is not an error: {outcome:?}");
    assert_eq!(
        outcome.shed + outcome.served,
        500,
        "every request was either served or shed: {outcome:?}"
    );

    // The shed count is visible to protocol clients via !stats.
    assert_eq!(stats_field(&service, "shed"), outcome.shed as u64);
    assert_eq!(stats_field(&service, "queries") as usize, outcome.served);
}

#[test]
fn closed_loop_under_the_bound_sheds_nothing() {
    let engine = bounded_engine(4);
    let service = Service::start(Arc::clone(&engine), None);

    // Two synchronous clients can keep at most two requests outstanding —
    // under a bound of four, admission control must never trigger.
    let outcome = run_callers(&service, &scan_queries(64), 200, 2);

    assert_eq!(outcome.shed, 0, "closed-loop under the bound must not shed: {outcome:?}");
    assert_eq!(outcome.errors, 0, "{outcome:?}");
    assert_eq!(outcome.served, 200);
    assert_eq!(stats_field(&service, "shed"), 0);
    assert_eq!(stats_field(&service, "queries"), 200);
}
