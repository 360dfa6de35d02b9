//! The execution slots, seen from a socket.
//!
//! With no more closed-loop connections than `--workers`, every request finds
//! a slot free and nothing queued: it runs on its connection's thread
//! (`inline == queries`), each as its own batch of one, and answers what the
//! engine answers.  With more connections than slots, what finds no slot
//! queues, and the queue still batches and deduplicates.

use std::io::{BufRead, BufReader, Lines, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_obs::Stage;
use dsearch_query::RankedHit;
use dsearch_server::protocol::{read_response, ParsedResponse};
use dsearch_server::stats::STAGE_LATENCY_METRIC;
use dsearch_server::{
    Answer, EngineConfig, IndexSnapshot, Metric, QueryEngine, RouteService, Router, RouterConfig,
    ServerStats, Service, ShardBackend, ShardError, ShardReply, TcpServer,
};
use dsearch_text::Term;

fn engine(workers: usize) -> Arc<QueryEngine> {
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    for i in 0..40u32 {
        let id = docs.insert(format!("doc{i}.txt"));
        let words = ["shared".to_string(), format!("w{}", i % 5), format!("rare{i}")];
        index.insert_file(id, words.into_iter().map(Term::from));
    }
    QueryEngine::new(
        IndexSnapshot::from_index(index, docs, 1),
        EngineConfig { workers, ..EngineConfig::default() },
    )
    .unwrap()
}

/// One closed-loop client connection.
struct Client {
    stream: TcpStream,
    lines: Lines<BufReader<TcpStream>>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        let lines = BufReader::new(stream.try_clone().unwrap()).lines();
        Client { stream, lines }
    }

    fn send(&mut self, line: &str) {
        // One write per request: split in two, the second half would wait
        // out the server's delayed ACK of the first.
        self.stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    }

    fn receive(&mut self) -> ParsedResponse {
        read_response(&mut self.lines).expect("an answer").unwrap()
    }

    fn ask(&mut self, line: &str) -> ParsedResponse {
        self.send(line);
        self.receive()
    }
}

/// `run_batch` calls so far: each records one parse span.
fn batches_run(stats: &ServerStats) -> u64 {
    let label = Some(("stage", Stage::Parse.as_str()));
    stats.registry().snapshot().histogram(STAGE_LATENCY_METRIC, label).unwrap().count
}

#[test]
fn connections_within_the_slots_are_answered_where_they_arrive() {
    const CONNS: usize = 2;
    const EACH: usize = 40;
    let queries = ["shared", "shared w1", "w2 OR w3", "rare7", "sha*", "shared NOT w4", "absent"];
    let engine = engine(CONNS);
    let reference = self::engine(1);
    let service = Arc::new(Service::start(Arc::clone(&engine), None));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..EACH {
                    // Both connections walk the same few queries: had their
                    // requests met in a batch, they would have deduplicated.
                    let query = queries[(conn + i) % queries.len()];
                    let answer = client.ask(query);
                    let expected = reference.execute(query).unwrap();
                    let rendered = expected.render();
                    let mut expected_lines = rendered.lines().map(|l| Ok::<_, ()>(l.to_owned()));
                    let expected = read_response(&mut expected_lines).unwrap().unwrap();
                    assert!(answer.ok, "{query}: {}", answer.status);
                    assert_eq!(answer.hit_count(), expected.hit_count(), "{query}");
                    assert_eq!(answer.body, expected.body, "{query}");
                }
            });
        }
    });

    let total = (CONNS * EACH) as u64;
    let status = Client::connect(addr).ask("!stats");
    for (key, value) in [("queries", total), ("inline", total), ("dedup_hits", 0), ("batched", 0)] {
        assert_eq!(status.field(key), Some(value.to_string().as_str()), "{}", status.status);
    }
    assert_eq!(status.field("shed"), Some("0"), "{}", status.status);
    // Every query was its own batch: one `run_batch` each, none shared.
    assert_eq!(batches_run(engine.stats()), total);
    assert_eq!(engine.stats().get(Metric::Batches), 0);
    server.stop();
}

/// A shard that answers every query with one hit, but holds `wedge` until it
/// is released.
struct WedgeShard {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl ShardBackend for WedgeShard {
    fn id(&self) -> String {
        "wedge-shard".to_owned()
    }

    fn search(&self, canonical: &str) -> Result<ShardReply, ShardError> {
        if canonical == "wedge" {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
        Ok(ShardReply {
            hits: vec![RankedHit::new(format!("{canonical}.txt"), 1, 0.0)],
            generation: 1,
            stages: Vec::new(),
        })
    }

    fn stats_line(&self) -> Result<String, ShardError> {
        Ok("queries=0".to_owned())
    }

    fn reload(&self) -> Result<String, ShardError> {
        Ok("reloaded generation=1".to_owned())
    }
}

#[test]
fn connections_beyond_the_slots_queue_and_the_queue_still_batches() {
    let (entered, entered_rx) = mpsc::channel();
    let (release_tx, release) = mpsc::channel();
    let shard = WedgeShard { entered: Mutex::new(entered), release: Mutex::new(release) };
    // One slot, no result cache: repeats are answered by the batch or not at all.
    let router = Router::new(
        vec![Box::new(shard)],
        RouterConfig { workers: 1, cache_capacity: 0, ..RouterConfig::default() },
    )
    .unwrap();
    let service = Arc::new(RouteService::start(Arc::clone(&router)));
    let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // The first connection takes the one slot, on its own thread, and holds it.
    let mut holder = Client::connect(addr);
    holder.send("wedge");
    entered_rx.recv().unwrap();
    assert_eq!(router.stats().get(Metric::Inline), 1);

    // Three more ask one question between them: no slot, so they queue.
    let mut waiters: Vec<Client> = (0..3).map(|_| Client::connect(addr)).collect();
    for waiter in &mut waiters {
        waiter.send("rust");
    }
    while service.pool().queue_depth() < waiters.len() {
        std::thread::yield_now();
    }
    assert_eq!(router.stats().get(Metric::Queries), 0, "nothing runs past the slots");

    release_tx.send(()).unwrap();
    assert!(holder.receive().ok);
    for waiter in &mut waiters {
        let answer = waiter.receive();
        assert!(answer.ok, "{}", answer.status);
        assert_eq!(answer.hit_count(), 1);
    }

    // The backlog drained as one batch, which asked the shard once.
    let stats = router.stats();
    assert_eq!(stats.get(Metric::Queries), 4);
    assert_eq!(stats.get(Metric::Inline), 1, "inline < queries under contention");
    assert_eq!(stats.get(Metric::Batches), 1);
    assert_eq!(stats.get(Metric::Batched), 3);
    assert_eq!(stats.get(Metric::DedupHits), 2);
    assert_eq!(batches_run(stats), 2);
    server.stop();
}
