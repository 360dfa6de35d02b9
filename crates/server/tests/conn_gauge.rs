//! Regression tests for the `dsearch_conns_active` gauge: every disconnect
//! path — clean `!quit`, abrupt client drop mid-session, server-side idle
//! timeout, and accept-time cap rejection — must return the gauge to zero.
//! A leaked increment here silently poisons the `--max-conns` admission
//! check, so the gauge is asserted through both the typed accessor and the
//! `!metrics` exposition.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsearch_index::{DocTable, InMemoryIndex};
use dsearch_server::protocol::END;
use dsearch_server::{
    EngineConfig, IndexSnapshot, Metric, QueryEngine, Service, TcpServer, TcpServerConfig,
};
use dsearch_text::Term;

fn service() -> Arc<Service> {
    let mut docs = DocTable::new();
    let mut index = InMemoryIndex::new();
    for (path, words) in [("a.txt", vec!["rust", "index"]), ("b.txt", vec!["rust"])] {
        let id = docs.insert(path);
        index.insert_file(id, words.into_iter().map(Term::from));
    }
    let engine = QueryEngine::new(
        IndexSnapshot::from_index(index, docs, 1),
        EngineConfig { workers: 2, ..EngineConfig::default() },
    )
    .unwrap();
    Arc::new(Service::start(engine, None))
}

/// Reads one full protocol response (through its END line) and returns the
/// status line plus body.
fn drain_response<R: BufRead>(reader: &mut R) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "EOF before END");
        if line.trim_end() == END {
            return lines;
        }
        lines.push(line.trim_end().to_owned());
    }
}

/// Waits (bounded) for the connection gauge to settle at `expected`.
fn wait_for_gauge(service: &Service, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.engine().stats().get(Metric::ConnsActive) != expected {
        assert!(
            Instant::now() < deadline,
            "gauge stuck at {} (expected {expected})",
            service.engine().stats().get(Metric::ConnsActive)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn gauge_returns_to_zero_on_every_disconnect_path() {
    let service = service();
    let config = TcpServerConfig { idle_timeout: Some(Duration::from_millis(80)), max_conns: 0 };
    let server = TcpServer::bind_with(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Path 1: clean `!quit`.
    let mut clean = TcpStream::connect(addr).unwrap();
    let mut clean_reader = BufReader::new(clean.try_clone().unwrap());
    writeln!(clean, "rust").unwrap();
    assert!(drain_response(&mut clean_reader)[0].starts_with("OK 2"));
    writeln!(clean, "!quit").unwrap();
    drop(clean);

    // Path 2: abrupt drop mid-session, response unread.
    let mut abrupt = TcpStream::connect(addr).unwrap();
    writeln!(abrupt, "rust index").unwrap();
    drop(abrupt);

    // Path 3: a session that only ever produces protocol errors, then drops.
    let mut erroring = TcpStream::connect(addr).unwrap();
    let mut erroring_reader = BufReader::new(erroring.try_clone().unwrap());
    writeln!(erroring, "AND").unwrap();
    assert!(drain_response(&mut erroring_reader)[0].starts_with("ERR"));
    drop(erroring);

    // Path 4: server-side idle disconnect.
    let idle = TcpStream::connect(addr).unwrap();
    let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
    let mut line = String::new();
    // The server closes the idle connection; we observe EOF.
    assert_eq!(idle_reader.read_line(&mut line).unwrap(), 0, "idle conn should be closed");
    drop(idle);

    wait_for_gauge(&service, 0);
    assert!(service.engine().stats().get(Metric::IdleClosed) >= 1);

    // The exposition agrees with the typed accessor.
    let metrics = service.engine().stats().registry().render_prometheus();
    assert!(metrics.contains("dsearch_conns_active 0"), "{metrics}");
    server.stop();
    wait_for_gauge(&service, 0);
}

#[test]
fn cap_rejection_never_touches_the_gauge() {
    let service = service();
    let config = TcpServerConfig { idle_timeout: None, max_conns: 1 };
    let server = TcpServer::bind_with(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Occupy the single slot, then hammer the accept-time rejection path.
    let mut holder = TcpStream::connect(addr).unwrap();
    let mut holder_reader = BufReader::new(holder.try_clone().unwrap());
    writeln!(holder, "rust").unwrap();
    assert!(drain_response(&mut holder_reader)[0].starts_with("OK 2"));
    wait_for_gauge(&service, 1);

    for _ in 0..3 {
        let rejected = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(rejected);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR too many connections"), "{line}");
    }
    assert_eq!(service.engine().stats().get(Metric::ConnsRejected), 3);
    // Rejections counted, but the gauge still reflects the one live session.
    assert_eq!(service.engine().stats().get(Metric::ConnsActive), 1);

    writeln!(holder, "!quit").unwrap();
    drop(holder);
    wait_for_gauge(&service, 0);
    server.stop();
    wait_for_gauge(&service, 0);
}
