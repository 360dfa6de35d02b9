//! Serving front ends: a line loop for stdin/tests and a TCP listener.
//!
//! The front ends are generic over a [`LineHandler`]: anything that can
//! answer protocol lines and expose serving stats.  There is one: a
//! [`LineService`] — an [`Executor`] behind its [`Pool`] — instantiated as
//! [`Service`] (a single store) and as [`RouteService`] (the scatter-gather
//! coordinator over many shards).  Both answer every protocol line through
//! the same `handle`, and serve stdin and TCP through the same code, so every
//! front-end feature — idle timeouts, connection caps, connection
//! accounting — applies to single-store and routed serving alike.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use dsearch_obs::trace::{nanos, write_spans_compact};
use dsearch_obs::QueryTrace;

use crate::batch::{Answer, Executor, Pool};
use crate::engine::QueryEngine;
use crate::protocol::{
    parse_request, read_bounded_line, render_error, render_error_text, render_info,
    render_info_with_body, LineRead, Request,
};
use crate::route::Router;
use crate::stats::{Metric, ServerStats};

/// Handles a `!trace` control line: `on` arms the slow-query log for every
/// query, `off` disarms it, `<n>` / `<n>us` / `<n>µs` arms it at a microsecond
/// threshold, and an empty argument reports the current state.
fn trace_control(stats: &ServerStats, arg: &str) -> String {
    let slow = stats.slow_log();
    let armed = |threshold: Duration| {
        render_info(&format!(
            "trace armed threshold_us={} entries={}",
            threshold.as_micros(),
            stats.slow_log().len()
        ))
    };
    match arg {
        "" => match slow.threshold() {
            Some(threshold) => armed(threshold),
            None => render_info("trace off"),
        },
        "off" => {
            slow.disarm();
            render_info("trace off")
        }
        "on" => {
            slow.arm(Duration::ZERO);
            armed(Duration::ZERO)
        }
        micros => {
            let digits = micros.trim_end_matches("µs").trim_end_matches("us");
            match digits.parse::<u64>() {
                Ok(n) => {
                    let threshold = Duration::from_micros(n);
                    slow.arm(threshold);
                    armed(threshold)
                }
                Err(_) => render_error_text("usage: !trace on|off|<micros>"),
            }
        }
    }
}

/// The rendered `!slow` answer: retained slow-query reports, oldest first.
fn slow_report(stats: &ServerStats) -> String {
    let entries = stats.slow_log().dump();
    let status = match stats.slow_log().threshold() {
        Some(threshold) => {
            format!("slow entries={} threshold_us={}", entries.len(), threshold.as_micros())
        }
        None => format!("slow entries={} trace=off", entries.len()),
    };
    render_info_with_body(&status, entries)
}

/// Feeds one finished query to the slow-query log.  The report renders only
/// when `total` exceeds the armed threshold, so the fast path costs one
/// atomic load.
fn observe_slow(stats: &ServerStats, query: &str, total: Duration, trace: &QueryTrace) {
    stats.slow_log().observe(total, || {
        let mut entry =
            format!("{}us query={:?} trace={:x} stages=", total.as_micros(), query, trace.id());
        let _ = write_spans_compact(&mut entry, trace.spans());
        for shard in trace.shards() {
            let _ = write!(entry, " | shard {} rtt={} stages=", shard.shard, nanos(shard.rtt));
            let _ = write_spans_compact(&mut entry, shard.stages.iter().copied());
        }
        entry
    });
}

/// Anything that answers protocol lines: the seam between the stdin/TCP
/// front ends and whatever executes queries behind them.
pub trait LineHandler: Send + Sync + 'static {
    /// Handles one protocol line.
    fn handle(&self, line: &str) -> Handled;

    /// The serving counters the front ends record connection events in (and
    /// `!stats` reports from).
    fn stats(&self) -> &ServerStats;

    /// Serves one line-oriented connection (stdin, a socket, a test buffer)
    /// until EOF or `!quit`, reporting which of the two ended it.  Lines are
    /// read into one buffer the session reuses, which never holds more than
    /// 128 KiB: a longer line is answered `ERR line too long` and skipped to
    /// its newline unread.  Each response is one write.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, and a line that is not UTF-8.
    fn serve_lines<R: BufRead, W: Write>(
        &self,
        mut input: R,
        mut output: W,
    ) -> io::Result<SessionEnd> {
        let mut buffer = Vec::new();
        loop {
            let line = match read_bounded_line(&mut input, &mut buffer)? {
                LineRead::Eof => return Ok(SessionEnd::Eof),
                LineRead::TooLong => {
                    input.skip_until(b'\n')?;
                    output.write_all(render_error_text("line too long").as_bytes())?;
                    output.flush()?;
                    continue;
                }
                LineRead::Line => std::str::from_utf8(&buffer).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "request line is not UTF-8")
                })?,
            };
            let line = line.strip_suffix('\n').unwrap_or(line);
            let line = line.strip_suffix('\r').unwrap_or(line);
            match self.handle(line) {
                Handled::Respond(response) => {
                    output.write_all(response.as_bytes())?;
                    output.flush()?;
                }
                Handled::Ignore => {}
                Handled::Close => return Ok(SessionEnd::Quit),
            }
        }
    }
}

/// A running service: an [`Executor`] and the [`Pool`] its queries run on,
/// answering the line protocol.
pub struct LineService<E: Executor> {
    executor: Arc<E>,
    pool: Pool<E>,
    requests: AtomicU64,
}

/// `dsearch serve`: a single store behind its worker pool.
pub type Service = LineService<QueryEngine>;

/// `dsearch route`: the scatter-gather coordinator behind its router pool, so
/// it plugs into the same stdin/TCP front ends as `dsearch serve`.
pub type RouteService = LineService<Router>;

/// What a handled request asks the connection to do next.
#[derive(Debug, PartialEq, Eq)]
pub enum Handled {
    /// Write this response and keep the connection open.
    Respond(String),
    /// Write nothing (blank request line).
    Ignore,
    /// Write nothing and close the connection.
    Close,
}

/// How a line session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The input reached end-of-file.
    Eof,
    /// The client sent `!quit`.
    Quit,
    /// The connection sat idle past the server's idle timeout and was
    /// disconnected (TCP sessions only).
    IdleTimeout,
}

/// Connection policy for the TCP front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpServerConfig {
    /// Disconnect a connection that sends nothing for this long (the
    /// application-level keep-alive policy); `None` lets idle clients sit
    /// forever.
    pub idle_timeout: Option<std::time::Duration>,
    /// Most simultaneous connections accepted; `0` means unlimited.  Excess
    /// connections are answered `ERR too many connections` and closed at
    /// accept time, counted as `conns_rejected` in `!stats`.
    pub max_conns: usize,
}

impl<E: Executor> LineService<E> {
    fn over(executor: Arc<E>) -> Self {
        let pool = Pool::start(Arc::clone(&executor));
        LineService { executor, pool, requests: AtomicU64::new(0) }
    }

    /// The pool this service executes queries on: a caller in process can
    /// run queries on it through [`Pool::execute`] and read the same
    /// counters `!stats` reports.
    #[must_use]
    pub fn pool(&self) -> &Pool<E> {
        &self.pool
    }

    /// Total request lines handled (all connections).
    #[must_use]
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Shuts the pool down, returning how many queries the workers served.
    pub fn shutdown(self) -> u64 {
        self.pool.shutdown()
    }
}

impl Service {
    /// Starts the worker pool for `engine`; `!reload` re-reads `store_path`
    /// (`None` disables reloads).
    #[must_use]
    pub fn start(engine: Arc<QueryEngine>, store_path: Option<PathBuf>) -> Self {
        if let Some(path) = store_path {
            engine.reload_from(path);
        }
        LineService::over(engine)
    }

    /// The engine this service fronts.
    #[must_use]
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.executor
    }
}

impl RouteService {
    /// Starts the router pool for `router`.
    #[must_use]
    pub fn start(router: Arc<Router>) -> Self {
        LineService::over(router)
    }

    /// The router this service fronts.
    #[must_use]
    pub fn router(&self) -> &Arc<Router> {
        &self.executor
    }
}

impl<E: Executor> LineHandler for LineService<E> {
    fn handle(&self, line: &str) -> Handled {
        let stats = self.executor.stats();
        let response = match parse_request(line) {
            Request::Empty => return Handled::Ignore,
            Request::Quit => return Handled::Close,
            Request::Stats => self.executor.stats_answer(),
            Request::Reload => self.executor.reload_answer(),
            // The body is the exposition: a sample or `# TYPE` comment per line.
            Request::Metrics => {
                self.executor.refresh_gauges();
                let exposition = stats.registry().render_prometheus();
                let body: Vec<&str> = exposition.lines().collect();
                render_info_with_body(&format!("metrics lines={}", body.len()), body)
            }
            Request::Trace(arg) => trace_control(stats, arg),
            Request::Slow => slow_report(stats),
            Request::Query(raw) => match self.pool.execute(raw) {
                Ok(response) => {
                    let text = response.render();
                    observe_slow(stats, response.query(), response.latency(), response.trace());
                    text
                }
                Err(e) => render_error(&e),
            },
        };
        self.requests.fetch_add(1, Ordering::Relaxed);
        Handled::Respond(response)
    }

    fn stats(&self) -> &ServerStats {
        self.executor.stats()
    }
}

/// A TCP front end accepting connections on its own thread.
pub struct TcpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    connections: Arc<Mutex<Vec<Connection>>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts accepting
    /// with the default connection policy (no idle timeout, no cap).
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind<S: LineHandler>(service: Arc<S>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        TcpServer::bind_with(service, addr, TcpServerConfig::default())
    }

    /// Binds `addr` and starts accepting under `config`.  Each connection is
    /// served on its own thread; queries run on the shared worker pool.
    /// Idle connections are disconnected after `config.idle_timeout`, and
    /// connections past `config.max_conns` are refused at accept time with
    /// `ERR too many connections`; both outcomes show up in `!stats`
    /// (`idle_closed=`, `conns_rejected=`).
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound.
    pub fn bind_with<S: LineHandler>(
        service: Arc<S>,
        addr: impl ToSocketAddrs,
        config: TcpServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<Connection>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_connections = Arc::clone(&connections);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(mut stream) => {
                        // Every response is one `write_all`; with Nagle's
                        // algorithm on, one that follows another on the same
                        // connection waits for the peer's delayed ACK (40 ms).
                        let _ = stream.set_nodelay(true);
                        let stats = service.stats();
                        if config.max_conns > 0
                            && stats.get(Metric::ConnsActive) >= config.max_conns as u64
                        {
                            // Accept-time rejection: answer, count, close.
                            stats.inc(Metric::ConnsRejected);
                            let _ = stream
                                .write_all(render_error_text("too many connections").as_bytes());
                            continue;
                        }
                        // The gauge is bumped *before* the thread spawns so
                        // the cap check above can never over-admit; the guard
                        // releases it on every exit path — EOF, `!quit`, idle
                        // timeout, I/O error, even a panicking handler.
                        let guard = ConnGuard::open(&service);
                        // A clone of the socket stays behind so `stop` can
                        // shut it down and unblock the connection's read.
                        let socket = stream.try_clone().ok();
                        let service = Arc::clone(&service);
                        let handle = std::thread::spawn(move || {
                            let _guard = guard;
                            let end = serve_connection(&*service, stream, config.idle_timeout);
                            if matches!(end, Ok(SessionEnd::IdleTimeout)) {
                                service.stats().inc(Metric::IdleClosed);
                            }
                        });
                        let mut connections = accept_connections.lock();
                        // Drop finished connections so a long-lived server
                        // does not accumulate handles.
                        connections.retain(|c| !c.handle.is_finished());
                        // Re-check shutdown *inside* the lock: if `stop`'s
                        // disconnect sweep already ran, it cannot have seen
                        // this connection, so disconnect it here — otherwise
                        // the final join below would block on its read.
                        if accept_shutdown.load(Ordering::SeqCst) {
                            if let Some(socket) = &socket {
                                let _ = socket.shutdown(std::net::Shutdown::Both);
                            }
                        }
                        connections.push(Connection { handle, socket });
                    }
                    Err(_) => break,
                }
            }
            let remaining = std::mem::take(&mut *accept_connections.lock());
            for connection in remaining {
                let _ = connection.handle.join();
            }
        });
        Ok(TcpServer { local_addr, shutdown, connections, accept_thread: Some(accept_thread) })
    }

    /// The bound address (read the ephemeral port here).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, disconnects every open connection and joins the
    /// accept thread (which joins the connection threads).
    pub fn stop(mut self) {
        self.stop_in_place();
    }

    fn stop_in_place(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock connection reads: a socket shutdown surfaces as EOF in
        // `serve_lines`, so even idle clients release their threads.
        for connection in self.connections.lock().iter() {
            if let Some(socket) = &connection.socket {
                let _ = socket.shutdown(std::net::Shutdown::Both);
            }
        }
        // Nudge the blocking accept with one last connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

struct Connection {
    handle: std::thread::JoinHandle<()>,
    socket: Option<TcpStream>,
}

/// RAII release of the `dsearch_conns_active` gauge: one open connection per
/// live guard.  Dropping the guard — on any exit path of the connection
/// thread, unwinding included — brings the gauge back down, so the gauge can
/// never leak a disconnect and drift away from reality.
struct ConnGuard<S: LineHandler> {
    service: Arc<S>,
}

impl<S: LineHandler> ConnGuard<S> {
    fn open(service: &Arc<S>) -> Self {
        service.stats().gauge(Metric::ConnsActive).inc();
        ConnGuard { service: Arc::clone(service) }
    }
}

impl<S: LineHandler> Drop for ConnGuard<S> {
    fn drop(&mut self) {
        self.service.stats().gauge(Metric::ConnsActive).dec();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_in_place();
    }
}

fn serve_connection<S: LineHandler>(
    service: &S,
    stream: TcpStream,
    idle_timeout: Option<std::time::Duration>,
) -> io::Result<SessionEnd> {
    if idle_timeout.is_some() {
        stream.set_read_timeout(idle_timeout)?;
    }
    let reader = BufReader::new(stream.try_clone()?);
    let end = match service.serve_lines(reader, &stream) {
        // A read timeout is the idle-disconnect policy firing, not an error:
        // close the connection cleanly.  (No write timeout is ever set, so
        // these kinds can only come from the read side.)
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Ok(SessionEnd::IdleTimeout)
        }
        other => other,
    };
    // Shut the socket down explicitly: the accept loop keeps a clone of the
    // stream for its own disconnect sweep, so merely dropping ours would
    // leave the client's read blocked on a half-alive connection.
    let _ = stream.shutdown(std::net::Shutdown::Both);
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::protocol::MAX_LINE_BYTES;
    use crate::snapshot::IndexSnapshot;
    use dsearch_index::{DocTable, InMemoryIndex};
    use dsearch_persist::IndexStore;
    use dsearch_text::Term;
    use std::io::Cursor;

    fn service() -> Service {
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
        Service::start(engine, None)
    }

    #[test]
    fn line_session_answers_queries_stats_and_errors() {
        let service = service();
        let input = "rust\n\n!stats\nAND\n!quit\nrust\n";
        let mut output = Vec::new();
        let end = service.serve_lines(Cursor::new(input), &mut output).unwrap();
        assert_eq!(end, SessionEnd::Quit);
        let text = String::from_utf8(output).unwrap();

        assert!(text.contains("OK 2 generation=1 cached=false"), "{text}");
        assert!(text.contains("a.txt (1 terms)"), "{text}");
        assert!(text.contains("queries=1"), "{text}");
        assert!(text.contains("ERR invalid query"), "{text}");
        // The query after !quit was never served.
        assert_eq!(text.matches("OK 2").count(), 1, "{text}");
        assert_eq!(service.request_count(), 3);
        // The pool served both query lines ("rust" and the failing "AND").
        assert_eq!(service.shutdown(), 2);
    }

    #[test]
    fn metrics_scrape_brings_the_footprint_gauges_up_to_date() {
        let service = service();
        let mut output = Vec::new();
        service.serve_lines(Cursor::new("rust\n!metrics\n!stats\n!quit\n"), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let (snapshot, cache) = service.engine().resident_bytes();
        assert!(snapshot > 0 && cache > 0);
        assert!(text.contains(&format!("dsearch_snapshot_resident_bytes {snapshot}\n")), "{text}");
        assert!(text.contains(&format!("dsearch_cache_resident_bytes {cache}\n")), "{text}");
        assert!(
            text.contains(&format!("resident_bytes={snapshot}] cache[entries=1 bytes={cache}]"))
        );
        service.shutdown();
    }

    #[test]
    fn load_time_is_reported_and_refreshed_by_a_reload() {
        let dir = std::env::temp_dir().join(format!("dsearch-serve-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = IndexStore::open(&dir).unwrap();
        let mut docs = DocTable::new();
        let mut index = InMemoryIndex::new();
        index.insert_file(docs.insert("a.txt"), [Term::from("rust")]);
        store.replace_with(std::slice::from_ref(&index), &docs).unwrap();
        let engine =
            QueryEngine::new(IndexSnapshot::load(&store, 1).unwrap(), EngineConfig::default())
                .unwrap();
        let service = Service::start(engine, Some(dir.clone()));
        let gauge = |service: &Service| {
            let seconds = service.engine().snapshot_cell().load().load_time().as_secs_f64();
            assert!(seconds > 0.0);
            format!("dsearch_snapshot_load_seconds {seconds:.6}\n")
        };

        let mut output = Vec::new();
        service.serve_lines(Cursor::new("!metrics\n!stats\n"), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains(&gauge(&service)), "{text}");
        assert!(text.contains(" load_ms="), "{text}");

        let mut output = Vec::new();
        service.serve_lines(Cursor::new("!reload\n!metrics\n!quit\n"), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert!(text.contains("reloaded generation=2"), "{text}");
        assert!(text.contains(&gauge(&service)), "{text}");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_past_the_cap_is_answered_and_skipped_unread() {
        let service = service();
        // One byte too many, a two-byte character cut by the cap; exactly
        // the cap (which a query of trailing blanks fills); and a long line
        // the input ends inside.
        let mut over = vec![b'a'; MAX_LINE_BYTES - 1];
        over.extend_from_slice("é\n".as_bytes());
        let mut at_cap = b"rust".to_vec();
        at_cap.resize(MAX_LINE_BYTES - 1, b' ');
        at_cap.push(b'\n');
        let input = [&over[..], b"rust\n", &at_cap, &vec![b'b'; 3 * MAX_LINE_BYTES]].concat();
        let mut output = Vec::new();
        let end = service.serve_lines(Cursor::new(input), &mut output).unwrap();
        assert_eq!(end, SessionEnd::Eof);
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.matches("ERR line too long").count(), 2, "{text}");
        assert_eq!(text.matches("OK 2 generation=1").count(), 2, "{text}");
        assert!(text.starts_with("ERR line too long"), "{text}");
        // A line under the cap that is not UTF-8 still ends the session.
        let err = service.serve_lines(Cursor::new(b"\xff\n".to_vec()), Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn eof_sessions_report_eof() {
        let service = service();
        let mut output = Vec::new();
        let end = service.serve_lines(Cursor::new("rust\n"), &mut output).unwrap();
        assert_eq!(end, SessionEnd::Eof);
        assert_eq!(service.shutdown(), 1);
    }

    #[test]
    fn reload_without_store_path_reports_an_error() {
        let service = service();
        let Handled::Respond(response) = service.handle("!reload") else {
            panic!("reload should respond");
        };
        assert!(response.contains("ERR reload unavailable"), "{response}");
    }

    #[test]
    fn tcp_round_trip() {
        use crate::protocol::read_response;
        use std::io::BufRead;

        let service = Arc::new(service());
        let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap()).lines();
        let mut stream = stream;
        writeln!(stream, "rust index").unwrap();
        let response = read_response(&mut reader).unwrap().unwrap();
        assert!(response.ok);
        assert_eq!(response.hit_count(), 1);
        assert_eq!(response.generation(), Some(1));
        // The accepted socket has Nagle's algorithm off (the accept thread
        // registers the connection a moment after it starts serving it).
        let accepted = loop {
            if let Some(connection) = server.connections.lock().first() {
                break connection.socket.as_ref().unwrap().try_clone().unwrap();
            }
            std::thread::yield_now();
        };
        assert!(accepted.nodelay().unwrap());
        writeln!(stream, "!quit").unwrap();
        drop(stream);
        server.stop();
    }

    /// Reads one full protocol response (through its END line) and returns
    /// the status line.
    fn drain_response<R: BufRead>(reader: &mut R) -> String {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut line = String::new();
        while line.trim_end() != crate::protocol::END {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "EOF before END");
        }
        status
    }

    #[test]
    fn idle_connections_are_disconnected_and_counted() {
        let service = Arc::new(service());
        let config = TcpServerConfig {
            idle_timeout: Some(std::time::Duration::from_millis(60)),
            max_conns: 0,
        };
        let server = TcpServer::bind_with(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        // An active client is served normally...
        writeln!(stream, "rust").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = drain_response(&mut reader);
        assert!(line.starts_with("OK 2"), "{line}");
        // ...then goes idle: the server disconnects it (EOF on our side).
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "idle connection should be closed by the server");

        // The disconnect shows up in the stats the `!stats` report renders.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while service.engine().stats().get(Metric::IdleClosed) == 0 {
            assert!(std::time::Instant::now() < deadline, "idle disconnect never counted");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(service.engine().stats_report().contains("idle_closed=1"));
        server.stop();
    }

    #[test]
    fn connection_cap_rejects_at_accept_time() {
        let service = Arc::new(service());
        let config = TcpServerConfig { idle_timeout: None, max_conns: 1 };
        let server = TcpServer::bind_with(Arc::clone(&service), "127.0.0.1:0", config).unwrap();
        let addr = server.local_addr();

        // First connection occupies the single slot.
        let mut first = TcpStream::connect(addr).unwrap();
        writeln!(first, "rust").unwrap();
        let mut first_reader = BufReader::new(first.try_clone().unwrap());
        let mut line = drain_response(&mut first_reader);
        assert!(line.starts_with("OK 2"), "{line}");

        // Second connection is refused with a protocol error and closed.
        let second = TcpStream::connect(addr).unwrap();
        let mut second_reader = BufReader::new(second);
        line.clear();
        second_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR too many connections"), "{line}");
        assert_eq!(service.engine().stats().get(Metric::ConnsRejected), 1);
        assert!(service.engine().stats_report().contains("conns_rejected=1"));

        // Releasing the slot admits a new connection.
        writeln!(first, "!quit").unwrap();
        drop(first);
        drop(first_reader);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while service.engine().stats().get(Metric::ConnsActive) > 0 {
            assert!(std::time::Instant::now() < deadline, "slot never released");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut third = TcpStream::connect(addr).unwrap();
        writeln!(third, "rust").unwrap();
        let mut third_reader = BufReader::new(third.try_clone().unwrap());
        line.clear();
        third_reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK 2"), "{line}");
        server.stop();
    }

    #[test]
    fn stop_returns_even_with_an_idle_connection_open() {
        let service = Arc::new(service());
        let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // A client that connects and then just sits there.
        let idle = TcpStream::connect(addr).unwrap();

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("stop() must not hang on idle connections");
        drop(idle);
    }
}
