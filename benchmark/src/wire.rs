//! The client side of the line protocol: one request line out, lines back
//! until a lone `END`.
//!
//! The reader is buffered (an unbuffered one costs a system call per byte
//! and adds about 1.3 ms to a 20-hit response, which would swamp the
//! program), bounded (a response that never ends is a failure, not a hang)
//! and, on sockets, under a read timeout.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A socket that stays silent this long has failed the request.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// No response of a workload comes near this; one that passes it never ends.
pub const MAX_BODY_LINES: usize = 4096;
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Why a request did not produce a usable answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// `ERR …` status.
    ErrStatus,
    /// `OK … partial=true`: a shard was missing from the answer.
    Partial,
    /// The status line is neither `OK` nor `ERR`, or announces a hit count
    /// the body does not have.
    Malformed,
    /// The stream ended before `END`.
    Truncated,
    /// `END` did not arrive within the line bounds.
    NeverEnding,
    /// The socket timed out or the connection broke.
    Io,
    /// Well-formed, but not what the reference index says.
    WrongAnswer,
}

/// One response, with its text kept in the reader's scratch space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Hit lines in the body (lines that are not `# …` comments).
    pub hits: u32,
}

/// Reusable buffers of a response reader, and the last response's text.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The status line without its `OK ` / `ERR ` head.
    pub status: String,
    /// Body lines, kept only when asked for.
    pub body: Vec<String>,
    line: String,
}

impl Scratch {
    /// The raw text of a `name=value` field of the status line.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&str> {
        self.status.split(' ').find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
    }

    /// The path of each hit line of a kept body.
    pub fn hit_paths(&self) -> impl Iterator<Item = &str> {
        self.body
            .iter()
            .filter(|line| !line.starts_with("# "))
            .filter_map(|line| line.rsplit_once(" (").map(|(path, _)| path))
    }
}

fn read_line_bounded<R: BufRead>(reader: &mut R, line: &mut String) -> Result<(), Failure> {
    line.clear();
    let mut limited = std::io::Read::take(reader, MAX_LINE_BYTES as u64);
    match limited.read_line(line) {
        Ok(0) => Err(Failure::Truncated),
        Ok(_) if line.ends_with('\n') => {
            line.pop();
            Ok(())
        }
        // No newline: either the stream ended mid-line or the line is
        // longer than any the protocol produces.
        Ok(n) if n >= MAX_LINE_BYTES => Err(Failure::NeverEnding),
        Ok(_) => Err(Failure::Truncated),
        Err(_) => Err(Failure::Io),
    }
}

/// Reads one response through `END`.
///
/// # Errors
///
/// Every way a response can fail to be a complete, non-partial `OK` answer
/// whose body has the announced number of hits.
pub fn read_response<R: BufRead>(
    reader: &mut R,
    scratch: &mut Scratch,
    keep_body: bool,
) -> Result<Reply, Failure> {
    read_line_bounded(reader, &mut scratch.line)?;
    scratch.status.clear();
    scratch.body.clear();
    let ok = if let Some(rest) = scratch.line.strip_prefix("OK") {
        scratch.status.push_str(rest.trim_start());
        Some(true)
    } else if let Some(rest) = scratch.line.strip_prefix("ERR") {
        scratch.status.push_str(rest.trim_start());
        Some(false)
    } else {
        None
    };
    let mut hits = 0u32;
    let mut lines = 0usize;
    loop {
        read_line_bounded(reader, &mut scratch.line)?;
        if scratch.line == "END" {
            break;
        }
        lines += 1;
        if lines > MAX_BODY_LINES {
            return Err(Failure::NeverEnding);
        }
        if !scratch.line.starts_with("# ") {
            hits += 1;
        }
        if keep_body {
            scratch.body.push(scratch.line.clone());
        }
    }
    match ok {
        None => Err(Failure::Malformed),
        Some(false) => Err(Failure::ErrStatus),
        Some(true) if scratch.field("partial") == Some("true") => Err(Failure::Partial),
        Some(true) => Ok(Reply { hits }),
    }
}

/// The hit count an `OK <n> …` query status announces.
#[must_use]
pub fn announced_hits(scratch: &Scratch) -> Option<u32> {
    scratch.status.split(' ').next()?.parse().ok()
}

/// A request/response channel to a server: a socket, or a child's pipes.
pub struct Conn<R, W> {
    reader: R,
    writer: W,
    pub scratch: Scratch,
    request: Vec<u8>,
}

pub type TcpConn = Conn<BufReader<TcpStream>, TcpStream>;
/// The line protocol on a child's stdin and stdout.
pub type PipeConn = Conn<BufReader<std::process::ChildStdout>, std::process::ChildStdin>;

impl TcpConn {
    /// Wraps a connected socket: `TCP_NODELAY` so a request line leaves at
    /// once, and a read timeout so a hung server fails the request.
    ///
    /// # Errors
    ///
    /// Fails when the socket options cannot be set.
    pub fn from_stream(stream: TcpStream) -> std::io::Result<TcpConn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn::new(BufReader::new(stream.try_clone()?), stream))
    }

    /// Connects to `addr`, waiting up to `limit` for the server to listen.
    ///
    /// # Errors
    ///
    /// Fails when the server does not accept within `limit`.
    pub fn connect(addr: SocketAddr, limit: Duration) -> std::io::Result<TcpConn> {
        TcpConn::from_stream(crate::procs::connect_retry(addr, limit)?)
    }
}

impl<R: BufRead, W: Write> Conn<R, W> {
    pub fn new(reader: R, writer: W) -> Self {
        Conn { reader, writer, scratch: Scratch::default(), request: Vec::with_capacity(256) }
    }

    /// Sends `line` and reads the response.  A query answer must also have
    /// as many hit lines as its status announces.
    ///
    /// # Errors
    ///
    /// See [`read_response`]; a failed write is [`Failure::Io`].
    pub fn request(&mut self, line: &str, keep_body: bool) -> Result<Reply, Failure> {
        self.request.clear();
        self.request.extend_from_slice(line.as_bytes());
        self.request.push(b'\n');
        self.writer.write_all(&self.request).map_err(|_| Failure::Io)?;
        self.writer.flush().map_err(|_| Failure::Io)?;
        read_response(&mut self.reader, &mut self.scratch, keep_body)
    }

    /// A query: the answer's body must match its announced hit count.
    ///
    /// # Errors
    ///
    /// As [`Conn::request`], plus [`Failure::Malformed`] on a count mismatch.
    pub fn query(&mut self, line: &str, keep_body: bool) -> Result<Reply, Failure> {
        let reply = self.request(line, keep_body)?;
        if announced_hits(&self.scratch) != Some(reply.hits) {
            return Err(Failure::Malformed);
        }
        Ok(reply)
    }
}

/// The `name=value` counters of a `!stats` answer.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    fields: Vec<(String, f64)>,
}

impl Stats {
    /// Parses the status line (and, for a router, its per-shard body lines
    /// are ignored: the router's own counters are on the status line).
    #[must_use]
    pub fn parse(status: &str) -> Stats {
        let fields = status
            .split([' ', '[', ']'])
            .filter_map(|field| {
                let (name, value) = field.split_once('=')?;
                Some((name.to_owned(), value.trim_end_matches('x').parse().ok()?))
            })
            .collect();
        Stats { fields }
    }

    /// The first counter called `name` (0 when absent).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.fields.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    }

    /// `after - self` for one counter.
    #[must_use]
    pub fn delta(&self, after: &Stats, name: &str) -> f64 {
        after.get(name) - self.get(name)
    }
}

/// The `stage:ns;stage:ns` list of a status line's `stages=` field.
pub fn parse_stages(field: &str) -> impl Iterator<Item = (&str, u64)> {
    field.split(';').filter_map(|part| {
        let (name, ns) = part.split_once(':')?;
        Some((name, ns.parse().ok()?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Read};

    fn read(text: &str) -> (Result<Reply, Failure>, Scratch) {
        let mut scratch = Scratch::default();
        let result = read_response(&mut Cursor::new(text.as_bytes()), &mut scratch, true);
        (result, scratch)
    }

    #[test]
    fn a_complete_ok_response_is_parsed() {
        let text = "OK 2 generation=1 cached=false micros=18 stages=parse:412;postings:9123\n\
                    h0/d00/f000002.txt (1 terms) score=1.5\nd01/f000003.txt (1 terms)\n\
                    # shard 127.0.0.1:1 rtt=900 stages=parse:1\nEND\n";
        let (result, scratch) = read(text);
        let reply = result.unwrap();
        assert_eq!(reply.hits, 2);
        assert_eq!(announced_hits(&scratch), Some(2));
        assert_eq!(scratch.field("cached"), Some("false"));
        assert_eq!(
            scratch.hit_paths().collect::<Vec<_>>(),
            ["h0/d00/f000002.txt", "d01/f000003.txt"]
        );
        let stages: Vec<_> = parse_stages(scratch.field("stages").unwrap()).collect();
        assert_eq!(stages, [("parse", 412), ("postings", 9123)]);
    }

    #[test]
    fn err_and_partial_and_garbage_are_failures() {
        assert_eq!(read("ERR invalid query: empty\nEND\n").0, Err(Failure::ErrStatus));
        assert_eq!(
            read("OK 1 shards=1/2 partial=true micros=5\na.txt (1 terms)\nEND\n").0,
            Err(Failure::Partial)
        );
        assert_eq!(read("HELLO\nEND\n").0, Err(Failure::Malformed));
        // The reader stays in step: the whole response was consumed.
        let mut cursor = Cursor::new(&b"ERR x\nEND\nOK 0 a=b\nEND\n"[..]);
        let mut scratch = Scratch::default();
        assert_eq!(read_response(&mut cursor, &mut scratch, false), Err(Failure::ErrStatus));
        assert_eq!(read_response(&mut cursor, &mut scratch, false).unwrap().hits, 0);
    }

    #[test]
    fn truncated_responses_are_failures() {
        assert_eq!(read("").0, Err(Failure::Truncated));
        assert_eq!(read("OK 1 generation=1\na.txt (1 terms)\n").0, Err(Failure::Truncated));
        assert_eq!(read("OK 1 generation=1\na.txt (1 te").0, Err(Failure::Truncated));
    }

    /// Yields `line` forever.
    struct Endless {
        line: &'static [u8],
        at: usize,
    }

    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            for slot in buf.iter_mut() {
                *slot = self.line[self.at % self.line.len()];
                self.at += 1;
            }
            Ok(buf.len())
        }
    }

    #[test]
    fn never_ending_responses_are_cut_off() {
        let mut scratch = Scratch::default();
        let mut lines = BufReader::new(Endless { line: b"x.txt (1 terms)\n", at: 0 });
        assert_eq!(read_response(&mut lines, &mut scratch, true), Err(Failure::NeverEnding));
        assert!(scratch.body.len() <= MAX_BODY_LINES + 1);
        let mut one_line = BufReader::new(Endless { line: b"x", at: 0 });
        assert_eq!(read_response(&mut one_line, &mut scratch, false), Err(Failure::NeverEnding));
    }

    #[test]
    fn a_query_whose_body_disagrees_with_its_count_is_malformed() {
        let mut conn =
            Conn::new(Cursor::new(&b"OK 2 generation=1\na.txt (1 terms)\nEND\n"[..]), Vec::new());
        assert_eq!(conn.query("a", false), Err(Failure::Malformed));
    }

    #[test]
    fn a_silent_socket_times_out_as_a_failed_request() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let _held = listener.accept().unwrap();
        let mut conn = TcpConn::from_stream(stream).unwrap();
        conn.reader.get_ref().set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        assert_eq!(conn.query("anything", false), Err(Failure::Io));
    }

    #[test]
    fn stats_lines_give_counters_and_deltas() {
        let before = Stats::parse(
            "queries=10 errors=0 qps=12.5 cache_hit_rate=0.500 cache_hits=5 \
             latency[n=10 p50=12us] index[shards=2 postings=99 compression=2.31x]",
        );
        let after = Stats::parse("queries=25 cache_hits=11");
        assert_eq!(before.get("queries"), 10.0);
        assert_eq!(before.get("shards"), 2.0);
        assert_eq!(before.get("compression"), 2.31);
        assert_eq!(before.get("absent"), 0.0);
        assert_eq!(before.delta(&after, "queries"), 15.0);
        assert_eq!(before.delta(&after, "cache_hits"), 6.0);
    }
}
