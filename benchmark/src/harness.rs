//! What both halves of the benchmark share: the workloads and their sizes,
//! the generated inputs, and the dsearch processes a workload runs against.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::corpus::{doc_of_path, Corpus, CorpusSpec, Root};
use crate::loadgen::RESULT_LIMIT;
use crate::procs::{dir_bytes, free_port, Exit, Proc, TempDir, EXIT_LIMIT};
use crate::queries::{generate, Bands, Query};
use crate::rng::Rng;
use crate::wire::{Conn, Failure, PipeConn, Stats, TcpConn};

/// The six workloads.  Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BuildBatch,
    BuildResumable,
    ServeHot,
    ServeCold,
    ServeZipfOpen,
    Route2Shard,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::BuildBatch,
        Workload::BuildResumable,
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeZipfOpen,
        Workload::Route2Shard,
    ];

    /// The workloads `BENCHMARK.json` lists for the driver.  Two are left
    /// to the suite and the traced run, because none of the three gated
    /// metrics is the program's alone on them.  `build_resumable` seals on
    /// the clock (every second), so on a slower spell of the machine it seals
    /// more often, and its store's size, its memory and the boot of a server
    /// on its store all follow the machine's speed (the boot's median moved
    /// by 34 % between two sets of ten seeds of one commit).  Behind the
    /// router of `route_2shard` a reply now and then waits 40 ms on Nagle's
    /// algorithm against a delayed ACK (the program sets `TCP_NODELAY`
    /// nowhere), which makes its warm-up, and with it `setup_s`, take 0.28 s
    /// or 0.55 s from one set-up to the next.
    pub const GATED: [Workload; 4] =
        [Workload::BuildBatch, Workload::ServeHot, Workload::ServeCold, Workload::ServeZipfOpen];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildBatch => "build_batch",
            Workload::BuildResumable => "build_resumable",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::ServeZipfOpen => "serve_zipf_open",
            Workload::Route2Shard => "route_2shard",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    #[must_use]
    pub fn is_build(self) -> bool {
        matches!(self, Workload::BuildBatch | Workload::BuildResumable)
    }

    /// The build command whose store the workload measures or serves.
    #[must_use]
    pub fn build_kind(self) -> BuildKind {
        if self == Workload::BuildResumable {
            BuildKind::Resumable
        } else {
            BuildKind::Batch
        }
    }
}

/// Sizes of a run: the measured ones, or the `--quick` smoke's.
#[derive(Debug, Clone)]
pub struct Scale {
    pub corpus: CorpusSpec,
    /// `--cache` passed to servers; `None` leaves the program's default
    /// (4096 entries), which is what the measured sizes are built around.
    pub cache: Option<usize>,
    pub hot_distinct: usize,
    pub cold_distinct: usize,
    pub zipf_distinct: usize,
    pub verify_samples: usize,
    /// Requests per second of `serve_zipf_open`, the open loop.  Frozen:
    /// about half of what `serve_cold` sustained closed-loop on the 2-core
    /// sandbox when the benchmark was defined.  Never auto-scaled, so a
    /// faster program shows as lower latency at the same load, not as more
    /// load.
    pub open_rate: f64,
    /// Requests of the traced run's in-process replay.
    pub replay_requests: usize,
}

impl Scale {
    #[must_use]
    pub fn standard() -> Scale {
        Scale {
            corpus: CorpusSpec::standard(),
            cache: None,
            hot_distinct: 512,
            cold_distinct: 8192,
            zipf_distinct: 16_384,
            verify_samples: 600,
            open_rate: 4000.0,
            replay_requests: 5000,
        }
    }

    #[must_use]
    pub fn quick() -> Scale {
        Scale {
            corpus: CorpusSpec::quick(),
            cache: Some(256),
            hot_distinct: 32,
            cold_distinct: 2048,
            zipf_distinct: 1024,
            verify_samples: 500,
            open_rate: 3000.0,
            replay_requests: 800,
        }
    }
}

/// Where the program is and where a run may write.
#[derive(Debug, Clone)]
pub struct Env {
    pub dsearch: PathBuf,
    /// Scratch space inside the checkout (`benchmark/out`).
    pub out: PathBuf,
    /// Extractors, workers and client connections all equal this; results
    /// from different values are not comparable.
    pub nproc: usize,
    pub scale: Scale,
}

/// Stream ids that separate the uses of one seed.
pub mod stream {
    pub const HOT: u64 = 20;
    pub const COLD: u64 = 21;
    pub const ZIPF: u64 = 22;
    pub const VERIFY: u64 = 30;
    pub const DRAWS: u64 = 100;
    pub const ARRIVALS: u64 = 200;
}

/// The generated corpus on disk plus its reference index.
pub struct Inputs {
    pub dir: TempDir,
    pub corpus: Corpus,
    pub bands: Bands,
    /// Seconds spent generating and writing (the benchmark's own cost).
    pub gen_s: f64,
}

impl Inputs {
    /// Generates the corpus for `seed` under a fresh directory in `env.out`.
    ///
    /// # Errors
    ///
    /// Fails when the files cannot be written.
    pub fn generate(env: &Env, seed: u64) -> std::io::Result<Inputs> {
        let started = Instant::now();
        let dir = TempDir::new_in(&env.out, "run")?;
        let corpus = Corpus::generate(&env.scale.corpus, seed, Some(&dir.path().join("corpus")))?;
        let bands = Bands::of(&corpus);
        Ok(Inputs { dir, corpus, bands, gen_s: started.elapsed().as_secs_f64() })
    }

    #[must_use]
    pub fn corpus_dir(&self) -> PathBuf {
        self.dir.path().join("corpus")
    }

    /// The distinct query set of a workload's stream.
    #[must_use]
    pub fn queries(&self, seed: u64, stream: u64, count: usize) -> Vec<Query> {
        generate(&self.corpus, &self.bands, seed, stream, count)
    }
}

/// The two build commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildKind {
    /// `dsearch index` (the paper's pipeline, default Implementation 3).
    Batch,
    /// `dsearch build` (leases, periodic seal + fsync'd checkpoint).
    Resumable,
}

/// One finished build.
#[derive(Debug, Clone)]
pub struct Built {
    /// Spawn to exit of the build process.
    pub build_s: f64,
    pub exit: Exit,
    pub store_bytes: u64,
    /// Whether the process succeeded and reported every corpus file.
    pub complete: bool,
    pub stdout: String,
}

/// Checkpoint interval of `build_resumable`, in seconds: the issue's value.
/// A build of this corpus takes about three seconds, so it seals and
/// checkpoints two or three times on the clock and once at the end.  (0.25 s was
/// tried for more rounds: on a slow spell the build then seals more often,
/// which slows it further, and the store's size and query cost swung by 10 to
/// 25 % between runs.)
pub const CHECKPOINT_EVERY: &str = "1";

/// Builds a store from `corpus_dir` into the fresh directory `store`.
///
/// # Errors
///
/// Fails when the program cannot be started.
pub fn build_store(
    env: &Env,
    kind: BuildKind,
    corpus_dir: &Path,
    store: &Path,
    files: usize,
) -> std::io::Result<Built> {
    let _ = std::fs::remove_dir_all(store);
    let corpus_dir = corpus_dir.to_string_lossy();
    let store_arg = store.to_string_lossy();
    let nproc = env.nproc.to_string();
    let args: Vec<&str> = match kind {
        BuildKind::Batch => {
            vec!["index", &corpus_dir, "--store", &store_arg, "--extractors", &nproc]
        }
        BuildKind::Resumable => vec![
            "build",
            &corpus_dir,
            "--store",
            &store_arg,
            "--extractors",
            &nproc,
            "--checkpoint-every",
            CHECKPOINT_EVERY,
        ],
    };
    let mut proc = Proc::spawn(&env.dsearch, &args)?;
    let spawned = proc.spawned;
    let stdout = proc.read_stdout();
    let exit = proc.wait(EXIT_LIMIT);
    let build_s = spawned.elapsed().as_secs_f64();
    let reported = match kind {
        BuildKind::Batch => stdout.contains(&format!("indexed {files} files")),
        BuildKind::Resumable => {
            stdout.contains(": complete") && stdout.contains(&format!("items_ok {files} "))
        }
    };
    let store_bytes = dir_bytes(store).unwrap_or(0);
    Ok(Built { build_s, exit, store_bytes, complete: exit.success && reported, stdout })
}

/// `serve --store <store> --workers <nproc>`, plus `--cache` at quick scale.
fn serve_args(env: &Env, store: &Path) -> Vec<String> {
    let mut args = vec![
        "serve".to_owned(),
        "--store".to_owned(),
        store.to_string_lossy().into_owned(),
        "--workers".to_owned(),
        env.nproc.to_string(),
    ];
    if let Some(cache) = env.scale.cache {
        args.extend(["--cache".to_owned(), cache.to_string()]);
    }
    args
}

/// A running `dsearch serve` or `dsearch route` with a TCP front end.
pub struct Server {
    proc: Proc,
    pub addr: SocketAddr,
    /// Spawn until the first `OK` over TCP.
    pub ready_s: f64,
}

impl Server {
    fn start(env: &Env, args: &[String], probe: &str) -> std::io::Result<Server> {
        // Another process may take the port between picking and binding;
        // the program then exits and the connect fails, so pick again.
        let mut last_error = None;
        for _ in 0..3 {
            let port = free_port()?;
            let addr: SocketAddr = ([127, 0, 0, 1], port).into();
            let mut full: Vec<String> = args.to_vec();
            full.extend(["--tcp".to_owned(), addr.to_string()]);
            let refs: Vec<&str> = full.iter().map(String::as_str).collect();
            let proc = Proc::spawn(&env.dsearch, &refs)?;
            match TcpConn::connect(addr, Duration::from_secs(20)) {
                Ok(mut conn) => {
                    return match conn.request(probe, false) {
                        Ok(_) => {
                            let ready_s = proc.spawned.elapsed().as_secs_f64();
                            Ok(Server { proc, addr, ready_s })
                        }
                        Err(failure) => Err(std::io::Error::other(format!(
                            "{} answered its first request with {failure:?}",
                            proc.name()
                        ))),
                    };
                }
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error.unwrap_or_else(|| std::io::Error::other("no port")))
    }

    /// `dsearch serve --store <store> --workers <nproc> --tcp <free port>`.
    ///
    /// # Errors
    ///
    /// Fails when the server does not answer a first query.
    pub fn serve(env: &Env, store: &Path, probe: &str) -> std::io::Result<Server> {
        Server::start(env, &serve_args(env, store), probe)
    }

    /// `dsearch route --shard <a> --shard <b> --workers <nproc> --tcp …`.
    ///
    /// # Errors
    ///
    /// Fails when the router does not answer a first query.
    pub fn route(env: &Env, shards: &[SocketAddr], probe: &str) -> std::io::Result<Server> {
        let mut args = vec!["route".to_owned(), "--workers".to_owned(), env.nproc.to_string()];
        for shard in shards {
            args.extend(["--shard".to_owned(), shard.to_string()]);
        }
        if let Some(cache) = env.scale.cache {
            args.extend(["--cache".to_owned(), cache.to_string()]);
        }
        Server::start(env, &args, probe)
    }

    /// A new client connection.
    ///
    /// # Errors
    ///
    /// Fails when the server refuses it.
    pub fn connect(&self) -> std::io::Result<TcpConn> {
        TcpConn::connect(self.addr, Duration::from_secs(5))
    }

    /// The server's `!stats` counters.
    ///
    /// # Errors
    ///
    /// Fails when the server does not answer.
    pub fn stats(&self) -> Result<Stats, Failure> {
        let mut conn = self.connect().map_err(|_| Failure::Io)?;
        conn.request("!stats", false)?;
        Ok(Stats::parse(&conn.scratch.status))
    }

    /// Asks the server to quit on its stdin and reaps it.
    pub fn stop(mut self) -> Exit {
        let _ = self.proc.send_line("!quit");
        self.proc.wait(EXIT_LIMIT)
    }
}

/// The store(s) a serving workload serves: one over the whole tree, or for
/// `route_2shard` one per half.
pub struct Stores {
    pub dirs: Vec<PathBuf>,
    pub builds: Vec<Built>,
    /// How paths print (whole tree, or one store per half).
    pub root: Root,
}

impl Stores {
    /// Builds them with the real program under `inputs`' scratch directory.
    ///
    /// # Errors
    ///
    /// Fails when a build cannot be started or is incomplete.
    pub fn build(env: &Env, inputs: &Inputs, workload: Workload) -> std::io::Result<Stores> {
        let stores = inputs.dir.path().join("stores");
        let whole = inputs.corpus.doc_count();
        let (root, parts) = if workload == Workload::Route2Shard {
            let [a, b] = Corpus::half_dirs(&inputs.corpus_dir());
            let parts = vec![("shard0", a, whole.div_ceil(2)), ("shard1", b, whole / 2)];
            (Root::Halves, parts)
        } else {
            (Root::Whole, vec![("whole", inputs.corpus_dir(), whole)])
        };
        let (mut dirs, mut builds) = (Vec::new(), Vec::new());
        for (name, corpus_dir, files) in parts {
            let store = stores.join(name);
            let built = build_store(env, workload.build_kind(), &corpus_dir, &store, files)?;
            if !built.complete {
                return Err(std::io::Error::other(format!(
                    "store build incomplete:\n{}",
                    built.stdout
                )));
            }
            dirs.push(store);
            builds.push(built);
        }
        Ok(Stores { dirs, builds, root })
    }

    /// Spawn to exit of the build(s), summed.
    #[must_use]
    pub fn build_s(&self) -> f64 {
        self.builds.iter().map(|built| built.build_s).sum()
    }

    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.builds.iter().map(|built| built.store_bytes).sum()
    }
}

/// The processes of one serving workload, ready to be measured.
pub struct Cluster {
    /// The server clients talk to (the router for `route_2shard`).
    pub front: Server,
    /// The shard servers behind a router.
    pub shards: Vec<Server>,
}

impl Cluster {
    /// Boots a server on each store, and a router over them when there is
    /// more than one, each until it answers `probe`.
    ///
    /// # Errors
    ///
    /// Fails when a server does not come up.
    pub fn boot(env: &Env, stores: &Stores, probe: &str) -> std::io::Result<Cluster> {
        let mut servers = stores
            .dirs
            .iter()
            .map(|store| Server::serve(env, store, probe))
            .collect::<std::io::Result<Vec<Server>>>()?;
        if servers.len() == 1 {
            Ok(Cluster { front: servers.remove(0), shards: Vec::new() })
        } else {
            let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr).collect();
            Ok(Cluster { front: Server::route(env, &addrs, probe)?, shards: servers })
        }
    }

    /// Stops every process; returns each one's exit (front first).
    pub fn stop(self) -> Vec<Exit> {
        let mut exits = vec![self.front.stop()];
        exits.extend(self.shards.into_iter().map(Server::stop));
        exits
    }
}

/// Checks one kept response body against the reference index: hit count =
/// min(expected, limit), every returned path is a matching document's path
/// as this root prints it, no document twice, and so exact set equality when
/// everything fits under the limit.
#[must_use]
pub fn answer_is_right(corpus: &Corpus, root: Root, query: &Query, paths: &[&str]) -> bool {
    let matching = query.matching(corpus);
    if paths.len() != matching.len().min(RESULT_LIMIT as usize) {
        return false;
    }
    let mut docs: Vec<u32> = Vec::with_capacity(paths.len());
    for path in paths {
        let Some(doc) = doc_of_path(path) else { return false };
        if matching.binary_search(&doc).is_err() || corpus.printed_path(doc, root) != *path {
            return false;
        }
        docs.push(doc);
    }
    docs.sort_unstable();
    docs.dedup();
    docs.len() == paths.len()
}

/// Checks the full answer to each of `queries`; returns how many were wrong
/// (a failed request is a wrong answer).
pub fn verify_queries<'q, R: std::io::BufRead, W: std::io::Write>(
    conn: &mut Conn<R, W>,
    corpus: &Corpus,
    root: Root,
    queries: impl IntoIterator<Item = &'q Query>,
) -> u64 {
    let mut wrong = 0;
    for query in queries {
        let right = conn.query(&query.text, true).is_ok() && {
            let paths: Vec<&str> = conn.scratch.hit_paths().collect();
            answer_is_right(corpus, root, query, &paths)
        };
        wrong += u64::from(!right);
    }
    wrong
}

/// The untimed verification pass: `samples` queries drawn from `queries`
/// without repeats (a stride walk from a seeded start), each answer checked
/// in full.  Returns `(checked, wrong)`.
pub fn verify_sample<R: std::io::BufRead, W: std::io::Write>(
    conn: &mut Conn<R, W>,
    corpus: &Corpus,
    root: Root,
    queries: &[Query],
    seed: u64,
    samples: usize,
) -> (u64, u64) {
    let samples = samples.min(queries.len());
    let start = Rng::new(seed, stream::VERIFY).below(queries.len());
    let stride = (queries.len() / samples).max(1);
    let sample = (0..samples).map(|i| &queries[(start + i * stride) % queries.len()]);
    (samples as u64, verify_queries(conn, corpus, root, sample))
}

/// Boots `dsearch serve` on `store` with the line protocol on its pipes (no
/// TCP front end).  Returns the process, the connection and the seconds from
/// spawn to the first `OK`.
///
/// # Errors
///
/// Fails when the server does not answer a first query.
pub fn pipe_server(env: &Env, store: &Path, probe: &str) -> std::io::Result<(Proc, PipeConn, f64)> {
    let args = serve_args(env, store);
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut proc = Proc::spawn(&env.dsearch, &refs)?;
    let (Some(stdin), Some(stdout)) = (proc.stdin.take(), proc.stdout.take()) else {
        return Err(std::io::Error::other("child has no pipes"));
    };
    let mut conn = Conn::new(stdout, stdin);
    conn.query(probe, false).map_err(|failure| {
        std::io::Error::other(format!("first query over the pipe failed: {failure:?}"))
    })?;
    let ready_s = proc.spawned.elapsed().as_secs_f64();
    Ok((proc, conn, ready_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("serve_warm"), None);
        assert!(Workload::BuildResumable.is_build() && !Workload::ServeHot.is_build());
    }

    #[test]
    fn answers_are_checked_for_count_membership_path_and_repeats() {
        let spec = CorpusSpec { small_files: 200, large_files: 1, ..CorpusSpec::quick() };
        let corpus = Corpus::generate(&spec, 2, None).unwrap();
        let queries = generate(&corpus, &Bands::of(&corpus), 2, 1, 200);
        let small = queries.iter().find(|q| (2..=20).contains(&q.expected)).unwrap();
        let docs = small.matching(&corpus);
        let whole: Vec<String> =
            docs.iter().map(|&d| corpus.printed_path(d, Root::Whole)).collect();
        let refs: Vec<&str> = whole.iter().map(String::as_str).collect();
        assert!(answer_is_right(&corpus, Root::Whole, small, &refs));
        // The same documents printed by half-tree stores are wrong for a
        // whole-tree server, and right for a router over the halves.
        let halves: Vec<String> =
            docs.iter().map(|&d| corpus.printed_path(d, Root::Halves)).collect();
        let half_refs: Vec<&str> = halves.iter().map(String::as_str).collect();
        assert!(!answer_is_right(&corpus, Root::Whole, small, &half_refs));
        assert!(answer_is_right(&corpus, Root::Halves, small, &half_refs));
        // One hit short, one repeated, one that does not match.
        assert!(!answer_is_right(&corpus, Root::Whole, small, &refs[1..]));
        let mut repeated = refs.clone();
        repeated[0] = repeated[1];
        assert!(!answer_is_right(&corpus, Root::Whole, small, &repeated));
        let outsider = (0..corpus.doc_count() as u32).find(|d| !docs.contains(d)).unwrap();
        let outsider = corpus.printed_path(outsider, Root::Whole);
        let mut wrong = refs.clone();
        wrong[0] = &outsider;
        assert!(!answer_is_right(&corpus, Root::Whole, small, &wrong));
        // Over the limit: any 20 distinct matching documents pass.
        let big = queries.iter().find(|q| q.expected > 25).unwrap();
        let many: Vec<String> = big
            .matching(&corpus)
            .iter()
            .skip(3)
            .take(20)
            .map(|&d| corpus.printed_path(d, Root::Whole))
            .collect();
        let many_refs: Vec<&str> = many.iter().map(String::as_str).collect();
        assert!(answer_is_right(&corpus, Root::Whole, big, &many_refs));
        assert!(!answer_is_right(&corpus, Root::Whole, big, &many_refs[..19]));
    }
}
