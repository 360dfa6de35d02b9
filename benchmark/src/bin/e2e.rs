//! The end-to-end half: tracing off, real `dsearch` processes, a client on
//! pipes and sockets.  Links no dsearch library code.
//!
//! `e2e --workload <name> --seed <n> --seconds <s> [--quick] [--measured]
//!      [--dsearch-bin <path>] [--out-dir <dir>]`
//!
//! prints what it measured on stderr and, as the last line of stdout, the
//! result object of the driver's contract: the gated metrics, and with
//! `--measured` the ungated times of the run after them.

use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use dsbench::cli::Args;
use dsbench::corpus::Root;
use dsbench::harness::{
    build_store, pipe_server, verify_queries, verify_sample, Cluster, Env, Inputs, Stores, Workload,
};
use dsbench::json::render;
use dsbench::procs::{Exit, Proc, EXIT_LIMIT};
use dsbench::queries::Query;
use dsbench::report::{RunResult, END_TO_END};
use dsbench::serving::{measure, query_set, warm_up, Load};
use dsbench::stats::median;

fn other(message: impl Into<String>) -> std::io::Error {
    std::io::Error::other(message.into())
}

/// Set-ups per serving run; `setup_s` is their median.
const SETUPS: usize = 5;

fn run_serving(env: &Env, args: &Args, workload: Workload) -> std::io::Result<RunResult> {
    let inputs = Inputs::generate(env, args.seed)?;
    let queries = query_set(env, &inputs, workload, args.seed);
    let probe = &queries[queries.len() - 1].text;
    let stores = Stores::build(env, &inputs, workload)?;

    // Set-up is what a deployment pays before its first request on a store
    // it already has: boot until the first OK, and warm-up.  Five times
    // over, the median reported; the last cluster stays up and is the one
    // measured.  (The store build is not in it: it is `build_s`, and on the
    // shared sandbox a `dsearch index` takes 1.5 to 2.5 times as long for
    // minutes on end, which no median over one run's set-ups rides out.)
    let mut setups = Vec::new();
    let mut wrong = 0;
    let cluster = loop {
        let started = Instant::now();
        let cluster = Cluster::boot(env, &stores, probe)?;
        warm_up(env, &cluster.front, workload, &queries, args.seed)?;
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            break cluster;
        }
        wrong += u64::from(!cluster.stop().iter().all(|e| e.success));
    };

    let cursor = AtomicUsize::new(0);
    let load = Load::of(env, workload, &queries, args.seed, &cursor);
    let mut tally = measure(&cluster.front, &load, args.seconds)?;

    // Untimed: which documents came back, not only how many.
    let mut conn = cluster.front.connect()?;
    let (checked, wrong_answers) = verify_sample(
        &mut conn,
        &inputs.corpus,
        stores.root,
        &queries,
        args.seed,
        env.scale.verify_samples,
    );
    wrong += wrong_answers;
    drop(conn);

    let exits = cluster.stop();
    wrong += u64::from(!exits.iter().all(|e| e.success));
    let rss_kb: u64 = exits.iter().map(|e| e.peak_rss_kb).sum();

    let latency =
        tally.latency_us().ok_or_else(|| other("no request of the measured time succeeded"))?;
    let mut result = RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        wrong,
        ..RunResult::default()
    };
    let m = &mut result.metrics;
    m.set("setup_s", median(&setups));
    m.set("build_s", stores.build_s());
    m.set("store_bytes_ratio", stores.bytes() as f64 / inputs.corpus.total_bytes as f64);
    m.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    m.set("qps", tally.ok() as f64 / args.seconds);
    m.set("p50_us", latency.p50);
    m.set("p99_us", latency.tail);
    eprintln!(
        "{}: {} requests, {} failed ({:?}); verification {checked} checked, {wrong} wrong; \
         tail = p{} over {} samples; set-ups {setups:.3?}, build {:.3} s; corpus {} files \
         {:.1} MB generated in {:.2} s; nproc {}",
        workload.name(),
        tally.attempted,
        tally.failed,
        tally.first_failure,
        latency.tail_q * 100.0,
        latency.samples,
        stores.build_s(),
        inputs.corpus.doc_count(),
        inputs.corpus.total_bytes as f64 / 1e6,
        inputs.gen_s,
        env.nproc,
    );
    Ok(result)
}

/// Runs `work` on a helper thread and gives it `limit` to finish: a pipe has
/// no read timeout, so a server that stops answering is caught here, killed
/// by dropping `proc`, and the helper then sees its pipe close.
fn with_deadline<T: Send>(
    proc: Proc,
    limit: Duration,
    work: impl FnOnce() -> T + Send,
) -> std::io::Result<(T, Exit)> {
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        scope.spawn(move || {
            let _ = tx.send(work());
        });
        match rx.recv_timeout(limit) {
            Ok(value) => Ok((value, proc.wait(EXIT_LIMIT))),
            Err(_) => {
                drop(proc);
                Err(other("the server stopped answering on its pipe"))
            }
        }
    })
}

/// Answers checked in full against each build's store.
const CHECKS_PER_BUILD: usize = 200;

/// The build workloads.  The operation is one build, so no serving code
/// runs in the measured time and a serving change shows nothing here.
fn run_build(env: &Env, args: &Args, workload: Workload) -> std::io::Result<RunResult> {
    let inputs = Inputs::generate(env, args.seed)?;
    let queries = query_set(env, &inputs, workload, args.seed);
    let probe = &queries[queries.len() - 1].text;
    let checks_per_build = CHECKS_PER_BUILD.min(queries.len());
    let store = inputs.dir.path().join("store");
    let files = inputs.corpus.doc_count();

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut result = RunResult::default();
    let mut build_times = Vec::new();
    let mut boots = Vec::new();
    let mut rss = Vec::new();
    let mut ratios = Vec::new();
    loop {
        let built = build_store(env, workload.build_kind(), &inputs.corpus_dir(), &store, files)?;
        result.attempted += 1;
        if !built.complete {
            result.failed += 1;
            eprintln!("incomplete build:\n{}", built.stdout);
        }
        build_times.push(built.build_s);
        ratios.push(built.store_bytes as f64 / inputs.corpus.total_bytes as f64);

        // Load the fresh store over the pipe front end and check answers
        // from it; the boot is this workload's set-up time.
        let (proc, mut conn, ready_s) = pipe_server(env, &store, probe)?;
        boots.push(ready_s);
        let offset = (build_times.len() * checks_per_build) % queries.len();
        let checks: Vec<Query> =
            queries.iter().cycle().skip(offset).take(checks_per_build).cloned().collect();
        let corpus = &inputs.corpus;
        let (wrong, exit) = with_deadline(proc, Duration::from_secs(60), move || {
            let wrong = verify_queries(&mut conn, corpus, Root::Whole, &checks);
            let _ = conn.request("!quit", false);
            wrong
        })?;
        result.wrong += wrong + u64::from(!exit.success);
        rss.push((built.exit.peak_rss_kb + exit.peak_rss_kb) as f64 / 1024.0);
        if started.elapsed() >= budget {
            break;
        }
    }

    // (No build is left out as a warm-up: the corpus was written a moment
    // ago, so even the first build reads it from the page cache.)
    let m = &mut result.metrics;
    m.set("setup_s", median(&boots));
    m.set("build_s", median(&build_times));
    m.set("store_bytes_ratio", median(&ratios));
    m.set("peak_rss_mb", median(&rss));
    eprintln!(
        "{}: {} builds {build_times:.3?}; boots {boots:.3?}; {} wrong answers of {} checked; \
         corpus {} files {:.1} MB generated in {:.2} s; nproc {}",
        workload.name(),
        build_times.len(),
        result.wrong,
        build_times.len() * checks_per_build,
        files,
        inputs.corpus.total_bytes as f64 / 1e6,
        inputs.gen_s,
        env.nproc,
    );
    Ok(result)
}

fn main() {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        let workload = args.workload.ok_or("--workload is required")?;
        let env = args.env()?;
        let run = if workload.is_build() { run_build } else { run_serving };
        let result = run(&env, &args, workload).map_err(|e| e.to_string())?;
        eprintln!("measured: {}", render(&result.contract(END_TO_END, true)?));
        result.contract(END_TO_END, args.measured)
    });
    match outcome {
        Ok(line) => println!("{}", render(&line)),
        Err(message) => {
            eprintln!("e2e: {message}");
            std::process::exit(2);
        }
    }
}
