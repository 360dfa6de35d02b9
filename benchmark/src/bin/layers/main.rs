//! The traced half: the same inputs as the end-to-end run, replayed in this
//! process through the program's public functions with a span around each
//! call into a layer, and replayed over the wire against the real processes
//! with `@<hex-id>` prefixes and a `!stats` scrape before and after, so the
//! program's own stage tiling and counters are read from outside.
//!
//! `layers --workload <name> --seed <n> --seconds <s> [--quick]
//!         [--dsearch-bin <path>] [--out-dir <dir>]`
//!
//! Spans stay in memory and are written to `<out-dir>/trace-<workload>.json`
//! once, at exit.  The last line of stdout is the result object with every
//! per-layer metric (a layer the workload never enters reports 0).

mod facade;

use std::path::Path;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use dsbench::cli::Args;
use dsbench::harness::{
    build_store, verify_sample, BuildKind, Cluster, Env, Inputs, Server, Stores, Workload,
    CHECKPOINT_EVERY,
};
use dsbench::loadgen::{Stream, Tally, RESULT_LIMIT};
use dsbench::procs::dir_bytes;
use dsbench::queries::{Query, Shape};
use dsbench::report::{RunResult, PER_LAYER};
use dsbench::rng::{Rng, Zipf};
use dsbench::serving::{measure, query_set, warm_up, warm_up_plan, Load, DRAW_EXPONENT};
use dsbench::stats::{median, quantile_sorted};
use dsbench::trace::{median_ns, Tracer};
use dsbench::wire::{parse_stages, Stats, TcpConn};

type AnyError = Box<dyn std::error::Error + Send + Sync>;

/// Share of `--seconds` each wire replay phase takes.
const PHASE_SHARE: f64 = 0.2;

// ---------------------------------------------------------------- builds --

/// The build layers called once each, in pipeline order, every call in a
/// span.  This is the paper's Table 1 view (stages timed one after another),
/// not a copy of any one implementation: files alternate between `nproc`
/// replicas so that the join has something to join.
fn staged_build(
    t: &mut Tracer,
    env: &Env,
    root: &Path,
    store: &Path,
    m: &mut dsbench::report::Metrics,
) -> Result<(), AnyError> {
    let tree = t.leaf("vfs.walk", 0, || facade::walk(root)).0?;
    let tokenizer = facade::tokenizer();
    let mut replicas: Vec<_> = (0..env.nproc).map(|_| facade::replica()).collect();
    let (mut bytes_read, mut occurrences) = (0u64, 0u64);
    for (i, file) in tree.files.iter().enumerate() {
        let request = i as u64 + 1;
        let (done, _) = t.span("file", request, |t| -> Result<(u64, u64), AnyError> {
            let data = t.leaf("vfs.read", request, || facade::read(&tree, file)).0?;
            let ((terms, seen), _) =
                t.leaf("text.tokenize", request, || facade::tokenize(&tokenizer, file, &data));
            t.leaf("index.update", request, || facade::update(&mut replicas[i % env.nproc], terms));
            Ok((data.len() as u64, seen))
        });
        let (bytes, seen) = done?;
        bytes_read += bytes;
        occurrences += seen;
    }
    let index = t.leaf("index.join", 0, || facade::join(replicas)).0;
    let (postings, posting_bytes) = t.leaf("index.seal", 0, || facade::seal(&index)).0;
    let segments = t.leaf("persist.write", 0, || facade::persist(store, &index, &tree.docs)).0?;
    t.leaf("persist.load", 0, || facade::load_snapshot(store).map(drop)).0?;

    m.set("vfs.files", tree.files.len() as f64);
    m.set("vfs.bytes_read", bytes_read as f64);
    m.set("text.terms", occurrences as f64);
    m.set("index.postings", postings as f64);
    m.set("index.bytes_per_posting", posting_bytes as f64 / postings.max(1) as f64);
    m.set("persist.bytes_written", dir_bytes(store)? as f64);
    m.set("persist.segments", segments as f64);
    Ok(())
}

fn trace_build(
    env: &Env,
    args: &Args,
    workload: Workload,
) -> Result<(RunResult, Tracer), AnyError> {
    let inputs = Inputs::generate(env, args.seed)?;
    let root = inputs.corpus_dir();
    let scratch = inputs.dir.path();
    let mut result = RunResult::default();
    let m = &mut result.metrics;
    m.set("loadgen.corpus_gen_s", inputs.gen_s);

    let mut tracer = Tracer::new();
    tracer.span("build", 0, |t| staged_build(t, env, &root, &scratch.join("staged"), m)).0?;
    for (metric, span) in [
        ("vfs.walk_s", "vfs.walk"),
        ("vfs.read_s", "vfs.read"),
        ("text.tokenize_s", "text.tokenize"),
        ("index.update_s", "index.update"),
        ("index.join_s", "index.join"),
        ("index.seal_s", "index.seal"),
        ("persist.write_s", "persist.write"),
        ("persist.load_s", "persist.load"),
    ] {
        m.set(metric, tracer.total_self_s(span));
    }

    // The whole pipeline as the program runs it, timed by its own report:
    // the paper's headline is the parallel run against the sequential one.
    let parallel = facade::run_parallel(&root, env.nproc)?;
    let sequential_s = facade::run_sequential(&root)?;
    m.set("core.extract_s", parallel.extraction_s);
    m.set("core.speedup_vs_sequential", sequential_s / parallel.total_s);
    // And one build by the real program, spawn to exit, nothing traced.
    let files = inputs.corpus.doc_count();
    let built = build_store(env, workload.build_kind(), &root, &scratch.join("program"), files)?;
    m.set("build_s", built.build_s);
    result.attempted = 3;
    result.failed += u64::from(!built.complete);

    if workload == Workload::BuildResumable {
        let every = Duration::from_secs_f64(CHECKPOINT_EVERY.parse::<f64>()?);
        let store = scratch.join("resumable");
        let full = facade::build_resumable(&root, &store, env.nproc, every, None, false)?;
        result.attempted += 1;
        result.failed +=
            u64::from(!full.complete || full.items_ok != inputs.corpus.doc_count() as u64);
        m.set("core.items_retried", full.items_retried as f64);
        m.set("core.lease_reclaims", full.lease_reclaims as f64);
        m.set("persist.checkpoint_writes", full.checkpoint_writes as f64);
        m.set("persist.segments", full.segments as f64);
        m.set("persist.bytes_written", dir_bytes(&store)? as f64);
        let saves: Vec<f64> = (0..9)
            .map(|_| {
                let started = Instant::now();
                facade::rewrite_checkpoint(&store).map(|()| started.elapsed().as_secs_f64())
            })
            .collect::<Result<_, _>>()?;
        m.set("persist.checkpoint_s", median(&saves));

        // Interrupt at half the files, then time the resumed half.
        let store = scratch.join("resumed");
        let half = inputs.corpus.doc_count() as u64 / 2;
        let first = facade::build_resumable(&root, &store, env.nproc, every, Some(half), false)?;
        let second = facade::build_resumable(&root, &store, env.nproc, every, None, true)?;
        result.attempted += 1;
        result.failed += u64::from(first.complete || !second.complete);
        m.set("core.resume_s", second.elapsed_s);
    }
    eprintln!(
        "{}: {} spans; sequential {sequential_s:.3} s, parallel {:.3} s on {} threads",
        workload.name(),
        tracer.spans().len(),
        parallel.total_s,
        env.nproc
    );
    Ok((result, tracer))
}

// --------------------------------------------------------------- serving --

/// The requests of the in-process replay: the workload's own stream, `n`
/// requests long, after the workload's own warm-up (one connection's plan
/// with `conns = 1`, i.e. all of it).
fn replay_sequence(
    workload: Workload,
    queries: &[Query],
    seed: u64,
    n: usize,
) -> (Vec<&Query>, Vec<&Query>) {
    let warm = warm_up_plan(workload, queries, seed, 1, 0);
    let sequence = match workload {
        Workload::ServeHot | Workload::ServeZipfOpen => {
            let zipf = Zipf::new(queries.len(), DRAW_EXPONENT);
            let mut rng = Rng::new(seed, 900);
            (0..n).map(|_| &queries[zipf.sample(&mut rng)]).collect()
        }
        _ => (0..n).map(|i| &queries[i % queries.len()]).collect(),
    };
    (warm, sequence)
}

/// Per-request durations of the replay passes, in nanoseconds.
#[derive(Default)]
struct Replay {
    protocol_parse: Vec<u64>,
    query_parse: Vec<u64>,
    cache_get: Vec<u64>,
    /// 0 for a cache hit.
    eval: Vec<u64>,
    cache_insert: Vec<u64>,
    render: Vec<u64>,
    response_bytes: Vec<u64>,
    eval_by_shape: std::collections::BTreeMap<Shape, Vec<u64>>,
    hits: u64,
    engine: Vec<u64>,
    pool: Vec<u64>,
    round_trip: Vec<u64>,
}

fn signed_median(values: impl Iterator<Item = i64>) -> f64 {
    let mut values: Vec<i64> = values.collect();
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    (quantile_sorted(&values, 0.5) as f64).max(0.0)
}

/// The layer calls of one request, each in its own span, in the order the
/// engine makes them, against a cache of the engine's shape.
fn layer_calls(
    t: &mut Tracer,
    id: u64,
    query: &Query,
    snapshot: &facade::Snapshot,
    cache: &facade::Cache,
    replay: &mut Replay,
) -> Result<(), AnyError> {
    let limit = RESULT_LIMIT as usize;
    let (text, ns) = t.leaf("protocol.parse", id, || facade::protocol_parse(&query.text));
    replay.protocol_parse.push(ns);
    let text = text.ok_or("a query line parsed as a control line")?;
    let (parsed, ns) = t.leaf("query.parse", id, || facade::query_parse(&text));
    replay.query_parse.push(ns);
    let (parsed, canonical) = parsed?;
    let (cached, ns) = t.leaf("cache.get", id, || facade::cache_get(cache, &canonical));
    replay.cache_get.push(ns);
    let hit = cached.is_some();
    let results = match cached {
        Some(results) => {
            replay.hits += 1;
            replay.eval.push(0);
            replay.cache_insert.push(0);
            results
        }
        None => {
            let span = match query.shape {
                Shape::Term => "query.eval_term",
                Shape::And => "query.eval_and",
                Shape::Or => "query.eval_or",
                Shape::Prefix => "query.eval_prefix",
                Shape::AndNot => "query.eval_not",
            };
            let (results, ns) = t.leaf(span, id, || facade::evaluate(snapshot, &parsed, limit));
            replay.eval.push(ns);
            replay.eval_by_shape.entry(query.shape).or_default().push(ns);
            let results = std::sync::Arc::new(results);
            let ((), ns) = t.leaf("cache.insert", id, || {
                facade::cache_insert(cache, &canonical, std::sync::Arc::clone(&results));
            });
            replay.cache_insert.push(ns);
            results
        }
    };
    let (bytes, ns) = t.leaf("protocol.render", id, || facade::render(&canonical, &results, hit));
    replay.render.push(ns);
    replay.response_bytes.push(bytes as u64);
    Ok(())
}

/// Replays `sequence` four ways at once.  Per request, one after the other:
/// the layer calls; `QueryEngine::execute`; `WorkerPool::execute`; a TCP
/// round trip to a `TcpServer` in this process.  Each way has its own engine
/// (or cache) warmed the same way, so all four see the same hits and misses;
/// taking them in turn per request, not pass after pass, keeps the machine
/// in the same state for the durations that are subtracted from each other.
fn replay_in_process(
    t: &mut Tracer,
    store: &Path,
    shape: &facade::EngineShape,
    warm: &[&Query],
    sequence: &[&Query],
    replay: &mut Replay,
) -> Result<(), AnyError> {
    let snapshot = t.leaf("persist.load", 0, || facade::load_snapshot(store)).0?;
    let cache = facade::cache(shape);
    let engine = facade::engine(facade::load_snapshot(store)?, shape)?;
    let pool = facade::pool(facade::engine(facade::load_snapshot(store)?, shape)?);
    let server = facade::serve(facade::engine(facade::load_snapshot(store)?, shape)?)?;
    let mut conn = TcpConn::connect(server.addr, Duration::from_secs(5))?;

    let mut untraced = Tracer::new();
    let mut unrecorded = Replay::default();
    for query in warm {
        layer_calls(&mut untraced, 0, query, &snapshot, &cache, &mut unrecorded)?;
        facade::engine_execute(&engine, &query.text)?;
        facade::pool_execute(&pool, &query.text)?;
        conn.query(&query.text, false).map_err(|f| format!("in-process warm-up: {f:?}"))?;
    }
    for (i, query) in sequence.iter().enumerate() {
        let id = i as u64 + 1;
        t.span("request", id, |t| -> Result<(), AnyError> {
            t.span("layer_calls", id, |t| layer_calls(t, id, query, &snapshot, &cache, replay)).0?;
            let (hits, ns) =
                t.leaf("engine.execute", id, || facade::engine_execute(&engine, &query.text));
            hits?;
            replay.engine.push(ns);
            let (hits, ns) =
                t.leaf("batch.execute", id, || facade::pool_execute(&pool, &query.text));
            hits?;
            replay.pool.push(ns);
            let (reply, ns) = t.leaf("serve.round_trip", id, || conn.query(&query.text, false));
            reply.map_err(|f| format!("in-process round trip: {f:?}"))?;
            replay.round_trip.push(ns);
            Ok(())
        })
        .0?;
    }
    Ok(())
}

/// What a wire replay with `@<hex-id>` prefixes read off the status lines.
#[derive(Default)]
struct TracedWire {
    latency_ns: Vec<u32>,
    /// Σ program-reported stages ÷ client-observed latency, per request.
    coverage: Vec<f64>,
    queue_wait_ns: Vec<u64>,
    scatter_ns: Vec<u64>,
    merge_ns: Vec<u64>,
    shard_rtt_ns: Vec<u64>,
    failed: u64,
    partial: u64,
    attempted: u64,
}

/// One connection, closed loop, every request traced by the program.
fn traced_wire_replay(
    front: &Server,
    mut stream: Stream<'_>,
    seconds: f64,
    routed: bool,
) -> Result<TracedWire, AnyError> {
    let mut conn = front.connect()?;
    let mut out = TracedWire::default();
    let started = Instant::now();
    let mut line = String::new();
    while started.elapsed().as_secs_f64() < seconds {
        let query = stream.draw();
        out.attempted += 1;
        line.clear();
        line.push_str(&format!("@{:x} {}", out.attempted, query.text));
        let sent = Instant::now();
        let outcome = conn.query(&line, routed);
        let latency = sent.elapsed().as_nanos() as u64;
        match outcome {
            Ok(reply) if reply.hits == query.expected.min(RESULT_LIMIT) => {}
            Ok(_) => {
                out.failed += 1;
                continue;
            }
            Err(failure) => {
                out.failed += 1;
                out.partial += u64::from(failure == dsbench::wire::Failure::Partial);
                continue;
            }
        }
        out.latency_ns.push(u32::try_from(latency).unwrap_or(u32::MAX));
        let mut total = 0u64;
        for (name, ns) in parse_stages(conn.scratch.field("stages").unwrap_or("")) {
            total += ns;
            match name {
                "queue_wait" => out.queue_wait_ns.push(ns),
                "scatter" => out.scatter_ns.push(ns),
                "merge" => out.merge_ns.push(ns),
                _ => {}
            }
        }
        out.coverage.push(total as f64 / latency as f64);
        // The slowest shard sets the reply time: take the maximum.
        let slowest = conn
            .scratch
            .body
            .iter()
            .filter(|line| line.starts_with("# shard "))
            .filter_map(|line| {
                line.split(' ').find_map(|f| f.strip_prefix("rtt=")?.parse::<u64>().ok())
            })
            .max();
        out.shard_rtt_ns.extend(slowest);
    }
    Ok(out)
}

fn p50_us(tally: &mut Tally) -> f64 {
    tally.latency_us().map_or(0.0, |l| l.p50)
}

fn trace_serving(
    env: &Env,
    args: &Args,
    workload: Workload,
) -> Result<(RunResult, Tracer), AnyError> {
    let inputs = Inputs::generate(env, args.seed)?;
    let queries = query_set(env, &inputs, workload, args.seed);
    let probe = &queries[queries.len() - 1].text;
    let mut result = RunResult::default();
    result.metrics.set("loadgen.corpus_gen_s", inputs.gen_s);
    let mut tracer = Tracer::new();

    let stores = Stores::build(env, &inputs, workload)?;
    let cluster = Cluster::boot(env, &stores, probe)?;
    warm_up(env, &cluster.front, workload, &queries, args.seed)?;
    let m = &mut result.metrics;
    m.set("serve.ready_s", cluster.front.ready_s);
    let phase_s = (args.seconds * PHASE_SHARE).max(0.3);
    let cursor = AtomicUsize::new(0);
    let zipf = Zipf::new(queries.len(), DRAW_EXPONENT);
    let load = |conns: usize, phase: u64, workload: Workload| Load {
        workload,
        queries: &queries,
        seed: args.seed,
        conns,
        open_rate: None,
        cursor: &cursor,
        phase,
    };
    let stream_for = |phase: u64| match workload {
        Workload::ServeHot | Workload::ServeZipfOpen => {
            Stream::Zipf { queries: &queries, zipf: &zipf, rng: Rng::new(args.seed, 700 + phase) }
        }
        _ => Stream::Cycle { queries: &queries, cursor: &cursor },
    };

    // Phase 1: the workload's own load as the end-to-end run applies it
    // (`nproc` connections; the open loop at the frozen rate for
    // `serve_zipf_open`) with the counters scraped around it.  Nothing is
    // traced yet, so what the load generator sees here are the end-to-end
    // times under their own names (`UNGATED_TIMES`).
    let before = cluster.front.stats().map_err(|f| format!("!stats failed: {f:?}"))?;
    let shard_before: Vec<Stats> = cluster.shards.iter().filter_map(|s| s.stats().ok()).collect();
    let own_s = phase_s * 1.5;
    let own_load = Load { phase: 1, ..Load::of(env, workload, &queries, args.seed, &cursor) };
    let mut own = measure(&cluster.front, &own_load, own_s)?;
    let after = cluster.front.stats().map_err(|f| format!("!stats failed: {f:?}"))?;
    let shard_after: Vec<Stats> = cluster.shards.iter().filter_map(|s| s.stats().ok()).collect();
    result.attempted += own.attempted;
    result.failed += own.failed;
    // A router's own cache and counters sit on its status line; what the
    // shards did is the sum over the shards.
    let delta = |name: &str| {
        if shard_before.is_empty() {
            before.delta(&after, name)
        } else {
            shard_before.iter().zip(&shard_after).map(|(b, a)| b.delta(a, name)).sum()
        }
    };
    let m = &mut result.metrics;
    let lookups = delta("cache_hits") + delta("cache_misses");
    m.set("cache.hit_share", if lookups > 0.0 { delta("cache_hits") / lookups } else { 0.0 });
    m.set("cache.evictions", delta("cache_evictions"));
    m.set("cache.rejected", delta("cache_rejected"));
    let served = before.delta(&after, "queries");
    m.set(
        "batch.batched_share",
        if served > 0.0 { before.delta(&after, "batched") / served } else { 0.0 },
    );
    m.set("batch.dedup_hits", before.delta(&after, "dedup_hits"));
    m.set("batch.shed", before.delta(&after, "shed"));
    m.set("serve.conns_rejected", before.delta(&after, "conns_rejected"));
    m.set("index.blocks_scored", delta("blocks_scored"));
    m.set("index.blocks_skipped", delta("blocks_skipped"));
    if workload == Workload::Route2Shard {
        m.set(
            "route.partial_share",
            if served > 0.0 { before.delta(&after, "partial") / served } else { 0.0 },
        );
    }
    if workload == Workload::Route2Shard {
        // A reply held back by Nagle against a delayed ACK takes 40 ms;
        // nothing else on a loopback comes near 20 ms.
        let stalled = own.latency_ns.iter().filter(|&&ns| ns > 20_000_000).count();
        m.set("route.stall_share", stalled as f64 / own.ok().max(1) as f64);
    }
    own.lag_ns.sort_unstable();
    if !own.lag_ns.is_empty() {
        m.set("loadgen.lag_p99_us", f64::from(quantile_sorted(&own.lag_ns, 0.99)) / 1e3);
    }
    m.set("build_s", stores.build_s());
    m.set("qps", own.ok() as f64 / own_s);
    let own_p50 = own.latency_us().map_or(0.0, |latency| {
        m.set("p50_us", latency.p50);
        m.set("p99_us", latency.tail);
        latency.p50
    });
    if workload == Workload::ServeZipfOpen {
        // A fixed ladder around the frozen rate; a rung passes when nothing
        // failed, p99 stays within 5 ms and the backlog is not growing (the
        // last quarter of the rung is no slower than the limit either).
        let mut best = 0.0;
        for (rung, factor) in [0.5, 1.0, 2.0, 4.0].into_iter().enumerate() {
            let rate = env.scale.open_rate * factor;
            let rung_load =
                Load { open_rate: Some(rate), ..load(env.nproc, 10 + rung as u64, workload) };
            let mut tally = measure(&cluster.front, &rung_load, phase_s / 2.0)?;
            let last_quarter = std::mem::take(&mut tally.last_quarter_ns);
            let whole = tally.latency_us();
            let mut last = Tally { latency_ns: last_quarter, ..Tally::default() };
            let within = |l: Option<dsbench::stats::Latency>| l.is_some_and(|l| l.tail <= 5000.0);
            if tally.failed == 0 && within(whole) && within(last.latency_us()) {
                best = rate;
            }
        }
        result.metrics.set("loadgen.max_rate_ok", best);
    }

    // Phases 2 and 3: one connection, untraced then traced by the program.
    let mut single = measure(&cluster.front, &load(1, 2, workload), phase_s)?;
    let single_p50 = p50_us(&mut single);
    let routed = workload == Workload::Route2Shard;
    let mut traced = traced_wire_replay(&cluster.front, stream_for(3), phase_s, routed)?;
    result.attempted += single.attempted + traced.attempted;
    result.failed += single.failed + traced.failed;
    traced.latency_ns.sort_unstable();
    let m = &mut result.metrics;
    if !traced.latency_ns.is_empty() && single_p50 > 0.0 {
        let traced_p50 = f64::from(quantile_sorted(&traced.latency_ns, 0.5)) / 1e3;
        m.set("obs.trace_overhead_share", traced_p50 / single_p50 - 1.0);
        m.set("obs.stage_coverage_share", median(&traced.coverage));
        m.set("batch.queue_wait_ns", median_ns(&traced.queue_wait_ns));
    }
    if routed {
        m.set("route.scatter_ns", median_ns(&traced.scatter_ns));
        m.set("route.merge_ns", median_ns(&traced.merge_ns));
        m.set("route.shard_rtt_ns", median_ns(&traced.shard_rtt_ns));
    }

    // Untimed: which documents came back.
    let mut conn = cluster.front.connect()?;
    let (_, wrong) = verify_sample(
        &mut conn,
        &inputs.corpus,
        stores.root,
        &queries,
        args.seed,
        env.scale.verify_samples,
    );
    result.wrong += wrong;
    drop(conn);

    // The in-process replay, against the store the real server serves.
    let n = env.scale.replay_requests;
    let (warm, sequence) = replay_sequence(workload, &queries, args.seed, n);
    let shape = facade::engine_defaults(env.nproc, env.scale.cache);
    let mut replay = Replay::default();
    let stores = inputs.dir.path().join("stores");
    let layer_sum_ns;
    if routed {
        let shard_addrs: Vec<_> = cluster.shards.iter().map(|s| s.addr).collect();
        let router = facade::router(&shard_addrs, env.nproc, env.scale.cache)?;
        let mut direct = cluster.shards[0].connect()?;
        let (mut parse_hits, mut merges, mut routes) = (Vec::new(), Vec::new(), Vec::new());
        for (i, query) in sequence.iter().take(n / 2).enumerate() {
            let id = i as u64 + 1;
            let (routed, ns) =
                tracer.leaf("route.route", id, || facade::route(&router, &query.text));
            let routed = routed?;
            routes.push(ns);
            result.failed += u64::from(
                routed.partial || routed.hits != query.expected.min(RESULT_LIMIT) as usize,
            );
            result.attempted += 1;
            // What the router does with one shard's reply, in isolation.
            direct.query(&query.text, true).map_err(|f| format!("direct shard query: {f:?}"))?;
            let lines: Vec<String> = direct.scratch.body.clone();
            let (hits, ns) = tracer.leaf("route.parse_hits", id, || facade::parse_hits(&lines));
            parse_hits.push(ns);
            let parts = vec![hits.clone(), hits];
            let (_, ns) =
                tracer.leaf("route.merge", id, || facade::merge(parts, RESULT_LIMIT as usize));
            merges.push(ns);
        }
        let m = &mut result.metrics;
        m.set("route.parse_hits_ns", median_ns(&parse_hits));
        // The program's own merge stage is reported above when traced on
        // the wire; this is the isolated call on one shard's hits, doubled.
        if traced.merge_ns.is_empty() {
            m.set("route.merge_ns", median_ns(&merges));
        }
        layer_sum_ns = median_ns(&routes);

        // What routing adds: the same stream against one server holding the
        // whole corpus, one connection each.
        let whole = stores.join("whole");
        let built = build_store(
            env,
            BuildKind::Batch,
            &inputs.corpus_dir(),
            &whole,
            inputs.corpus.doc_count(),
        )?;
        if !built.complete {
            return Err("whole-corpus store for route.overhead_ratio is incomplete".into());
        }
        let server = Server::serve(env, &whole, probe)?;
        let mut cold = measure(&server, &load(1, 4, Workload::ServeCold), phase_s)?;
        let cold_p50 = p50_us(&mut cold);
        server.stop();
        if cold_p50 > 0.0 {
            result.metrics.set("route.overhead_ratio", single_p50 / cold_p50);
        }
    } else {
        let store = stores.join("whole");
        replay_in_process(&mut tracer, &store, &shape, &warm, &sequence, &mut replay)?;
        let m = &mut result.metrics;
        m.set("persist.load_s", tracer.total_self_s("persist.load"));
        m.set("protocol.parse_ns", median_ns(&replay.protocol_parse));
        m.set("protocol.render_ns", median_ns(&replay.render));
        m.set("protocol.response_bytes", median_ns(&replay.response_bytes));
        m.set("query.parse_ns", median_ns(&replay.query_parse));
        m.set("cache.get_ns", median_ns(&replay.cache_get));
        let misses: Vec<u64> = replay.cache_insert.iter().copied().filter(|&ns| ns > 0).collect();
        m.set("cache.insert_ns", median_ns(&misses));
        for (shape, metric) in [
            (Shape::Term, "query.eval_term_ns"),
            (Shape::And, "query.eval_and_ns"),
            (Shape::Or, "query.eval_or_ns"),
            (Shape::Prefix, "query.eval_prefix_ns"),
            (Shape::AndNot, "query.eval_not_ns"),
        ] {
            m.set(
                metric,
                median_ns(replay.eval_by_shape.get(&shape).map_or(&[][..], Vec::as_slice)),
            );
        }
        m.set("engine.execute_ns", median_ns(&replay.engine));
        let inner = |i: usize| {
            (replay.query_parse[i] + replay.cache_get[i] + replay.eval[i] + replay.cache_insert[i])
                as i64
        };
        let engine_self = signed_median((0..n).map(|i| replay.engine[i] as i64 - inner(i)));
        let handoff =
            signed_median((0..n).map(|i| replay.pool[i] as i64 - replay.engine[i] as i64));
        let wire = signed_median((0..n).map(|i| {
            replay.round_trip[i] as i64
                - replay.pool[i] as i64
                - replay.render[i] as i64
                - replay.protocol_parse[i] as i64
        }));
        m.set("engine.self_ns", engine_self);
        m.set("batch.handoff_ns", handoff);
        m.set("serve.wire_ns", wire);
        let calls = signed_median(
            (0..n).map(|i| inner(i) + replay.render[i] as i64 + replay.protocol_parse[i] as i64),
        );
        layer_sum_ns = calls + engine_self + handoff + wire;
        let eval_median = median_ns(&replay.eval);
        eprintln!(
            "  in-process replay of {n} requests: {} cache hits; median eval {eval_median:.0} ns vs \
             wire+protocol {:.0} ns; round trip {:.0} ns",
            replay.hits,
            wire + median_ns(&replay.protocol_parse) + median_ns(&replay.render),
            median_ns(&replay.round_trip),
        );
    }
    if single_p50 > 0.0 {
        result.metrics.set("obs.layer_sum_share", layer_sum_ns / 1e3 / single_p50);
    }
    eprintln!(
        "{}: wire p50 {own_p50:.1} us on {} connections, {single_p50:.1} us on one; layer sum \
         {:.1} us; {} spans",
        workload.name(),
        env.nproc,
        layer_sum_ns / 1e3,
        tracer.spans().len()
    );

    let clean_exit = cluster.stop().iter().all(|exit| exit.success);
    result.wrong += u64::from(!clean_exit);
    Ok((result, tracer))
}

fn main() {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        let workload = args.workload.ok_or("--workload is required")?;
        let env = args.env()?;
        let run = if workload.is_build() { trace_build } else { trace_serving };
        let (result, tracer) = run(&env, &args, workload).map_err(|e| e.to_string())?;
        // Spans were kept in memory while the run measured; written once.
        let path = env.out.join(format!("trace-{}.json", workload.name()));
        tracer
            .write_json(&path, workload.name())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        result.contract(PER_LAYER, false)
    });
    match outcome {
        Ok(line) => println!("{}", dsbench::json::render(&line)),
        Err(message) => {
            eprintln!("layers: {message}");
            std::process::exit(2);
        }
    }
}
