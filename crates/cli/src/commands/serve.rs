//! `dsearch serve` — run the query service over a persisted index store.
//!
//! The service answers the line protocol on stdin; with `--tcp <addr>` it
//! also listens on a socket, sharing one worker pool and cache between both
//! front ends.  `!reload` re-reads the store and publishes the result as the
//! next snapshot generation without interrupting in-flight queries.

use std::path::PathBuf;
use std::sync::Arc;

use dsearch::persist::IndexStore;
use dsearch::server::{
    BatchConfig, EngineConfig, IndexSnapshot, LineHandler, QueryEngine, Service, SessionEnd,
    TcpServer, TcpServerConfig,
};

use crate::args::ParsedArgs;
use crate::CliError;

/// Where the options `serve` and `route` share land in an
/// [`EngineConfig`] or a [`RouterConfig`](dsearch::server::RouterConfig).
pub(crate) struct SharedOptions<'a> {
    pub(crate) workers: &'a mut usize,
    pub(crate) result_limit: &'a mut usize,
    pub(crate) cache_capacity: &'a mut usize,
    pub(crate) cache_shards: &'a mut usize,
    pub(crate) batch: &'a mut BatchConfig,
    pub(crate) default_deadline: &'a mut Option<std::time::Duration>,
}

/// The most entries `--cache` may ask for: the admission sketch and the
/// cache's tables are sized from it, so a larger value is a usage error
/// rather than an allocation the host cannot make.
const MAX_CACHE_ENTRIES: usize = 1 << 24;

/// Applies `--workers`, `--limit`, `--cache` (at most [`MAX_CACHE_ENTRIES`]),
/// `--cache-shards`, `--max-batch`, `--queue-bound` and
/// `--default-deadline-ms` (0 disables the budget).
pub(crate) fn apply_shared_options(
    args: &ParsedArgs,
    config: SharedOptions<'_>,
) -> Result<(), CliError> {
    if let Some(workers) = args.number_of::<usize>("workers")? {
        *config.workers = workers;
    }
    if let Some(limit) = args.number_of::<usize>("limit")? {
        *config.result_limit = limit;
    }
    if let Some(capacity) = args.number_of::<usize>("cache")? {
        if capacity > MAX_CACHE_ENTRIES {
            return Err(CliError::Usage(format!(
                "option --cache: {capacity} entries is over the {MAX_CACHE_ENTRIES} allowed"
            )));
        }
        *config.cache_capacity = capacity;
    }
    if let Some(shards) = args.number_of::<usize>("cache-shards")? {
        *config.cache_shards = shards;
    }
    if let Some(max_batch) = args.number_of::<usize>("max-batch")? {
        config.batch.max_batch = max_batch;
    }
    if let Some(bound) = args.number_of::<usize>("queue-bound")? {
        config.batch.queue_bound = bound;
    }
    if let Some(ms) = args.number_of::<u64>("default-deadline-ms")? {
        *config.default_deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    Ok(())
}

/// Builds the engine configuration from the options `serve` reads.
/// Invalid combinations (zero workers, zero cache shards, empty batches) are
/// usage errors here, before any store I/O happens.
pub(crate) fn engine_config(args: &ParsedArgs) -> Result<EngineConfig, CliError> {
    let mut config = EngineConfig::default();
    apply_shared_options(
        args,
        SharedOptions {
            workers: &mut config.workers,
            result_limit: &mut config.result_limit,
            cache_capacity: &mut config.cache_capacity,
            cache_shards: &mut config.cache_shards,
            batch: &mut config.batch,
            default_deadline: &mut config.default_deadline,
        },
    )?;
    if let Some(policy) = args.value_of("cache-admission") {
        config.cache_admission = policy
            .parse()
            .map_err(|e| CliError::Usage(format!("option --cache-admission: {e}")))?;
    }
    config.validate().map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
    Ok(config)
}

/// Builds the TCP connection policy from `--idle-timeout-secs` /
/// `--max-conns` (0 disables either).
fn tcp_config(args: &ParsedArgs) -> Result<TcpServerConfig, CliError> {
    let mut config = TcpServerConfig::default();
    if let Some(secs) = args.number_of::<u64>("idle-timeout-secs")? {
        config.idle_timeout = (secs > 0).then(|| std::time::Duration::from_secs(secs));
    }
    if let Some(cap) = args.number_of::<usize>("max-conns")? {
        config.max_conns = cap;
    }
    Ok(config)
}

/// Opens the store and loads generation 1.
fn load_engine(args: &ParsedArgs) -> Result<(Arc<QueryEngine>, PathBuf), CliError> {
    let store_path = args
        .value_of("store")
        .ok_or_else(|| CliError::Usage("this command requires --store <path>".into()))?;
    let store = IndexStore::open(store_path).map_err(CliError::failed)?;
    if store.segment_count() == 0 {
        return Err(CliError::Failed(format!(
            "index store {store_path} is empty; run `dsearch index` first"
        )));
    }
    let snapshot = IndexSnapshot::load(&store, 1).map_err(CliError::failed)?;
    let config = engine_config(args)?;
    let engine = QueryEngine::new(snapshot, config)
        .map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
    Ok((engine, PathBuf::from(store_path)))
}

/// Runs the `serve` command.
///
/// # Errors
///
/// Fails on usage errors or an unreadable/empty store.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let (engine, store_path) = load_engine(args)?;
    let batch = &engine.config().batch;
    let queue_bound = match batch.queue_bound {
        0 => "unbounded".to_owned(),
        bound => bound.to_string(),
    };
    // The image is borrowed for the banner alone: held any longer it would
    // outlive the `!reload` that replaces it.
    let banner = {
        let snapshot = engine.snapshot_cell().load();
        format!(
            "serving {} document(s), {} shard(s) in {:.1} MB, generation {} load_ms={:.1} \
             ({} workers, cache {} entries / {} shards, admission={})\n\
             batching: max_batch={} queue_bound={queue_bound}\n\
             protocol: one query per line (prefix @<hex-id> to trace, @d=<ms> for a deadline); \
             !stats, !metrics, !trace <us>, !slow, !reload, !quit\n",
            snapshot.doc_count(),
            snapshot.shard_count(),
            snapshot.resident_bytes() as f64 / 1e6,
            snapshot.generation(),
            snapshot.load_time().as_secs_f64() * 1e3,
            engine.config().workers,
            engine.config().cache_capacity,
            engine.config().cache_shards,
            engine.config().cache_admission,
            batch.max_batch,
        )
    };
    let service = Arc::new(Service::start(engine, Some(store_path)));
    run_front_ends(args, &service, &banner, "serve", |server, config| {
        let idle = match config.idle_timeout {
            Some(timeout) => format!("{}s", timeout.as_secs()),
            None => "off".to_owned(),
        };
        let cap = match config.max_conns {
            0 => "unlimited".to_owned(),
            cap => cap.to_string(),
        };
        eprintln!("listening on {} (idle_timeout={idle} max_conns={cap})", server.local_addr());
    })?;
    let report = service.engine().stats_report();
    Ok(format!("{report}\n"))
}

/// What `serve` and `route` do once their service exists: arm the slow-query
/// log (`--trace-us <n>`, equivalent to a client sending `!trace <n>`), bind
/// the TCP front end (`--tcp`), print the banner, and answer stdin until EOF
/// or `!quit`.  A daemonised server (stdin closed, e.g. `< /dev/null &`)
/// keeps answering TCP; an explicit stdin `!quit` shuts the whole service
/// down.  `verb` is what the service does to TCP traffic in the EOF notice,
/// `announce` prints the listening line.
pub(crate) fn run_front_ends<S: LineHandler>(
    args: &ParsedArgs,
    service: &Arc<S>,
    banner: &str,
    verb: &str,
    announce: impl FnOnce(&TcpServer, &TcpServerConfig),
) -> Result<(), CliError> {
    if let Some(us) = args.number_of::<u64>("trace-us")? {
        service.stats().slow_log().arm(std::time::Duration::from_micros(us));
        eprintln!("slow-query log armed at {us}us (!slow to dump)");
    }
    let tcp_server = match args.value_of("tcp") {
        Some(addr) => {
            let tcp_config = tcp_config(args)?;
            let server = TcpServer::bind_with(Arc::clone(service), addr, tcp_config)
                .map_err(CliError::failed)?;
            announce(&server, &tcp_config);
            Some(server)
        }
        None => None,
    };

    eprint!("{banner}");
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let end = service.serve_lines(stdin.lock(), stdout.lock()).map_err(CliError::failed)?;

    if let Some(server) = tcp_server {
        if end == SessionEnd::Eof {
            eprintln!("stdin closed; continuing to {verb} TCP (Ctrl-C to stop)");
            loop {
                std::thread::park();
            }
        }
        server.stop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_requires_a_store() {
        let args = ParsedArgs::parse(["serve"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn empty_store_is_a_failure() {
        let dir = std::env::temp_dir().join(format!("dsearch-serve-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = ParsedArgs::parse([
            "serve".to_string(),
            "--store".to_string(),
            dir.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_config_parses_overrides() {
        let args =
            ParsedArgs::parse(["serve", "--idle-timeout-secs", "30", "--max-conns", "64"]).unwrap();
        let config = tcp_config(&args).unwrap();
        assert_eq!(config.idle_timeout, Some(std::time::Duration::from_secs(30)));
        assert_eq!(config.max_conns, 64);
        // Zero disables the timeout; omitted flags keep the defaults.
        let args = ParsedArgs::parse(["serve", "--idle-timeout-secs", "0"]).unwrap();
        let config = tcp_config(&args).unwrap();
        assert_eq!(config.idle_timeout, None);
        assert_eq!(config.max_conns, 0);
    }

    #[test]
    fn engine_config_parses_overrides() {
        let args = ParsedArgs::parse([
            "serve",
            "--workers",
            "3",
            "--cache",
            "128",
            "--cache-shards",
            "2",
            "--cache-admission",
            "lfu",
            "--limit",
            "5",
            "--max-batch",
            "16",
            "--queue-bound",
            "64",
            "--default-deadline-ms",
            "40",
        ])
        .unwrap();
        let config = engine_config(&args).unwrap();
        assert_eq!(config.workers, 3);
        assert_eq!(config.cache_capacity, 128);
        assert_eq!(config.cache_shards, 2);
        assert_eq!(config.cache_admission, dsearch::server::AdmissionPolicy::TinyLfu);
        assert_eq!(config.result_limit, 5);
        assert_eq!(config.batch.max_batch, 16);
        assert_eq!(config.batch.queue_bound, 64);
        assert_eq!(config.default_deadline, Some(std::time::Duration::from_millis(40)));
    }

    #[test]
    fn default_deadline_of_zero_disables_the_budget() {
        let args = ParsedArgs::parse(["serve", "--default-deadline-ms", "0"]).unwrap();
        let config = engine_config(&args).unwrap();
        assert_eq!(config.default_deadline, None);
    }

    #[test]
    fn invalid_configs_are_usage_errors_before_store_io() {
        for flags in [["--workers", "0"], ["--cache-shards", "0"], ["--max-batch", "0"]] {
            let args = ParsedArgs::parse(["serve", flags[0], flags[1], "--store", "/nonexistent"])
                .unwrap();
            let err = engine_config(&args).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("invalid configuration")),
                "{flags:?}: {err}"
            );
        }
        // The largest cache is allowed; one entry more is a usage error, also
        // where it would otherwise size an admission sketch.
        let largest = MAX_CACHE_ENTRIES.to_string();
        let args = ParsedArgs::parse(["serve", "--cache", &largest]).unwrap();
        assert_eq!(engine_config(&args).unwrap().cache_capacity, MAX_CACHE_ENTRIES);
        for oversized in [(MAX_CACHE_ENTRIES + 1).to_string(), "1000000000000".to_owned()] {
            let args =
                ParsedArgs::parse(["serve", "--cache", &oversized, "--cache-admission", "lfu"])
                    .unwrap();
            let err = engine_config(&args).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("option --cache")),
                "{oversized}: {err}"
            );
        }
        let args = ParsedArgs::parse(["serve", "--cache-admission", "clairvoyant"]).unwrap();
        let err = engine_config(&args).unwrap_err();
        assert!(err.to_string().contains("clairvoyant"), "{err}");
    }
}
