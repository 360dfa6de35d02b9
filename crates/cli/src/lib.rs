//! The `dsearch-cli` command-line tool.
//!
//! A thin, scriptable front end over the `dsearch` library — the "desktop
//! search" application the paper's index generator exists to serve:
//!
//! | command | purpose |
//! |---|---|
//! | `index <dir> --store <path>` | index a directory with one of the paper's three parallel implementations and persist the result |
//! | `build <dir> --store <path>` | checkpointed fault-tolerant build: `index`'s pipeline plus retries with backoff, dead-letter queue, per-replica checkpoints, `--resume` |
//! | `dlq list\|replay --store <path>` | inspect the dead-letter queue or re-run its quarantined files |
//! | `search --store <path> <query…>` | run a boolean/prefix query against a persisted index |
//! | `serve --store <path> [--tcp addr]` | run the concurrent query service (line protocol, snapshot reloads) |
//! | `route --shard <addr>…` | run the scatter-gather coordinator over `serve` shard servers (partial answers when a shard fails) |
//! | `corpus <dir> --scale 0.01` | materialise a synthetic benchmark corpus with the paper's shape |
//! | `tables` | print the paper's Tables 1–4 from the calibrated platform models, with this host's measured run beside them |
//! | `curves --platform 32` | print speed-up-vs-threads curves for the three implementations |
//!
//! The command functions all return their output as a `String` so they can be
//! unit- and integration-tested without capturing stdout; `main` just prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use std::fmt;

pub use args::ParsedArgs;

/// Errors reported to the command-line user.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed.
    Usage(String),
    /// The requested operation failed.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// Wraps any displayable failure.
    pub fn failed(e: impl fmt::Display) -> Self {
        CliError::Failed(e.to_string())
    }
}

/// The top-level usage text.
#[must_use]
pub fn usage() -> String {
    "dsearch — parallel desktop-search index generator (Meder & Tichy 2010 reproduction)

USAGE:
    dsearch <command> [arguments]

COMMANDS:
    index <dir> --store <path> [--extractors N] [--updaters N] [--joiners N]
          [--implementation 1|2|3] [--formats] [--incremental]
        Index the files under <dir> and persist the result in <path>
        (the paper's batch pipeline; see `build` for the fault-tolerant,
        resumable variant).  With --incremental the same pipeline, under the
        same flags, runs over the files added or modified since the store's
        signatures were saved, and what the store held of the others is kept.

    build <dir> --store <path> [--resume] [--extractors N] [--max-retries N]
          [--checkpoint-every SECS] [--throttle-ms N] [--formats]
        Fault-tolerant, checkpointed build of <dir> into <path>: the
        pipeline `index` runs (Implementation 3), where each extractor
        retries a transient read failure with exponential backoff, and
        files that keep failing are quarantined in the dead-letter queue
        instead of failing the build.  Each extractor seals its replica into
        a checkpointed segment every SECS seconds (0 = after every file); a
        killed build rerun with --resume skips the files already sealed.

    dlq list --store <path>
    dlq replay <dir> --store <path> [--extractors N] [--max-retries N]
        Inspect the dead-letter queue, or re-run the quarantined files
        through the pipeline once the underlying fault is fixed; recovered
        files join the index and leave the queue.

    search --store <path> <query words…> [--limit N]
        Query a persisted index.  Supports AND/OR/NOT and trailing-* prefixes.

    serve --store <path> [--tcp ADDR] [--workers N] [--cache N]
          [--cache-shards N] [--limit N] [--max-batch N] [--queue-bound N]
          [--trace-us N]
        Run the query service: line protocol on stdin (and ADDR when --tcp is
        given).  One query per line (prefix @<hex-id> for a traced response
        with its stage breakdown); !stats reports counters, !metrics the full
        Prometheus-style exposition, !trace <µs>|on|off arms the slow-query
        log (--trace-us arms it at boot), !slow dumps it, !reload republishes
        the store as a new snapshot generation, !quit disconnects.  With --tcp,
        closing stdin leaves the TCP listener serving (daemon mode); !quit on
        stdin stops everything.  Workers drain up to --max-batch queued queries
        per wakeup, whatever is queued, without waiting for more; with a
        nonzero --queue-bound, a request that finds the queue full is
        rejected (ERR server overloaded).  --cache holds at most N answers
        (0 turns the cache off; N is at most 16777216).

    route --shard HOST:PORT [--shard HOST:PORT …] [--tcp ADDR] [--limit N]
          [--workers N] [--max-batch N] [--queue-bound N]
          [--shard-timeout-ms N] [--connect-timeout-ms N] [--trace-us N]
        Run the scatter-gather coordinator over one or more `dsearch serve`
        shard servers.  Every query fans out to all shards concurrently over
        the line protocol and the per-shard rankings are merged; a shard that
        is down or times out degrades the answer to partial=true instead of
        failing it (shard_errors= in !stats).  !stats aggregates the shards'
        metrics; !reload fans out to every shard.  Traced responses (@<hex-id>
        prefix, or !trace / --trace-us for the slow-query log) carry one
        `# shard <addr> rtt= stages=` line per shard; !metrics exposes the
        per-shard round-trip histograms.
        A shard's reply holds at most --limit hits (and the trace lines of
        a shard that is itself a router); a longer reply, or a line past
        128 KiB, fails that shard and drops its connection.

    corpus <dir> [--scale F] [--seed N]
        Materialise a synthetic benchmark corpus with the paper's shape.

    tables [--table 1|2|3|4]
        Print the paper's tables regenerated from the calibrated platform
        models, with this host's measured run: Table 1's sequential stages
        and, without --table, the sequential run and Implementations 1-3 at
        (cores, 0, 0) over one in-memory corpus.

    curves [--platform 4|8|32] [--max-threads N]
        Print speed-up-vs-thread-count curves for the three implementations.

    help
        Show this message.
"
    .to_owned()
}

/// Parses `raw` arguments (without the program name) and runs the selected
/// command, returning its printable output.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed command lines and
/// [`CliError::Failed`] when the operation itself fails.
pub fn run<I, S>(raw: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args = ParsedArgs::parse(raw)?;
    match args.command.as_deref() {
        None | Some("help") => Ok(usage()),
        Some("index") => commands::index::run(&args),
        Some("build") => commands::build::run(&args),
        Some("dlq") => commands::dlq::run(&args),
        Some("search") => commands::search::run(&args),
        Some("serve") => commands::serve::run(&args),
        Some("route") => commands::route::run(&args),
        Some("corpus") => commands::corpus::run(&args),
        Some("tables") => commands::tables::run(&args),
        Some("curves") => commands::curves::run(&args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown command {other:?}; run `dsearch help` for the command list"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_empty_input_print_usage() {
        let out = run(["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("index <dir>"));
        assert_eq!(run(Vec::<String>::new()).unwrap(), out);
    }

    #[test]
    fn unknown_commands_are_usage_errors() {
        let err = run(["frobnicate"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("frobnicate"));
        assert!(err.to_string().contains("run `dsearch help`"), "{err}");
        // `tune` is not a command: the sweep behind `tables` and `curves` is
        // the one configuration search.
        assert!(matches!(run(["tune"]).unwrap_err(), CliError::Usage(_)));
        // Nor is `loadgen`: load is driven over the wire, from outside.
        assert!(matches!(run(["loadgen"]).unwrap_err(), CliError::Usage(_)));
    }

    #[test]
    fn error_display_distinguishes_usage_from_failure() {
        assert!(CliError::Usage("x".into()).to_string().starts_with("usage error"));
        assert_eq!(CliError::failed("boom").to_string(), "boom");
    }
}
