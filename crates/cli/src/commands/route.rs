//! `dsearch route` — the scatter-gather coordinator over shard servers.
//!
//! Points the [`Router`] at one `--shard` per logical shard, each a
//! [`ReplicaSet`].  A `--shard` value is a comma-separated replica group:
//! `--shard a:7878` is a set of one `dsearch serve` process, `--shard
//! a:7878,b:7878` a set routing each
//! query to the least-loaded healthy replica, with circuit breaking
//! (`--probe-ms` controls the half-open probe backoff) and hedged requests
//! (`--hedge-ms` fixes the hedge deadline; `0` disables hedging; unset
//! derives it from the rolling round-trip p99).  Every query read from
//! stdin (or TCP, with `--tcp`) is fanned out to all shards concurrently
//! over the existing line protocol, the per-shard rankings are merged, and
//! a shard that is down or times out degrades the answer to `partial=true`
//! instead of failing it.  `!stats` aggregates the shards' own stats under
//! the router's counters; `!reload` fans out and reports each backend
//! individually.

use std::sync::Arc;
use std::time::Duration;

use dsearch::server::{
    Executor, RemoteShard, RemoteShardConfig, ReplicaSet, ReplicaSetConfig, RouteService, Router,
    RouterConfig, ShardBackend,
};

use super::serve::{apply_shared_options, run_front_ends, SharedOptions};
use crate::args::ParsedArgs;
use crate::CliError;

/// Builds the router configuration from the shared serve/route options.
pub(crate) fn router_config(args: &ParsedArgs) -> Result<RouterConfig, CliError> {
    let mut config = RouterConfig::default();
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
    config.validate().map_err(|e| CliError::Usage(format!("invalid configuration: {e}")))?;
    Ok(config)
}

/// Builds the replica-set policy from `--hedge-ms` / `--probe-ms`.
pub(crate) fn replica_config(args: &ParsedArgs) -> Result<ReplicaSetConfig, CliError> {
    let mut config = ReplicaSetConfig::default();
    if let Some(ms) = args.number_of::<u64>("hedge-ms")? {
        if ms == 0 {
            config.hedge_after = None;
            config.adaptive_hedge = false;
        } else {
            config.hedge_after = Some(Duration::from_millis(ms));
        }
    }
    if let Some(ms) = args.number_of::<u64>("probe-ms")? {
        config.probe_backoff = Duration::from_millis(ms.max(1));
    }
    if let Some(pct) = args.number_of::<u32>("retry-budget-pct")? {
        config.retry_budget_pct = pct;
    }
    Ok(config)
}

/// Builds the per-shard connection policy from `--shard-timeout-ms` /
/// `--connect-timeout-ms`.
pub(crate) fn shard_config(args: &ParsedArgs) -> Result<RemoteShardConfig, CliError> {
    let mut config = RemoteShardConfig::default();
    if let Some(ms) = args.number_of::<u64>("connect-timeout-ms")? {
        config.connect_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = args.number_of::<u64>("shard-timeout-ms")? {
        config.io_timeout = Duration::from_millis(ms);
    }
    Ok(config)
}

/// Builds the router over one [`ReplicaSet`] of [`RemoteShard`]s per
/// `--shard` value: a plain address is a set of one, a comma-separated
/// replica group a set of several.
pub(crate) fn build_router(args: &ParsedArgs) -> Result<Arc<Router>, CliError> {
    let groups = args.values_of("shard");
    if groups.is_empty() {
        return Err(CliError::Usage(
            "this command requires at least one --shard <host:port>[,<host:port>...]".into(),
        ));
    }
    let shard_config = shard_config(args)?;
    let replica_config = replica_config(args)?;
    let config = router_config(args)?;
    let invalid = |e| CliError::Usage(format!("invalid configuration: {e}"));
    let mut shards = Vec::with_capacity(groups.len());
    for group in &groups {
        let addrs: Vec<&str> = group.split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
        let id = match addrs.as_slice() {
            [] => return Err(CliError::Usage(format!("--shard {group:?} names no addresses"))),
            [addr] => *addr,
            _ => *group,
        };
        let replicas: Vec<Box<dyn ShardBackend>> = addrs
            .iter()
            .map(|addr| Box::new(RemoteShard::with_config(*addr, shard_config)) as _)
            .collect();
        shards.push(ReplicaSet::new(id, replicas, replica_config).map_err(invalid)?);
    }
    Router::new(shards, config).map_err(invalid)
}

/// Runs the `route` command.
///
/// # Errors
///
/// Fails on usage errors (no shards, malformed options) or when the TCP
/// listener cannot bind.  Unreachable shards are *not* a startup error —
/// they come and go at runtime and show as `partial=true` / `shard
/// <addr> DOWN` until they return.
pub fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let router = build_router(args)?;
    let shard_list: Vec<&str> = router.shards().iter().map(ReplicaSet::id).collect();
    let batch = &router.config().batch;
    let wait = if batch.adaptive { "auto".to_owned() } else { format!("{:?}", batch.max_wait) };
    let banner = format!(
        "routing over {} shard(s): {} ({} workers, limit {})\n\
         batching: max_batch={} max_wait={wait} queue_bound={} overload={}\n\
         protocol: one query per line (prefix @<hex-id> to trace, @d=<ms> for a deadline); \
         !stats aggregates shards, \
         !metrics, !trace <us>, !slow, !reload fans out, !quit\n",
        shard_list.len(),
        shard_list.join(", "),
        router.config().workers,
        router.config().result_limit,
        batch.max_batch,
        match batch.queue_bound {
            0 => "unbounded".to_owned(),
            bound => bound.to_string(),
        },
        batch.overload,
    );
    let service = Arc::new(RouteService::start(router));
    // Slow entries (`--trace-us`) carry the per-shard stage breakdown of the
    // routed query.
    run_front_ends(args, &service, &banner, "route", |server, _| {
        eprintln!("listening on {}", server.local_addr());
    })?;
    let report = service.router().stats_answer();
    Ok(format!("{report}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_requires_shards() {
        let args = ParsedArgs::parse(["route"]).unwrap();
        let err = run(&args).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("--shard")), "{err}");
    }

    #[test]
    fn router_config_parses_overrides() {
        let args = ParsedArgs::parse([
            "route",
            "--shard",
            "127.0.0.1:7878",
            "--workers",
            "2",
            "--limit",
            "7",
            "--max-batch",
            "8",
            "--batch-wait-us",
            "auto",
            "--queue-bound",
            "32",
            "--overload",
            "drop",
            "--default-deadline-ms",
            "75",
        ])
        .unwrap();
        let config = router_config(&args).unwrap();
        assert_eq!(config.workers, 2);
        assert_eq!(config.result_limit, 7);
        assert_eq!(config.batch.max_batch, 8);
        assert!(config.batch.adaptive);
        assert_eq!(config.batch.queue_bound, 32);
        assert_eq!(config.batch.overload, dsearch::server::OverloadPolicy::DropOldest);
        assert_eq!(config.default_deadline, Some(Duration::from_millis(75)));
    }

    #[test]
    fn shard_config_parses_timeouts() {
        let args = ParsedArgs::parse([
            "route",
            "--shard",
            "a:1",
            "--connect-timeout-ms",
            "250",
            "--shard-timeout-ms",
            "1500",
        ])
        .unwrap();
        let config = shard_config(&args).unwrap();
        assert_eq!(config.connect_timeout, Duration::from_millis(250));
        assert_eq!(config.io_timeout, Duration::from_millis(1500));
    }

    #[test]
    fn build_router_wires_one_backend_per_shard_flag() {
        let args =
            ParsedArgs::parse(["route", "--shard", "h1:7878", "--shard", "h2:7878"]).unwrap();
        let router = build_router(&args).unwrap();
        let ids: Vec<&str> = router.shards().iter().map(ReplicaSet::id).collect();
        assert_eq!(ids, ["h1:7878", "h2:7878"]);
    }

    #[test]
    fn comma_separated_shard_values_become_replica_sets() {
        let args = ParsedArgs::parse(["route", "--shard", "h1:7878,h2:7878", "--shard", "h3:7878"])
            .unwrap();
        let router = build_router(&args).unwrap();
        let ids: Vec<&str> = router.shards().iter().map(ReplicaSet::id).collect();
        assert_eq!(ids, ["h1:7878,h2:7878", "h3:7878"]);
        // The replica group is a set of two; the plain shard a set of one.
        assert_eq!(router.shards()[0].replica_count(), 2);
        assert_eq!(router.shards()[1].replica_count(), 1);
    }

    #[test]
    fn replica_config_parses_hedge_and_probe_overrides() {
        let args = ParsedArgs::parse([
            "route",
            "--shard",
            "a:1,b:1",
            "--hedge-ms",
            "25",
            "--probe-ms",
            "200",
        ])
        .unwrap();
        let config = replica_config(&args).unwrap();
        assert_eq!(config.hedge_after, Some(Duration::from_millis(25)));
        assert_eq!(config.probe_backoff, Duration::from_millis(200));
        // `--hedge-ms 0` disables hedging entirely (fixed and adaptive).
        let args = ParsedArgs::parse(["route", "--shard", "a:1,b:1", "--hedge-ms", "0"]).unwrap();
        let config = replica_config(&args).unwrap();
        assert_eq!(config.hedge_after, None);
        assert!(!config.adaptive_hedge);
    }

    #[test]
    fn replica_config_parses_retry_budget_override() {
        let args =
            ParsedArgs::parse(["route", "--shard", "a:1,b:1", "--retry-budget-pct", "25"]).unwrap();
        let config = replica_config(&args).unwrap();
        assert_eq!(config.retry_budget_pct, 25);
        assert_eq!(ReplicaSetConfig::default().retry_budget_pct, 10);
    }

    #[test]
    fn empty_replica_group_is_a_usage_error() {
        let args = ParsedArgs::parse(["route", "--shard", ","]).unwrap();
        let err = build_router(&args).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("no addresses")), "{err}");
    }

    #[test]
    fn invalid_router_configs_are_usage_errors() {
        let args = ParsedArgs::parse(["route", "--shard", "h1:7878", "--workers", "0"]).unwrap();
        let err = build_router(&args).unwrap_err();
        assert!(matches!(&err, CliError::Usage(msg) if msg.contains("invalid")), "{err}");
    }
}
