//! Build-pipeline metrics: publishing a [`CounterSnapshot`] from a
//! checkpointed build into a [`MetricsRegistry`].
//!
//! The build counters (items extracted, retried, dead-lettered; checkpoint
//! writes; lease reclaims) are accumulated lock-free inside
//! `dsearch_core::pipeline` while the build runs.  Serving processes that
//! also build — or a `!metrics`-style exposition after `dsearch build` —
//! publish them under the `dsearch_build_*` family with this adapter, so
//! one scrape shows query and build health side by side.
//!
//! The process's peak resident set rides along as
//! [`BUILD_PEAK_RSS_METRIC`]: the number the repo benchmark gates for the
//! build workloads, read by the program about itself.

use std::time::Duration;

use dsearch_core::pipeline::CounterSnapshot;

use crate::metrics::MetricsRegistry;

/// Metric names of the build-counter family, in snapshot-field order.
pub const BUILD_METRICS: [&str; 5] = [
    "dsearch_build_items_ok",
    "dsearch_build_items_retried",
    "dsearch_build_items_dead",
    "dsearch_build_checkpoint_writes",
    "dsearch_build_lease_reclaims",
];

/// Adds a build's counter totals to the registry's `dsearch_build_*`
/// counters.  Counters are monotone: publishing two builds sums them, the
/// Prometheus convention for restart-free accumulation.
pub fn publish_build_counters(registry: &MetricsRegistry, snapshot: &CounterSnapshot) {
    let values = [
        snapshot.items_ok,
        snapshot.items_retried,
        snapshot.items_dead,
        snapshot.checkpoint_writes,
        snapshot.lease_reclaims,
    ];
    for (name, value) in BUILD_METRICS.iter().zip(values) {
        registry.counter(name).add(value);
    }
}

/// Gauge holding the process's peak resident set in bytes.
pub const BUILD_PEAK_RSS_METRIC: &str = "dsearch_build_peak_rss_bytes";

/// The peak resident set of this process so far (`VmHWM` in
/// `/proc/self/status`), in bytes; `None` where the kernel does not expose
/// it.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    kb.checked_mul(1024)
}

/// Sets [`BUILD_PEAK_RSS_METRIC`] to the current [`peak_rss_bytes`] and
/// returns it; leaves the registry untouched where it is unavailable.
pub fn publish_peak_rss(registry: &MetricsRegistry) -> Option<u64> {
    let bytes = peak_rss_bytes()?;
    registry.gauge(BUILD_PEAK_RSS_METRIC).set(bytes);
    Some(bytes)
}

/// Gauge holding the most heap the build's in-memory index held, in bytes:
/// the figure `dsearch index` and `dsearch build` print as `index heap`, and
/// the part of [`BUILD_PEAK_RSS_METRIC`] the index answers for.
pub const BUILD_INDEX_HEAP_METRIC: &str = "dsearch_build_index_heap_bytes";

/// Sets [`BUILD_INDEX_HEAP_METRIC`] to `bytes` (a `BuildReport`'s
/// `index_heap_bytes`, or an `InMemoryIndex::heap_bytes`).
pub fn publish_index_heap(registry: &MetricsRegistry, bytes: u64) {
    registry.gauge(BUILD_INDEX_HEAP_METRIC).set(bytes);
}

/// Gauge holding what persisting the last build's index took — seal, write,
/// sync and manifest — in seconds: the stage `dsearch index` prints as
/// `persist`, the one that closes its tiling of the process's wall time.
pub const BUILD_PERSIST_METRIC: &str = "dsearch_build_persist_seconds";

/// Sets [`BUILD_PERSIST_METRIC`] to `elapsed`.
pub fn publish_persist_time(registry: &MetricsRegistry, elapsed: Duration) {
    registry.gauge(BUILD_PERSIST_METRIC).set_duration(elapsed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_time_is_published_in_seconds() {
        let registry = MetricsRegistry::new();
        publish_persist_time(&registry, Duration::from_millis(85));
        let text = registry.render_prometheus();
        assert!(text.contains("dsearch_build_persist_seconds 0.085000\n"), "{text}");
    }

    #[test]
    fn index_heap_is_published_as_a_gauge_beside_the_peak_rss() {
        let registry = MetricsRegistry::new();
        publish_index_heap(&registry, 9_437_184);
        assert!(registry.render_prometheus().contains("dsearch_build_index_heap_bytes 9437184\n"));
        assert!(BUILD_INDEX_HEAP_METRIC.starts_with("dsearch_build_"));
    }

    #[test]
    fn vm_hwm_parses_from_a_status_file_and_is_optional() {
        let status = "Name:\tdsearch\nVmPeak:\t  200000 kB\nVmHWM:\t   87654 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(87654 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tdsearch\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots\n"), None);
    }

    #[test]
    fn peak_rss_is_published_as_a_gauge_where_the_kernel_reports_it() {
        let registry = MetricsRegistry::new();
        match publish_peak_rss(&registry) {
            Some(bytes) => {
                assert!(bytes > 0);
                assert_eq!(registry.gauge(BUILD_PEAK_RSS_METRIC).value(), bytes);
                assert!(registry.render_prometheus().contains(BUILD_PEAK_RSS_METRIC));
            }
            None => assert!(!registry.render_prometheus().contains(BUILD_PEAK_RSS_METRIC)),
        }
    }

    #[test]
    fn publishes_every_counter_under_the_build_family() {
        let registry = MetricsRegistry::new();
        let snapshot = CounterSnapshot {
            items_ok: 10,
            items_retried: 3,
            items_dead: 1,
            checkpoint_writes: 4,
            lease_reclaims: 2,
        };
        publish_build_counters(&registry, &snapshot);
        assert_eq!(registry.counter("dsearch_build_items_ok").value(), 10);
        assert_eq!(registry.counter("dsearch_build_items_retried").value(), 3);
        assert_eq!(registry.counter("dsearch_build_items_dead").value(), 1);
        assert_eq!(registry.counter("dsearch_build_checkpoint_writes").value(), 4);
        assert_eq!(registry.counter("dsearch_build_lease_reclaims").value(), 2);

        // A second build accumulates instead of resetting.
        publish_build_counters(&registry, &snapshot);
        assert_eq!(registry.counter("dsearch_build_items_ok").value(), 20);

        let text = registry.render_prometheus();
        for name in BUILD_METRICS {
            assert!(text.contains(name), "exposition missing {name}");
        }
    }
}
