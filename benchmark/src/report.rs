//! The metric tables (the same names, units and directions `BENCHMARK.json`
//! declares) and the result line a run prints.

use crate::json::{count, num, obj, text, Value};

use Better::{Higher, Lower};

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees and the driver gates.  Every workload
/// reports every one of them; `benchmark/README.md` says what each means on
/// each workload.  No time but `setup_s` is here: on the shared sandbox no
/// time repeats within the contract's widest bound (see [`UNGATED_TIMES`]).
pub static END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("store_bytes_ratio", "ratio", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// The end-to-end times: measured with tracing off by `e2e`, and again by
/// the traced run's untraced wire phase, but not gated.  Over the driver's
/// two sets of ten seeds one `dsearch index` of one corpus spread 26 to 39 %
/// around its median, `serve_cold` `qps` 26 to 29 % and `p99_us` 40 %,
/// `route_2shard` `p50_us` 38 to 45 %: past the 25 % the contract allows a
/// bound, whatever the estimator (twenty-five back-to-back builds by one
/// binary took 1.1 to 3.7 s).  The issue's rule for a metric that does not
/// repeat is to keep it under its name as an ungated per-layer number, so
/// these head [`PER_LAYER`]; a change is judged on them by interleaved A/B
/// pairs (`benchmark --dsearch-bin A --dsearch-bin B`), not by a gate.
pub static UNGATED_TIMES: [&str; 4] = ["build_s", "qps", "p50_us", "p99_us"];

/// Numbers of single layers, named `<module>.<what>`.  Ungated.
pub static PER_LAYER: &[MetricDef] = &[
    layer("build_s", "s", Lower),
    layer("qps", "1/s", Higher),
    layer("p50_us", "us", Lower),
    layer("p99_us", "us", Lower),
    layer("vfs.walk_s", "s", Lower),
    layer("vfs.files", "count", Higher),
    layer("vfs.read_s", "s", Lower),
    layer("vfs.bytes_read", "bytes", Lower),
    layer("text.tokenize_s", "s", Lower),
    layer("text.terms", "count", Higher),
    layer("core.extract_s", "s", Lower),
    layer("core.speedup_vs_sequential", "ratio", Higher),
    layer("core.items_retried", "count", Lower),
    layer("core.lease_reclaims", "count", Lower),
    layer("core.resume_s", "s", Lower),
    layer("index.update_s", "s", Lower),
    layer("index.join_s", "s", Lower),
    layer("index.seal_s", "s", Lower),
    layer("index.postings", "count", Higher),
    layer("index.bytes_per_posting", "bytes", Lower),
    layer("index.blocks_scored", "count", Lower),
    layer("index.blocks_skipped", "count", Higher),
    layer("persist.write_s", "s", Lower),
    layer("persist.bytes_written", "bytes", Lower),
    layer("persist.segments", "count", Lower),
    layer("persist.checkpoint_s", "s", Lower),
    layer("persist.checkpoint_writes", "count", Lower),
    layer("persist.load_s", "s", Lower),
    layer("serve.ready_s", "s", Lower),
    layer("serve.wire_ns", "ns", Lower),
    layer("serve.conns_rejected", "count", Lower),
    layer("protocol.parse_ns", "ns", Lower),
    layer("protocol.render_ns", "ns", Lower),
    layer("protocol.response_bytes", "bytes", Lower),
    layer("batch.handoff_ns", "ns", Lower),
    layer("batch.queue_wait_ns", "ns", Lower),
    layer("batch.batched_share", "ratio", Higher),
    layer("batch.dedup_hits", "count", Higher),
    layer("batch.shed", "count", Lower),
    layer("cache.get_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("cache.hit_share", "ratio", Higher),
    layer("cache.evictions", "count", Lower),
    layer("cache.rejected", "count", Lower),
    layer("query.parse_ns", "ns", Lower),
    layer("query.eval_term_ns", "ns", Lower),
    layer("query.eval_and_ns", "ns", Lower),
    layer("query.eval_or_ns", "ns", Lower),
    layer("query.eval_prefix_ns", "ns", Lower),
    layer("query.eval_not_ns", "ns", Lower),
    layer("engine.execute_ns", "ns", Lower),
    layer("engine.self_ns", "ns", Lower),
    layer("route.scatter_ns", "ns", Lower),
    layer("route.shard_rtt_ns", "ns", Lower),
    layer("route.merge_ns", "ns", Lower),
    layer("route.parse_hits_ns", "ns", Lower),
    layer("route.partial_share", "ratio", Lower),
    layer("route.overhead_ratio", "ratio", Lower),
    layer("route.stall_share", "ratio", Lower),
    layer("obs.trace_overhead_share", "ratio", Lower),
    layer("obs.stage_coverage_share", "ratio", Higher),
    layer("obs.layer_sum_share", "ratio", Higher),
    layer("loadgen.lag_p99_us", "us", Lower),
    layer("loadgen.max_rate_ok", "1/s", Higher),
    layer("loadgen.corpus_gen_s", "s", Lower),
];

/// The definition of a metric of either table.
#[must_use]
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|def| def.name == name)
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `value` for `name`, replacing an earlier one.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither table: a typo must not pass as a
    /// silently missing metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = metric_def(name).unwrap_or_else(|| panic!("{name} is not a declared metric"));
        match self.values.iter_mut().find(|(n, _)| *n == def.name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((def.name, value)),
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one run found.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Answers the untimed verification pass found wrong, builds that were
    /// incomplete: anything that makes the outputs not correct.
    pub wrong: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The result object of the driver's contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being every metric
    /// of `table` (a layer a workload never enters reports 0).  With
    /// `everything`, whatever else was measured follows: that is how the
    /// suite, the A/B pairs and `compare` get the ungated times of a run.
    ///
    /// # Errors
    ///
    /// Fails when an end-to-end metric was not measured or is not positive:
    /// a run that cannot say what a user would see has no result.
    pub fn contract(&self, table: &[MetricDef], everything: bool) -> Result<Value, String> {
        let end_to_end = std::ptr::eq(table, END_TO_END);
        let mut metrics = Vec::with_capacity(table.len());
        for def in table {
            let value = match self.metrics.get(def.name) {
                Some(value) if value.is_finite() && (!end_to_end || value > 0.0) => value,
                Some(value) => return Err(format!("{} measured as {value}", def.name)),
                None if end_to_end => return Err(format!("{} was not measured", def.name)),
                None => 0.0,
            };
            metrics.push((def.name, obj([("value", num(value)), ("unit", text(def.unit))])));
        }
        if everything {
            for &(name, value) in &self.metrics.values {
                if let Some(def) = metric_def(name).filter(|def| !table.contains(def)) {
                    metrics.push((name, obj([("value", num(value)), ("unit", text(def.unit))])));
                }
            }
        }
        Ok(obj([
            ("correct", Value::Bool(self.wrong == 0 && self.failed == 0)),
            ("attempted", count(self.attempted.max(1))),
            ("failed", count(self.failed)),
            ("metrics", obj(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{get, get_num, get_str};

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is declared twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|def| def.bound > 0.0 && def.bound <= 0.25));
        let setup = metric_def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|def| def.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for name in UNGATED_TIMES {
            assert!(PER_LAYER.iter().any(|def| def.name == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let declared = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> =
            declared.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = get(&declared, key).unwrap().as_array().unwrap();
            assert_eq!(items.len(), table.len(), "{key}");
            for (item, def) in items.iter().zip(table) {
                assert_eq!(get_str(item, "name"), Some(def.name));
                assert_eq!(get_str(item, "unit"), Some(def.unit));
                assert_eq!(get_str(item, "better"), Some(def.better.name()));
                let bound = get_num(item, "bound");
                assert_eq!(bound, (key == "end_to_end").then_some(def.bound), "{}", def.name);
            }
        }
        let workloads: Vec<&str> = get(&declared, "workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| get_str(w, "name").unwrap())
            .collect();
        let ours: Vec<&str> = crate::harness::Workload::GATED.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let mut result = RunResult { attempted: 10, failed: 0, wrong: 0, ..RunResult::default() };
        for def in END_TO_END {
            result.metrics.set(def.name, 1.25);
        }
        result.metrics.set("p50_us", 200.0);
        let line = result.contract(END_TO_END, false).unwrap();
        let fields = |value: &Value| value.as_object().unwrap().len();
        let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(get(&line, "correct"), Some(&Value::Bool(true)));
        assert_eq!(get(&line, "attempted"), Some(&Value::UInt(10)));
        assert_eq!(fields(get(&line, "metrics").unwrap()), END_TO_END.len());
        // On request the ungated times that were measured follow the table.
        let all = result.contract(END_TO_END, true).unwrap();
        let metrics = get(&all, "metrics").unwrap();
        assert_eq!(fields(metrics), END_TO_END.len() + 1);
        assert_eq!(get_num(get(metrics, "p50_us").unwrap(), "value"), Some(200.0));
        // Layers a workload never enters report 0; a missing end-to-end
        // metric is an error.
        let layers = result.contract(PER_LAYER, false).unwrap();
        assert_eq!(fields(get(&layers, "metrics").unwrap()), PER_LAYER.len());
        result.wrong = 1;
        let line = result.contract(END_TO_END, false).unwrap();
        assert_eq!(get(&line, "correct"), Some(&Value::Bool(false)));
        assert!(RunResult::default().contract(END_TO_END, false).is_err());
    }
}
