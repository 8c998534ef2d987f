//! The metric catalog and the result line.
//!
//! Every workload prints every end-to-end metric when untraced, and
//! every per-layer metric when traced; a layer a workload does not run
//! reads 0 there. `BENCHMARK.json` lists the same names and units.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("task_kcycles", "kcycles"),
    ("code_kbytes", "KiB"),
    ("rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("flowc.parse_ms", "ms"),
    ("flowc.link_ms", "ms"),
    ("flowc.source_kb_per_ms", "KiB/ms"),
    ("flowc.net_places", "count"),
    ("flowc.net_transitions", "count"),
    ("core.context_ms", "ms"),
    ("core.t_invariants", "count"),
    ("core.search_ms", "ms"),
    ("core.nodes_expanded", "count"),
    ("core.nodes_per_ms", "1/ms"),
    ("core.backtracks", "count"),
    ("core.ancestor_hit_ratio", "share"),
    ("core.irrelevance_cuts", "count"),
    ("core.ecs_sweeps", "count"),
    ("core.exhaustive_retries", "count"),
    ("petri.analyze_ms", "ms"),
    ("codegen.generate_ms", "ms"),
    ("codegen.c_kbytes", "KiB"),
    ("codegen.segments", "count"),
    ("sim.simulate_ms", "ms"),
    ("sim.events_per_ms", "1/ms"),
    ("pipeline.encode_ms", "ms"),
    ("pipeline.artifact_kb", "KiB"),
    ("pipeline.encode_kb_per_ms", "KiB/ms"),
    ("server.queued_ms_p99", "ms"),
    ("server.admit_ms_p50", "ms"),
    ("server.search_ms_p50", "ms"),
    ("server.coalesced_wait_ms_p99", "ms"),
    ("server.respond_ms_p50", "ms"),
    ("server.context_hit_ratio", "share"),
    ("server.report_hit_ratio", "share"),
    ("server.coalesced_share", "share"),
    ("server.evictions", "count"),
    ("server.busy_rejections", "count"),
    ("server.timeouts", "count"),
    ("server.loop_wakeups_per_req", "count"),
    ("server.peak_rss_mb", "MiB"),
    ("remote.decode_ms", "ms"),
    ("remote.response_kb", "KiB"),
    ("remote.unseen_ms_p99", "ms"),
    ("remote.gen_late_ms_p99", "ms"),
    ("remote.p99_ms", "ms"),
    ("remote.hot_p99_ms", "ms"),
    ("remote.cold_p99_ms", "ms"),
    ("remote.backlog_growth", "ratio"),
    ("remote.max_rps", "1/s"),
    ("share.flowc", "share"),
    ("share.core_context", "share"),
    ("share.core_search", "share"),
    ("share.codegen", "share"),
    ("share.sim", "share"),
    ("share.pipeline_encode", "share"),
    ("share.other", "share"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_share", "share"),
];

/// The outcome of one run: the benchmark's result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is wrong, if it is: a wrong output, a count mismatch.
    pub wrong: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric; `name` must be in the catalog.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "metric `{name}` is not in the catalog"
        );
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Notes a wrong result; the run then fails.
    pub fn wrong(&mut self, why: String) {
        eprintln!("ledger: WRONG: {why}");
        self.wrong.push(why);
    }

    /// Whether every output was right and every count matched.
    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.failed == 0
    }

    /// The result line: the catalog of this mode, each metric with its
    /// unit, absent layers reading 0.
    pub fn result_line(&self, traced: bool) -> String {
        let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `(name, unit)` of every metric in one catalog of `BENCHMARK.json`.
    fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
        benchmark
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|metric| {
                let field = |name: &str| {
                    metric
                        .get(name)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("a `{key}` metric has no `{name}`"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalog: &[(&str, &str)]) -> Vec<(String, String)> {
        catalog
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        assert_eq!(listed(&benchmark, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&benchmark, "per_layer"), owned(&PER_LAYER));
    }
}
