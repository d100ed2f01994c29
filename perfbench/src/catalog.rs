//! The metric and workload catalogue: what every reported number means,
//! which layer (`crate::module`) it measures and which end-to-end
//! metric, on which workload, it should move.
//!
//! `BENCHMARK.json` at the repository root is the one source of each
//! workload's rationale and of each gated metric's name, unit and
//! direction; it is compiled in and read here. This module adds only
//! what the contract has no key for — layer and predicted effect, by
//! metric name — and the two metrics printed but not gated. A metric
//! missing from either side is a benchmark bug and panics at start-up.

use std::sync::OnceLock;

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// The layer measured, as `crate::module` (`end-to-end` for the
    /// user-visible metrics).
    pub layer: &'static str,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

/// One benchmark workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Workload name as passed to `--workload`.
    pub name: String,
    /// Why the benchmark runs it.
    pub why: String,
}

/// Everything the benchmark reports, in the contract's order.
#[derive(Debug)]
pub struct Catalog {
    /// The workloads.
    pub workloads: Vec<WorkloadDef>,
    /// User-visible metrics, reported with tracing off and gated by
    /// their bound in `BENCHMARK.json`.
    pub end_to_end: Vec<MetricDef>,
    /// User-visible metrics printed and recorded but not gated.
    pub ungated: Vec<MetricDef>,
    /// Per-layer metrics, reported by the traced run.
    pub per_layer: Vec<MetricDef>,
}

/// The contract, compiled in.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

const E2E: &str = "end-to-end";
const BATCH: &str = "study_cpu_s on batch-study and batch-faults";
const BATCH_STUDY: &str = "study_cpu_s on batch-study";
const FAULTS_ONLY: &str = "study_cpu_s on batch-faults only";
const SERVE_TURN: &str = "turnaround_cpu_s on serve-mixed";
const SERVE_VERDICT: &str = "verdict_p50_ms and verdict_sustained_qps on serve-mixed";

/// Layer and predicted effect of every metric in the contract: name,
/// layer, moves.
const LAYERS: &[(&str, &str, &str)] = &[
    ("study_cpu_s", E2E, "CPU time, all threads, of one complete batch study with every artifact and the JSON export; on the batch workloads the mean over four seeds of each seed's median"),
    ("turnaround_cpu_s", E2E, "CPU time of a study until the caller sees it done: Study::run on the batch workloads, the daemon's from submit to done of a warm study with no other client on serve-mixed"),
    ("verdict_p50_ms", E2E, "median verdict latency at the nominal rate (1000 queries/s), timed from the due time"),
    ("setup_s", E2E, "CPU time, all threads, of bringing the system under test to its first timed operation: building the substrate (batch), daemon start through the first answered request (serve-mixed)"),
    ("peak_rss_mb", E2E, "peak resident memory of the system under test: after set-up and the first study (batch), from daemon start to the end of the measured phase (serve-mixed)"),
    ("substrate.build_s", "malware-slums::substrate", "study_cpu_s on both batch workloads a little; turnaround_cpu_s on serve-mixed a lot"),
    ("substrate.pages", "slum-websim::build", "study_cpu_s on both batch workloads; turnaround_cpu_s on serve-mixed"),
    ("crawl.wall_s", "slum-crawler::run", BATCH),
    ("crawl.records", "slum-crawler::run", BATCH),
    ("crawl.source_busy_max_s", "slum-crawler::drive", "crawl.wall_s and the wall-time study_s on both batch workloads (the largest source sets the crawl wall time)"),
    ("crawl.source_busy_sum_s", "slum-exchange::source", BATCH),
    ("crawl.lost_steps", "slum-crawler::fault", "study_cpu_s on batch-faults"),
    ("filter.classify_s", "malware-slums::filter", BATCH_STUDY),
    ("filter.regular_ratio", "malware-slums::filter", "base count crawl.records; study_cpu_s on batch-study"),
    ("scan.pipeline_new_s", "malware-slums::scanpipe", BATCH_STUDY),
    ("scan.wall_s", "malware-slums::scanpipe", BATCH_STUDY),
    ("scan.records", "malware-slums::scanpipe", BATCH_STUDY),
    ("scan.record_p50_us", "malware-slums::scanpipe", BATCH_STUDY),
    ("scan.record_p99_us", "malware-slums::scanpipe", BATCH_STUDY),
    ("scan.cache.url_features.hit_ratio", "slum-detect::cache", "turnaround_cpu_s on serve-mixed (warm tenant); study_cpu_s on batch-study (cold)"),
    ("scan.cache.url_features.lookups", "slum-detect::cache", "base count of scan.cache.url_features.hit_ratio"),
    ("scan.cache.content_features.hit_ratio", "slum-detect::cache", "turnaround_cpu_s on serve-mixed (warm tenant); study_cpu_s on batch-study (cold)"),
    ("scan.cache.content_features.lookups", "slum-detect::cache", "base count of scan.cache.content_features.hit_ratio"),
    ("scan.cache.domain_blacklisted.hit_ratio", "slum-detect::cache", "turnaround_cpu_s on serve-mixed (warm tenant); study_cpu_s on batch-study (cold)"),
    ("scan.cache.domain_blacklisted.lookups", "slum-detect::cache", "base count of scan.cache.domain_blacklisted.hit_ratio"),
    ("js.module_hit_ratio", "slum-detect::js_modules", "turnaround_cpu_s on serve-mixed (warm tenant); study_cpu_s on batch-study (cold)"),
    ("js.module_lookups", "slum-detect::js_modules", "base count of js.module_hit_ratio"),
    ("sample.records", "perfbench::batch", "base count of the sampled per-call timings below"),
    ("browser.load_us", "slum-browser::session", BATCH_STUDY),
    ("html.parse_us", "slum-html::dom", BATCH_STUDY),
    ("js.compile_us", "slum-js::compile", BATCH_STUDY),
    ("js.exec_us", "slum-js::vm", BATCH_STUDY),
    ("detect.features_us", "slum-detect::features", BATCH_STUDY),
    ("detect.virustotal_us", "slum-detect::virustotal", BATCH_STUDY),
    ("detect.quttera_us", "slum-detect::quttera", BATCH_STUDY),
    ("detect.blacklist_us", "slum-detect::blacklist", BATCH_STUDY),
    ("scan.retries", "slum-detect::retry", FAULTS_ONLY),
    ("scan.degraded_ratio", "slum-detect::fault", "base count scan.records; study_cpu_s on batch-faults only"),
    ("scan.breaker_skips", "slum-detect::retry", FAULTS_ONLY),
    ("artifact.all_s", "malware-slums::artifact", "study_cpu_s on both batch workloads; turnaround_cpu_s on serve-mixed"),
    ("export.json_s", "malware-slums::export", "study_cpu_s on both batch workloads; turnaround_cpu_s on serve-mixed"),
    ("export.bytes", "malware-slums::export", "export.json_s"),
    ("checkpoint.saves", "malware-slums::checkpoint", SERVE_TURN),
    ("checkpoint.save_s", "malware-slums::checkpoint", SERVE_TURN),
    ("checkpoint.load_s", "malware-slums::checkpoint", SERVE_TURN),
    ("checkpoint.bytes_per_save", "malware-slums::checkpoint", SERVE_TURN),
    ("serve.slice_s", "slum-serve::service", "turnaround_cpu_s, and verdict_p50_ms through CPU contention, on serve-mixed"),
    ("serve.slices_per_study", "slum-serve::service", SERVE_TURN),
    ("serve.handle.query_verdict_us", "slum-serve::service", "verdict_p50_ms on serve-mixed"),
    ("serve.handle.study_status_us", "slum-serve::service", SERVE_TURN),
    ("serve.verdict_hit_ratio", "slum-serve::service", "base count serve.verdict_queries; verdict_p50_ms on serve-mixed"),
    ("serve.verdict_queries", "slum-serve::service", "base count of serve.verdict_hit_ratio"),
    ("serve.rtt_overhead_us", "slum-serve::daemon", SERVE_VERDICT),
    ("serve.generator_lateness_ms", "slum-serve::proto", SERVE_VERDICT),
    ("trace.wall_s", "perfbench::trace", "traced wall time of the composed study the layer spans cover"),
    ("trace.other_s", "perfbench::trace", "traced time no layer span covers"),
    ("trace.coverage", "perfbench::trace", "share of trace.wall_s covered by layer spans (at least 0.9)"),
    ("trace.overhead_s", "perfbench::trace", "traced study time minus untraced study time of the same config"),
    ("peak_rss_mb.traced", "perfbench::trace", "peak_rss_mb of the traced run"),
    ("trace.spans", "perfbench::trace", "spans recorded by the traced run"),
];

/// Metrics printed and recorded with tracing off but not gated: on a
/// shared two-CPU host the wall times of studies and set-up, the verdict
/// tail and the sustained rate follow the host's own scheduling from run
/// to run by more than the largest bound the contract allows (the gated
/// `study_cpu_s`, `turnaround_cpu_s` and `setup_s` measure the same work
/// in CPU time, which leaves out the time the host held a CPU from the
/// guest), and `error_rate` is zero whenever a run passes. Name, unit,
/// better, layer, moves.
const UNGATED: &[(&str, &str, &str, &str, &str)] = &[
    ("study_s", "s", "lower", E2E, "wall time of one complete batch study with every artifact and the JSON export"),
    ("study_turnaround_s", "s", "lower", E2E, "wall time from starting or submitting a study until the caller sees it done; on serve-mixed, warm tenants' studies beside the open loop"),
    ("setup_wall_s", "s", "lower", E2E, "wall time of the set-up setup_s measures in CPU time"),
    ("verdict_sustained_qps", "1/s", "higher", E2E, "highest offered rate the capacity search found meeting the p99 latency limit with no growing backlog"),
    ("verdict_p99_ms", "ms", "lower", E2E, "99th percentile verdict latency at the nominal offered rate"),
    ("error_rate", "ratio", "lower", E2E, "failed, refused or wrong operations over attempted operations; the run fails unless it is 0"),
];

/// The catalogue, read from the contract on first use.
///
/// # Panics
///
/// Panics when `BENCHMARK.json` does not parse, or when it and
/// [`LAYERS`] do not name the same metrics.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| parse(CONTRACT))
}

fn parse(contract: &str) -> Catalog {
    let doc: serde_json::Value = serde_json::from_str(contract).expect("BENCHMARK.json parses");
    let text = |v: &serde_json::Value, key: &str| -> String {
        v.get(key)
            .and_then(|s| s.as_str())
            .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` missing"))
            .to_string()
    };
    let list = |key: &str| -> &Vec<serde_json::Value> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` missing"))
    };
    let metrics = |key: &str| -> Vec<MetricDef> {
        list(key)
            .iter()
            .map(|m| {
                let name = text(m, "name");
                let &(_, layer, moves) = LAYERS
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} has no layer in the catalogue"));
                MetricDef {
                    unit: text(m, "unit"),
                    better: text(m, "better"),
                    name,
                    layer,
                    moves,
                }
            })
            .collect()
    };
    let catalog = Catalog {
        workloads: list("workloads")
            .iter()
            .map(|w| WorkloadDef {
                name: text(w, "name"),
                why: text(w, "why"),
            })
            .collect(),
        end_to_end: metrics("end_to_end"),
        ungated: UNGATED
            .iter()
            .map(|&(name, unit, better, layer, moves)| MetricDef {
                name: name.to_string(),
                unit: unit.to_string(),
                better: better.to_string(),
                layer,
                moves,
            })
            .collect(),
        per_layer: metrics("per_layer"),
    };
    for (name, _, _) in LAYERS {
        assert!(
            catalog.lookup(name).is_some(),
            "catalogued metric {name} is not in BENCHMARK.json"
        );
    }
    catalog
}

impl Catalog {
    /// The definition of `name`, among every reported metric.
    pub fn lookup(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.ungated)
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_and_the_layer_table_name_the_same_metrics() {
        let c = catalog();
        assert_eq!(c.workloads.len(), 3);
        assert_eq!(c.end_to_end.len() + c.per_layer.len(), LAYERS.len());
        assert!(c.lookup("setup_s").is_some_and(|d| d.layer == E2E));
    }
}
