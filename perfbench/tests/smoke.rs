//! Tiny-scale smoke runs of every workload: the output schema, the
//! correctness gates, and proof that the digest gate can fail.

use std::sync::Mutex;

use perfbench::{catalog, run, Options, Report, Scale, Workload};

/// Runs one workload at a time. The test harness runs tests on parallel
/// threads, and two workloads at once would load the host past the CPU
/// count the benchmark's load generator is built for: the open loop's
/// short tiny-scale steps then miss the latency limit.
fn run_alone(opts: &Options) -> Report {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    run(opts)
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        inject_wrong_digest: false,
    }
}

/// The result line parses, has exactly the four contract keys, and its
/// metrics are exactly `expected`, each with its catalogued unit.
fn assert_result_line(report: &Report, expected: &[catalog::MetricDef]) {
    let line = report.result_line();
    assert!(!line.contains('\n'), "the result is one line");
    let value: serde_json::Value = serde_json::from_str(&line).expect("result line is JSON");
    let keys: Vec<&str> = value
        .as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(
        value
            .get("attempted")
            .and_then(|v| v.as_u64())
            .expect("attempted")
            >= 1
    );
    let metrics = value
        .get("metrics")
        .and_then(|m| m.as_map())
        .expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, want);
    for ((name, m), def) in metrics.iter().zip(expected) {
        let keys: Vec<&str> = m
            .as_map()
            .expect("metric object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
        assert_eq!(
            m.get("unit").and_then(|u| u.as_str()),
            Some(def.unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{name} = {v}");
    }
}

fn assert_clean(report: &Report, workload: Workload) {
    assert!(
        report.correct(),
        "{}: gates failed: {:?}\n{}",
        workload.name(),
        report.gates.failures,
        report.notes.join("\n")
    );
    assert_eq!(report.gates.failed, 0);
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_passes_its_gates() {
    for (i, workload) in [
        Workload::BatchStudy,
        Workload::BatchFaults,
        Workload::ServeMixed,
    ]
    .into_iter()
    .enumerate()
    {
        let report = run_alone(&tiny(workload, 100 + i as u64, false));
        assert_clean(&report, workload);
        assert_result_line(&report, &catalog::catalog().end_to_end);
        for def in &catalog::catalog().end_to_end {
            let v = report.value(&def.name).expect("measured");
            assert!(
                v > 0.0,
                "{} on {} must never be 0, got {v}",
                def.name,
                workload.name()
            );
        }
        assert_eq!(
            report
                .ungated
                .iter()
                .find(|m| m.name == "error_rate")
                .map(|m| m.value),
            Some(0.0)
        );
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_with_full_coverage() {
    for (i, workload) in [Workload::BatchFaults, Workload::ServeMixed]
        .into_iter()
        .enumerate()
    {
        let report = run_alone(&tiny(workload, 200 + i as u64, true));
        assert_clean(&report, workload);
        assert_result_line(&report, &catalog::catalog().per_layer);
        let coverage = report.value("trace.coverage").expect("coverage");
        assert!(coverage >= 0.9, "{}: coverage {coverage}", workload.name());
        assert!(report.value("checkpoint.saves").expect("saves") >= 1.0);
        assert!(report.value("serve.verdict_queries").expect("queries") >= 1.0);
    }
}

#[test]
fn an_injected_wrong_digest_fails_the_run() {
    for (i, workload) in [Workload::BatchStudy, Workload::ServeMixed]
        .into_iter()
        .enumerate()
    {
        let mut opts = tiny(workload, 300 + i as u64, false);
        opts.inject_wrong_digest = true;
        let report = run_alone(&opts);
        assert!(
            !report.correct(),
            "{}: the corrupted digest went unnoticed",
            workload.name()
        );
        assert!(report.gates.failed >= 1);
        assert!(
            report.gates.failures.iter().any(|f| f.contains("digest")),
            "{}: {:?}",
            workload.name(),
            report.gates.failures
        );
        assert!(report.result_line().starts_with("{\"correct\":false"));
    }
}

/// `BENCHMARK.json` names the workloads the command runs, and its
/// bounds follow the contract: each in (0, 0.25], `setup_s` the largest.
#[test]
fn benchmark_json_follows_the_contract() {
    let c = catalog::catalog();
    let names: Vec<&str> = c.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, ["batch-study", "batch-faults", "serve-mixed"]);
    assert!(names.iter().all(|n| Workload::parse(n).is_some()));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let bound = |m: &serde_json::Value| m.get("bound").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
    let e2e = doc
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .expect("end_to_end");
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(|v| v.as_str()) == Some("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    assert_eq!(setup.get("better").and_then(|v| v.as_str()), Some("lower"));
    for m in e2e {
        let b = bound(m);
        assert!(b > 0.0 && b <= 0.25, "{m:?}");
        assert!(b <= bound(setup), "setup_s has the largest bound");
    }
}
