//! One benchmark for the malware-slums study pipeline and study service.
//!
//! Three workloads (see [`catalog::catalog`]) drive the system only
//! through its public entry points — `Study::run`, `build_substrate`,
//! `CrawlPlan`, `ReferralFilter::classify`, per-record
//! `ScanPipeline::scan`, `Study::artifact`, `export::to_json`,
//! `CheckpointStore`, `Service`, `Daemon` and the wire protocol — and
//! check every output they time. An untraced run reports the
//! end-to-end metrics; a traced run (`--trace 1`) reports the per-layer
//! metrics from spans the benchmark records around each layer call.

pub mod batch;
pub mod catalog;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

use serde_json::Value;
use stats::Summary;
use trace::LayerTable;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cold batch study, then verdict lookups.
    BatchStudy,
    /// The same under the default scan and crawl fault profiles.
    BatchFaults,
    /// The daemon with a closed study loop and an open verdict loop.
    ServeMixed,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "batch-study" => Some(Workload::BatchStudy),
            "batch-faults" => Some(Workload::BatchFaults),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchStudy => "batch-study",
            Workload::BatchFaults => "batch-faults",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// Input size: the benchmark's own, or a tiny one for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Seconds-long inputs that exercise every path and gate.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring time budget.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Corrupt the first export digest comparison, to prove the gate
    /// can fail.
    pub inject_wrong_digest: bool,
}

/// Operation counts and correctness gates of one run: every timed
/// operation is attempted once and fails when it errs, is refused or
/// returns a wrong answer.
#[derive(Debug, Default)]
pub struct Gates {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or wrong.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    inject_wrong_digest: bool,
}

impl Gates {
    fn new(inject_wrong_digest: bool) -> Gates {
        Gates {
            inject_wrong_digest,
            ..Gates::default()
        }
    }

    /// Counts one operation; a false `ok` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts one export comparison by digest.
    pub fn digest(&mut self, what: &str, expected: &str, got: &str) {
        let got = if std::mem::take(&mut self.inject_wrong_digest) {
            format!("{got}-injected")
        } else {
            got.to_string()
        };
        self.check(expected == got, || {
            format!("{what}: export digest {got} != {expected}")
        });
    }
}

/// FNV-1a digest of an export document, as the study service reports it.
pub fn digest(export: &str) -> String {
    format!("{:016x}", slum_detect::hash::fnv1a(export.as_bytes()))
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogued name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Catalogued unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations and gates.
    pub gates: Gates,
    /// Reported metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Metrics printed and recorded but left off the result line.
    pub ungated: Vec<Metric>,
    /// Distribution of each end-to-end timing: name, unit, summary.
    pub summaries: Vec<(&'static str, &'static str, Summary)>,
    /// Layer tables of the traced run, by root span.
    pub layers: Vec<(String, LayerTable)>,
    /// Where the trace was written, for traced runs.
    pub trace_file: Option<PathBuf>,
    /// Free-form lines worth printing (rates, per-study times).
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name` (which must be catalogued).
    ///
    /// # Panics
    ///
    /// Panics on an uncatalogued name: a benchmark bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = catalog::catalog()
            .lookup(name)
            .unwrap_or_else(|| panic!("uncatalogued metric {name}"));
        self.metrics.retain(|m| m.name != def.name);
        self.metrics.push(Metric {
            name: &def.name,
            value,
            unit: &def.unit,
        });
    }

    /// Sets end-to-end metric `name` to the median of `samples` and
    /// keeps their summary for printing.
    pub fn set_summary(&mut self, name: &str, samples: &[f64]) {
        let summary = Summary::of(samples);
        self.set(name, summary.median);
        let def = catalog::catalog().lookup(name).expect("catalogued");
        self.summaries.push((&def.name, &def.unit, summary));
    }

    /// The reported value of `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// True when every gate held.
    pub fn correct(&self) -> bool {
        self.gates.failed == 0 && self.gates.attempted > 0
    }

    /// Failed operations over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.gates.failed as f64 / self.gates.attempted.max(1) as f64
    }

    /// Orders metrics as the catalogue does, checks that every expected
    /// one is present and moves the rest to [`Report::ungated`].
    ///
    /// # Panics
    ///
    /// Panics when a catalogued metric was not measured.
    pub fn finalize(&mut self, trace: bool) {
        if !trace {
            self.set("error_rate", self.error_rate());
        }
        let expected = if trace {
            &catalog::catalog().per_layer
        } else {
            &catalog::catalog().end_to_end
        };
        let mut ordered = Vec::with_capacity(expected.len());
        for def in expected {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            ordered.push(m.clone());
        }
        self.ungated = self
            .metrics
            .iter()
            .filter(|m| !ordered.contains(m))
            .cloned()
            .collect();
        self.metrics = ordered;
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = object([("value", Value::F64(m.value)), ("unit", text(m.unit))]);
                (m.name.to_string(), v)
            })
            .collect();
        let line = object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.gates.attempted)),
            ("failed", Value::U64(self.gates.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("JSON values serialize")
    }
}

/// Runs one workload.
pub fn run(opts: &Options) -> Report {
    let mut report = match opts.workload {
        Workload::BatchStudy | Workload::BatchFaults => batch::run(opts),
        Workload::ServeMixed => serve::run(opts),
    };
    report.finalize(opts.trace);
    report
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets this process's peak-RSS high-water mark to its current
/// resident set (`/proc/self/clear_refs`), so [`peak_rss_mb`] covers
/// only what runs after. False where the kernel offers no reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The benchmark's output directory (`out/` next to its manifest).
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A fresh scratch directory for one run's checkpoint and service
/// files, removed by [`WorkDir`]'s drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `out/work-<pid>-<n>-<tag>`, unique within the process.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn new(tag: &str) -> WorkDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = out_dir().join(format!("work-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create benchmark work dir");
        WorkDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The repository revision, read from the checkout's `.git` when there
/// is one.
pub fn git_revision() -> String {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// Host CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Seconds of a duration.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// CPU seconds this process's threads have run, exited threads
/// included (`CLOCK_PROCESS_CPUTIME_ID`). On a virtual machine whose
/// kernel accounts steal time, time the host held a virtual CPU from
/// the guest is not counted, so the figure follows the work done
/// rather than how busy the host was.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(cpu_clock::PROCESS)
}

/// CPU seconds the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(cpu_clock::THREAD)
}

#[cfg(target_os = "linux")]
mod cpu_clock {
    pub const PROCESS: i32 = 2;
    pub const THREAD: i32 = 3;

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = cpu_clock::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: a valid clock id and a valid, writable timespec.
    let rc = unsafe { cpu_clock::clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
mod cpu_clock {
    pub const PROCESS: i32 = 0;
    pub const THREAD: i32 = 1;
}

/// Without the Linux CPU clocks there is nothing to measure.
#[cfg(not(target_os = "linux"))]
fn cpu_clock_s(_clock: i32) -> f64 {
    panic!("perfbench measures CPU time through Linux's clock_gettime")
}

/// Sets the trace bookkeeping metrics — coverage is the lowest over
/// every root — and writes spans and layer tables to
/// `out/trace-<workload>-<seed>.json`.
pub(crate) fn finish_trace(opts: &Options, tracer: &trace::Tracer, report: &mut Report) {
    let coverage = report
        .layers
        .iter()
        .map(|(_, t)| t.coverage())
        .fold(1.0, f64::min);
    let spans = tracer.spans();
    report.set("trace.coverage", coverage);
    report.set("trace.spans", spans.len() as f64);
    report.set("peak_rss_mb.traced", peak_rss_mb());
    let path = out_dir().join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed));
    let doc = trace::to_json(&spans, &report.layers);
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    report.trace_file = Some(path);
}

/// A JSON object of `fields`, in order.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON string.
pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The run record written next to the trace: host, revision, seed,
/// every metric with its catalogue entry and every summary.
pub fn run_record(opts: &Options, report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .chain(&report.ungated)
        .map(|m| {
            let def = catalog::catalog().lookup(m.name).expect("catalogued");
            object([
                ("name", text(m.name)),
                ("value", Value::F64(m.value)),
                ("unit", text(m.unit)),
                ("better", text(&def.better)),
                ("layer", text(def.layer)),
                ("moves", text(def.moves)),
            ])
        })
        .collect();
    let summaries = report
        .summaries
        .iter()
        .map(|(name, unit, s)| {
            let (level, value) = s.tail.unwrap_or((f64::NAN, f64::NAN));
            object([
                ("name", text(name)),
                ("unit", text(unit)),
                ("n", Value::U64(s.n as u64)),
                ("median", Value::F64(s.median)),
                ("q1", Value::F64(s.q1)),
                ("q3", Value::F64(s.q3)),
                ("tail_level", Value::F64(level)),
                ("tail_value", Value::F64(value)),
            ])
        })
        .collect();
    let doc = object([
        ("workload", text(opts.workload.name())),
        ("seed", Value::U64(opts.seed)),
        ("seconds", Value::F64(opts.seconds)),
        ("trace", Value::Bool(opts.trace)),
        ("git_revision", text(&git_revision())),
        ("host", object([("cpus", Value::U64(host_cpus() as u64))])),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::U64(report.gates.attempted)),
        ("failed", Value::U64(report.gates.failed)),
        ("error_rate", Value::F64(report.error_rate())),
        (
            "failures",
            Value::Seq(report.gates.failures.iter().map(|f| text(f)).collect()),
        ),
        ("metrics", Value::Seq(metrics)),
        ("summaries", Value::Seq(summaries)),
        (
            "notes",
            Value::Seq(report.notes.iter().map(|n| text(n)).collect()),
        ),
    ]);
    serde_json::to_string(&doc).expect("JSON values serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins until this thread has run `seconds` of CPU time.
    fn spin_cpu(seconds: f64) {
        let t0 = thread_cpu_s();
        while thread_cpu_s() - t0 < seconds {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn cpu_clocks_count_work_not_waiting() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        std::thread::sleep(Duration::from_millis(100));
        let slept = thread_cpu_s() - t0;
        assert!(slept < 0.02, "sleeping counted {slept} s");
        spin_cpu(0.05);
        let own = thread_cpu_s() - t0;
        std::thread::spawn(|| spin_cpu(0.05))
            .join()
            .expect("helper thread");
        // The exited helper's time stays in the process clock.
        let process = process_cpu_s() - p0;
        assert!(process >= own + 0.05, "process {process} s, own {own} s");
    }
}
