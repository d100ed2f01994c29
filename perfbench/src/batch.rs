//! The batch workloads: `batch-study` and `batch-faults`.
//!
//! Untraced, a run repeats cycles of set-up (building the substrate)
//! and one cold `Study::run` with every artifact and the JSON export,
//! then measures verdict queries through the study service's idle probe
//! (see [`crate::serve::idle_probe`]). Traced, it composes build →
//! crawl → filter → scan from the public layer entry points, records a
//! span around each call, and asserts the composed outcomes equal
//! `Study::run`'s before reporting any layer number.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use malware_slums::checkpoint::{CheckpointHeader, CheckpointStore};
use malware_slums::filter::ReferralClass;
use malware_slums::scanpipe::{effective_scan_workers, scan_key, ScanOutcome, ScanPipeline};
use malware_slums::substrate::{build_substrate, BuiltSubstrate};
use malware_slums::{export, ArtifactKind, Study, StudyConfig};
use rand::rngs::StdRng;
use slum_crawler::{CrawlFaultProfile, CrawlPlan, CrawlRecord, TrafficSource};
use slum_detect::fault::{FaultPlan, FaultProfile};
use slum_exchange::{ExchangeKind, SurfStep};

use crate::stats::{median, percentile};
use crate::trace::{self, SpanId, Tracer};
use crate::{process_cpu_s, secs, serve, Gates, Options, Report, Scale, WorkDir, Workload};

/// Substrate builds timed for set-up before each study.
const SETUP_PER_STUDY: usize = 2;

/// Seeds an untraced run studies in turn. How much work a study does
/// depends on its seed — under the fault profiles the fault schedule
/// decides how many records are retried, degraded or lost, and ten seeds'
/// `batch-faults` study CPU times spread by 13% (IQR over median) while
/// each seed repeated within 5% — so a run cycles through several seeds
/// and reports the mean of their medians.
const STUDY_SEEDS: u64 = 4;

/// Studies a run makes at least: every seed once, then the first again,
/// for the digest gate to compare.
const MIN_STUDY_REPS: usize = STUDY_SEEDS as usize + 1;

/// Share of `--seconds` given to studies; the verdict probe follows.
const STUDY_SHARE: f64 = 0.8;

/// Crawl scale of the small study the verdict probe's daemon runs.
const PROBE_CRAWL_SCALE: f64 = 0.0005;

/// The workload's study configuration.
pub fn config(seed: u64, faults: bool, scale: Scale) -> StudyConfig {
    let crawl_scale = match scale {
        Scale::Full => 0.1,
        Scale::Tiny => 0.002,
    };
    let mut b = StudyConfig::builder()
        .seed(seed)
        .crawl_scale(crawl_scale)
        .domain_scale((crawl_scale * 25.0).clamp(0.03, 1.0));
    if faults {
        b = b
            .fault_profile(FaultProfile::default_profile())
            .crawl_fault_profile(CrawlFaultProfile::default_profile());
    }
    b.build().expect("benchmark study config is valid")
}

/// The small checkpointed study the verdict probe's daemon runs: the
/// workload's seed and fault profiles at a tiny crawl scale.
fn probe_config(cfg: &StudyConfig) -> StudyConfig {
    let mut probe = cfg.clone();
    probe.crawl_scale = PROBE_CRAWL_SCALE;
    probe.domain_scale = 0.03;
    probe.checkpoint_every = Some(slum_serve::proto::DEFAULT_CHECKPOINT_EVERY);
    probe
}

/// Runs a batch workload.
pub fn run(opts: &Options) -> Report {
    let faults = opts.workload == Workload::BatchFaults;
    if opts.trace {
        run_traced(opts, &config(opts.seed, faults, opts.scale))
    } else {
        // `--seed` itself, then seeds in its own 2^32-wide stride.
        let cfgs: Vec<StudyConfig> = (0..STUDY_SEEDS)
            .map(|i| config(opts.seed.wrapping_add(i << 32), faults, opts.scale))
            .collect();
        run_untraced(opts, &cfgs)
    }
}

/// Checks the invariants every study must hold, counting one operation.
pub(crate) fn check_study(gates: &mut Gates, study: &Study, planned: u64) {
    let lost: u64 = study.health.iter().map(|h| h.lost_steps).sum();
    let pages = study.store.len() as u64;
    gates.check(pages + lost == planned, || {
        format!("pages {pages} + lost_steps {lost} != planned {planned}")
    });
    let aligned =
        study.outcomes.len() == study.store.len() && study.referrals.len() == study.store.len();
    gates.check(aligned, || "outcomes not aligned with records".to_string());
}

/// One study run as the batch user runs it, with its times.
pub(crate) struct Timed {
    pub study: Study,
    pub export: String,
    /// Wall seconds until `Study::run` returned.
    pub run_s: f64,
    /// Wall seconds of the study, its artifacts and the export.
    pub total_s: f64,
    /// CPU seconds, all threads, until `Study::run` returned.
    pub run_cpu_s: f64,
    /// CPU seconds, all threads, of the study, artifacts and export.
    pub total_cpu_s: f64,
}

/// Runs `cfg` once as the batch user does: the study, every artifact,
/// the JSON export. The CPU times count every thread of the process, so
/// nothing else may run in it meanwhile.
pub(crate) fn timed_study(cfg: &StudyConfig) -> Timed {
    let (t0, c0) = (Instant::now(), process_cpu_s());
    let study = Study::run(cfg);
    let (run_s, run_cpu_s) = (secs(t0.elapsed()), process_cpu_s() - c0);
    for kind in ArtifactKind::ALL {
        black_box(study.artifact(kind));
    }
    let export = export::to_json(&study).expect("export serializes");
    Timed {
        study,
        export,
        run_s,
        total_s: secs(t0.elapsed()),
        run_cpu_s,
        total_cpu_s: process_cpu_s() - c0,
    }
}

fn run_untraced(opts: &Options, cfgs: &[StudyConfig]) -> Report {
    let mut report = Report {
        gates: Gates::new(opts.inject_wrong_digest),
        ..Report::default()
    };
    let (mut setup_s, mut setup_cpu_s) = (Vec::new(), Vec::new());
    let (mut study_s, mut turnaround_s) = (Vec::new(), Vec::new());
    let (mut study_cpu_s, mut turnaround_cpu_s) = (Vec::new(), Vec::new());
    let mut study_cpu_by_seed = vec![Vec::new(); cfgs.len()];
    let mut turnaround_cpu_by_seed = vec![Vec::new(); cfgs.len()];
    let mut peak_rss_mb = f64::NAN;
    let mut first_digest: Vec<Option<String>> = vec![None; cfgs.len()];
    // Each cycle times set-up and then one study, so both sample the
    // whole run rather than one stretch of it.
    let t_run = Instant::now();
    while study_s.len() < MIN_STUDY_REPS
        || t_run.elapsed().as_secs_f64() < opts.seconds * STUDY_SHARE
    {
        let k = study_s.len() % cfgs.len();
        let cfg = &cfgs[k];
        // Set-up: generating the workload's inputs — the simulated web
        // and traffic sources every study starts from.
        let mut planned = 0;
        for _ in 0..SETUP_PER_STUDY {
            let (t0, c0) = (Instant::now(), process_cpu_s());
            let built = build_substrate(cfg);
            setup_s.push(secs(t0.elapsed()));
            setup_cpu_s.push(process_cpu_s() - c0);
            planned = built.planned_steps();
        }
        let timed = timed_study(cfg);
        if study_s.is_empty() {
            // The process's high-water mark after set-up and its first
            // study: what a process running one study peaks at, before
            // the allocator holds memory over from earlier studies.
            peak_rss_mb = crate::peak_rss_mb();
        }
        turnaround_s.push(timed.run_s);
        study_s.push(timed.total_s);
        turnaround_cpu_s.push(timed.run_cpu_s);
        study_cpu_s.push(timed.total_cpu_s);
        study_cpu_by_seed[k].push(timed.total_cpu_s);
        turnaround_cpu_by_seed[k].push(timed.run_cpu_s);
        check_study(&mut report.gates, &timed.study, planned);
        let d = crate::digest(&timed.export);
        match &first_digest[k] {
            None => first_digest[k] = Some(d),
            Some(first) => {
                let what = format!("seed {} repetition {}", cfg.seed, study_s.len());
                report.gates.digest(&what, first, &d);
            }
        }
    }
    report.set_summary("setup_s", &setup_cpu_s);
    report.set_summary("setup_wall_s", &setup_s);
    report.set_summary("study_cpu_s", &study_cpu_s);
    report.set_summary("turnaround_cpu_s", &turnaround_cpu_s);
    // Every seed counts once, however many times the run studied it.
    report.set("study_cpu_s", mean_of_medians(&study_cpu_by_seed));
    report.set("turnaround_cpu_s", mean_of_medians(&turnaround_cpu_by_seed));
    report.notes.push(format!(
        "study_cpu_s and turnaround_cpu_s: the mean over {} seeds of each seed's median",
        cfgs.len()
    ));
    report.set_summary("study_s", &study_s);
    report.set_summary("study_turnaround_s", &turnaround_s);
    report.set("peak_rss_mb", peak_rss_mb);
    let open = serve::idle_probe(opts, &probe_config(&cfgs[0]), None, &mut report);
    serve::report_rates(&mut report, &open);
    report
}

/// The mean over the non-empty groups of each group's median.
fn mean_of_medians(groups: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Indices of the regular records.
pub(crate) fn regular_indices(referrals: &[ReferralClass]) -> Vec<usize> {
    referrals
        .iter()
        .enumerate()
        .filter(|(_, c)| **c == ReferralClass::Regular)
        .map(|(i, _)| i)
        .collect()
}

/// A scan pipeline configured as `Study::run` configures it for `cfg`.
fn study_pipeline<'w>(
    web: &'w slum_websim::SyntheticWeb,
    cfg: &StudyConfig,
    records: &[CrawlRecord],
    referrals: &[ReferralClass],
) -> ScanPipeline<'w> {
    let mut pipeline = ScanPipeline::new(web).with_js_engine(cfg.js_engine);
    if !cfg.fault_profile.is_inert() {
        let requests: Vec<(String, u64)> = regular_indices(referrals)
            .into_iter()
            .map(|i| (scan_key(&records[i]), records[i].at))
            .collect();
        pipeline =
            pipeline.with_fault_plan(FaultPlan::compile(&cfg.fault_profile, cfg.seed, &requests));
    }
    pipeline
}

/// A traffic source that notes when its crawl thread first and last
/// asked it for a step — the source's busy interval.
struct TimedSource {
    inner: Box<dyn TrafficSource + Send>,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl TrafficSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> ExchangeKind {
        self.inner.kind()
    }

    fn min_surf_secs(&self) -> u32 {
        self.inner.min_surf_secs()
    }

    fn next_step(&mut self, t: u64, rng: &mut StdRng) -> SurfStep {
        self.first.get_or_insert_with(Instant::now);
        let step = self.inner.next_step(t, rng);
        self.last = Some(Instant::now());
        step
    }

    fn captcha_nonce(&self) -> u64 {
        self.inner.captcha_nonce()
    }

    fn restore_captcha_nonce(&mut self, nonce: u64) {
        self.inner.restore_captcha_nonce(nonce);
    }
}

/// What the composed, traced study produced and measured.
pub(crate) struct Composed {
    pub root: SpanId,
    pub records: Vec<CrawlRecord>,
    pub referrals: Vec<ReferralClass>,
    pub scanned: Vec<ScanOutcome>,
    pub checkpoint_s: f64,
}

/// Composes build → crawl (through `CrawlPlan::run_segmented`, saving a
/// checkpoint from its round hook every `segment_budget` slots) →
/// filter → scan (per-record `ScanPipeline::scan` on the study's worker
/// count) under a root span, timing artifacts and export of the
/// completed `reference` study inside it. Sets every crawl, filter,
/// scan, cache, fault, checkpoint, artifact and export metric.
pub(crate) fn composed_study(
    tracer: &Tracer,
    cfg: &StudyConfig,
    reference: &Study,
    segment_budget: Option<u64>,
    dir: &std::path::Path,
    tag: u64,
    report: &mut Report,
) -> Composed {
    let root = tracer.begin("study", "perfbench::batch", None, tag);
    let root_id = root.id();

    let (built, build_d) = tracer.run(
        "substrate.build",
        "malware-slums::substrate",
        Some(root_id),
        tag,
        |_| build_substrate(cfg),
    );
    let BuiltSubstrate {
        web,
        sources,
        filter,
        steps,
        ..
    } = built;
    report.set("substrate.build_s", secs(build_d));
    report.set("substrate.pages", web.len() as f64);

    // Crawl, with a checkpoint save from the round hook.
    let ckpt = CheckpointStore::open(dir).expect("open checkpoint dir");
    let header = CheckpointHeader::for_config(cfg);
    let mut sources: Vec<TimedSource> = sources
        .into_iter()
        .map(|inner| TimedSource {
            inner,
            first: None,
            last: None,
        })
        .collect();
    let crawl = tracer.begin("crawl", "slum-crawler::run", Some(root_id), tag);
    let crawl_id = crawl.id();
    let mut save_s = Vec::new();
    let mut save_bytes = Vec::new();
    let mut plan = CrawlPlan::new(cfg.seed).fault_profile(cfg.crawl_fault_profile.clone());
    if let Some(budget) = segment_budget {
        plan = plan.segment_budget(budget);
    }
    let step_fn = |x: &TimedSource| *steps.get(x.name()).expect("known source");
    let outcome = plan
        .run_segmented(&web, &mut sources, step_fn, &mut |_round, state| {
            let (saved, d) = tracer.run(
                "checkpoint.save",
                "malware-slums::checkpoint",
                Some(crawl_id),
                tag,
                |_| ckpt.save(&header, state),
            );
            let path = saved?;
            save_s.push(secs(d));
            save_bytes.push(
                std::fs::metadata(&path)
                    .map(|m| m.len() as f64)
                    .unwrap_or(0.0),
            );
            Ok::<(), malware_slums::CheckpointError>(())
        })
        .expect("checkpoint saves succeed");
    for s in &sources {
        if let (Some(first), Some(last)) = (s.first, s.last) {
            tracer.record(
                s.name(),
                "slum-crawler::drive",
                Some(crawl_id),
                tag,
                first,
                last,
            );
        }
    }
    let (store, _stats, health) = outcome.state.finish();
    let records = store.into_records();
    let crawl_wall = tracer.end(crawl);
    let busy: Vec<f64> = sources
        .iter()
        .filter_map(|s| Some(secs(s.last? - s.first?)))
        .collect();
    report.set("crawl.wall_s", secs(crawl_wall));
    report.set("crawl.records", records.len() as f64);
    report.set(
        "crawl.source_busy_max_s",
        busy.iter().copied().fold(0.0, f64::max),
    );
    report.set("crawl.source_busy_sum_s", busy.iter().sum());
    report.set(
        "crawl.lost_steps",
        health.iter().map(|h| h.lost_steps).sum::<u64>() as f64,
    );
    report.set("checkpoint.saves", save_s.len() as f64);
    report.set("checkpoint.save_s", median(&save_s));
    report.set("checkpoint.bytes_per_save", median(&save_bytes));

    let (referrals, classify) = tracer.run(
        "filter.classify",
        "malware-slums::filter",
        Some(root_id),
        tag,
        |_| {
            records
                .iter()
                .map(|r| filter.classify(r))
                .collect::<Vec<_>>()
        },
    );
    report.set("filter.classify_s", secs(classify));
    let regular = regular_indices(&referrals);
    report.set(
        "filter.regular_ratio",
        regular.len() as f64 / records.len().max(1) as f64,
    );

    let scan = tracer.begin("scan", "malware-slums::scanpipe", Some(root_id), tag);
    let scan_id = scan.id();
    let (pipeline, pipeline_new) = tracer.run(
        "scan.pipeline_new",
        "malware-slums::scanpipe",
        Some(scan_id),
        tag,
        |_| study_pipeline(&web, cfg, &records, &referrals),
    );
    let (scanned, record_ns) =
        scan_records(tracer, &pipeline, &records, &regular, cfg, scan_id, tag);
    let scan_wall = tracer.end(scan);
    report.set("scan.pipeline_new_s", secs(pipeline_new));
    report.set("scan.wall_s", secs(scan_wall));
    report.set("scan.records", scanned.len() as f64);
    report.set("scan.record_p50_us", percentile(&record_ns, 50.0) / 1e3);
    report.set("scan.record_p99_us", percentile(&record_ns, 99.0) / 1e3);
    let stats: BTreeMap<&str, slum_detect::CacheStats> =
        pipeline.cache_stats().into_iter().collect();
    for group in ["url_features", "content_features", "domain_blacklisted"] {
        let s = stats[group];
        report.set(
            &format!("scan.cache.{group}.hit_ratio"),
            s.hits as f64 / s.lookups.max(1) as f64,
        );
        report.set(&format!("scan.cache.{group}.lookups"), s.lookups as f64);
    }
    let js = pipeline.js_vm_stats();
    report.set(
        "js.module_hit_ratio",
        js.module_hits as f64 / js.module_lookups.max(1) as f64,
    );
    report.set("js.module_lookups", js.module_lookups as f64);
    let retries: u64 = scanned.iter().map(|o| u64::from(o.faults.retries)).sum();
    let skips: u64 = scanned
        .iter()
        .map(|o| u64::from(o.faults.breaker_skips))
        .sum();
    let degraded = scanned
        .iter()
        .filter(|o| o.source != malware_slums::VerdictSource::Full)
        .count();
    report.set("scan.retries", retries as f64);
    report.set("scan.breaker_skips", skips as f64);
    report.set(
        "scan.degraded_ratio",
        degraded as f64 / scanned.len().max(1) as f64,
    );

    // Artifacts and export, timed on the completed reference study.
    let art = tracer.begin(
        "artifact.all",
        "malware-slums::artifact",
        Some(root_id),
        tag,
    );
    let art_id = art.id();
    for kind in ArtifactKind::ALL {
        tracer.run(
            kind.name(),
            "malware-slums::artifact",
            Some(art_id),
            tag,
            |_| black_box(reference.artifact(kind)),
        );
    }
    report.set("artifact.all_s", secs(tracer.end(art)));
    let (json, export_d) = tracer.run(
        "export.json",
        "malware-slums::export",
        Some(root_id),
        tag,
        |_| export::to_json(reference).expect("export serializes"),
    );
    report.set("export.json_s", secs(export_d));
    report.set("export.bytes", json.len() as f64);
    tracer.end(root);

    let (loaded, load_d) = tracer.run(
        "checkpoint.load",
        "malware-slums::checkpoint",
        None,
        tag,
        |_| ckpt.load_latest(),
    );
    let (_, state) = loaded.expect("the latest checkpoint loads");
    report.gates.check(state.all_done(), || {
        "the last checkpoint is not a finished crawl".to_string()
    });
    report.set("checkpoint.load_s", secs(load_d));

    sample_layers(tracer, &web, &records, &regular, tag, report);
    Composed {
        root: root_id,
        records,
        referrals,
        scanned,
        checkpoint_s: save_s.iter().sum(),
    }
}

/// One scanned chunk: its index, outcomes and per-record times (ns).
type ScannedChunk = (usize, Vec<ScanOutcome>, Vec<f64>);

/// Scans the regular records on the study's worker count, pulling
/// chunks off a shared cursor; returns outcomes in record order and
/// every per-record scan time in ns.
fn scan_records(
    tracer: &Tracer,
    pipeline: &ScanPipeline<'_>,
    records: &[CrawlRecord],
    regular: &[usize],
    cfg: &StudyConfig,
    parent: SpanId,
    tag: u64,
) -> (Vec<ScanOutcome>, Vec<f64>) {
    let workers =
        effective_scan_workers(regular.len(), cfg.scan_workers, cfg.serial_scan_threshold);
    let chunk = cfg.scan_chunk.max(1);
    let n_chunks = regular.len().div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<ScannedChunk>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    let (parts, _) = tracer.run(
                        &format!("scan.worker.{w}"),
                        "malware-slums::scanpipe",
                        Some(parent),
                        tag,
                        |_| {
                            let mut parts = Vec::new();
                            loop {
                                let c = next.fetch_add(1, Ordering::Relaxed);
                                if c >= n_chunks {
                                    break parts;
                                }
                                let lo = c * chunk;
                                let hi = (lo + chunk).min(regular.len());
                                let mut outcomes = Vec::with_capacity(hi - lo);
                                let mut times = Vec::with_capacity(hi - lo);
                                for &i in &regular[lo..hi] {
                                    let t0 = Instant::now();
                                    outcomes.push(pipeline.scan(&records[i]));
                                    times.push(t0.elapsed().as_nanos() as f64);
                                }
                                parts.push((c, outcomes, times));
                            }
                        },
                    );
                    parts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect()
    });
    let mut by_chunk: Vec<Option<(Vec<ScanOutcome>, Vec<f64>)>> = vec![None; n_chunks];
    for (c, outcomes, times) in parts.into_iter().flatten() {
        by_chunk[c] = Some((outcomes, times));
    }
    let mut scanned = Vec::with_capacity(regular.len());
    let mut times = Vec::with_capacity(regular.len());
    for part in by_chunk {
        let (o, t) = part.expect("every chunk scanned once");
        scanned.extend(o);
        times.extend(t);
    }
    if times.is_empty() {
        times.push(0.0);
    }
    (scanned, times)
}

/// Sample size for the per-call layer timings.
const SAMPLE_TARGET: usize = 200;

/// Times each lower layer's public entry point on a deterministic
/// sample of regular records with captured content (every k-th).
fn sample_layers(
    tracer: &Tracer,
    web: &slum_websim::SyntheticWeb,
    records: &[CrawlRecord],
    regular: &[usize],
    tag: u64,
    report: &mut Report,
) {
    use slum_browser::Browser;
    use slum_detect::{BlacklistDb, Features, JsModuleCache, Quttera, VirusTotal};
    use slum_html::Document;
    use slum_js::{ModuleStore, Sandbox};
    use slum_websim::RequestContext;

    let with_content: Vec<&CrawlRecord> = regular
        .iter()
        .map(|&i| &records[i])
        .filter(|r| r.content.is_some())
        .collect();
    let stride = (with_content.len() / SAMPLE_TARGET).max(1);
    let sample: Vec<&CrawlRecord> = with_content.iter().step_by(stride).copied().collect();
    report.set("sample.records", sample.len() as f64);

    let sampled = tracer.begin("sample", "perfbench::batch", None, tag);
    let parent = Some(sampled.id());
    let vt = VirusTotal::new(web);
    let quttera = Quttera::new(web);
    let blacklists = BlacklistDb::populate_from_web(web);
    let mut t: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut time = |name: &'static str, layer: &'static str, f: &mut dyn FnMut()| {
        let (_, d) = tracer.run(name, layer, parent, tag, |_| f());
        t.entry(name).or_default().push(secs(d) * 1e6);
    };
    for r in &sample {
        let content = r.content.as_deref().expect("sampled records have content");
        let canon = r.url.canonical();
        time("browser.load_us", "slum-browser::session", &mut || {
            let browser = Browser::new(web).with_context(RequestContext::scanner("perfbench"));
            black_box(browser.load(&r.url));
        });
        let mut scripts = String::new();
        time("html.parse_us", "slum-html::dom", &mut || {
            scripts = Document::parse(content).inline_scripts().join("\n;\n");
        });
        if !scripts.trim().is_empty() {
            time("js.compile_us", "slum-js::compile", &mut || {
                if let Ok(program) = slum_js::parse_program(&scripts) {
                    black_box(slum_js::compile::compile_program(
                        &program,
                        slum_js::source_hash(&scripts),
                    ));
                }
            });
            // Warm the module store, then time execution alone.
            let store: Arc<dyn ModuleStore> = Arc::new(JsModuleCache::new());
            let sandbox = || {
                Sandbox::new()
                    .with_location(r.url.to_string())
                    .with_module_store(Arc::clone(&store))
            };
            black_box(sandbox().run(&scripts));
            time("js.exec_us", "slum-js::vm", &mut || {
                black_box(sandbox().run(&scripts));
            });
        }
        let mut features = Features::default();
        time("detect.features_us", "slum-detect::features", &mut || {
            features = Features::from_content(&r.url, content);
        });
        time(
            "detect.virustotal_us",
            "slum-detect::virustotal",
            &mut || {
                black_box(vt.aggregate(&canon, &features));
            },
        );
        time("detect.quttera_us", "slum-detect::quttera", &mut || {
            black_box(quttera.report(&r.url, &features));
        });
        time("detect.blacklist_us", "slum-detect::blacklist", &mut || {
            for host in &r.chain_hosts {
                let domain = slum_websim::domain::registered_domain(host);
                if black_box(blacklists.check(&domain)).is_blacklisted() {
                    break;
                }
            }
        });
    }
    tracer.end(sampled);
    for name in [
        "browser.load_us",
        "html.parse_us",
        "js.compile_us",
        "js.exec_us",
        "detect.features_us",
        "detect.virustotal_us",
        "detect.quttera_us",
        "detect.blacklist_us",
    ] {
        let v = t
            .get(name)
            .filter(|v| !v.is_empty())
            .map_or(0.0, |v| median(v));
        report.set(name, v);
    }
}

/// Asserts the composed outcomes equal `reference`'s, counting one
/// operation.
pub(crate) fn check_composed(gates: &mut Gates, composed: &Composed, reference: &Study) {
    let records_equal = composed.records.as_slice() == reference.store.records();
    let referrals_equal = composed.referrals == reference.referrals;
    let reference_scanned: Vec<&ScanOutcome> = reference
        .outcomes
        .iter()
        .zip(&reference.referrals)
        .filter(|(_, c)| **c == ReferralClass::Regular)
        .map(|(o, _)| o)
        .collect();
    let outcomes_equal = composed.scanned.len() == reference_scanned.len()
        && composed
            .scanned
            .iter()
            .zip(&reference_scanned)
            .all(|(a, b)| a == *b);
    gates.check(records_equal && referrals_equal && outcomes_equal, || {
        format!(
            "composed pipeline differs from Study::run (records {records_equal}, \
             referrals {referrals_equal}, outcomes {outcomes_equal})"
        )
    });
}

/// Sets the trace metrics for the composed study under `root`; the
/// overhead is the traced study time (less the checkpoint saves
/// `Study::run` does not make) minus the untraced time.
pub(crate) fn report_trace(
    tracer: &Tracer,
    composed: &Composed,
    untraced_s: f64,
    report: &mut Report,
) {
    let spans = tracer.spans();
    let table = trace::layer_table(&spans, composed.root);
    report.gates.check(table.coverage() >= 0.9, || {
        format!(
            "layer spans cover {:.3} of the traced study, below 0.9",
            table.coverage()
        )
    });
    report.set("trace.wall_s", table.wall_s);
    report.set("trace.other_s", table.other_s);
    report.set(
        "trace.overhead_s",
        table.wall_s - composed.checkpoint_s - untraced_s,
    );
    report.layers.push(("study".to_string(), table));
}

fn run_traced(opts: &Options, cfg: &StudyConfig) -> Report {
    let mut report = Report {
        gates: Gates::new(opts.inject_wrong_digest),
        ..Report::default()
    };
    let work = WorkDir::new(opts.workload.name());
    let tracer = Tracer::new();

    // The first study warms the process up; the second, timed, is the
    // untraced figure the tracing overhead is measured against.
    let reference = timed_study(cfg).study;
    let untraced = timed_study(cfg).total_s;
    let planned = build_substrate(cfg).planned_steps();
    check_study(&mut report.gates, &reference, planned);

    // One round: the checkpoint hook saves the finished crawl once.
    let composed = composed_study(&tracer, cfg, &reference, None, work.path(), 1, &mut report);
    check_composed(&mut report.gates, &composed, &reference);
    report_trace(&tracer, &composed, untraced, &mut report);

    drop(reference);
    serve::idle_probe(opts, &probe_config(cfg), Some(&tracer), &mut report);
    crate::finish_trace(opts, &tracer, &mut report);
    report
}
