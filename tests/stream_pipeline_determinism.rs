//! Determinism of the one crawl→scan pipeline: every entry point —
//! `Study::run`, `Study::run_checkpointed`, a run killed after a
//! checkpoint round then finished by `Study::resume_from`, and a barrier
//! run that crawls to the end before it scans — must equal a
//! serial (one scan worker) `Study::run`: same corpus, same outcomes,
//! same export JSON, same deterministic counters, for every scan worker
//! count and chunk size, with and without crawl and scan fault
//! profiles. Also pins the small-corpus serial fallback, phase spans
//! that add up to no more than the run, and that a slice which stops
//! before the crawl ends scans nothing.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use malware_slums::scanpipe::ScanCaches;
use malware_slums::study::{Study, StudyConfig, StudyConfigBuilder};
use slum_crawler::CrawlFaultProfile;
use slum_detect::fault::FaultProfile;

const SEED: u64 = 4242;
const SCALE: f64 = 0.0003;
const CHECKPOINT_EVERY: u64 = 16;

fn base_builder() -> StudyConfigBuilder {
    StudyConfig::builder()
        .seed(SEED)
        .crawl_scale(SCALE)
        .domain_scale(0.03)
        .checkpoint_every(CHECKPOINT_EVERY)
        // Honor every requested worker count, however small the corpus.
        .serial_scan_threshold(0)
}

/// Corpus JSONL, export JSON and deterministic counters, with the keys
/// that legitimately vary between runs stripped: worker-count and
/// chunk-size echoes, the chunk count (a function of the chunk size),
/// and the checkpoint and resume bookkeeping.
fn fingerprint(study: &Study) -> (String, String, BTreeMap<String, i128>) {
    let jsonl = study.store.to_jsonl().expect("serializable corpus");
    let json = malware_slums::export::to_json(study).expect("export JSON");
    let mut counters = study.metrics().deterministic_counters();
    for key in [
        "gauge:config.scan_workers",
        "gauge:scan.workers",
        "gauge:config.scan_chunk",
        "gauge:config.serial_scan_threshold",
        "scan.pipeline.chunks",
    ] {
        counters.remove(key);
    }
    counters.retain(|k, _| !k.starts_with("ckpt.") && !k.starts_with("crawl.resume."));
    (jsonl, json, counters)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slum-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `config` through every entry point and checks each against the
/// serial direct run `baseline`.
fn assert_every_entry_point_matches(baseline: &Study, config: &StudyConfig, tag: &str) {
    let want = fingerprint(baseline);
    let check = |study: &Study, entry: &str| {
        assert_eq!(study.outcomes, baseline.outcomes, "{tag} {entry}: outcomes diverged");
        assert_eq!(fingerprint(study), want, "{tag} {entry}: study diverged");
        let m = study.metrics();
        assert_eq!(
            m.counter("scan.pipeline.records_streamed"),
            study.store.len() as u64,
            "{tag} {entry}: every record travels the stream"
        );
        assert!(m.counter("scan.pipeline.chunks") > 0, "{tag} {entry}: nothing streamed");
    };
    check(&Study::run(config), "direct");

    let dir = scratch_dir(&format!("{tag}-ckpt"));
    let checkpointed = Study::run_checkpointed(config, &dir).expect("checkpointed run");
    std::fs::remove_dir_all(&dir).ok();
    check(&checkpointed, "checkpointed");

    for kill_after in [1u64, 2] {
        let dir = scratch_dir(&format!("{tag}-k{kill_after}"));
        let killed = Study::run_to_checkpoint(config, &dir, kill_after).expect("killed run");
        assert!(killed.is_none(), "{tag}: kill at round {kill_after} must abandon the run");
        let resumed = Study::resume_from(config, &dir).expect("resume");
        std::fs::remove_dir_all(&dir).ok();
        check(&resumed, &format!("resumed after round {kill_after}"));
    }

    // A kill point that never fires makes the crawl run to its end
    // before the scan starts: the barrier pipeline.
    let dir = scratch_dir(&format!("{tag}-barrier"));
    let barrier = Study::run_to_checkpoint(config, &dir, u64::MAX).expect("barrier run");
    std::fs::remove_dir_all(&dir).ok();
    check(&barrier.expect("an unfired kill completes the run"), "barrier");
}

#[test]
fn every_entry_point_matches_a_serial_direct_run() {
    let baseline = Study::run(&base_builder().scan_workers(1).build().expect("config"));
    for workers in [1usize, 2, 4, 8] {
        for chunk in [1usize, 64, 4096] {
            let config =
                base_builder().scan_workers(workers).scan_chunk(chunk).build().expect("config");
            assert_every_entry_point_matches(&baseline, &config, &format!("w{workers}-c{chunk}"));
        }
    }
}

/// Sweeps a faulted config over the worker and chunk grid, through
/// every entry point, against its own serial direct run.
fn assert_faulted_sweep_matches(crawl: bool, scan: bool) {
    let faulted = || {
        let mut b = base_builder();
        if crawl {
            b = b.crawl_fault_profile(CrawlFaultProfile::default_profile());
        }
        if scan {
            b = b.fault_profile(FaultProfile::default_profile());
        }
        b
    };
    let baseline = Study::run(&faulted().scan_workers(1).build().expect("config"));
    if scan {
        assert!(baseline.metrics().counter("scan.faults.injected") > 0, "scan faults bite");
    }
    for workers in [1usize, 2, 4, 8] {
        for chunk in [1usize, 64, 4096] {
            let config = faulted().scan_workers(workers).scan_chunk(chunk).build().expect("config");
            let tag = format!("crawl{crawl}-scan{scan}-w{workers}-c{chunk}");
            assert_every_entry_point_matches(&baseline, &config, &tag);
        }
    }
}

#[test]
fn overlapped_matches_barrier_under_crawl_faults() {
    // Crawl faults (outages, bans, shutdowns) make the record stream
    // ragged — lost slots leave chunks short — which the (exchange,
    // sequence) reassembly has to absorb, with and without scan faults
    // on top.
    assert_faulted_sweep_matches(true, false);
    assert_faulted_sweep_matches(true, true);
}

#[test]
fn overlap_request_under_scan_faults_falls_back_to_barrier() {
    // A scan-fault plan is compiled over the complete corpus, so the
    // scan waits for the end of the stream: every entry point then runs
    // as a barrier and must still match the serial direct run.
    assert_faulted_sweep_matches(false, true);
}

#[test]
fn phase_spans_add_up_to_at_most_the_run() {
    // The crawl span is the producer's wall time and the scan span the
    // tail after it, so the three phases never overlap.
    let streamed = base_builder().scan_workers(2).build().expect("config");
    let deferred = base_builder()
        .scan_workers(2)
        .fault_profile(FaultProfile::default_profile())
        .build()
        .expect("config");
    for (config, tag) in [(&streamed, "streamed"), (&deferred, "scan faults")] {
        let t0 = Instant::now();
        let study = Study::run(config);
        let wall = t0.elapsed();
        let m = study.metrics();
        let phases = m.span_duration("phase.build")
            + m.span_duration("phase.crawl")
            + m.span_duration("phase.scan");
        assert!(phases <= wall, "{tag}: phases {phases:?} exceed the run's {wall:?}");
    }
}

#[test]
fn unfinished_slice_scans_nothing_into_shared_caches() {
    // A slice that stops before the crawl ends defers the scan, so the
    // tenant's shared caches see no lookup until its final slice.
    let config = base_builder().scan_workers(2).build().expect("config");
    let caches = Arc::new(ScanCaches::new());
    let dir = scratch_dir("slice");
    let slice = Study::advance_checkpointed(&config, &dir, 1, Some(Arc::clone(&caches)))
        .expect("slice checkpoint I/O");
    assert!(slice.is_none(), "one round must not finish the crawl");
    for (group, stats) in caches.stats() {
        assert_eq!(stats.lookups, 0, "{group}: an unfinished slice must not scan");
    }
    assert_eq!(caches.js_vm_stats().module_lookups, 0);

    let done = loop {
        let slice = Study::advance_checkpointed(&config, &dir, 1, Some(Arc::clone(&caches)));
        if let Some(study) = slice.expect("slice checkpoint I/O") {
            break study;
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    assert!(caches.stats().iter().any(|(_, s)| s.lookups > 0), "the final slice scans");
    let baseline = Study::run(&base_builder().scan_workers(1).build().expect("config"));
    assert_eq!(done.outcomes, baseline.outcomes);
    assert_eq!(fingerprint(&done), fingerprint(&baseline));
}

#[test]
fn small_corpus_resolves_to_serial_regardless_of_requested_workers() {
    // The crawl_scale 0.001-class corpora sit far below the serial
    // threshold; requesting 8 workers must not spawn 8 threads (the
    // regression where parallel scans of tiny corpora ran slower than
    // serial). `scan.workers` reports the plan actually executed.
    let threshold = malware_slums::scanpipe::DEFAULT_SERIAL_SCAN_THRESHOLD;
    let config = base_builder()
        .scan_workers(8)
        .serial_scan_threshold(threshold)
        .build()
        .expect("config");
    let study = Study::run(&config);
    let crawled = study.metrics().counter("crawl.pages");
    assert!((crawled as usize) < threshold, "test corpus must sit below the serial threshold");
    assert_eq!(study.metrics().gauge("scan.workers"), 1);

    // Lowering the threshold re-enables parallelism (clamped to the
    // host), without changing results.
    let parallel = Study::run(&base_builder().scan_workers(8).build().expect("config"));
    assert!(parallel.metrics().gauge("scan.workers") >= 1);
    assert_eq!(fingerprint(&parallel), fingerprint(&study));
}

#[test]
fn builder_rejects_invalid_pipeline_combinations() {
    assert!(base_builder().scan_chunk(0).build().is_err(), "zero chunk must be rejected");
    assert!(base_builder().checkpoint_every(0).build().is_err(), "zero interval rejected");
    // Checkpointing and streaming are one pipeline: any chunk size
    // combines with any checkpoint cadence.
    assert!(base_builder().checkpoint_every(64).scan_chunk(128).build().is_ok());
}
