//! Determinism contract of the parallel scan: for any worker count, a
//! study's outcomes must be identical to the serial scan's — same
//! order, same verdicts, same reports. The scan engines are pure
//! hash-based functions of each record, and the shared caches only
//! memoize those pure computations, so splitting the record stream
//! across threads may never change a single bit of the result.

use std::sync::Arc;

use malware_slums::scanpipe::ScanCaches;
use malware_slums::study::{Study, StudyConfig};

fn config(seed: u64, scan_workers: usize) -> StudyConfig {
    StudyConfig::builder()
        .seed(seed)
        .crawl_scale(0.0003)
        .domain_scale(0.03)
        .scan_workers(scan_workers)
        // Honor every requested worker count, however small the corpus.
        .serial_scan_threshold(0)
        .build()
        .expect("valid config")
}

#[test]
fn parallel_scan_is_bit_identical_to_serial_for_all_worker_counts() {
    let serial = Study::run(&config(7100, 1));
    assert_eq!(serial.outcomes.len(), serial.store.len());
    for workers in [2usize, 4, 7] {
        let parallel = Study::run(&config(7100, workers));
        assert_eq!(parallel.outcomes, serial.outcomes, "{workers} workers diverged from serial");
    }
}

#[test]
fn warm_caches_do_not_change_outcomes() {
    // A second study over the same web, scanning through the first
    // one's caches, must hit them and still agree.
    let caches = Arc::new(ScanCaches::new());
    let run = |tag: &str| {
        let dir = std::env::temp_dir()
            .join(format!("slum-warm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let study =
            Study::advance_checkpointed(&config(7102, 4), &dir, u64::MAX, Some(Arc::clone(&caches)))
                .expect("checkpoint I/O")
                .expect("an unbounded slice finishes the study");
        std::fs::remove_dir_all(&dir).ok();
        study
    };
    let cold = run("cold");
    let hits_after_cold: u64 = caches.stats().iter().map(|(_, s)| s.hits).sum();
    assert!(caches.cached_urls() > 0, "scan must populate the feature cache");
    let warm = run("warm");
    let hits_after_warm: u64 = caches.stats().iter().map(|(_, s)| s.hits).sum();
    assert!(hits_after_warm > hits_after_cold, "the warm study must hit the caches");
    assert_eq!(warm.outcomes, cold.outcomes);
}

#[test]
fn study_outcomes_identical_across_worker_counts() {
    // The full study path: referral filtering, splicing of clean
    // outcomes for self/popular referrals, index alignment.
    let serial = Study::run(&config(31, 1));
    for workers in [2usize, 4, 7] {
        let parallel = Study::run(&config(31, workers));
        assert_eq!(
            parallel.outcomes, serial.outcomes,
            "study outcomes diverged at {workers} workers"
        );
        assert_eq!(parallel.store.len(), serial.store.len());
        assert_eq!(parallel.referrals, serial.referrals);
    }
}
