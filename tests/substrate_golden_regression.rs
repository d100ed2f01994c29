//! Pins the ad-network and torrent substrates byte-identical to their
//! output at the default seed, the way `exchange_golden_regression.rs`
//! pins the exchange substrate.
//!
//! The FNV-1a hashes below were captured at seed 2016, crawl_scale
//! 0.0005, domain_scale 0.03 — the same shape as the `scripts/ci.sh`
//! golden runs (`scripts/golden/{adnet,torrent}_artifacts.golden.txt`).
//! Any drift means a change to rotation, crawling, scanning or
//! rendering moved a byte of these substrates' output.

use std::sync::OnceLock;

use malware_slums::artifact::ArtifactKind;
use malware_slums::report::Render;
use malware_slums::study::{Study, StudyConfig};
use malware_slums::substrate::Substrate;

/// FNV-1a, 64-bit. Inline so the pin depends on nothing it guards.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn run(substrate: Substrate) -> Study {
    let config = StudyConfig::builder()
        .seed(2016)
        .crawl_scale(0.0005)
        .domain_scale(0.03)
        .substrate(substrate)
        .build()
        .expect("valid config");
    Study::run(&config)
}

fn adnet() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| run(Substrate::AdNet))
}

fn torrent() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| run(Substrate::Torrent))
}

/// The artifact kinds the golden files hold, in `repro` order.
const KINDS: [ArtifactKind; 10] = [
    ArtifactKind::Table1,
    ArtifactKind::Table2,
    ArtifactKind::Table3,
    ArtifactKind::Table4,
    ArtifactKind::Fig2,
    ArtifactKind::Fig3,
    ArtifactKind::Fig4,
    ArtifactKind::Fig5,
    ArtifactKind::Fig6,
    ArtifactKind::Fig7,
];

fn corpus_fnv(study: &Study) -> u64 {
    fnv1a(study.store.to_jsonl().expect("serializable corpus").as_bytes())
}

fn artifacts_fnv(study: &Study) -> u64 {
    let mut rendered = String::new();
    for kind in KINDS {
        rendered.push_str(&study.artifact(kind).render());
        rendered.push('\n');
    }
    fnv1a(rendered.as_bytes())
}

const ADNET_CORPUS_FNV: u64 = 0xb90b_4974_e42f_634e;
const ADNET_ARTIFACTS_FNV: u64 = 0x48dd_6ecb_9128_452b;
const TORRENT_CORPUS_FNV: u64 = 0xe5d1_cd2c_35d5_25f3;
const TORRENT_ARTIFACTS_FNV: u64 = 0xa8ed_26f0_a7bf_1dd4;

#[test]
fn adnet_corpus_matches_golden() {
    let got = corpus_fnv(adnet());
    assert_eq!(got, ADNET_CORPUS_FNV, "adnet corpus drifted from golden: fnv1a = {got:#018x}");
}

#[test]
fn adnet_artifacts_match_golden() {
    let got = artifacts_fnv(adnet());
    assert_eq!(got, ADNET_ARTIFACTS_FNV, "adnet artifacts drifted from golden: fnv1a = {got:#018x}");
}

#[test]
fn torrent_corpus_matches_golden() {
    let got = corpus_fnv(torrent());
    assert_eq!(got, TORRENT_CORPUS_FNV, "torrent corpus drifted from golden: fnv1a = {got:#018x}");
}

#[test]
fn torrent_artifacts_match_golden() {
    let got = artifacts_fnv(torrent());
    assert_eq!(
        got, TORRENT_ARTIFACTS_FNV,
        "torrent artifacts drifted from golden: fnv1a = {got:#018x}"
    );
}
