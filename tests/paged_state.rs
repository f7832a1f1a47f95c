//! Large machines whose per-PE and per-channel state lives in the paged
//! slab: a run materializes only the pages it touches, and a snapshot of
//! such a machine — encoded page by page — restores into a fresh machine
//! and continues bit-identically.
//!
//! The dense-versus-sparse comparisons that used to live here went with
//! the dense representation. The per-cell results they protected are
//! pinned by the goldens instead (`tests/golden_report.rs`), including
//! 90,000-PE cells rendered before the paged store existed.

use oracle::builder::RunConfig;
use oracle::prelude::*;
use oracle_model::sparse::PAGE_SIZE;
use oracle_model::LoadInfoMode;

/// `torus:300 / fib:15 / cwn:9x1` with load words piggy-backed only:
/// 90,000 PEs, a few hundred of them touched.
fn large_torus(seed: u64) -> RunConfig {
    let mut config = SimulationBuilder::new()
        .topology("torus:300".parse().unwrap())
        .strategy("cwn:9x1".parse().unwrap())
        .workload(WorkloadSpec::fib(15))
        .seed(seed)
        .profile(true)
        .config();
    config.machine.load_info = LoadInfoMode::Piggyback { period: 0 };
    config
}

/// The report without its wall-clock profile (the materialized-state
/// counts it carries are compared separately).
fn render(mut report: Report) -> String {
    report.profile = None;
    format!("{report:#?}")
}

/// Run `config` uninterrupted, then again paused at half the completion
/// time, snapshotted, and restored into a fresh machine. Both must report
/// the same thing and materialize the same pages.
fn assert_resume_matches(config: &RunConfig) -> usize {
    let straight = config.run().expect("uninterrupted run");
    let state = straight.profile.as_ref().unwrap().state.clone();
    let full = render(straight.clone());

    let mut first = config.machine().unwrap();
    first.begin();
    let paused = first
        .advance_until(Some(straight.completion_time / 2))
        .unwrap();
    assert!(!paused, "the pause point lies before completion");
    let bytes = first.snapshot_bytes();

    let mut resumed = config.machine().unwrap();
    resumed.restore_bytes(&bytes).unwrap();
    assert!(resumed.advance_until(None).unwrap());
    let (report, _) = resumed.finish().unwrap();
    assert_eq!(report.profile.as_ref().unwrap().state, state);
    assert!(
        render(report) == full,
        "snapshot resume diverged from the uninterrupted run"
    );
    bytes.len()
}

#[test]
fn large_machine_snapshot_resumes_bit_identically() {
    for seed in [1, 7] {
        let config = large_torus(seed);
        let bytes = assert_resume_matches(&config);
        // Page-by-page encoding: the blob is nowhere near one record per
        // PE of the 90,000-PE machine.
        assert!(bytes < 4_000_000, "snapshot of {bytes} bytes");
    }
}

#[test]
fn fully_touched_machine_snapshot_resumes_bit_identically() {
    // Periodic load broadcasts touch every PE and channel each round, so
    // every page is materialized and encoded.
    let config = SimulationBuilder::new()
        .topology("torus:40".parse().unwrap())
        .strategy(StrategySpec::cwn_paper(true))
        .workload(WorkloadSpec::fib(13))
        .seed(3)
        .profile(true)
        .config();
    assert_resume_matches(&config);
}

#[test]
fn a_large_run_materializes_only_the_pages_it_touches() {
    let report = large_torus(1).run().unwrap();
    let state = &report.profile.as_ref().unwrap().state;
    let (pe, channel) = (&state[0], &state[1]);
    assert_eq!((pe.name.as_str(), channel.name.as_str()), ("pe", "channel"));
    assert_eq!((pe.slots_total, channel.slots_total), (90_000, 180_000));
    let page = PAGE_SIZE as u64;
    assert_eq!(pe.pages_total, 90_000u64.div_ceil(page));
    assert!(pe.pages >= 1 && pe.pages * 4 < pe.pages_total, "{pe:?}");
    assert!(channel.pages * 4 < channel.pages_total, "{channel:?}");
    assert!(pe.slots <= pe.pages * page);
    // Every PE that executed a goal sits in a materialized page.
    assert!(report.top_pes.iter().all(|t| t.goals > 0));
}
