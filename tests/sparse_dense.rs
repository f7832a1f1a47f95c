//! Sparse-mode / dense-mode equivalence: the two per-PE/per-channel state
//! representations ([`StateMode::Sparse`] vs [`StateMode::Dense`]) must
//! produce **bit-identical** `Report`s — completion time, utilization
//! quantiles, traffic counters, hop histograms, top-K tables, float
//! folds, all of it — on every cell and under both event-queue backends.
//!
//! This is the load-bearing guarantee of the O(active)-memory refactor:
//! sparse mode is a *representation* change, never a *results* change. The
//! reductions walk materialized slots in ascending id order and every
//! absent slot contributes only identity terms (`+0.0`, merging an empty
//! `OnlineStats`), so skipping the untouched slots cannot perturb a bit
//! (see `model/src/sparse.rs` for the argument; these tests pin it).

use oracle::prelude::*;
use oracle_model::QueueBackend;
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

/// Render a run's full report under the given state mode. The audit runs
/// too: the invariant auditor must accept both representations.
fn render(
    build: &dyn Fn() -> SimulationBuilder,
    mode: StateMode,
    backend: QueueBackend,
) -> String {
    let mut config = build()
        .state_mode(mode)
        .queue_backend(backend)
        .coprocessor(false)
        .config();
    config.machine.audit_every = 100;
    let report = config
        .run()
        .unwrap_or_else(|e| panic!("{mode:?}/{backend:?} failed: {e:?}"));
    report.check_invariants();
    format!("{report:#?}")
}

/// Sparse and dense must render identically under both queue backends.
fn assert_sparse_matches_dense(name: &str, build: impl Fn() -> SimulationBuilder) {
    for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
        let dense = render(&build, StateMode::Dense, backend);
        let sparse = render(&build, StateMode::Sparse, backend);
        assert!(
            sparse == dense,
            "{name} under {backend:?}: sparse state diverged from dense\n\
             --- dense ---\n{dense}\n--- sparse ---\n{sparse}"
        );
    }
}

/// The existing grid/torus/dlm golden cells (≤ 400 PEs), both paper
/// strategies, with the per-PE vectors *on* so the dense-derived vectors
/// themselves are compared, not just the aggregates.
#[test]
fn paper_cells_identical_across_state_modes() {
    let cells: &[(&str, TopologySpec)] = &[
        ("grid10", TopologySpec::grid(10)),
        (
            "torus8",
            TopologySpec::Mesh2D {
                width: 8,
                height: 8,
                wraparound: true,
            },
        ),
        ("dlm10", TopologySpec::dlm(10)),
        ("grid20", TopologySpec::grid(20)),
    ];
    for &(tag, topology) in cells {
        for (strategy, stag) in [
            (StrategySpec::cwn_paper(true), "cwn"),
            (StrategySpec::gradient_paper(true), "gm"),
        ] {
            assert_sparse_matches_dense(&format!("fib14/{tag}/{stag}"), || {
                SimulationBuilder::new()
                    .topology(topology)
                    .strategy(strategy)
                    .workload(WorkloadSpec::fib(14))
                    .per_pe_metrics(true)
                    .seed(21)
            });
        }
    }
}

/// Randomized sweep: topology (grid/torus/dlm ≤ 400 PEs) × strategy ×
/// workload × seed. Fewer cases than the fixed sweep is deep, but each one
/// still checks both backends and both engines.
#[test]
fn proptest_cells_identical_across_state_modes() {
    fn topo() -> impl proptest::strategy::Strategy<Value = TopologySpec> {
        prop_oneof![
            (2usize..15, 2usize..15, any::<bool>()).prop_map(|(w, h, wrap)| {
                TopologySpec::Mesh2D {
                    width: w,
                    height: h,
                    wraparound: wrap,
                }
            }),
            (4usize..12).prop_map(TopologySpec::dlm),
        ]
    }
    fn strat() -> impl proptest::strategy::Strategy<Value = StrategySpec> {
        prop_oneof![
            (2u32..6, 0u32..2).prop_map(|(radius, horizon)| StrategySpec::Cwn {
                radius,
                horizon: horizon.min(radius - 1),
            }),
            (1u32..3, 0u32..2, 10u64..30).prop_map(|(lwm, extra, interval)| {
                StrategySpec::Gradient {
                    low_water_mark: lwm,
                    high_water_mark: lwm + extra,
                    interval,
                }
            }),
        ]
    }
    let mut runner = proptest::test_runner::TestRunner::new(proptest::test_runner::Config {
        cases: 12,
        ..proptest::test_runner::Config::default()
    });
    runner
        .run(
            &(topo(), strat(), 10i64..14, 1u64..1000),
            |(topology, strategy, fib, seed)| {
                assert_sparse_matches_dense(&format!("{topology}/{strategy}/fib{fib}/s{seed}"), || {
                    SimulationBuilder::new()
                        .topology(topology)
                        .strategy(strategy)
                        .workload(WorkloadSpec::fib(fib))
                        .seed(seed)
                });
                Ok(())
            },
        )
        .unwrap();
}

/// Snapshot round-trip across modes: a sparse machine's v5 snapshot
/// restores into a fresh sparse machine and continues bit-identically
/// (the codec encodes only materialized slots, so this exercises the
/// sparse encode/decode paths end to end).
#[test]
fn sparse_snapshot_resumes_bit_identically() {
    let build = || {
        SimulationBuilder::new()
            .topology(TopologySpec::grid(10))
            .strategy(StrategySpec::cwn_paper(true))
            .workload(WorkloadSpec::fib(15))
            .state_mode(StateMode::Sparse)
            .seed(7)
            .config()
    };
    let mut straight = build().machine().unwrap();
    straight.begin().unwrap();
    let done = straight.finish().unwrap();
    let full = format!("{:#?}", straight.report(done));

    let mut first = build().machine().unwrap();
    first.begin().unwrap();
    first.advance_until(done / 2).unwrap();
    let bytes = first.snapshot_bytes();

    let mut resumed = build().machine().unwrap();
    resumed.restore_bytes(&bytes).unwrap();
    let done2 = resumed.finish().unwrap();
    assert_eq!(done, done2, "resumed run finished at a different time");
    let report = format!("{:#?}", resumed.report(done2));
    assert!(
        report == full,
        "sparse snapshot resume diverged from the uninterrupted run"
    );
}
