//! Golden-report guard for the hot-path optimizations.
//!
//! Every performance change to the event loop must leave simulated results
//! bit-identical. These tests pin the full `Debug` rendering of `Report`
//! (completion times, utilizations — including the float series — hop
//! histograms, traffic and fault counters) for a spread of configurations
//! that together exercise every optimized path: piggyback snooping,
//! broadcast fan-out, fault detours, the recovery sweep, and per-PE series
//! collection.
//!
//! The goldens under `tests/golden/` were generated on the pre-optimization
//! code. Regenerate (only when an *intentional* behaviour change lands)
//! with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release --test golden_report
//! ```

use std::path::PathBuf;

use oracle::prelude::*;
use oracle_model::{FaultPlan, RecoveryParams};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn check(name: &str, mut config: oracle::builder::RunConfig) {
    // Goldens pin the full per-PE vectors too (opt-in since the streaming
    // aggregates became the default report shape).
    config.machine.per_pe_metrics = true;
    check_report(name, config);
}

fn check_report(name: &str, mut config: oracle::builder::RunConfig) {
    // The invariant auditor is pure observation: running every golden with
    // it enabled both proves these configurations audit clean and pins the
    // guarantee that auditing never perturbs simulated results.
    config.machine.audit_every = 50;
    let report = config.run().expect(name);
    let rendered = format!("{report:#?}\n");
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert!(
        rendered == golden,
        "{name}: Report diverged from golden {} — the optimization changed \
         simulated results. If the change is intentional, regenerate with \
         UPDATE_GOLDEN=1.",
        path.display()
    );
}

#[test]
fn golden_cwn_grid_fib15_with_series() {
    check(
        "cwn_grid_fib15_series",
        SimulationBuilder::new()
            .topology(TopologySpec::grid(10))
            .strategy(StrategySpec::cwn_paper(true))
            .workload(WorkloadSpec::fib(15))
            .per_pe_series(true)
            .seed(1)
            .config(),
    );
}

#[test]
fn golden_cwn_dlm_fib15() {
    check(
        "cwn_dlm_fib15",
        SimulationBuilder::new()
            .topology(TopologySpec::dlm(10))
            .strategy(StrategySpec::cwn_paper(false))
            .workload(WorkloadSpec::fib(15))
            .seed(2)
            .config(),
    );
}

#[test]
fn golden_gm_grid_dc987() {
    check(
        "gm_grid_dc987",
        SimulationBuilder::new()
            .topology(TopologySpec::grid(5))
            .strategy(StrategySpec::gradient_paper(true))
            .workload(WorkloadSpec::dc(987))
            .seed(3)
            .config(),
    );
}

#[test]
fn golden_cwn_grid_fib12_faults_recovery() {
    // Crash + link window + slowdown + loss + recovery: covers the fault
    // detour routing, the crash sweep, respawns, and ack timers.
    let plan = FaultPlan::none()
        .crash(7, 400)
        .link_down(3, 200, 900)
        .slow(2, 100, 600, 3)
        .with_loss(0.02)
        .with_recovery(RecoveryParams::default());
    check(
        "cwn_grid_fib12_faults",
        SimulationBuilder::new()
            .topology(TopologySpec::grid(5))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(12))
            .fault_plan(plan)
            .seed(4)
            .config(),
    );
}

#[test]
fn golden_workstealing_softwarerouting_fib12() {
    // No co-processor (software routing) + a stealing strategy: covers the
    // control-message broadcast path and the non-coprocessor arrival costs.
    let mut machine = oracle_model::MachineConfig::default().with_seed(5);
    machine.coprocessor = false;
    check(
        "ws_grid_fib12_softroute",
        SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::WorkStealing { retry_delay: 40 })
            .workload(WorkloadSpec::fib(12))
            .machine(machine)
            .config(),
    );
}

#[test]
fn golden_cwn_torus300_fib12_piggyback_only() {
    // 90,000 PEs with load words piggy-backed only: a run that touches a
    // few hundred PEs of a large machine. Pins the streaming aggregates
    // (utilization quantiles, top-K table, imbalance CV) over a machine
    // whose per-PE state is mostly never materialized; the per-PE vectors
    // stay off, as in the default report shape.
    let mut machine = oracle_model::MachineConfig::default().with_seed(1);
    machine.load_info = oracle_model::LoadInfoMode::Piggyback { period: 0 };
    check_report(
        "cwn_torus300_fib12_piggyback",
        SimulationBuilder::new()
            .topology("torus:300".parse().unwrap())
            .strategy("cwn:9x1".parse().unwrap())
            .workload(WorkloadSpec::fib(12))
            .machine(machine)
            .config(),
    );
}

#[test]
fn golden_cwn_torus300_fib3_top_pes_fill() {
    // Fewer PEs execute goals than the top-K table holds: the remaining
    // entries are the lowest-id zero-goal PEs, most of them never touched.
    let mut machine = oracle_model::MachineConfig::default().with_seed(1);
    machine.load_info = oracle_model::LoadInfoMode::Piggyback { period: 0 };
    check_report(
        "cwn_torus300_fib3_top_pes_fill",
        SimulationBuilder::new()
            .topology("torus:300".parse().unwrap())
            .strategy("cwn:9x1".parse().unwrap())
            .workload(WorkloadSpec::fib(3))
            .machine(machine)
            .config(),
    );
}
