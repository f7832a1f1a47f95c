//! Robustness guarantees, end to end: checkpoint → resume is bit-identical
//! for every strategy — including under active fault plans with the
//! invariant auditor watching — and chaos sweeps are deterministic across
//! thread counts.

use std::path::PathBuf;

use oracle::checkpoint::{resume_run, run_with_checkpoints, write_checkpoint, Checkpoint};
use oracle::prelude::*;
use oracle_model::{FaultPlan, RecoveryParams};

use proptest::prelude::*;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oracle-robustness-{tag}-{}", std::process::id()))
}

fn base_config(strategy: StrategySpec, seed: u64) -> oracle::builder::RunConfig {
    let mut machine = MachineConfig::default().with_seed(seed);
    machine.audit_every = 64;
    SimulationBuilder::new()
        .topology(TopologySpec::grid(4))
        .strategy(strategy)
        .workload(WorkloadSpec::fib(12))
        .machine(machine)
        .config()
}

/// The outcome of a run as a comparable string: a report's full `Debug`
/// rendering, or the error's (fault plans may legitimately end a run in
/// `GoalsLost` — resume must reproduce even that, bit for bit).
fn outcome(config: &oracle::builder::RunConfig) -> String {
    match config.run() {
        Ok(report) => format!("{report:?}"),
        Err(e) => format!("Err({e:?})"),
    }
}

/// Checkpoint `config` every `every` sim-time units into a scratch dir,
/// then require the checkpointed run and the resume of *every* checkpoint
/// to match the uninterrupted run exactly.
fn assert_checkpoint_equivalence(config: &oracle::builder::RunConfig, every: u64, tag: &str) {
    let expected = outcome(config);
    let dir = scratch_dir(tag);
    match run_with_checkpoints(config, every, &dir) {
        Ok(out) => {
            assert_eq!(
                format!("{:?}", out.report),
                expected,
                "{tag}: checkpointed run diverged from plain run"
            );
            assert!(!out.checkpoints.is_empty(), "{tag}: no checkpoints written");
            for path in &out.checkpoints {
                let (resumed_config, report) =
                    resume_run(path).unwrap_or_else(|e| panic!("{tag}: resume {path:?}: {e}"));
                assert_eq!(&resumed_config, config, "{tag}: config did not round-trip");
                assert_eq!(
                    format!("{report:?}"),
                    expected,
                    "{tag}: resume from {path:?} diverged"
                );
            }
        }
        Err(e) => {
            // The run failed (legitimately, under a fault plan) — every
            // checkpoint written before the failure must still resume to
            // the identical failure.
            let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
                .map(|rd| rd.map(|e| e.unwrap().path()).collect())
                .unwrap_or_default();
            paths.sort();
            assert_eq!(
                format!("Err({:?})", unwrap_sim(e)),
                expected,
                "{tag}: checkpointed run failed differently from plain run"
            );
            for path in &paths {
                let checkpoint = Checkpoint::read(path).expect("readable checkpoint");
                let machine = checkpoint.resume().expect("resumable checkpoint");
                let result = machine.run();
                assert_eq!(
                    format!("Err({:?})", result.expect_err("plain run also failed")),
                    expected,
                    "{tag}: resume from {path:?} failed differently"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn unwrap_sim(e: oracle::checkpoint::CheckpointError) -> SimError {
    match e {
        oracle::checkpoint::CheckpointError::Sim(e) => e,
        other => panic!("expected a simulation error, got {other}"),
    }
}

#[test]
fn every_strategy_resumes_identically_on_both_backends() {
    let strategies = [
        StrategySpec::Cwn {
            radius: 4,
            horizon: 1,
        },
        StrategySpec::Gradient {
            low_water_mark: 1,
            high_water_mark: 2,
            interval: 20,
        },
        StrategySpec::AdaptiveCwn {
            radius: 4,
            horizon: 1,
            saturation: 3,
            redistribute: true,
        },
        StrategySpec::WorkStealing { retry_delay: 25 },
        StrategySpec::ThresholdProbe {
            threshold: 2,
            probe_limit: 3,
        },
        StrategySpec::Diffusion {
            interval: 20,
            threshold: 2,
            max_per_cycle: 2,
        },
        StrategySpec::GlobalRandom,
        StrategySpec::RoundRobin,
        StrategySpec::RandomWalk { hops: 3 },
        StrategySpec::Local,
    ];
    for strategy in strategies {
        let config = base_config(strategy, 17);
        let tag = strategy.to_string().replace([':', 'x'], "_");
        assert_checkpoint_equivalence(&config, 350, &tag);
    }
}

#[test]
fn resume_is_identical_under_active_fault_plans() {
    let plan = FaultPlan::none()
        .crash(5, 600)
        .link_down(3, 200, 700)
        .with_loss(0.01)
        .with_recovery(RecoveryParams::default());
    let mut config = base_config(
        StrategySpec::Cwn {
            radius: 4,
            horizon: 1,
        },
        29,
    );
    config.machine.fault_plan = plan;
    assert_checkpoint_equivalence(&config, 400, "faults");
}

#[test]
fn checkpoint_files_survive_process_style_reload() {
    // Write a checkpoint, forget everything, and reconstruct purely from
    // the file — the embedded config must carry all run parameters.
    let config = base_config(StrategySpec::WorkStealing { retry_delay: 25 }, 31);
    let expected = outcome(&config);
    let mut machine = config.machine().unwrap();
    machine.begin();
    machine.advance_until(Some(500)).unwrap();
    let dir = scratch_dir("reload");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mid.oracle");
    write_checkpoint(&path, &config, &mut machine).unwrap();
    drop(machine);
    drop(config);

    let (config, report) = resume_run(&path).expect("cold resume");
    assert_eq!(config.machine.seed, 31);
    assert_eq!(format!("{report:?}"), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpointing at a *random* cadence never changes the final report,
    /// for a strategy with nontrivial private state.
    #[test]
    fn random_checkpoint_cadences_resume_identically(
        every in 37u64..900,
        seed in 1u64..500,
    ) {
        let config = base_config(
            StrategySpec::ThresholdProbe { threshold: 2, probe_limit: 3 },
            seed,
        );
        let expected = outcome(&config);
        let dir = scratch_dir(&format!("prop-{every}-{seed}"));
        let out = run_with_checkpoints(&config, every, &dir)
            .expect("fault-free run completes");
        prop_assert_eq!(&format!("{:?}", out.report), &expected);
        for path in &out.checkpoints {
            let (_, report) = resume_run(path).expect("resume");
            prop_assert_eq!(&format!("{report:?}"), &expected, "resume from {:?}", path);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn chaos_sweeps_are_deterministic_and_contained() {
    use oracle::chaos::{run_chaos, ChaosConfig};
    let config = ChaosConfig {
        cases: 8,
        seed: 13,
        threads: 2,
        ..ChaosConfig::default()
    };
    let b = run_chaos(&ChaosConfig {
        threads: 4,
        ..config
    });
    let a = run_chaos(&config);
    let lines = |r: &oracle::chaos::ChaosReport| {
        r.outcomes
            .iter()
            .map(|(c, o)| format!("{} -> {}", c.suite_line(), o.kind()))
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&a), lines(&b), "thread count changed chaos outcomes");
    assert!(
        a.failures.is_empty(),
        "chaos sweep found failures: {:?}",
        a.failures
            .iter()
            .map(|f| f.reproducer())
            .collect::<Vec<_>>()
    );
}
