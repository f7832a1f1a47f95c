//! # oracle-strategies — dynamic load distribution schemes
//!
//! The two competitors of the paper plus the extensions its conclusion asks
//! for and a set of context baselines:
//!
//! * [`cwn::Cwn`] — Contracting Within a Neighborhood (Kale): every new goal
//!   is sent along the steepest load gradient to a local minimum within
//!   `radius` hops of its source, after travelling at least `horizon` hops.
//! * [`gradient::GradientModel`] — the Gradient Model (Lin & Keller): goals
//!   stay local; an asynchronous per-PE process propagates *proximity* (the
//!   guessed distance to the nearest idle PE) and abundant PEs push work
//!   down the proximity gradient.
//! * [`acwn::AdaptiveCwn`] — CWN plus the paper's §5 future-work list:
//!   saturation control, a future-commitments load metric, and a
//!   well-controlled redistribution component.
//! * [`stealing::WorkStealing`] — receiver-initiated neighbour stealing, the
//!   scheme that eventually displaced both competitors; included for
//!   context.
//! * [`diffusion::Diffusion`] — classical nearest-neighbour load diffusion,
//!   a third period scheme between CWN's push and GM's trickle.
//! * [`global::GlobalRandom`] — uniform random placement over the whole
//!   machine: the "global communication" regime §2.1 argues is unscalable.
//! * [`threshold::ThresholdProbe`] — sender-initiated threshold probing
//!   (Eager, Lazowska & Zahorjan 1986): ask before you ship.
//! * [`baselines`] — keep-local, random-walk, round-robin scatter: the
//!   sanity floor and ceiling for any placement policy.

pub mod acwn;
pub mod baselines;
pub mod cwn;
pub mod diffusion;
pub mod global;
pub mod gradient;
pub mod spec;
pub mod stealing;
pub mod threshold;

pub use acwn::AdaptiveCwn;
pub use baselines::{KeepLocal, RandomWalk, RoundRobin};
pub use cwn::Cwn;
pub use diffusion::Diffusion;
pub use global::GlobalRandom;
pub use gradient::GradientModel;
pub use spec::StrategySpec;
pub use stealing::WorkStealing;
pub use threshold::ThresholdProbe;

#[cfg(test)]
mod resume_tests {
    //! Checkpoint/resume equivalence for every shipped strategy: pausing a
    //! run mid-flight, snapshotting the machine (including the strategy's
    //! private state via [`oracle_model::Strategy::snapshot_state`]), and
    //! resuming in a fresh machine must produce a bit-identical final
    //! report.

    use crate::testutil::Fib;
    use crate::*;
    use oracle_model::{CostModel, Machine, MachineConfig, Strategy};
    use oracle_topo::mesh::mesh2d;

    fn run_to_end(mut m: Machine) -> String {
        if let Err(e) = m.advance_until(None) {
            return format!("Err({e:?})");
        }
        match m.finish() {
            Ok((report, _)) => format!("{report:?}"),
            Err(e) => format!("Err({e:?})"),
        }
    }

    fn assert_resume_identical(mk: &dyn Fn() -> Box<dyn Strategy>, config: &MachineConfig) {
        let machine = || {
            Machine::new(
                mesh2d(4, 4, false),
                Box::new(Fib(13)),
                mk(),
                CostModel::paper_default(),
                config.clone(),
            )
            .expect("machine config")
        };

        let mut baseline = machine();
        baseline.begin();
        let expected = run_to_end(baseline);

        let mut paused = machine();
        paused.begin();
        paused.advance_until(Some(400)).expect("run to pause point");
        let blob = paused.snapshot_bytes();
        assert_eq!(run_to_end(paused), expected, "continued run diverged");

        let mut resumed = machine();
        resumed
            .restore_bytes(&blob)
            .expect("snapshot should restore");
        assert_eq!(run_to_end(resumed), expected, "resumed run diverged");
    }

    #[test]
    fn cwn_resumes_bit_identically() {
        assert_resume_identical(
            &|| Box::new(Cwn::with(6, 2)),
            &MachineConfig::default().with_seed(23),
        );
    }

    #[test]
    fn gradient_resumes_bit_identically() {
        assert_resume_identical(
            &|| Box::new(GradientModel::new(gradient::GradientParams::paper_grid())),
            &MachineConfig::default().with_seed(23),
        );
    }

    #[test]
    fn acwn_resumes_bit_identically() {
        assert_resume_identical(
            &|| Box::new(AdaptiveCwn::new(acwn::AcwnParams::paper_grid())),
            &MachineConfig {
                future_commitment_weight: 1,
                ..MachineConfig::default().with_seed(23)
            },
        );
    }

    #[test]
    fn stealing_resumes_bit_identically() {
        assert_resume_identical(
            &|| Box::new(WorkStealing::new(25)),
            &MachineConfig::default().with_seed(23),
        );
    }

    #[test]
    fn threshold_resumes_bit_identically() {
        assert_resume_identical(
            &|| Box::new(ThresholdProbe::new(threshold::ThresholdParams::default())),
            &MachineConfig::default().with_seed(23),
        );
    }

    #[test]
    fn global_random_resumes_bit_identically() {
        assert_resume_identical(
            &|| Box::new(GlobalRandom::new()),
            &MachineConfig::default().with_seed(23),
        );
    }

    #[test]
    fn diffusion_resumes_bit_identically() {
        assert_resume_identical(
            &|| Box::new(Diffusion::new(diffusion::DiffusionParams::default())),
            &MachineConfig::default().with_seed(23),
        );
    }

    #[test]
    fn baselines_resume_bit_identically() {
        let cfg = MachineConfig::default().with_seed(23);
        assert_resume_identical(&|| Box::new(KeepLocal), &cfg);
        assert_resume_identical(&|| Box::new(RandomWalk::new(3)), &cfg);
        assert_resume_identical(&|| Box::new(RoundRobin::new()), &cfg);
    }

    #[test]
    fn audited_resume_stays_clean_and_identical() {
        // Auditor on through pause, snapshot, and resume: still
        // bit-identical, and no invariant fires (threshold probing parks
        // goals, exercising the `goals_held` term of task conservation).
        assert_resume_identical(
            &|| Box::new(ThresholdProbe::new(threshold::ThresholdParams::default())),
            &MachineConfig {
                audit_every: 16,
                ..MachineConfig::default().with_seed(23)
            },
        );
    }

    #[test]
    fn snapshot_refuses_wrong_strategy_or_garbage() {
        let machine = |strategy: Box<dyn Strategy>| {
            Machine::new(
                mesh2d(4, 4, false),
                Box::new(Fib(10)),
                strategy,
                CostModel::paper_default(),
                MachineConfig::default(),
            )
            .expect("machine config")
        };
        let mut stealing = machine(Box::new(WorkStealing::new(25)));
        stealing.begin();
        let blob = stealing.snapshot_bytes();
        let mut gm = machine(Box::new(GradientModel::new(
            gradient::GradientParams::paper_grid(),
        )));
        let err = gm.restore_bytes(&blob).unwrap_err().to_string();
        assert!(
            err.contains("work-stealing") && err.contains("gradient"),
            "{err}"
        );

        let mut truncated = WorkStealing::new(25).snapshot_state();
        truncated.truncate(3);
        let err = WorkStealing::new(25)
            .restore_state(&truncated, gm.core())
            .unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared harness for strategy unit tests: run a workload on a small
    //! topology under a given strategy and return the report.

    use oracle_model::{
        CostModel, Expansion, Machine, MachineConfig, Program, Report, Strategy, TaskSpec,
    };
    use oracle_topo::Topology;

    /// fib(n) as a local test program (avoids a dev-dependency cycle on
    /// oracle-workloads).
    pub struct Fib(pub i64);

    impl Program for Fib {
        fn name(&self) -> String {
            format!("fib({})", self.0)
        }
        fn root(&self) -> TaskSpec {
            TaskSpec::new(self.0, 0)
        }
        fn expand(&self, spec: &TaskSpec) -> Expansion {
            if spec.a < 2 {
                Expansion::Leaf(spec.a)
            } else {
                Expansion::Split([spec.child(spec.a - 1, 0), spec.child(spec.a - 2, 0)].into())
            }
        }
        fn combine(&self, _spec: &TaskSpec, acc: i64, child: i64) -> i64 {
            acc + child
        }
    }

    /// Exact fib for assertions.
    pub fn fib(n: i64) -> i64 {
        let (mut a, mut b) = (0i64, 1i64);
        for _ in 0..n {
            (a, b) = (b, a + b);
        }
        a
    }

    /// Run `fib(n)` on `topo` under `strategy` with paper costs.
    pub fn run_fib(
        topo: Topology,
        strategy: Box<dyn Strategy>,
        n: i64,
        mut config: MachineConfig,
    ) -> Report {
        // Strategy tests assert on work placement, which lives in the
        // (now opt-in) per-PE report vectors.
        config.per_pe_metrics = true;
        let machine = Machine::new(
            topo,
            Box::new(Fib(n)),
            strategy,
            CostModel::paper_default(),
            config,
        )
        .expect("machine config");
        let report = machine.run().expect("simulation should complete");
        assert_eq!(report.result, fib(n), "simulated fib({n}) wrong");
        report.check_invariants();
        report
    }
}
