//! Error paths: the simulator must fail loudly and informatively, never
//! hang or silently produce a wrong answer.

use oracle::model::{Core, Expansion, GoalMsg, LoadInfoMode};
use oracle::model::{
    CostModel, FaultPlan, Machine, MachineConfig, Program, SimError, Strategy, TaskSpec,
};
use oracle::prelude::*;
use oracle::topo::PeId;

struct Fib(i64);

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

/// A buggy strategy that silently drops every fifth goal.
struct Leaky {
    count: u64,
}

impl Strategy for Leaky {
    fn name(&self) -> &'static str {
        "leaky"
    }
    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        self.count += 1;
        if !self.count.is_multiple_of(5) {
            core.accept_goal(pe, goal);
        }
    }
    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        core.accept_goal(pe, goal);
    }
}

fn machine_with(strategy: Box<dyn Strategy>, cfg: MachineConfig) -> Machine {
    Machine::new(
        TopologySpec::grid(4).build(),
        Box::new(Fib(10)),
        strategy,
        CostModel::paper_default(),
        cfg,
    )
    .unwrap()
}

#[test]
fn dropped_goals_are_reported_as_a_stall() {
    let cfg = MachineConfig {
        load_info: LoadInfoMode::Instant, // no periodic events to keep the clock alive
        ..MachineConfig::default()
    };
    let err = machine_with(Box::new(Leaky { count: 0 }), cfg)
        .run()
        .unwrap_err();
    match err {
        SimError::Stalled {
            goals_created,
            goals_executed,
            ..
        } => assert!(goals_executed < goals_created),
        other => panic!("expected a stall, got {other}"),
    }
}

/// A strategy that endlessly reschedules timers without making progress
/// must trip the progress watchdog rather than spin forever.
struct Spinner;

impl Strategy for Spinner {
    fn name(&self) -> &'static str {
        "spinner"
    }
    fn init(&mut self, core: &mut Core) {
        core.set_timer(PeId(0), 1, 0);
    }
    fn on_goal_created(&mut self, _: &mut Core, _: PeId, _: GoalMsg) {
        // Dropped: the only event source left is the timer below.
    }
    fn on_goal_message(&mut self, _: &mut Core, _: PeId, _: GoalMsg) {}
    fn on_timer(&mut self, core: &mut Core, pe: PeId, _tag: u64) {
        core.set_timer(pe, 1, 0);
    }
}

#[test]
fn watchdog_catches_event_churn_without_progress() {
    let cfg = MachineConfig {
        load_info: LoadInfoMode::Instant,
        ..MachineConfig::default()
    };
    let err = machine_with(Box::new(Spinner), cfg).run().unwrap_err();
    assert!(
        matches!(err, SimError::Stalled { .. } | SimError::EventLimit { .. }),
        "expected stall/limit, got {err}"
    );
}

/// The watchdog counts events, and a load-broadcast round is a burst of
/// events that says nothing about progress. On a 16x16 torus one round is
/// 256 `load_bcast` events plus 1,024 transfers, and the root goal's split
/// runs for 20 time units (about 640 broadcast events) before its first
/// child exists. A window smaller than that must not declare the run
/// stalled: the machine sizes its window so no round can fill it.
#[test]
fn broadcast_rounds_longer_than_the_watchdog_window_do_not_stall() {
    let cfg = MachineConfig {
        progress_window: 100,
        ..MachineConfig::default()
    };
    let report = SimulationBuilder::new()
        .topology(TopologySpec::Mesh2D {
            width: 16,
            height: 16,
            wraparound: true,
        })
        .strategy(StrategySpec::Cwn {
            radius: 9,
            horizon: 1,
        })
        .workload(WorkloadSpec::fib(10))
        .machine(cfg)
        .run()
        .expect("broadcast traffic is not a stall");
    assert_eq!(report.result, 55);
}

#[test]
fn event_limit_is_enforced() {
    let cfg = MachineConfig {
        max_events: 50,
        ..MachineConfig::default()
    };
    let err = SimulationBuilder::new()
        .topology(TopologySpec::grid(5))
        .workload(WorkloadSpec::fib(15))
        .machine(cfg)
        .run()
        .unwrap_err();
    assert!(matches!(err, SimError::EventLimit { events, .. } if events >= 50));
}

#[test]
fn invalid_configurations_are_rejected_up_front() {
    // Zero-cost operations.
    let mut costs = CostModel::paper_default();
    costs.split_cost = 0;
    let err = SimulationBuilder::new().costs(costs).run().unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");

    // Zero sampling interval.
    let cfg = MachineConfig {
        sampling_interval: 0,
        ..MachineConfig::default()
    };
    let err = SimulationBuilder::new().machine(cfg).run().unwrap_err();
    assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
}

#[test]
fn oversubscribed_bus_reports_stagnation() {
    // A 64-member single bus cannot carry 64 load broadcasts per period:
    // the backlog grows without bound and the watchdog must name the cause.
    let err = SimulationBuilder::new()
        .topology(TopologySpec::SingleBus { n: 64 })
        .strategy(StrategySpec::Cwn {
            radius: 5,
            horizon: 1,
        })
        .workload(WorkloadSpec::fib(15))
        .run()
        .unwrap_err();
    match err {
        SimError::Stagnation { backlog, .. } => assert!(backlog > 100),
        other => panic!("expected stagnation, got {other}"),
    }
}

#[test]
fn killing_a_loaded_pe_is_detected_as_a_stall() {
    // Kill PE 0 (the root's home, holding waiting tasks) mid-run with no
    // recovery layer: the lost work must surface as a fault-attributed
    // failure (the crash was planned), never as a wrong answer.
    let cfg = MachineConfig {
        fault_plan: FaultPlan::none().crash(0, 200),
        load_info: LoadInfoMode::Instant,
        ..MachineConfig::default()
    };
    let err = SimulationBuilder::new()
        .topology(TopologySpec::grid(4))
        .strategy(StrategySpec::Cwn {
            radius: 4,
            horizon: 1,
        })
        .workload(WorkloadSpec::fib(13))
        .machine(cfg)
        .run()
        .unwrap_err();
    match err {
        SimError::GoalsLost {
            expected_by_plan,
            goals_lost,
            ..
        } => {
            assert!(expected_by_plan, "the crash was injected by the plan");
            assert!(goals_lost > 0, "the dead PE held work");
        }
        other => panic!("expected fault-attributed goal loss, got {other}"),
    }
}

#[test]
fn killing_an_idle_pe_is_harmless() {
    // Keep-local leaves PE 15 idle forever; killing it must not affect the
    // result.
    let cfg = MachineConfig {
        fault_plan: FaultPlan::none().crash(15, 100),
        ..MachineConfig::default()
    };
    let r = SimulationBuilder::new()
        .topology(TopologySpec::grid(4))
        .strategy(StrategySpec::Local)
        .workload(WorkloadSpec::fib(12))
        .machine(cfg)
        .run_validated()
        .expect("losing an unused PE must not matter");
    assert_eq!(r.result, 144);
}

#[test]
fn error_messages_are_informative() {
    let cfg = MachineConfig {
        fault_plan: FaultPlan::none().crash(1000, 10),
        ..MachineConfig::default()
    };
    let err = SimulationBuilder::new()
        .topology(TopologySpec::grid(4))
        .machine(cfg)
        .run()
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("1000"),
        "message should name the bad value: {msg}"
    );
}
