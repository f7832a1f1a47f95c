//! The one-run builder API.

use oracle_model::config::LoadInfoMode;
use oracle_model::{CostModel, Machine, MachineConfig, Report, SimError};
use oracle_strategies::StrategySpec;
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// A fully specified simulation run: everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Interconnection topology.
    pub topology: TopologySpec,
    /// Load-distribution strategy.
    pub strategy: StrategySpec,
    /// Simulated computation.
    pub workload: WorkloadSpec,
    /// Times charged for primitive operations.
    pub costs: CostModel,
    /// Machine-level knobs (seed, load-information mode, co-processor…).
    pub machine: MachineConfig,
}

impl RunConfig {
    /// Build the configured machine without running it — the checkpoint
    /// tooling pauses, snapshots, and restores machines directly.
    pub fn machine(&self) -> Result<Machine, SimError> {
        let mut machine_cfg = self.machine.clone();
        self.strategy.apply_config(&mut machine_cfg);
        Machine::new(
            self.topology.build(),
            self.workload.build(),
            self.strategy.build(),
            self.costs,
            machine_cfg,
        )
    }

    /// Execute this configuration.
    pub fn run(&self) -> Result<Report, SimError> {
        self.machine()?.run()
    }

    /// Execute and also return the event trace (empty unless
    /// `machine.trace_capacity` is set).
    pub fn run_traced(&self) -> Result<(Report, oracle_model::Trace), SimError> {
        self.machine()?.run_traced()
    }

    /// Execute and additionally check the computed result against the
    /// workload's analytic expectation.
    pub fn run_validated(&self) -> Result<Report, SimError> {
        let report = self.run()?;
        // Open-traffic runs have no single root result or analytic goal
        // count — every arrival spawns its own tree and the run ends on
        // the clock, not on a value.
        if self.machine.open.is_some() {
            return Ok(report);
        }
        if let Some(expected) = self.workload.build().expected_result() {
            if report.result != expected {
                return Err(SimError::InvalidConfig(format!(
                    "simulated result {} != expected {expected} for {}",
                    report.result, self.workload
                )));
            }
        }
        // Under a fault plan the goal count legitimately diverges (lost
        // goals, re-spawned subtrees) — only the result check applies.
        let faults_planned = !self.machine.fault_plan.is_empty() || self.machine.fail_pe.is_some();
        if !faults_planned {
            if let Some(goals) = self.workload.build().expected_goals() {
                if report.goals_created != goals {
                    return Err(SimError::InvalidConfig(format!(
                        "created {} goals, expected {goals} for {}",
                        report.goals_created, self.workload
                    )));
                }
            }
        }
        Ok(report)
    }
}

/// Fluent builder over [`RunConfig`].
///
/// Defaults: 10×10 grid, paper-parameter CWN, `fib(15)`, paper cost model,
/// default machine configuration (seed 1).
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    config: RunConfig,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// A builder with the documented defaults.
    pub fn new() -> Self {
        SimulationBuilder {
            config: RunConfig {
                topology: TopologySpec::grid(10),
                strategy: StrategySpec::cwn_paper(true),
                workload: WorkloadSpec::fib(15),
                costs: CostModel::paper_default(),
                machine: MachineConfig::default(),
            },
        }
    }

    /// Set the topology.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.config.topology = spec;
        self
    }

    /// Set the strategy.
    pub fn strategy(mut self, spec: StrategySpec) -> Self {
        self.config.strategy = spec;
        self
    }

    /// Set the workload.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.config.workload = spec;
        self
    }

    /// Set the cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.config.costs = costs;
        self
    }

    /// Replace the whole machine configuration.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.config.machine = machine;
        self
    }

    /// Set the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.machine.seed = seed;
        self
    }

    /// Set the utilization sampling interval (time units).
    pub fn sampling_interval(mut self, interval: u64) -> Self {
        self.config.machine.sampling_interval = interval;
        self
    }

    /// Keep per-PE utilization series in the report (load-monitor data).
    pub fn per_pe_series(mut self, keep: bool) -> Self {
        self.config.machine.per_pe_series = keep;
        self
    }

    /// Emit the O(num-PEs) per-PE vectors (`per_pe_utilization`,
    /// `per_pe_goals`) in the report. Off by default: the headline
    /// aggregates (quantile sketch, top-K) cover the common questions in
    /// O(1) space per PE.
    pub fn per_pe_metrics(mut self, keep: bool) -> Self {
        self.config.machine.per_pe_metrics = keep;
        self
    }

    /// Keep a structured event trace of up to `capacity` events (retrieve
    /// it by running the config via [`RunConfig::run_traced`]).
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.config.machine.trace_capacity = capacity;
        self
    }

    /// Choose what a full trace buffer does with further events: keep the
    /// first `trace_capacity` (the default) or ring-buffer the last.
    pub fn trace_mode(mut self, mode: oracle_model::TraceMode) -> Self {
        self.config.machine.trace_mode = mode;
        self
    }

    /// Run the engine profiler (per-event-kind counts and wall times,
    /// queue-depth high-water mark, control-tag counters) and attach its
    /// report as `Report::profile`. Wall times are nondeterministic — leave
    /// this off for runs whose reports are compared bit-for-bit.
    pub fn profile(mut self, enabled: bool) -> Self {
        self.config.machine.profile = enabled;
        self
    }

    /// Select instantaneous (oracle) neighbour-load information instead of
    /// the paper's piggy-backed/periodic load words.
    pub fn instant_load_info(mut self) -> Self {
        self.config.machine.load_info = LoadInfoMode::Instant;
        self
    }

    /// Set the periodic load-broadcast period (piggy-backing stays on).
    pub fn load_broadcast_period(mut self, period: u64) -> Self {
        self.config.machine.load_info = LoadInfoMode::Piggyback { period };
        self
    }

    /// Enable/disable the communication co-processor (§3.1).
    pub fn coprocessor(mut self, enabled: bool) -> Self {
        self.config.machine.coprocessor = enabled;
        self
    }

    /// Inject a deterministic fault plan (PE crashes, link windows, message
    /// loss, slowdowns — and optionally the recovery layer).
    pub fn fault_plan(mut self, plan: oracle_model::FaultPlan) -> Self {
        self.config.machine.fault_plan = plan;
        self
    }

    /// Run in the open-traffic regime: requests arrive per `traffic`'s
    /// arrival process (each spawning the workload's task tree) and the
    /// report carries steady-state sojourn metrics instead of a root
    /// result. `None` restores the classic closed run.
    pub fn open(mut self, traffic: Option<oracle_model::OpenTraffic>) -> Self {
        self.config.machine.open = traffic;
        self
    }

    /// Shorthand for [`SimulationBuilder::open`] with default windows: the
    /// given arrivals over `duration` time units, warmup of one tenth.
    pub fn arrivals(self, spec: oracle_model::ArrivalSpec, duration: u64) -> Self {
        self.open(Some(oracle_model::OpenTraffic::new(spec, duration)))
    }

    /// The assembled configuration (for batching via [`crate::runner`]).
    pub fn config(&self) -> RunConfig {
        self.config.clone()
    }

    /// Execute the run.
    pub fn run(self) -> Result<Report, SimError> {
        self.config.run()
    }

    /// Execute and validate against the workload's analytic result.
    pub fn run_validated(self) -> Result<Report, SimError> {
        self.config.run_validated()
    }

    /// Execute and also return the event trace (empty unless
    /// [`SimulationBuilder::trace_capacity`] was set).
    pub fn run_traced(self) -> Result<(Report, oracle_model::Trace), SimError> {
        self.config.run_traced()
    }
}

/// The paper's Table-1 strategy parameters for a given topology family:
/// `(CWN, GM)` specs. Grids use the grid column; DLMs (and everything else
/// with a comparably small diameter) use the lattice-mesh column; for
/// hypercubes — whose parameters the appendix does not state — CWN's radius
/// is the diameter (so goals can reach any PE, as on the other topologies)
/// with the grid column's horizon and water-marks.
pub fn paper_strategies(topology: &TopologySpec) -> (StrategySpec, StrategySpec) {
    match topology {
        TopologySpec::Mesh2D { .. } => (
            StrategySpec::cwn_paper(true),
            StrategySpec::gradient_paper(true),
        ),
        TopologySpec::Hypercube { dim } => (
            StrategySpec::Cwn {
                radius: *dim,
                horizon: 2.min(dim.saturating_sub(1)),
            },
            StrategySpec::gradient_paper(true),
        ),
        _ => (
            StrategySpec::cwn_paper(false),
            StrategySpec::gradient_paper(false),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_runs_and_validates() {
        let report = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .workload(WorkloadSpec::fib(10))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .seed(7)
            .run_validated()
            .unwrap();
        assert_eq!(report.result, 55);
        assert_eq!(report.num_pes, 16);
        report.check_invariants();
    }

    #[test]
    fn validation_catches_mismatched_result() {
        // A direct run of a correct config validates fine; the validation
        // failure path is exercised by giving dc a workload whose analytic
        // result is known and corrupting is impossible from outside — so we
        // simply check run_validated() == run() on a good config.
        let cfg = SimulationBuilder::new()
            .topology(TopologySpec::Ring { n: 4 })
            .workload(WorkloadSpec::dc(21))
            .strategy(StrategySpec::Local)
            .config();
        let a = cfg.run().unwrap();
        let b = cfg.run_validated().unwrap();
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.result, 231);
    }

    #[test]
    fn paper_strategy_selection() {
        let (cwn, gm) = paper_strategies(&TopologySpec::grid(10));
        assert_eq!(
            cwn,
            StrategySpec::Cwn {
                radius: 9,
                horizon: 1
            }
        );
        assert_eq!(
            gm,
            StrategySpec::Gradient {
                low_water_mark: 1,
                high_water_mark: 2,
                interval: 20
            }
        );

        let (cwn, _) = paper_strategies(&TopologySpec::dlm(10));
        assert_eq!(
            cwn,
            StrategySpec::Cwn {
                radius: 5,
                horizon: 1
            }
        );

        let (cwn, _) = paper_strategies(&TopologySpec::Hypercube { dim: 6 });
        assert_eq!(
            cwn,
            StrategySpec::Cwn {
                radius: 6,
                horizon: 2
            }
        );
    }

    #[test]
    fn builder_knobs_apply() {
        let cfg = SimulationBuilder::new()
            .seed(99)
            .sampling_interval(42)
            .per_pe_series(true)
            .coprocessor(false)
            .config();
        assert_eq!(cfg.machine.seed, 99);
        assert_eq!(cfg.machine.sampling_interval, 42);
        assert!(cfg.machine.per_pe_series);
        assert!(!cfg.machine.coprocessor);
    }
}
