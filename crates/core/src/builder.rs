//! The one-run builder API, and the flags that describe one run.

use oracle_model::{
    CostModel, FaultPlan, LoadInfoMode, Machine, MachineConfig, OpenTraffic, Report, SimError,
};
use oracle_strategies::StrategySpec;
use oracle_topo::TopologySpec;
use oracle_workloads::{AnyWorkload, WorkloadSpec};

use crate::flags::{Args, Flag};

// The flags that change what a run simulates or checks. `oracle-cli run`
// lists them next to its output flags, and a suite line takes each as
// `key=value` (a switch as a bare `key`); [`RunConfig::from_args`] is the
// one reader of all of them.

/// `--topology T`.
pub const TOPOLOGY: Flag = Flag::value("--topology", "T", "topology spec (default grid:10)");
/// `--strategy S`.
pub const STRATEGY: Flag = Flag::value("--strategy", "S", "strategy spec (default cwn:9x1)");
/// `--workload W`; the `open:ARRIVAL/WORKLOAD` spelling sets the arrivals too.
pub const WORKLOAD: Flag = Flag::value("--workload", "W", "workload spec (default fib:15)");
/// `--seed N`.
pub const SEED: Flag = Flag::value("--seed", "N", "RNG seed (default 1)");
/// `--faults PLAN`.
pub const FAULTS: Flag = Flag::value("--faults", "PLAN", "fault plan, or @FILE of plan terms");
/// `--arrivals SPEC`.
pub const ARRIVALS: Flag = Flag::value("--arrivals", "SPEC", "open traffic: the arrival process");
/// `--duration T`.
pub const DURATION: Flag = Flag::value("--duration", "T", "open-run length (default 20000)");
/// `--warmup T`.
pub const WARMUP: Flag = Flag::value("--warmup", "T", "unmeasured prefix (default duration/10)");
/// `--deadline T`.
pub const DEADLINE: Flag = Flag::value("--deadline", "T", "abandon requests older than T");
/// `--retry MAXxBASE`.
pub const RETRY: Flag = Flag::value("--retry", "MAXxBASE", "retry lost requests with backoff");
/// `--admission POLICY`.
pub const ADMISSION: Flag = Flag::value(
    "--admission",
    "POLICY",
    "shed arrivals at the door: queue:N, util:F or bucket:RATExBURST",
);
/// `--breaker COOLDOWN`.
pub const BREAKER: Flag = Flag::value("--breaker", "COOLDOWN", "circuit-breaker cooldown");
/// `--load-period T`.
pub const LOAD_PERIOD: Flag = Flag::value(
    "--load-period",
    "T",
    "load-broadcast period (default 40; 0 leaves piggy-backed load words only: \
     a broadcast round costs O(PEs) events)",
);
/// `--no-coprocessor`.
pub const NO_COPROCESSOR: Flag = Flag::switch("--no-coprocessor", "PEs pay the routing cost");
/// `--audit-every N`.
pub const AUDIT_EVERY: Flag = Flag::value("--audit-every", "N", "audit invariants every N events");

/// A fully specified simulation run: everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq)]
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
    /// The run the run-shaping flags ([`TOPOLOGY`] to [`AUDIT_EVERY`])
    /// describe — the one path from `oracle-cli run` options and suite
    /// lines to a configuration. Absent flags keep the
    /// [`SimulationBuilder`] defaults. `--faults @FILE` reads a plan file
    /// whose non-comment lines are joined with `+` (the format chaos
    /// reproducers are written in). Errors name the flag.
    pub fn from_args(args: &Args) -> Result<RunConfig, String> {
        let mut config = SimulationBuilder::new().config();
        config.topology = args.parse("--topology", config.topology)?;
        config.strategy = args.parse("--strategy", config.strategy)?;
        let workload = args.parse("--workload", AnyWorkload::Closed(config.workload))?;
        config.workload = workload.workload();
        let machine = &mut config.machine;
        machine.open = open_traffic(args, &workload)?;
        machine.seed = args.parse("--seed", machine.seed)?;
        machine.audit_every = args.parse("--audit-every", machine.audit_every)?;
        machine.fault_plan = fault_plan(args)?;
        machine.coprocessor = !args.has("--no-coprocessor");
        if let Some(period) = args.parse_opt("--load-period")? {
            machine.load_info = LoadInfoMode::Piggyback { period };
        }
        Ok(config)
    }

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
        if self.machine.fault_plan.is_empty() {
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

/// The open-traffic settings: `--arrivals` or the `open:` workload
/// spelling (not both), the measurement windows and the overload knobs,
/// which need one of the two.
fn open_traffic(args: &Args, workload: &AnyWorkload) -> Result<Option<OpenTraffic>, String> {
    let arrivals = match (workload, args.value("--arrivals")) {
        (AnyWorkload::Open(_), Some(_)) => {
            return Err("--arrivals conflicts with an open: workload — pick one spelling".into())
        }
        (AnyWorkload::Open(o), None) => Some(o.arrivals.clone()),
        (AnyWorkload::Closed(_), _) => args.parse_opt("--arrivals")?,
    };
    let Some(arrivals) = arrivals else {
        let knobs = [DURATION, WARMUP, DEADLINE, RETRY, ADMISSION, BREAKER];
        if let Some(flag) = knobs.iter().find(|f| args.has(f.name)) {
            return Err(format!(
                "{}: open-traffic options require arrivals (--arrivals SPEC or an open: \
                 workload)",
                flag.name
            ));
        }
        return Ok(None);
    };
    let duration = args.parse("--duration", crate::runner::DEFAULT_OPEN_DURATION)?;
    let mut open = OpenTraffic::new(arrivals, duration);
    open.warmup = args.parse("--warmup", open.warmup)?;
    open.deadline = args.parse_opt("--deadline")?;
    open.retry = args.parse_opt("--retry")?;
    open.admission = args.parse_opt("--admission")?;
    open.breaker = args.parse_opt("--breaker")?;
    Ok(Some(open))
}

/// `--faults`: a plan string, or `@FILE`.
fn fault_plan(args: &Args) -> Result<FaultPlan, String> {
    let Some(value) = args.value("--faults") else {
        return Ok(FaultPlan::none());
    };
    let text = match value.strip_prefix('@') {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("--faults @{path}: {e}"))?
        }
        None => value.to_string(),
    };
    let terms: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if terms.is_empty() {
        return Ok(FaultPlan::none());
    }
    terms
        .join("+")
        .parse()
        .map_err(|e: oracle_model::faults::ParseFaultPlanError| format!("--faults: {e}"))
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
