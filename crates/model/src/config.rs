//! Machine-level configuration knobs.

use serde::{Deserialize, Serialize};

use crate::faults::FaultPlan;
use crate::open::OpenTraffic;
use crate::trace::TraceMode;

/// How PEs learn their neighbours' loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadInfoMode {
    /// The paper's mechanism: the load word is piggy-backed on every regular
    /// message, plus "a very short message to all the neighbors" broadcast
    /// every `period` units (0 disables the periodic broadcast).
    Piggyback { period: u64 },
    /// Ablation: neighbour loads are read instantaneously and exactly, with
    /// no messages. Isolates the effect of stale load information.
    Instant,
}

/// Which per-PE/per-channel state representation the machine uses.
///
/// Both representations produce bit-identical reports (pinned by
/// `tests/sparse_dense.rs`); the knob trades constant-factor speed on
/// small machines against bounded memory on huge ones. `Auto` (the
/// default) picks dense below [`StateMode::AUTO_SPARSE_THRESHOLD`] PEs
/// and sparse at or above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StateMode {
    /// Dense below [`StateMode::AUTO_SPARSE_THRESHOLD`] PEs, sparse above.
    #[default]
    Auto,
    /// Dense vectors indexed by PE/channel id — fastest, O(PEs + channels)
    /// memory even when almost everything is idle.
    Dense,
    /// Sparse maps holding only touched channels and latency records —
    /// O(active) memory, the mode that lets a 10^6-PE run fit in bounded
    /// RSS.
    Sparse,
}

impl StateMode {
    /// PE count at which `Auto` switches from dense to sparse state.
    pub const AUTO_SPARSE_THRESHOLD: usize = 65_536;
}

/// Order in which a PE picks its next work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// Oldest first (breadth-first-ish over the task tree) — ORACLE's
    /// behaviour and the default.
    Fifo,
    /// Newest first (depth-first over the task tree): the classic
    /// space-control discipline — queues stay short because subtrees are
    /// finished before siblings are started.
    Lifo,
    /// The queued goal with the greatest tree depth first; responses when
    /// no goal is queued.
    DeepestFirst,
}

/// Configuration of the simulated machine (everything that is not the
/// topology, the program, the strategy, or the cost model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// PE on which the root goal is injected at time zero.
    pub root_pe: u32,
    /// Width of the utilization sampling interval (the paper's load-monitor
    /// output interval), in time units.
    pub sampling_interval: u64,
    /// How neighbour-load information propagates.
    pub load_info: LoadInfoMode,
    /// Whether pending responses count toward the load metric. Read
    /// literally, the paper's metric — "the number of messages waiting to be
    /// processed" — includes responses, but with responses counted the
    /// Gradient Model's water-marks trip constantly (every combining PE
    /// looks abundant) and it sheds work far more aggressively than the
    /// paper observed (mean goal distance ~1.9 vs the paper's 0.92). The
    /// default is therefore `false` (load = queued goals, the task-queue
    /// length of Lin & Keller's formulation); `true` is kept as an ablation.
    pub count_responses_in_load: bool,
    /// Weight of "future commitments" in the load metric: each task waiting
    /// for responses adds this much to the PE's load. The paper's metric
    /// "ignores potential future commitments, indicated by the count of the
    /// tasks that are waiting for messages" — it suggests fixing that, which
    /// the Adaptive CWN preset does by setting this to a non-zero weight.
    pub future_commitment_weight: u32,
    /// When a PE sends a goal to a neighbour, optimistically bump its local
    /// view of that neighbour's load by one. Without this, consecutive
    /// subgoals created between load updates all chase the same "least
    /// loaded" neighbour.
    pub optimistic_accounting: bool,
    /// "We assume a communication co-processor to handle the routing and
    /// load-balancing functions." When `false`, every message arrival
    /// charges `software_routing_cost` of PE time, with message handling
    /// taking priority over user work — the paper predicts "the gradient
    /// model will suffer more" in this regime.
    pub coprocessor: bool,
    /// Keep each PE's full utilization time series (needed by the load
    /// monitor; costs memory in big sweeps).
    pub per_pe_series: bool,
    /// Safety valve: abort the run after this many events.
    pub max_events: u64,
    /// Window (in events) of the progress watchdog: a run in which no goal
    /// is created, executed, or combined across a full window is declared
    /// stalled. The default (one million events) is far wider than any
    /// legitimate quiet stretch; the knob exists mainly so tests can
    /// exercise watchdog crossings without million-event runs.
    #[serde(default = "default_progress_window")]
    pub progress_window: u64,
    /// Keep a structured trace of up to this many events (0 disables
    /// tracing; see [`crate::trace`]).
    pub trace_capacity: usize,
    /// What a full trace buffer does with further events: keep the first
    /// `trace_capacity` (the default) or ring-buffer the last.
    #[serde(default)]
    pub trace_mode: TraceMode,
    /// Run the engine profiler: per-event-kind counts and wall times,
    /// event-queue pop time, queue-depth high-water mark, control-message
    /// tag counters, exposed as `Report::profile`. Costs three clock reads
    /// per event; wall times are nondeterministic, so leave this off (the
    /// default) for any run whose report is compared bit-for-bit.
    #[serde(default)]
    pub profile: bool,
    /// Order in which each PE picks its next work item.
    pub queue_discipline: QueueDiscipline,
    /// Failure injection shorthand: kill one PE at a simulated instant.
    /// Folded into [`MachineConfig::fault_plan`] at machine construction;
    /// kept as a convenience knob for single-crash experiments. Runs that
    /// depended on the lost work end in [`crate::SimError::GoalsLost`]
    /// rather than a silent wrong answer.
    pub fail_pe: Option<(u32, u64)>,
    /// Deterministic fault schedule: PE crashes, link down windows,
    /// message loss, slowdowns, and the recovery layer. The empty plan
    /// (the default) adds no events and draws no random numbers.
    pub fault_plan: FaultPlan,
    /// Run the invariant auditor every this many processed events (0, the
    /// default, disables auditing). When enabled, the machine re-derives the
    /// task-conservation identity, queue-accounting counters, load-metric
    /// agreement, and channel busy-flag consistency from first principles at
    /// each audit point and aborts with
    /// [`crate::SimError::InvariantViolation`] on any mismatch. Auditing is
    /// a pure read of machine state: it schedules no events and draws no
    /// random numbers, so an audited run produces bit-identical reports to
    /// an unaudited one.
    #[serde(default)]
    pub audit_every: u64,
    /// Open-system traffic: `Some` replaces the single root goal with a
    /// stream of arriving requests (each spawning the workload's task tree)
    /// measured by steady-state sojourn times instead of completion time.
    /// `None` (the default) is the classic closed run. See [`crate::open`].
    #[serde(default)]
    pub open: Option<OpenTraffic>,
    /// Per-PE/per-channel state representation: dense vectors, sparse
    /// maps, or (the default) automatic by machine size. Never affects
    /// simulated results — only memory and constant-factor speed.
    #[serde(default)]
    pub state_mode: StateMode,
    /// Emit the per-PE report vectors (`per_pe_utilization`,
    /// `per_pe_goals`). Off by default so the report stays O(1) in the PE
    /// count; the streaming aggregates (utilization quantiles, top-K
    /// heavy hitters) are always present. The CLI exposes this as
    /// `--per-pe`.
    #[serde(default)]
    pub per_pe_metrics: bool,
    /// Heterogeneous-machine extension: each PE's execution costs are
    /// multiplied by a seeded per-PE factor drawn uniformly from
    /// `1..=pe_speed_spread`. 1 (the default) models the paper's uniform
    /// machine; larger values model mixed-speed hardware, where
    /// load-*informed* placement should matter more than load-oblivious
    /// scatter.
    pub pe_speed_spread: u64,
}

fn default_progress_window() -> u64 {
    crate::machine::PROGRESS_WINDOW
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            seed: 1,
            root_pe: 0,
            sampling_interval: 100,
            load_info: LoadInfoMode::Piggyback { period: 40 },
            count_responses_in_load: false,
            future_commitment_weight: 0,
            optimistic_accounting: true,
            coprocessor: true,
            per_pe_series: false,
            max_events: 500_000_000,
            progress_window: default_progress_window(),
            trace_capacity: 0,
            trace_mode: TraceMode::default(),
            profile: false,
            queue_discipline: QueueDiscipline::Fifo,
            fail_pe: None,
            fault_plan: FaultPlan::default(),
            audit_every: 0,
            open: None,
            state_mode: StateMode::default(),
            per_pe_metrics: false,
            pe_speed_spread: 1,
        }
    }
}

impl MachineConfig {
    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether a machine with `num_pes` PEs uses the sparse state
    /// representation under this config.
    pub fn sparse_state(&self, num_pes: usize) -> bool {
        match self.state_mode {
            StateMode::Dense => false,
            StateMode::Sparse => true,
            StateMode::Auto => num_pes > StateMode::AUTO_SPARSE_THRESHOLD,
        }
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.sampling_interval == 0 {
            return Err("sampling_interval must be positive".into());
        }
        if self.max_events == 0 {
            return Err("max_events must be positive".into());
        }
        if self.progress_window == 0 {
            return Err("progress_window must be positive".into());
        }
        if self.pe_speed_spread == 0 {
            return Err("pe_speed_spread must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.fault_plan.message_loss) {
            return Err("fault_plan.message_loss must be in [0, 1)".into());
        }
        if let Some(open) = &self.open {
            open.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        MachineConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_sampling_interval_rejected() {
        let c = MachineConfig {
            sampling_interval: 0,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_seed_sets_seed() {
        assert_eq!(MachineConfig::default().with_seed(99).seed, 99);
    }

    #[test]
    fn state_mode_resolution() {
        let auto = MachineConfig::default();
        assert!(!auto.sparse_state(StateMode::AUTO_SPARSE_THRESHOLD));
        assert!(auto.sparse_state(StateMode::AUTO_SPARSE_THRESHOLD + 1));
        let dense = MachineConfig {
            state_mode: StateMode::Dense,
            ..MachineConfig::default()
        };
        assert!(!dense.sparse_state(usize::MAX));
        let sparse = MachineConfig {
            state_mode: StateMode::Sparse,
            ..MachineConfig::default()
        };
        assert!(sparse.sparse_state(1));
    }
}
