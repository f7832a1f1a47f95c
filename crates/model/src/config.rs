//! Machine-level configuration knobs.

use crate::faults::FaultPlan;
use crate::open::OpenTraffic;
use crate::trace::TraceMode;

/// How PEs learn their neighbours' loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadInfoMode {
    /// The paper's mechanism: the load word is piggy-backed on every regular
    /// message, plus "a very short message to all the neighbors" broadcast
    /// every `period` units (0 disables the periodic broadcast).
    Piggyback { period: u64 },
    /// Ablation: neighbour loads are read instantaneously and exactly, with
    /// no messages. Isolates the effect of stale load information.
    Instant,
}

/// Order in which a PE picks its next work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Weight of "future commitments" in the load metric: each task waiting
    /// for responses adds this much to the PE's load. The paper's metric
    /// "ignores potential future commitments, indicated by the count of the
    /// tasks that are waiting for messages" — it suggests fixing that, which
    /// the Adaptive CWN preset does by setting this to a non-zero weight.
    pub future_commitment_weight: u32,
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
    /// exercise watchdog crossings without million-event runs. With
    /// periodic load broadcasts armed the machine adds two broadcast
    /// rounds of events to it, so a round alone never fills the window.
    pub progress_window: u64,
    /// Keep a structured trace of up to this many events (0 disables
    /// tracing; see [`crate::trace`]).
    pub trace_capacity: usize,
    /// What a full trace buffer does with further events: keep the first
    /// `trace_capacity` (the default) or ring-buffer the last.
    pub trace_mode: TraceMode,
    /// Run the engine profiler: per-event-kind counts and wall times,
    /// event-queue pop time, next-hop routing time, queue-depth high-water
    /// mark, control-message tag counters, exposed as `Report::profile`.
    /// Costs three clock reads per event and two per routed hop; wall
    /// times are nondeterministic, so leave this off (the default) for any
    /// run whose report is compared bit-for-bit.
    pub profile: bool,
    /// Order in which each PE picks its next work item.
    pub queue_discipline: QueueDiscipline,
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
    pub audit_every: u64,
    /// Open-system traffic: `Some` replaces the single root goal with a
    /// stream of arriving requests (each spawning the workload's task tree)
    /// measured by steady-state sojourn times instead of completion time.
    /// `None` (the default) is the classic closed run. See [`crate::open`].
    pub open: Option<OpenTraffic>,
    /// Emit the per-PE report vectors (`per_pe_utilization`,
    /// `per_pe_goals`). Off by default so the report stays O(1) in the PE
    /// count; the streaming aggregates (utilization quantiles, top-K
    /// heavy hitters) are always present. The CLI exposes this as
    /// `--per-pe`.
    pub per_pe_metrics: bool,
    /// Heterogeneous-machine extension: each PE's execution costs are
    /// multiplied by a seeded per-PE factor drawn uniformly from
    /// `1..=pe_speed_spread`. 1 (the default) models the paper's uniform
    /// machine; larger values model mixed-speed hardware, where
    /// load-*informed* placement should matter more than load-oblivious
    /// scatter.
    pub pe_speed_spread: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            seed: 1,
            root_pe: 0,
            sampling_interval: 100,
            load_info: LoadInfoMode::Piggyback { period: 40 },
            future_commitment_weight: 0,
            coprocessor: true,
            per_pe_series: false,
            max_events: 500_000_000,
            progress_window: crate::machine::PROGRESS_WINDOW,
            trace_capacity: 0,
            trace_mode: TraceMode::default(),
            profile: false,
            queue_discipline: QueueDiscipline::Fifo,
            fault_plan: FaultPlan::default(),
            audit_every: 0,
            open: None,
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
}
