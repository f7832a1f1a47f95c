//! # oracle-model — the ORACLE message-passing multiprocessor model
//!
//! This crate is the Rust equivalent of the paper's ORACLE simulator: a
//! model of a message-passing multiprocessor in which the two contended
//! resources are the processing elements (PEs) and the communication
//! channels. "ORACLE has one process for each user process running on a PE,
//! and one process for each communication channel. Thus it models contention
//! for the basic resources of a parallel system."
//!
//! The pieces:
//!
//! * [`program::Program`] — the simulated computation, a medium-grain task
//!   tree (a task runs briefly, then either completes or spawns subtasks and
//!   awaits their responses).
//! * [`strategy::Strategy`] — a dynamic, distributed load-distribution
//!   scheme, expressed as callbacks on goal creation/arrival, control
//!   messages, timers, and idleness. CWN, the Gradient Model, and the other
//!   schemes live in the `oracle-strategies` crate.
//! * [`cost::CostModel`] — the "times to be charged for primitive
//!   operations" that ORACLE took as input.
//! * [`machine::Machine`] — wires a topology, a program, and a strategy into
//!   an event-driven simulation and produces a [`metrics::Report`].

pub mod audit;
pub mod channel;
pub mod config;
pub mod cost;
pub mod error;
pub mod faults;
pub mod machine;
pub mod message;
pub mod metrics;
pub mod open;
pub mod pe;
pub mod program;
pub mod snapshot;
pub mod sparse;
pub mod strategy;
pub mod trace;

pub use config::{LoadInfoMode, MachineConfig};
pub use cost::CostModel;
pub use error::SimError;
pub use faults::{FaultPlan, LinkWindow, PeCrash, RecoveryParams, Slowdown};
pub use machine::{Core, Machine};
pub use message::{ControlMsg, GoalId, GoalMsg};
pub use metrics::{FaultMetrics, OpenMetrics, OpenOutcome, Report, TopPe};
pub use open::{
    AdmissionPolicy, ArrivalProcess, ArrivalSpec, EdgeSet, OpenTraffic, ParseArrivalError,
    ParseOverloadError, RetryPolicy, ADMISSION_GRAMMAR, ARRIVAL_GRAMMAR, RETRY_GRAMMAR,
};
pub use program::{Continuation, Expansion, Program, TaskList, TaskSpec};
pub use strategy::{Strategy, StrategyState};
pub use trace::{Trace, TraceEvent, TraceMode};
