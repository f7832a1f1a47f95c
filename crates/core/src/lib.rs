//! # oracle — reproducing "Comparing the Performance of Two Dynamic Load
//! Distribution Methods" (Kale, ICPP 1988)
//!
//! This crate is the public facade of the reproduction: a builder API over
//! the ORACLE-style multiprocessor simulator, the paper's two competitors
//! (CWN and the Gradient Model) plus extensions, and presets that regenerate
//! every table and figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use oracle::prelude::*;
//!
//! let report = SimulationBuilder::new()
//!     .topology(TopologySpec::grid(5))
//!     .strategy(StrategySpec::Cwn { radius: 4, horizon: 1 })
//!     .workload(WorkloadSpec::fib(11))
//!     .seed(42)
//!     .run()
//!     .unwrap();
//!
//! assert_eq!(report.result, 89); // the machine really computed fib(11)
//! println!(
//!     "{}: {:.1}% utilization, speedup {:.1} on {} PEs",
//!     report.strategy,
//!     report.avg_utilization * 100.0, // utilizations are fractions in [0, 1]
//!     report.speedup,
//!     report.num_pes
//! );
//! ```
//!
//! ## Layout
//!
//! * [`builder`] — [`SimulationBuilder`]: one simulation run.
//! * [`runner`] — deterministic parallel execution of run batches.
//! * [`checkpoint`] — crash-safe on-disk checkpoints and bit-identical
//!   resume.
//! * [`chaos`] — seeded chaos-fuzzing sweeps with shrinking reproducers.
//! * [`experiments`] — presets for every table and figure in the paper,
//!   and the registry naming each one once.
//! * [`flags`] — the declarative flag tables every binary parses with.
//! * [`table`] — plain-text table rendering for harness output.
//! * [`chart`] — ASCII line charts (the plot harnesses draw the paper's
//!   figures in the terminal).
//! * [`heatmap`] — the paper's red/blue load monitor as PPM images.
//! * [`traceio`] — structured trace export (JSONL and Chrome
//!   `trace_event`), format validators, and the utilization-series CSV.
//! * [`prelude`] — one-stop imports.

pub mod builder;
pub mod chaos;
pub mod chart;
pub mod checkpoint;
pub mod experiments;
pub mod flags;
pub mod heatmap;
pub mod runner;
pub mod table;
pub mod traceio;

pub use builder::SimulationBuilder;

// Re-export the component crates under stable names.
pub use oracle_des as des;
pub use oracle_model as model;
pub use oracle_strategies as strategies;
pub use oracle_topo as topo;
pub use oracle_workloads as workloads;

/// Convenient glob import for applications and examples.
pub mod prelude {
    pub use crate::builder::SimulationBuilder;
    pub use crate::experiments;
    pub use crate::runner::{run_batch, RunSpec};
    pub use crate::table::Table;
    pub use crate::traceio::{
        export_series_csv, export_trace, validate_trace, TraceFormat, TraceSummary,
    };
    pub use oracle_model::{
        AdmissionPolicy, ArrivalSpec, Continuation, CostModel, Expansion, MachineConfig,
        OpenMetrics, OpenOutcome, OpenTraffic, Program, Report, RetryPolicy, SimError, Strategy,
        TaskSpec, Trace, TraceEvent, TraceMode,
    };
    pub use oracle_strategies::StrategySpec;
    pub use oracle_topo::TopologySpec;
    pub use oracle_workloads::{AnyWorkload, OpenWorkload, WorkloadSpec};
}
