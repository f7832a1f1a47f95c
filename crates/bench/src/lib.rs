//! Measurement harness behind the `scale` binary: build time, run time and
//! peak RSS from 10³ to 10⁶ PEs. The simulator's speed on the paper's cells
//! is measured by perfbench (`perfbench/run.py`), which CI runs against the
//! merge-base with `scripts/bench_gate.py`.
//!
//! The paper's tables and figures are not here: they live in
//! [`oracle::experiments::REGISTRY`], printed by `oracle-cli experiment
//! NAME` and written to `results/` by the `regen_all` binary.

pub mod scale;
