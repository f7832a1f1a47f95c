//! Measurement harnesses behind the `throughput` and `scale` binaries.
//!
//! The paper's tables and figures are not here: they live in
//! [`oracle::experiments::REGISTRY`], printed by `oracle-cli experiment
//! NAME` and written to `results/` by the `regen_all` binary.

pub mod scale;
pub mod throughput;
