//! Presets regenerating every table and figure of the paper's evaluation.
//!
//! | Paper item | Module / function |
//! |---|---|
//! | Table 1 (selected parameters) | [`table1::optimize`] |
//! | Table 2 (speedup of CWN over GM, 120 cells) | [`table2::run`] |
//! | Table 3 (distribution of message distances) | [`table3::run`] |
//! | Plots 1–10 (utilization vs #goals, dc) | [`plots::util_vs_goals`] |
//! | fib analogues ("very similar, so we omit them") | [`plots::util_vs_goals`] |
//! | Plots 11–16 (utilization vs time, fib) | [`plots::util_vs_time`] |
//! | Appendix A-1..A-8 (hypercubes) | [`appendix`] |
//! | §5 design-choice ablations | [`ablations`] |
//! | Resilience under faults (extension) | [`resilience`] |
//! | Open-traffic capacity search (extension) | [`capacity`] |
//! | Graceful degradation under overload (extension) | [`degradation`] |
//! | Headline across seeds (extension) | [`seed_robustness`] |
//!
//! [`REGISTRY`] names each artefact once — CLI name, `results/` file and
//! the function rendering its text — for `oracle-cli experiment` and
//! `regen_all` alike.
//!
//! Every function takes a [`Fidelity`]: `Paper` reruns the full
//! configuration grid (minutes), `Quick` a miniature that exercises the same
//! code paths in well under a second (used by tests).

pub mod ablations;
pub mod appendix;
pub mod capacity;
pub mod degradation;
pub mod plots;
mod registry;
pub mod resilience;
pub mod seed_robustness;
pub mod table1;
pub mod table2;
pub mod table3;

pub use registry::{find, Experiment, Output, REGISTRY};

use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

/// Scale of an experiment preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The paper's full configuration grid.
    Paper,
    /// A miniature of the same experiment for tests and micro-benchmarks.
    Quick,
}

impl Fidelity {
    /// The paper's five square-grid sides (25–400 PEs), or a miniature.
    pub fn grid_sides(self) -> &'static [usize] {
        match self {
            Fidelity::Paper => &[5, 8, 10, 16, 20],
            Fidelity::Quick => &[4, 5],
        }
    }

    /// Fibonacci problem sizes.
    pub fn fib_sizes(self) -> &'static [i64] {
        match self {
            Fidelity::Paper => &oracle_workloads::PAPER_FIB_SIZES,
            Fidelity::Quick => &[9, 11],
        }
    }

    /// Divide-and-conquer problem sizes (`dc(1, x)`).
    pub fn dc_sizes(self) -> &'static [i64] {
        match self {
            Fidelity::Paper => &oracle_workloads::PAPER_DC_SIZES,
            Fidelity::Quick => &[21, 55],
        }
    }

    /// Hypercube dimensions (appendix experiments).
    pub fn hypercube_dims(self) -> &'static [u32] {
        match self {
            Fidelity::Paper => &[5, 6, 7],
            Fidelity::Quick => &[3, 4],
        }
    }
}

/// The two paper topology families, by square side.
pub fn paper_topologies(side: usize) -> [TopologySpec; 2] {
    [TopologySpec::grid(side), TopologySpec::dlm(side)]
}

/// The paper's twelve workloads (6 dc + 6 fib), paired by goal count.
pub fn paper_workloads() -> Vec<WorkloadSpec> {
    let mut v: Vec<WorkloadSpec> = oracle_workloads::PAPER_DC_SIZES
        .iter()
        .map(|&x| WorkloadSpec::dc(x))
        .collect();
    v.extend(
        oracle_workloads::PAPER_FIB_SIZES
            .iter()
            .map(|&n| WorkloadSpec::fib(n)),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_scales() {
        assert_eq!(Fidelity::Paper.grid_sides().len(), 5);
        assert_eq!(Fidelity::Quick.grid_sides().len(), 2);
        assert_eq!(Fidelity::Paper.fib_sizes(), &[7, 9, 11, 13, 15, 18]);
    }

    #[test]
    fn paper_workloads_are_twelve() {
        assert_eq!(paper_workloads().len(), 12);
    }

    #[test]
    fn topology_pairs() {
        let [grid, dlm] = paper_topologies(10);
        assert_eq!(grid.num_pes(), 100);
        assert_eq!(dlm.num_pes(), 100);
    }
}
