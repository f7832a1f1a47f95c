//! Seed robustness: is the paper's headline (CWN ≫ GM) an artefact of one
//! random placement history, or mechanism?
//!
//! For each key configuration both schemes run under several seeds; the
//! table reports mean ± standard deviation of the speedups and whether the
//! two distributions are cleanly separated (the worst CWN seed still beats
//! the best GM seed).

use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::Fidelity;
use crate::builder::{paper_strategies, SimulationBuilder};
use crate::runner::{seed_sweep, SeedSummary};
use crate::table::{f2, Table};

/// One configuration swept over seeds under both schemes.
#[derive(Debug, Clone)]
pub struct Row {
    /// Machine.
    pub topology: TopologySpec,
    /// Program.
    pub workload: WorkloadSpec,
    /// CWN speedups, one per seed.
    pub cwn: SeedSummary,
    /// GM speedups, one per seed.
    pub gm: SeedSummary,
}

impl Row {
    /// The worst CWN seed still beats the best GM seed.
    pub fn separated(&self) -> bool {
        let cwn_min = self
            .cwn
            .speedups
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let gm_max = self.gm.speedups.iter().copied().fold(0.0f64, f64::max);
        cwn_min > gm_max
    }
}

/// Sweep every configuration over seeds `seed..seed + n` with the paper's
/// parameters for both schemes.
pub fn run(fidelity: Fidelity, seed: u64) -> Vec<Row> {
    let (configs, n_seeds) = match fidelity {
        Fidelity::Paper => (
            vec![
                (TopologySpec::grid(10), WorkloadSpec::fib(15)),
                (TopologySpec::grid(20), WorkloadSpec::fib(18)),
                (TopologySpec::dlm(10), WorkloadSpec::dc(987)),
            ],
            10,
        ),
        Fidelity::Quick => (vec![(TopologySpec::grid(5), WorkloadSpec::fib(11))], 4),
    };
    configs
        .into_iter()
        .map(|(topology, workload)| {
            let (cwn, gm) = paper_strategies(&topology);
            let sweep = |strategy| {
                seed_sweep(
                    SimulationBuilder::new()
                        .topology(topology)
                        .strategy(strategy)
                        .workload(workload)
                        .config(),
                    seed,
                    n_seeds,
                )
            };
            Row {
                topology,
                workload,
                cwn: sweep(cwn),
                gm: sweep(gm),
            }
        })
        .collect()
}

/// Render the sweep: mean ± std per scheme, the ratio of the means, and
/// whether the distributions are separated.
pub fn render(rows: &[Row]) -> Table {
    let n_seeds = rows.first().map_or(0, |r| r.cwn.speedups.len());
    let mut table = Table::new(
        format!("Speedup across {n_seeds} seeds (mean ± std)"),
        &["configuration", "CWN", "GM", "mean ratio", "separated?"],
    );
    for r in rows {
        table.row(vec![
            format!("{} on {}", r.workload, r.topology),
            format!("{} ± {}", f2(r.cwn.mean()), f2(r.cwn.std_dev())),
            format!("{} ± {}", f2(r.gm.mean()), f2(r.gm.std_dev())),
            f2(r.cwn.mean() / r.gm.mean()),
            if r.separated() { "yes" } else { "no" }.into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_separates_the_schemes() {
        let rows = run(Fidelity::Quick, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cwn.speedups.len(), 4);
        assert!(rows[0].separated(), "{:?}", rows[0]);
        let text = render(&rows).to_string();
        assert!(text.contains("Speedup across 4 seeds"), "{text}");
        assert!(
            text.contains("separated?") && text.contains("yes"),
            "{text}"
        );
    }
}
