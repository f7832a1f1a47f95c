//! The four workloads: named lists of simulation cells, and the seeds each
//! pass gives them.

use oracle::builder::{paper_strategies, RunConfig};
use oracle::model::{LoadInfoMode, OpenTraffic};
use oracle::prelude::*;

/// The workload names.
pub const WORKLOADS: [&str; 4] = ["paper_mix", "grid_1k", "rand_10k", "torus_1m"];

/// One simulation the benchmark runs on every pass.
pub struct Cell {
    /// Metric-safe name, e.g. `fib20-grid10-cwn`.
    pub name: String,
    /// The run, minus its seed (each pass sets `machine.seed`).
    pub config: RunConfig,
    /// What a correct run must produce.
    pub expect: Expect,
}

/// The analytic answer a run is checked against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// A closed run: the root result and the number of goals created.
    Closed { result: i64, goals: u64 },
    /// An open run: arrival conservation and a `Completed` outcome.
    Open,
}

/// Map spec strings to a name made only of letters, digits, `_`, `.` and
/// `-`: separators between specs become `-`, the `:` inside a spec is
/// dropped, and any other character becomes `_`.
pub fn metric_safe(parts: &[&str]) -> String {
    parts
        .iter()
        .map(|p| {
            p.chars()
                .filter(|&c| c != ':')
                .map(|c| {
                    if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                        c
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
        })
        .collect::<Vec<_>>()
        .join("-")
}

fn parse<T: std::str::FromStr>(spec: &str) -> T
where
    T::Err: std::fmt::Display,
{
    spec.parse()
        .unwrap_or_else(|e| panic!("fixed benchmark spec {spec:?}: {e}"))
}

/// A closed cell checked against the workload's analytic result.
fn closed(name: String, config: RunConfig) -> Cell {
    let program = config.workload.build();
    let expect = Expect::Closed {
        result: program
            .expected_result()
            .expect("benchmark workloads have an analytic result"),
        goals: program
            .expected_goals()
            .expect("benchmark workloads have an analytic goal count"),
    };
    Cell {
        name,
        config,
        expect,
    }
}

/// The cells of `workload`, or `None` for an unknown name.
pub fn cells(workload: &str) -> Option<Vec<Cell>> {
    Some(match workload {
        "paper_mix" => paper_mix(),
        "grid_1k" => {
            let topology: TopologySpec = parse("grid:32");
            let (cwn, _) = paper_strategies(&topology);
            let config = SimulationBuilder::new()
                .topology(topology)
                .strategy(cwn)
                .workload(parse("fib:20"))
                .coprocessor(true)
                .config();
            vec![closed(metric_safe(&["fib:20", "grid:32", "cwn"]), config)]
        }
        "rand_10k" => vec![scale_cell("rand:10000x4")],
        "torus_1m" => vec![scale_cell("torus:1000")],
        _ => return None,
    })
}

/// The paper's 12 closed cells plus one open-traffic cell.
fn paper_mix() -> Vec<Cell> {
    let mut out = Vec::new();
    for topo in ["grid:10", "dlm:10"] {
        let topology: TopologySpec = parse(topo);
        let (cwn, gm) = paper_strategies(&topology);
        for work in ["fib:20", "fib:15", "dc:4181"] {
            for (strat, strategy) in [("cwn", cwn), ("gm", gm)] {
                let config = SimulationBuilder::new()
                    .topology(topology)
                    .strategy(strategy)
                    .workload(parse(work))
                    .config();
                out.push(closed(metric_safe(&[work, topo, strat]), config));
            }
        }
    }
    let topology: TopologySpec = parse("grid:10");
    let (cwn, _) = paper_strategies(&topology);
    let mut open = OpenTraffic::new(parse("poisson:20"), 20_000);
    open.warmup = 2_000;
    let config = SimulationBuilder::new()
        .topology(topology)
        .strategy(cwn)
        .workload(parse("fib:11"))
        .open(Some(open))
        .config();
    out.push(Cell {
        name: metric_safe(&["poisson:20", "fib:11", "grid:10", "cwn"]),
        config,
        expect: Expect::Open,
    });
    out
}

/// CWN radius 9 horizon 1 over fib:20, piggy-backed load words only.
fn scale_cell(topo: &str) -> Cell {
    let config = SimulationBuilder::new()
        .topology(parse(topo))
        .strategy(StrategySpec::Cwn {
            radius: 9,
            horizon: 1,
        })
        .workload(parse("fib:20"))
        .machine(MachineConfig {
            load_info: LoadInfoMode::Piggyback { period: 0 },
            ..MachineConfig::default()
        })
        .config();
    closed(metric_safe(&["fib:20", topo, "cwn9x1"]), config)
}

/// Machine seed of pass `pass` under benchmark seed `seed` (SplitMix64 of
/// the pair), so every pass simulates a different input and the same
/// `seed` always yields the same sequence.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pass as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_map_to_metric_safe_names() {
        assert_eq!(
            metric_safe(&["fib:20", "grid:10", "cwn"]),
            "fib20-grid10-cwn"
        );
        assert_eq!(metric_safe(&["rand:10000x4"]), "rand10000x4");
        assert_eq!(metric_safe(&["a b/c"]), "a_b_c");
    }

    #[test]
    fn every_workload_builds_and_paper_mix_has_thirteen_cells() {
        for w in WORKLOADS {
            let cells = cells(w).expect("known workload");
            assert!(!cells.is_empty());
        }
        let mix = cells("paper_mix").unwrap();
        assert_eq!(mix.len(), 13);
        assert_eq!(mix[0].name, "fib20-grid10-cwn");
        assert_eq!(mix[12].expect, Expect::Open);
        assert!(cells("nope").is_none());
    }

    #[test]
    fn pass_seeds_are_a_pure_function_of_seed_and_pass() {
        assert_eq!(pass_seed(7, 3), pass_seed(7, 3));
        assert_ne!(pass_seed(7, 3), pass_seed(7, 4));
        assert_ne!(pass_seed(7, 3), pass_seed(8, 3));
    }
}
