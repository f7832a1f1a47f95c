//! The experiment registry: one entry per paper artefact or extension
//! study, shared by `oracle-cli experiment NAME` and `regen_all`, so the
//! terminal and `results/` print the same text.

use std::fmt::Write as _;

use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::{
    ablations, appendix, capacity, degradation, plots, resilience, seed_robustness, table1, table2,
    table3, Fidelity,
};
use crate::chart::cwn_gm_chart;

/// What one experiment produces.
#[derive(Debug)]
pub struct Output {
    /// The report, exactly as `results/<file>` holds it.
    pub text: String,
    /// Per-cell machine-readable detail (also embedded in `text`), for the
    /// experiments that have it.
    pub json: Option<String>,
    /// Violations of the experiment's own physics checks, for checked
    /// experiments whose checks failed.
    pub violations: Option<String>,
}

impl Output {
    fn plain(text: String) -> Output {
        Output {
            text,
            json: None,
            violations: None,
        }
    }
}

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name `oracle-cli experiment` takes.
    pub name: &'static str,
    /// The file `regen_all` writes under `results/`.
    pub file: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Run the experiment at a fidelity and seed.
    pub run: fn(Fidelity, u64) -> Output,
    /// [`Output::json`] is filled in.
    pub json: bool,
    /// [`Output::violations`] is checked.
    pub checked: bool,
}

const fn entry(
    name: &'static str,
    file: &'static str,
    about: &'static str,
    run: fn(Fidelity, u64) -> Output,
) -> Experiment {
    Experiment {
        name,
        file,
        about,
        run,
        json: false,
        checked: false,
    }
}

/// Every experiment, in `results/README.md` order.
pub static REGISTRY: &[Experiment] = &[
    entry(
        "table1",
        "table1_opt.txt",
        "Table 1: parameter selection, with the four sweeps behind it",
        table1_text,
    ),
    entry(
        "table2",
        "table2_speedup.txt",
        "Table 2: 120 CWN/GM speedup ratios",
        table2_text,
    ),
    entry(
        "table3",
        "table3_hops.txt",
        "Table 3: message-distance histogram",
        table3_text,
    ),
    entry(
        "plots-dc-grid",
        "plots_dc_grid.txt",
        "Plots 6-10: utilization vs goals, dc, grids",
        |f, s| goals_plots(f, s, false, &[TopologySpec::grid]),
    ),
    entry(
        "plots-dc-dlm",
        "plots_dc_dlm.txt",
        "Plots 1-5: utilization vs goals, dc, lattice-meshes",
        |f, s| goals_plots(f, s, false, &[TopologySpec::dlm]),
    ),
    entry(
        "plots-fib",
        "plots_fib.txt",
        "the omitted fib analogues of Plots 1-10",
        |f, s| goals_plots(f, s, true, &[TopologySpec::dlm, TopologySpec::grid]),
    ),
    entry(
        "plots-time-grid",
        "plots_time_grid.txt",
        "Plots 14-16: utilization vs time, grid",
        |f, s| time_plots(f, s, TopologySpec::grid),
    ),
    entry(
        "plots-time-dlm",
        "plots_time_dlm.txt",
        "Plots 11-13: utilization vs time, lattice-mesh",
        |f, s| time_plots(f, s, TopologySpec::dlm),
    ),
    entry(
        "appendix",
        "appendix_hypercube.txt",
        "Appendix A-1..A-8: hypercubes",
        appendix_text,
    ),
    entry(
        "ablations",
        "ablations.txt",
        "design-choice ablations",
        ablations_text,
    ),
    Experiment {
        json: true,
        ..entry(
            "resilience",
            "resilience.txt",
            "extension: CWN vs GM under injected faults",
            resilience_text,
        )
    },
    Experiment {
        json: true,
        ..entry(
            "capacity",
            "open_capacity.txt",
            "extension: max sustainable Poisson arrival rate per strategy x topology \
             holding a p99 sojourn target",
            capacity_text,
        )
    },
    Experiment {
        json: true,
        checked: true,
        ..entry(
            "degradation",
            "degradation.txt",
            "extension: goodput under overload x fault intensity, unprotected vs the \
             deadline+retry+admission+breaker stack",
            degradation_text,
        )
    },
    entry(
        "seed-robustness",
        "seed_robustness.txt",
        "the headline across 10 seeds",
        |f, s| Output::plain(seed_robustness::render(&seed_robustness::run(f, s)).to_string()),
    ),
];

/// The experiment named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

fn table1_text(fidelity: Fidelity, seed: u64) -> Output {
    let grid = table1::optimize(fidelity, true, seed);
    let dlm = table1::optimize(fidelity, false, seed);
    let mut out = table1::render(&grid, &dlm).to_string();
    for (title, sweep) in [
        ("CWN sweep (grid)", &grid.cwn_sweep),
        ("GM sweep (grid)", &grid.gm_sweep),
        ("CWN sweep (dlm)", &dlm.cwn_sweep),
        ("GM sweep (dlm)", &dlm.gm_sweep),
    ] {
        out.push('\n');
        out += &table1::render_sweep(title, sweep).to_string();
    }
    Output::plain(out)
}

fn table2_text(fidelity: Fidelity, seed: u64) -> Output {
    let cells = table2::run(fidelity, seed);
    let s = table2::summarize(&cells);
    let mut out = table2::render(&cells).to_string();
    let _ = writeln!(
        out,
        "\nCWN better in {}/{} cells; significantly (>10%) better in {}; \
         ratio range {:.2} .. {:.2}",
        s.cwn_wins, s.cells, s.significant, s.min_ratio, s.max_ratio
    );
    Output::plain(out)
}

fn table3_text(fidelity: Fidelity, seed: u64) -> Output {
    let d = table3::run(fidelity, seed);
    let mut out = table3::render(&d).to_string();
    let _ = writeln!(
        out,
        "\ngoal-message hops: CWN {} vs GM {}",
        d.cwn.traffic.goal_hops, d.gm.traffic.goal_hops
    );
    Output::plain(out)
}

/// Utilization vs goals on each machine family, largest machines first:
/// fib or dc workloads.
fn goals_plots(
    fidelity: Fidelity,
    seed: u64,
    fib: bool,
    families: &[fn(usize) -> TopologySpec],
) -> Output {
    let workloads = plots::plot_workloads(fidelity, fib);
    let mut out = String::new();
    for &side in fidelity.grid_sides().iter().rev() {
        for family in families {
            let p = plots::util_vs_goals(family(side), &workloads, seed);
            out += &plots::render_util_vs_goals(&p).to_string();
            out.push('\n');
            out += &cwn_gm_chart(
                format!("{} ({} PEs)", p.topology, p.topology.num_pes()),
                "no. of goals",
                &p.cwn.points,
                &p.gm.points,
            );
            out.push('\n');
        }
    }
    Output::plain(out)
}

fn time_plots(fidelity: Fidelity, seed: u64, family: fn(usize) -> TopologySpec) -> Output {
    let (side, sizes, interval): (usize, &[i64], u64) = match fidelity {
        Fidelity::Paper => (10, &[18, 15, 9], 100),
        Fidelity::Quick => (5, &[13, 9], 50),
    };
    let topology = family(side);
    let mut out = String::new();
    for &n in sizes {
        let p = plots::util_vs_time(topology, WorkloadSpec::fib(n), interval, seed);
        out += &plots::render_util_vs_time(&p).to_string();
        out.push('\n');
        out += &cwn_gm_chart(
            format!("{} on {}", p.workload, p.topology),
            "time (units)",
            &p.cwn,
            &p.gm,
        );
        out.push('\n');
    }
    Output::plain(out)
}

fn appendix_text(fidelity: Fidelity, seed: u64) -> Output {
    let mut out = String::new();
    for p in appendix::goals_plots(fidelity, seed) {
        out += &plots::render_util_vs_goals(&p).to_string();
        out.push('\n');
    }
    for p in appendix::time_plots(fidelity, seed) {
        out += &plots::render_util_vs_time(&p).to_string();
        out.push('\n');
    }
    Output::plain(out)
}

fn ablations_text(f: Fidelity, s: u64) -> Output {
    let sections = [
        ("CWN radius sweep", ablations::radius_sweep(f, s)),
        ("CWN horizon sweep", ablations::horizon_sweep(f, s)),
        ("GM interval sweep", ablations::gm_interval_sweep(f, s)),
        (
            "Load metric: future commitments",
            ablations::load_metric(f, s),
        ),
        ("Load information freshness", ablations::load_info(f, s)),
        ("Communication co-processor", ablations::coprocessor(f, s)),
        (
            "Communication/computation ratio",
            ablations::comm_ratio(f, s),
        ),
        ("Grid wraparound", ablations::wraparound(f, s)),
        ("Strategy shootout", ablations::shootout(f, s)),
        (
            "Global-random vs CWN scalability (§2.1)",
            ablations::global_scalability(f, s),
        ),
        (
            "Workload breadth (extension workloads)",
            ablations::workload_breadth(f, s),
        ),
        (
            "Queue discipline (FIFO/LIFO/deepest)",
            ablations::queue_discipline(f, s),
        ),
        ("Heterogeneous PE speeds", ablations::heterogeneity(f, s)),
        (
            "Dimensionality at 64 PEs (k-ary n-cubes)",
            ablations::dimensionality(f, s),
        ),
    ];
    let mut out = String::new();
    for (title, points) in sections {
        out += &ablations::render(title, &points).to_string();
        out.push('\n');
    }
    Output::plain(out)
}

fn resilience_text(fidelity: Fidelity, seed: u64) -> Output {
    let cells = resilience::run(fidelity, seed);
    let completed = cells.iter().filter(|c| c.completed).count();
    let json = resilience::to_json(&cells);
    let mut out = resilience::render(&cells).to_string();
    let _ = writeln!(
        out,
        "\n{completed}/{} runs completed with the correct result\n\n{json}",
        cells.len()
    );
    Output {
        json: Some(json),
        ..Output::plain(out)
    }
}

fn capacity_text(fidelity: Fidelity, seed: u64) -> Output {
    let cells = capacity::run(fidelity, seed);
    let json = capacity::to_json(&cells);
    let out = format!("{}\n{json}\n", capacity::render(&cells, fidelity));
    Output {
        json: Some(json),
        ..Output::plain(out)
    }
}

fn degradation_text(fidelity: Fidelity, seed: u64) -> Output {
    let cells = degradation::run(fidelity, seed);
    let violations = degradation::verify(&cells).err();
    let best = cells
        .iter()
        .map(degradation::Cell::protection_ratio)
        .filter(|r| r.is_finite())
        .fold(0.0f64, f64::max);
    let checks = if violations.is_none() {
        "goodput degrades monotonically with fault intensity; every run conserves arrivals"
    } else {
        "PHYSICS CHECKS FAILED (--check lists the violations)"
    };
    let json = degradation::to_json(&cells);
    let mut out = degradation::render(&cells, fidelity).to_string();
    let _ = writeln!(
        out,
        "\nbest finite protection ratio {best:.1}x (inf where the unprotected baseline \
         preserved nothing); {checks}\n\n{json}"
    );
    Output {
        text: out,
        json: Some(json),
        violations,
    }
}
