//! Regenerate every paper table and figure into a results directory.
//!
//! ```sh
//! cargo run --release -p oracle-bench --bin regen_all [--quick] [--seed N] [--only PREFIX] [DIR]
//! ```
//!
//! Writes one text file per harness (the same output the individual
//! binaries print) plus an index, so `results/` can be rebuilt from scratch
//! with a single command. `--only PREFIX` regenerates just the files whose
//! name starts with PREFIX (e.g. `--only degradation`) and leaves the index
//! untouched.

use std::fmt::Write as _;
use std::path::PathBuf;

use oracle::builder::paper_strategies;
use oracle::experiments::{
    ablations, appendix, capacity, degradation, plots, resilience, table1, table2, table3, Fidelity,
};
use oracle::prelude::*;
use oracle::runner::seed_sweep;
use oracle::table::f2;

fn main() {
    // Accept the common flags plus an optional output directory.
    let mut dir = PathBuf::from("results");
    let mut fidelity = Fidelity::Paper;
    let mut seed = 1u64;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--only" => only = Some(args.next().expect("--only needs a file-name prefix")),
            other if !other.starts_with('-') => dir = PathBuf::from(other),
            other => panic!("unknown flag {other}"),
        }
    }
    let want = |name: &str| only.as_deref().is_none_or(|o| name.starts_with(o));
    std::fs::create_dir_all(&dir).expect("create results dir");
    let mut index = String::from("# results/ — regenerated harness outputs\n\n");

    let mut save = |name: &str, content: String| {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {name}: {e}"));
        let _ = writeln!(index, "- `{name}`");
        eprintln!("wrote {}", path.display());
    };

    // Table 1.
    if want("table1_opt") {
        let grid = table1::optimize(fidelity, true, seed);
        let dlm = table1::optimize(fidelity, false, seed);
        let mut out = table1::render(&grid, &dlm).to_string();
        out.push('\n');
        out += &table1::render_sweep("CWN sweep (grid)", &grid.cwn_sweep).to_string();
        out.push('\n');
        out += &table1::render_sweep("GM sweep (grid)", &grid.gm_sweep).to_string();
        out.push('\n');
        out += &table1::render_sweep("CWN sweep (dlm)", &dlm.cwn_sweep).to_string();
        out.push('\n');
        out += &table1::render_sweep("GM sweep (dlm)", &dlm.gm_sweep).to_string();
        save("table1_opt.txt", out);
    }

    // Table 2.
    if want("table2_speedup") {
        let cells = table2::run(fidelity, seed);
        let s = table2::summarize(&cells);
        let mut out = table2::render(&cells).to_string();
        let _ = writeln!(
            out,
            "\nCWN better in {}/{} cells; significantly (>10%) better in {}; \
             ratio range {:.2} .. {:.2}",
            s.cwn_wins, s.cells, s.significant, s.min_ratio, s.max_ratio
        );
        save("table2_speedup.txt", out);
    }

    // Table 3.
    if want("table3_hops") {
        let d = table3::run(fidelity, seed);
        let mut out = table3::render(&d).to_string();
        let _ = writeln!(
            out,
            "\ngoal-message hops: CWN {} vs GM {}",
            d.cwn.traffic.goal_hops, d.gm.traffic.goal_hops
        );
        save("table3_hops.txt", out);
    }

    // Plots 1–10 (+ fib analogues).
    for (name, fib, dlm_family) in [
        ("plots_dc_grid.txt", false, false),
        ("plots_dc_dlm.txt", false, true),
        ("plots_fib.txt", true, true), // fib writes both families below
    ] {
        if !want(name) {
            continue;
        }
        let workloads = plots::plot_workloads(fidelity, fib);
        let mut out = String::new();
        for &side in fidelity.grid_sides().iter().rev() {
            let topos: Vec<TopologySpec> = if fib {
                vec![TopologySpec::dlm(side), TopologySpec::grid(side)]
            } else if dlm_family {
                vec![TopologySpec::dlm(side)]
            } else {
                vec![TopologySpec::grid(side)]
            };
            for topology in topos {
                let p = plots::util_vs_goals(topology, &workloads, seed);
                out += &plots::render_util_vs_goals(&p).to_string();
                out.push('\n');
                let to_series = |line: &plots::Line| line.points.clone();
                out += &oracle::chart::cwn_gm_chart(
                    format!("{} ({} PEs)", p.topology, p.topology.num_pes()),
                    "no. of goals",
                    &to_series(&p.cwn),
                    &to_series(&p.gm),
                );
                out.push('\n');
            }
        }
        save(name, out);
    }

    // Plots 11–16.
    for (name, grid_family) in [("plots_time_grid.txt", true), ("plots_time_dlm.txt", false)] {
        if !want(name) {
            continue;
        }
        let (topology, sizes, interval): (TopologySpec, &[i64], u64) = match fidelity {
            Fidelity::Paper => (
                if grid_family {
                    TopologySpec::grid(10)
                } else {
                    TopologySpec::dlm(10)
                },
                &[18, 15, 9],
                100,
            ),
            Fidelity::Quick => (
                if grid_family {
                    TopologySpec::grid(5)
                } else {
                    TopologySpec::dlm(5)
                },
                &[13, 9],
                50,
            ),
        };
        let mut out = String::new();
        for &n in sizes {
            let p = plots::util_vs_time(topology, WorkloadSpec::fib(n), interval, seed);
            out += &plots::render_util_vs_time(&p).to_string();
            out.push('\n');
            out += &oracle::chart::cwn_gm_chart(
                format!("{} on {}", p.workload, p.topology),
                "time (units)",
                &p.cwn,
                &p.gm,
            );
            out.push('\n');
        }
        save(name, out);
    }

    // Appendix.
    if want("appendix_hypercube") {
        let mut out = String::new();
        for p in appendix::goals_plots(fidelity, seed) {
            out += &plots::render_util_vs_goals(&p).to_string();
            out.push('\n');
        }
        for p in appendix::time_plots(fidelity, seed) {
            out += &plots::render_util_vs_time(&p).to_string();
            out.push('\n');
        }
        save("appendix_hypercube.txt", out);
    }

    // Ablations.
    if want("ablations") {
        let sections = [
            ("CWN radius sweep", ablations::radius_sweep(fidelity, seed)),
            (
                "CWN horizon sweep",
                ablations::horizon_sweep(fidelity, seed),
            ),
            (
                "GM interval sweep",
                ablations::gm_interval_sweep(fidelity, seed),
            ),
            (
                "Load metric: future commitments",
                ablations::load_metric(fidelity, seed),
            ),
            (
                "Load information freshness",
                ablations::load_info(fidelity, seed),
            ),
            (
                "Communication co-processor",
                ablations::coprocessor(fidelity, seed),
            ),
            (
                "Communication/computation ratio",
                ablations::comm_ratio(fidelity, seed),
            ),
            ("Grid wraparound", ablations::wraparound(fidelity, seed)),
            ("Strategy shootout", ablations::shootout(fidelity, seed)),
            (
                "Global-random vs CWN scalability (§2.1)",
                ablations::global_scalability(fidelity, seed),
            ),
            (
                "Workload breadth (extension workloads)",
                ablations::workload_breadth(fidelity, seed),
            ),
            (
                "Queue discipline (FIFO/LIFO/deepest)",
                ablations::queue_discipline(fidelity, seed),
            ),
            (
                "Heterogeneous PE speeds",
                ablations::heterogeneity(fidelity, seed),
            ),
            (
                "Dimensionality at 64 PEs (k-ary n-cubes)",
                ablations::dimensionality(fidelity, seed),
            ),
        ];
        let mut out = String::new();
        for (title, points) in sections {
            out += &ablations::render(title, &points).to_string();
            out.push('\n');
        }
        save("ablations.txt", out);
    }

    // Resilience under faults (extension).
    if want("resilience") {
        let cells = resilience::run(fidelity, seed);
        let completed = cells.iter().filter(|c| c.completed).count();
        let mut out = resilience::render(&cells).to_string();
        let _ = writeln!(
            out,
            "\n{completed}/{} runs completed with the correct result",
            cells.len()
        );
        out.push('\n');
        out += &resilience::to_json(&cells);
        out.push('\n');
        save("resilience.txt", out);
    }

    // Open-traffic capacity search (extension).
    if want("open_capacity") {
        let cells = capacity::run(fidelity, seed);
        let mut out = capacity::render(&cells, fidelity).to_string();
        out.push('\n');
        out += &capacity::to_json(&cells);
        out.push('\n');
        save("open_capacity.txt", out);
    }

    // Graceful degradation under overload (extension).
    if want("degradation") {
        let cells = degradation::run(fidelity, seed);
        degradation::verify(&cells)
            .unwrap_or_else(|e| panic!("degradation physics check failed:\n{e}"));
        assert!(
            cells.iter().any(
                |c| c.protected.goodput > 2.0 * c.baseline.goodput && c.protected.goodput > 0.0
            ),
            "no cell preserves >2x the unprotected goodput"
        );
        let best = cells
            .iter()
            .map(degradation::Cell::protection_ratio)
            .filter(|r| r.is_finite())
            .fold(0.0f64, f64::max);
        let mut out = degradation::render(&cells, fidelity).to_string();
        let _ = writeln!(
            out,
            "\nbest finite protection ratio {best:.1}x (inf where the unprotected baseline \
             preserved nothing); goodput degrades monotonically with fault intensity; every \
             run conserves arrivals"
        );
        out.push('\n');
        out += &degradation::to_json(&cells);
        out.push('\n');
        save("degradation.txt", out);
    }

    // Seed robustness.
    if want("seed_robustness") {
        let (configs, n_seeds): (Vec<(TopologySpec, WorkloadSpec)>, u64) = match fidelity {
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
        let mut table = Table::new(
            format!("Speedup across {n_seeds} seeds (mean ± std)"),
            &["configuration", "CWN", "GM", "mean ratio"],
        );
        for (topology, workload) in configs {
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
            let c = sweep(cwn);
            let g = sweep(gm);
            table.row(vec![
                format!("{workload} on {topology}"),
                format!("{} ± {}", f2(c.mean()), f2(c.std_dev())),
                format!("{} ± {}", f2(g.mean()), f2(g.std_dev())),
                f2(c.mean() / g.mean()),
            ]);
        }
        save("seed_robustness.txt", table.to_string());
    }

    // Throughput baseline (events/sec and peak RSS across the bench grid).
    // The copy committed at the repo root is the tracked trajectory; this
    // one documents the machine the rest of results/ was generated on.
    if want("BENCH_throughput") {
        use oracle_bench::throughput::{run_grid, to_json};
        let reps = match fidelity {
            Fidelity::Paper => 3,
            Fidelity::Quick => 1,
        };
        let cells = run_grid(reps, seed);
        save("BENCH_throughput.json", to_json(&cells, reps, seed));
    }

    // Scale grid (events/sec and peak RSS vs PE count). Cells run in
    // subprocesses (VmHWM is per-process monotone), so this shells out to
    // the `scale` binary rather than running in-process.
    if want("BENCH_scale") {
        use oracle_bench::scale::validate_json;
        let out = dir.join("BENCH_scale.json");
        let mut cmd = std::process::Command::new(env!("CARGO"));
        cmd.args([
            "run",
            "--release",
            "-p",
            "oracle-bench",
            "--bin",
            "scale",
            "--",
            "--seed",
            &seed.to_string(),
            "--out",
        ]);
        cmd.arg(&out);
        if matches!(fidelity, Fidelity::Quick) {
            cmd.arg("--quick");
        }
        let status = cmd.status().expect("spawn scale harness");
        assert!(status.success(), "scale harness failed: {status}");
        let json = std::fs::read_to_string(&out).expect("read fresh BENCH_scale.json");
        if matches!(fidelity, Fidelity::Paper) {
            validate_json(&json).unwrap_or_else(|problems| {
                panic!("fresh BENCH_scale.json failed schema validation:\n{problems}")
            });
        }
        let _ = writeln!(index, "- `BENCH_scale.json`");
        eprintln!("wrote {}", out.display());
    }

    if only.is_none() {
        std::fs::write(dir.join("README.md"), index).expect("write index");
    }
    eprintln!("done: {}", dir.display());
}
