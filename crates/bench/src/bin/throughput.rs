//! Simulator throughput baseline: events/sec and peak RSS across a fixed
//! grid of (workload × topology × strategy) cells.
//!
//! ```sh
//! cargo run --release -p oracle-bench --bin throughput [--quick] [--seed N] \
//!     [--reps N] [--out PATH] [--check PATH] [--tolerance F]
//! ```
//!
//! Writes `BENCH_throughput.json` (or `--out PATH`). The committed copy at
//! the repo root is the tracked trajectory every PR is measured against:
//! `--check PATH` re-runs the grid and fails (exit 1) if the *aggregate*
//! events/sec (total events over total wall time — robust to single-cell
//! timing spikes) regressed by more than `--tolerance` (default 0.25)
//! relative to the stored numbers. CI runs that gate with `--reps 8`, since
//! comparing a single-shot measurement against a best-of-N baseline
//! confounds scheduling luck with real regressions.
//!
//! The cell grid is identical in `--quick` and full mode so the two JSON
//! files stay comparable; `--quick` only drops the repetition count from
//! best-of-3 to a single run (the fastest smoke signal, but noisy).
//!
//! All measurement logic lives in [`oracle_bench::throughput`]; this binary
//! only parses flags (bad flags exit 3 with `error[config]`).

use oracle::flags::{config_error, Command, Flag};
use oracle_bench::throughput::{check, run_grid, to_json};

static FLAGS: Command = Command {
    name: "throughput",
    about: "measure events/sec and peak RSS across the bench grid; write the JSON baseline",
    positional: None,
    flags: &[
        Flag::switch("--quick", "best-of-1 instead of best-of-3"),
        Flag::value("--reps", "N", "best-of-N per cell (overrides --quick)"),
        Flag::value("--seed", "N", "seed for every run (default 1)"),
        Flag::value("--out", "PATH", "output (default BENCH_throughput.json)"),
        Flag::value("--check", "PATH", "exit 1 on a regression vs PATH"),
        Flag::value("--tolerance", "F", "--check tolerance (default 0.25)"),
    ],
};

fn main() {
    let args = FLAGS.parse_or_exit(std::env::args().skip(1));
    let default_reps = if args.has("--quick") { 1 } else { 3 };
    let reps: usize = args
        .parse("--reps", default_reps)
        .unwrap_or_else(|e| config_error(&e));
    let seed: u64 = args.parse("--seed", 1).unwrap_or_else(|e| config_error(&e));
    let tolerance: f64 = args
        .parse("--tolerance", 0.25)
        .unwrap_or_else(|e| config_error(&e));
    let out_path = args.value("--out").unwrap_or("BENCH_throughput.json");
    let check_path = args.value("--check");

    let cells = run_grid(reps, seed);
    let json = to_json(&cells, reps, seed);

    let ok = match check_path {
        Some(path) => {
            let reference = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fatal(&format!("read {path}: {e}")));
            check(&cells, &reference, tolerance)
        }
        None => true,
    };

    std::fs::write(out_path, &json).unwrap_or_else(|e| fatal(&format!("write {out_path}: {e}")));
    eprintln!("wrote {out_path}");
    if !ok {
        std::process::exit(1);
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
