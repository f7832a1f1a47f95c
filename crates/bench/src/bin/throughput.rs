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
//! only parses flags.

use oracle_bench::throughput::{check, run_grid, to_json};

fn main() {
    let mut out_path = String::from("BENCH_throughput.json");
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut reps = 3usize;
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--quick" => reps = 1,
            "--reps" => reps = parse(&value("--reps"), "--reps"),
            "--seed" => seed = parse(&value("--seed"), "--seed"),
            "--out" => out_path = value("--out"),
            "--check" => check_path = Some(value("--check")),
            "--tolerance" => tolerance = parse(&value("--tolerance"), "--tolerance"),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let cells = run_grid(reps, seed);
    let json = to_json(&cells, reps, seed);

    let ok = match &check_path {
        Some(path) => {
            let reference = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fatal(&format!("read {path}: {e}")));
            check(&cells, &reference, tolerance)
        }
        None => true,
    };

    std::fs::write(&out_path, &json).unwrap_or_else(|e| fatal(&format!("write {out_path}: {e}")));
    eprintln!("wrote {out_path}");
    if !ok {
        std::process::exit(1);
    }
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage(&format!("bad {flag} value {s}")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: throughput [--quick] [--reps N] [--seed N] [--out PATH] [--check PATH] \
         [--tolerance F]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
