//! Regenerate `BENCH_scale.json`: build and run time, events/sec and peak
//! RSS vs PE count.
//!
//! ```sh
//! cargo run --release -p oracle-bench --bin scale [-- --quick] [--seed N] [--out FILE]
//! cargo run --release -p oracle-bench --bin scale -- --cell torus:316   # one cell, in-process
//! cargo run --release -p oracle-bench --bin scale -- --check FILE      # schema validation
//! ```
//!
//! `VmHWM` is a per-process monotonic high-water mark, so the default mode
//! re-executes this binary once per cell (`--cell`) and collects each
//! child's `CELL {...}` line — every recorded peak RSS belongs to exactly
//! one cell. `--cell` alone runs in-process and prints the line (this is
//! what CI's `scale-smoke` job wraps in `/usr/bin/time -v`). `--check`
//! validates a committed `BENCH_scale.json` without running anything.

use std::path::PathBuf;
use std::process::Command;

use oracle_bench::scale::{
    cell_line, cell_names, parse_cell_line, run_cell, to_json, validate_json,
};

fn main() {
    let mut quick = false;
    let mut seed = 1u64;
    let mut out = PathBuf::from("BENCH_scale.json");
    let mut cell: Option<String> = None;
    let mut check: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--out" => out = PathBuf::from(args.next().expect("--out needs a path")),
            "--cell" => cell = Some(args.next().expect("--cell needs a topology spec")),
            "--check" => check = Some(PathBuf::from(args.next().expect("--check needs a path"))),
            other => panic!("unknown flag {other}"),
        }
    }

    if let Some(path) = check {
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        match validate_json(&json) {
            Ok(()) => {
                eprintln!("{}: schema valid", path.display());
                return;
            }
            Err(problems) => {
                eprintln!("{}: INVALID\n{problems}", path.display());
                std::process::exit(2);
            }
        }
    }

    if let Some(name) = cell {
        // Child mode: one cell, this process, peak RSS is ours alone.
        let c = run_cell(&name, seed);
        println!("{}", cell_line(&c));
        return;
    }

    // Parent mode: one subprocess per cell so VmHWM readings don't bleed
    // across cells.
    let exe = std::env::current_exe().expect("own executable path");
    let mut cells = Vec::new();
    for name in cell_names(quick) {
        eprintln!("running {name} ...");
        let output = Command::new(&exe)
            .args(["--cell", name, "--seed", &seed.to_string()])
            .output()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        if !output.status.success() {
            panic!(
                "cell {name} failed ({}):\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            );
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let c = stdout
            .lines()
            .find_map(parse_cell_line)
            .unwrap_or_else(|| panic!("cell {name} printed no CELL line:\n{stdout}"));
        eprintln!(
            "{:<16} {:>9} PEs  {:>9} events  build {:>6.2} s  run {:>6.2} s  \
             {:>12.0} events/s  peak RSS {:>7.1} MiB",
            c.name,
            c.pes,
            c.events,
            c.build_secs,
            c.run_secs,
            c.events_per_sec,
            c.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        );
        cells.push(c);
    }
    let json = to_json(&cells, seed);
    if !quick {
        // A quick grid intentionally omits the large decades, which the
        // full-schema validation requires.
        validate_json(&json).unwrap_or_else(|problems| {
            panic!("fresh scale grid failed its own schema validation:\n{problems}")
        });
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("wrote {}", out.display());
}
