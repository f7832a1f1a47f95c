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
//! validates a committed `BENCH_scale.json` without running anything. Bad
//! flags exit 3 with `error[config]`.

use std::path::Path;
use std::process::Command;

use oracle::flags::{self, config_error, Flag};
use oracle::topo::TopologySpec;
use oracle_bench::scale::{
    cell_line, cell_names, parse_cell_line, run_cell, to_json, validate_json,
};

static FLAGS: flags::Command = flags::Command {
    name: "scale",
    about: "measure build/run time, events/sec and peak RSS vs PE count; write the JSON baseline",
    positional: None,
    flags: &[
        Flag::switch("--quick", "only the decades up to 10^4 PEs"),
        Flag::value("--seed", "N", "seed for every run (default 1)"),
        Flag::value("--out", "FILE", "output (default BENCH_scale.json)"),
        Flag::value("--cell", "SPEC", "run one cell in this process"),
        Flag::value("--check", "FILE", "only validate a JSON baseline"),
    ],
};

fn main() {
    let args = FLAGS.parse_or_exit(std::env::args().skip(1));
    let quick = args.has("--quick");
    let seed: u64 = args.parse("--seed", 1).unwrap_or_else(|e| config_error(&e));
    let out = Path::new(args.value("--out").unwrap_or("BENCH_scale.json"));
    let cell = args.value("--cell");
    let check = args.value("--check").map(Path::new);

    if let Some(path) = check {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error[io]: {}: {e}", path.display());
            std::process::exit(3);
        });
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
        if let Err(e) = name.parse::<TopologySpec>() {
            config_error(&format!("--cell {name:?}: {e}"));
        }
        let c = run_cell(name, seed);
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
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("wrote {}", out.display());
}
