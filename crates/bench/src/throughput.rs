//! Events/sec throughput measurement over a fixed benchmark grid.
//!
//! The grid is (workload × topology × strategy): the paper's two
//! interconnection schemes, three task-tree shapes, and both load
//! distribution methods, plus one open-arrival cell and one 1024-PE
//! `grid:32` cell. The headline cell — the one the tracked speedup
//! trajectory quotes — is `fib:20/grid:10/cwn`, always first.
//!
//! The committed `BENCH_throughput.json` at the repo root is the tracked
//! baseline every PR is measured against; [`check`] re-runs the grid and
//! flags any cell whose events/sec regressed beyond a tolerance. The JSON
//! is emitted and read by purpose-built code for the exact schema below —
//! the workspace deliberately carries no JSON parser.

use std::fmt::Write as _;
use std::time::Instant;

use oracle::builder::paper_strategies;
use oracle::prelude::*;

/// One measured cell of the benchmark grid.
pub struct Cell {
    /// Stable cell key, e.g. `fib:20/grid:10/cwn`.
    pub name: String,
    /// Simulated events in one run.
    pub events: u64,
    /// Simulated completion time (units).
    pub completion_time: u64,
    /// Best wall-clock seconds over the repetitions.
    pub wall_secs: f64,
    /// `events / wall_secs` for the best repetition.
    pub events_per_sec: f64,
    /// Process peak RSS in bytes as of the end of this cell. `VmHWM` is a
    /// monotonic per-process high-water mark, so this is cumulative across
    /// the grid — the last cell's value is the run's peak.
    pub peak_rss_bytes: u64,
}

/// The fixed benchmark grid. The `Option<OpenTraffic>` is the open-traffic
/// config — `None` for the closed (single task tree) cells.
pub type GridSpec = (
    String,
    TopologySpec,
    WorkloadSpec,
    StrategySpec,
    Option<OpenTraffic>,
);

/// The fixed benchmark grid.
pub fn grid_specs() -> Vec<GridSpec> {
    let mut specs = Vec::new();
    for (tname, topology) in [
        ("grid:10", TopologySpec::grid(10)),
        ("dlm:10", TopologySpec::dlm(10)),
    ] {
        let (cwn, gm) = paper_strategies(&topology);
        for (wname, workload) in [
            ("fib:20", WorkloadSpec::fib(20)),
            ("fib:15", WorkloadSpec::fib(15)),
            ("dc:4181", WorkloadSpec::dc(4181)),
        ] {
            for (sname, strategy) in [("cwn", cwn), ("gm", gm)] {
                specs.push((
                    format!("{wname}/{tname}/{sname}"),
                    topology,
                    workload,
                    strategy,
                    None,
                ));
            }
        }
    }
    // One open-arrival cell: sustained Poisson traffic on the headline
    // grid, exercising the arrival/injection/sojourn-tracking hot path the
    // closed cells never touch.
    let topology = TopologySpec::grid(10);
    let (cwn, _) = paper_strategies(&topology);
    let mut open = OpenTraffic::new("poisson:20".parse().expect("fixed bench spec"), 20_000);
    open.warmup = 2_000;
    specs.push((
        "open-poisson:20-fib:11/grid:10/cwn".to_string(),
        topology,
        WorkloadSpec::fib(11),
        cwn,
        Some(open),
    ));
    // One 1024-PE cell: paper CWN with the co-processor on (the default).
    // Its instants hold hundreds of same-time events, which the 100-PE
    // cells never produce, so it keeps the event queue's same-instant
    // pops under the regression gate.
    let topology = TopologySpec::grid(32);
    let (cwn, _) = paper_strategies(&topology);
    specs.push((
        "fib:20/grid:32/cwn".to_string(),
        topology,
        WorkloadSpec::fib(20),
        cwn,
        None,
    ));
    // Put the headline cell first.
    specs.sort_by_key(|(name, ..)| (name != "fib:20/grid:10/cwn") as u8);
    specs
}

/// Run every cell of the grid, best-of-`reps` wall clock, printing one
/// progress line per cell to stderr.
pub fn run_grid(reps: usize, seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (name, topology, workload, strategy, open) in grid_specs() {
        let config = SimulationBuilder::new()
            .topology(topology)
            .workload(workload)
            .strategy(strategy)
            .seed(seed)
            .open(open)
            .config();
        let mut best_secs = f64::INFINITY;
        let mut report = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = config
                .run()
                .unwrap_or_else(|e| panic!("throughput cell {name}: {e}"));
            best_secs = best_secs.min(t0.elapsed().as_secs_f64());
            report = Some(r);
        }
        let report = report.expect("at least one repetition");
        let cell = Cell {
            name,
            events: report.events,
            completion_time: report.completion_time,
            wall_secs: best_secs,
            events_per_sec: report.events as f64 / best_secs.max(1e-9),
            peak_rss_bytes: peak_rss_bytes(),
        };
        eprintln!(
            "{:<24} {:>9} events  {:>8.3} ms  {:>12.0} events/s",
            cell.name,
            cell.events,
            cell.wall_secs * 1e3,
            cell.events_per_sec,
        );
        cells.push(cell);
    }
    cells
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`, falling
/// back to the instantaneous `VmRSS` on kernels that omit the high-water
/// mark), or 0 where /proc is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let field = |prefix: &str| {
        status.lines().find_map(|line| {
            let kb: u64 = line
                .strip_prefix(prefix)?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(kb * 1024)
        })
    };
    field("VmHWM:").or_else(|| field("VmRSS:")).unwrap_or(0)
}

/// Render the measured cells as the `oracle-bench-throughput/v3` JSON.
/// v2 added the per-cell `peak_rss_bytes` field; v3 drops v2's per-cell
/// `shards` and `wall_secs_parallel` fields. `wall_secs` and
/// `events_per_sec` are unchanged since v1, so consumers keyed on them
/// still compare like-for-like.
pub fn to_json(cells: &[Cell], reps: usize, seed: u64) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"oracle-bench-throughput/v3\",");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"peak_rss_bytes\": {},", peak_rss_bytes());
    let _ = writeln!(s, "  \"headline\": \"{}\",", cells[0].name);
    let _ = writeln!(s, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"events\": {}, \"completion_time\": {}, \
             \"wall_secs\": {:.6}, \"events_per_sec\": {:.0}, \
             \"peak_rss_bytes\": {}}}{comma}",
            c.name, c.events, c.completion_time, c.wall_secs, c.events_per_sec, c.peak_rss_bytes,
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Compare fresh cells against a stored JSON baseline (matched by cell
/// name) with a `tolerance` relative regression allowance.
///
/// The pass/fail verdict is the *aggregate* grid throughput — total events
/// over total wall time. Individual cells run for single-digit
/// milliseconds, where one scheduler preemption doubles the reading;
/// summing the grid averages those spikes out and weights the verdict
/// toward the long, stable cells, so a smoke run (`--quick`) is meaningful
/// on a noisy CI box. Per-cell shortfalls still print as advisories.
/// Returns false if the aggregate regressed past `tolerance` or nothing
/// could be compared.
pub fn check(cells: &[Cell], reference: &str, tolerance: f64) -> bool {
    let mut compared = 0;
    let (mut events, mut secs, mut ref_secs) = (0u64, 0f64, 0f64);
    for c in cells {
        let Some(ref_eps) = lookup_events_per_sec(reference, &c.name) else {
            continue;
        };
        compared += 1;
        events += c.events;
        secs += c.wall_secs;
        ref_secs += c.events as f64 / ref_eps;
        if c.events_per_sec < ref_eps * (1.0 - tolerance) {
            eprintln!(
                "  slow cell {}: {:.0} events/s vs committed {:.0} (advisory)",
                c.name, c.events_per_sec, ref_eps
            );
        }
    }
    if compared == 0 {
        eprintln!("REGRESSION check: no matching cells in reference file");
        return false;
    }
    let aggregate = events as f64 / secs.max(1e-9);
    let ref_aggregate = events as f64 / ref_secs.max(1e-9);
    let floor = ref_aggregate * (1.0 - tolerance);
    let ok = aggregate >= floor;
    eprintln!(
        "checked {compared} cells: aggregate {aggregate:.0} events/s vs committed \
         {ref_aggregate:.0} (floor {floor:.0}, tolerance {:.0}%): {}",
        tolerance * 100.0,
        if ok { "ok" } else { "REGRESSED" }
    );
    ok
}

/// Extract `events_per_sec` for the named cell from [`to_json`] output.
pub fn lookup_events_per_sec(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let key = "\"events_per_sec\": ";
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cells() -> Vec<Cell> {
        vec![
            Cell {
                name: "a/b/c".into(),
                events: 100,
                completion_time: 50,
                wall_secs: 0.01,
                events_per_sec: 10_000.0,
                peak_rss_bytes: 4096,
            },
            Cell {
                name: "d/e/f".into(),
                events: 200,
                completion_time: 70,
                wall_secs: 0.02,
                events_per_sec: 10_000.0,
                peak_rss_bytes: 8192,
            },
        ]
    }

    #[test]
    fn json_roundtrips_events_per_sec() {
        let json = to_json(&sample_cells(), 3, 1);
        assert!(json.contains("\"schema\": \"oracle-bench-throughput/v3\""));
        assert!(json.contains("\"peak_rss_bytes\": 4096}"));
        assert_eq!(lookup_events_per_sec(&json, "a/b/c"), Some(10_000.0));
        assert_eq!(lookup_events_per_sec(&json, "d/e/f"), Some(10_000.0));
        assert_eq!(lookup_events_per_sec(&json, "missing"), None);
    }

    #[test]
    fn check_passes_within_tolerance_and_fails_beyond() {
        let reference = to_json(&sample_cells(), 3, 1);

        // One slow cell, aggregate -8%: within the 25% allowance (the
        // verdict is total events over total wall time, so a single noisy
        // cell cannot fail the gate on its own).
        let mut fresh = sample_cells();
        fresh[0].wall_secs = 0.0125;
        fresh[0].events_per_sec = 8_000.0;
        assert!(check(&fresh, &reference, 0.25));

        // Everything ~30% slower: aggregate regression beyond 25%.
        let mut slow = sample_cells();
        for c in &mut slow {
            c.wall_secs /= 0.7;
            c.events_per_sec *= 0.7;
        }
        assert!(!check(&slow, &reference, 0.25));
    }

    #[test]
    fn check_fails_when_nothing_matches() {
        let reference = to_json(&sample_cells(), 3, 1);
        let stranger = vec![Cell {
            name: "x/y/z".into(),
            events: 1,
            completion_time: 1,
            wall_secs: 1.0,
            events_per_sec: 1.0,
            peak_rss_bytes: 0,
        }];
        assert!(!check(&stranger, &reference, 0.25));
    }

    #[test]
    fn headline_cell_is_first() {
        let specs = grid_specs();
        assert_eq!(specs[0].0, "fib:20/grid:10/cwn");
        assert_eq!(specs.len(), 14);
        let open: Vec<_> = specs.iter().filter(|s| s.4.is_some()).collect();
        assert_eq!(open.len(), 1, "exactly one open-arrival cell");
        assert!(open[0].0.starts_with("open-"));
    }
}
