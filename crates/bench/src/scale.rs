//! Scale benchmark: build time, run time, events/sec and peak RSS versus
//! PE count.
//!
//! Where perfbench times four fixed workloads, this grid measures the
//! *memory model*: a torus and a random-graph cell at 10³, 10⁴, 10⁵, and
//! 10⁶ PEs, each run `cwn` over a fixed task tree. The committed
//! `BENCH_scale.json` at the repo root records the trajectory; the
//! acceptance line is the 10⁶-PE torus completing under 2 GB of peak RSS
//! (CI holds it to 64 MiB: per-PE and per-channel state is paged, so
//! memory follows the PEs a run touches). Each cell splits its wall time
//! into `build_secs` (topology, workload, strategy and `Machine::new`) and
//! `run_secs` (the event loop and the report), so construction cost at 10⁶
//! PEs no longer hides inside the events/s figure.
//!
//! `VmHWM` is a per-process monotonic high-water mark, so cells must not
//! share a process: the `scale` binary re-executes itself once per cell
//! (`--cell NAME`) and each child reports its own peak. One line of
//! `CELL {...}` JSON per child is the whole protocol.

use std::fmt::Write as _;
use std::time::Instant;

use oracle::model::{LoadInfoMode, MachineConfig};
use oracle::prelude::*;

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

/// Peak-RSS budget for every cell (the acceptance bound for the 10⁶-PE
/// torus; the smaller cells sit far under it).
pub const RSS_BUDGET_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// One measured cell.
pub struct ScaleCell {
    /// Topology spec string, e.g. `torus:1000`.
    pub name: String,
    /// PE count of the topology.
    pub pes: usize,
    /// Simulated events in the run.
    pub events: u64,
    /// Wall-clock seconds to build the machine: topology, workload,
    /// strategy and `Machine::new`.
    pub build_secs: f64,
    /// Wall-clock seconds to run the built machine: the event loop and the
    /// report.
    pub run_secs: f64,
    /// Wall-clock seconds for build and run together (at this scale,
    /// construction *is* part of the cost being measured).
    pub wall_secs: f64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
    /// The cell process's peak RSS in bytes (`VmHWM`).
    pub peak_rss_bytes: u64,
}

/// The benchmark grid: torus and random-graph cells at each decade.
/// `quick` keeps only the two smallest decades of each family (CI smoke).
pub fn cell_names(quick: bool) -> Vec<&'static str> {
    let all = [
        "torus:32",    // 1 024 PEs
        "torus:100",   // 10 000 PEs
        "torus:316",   // 99 856 PEs
        "torus:1000",  // 1 000 000 PEs — the acceptance cell
        "rand:1000x4", // random 4-regular-ish graphs, same decades
        "rand:10000x4",
        "rand:100000x4",
        "rand:1000000x4",
    ];
    all.into_iter()
        .filter(|name| !quick || cell_pes(name) <= 10_000)
        .collect()
}

/// PE count of a grid cell (parses the spec; cheap, no build).
pub fn cell_pes(name: &str) -> usize {
    name.parse::<TopologySpec>()
        .unwrap_or_else(|e| panic!("scale cell {name}: {e}"))
        .num_pes()
}

/// Run one cell in the current process and read this process's peak RSS.
///
/// The configuration is fixed: `cwn` (the paper's radius-9 parameters)
/// over `fib:20`, piggyback-only load information. Periodic load-word
/// broadcasts are off (`period: 0`) because they cost O(num PEs) events
/// per period — a time cost, not a memory one, and this grid isolates
/// memory scaling.
pub fn run_cell(name: &str, seed: u64) -> ScaleCell {
    let topology: TopologySpec = name
        .parse()
        .unwrap_or_else(|e| panic!("scale cell {name}: {e}"));
    let machine = MachineConfig {
        seed,
        load_info: LoadInfoMode::Piggyback { period: 0 },
        ..MachineConfig::default()
    };
    let config = SimulationBuilder::new()
        .topology(topology)
        .strategy(StrategySpec::Cwn {
            radius: 9,
            horizon: 1,
        })
        .workload(WorkloadSpec::fib(20))
        .machine(machine)
        .config();
    let t0 = Instant::now();
    let machine = config
        .machine()
        .unwrap_or_else(|e| panic!("scale cell {name}: {e}"));
    let t1 = Instant::now();
    let report = machine
        .run()
        .unwrap_or_else(|e| panic!("scale cell {name}: {e}"));
    let t2 = Instant::now();
    let wall_secs = (t2 - t0).as_secs_f64();
    ScaleCell {
        name: name.to_string(),
        pes: topology.num_pes(),
        events: report.events,
        build_secs: (t1 - t0).as_secs_f64(),
        run_secs: (t2 - t1).as_secs_f64(),
        wall_secs,
        events_per_sec: report.events as f64 / wall_secs.max(1e-9),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// The one-line child → parent protocol: `CELL {...}` on stdout.
pub fn cell_line(c: &ScaleCell) -> String {
    format!("CELL {}", cell_json(c))
}

/// One cell as a single-line JSON object (shared by the protocol line and
/// the committed file).
fn cell_json(c: &ScaleCell) -> String {
    format!(
        "{{\"name\": \"{}\", \"pes\": {}, \"events\": {}, \"build_secs\": {:.6}, \
         \"run_secs\": {:.6}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.0}, \
         \"peak_rss_bytes\": {}}}",
        c.name,
        c.pes,
        c.events,
        c.build_secs,
        c.run_secs,
        c.wall_secs,
        c.events_per_sec,
        c.peak_rss_bytes
    )
}

/// Parse a [`cell_line`] back (the workspace carries no JSON parser; this
/// reads the exact schema `cell_line` writes).
pub fn parse_cell_line(line: &str) -> Option<ScaleCell> {
    let body = line.strip_prefix("CELL ")?;
    let str_field = |key: &str| -> Option<String> {
        let tag = format!("\"{key}\": \"");
        let at = body.find(&tag)? + tag.len();
        let rest = &body[at..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let num_field = |key: &str| -> Option<f64> {
        let tag = format!("\"{key}\": ");
        let at = body.find(&tag)? + tag.len();
        let rest = &body[at..];
        let end = rest
            .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-'))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    Some(ScaleCell {
        name: str_field("name")?,
        pes: num_field("pes")? as usize,
        events: num_field("events")? as u64,
        build_secs: num_field("build_secs")?,
        run_secs: num_field("run_secs")?,
        wall_secs: num_field("wall_secs")?,
        events_per_sec: num_field("events_per_sec")?,
        peak_rss_bytes: num_field("peak_rss_bytes")? as u64,
    })
}

/// Schema tag of the committed file; v2 added `build_secs` and `run_secs`.
const SCHEMA: &str = "oracle-bench-scale/v2";

/// Render the grid as the `oracle-bench-scale/v2` JSON.
pub fn to_json(cells: &[ScaleCell], seed: u64) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"rss_budget_bytes\": {RSS_BUDGET_BYTES},");
    let _ = writeln!(s, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(s, "    {}{comma}", cell_json(c));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Validate a `BENCH_scale.json` blob: schema tag, well-formed cells (every
/// field present, build plus run adding up to the wall time), the four
/// torus decades present, and every recorded peak RSS within budget.
/// Returns a list of problems (empty means valid). CI runs this against
/// the committed file.
pub fn validate_json(json: &str) -> Result<(), String> {
    let mut problems = Vec::new();
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        problems.push(format!("missing or wrong schema tag (want {SCHEMA})"));
    }
    let mut cells = Vec::new();
    for line in json.lines() {
        let trimmed = line.trim().trim_end_matches(',');
        if !trimmed.starts_with("{\"name\"") {
            continue;
        }
        match parse_cell_line(&format!("CELL {trimmed}")) {
            Some(c) => cells.push(c),
            None => problems.push(format!("malformed cell line: {trimmed}")),
        }
    }
    for want in ["torus:32", "torus:100", "torus:316", "torus:1000"] {
        if !cells.iter().any(|c| c.name == want) {
            problems.push(format!("missing torus cell {want}"));
        }
    }
    for c in &cells {
        if c.peak_rss_bytes == 0 {
            problems.push(format!("cell {}: peak RSS was not recorded", c.name));
        } else if c.peak_rss_bytes > RSS_BUDGET_BYTES {
            problems.push(format!(
                "cell {}: peak RSS {} bytes exceeds the {} byte budget",
                c.name, c.peak_rss_bytes, RSS_BUDGET_BYTES
            ));
        }
        if c.events == 0 {
            problems.push(format!("cell {}: zero events", c.name));
        }
        // Each field is rounded to 1 µs, so allow a few µs of slack.
        if (c.build_secs + c.run_secs - c.wall_secs).abs() > 5e-6 {
            problems.push(format!(
                "cell {}: build_secs {} + run_secs {} != wall_secs {}",
                c.name, c.build_secs, c.run_secs, c.wall_secs
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ScaleCell> {
        ["torus:32", "torus:100", "torus:316", "torus:1000"]
            .iter()
            .enumerate()
            .map(|(i, name)| ScaleCell {
                name: name.to_string(),
                pes: 10usize.pow(3 + i as u32),
                events: 1000,
                build_secs: 0.125,
                run_secs: 0.375,
                wall_secs: 0.5,
                events_per_sec: 2000.0,
                peak_rss_bytes: 100 << 20,
            })
            .collect()
    }

    #[test]
    fn cell_line_roundtrips() {
        for c in sample() {
            let parsed = parse_cell_line(&cell_line(&c)).expect("parse back");
            assert_eq!(parsed.name, c.name);
            assert_eq!(parsed.pes, c.pes);
            assert_eq!(parsed.events, c.events);
            assert_eq!(parsed.build_secs, c.build_secs);
            assert_eq!(parsed.run_secs, c.run_secs);
            assert_eq!(parsed.peak_rss_bytes, c.peak_rss_bytes);
        }
        assert!(parse_cell_line("not a cell").is_none());
    }

    #[test]
    fn json_validates_and_catches_problems() {
        let good = to_json(&sample(), 1);
        validate_json(&good).expect("well-formed grid validates");

        let mut missing = sample();
        missing.retain(|c| c.name != "torus:1000");
        let err = validate_json(&to_json(&missing, 1)).unwrap_err();
        assert!(err.contains("torus:1000"), "{err}");

        let mut fat = sample();
        fat[0].peak_rss_bytes = RSS_BUDGET_BYTES + 1;
        let err = validate_json(&to_json(&fat, 1)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        let mut split = sample();
        split[1].run_secs = 0.5;
        let err = validate_json(&to_json(&split, 1)).unwrap_err();
        assert!(err.contains("torus:100: build_secs"), "{err}");

        // A v1 file (no build/run split) no longer validates.
        let v1 = good
            .replace(SCHEMA, "oracle-bench-scale/v1")
            .replace("\"build_secs\": 0.125000, \"run_secs\": 0.375000, ", "");
        let err = validate_json(&v1).unwrap_err();
        assert!(err.contains("wrong schema tag"), "{err}");
        assert!(err.contains("malformed cell line"), "{err}");

        assert!(validate_json("{}").is_err(), "empty JSON must not validate");
    }

    #[test]
    fn grid_covers_both_representations() {
        let names = cell_names(false);
        assert_eq!(names.len(), 8);
        // Cells on both sides of 64 Ki PEs: small machines whose pages
        // all get touched, and large ones that stay mostly untouched.
        assert!(names.iter().any(|n| cell_pes(n) <= 65_536));
        assert!(names.iter().any(|n| cell_pes(n) > 65_536));
        // Quick mode keeps it CI-sized.
        for name in cell_names(true) {
            assert!(cell_pes(name) <= 10_000, "{name} too big for quick");
        }
    }

    #[test]
    fn smallest_cell_runs_in_process() {
        let c = run_cell("torus:32", 1);
        assert_eq!(c.pes, 1024);
        assert!(c.events > 0);
        assert!(c.build_secs > 0.0 && c.run_secs > 0.0);
        assert!(c.peak_rss_bytes > 0, "RSS must be readable on Linux");
    }
}
