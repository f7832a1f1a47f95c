//! Host-time benchmark of the ORACLE simulator, attributed to phases
//! (setup, run, report) and to the crates that make up each phase.
//!
//! ```text
//! oracle-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! One invocation measures one workload in this single-threaded process.
//! Every pass simulates each of the workload's cells once, with a machine
//! seed derived from `--seed` and the pass number, and checks its output;
//! passes repeat until `--seconds` have elapsed. The last line of standard
//! output is a JSON object `{correct, attempted, failed, metrics}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones: medians over the
//! passes of setup, run, report and wall time, event throughput, and the
//! process's peak RSS. With `--trace 1` the first half of the time runs
//! untraced passes and the second half traced ones (spans around every
//! layer call, the event loop in slices, the machine's own trace and
//! engine profile); then the layer probes run, and the metrics are the
//! per-layer ones.

mod cells;
mod measure;
mod metrics;
mod probes;
mod spans;
mod stats;
mod traced;

use std::time::Instant;

use oracle::model::{Report, Trace};

use cells::{cells, pass_seed, Cell};
use measure::{rss_mb, run_cell, Phases};
use metrics::Metric;
use spans::Tracer;
use stats::median;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(cells) = cells(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (expected one of {})",
            args.workload,
            cells::WORKLOADS.join(", ")
        );
        std::process::exit(2);
    };
    for cell in &cells {
        let c = &cell.config;
        let mut line = format!(
            "cell {} topology {} strategy {} workload {} coprocessor {} load_info {:?}",
            cell.name,
            c.topology,
            c.strategy,
            c.workload,
            c.machine.coprocessor,
            c.machine.load_info
        );
        if let Some(o) = &c.machine.open {
            line.push_str(&format!(
                " arrivals {} duration {} warmup {}",
                o.arrivals, o.duration, o.warmup
            ));
        }
        println!("{line}");
    }
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced::traced(&args, &cells, &mut tally)
    } else {
        untraced(&args, &cells, &mut tally)
    };
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    println!("runs attempted {} failed {}", tally.attempted, tally.failed);
    println!(
        "{}",
        metrics::result_json(tally.failed == 0, tally.attempted, tally.failed, &metrics)
    );
}

/// Simulations attempted and failed in this process.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// One pass over a workload's cells.
struct Pass {
    /// Phase times summed over the cells.
    phases: Phases,
    /// Each cell's phase times.
    cells: Vec<Phases>,
    /// Simulated events summed over the cells that succeeded.
    events: u64,
    /// Each cell's `(events, completion_time)`, `None` if it failed.
    sims: Vec<Option<(u64, u64)>>,
    /// Largest resident set right after a `Machine::new`, in MiB (0 when
    /// not read).
    rss_after_new_mb: f64,
}

/// Run every cell once with machine seed `machine_seed`, reading the
/// resident set after each `Machine::new` if `read_rss`. `keep` receives
/// each successful cell's report and trace.
fn run_pass(
    cells: &[Cell],
    machine_seed: u64,
    tracer: &mut Tracer,
    slices: &[u64],
    read_rss: bool,
    tally: &mut Tally,
    mut keep: impl FnMut(usize, Report, Trace),
) -> Pass {
    let mut out = Pass {
        phases: Phases::default(),
        cells: Vec::with_capacity(cells.len()),
        events: 0,
        sims: Vec::with_capacity(cells.len()),
        rss_after_new_mb: 0.0,
    };
    for (i, cell) in cells.iter().enumerate() {
        tally.attempted += 1;
        let run = run_cell(
            cell,
            machine_seed,
            tracer,
            slices.get(i).copied().unwrap_or(1),
            read_rss,
        );
        out.phases.add(run.phases);
        out.rss_after_new_mb = out.rss_after_new_mb.max(run.rss_after_new_mb);
        out.cells.push(run.phases);
        match run.outcome {
            Ok((report, trace)) => {
                out.events += report.events;
                out.sims.push(Some((report.events, report.completion_time)));
                keep(i, report, trace);
            }
            Err(e) => {
                out.sims.push(None);
                tally.fail(format!("{} seed {machine_seed}: {e}", cell.name));
            }
        }
    }
    out
}

/// Whether to start another pass: only while one more pass of the mean
/// length so far is expected to end within half a pass of `budget`, so a
/// run ends close to its budget.
fn another_pass(start: Instant, passes: usize, budget: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    passes == 0 || elapsed + 0.5 * elapsed / passes as f64 <= budget
}

/// Untraced passes for about `budget` seconds (at least `min_passes`).
/// The first pass reads the resident set after each `Machine::new` if
/// `read_rss`.
fn untraced_passes(
    cells: &[Cell],
    seed: u64,
    budget: f64,
    min_passes: usize,
    read_rss: bool,
    tally: &mut Tally,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut tracer = Tracer::new(false);
    let mut passes = Vec::new();
    while passes.len() < min_passes || another_pass(start, passes.len(), budget) {
        let pass = passes.len();
        let first = pass == 0 && read_rss;
        let p = run_pass(
            cells,
            pass_seed(seed, pass),
            &mut tracer,
            &[],
            first,
            tally,
            |_, _, _| {},
        );
        passes.push(p);
    }
    passes
}

/// `f` of every pass.
fn series(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

fn untraced(args: &Args, cells: &[Cell], tally: &mut Tally) -> Vec<Metric> {
    let passes = untraced_passes(cells, args.seed, args.seconds, 1, false, tally);
    print_sims(cells, &passes[0]);
    for (i, p) in passes.iter().enumerate() {
        println!(
            "pass {i} seed {} setup_s {} run_s {} report_s {} events {}",
            pass_seed(args.seed, i),
            p.phases.setup,
            p.phases.run,
            p.phases.report,
            p.events
        );
    }
    let timings = [
        ("setup_s", series(&passes, |p| p.phases.setup)),
        ("run_s", series(&passes, |p| p.phases.run)),
        ("report_s", series(&passes, |p| p.phases.report)),
        ("wall_s", series(&passes, |p| p.phases.wall())),
        (
            "events_per_s",
            series(&passes, |p| p.events as f64 / p.phases.run),
        ),
    ];
    let mut out = Vec::new();
    for (name, values) in timings {
        let m = Metric::new(name, median(&values));
        println!("{}", metrics::describe(&m, &values));
        out.push(m);
    }
    let peak = Metric::new("peak_rss_mb", rss_mb("VmHWM"));
    println!("{}", metrics::describe(&peak, &[peak.value]));
    out.push(peak);
    out
}

/// The first pass's simulated events and completion time per cell: exact
/// counts that repeat for a given `--seed`.
fn print_sims(cells: &[Cell], pass: &Pass) {
    for (cell, sim) in cells.iter().zip(&pass.sims) {
        match sim {
            Some((events, t)) => println!("sim {} events {events} completion_time {t}", cell.name),
            None => println!("sim {} failed", cell.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::Expect;

    #[test]
    fn a_run_with_a_wrong_expected_result_counts_as_failed_not_dropped() {
        let mut cells = cells("paper_mix").unwrap();
        cells.truncate(3);
        cells[1].expect = Expect::Closed {
            result: -1,
            goals: 1,
        };
        let mut tally = Tally::default();
        let pass = run_pass(
            &cells,
            1,
            &mut Tracer::new(false),
            &[],
            false,
            &mut tally,
            |_, _, _| {},
        );
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!(
            tally.failures[0].starts_with(&cells[1].name),
            "{:?}",
            tally.failures
        );
        assert!(pass.sims[0].is_some() && pass.sims[1].is_none() && pass.sims[2].is_some());
        // The failed run's time still counts toward the pass.
        assert_eq!(pass.cells.len(), 3);
        assert!(pass.cells[1].wall() > 0.0);
    }
}
