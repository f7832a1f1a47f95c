//! Timing one simulation phase by phase, from outside, through the public
//! functions of each layer, and checking what it produced.

use std::time::Instant;

use oracle::model::{Machine, OpenOutcome, Report, Trace};

use crate::cells::{Cell, Expect};
use crate::spans::Tracer;

/// Trace-buffer size for traced runs: large enough to keep every event of
/// the benchmark's workloads (the buffer grows on demand).
const TRACE_CAPACITY: usize = 1 << 26;

/// Host seconds spent in each phase of one simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Spec to ready machine: topology, workload and strategy builds plus
    /// `Machine::new`.
    pub setup: f64,
    /// `Machine::begin` plus the event loop.
    pub run: f64,
    /// `Machine::finish`.
    pub report: f64,
}

impl Phases {
    /// What a CLI user waits for.
    pub fn wall(&self) -> f64 {
        self.setup + self.run + self.report
    }

    /// Add `other` phase by phase.
    pub fn add(&mut self, other: Phases) {
        self.setup += other.setup;
        self.run += other.run;
        self.report += other.report;
    }
}

/// One simulation's timings and checked output.
pub struct CellRun {
    /// Phase timings (meaningful whether or not the run succeeded).
    pub phases: Phases,
    /// The report and trace, or why the run counts as failed.
    pub outcome: Result<(Report, Trace), String>,
    /// Resident set size right after `Machine::new`, in MiB (0 unless read).
    pub rss_after_new_mb: f64,
}

/// Simulate `cell` with machine seed `seed`. With the tracer enabled the
/// machine also keeps its event trace and engine profile, spans are
/// recorded around each layer call, and the event loop runs in slices of
/// `slice` simulated time units. With `read_rss` the resident set is read
/// between the setup and run phases.
pub fn run_cell(
    cell: &Cell,
    seed: u64,
    tracer: &mut Tracer,
    slice: u64,
    read_rss: bool,
) -> CellRun {
    let mut cfg = cell.config.clone();
    cfg.machine.seed = seed;
    let traced = tracer.enabled();
    if traced {
        cfg.machine.profile = true;
        cfg.machine.trace_capacity = TRACE_CAPACITY;
    }
    let mut phases = Phases::default();
    let mut rss_after_new_mb = 0.0;

    let cell_span = tracer.open("cell");
    let t0 = Instant::now();
    let setup_span = tracer.open("setup");
    let topo = tracer.time("topo.build", || cfg.topology.build());
    let program = tracer.time("workloads.build", || cfg.workload.build());
    let (strategy, machine_cfg) = tracer.time("strategies.build", || {
        let mut machine_cfg = cfg.machine.clone();
        cfg.strategy.apply_config(&mut machine_cfg);
        (cfg.strategy.build(), machine_cfg)
    });
    let machine = tracer.time("model.new", || {
        Machine::new(topo, program, strategy, cfg.costs, machine_cfg)
    });
    tracer.close(setup_span);
    phases.setup = t0.elapsed().as_secs_f64();
    let mut machine = match machine {
        Ok(m) => m,
        Err(e) => {
            tracer.close(cell_span);
            return failed(phases, format!("Machine::new: {e}"));
        }
    };
    if read_rss {
        rss_after_new_mb = rss_mb("VmRSS");
    }

    // The RSS read above lies between the setup and run phases.
    let t1 = Instant::now();
    let run_span = tracer.open("run");
    tracer.time("model.begin", || machine.begin());
    let looped = if traced {
        advance_in_slices(&mut machine, tracer, slice.max(1))
    } else {
        machine.advance_until(None).map(|_| ())
    };
    tracer.close(run_span);
    let t2 = Instant::now();
    phases.run = (t2 - t1).as_secs_f64();
    if let Err(e) = looped {
        tracer.close(cell_span);
        return failed(phases, format!("event loop: {e}"));
    }

    let report_span = tracer.open("report");
    let finished = tracer.time("model.finish", || machine.finish());
    tracer.close(report_span);
    phases.report = t2.elapsed().as_secs_f64();
    tracer.close(cell_span);

    let outcome = finished
        .map_err(|e| format!("Machine::finish: {e}"))
        .and_then(|(report, trace)| {
            check(cell.expect, &report)?;
            Ok((report, trace))
        });
    CellRun {
        phases,
        outcome,
        rss_after_new_mb,
    }
}

fn failed(phases: Phases, why: String) -> CellRun {
    CellRun {
        phases,
        outcome: Err(why),
        rss_after_new_mb: 0.0,
    }
}

/// Drive the event loop to completion in slices of `slice` simulated time
/// units, one `model.advance_until` span per slice.
fn advance_in_slices(
    machine: &mut Machine,
    tracer: &mut Tracer,
    slice: u64,
) -> Result<(), oracle::model::SimError> {
    let mut pause_at = slice;
    loop {
        let span = tracer.open("model.advance_until");
        let done = machine.advance_until(Some(pause_at));
        tracer.close(span);
        tracer.set_progress(span, machine.sim_time(), machine.events_processed());
        if done? {
            return Ok(());
        }
        pause_at = machine.sim_time().max(pause_at) + slice;
    }
}

/// Check a report against the cell's analytic expectation, as
/// `RunConfig::run_validated` does, plus goal conservation for closed runs
/// and arrival conservation for open ones.
pub fn check(expect: Expect, report: &Report) -> Result<(), String> {
    match expect {
        Expect::Closed { result, goals } => {
            if report.result != result {
                return Err(format!("result {} != expected {result}", report.result));
            }
            if report.goals_created != goals {
                return Err(format!(
                    "created {} goals, expected {goals}",
                    report.goals_created
                ));
            }
            if report.goals_executed != report.goals_created {
                return Err(format!(
                    "executed {} of {} goals",
                    report.goals_executed, report.goals_created
                ));
            }
        }
        Expect::Open => {
            let o = report
                .open
                .as_ref()
                .ok_or("open cell produced no open metrics")?;
            let accounted = o.completions
                + o.shed
                + o.abandoned_deadline
                + o.abandoned_retries
                + o.inflight_at_end;
            if o.arrivals == 0 || o.arrivals != accounted {
                return Err(format!(
                    "arrival conservation: {} arrivals, {accounted} accounted for",
                    o.arrivals
                ));
            }
            if o.outcome != OpenOutcome::Completed {
                return Err(format!("open run ended {:?}", o.outcome));
            }
        }
    }
    Ok(())
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MiB, or 0
/// where it cannot be read.
pub fn rss_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::cells;

    fn small_cell(expect: Option<Expect>) -> Cell {
        let mut cell = cells("paper_mix").unwrap().swap_remove(2); // fib:15 grid:10 cwn
        if let Some(e) = expect {
            cell.expect = e;
        }
        cell
    }

    #[test]
    fn a_correct_run_passes_its_check() {
        let run = run_cell(&small_cell(None), 1, &mut Tracer::new(false), 1, false);
        let (report, _) = run.outcome.expect("fib:15 checks out");
        assert_eq!(report.result, 610);
        assert!(run.phases.setup > 0.0 && run.phases.run > 0.0);
    }

    #[test]
    fn a_wrong_expected_result_fails_the_run() {
        let wrong = Expect::Closed {
            result: 611,
            goals: 1973,
        };
        let run = run_cell(
            &small_cell(Some(wrong)),
            1,
            &mut Tracer::new(false),
            1,
            false,
        );
        let err = run.outcome.expect_err("mismatch must fail");
        assert!(err.contains("611"), "{err}");
        assert!(run.phases.wall() > 0.0, "a failed run is still timed");
    }

    #[test]
    fn traced_run_slices_the_loop_and_matches_the_untraced_run() {
        let cell = small_cell(None);
        let plain = run_cell(&cell, 3, &mut Tracer::new(false), 1, false);
        let mut tracer = Tracer::new(true);
        let traced = run_cell(&cell, 3, &mut tracer, 100, true);
        let (a, _) = plain.outcome.unwrap();
        let (b, trace) = traced.outcome.unwrap();
        assert_eq!((a.events, a.completion_time), (b.events, b.completion_time));
        assert!(!trace.is_empty());
        assert!(b.profile.is_some());
        let slices = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "model.advance_until")
            .count();
        assert!(slices as u64 >= b.completion_time / 100, "{slices} slices");
        assert!(traced.rss_after_new_mb > 0.0);
    }

    #[test]
    fn open_cell_checks_arrival_conservation() {
        let mut report = run_cell(&small_cell(None), 1, &mut Tracer::new(false), 1, false)
            .outcome
            .unwrap()
            .0;
        assert!(check(Expect::Open, &report).is_err(), "closed report");
        let open = cells("paper_mix").unwrap().pop().unwrap();
        report = run_cell(&open, 1, &mut Tracer::new(false), 1, false)
            .outcome
            .expect("open cell checks out")
            .0;
        let o = report.open.as_mut().unwrap();
        o.arrivals += 1;
        assert!(check(Expect::Open, &report).is_err(), "a lost arrival");
    }
}
