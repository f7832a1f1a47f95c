//! Graceful degradation — goodput under overload and faults, protected vs
//! unprotected, CWN vs GM.
//!
//! The robustness analogue of the capacity search: instead of asking how
//! much traffic the machine *can* carry, offer it more than it can carry
//! (roughly 2–8× the measured capacity knee), crash a growing fraction of
//! the PEs mid-window, and measure how much *goodput* — completions within
//! their deadline per 1000 time units — each configuration preserves. Every
//! (topology, strategy, fault level) cell runs twice:
//!
//! * **baseline** — deadline accounting only. Arrivals are never refused,
//!   so the backlog grows without bound, sojourns blow past the deadline,
//!   and goodput collapses even though the machine is busy the whole time.
//! * **protected** — the full overload stack: token-bucket admission at
//!   the edge, retry with exponential backoff for requests lost to
//!   crashes, and the per-region circuit breaker. Shedding keeps the
//!   admitted population small enough that what *is* admitted finishes
//!   inside its deadline.
//!
//! All runs of a sweep execute as one parallel batch; results are a pure
//! function of (fidelity, seed) and independent of thread count.

use oracle_model::{
    ArrivalSpec, FaultPlan, MachineConfig, OpenMetrics, OpenTraffic, PeCrash, RecoveryParams,
};
use oracle_strategies::StrategySpec;
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::{paper_topologies, Fidelity};
use crate::builder::{paper_strategies, SimulationBuilder};
use crate::runner::{run_batch, RunSpec};
use crate::table::{f2, Table};

/// Tuning of one degradation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Grid side of the two paper topologies swept.
    pub side: usize,
    /// Task tree spawned by every arriving request.
    pub workload: WorkloadSpec,
    /// Simulated duration of each run.
    pub duration: u64,
    /// Warmup excluded from each run's statistics.
    pub warmup: u64,
    /// Offered Poisson rate (arrivals per 1000 units) — deliberately past
    /// every cell's capacity knee.
    pub rate: f64,
    /// Per-request deadline; completions past it are dead losses.
    pub deadline: u64,
    /// Retry policy of the protected variant (`MAXxBASE` grammar).
    pub retry: &'static str,
    /// Admission policy of the protected variant.
    pub admission: &'static str,
    /// Circuit-breaker cooldown of the protected variant.
    pub breaker: u64,
    /// Fraction of PEs crashed per fault level (`none` is implicit).
    pub crash_fractions: [f64; 2],
    /// Message-loss rate per fault level.
    pub loss: [f64; 2],
}

/// Sweep parameters for a fidelity level.
pub fn params(fidelity: Fidelity) -> Params {
    match fidelity {
        Fidelity::Paper => Params {
            side: 10,
            workload: WorkloadSpec::fib(11),
            duration: 20_000,
            warmup: 2_000,
            rate: 30.0,
            deadline: 2_500,
            retry: "3x200",
            admission: "bucket:3x8",
            breaker: 500,
            crash_fractions: [0.2, 0.4],
            loss: [0.01, 0.02],
        },
        Fidelity::Quick => Params {
            side: 4,
            workload: WorkloadSpec::fib(8),
            duration: 4_000,
            warmup: 400,
            rate: 40.0,
            deadline: 1_000,
            retry: "2x100",
            admission: "bucket:2x4",
            breaker: 300,
            crash_fractions: [0.2, 0.4],
            loss: [0.01, 0.02],
        },
    }
}

/// Names of the fault levels, in increasing intensity.
pub const FAULT_LEVELS: [&str; 3] = ["none", "moderate", "heavy"];

/// The fault plan of one level: `none`, or a deterministic set of crash
/// victims spread across the PE range (staggered after warmup, so the
/// system degrades mid-measurement) plus message loss. Faulted levels
/// enable the goal-level ack/respawn recovery layer — without it a
/// several-hundred-goal tree almost surely loses a goal to 1% message loss
/// and no request would ever complete, drowning the request-level signal
/// this experiment measures.
fn fault_plan(p: &Params, level: usize, num_pes: usize) -> FaultPlan {
    if level == 0 {
        return FaultPlan::default();
    }
    let mut plan = FaultPlan::default().with_recovery(RecoveryParams::default());
    let crashes = ((num_pes as f64 * p.crash_fractions[level - 1]).round() as usize).max(1);
    let stagger = (p.duration / 2).saturating_sub(p.warmup + 500) / crashes.max(1) as u64;
    for i in 0..crashes {
        plan.pe_crashes.push(PeCrash {
            // Spread victims across the id range so no neighborhood
            // survives untouched (and the breaker has regions to isolate).
            pe: ((i * num_pes) / crashes) as u32,
            at: p.warmup + 500 + i as u64 * stagger.max(1),
        });
    }
    plan.message_loss = p.loss[level - 1];
    plan
}

fn open_traffic(p: &Params, protected: bool) -> OpenTraffic {
    let arrivals: ArrivalSpec = format!("poisson:{}", p.rate)
        .parse()
        .expect("sweep rates are positive finite numbers");
    let mut open = OpenTraffic::new(arrivals, p.duration);
    open.warmup = p.warmup;
    open.deadline = Some(p.deadline);
    if protected {
        open.retry = Some(p.retry.parse().expect("params retry grammar is valid"));
        open.admission = Some(
            p.admission
                .parse()
                .expect("params admission grammar is valid"),
        );
        open.breaker = Some(p.breaker);
    }
    open
}

/// One (topology, strategy, fault level) cell of the sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Topology of the cell.
    pub topology: TopologySpec,
    /// Strategy of the cell.
    pub strategy: StrategySpec,
    /// Index into [`FAULT_LEVELS`].
    pub fault_level: usize,
    /// Metrics of the unprotected run (deadline accounting only).
    pub baseline: OpenMetrics,
    /// Metrics of the run with admission + retry + breaker active.
    pub protected: OpenMetrics,
}

impl Cell {
    /// Name of this cell's fault level.
    pub fn fault_name(&self) -> &'static str {
        FAULT_LEVELS[self.fault_level]
    }

    /// Protected-over-baseline goodput ratio: `inf` when only the
    /// protected run preserved anything, 0 when neither did.
    pub fn protection_ratio(&self) -> f64 {
        if self.baseline.goodput == 0.0 {
            if self.protected.goodput == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.protected.goodput / self.baseline.goodput
        }
    }
}

/// Run the degradation sweep: one cell per (topology, strategy, fault
/// level), each holding a baseline and a protected run.
pub fn run(fidelity: Fidelity, seed: u64) -> Vec<Cell> {
    let p = params(fidelity);
    let mut shape = Vec::new();
    let mut specs = Vec::new();
    for topology in paper_topologies(p.side) {
        let (cwn, gm) = paper_strategies(&topology);
        for strategy in [cwn, gm] {
            for (level, level_name) in FAULT_LEVELS.iter().enumerate() {
                let plan = fault_plan(&p, level, topology.num_pes());
                for protected in [false, true] {
                    let variant = if protected { "protected" } else { "baseline" };
                    specs.push(RunSpec::new(
                        format!("degradation/{topology}/{strategy}/{level_name}/{variant}"),
                        SimulationBuilder::new()
                            .topology(topology)
                            .strategy(strategy)
                            .workload(p.workload)
                            .machine(MachineConfig::default().with_seed(seed))
                            .fault_plan(plan.clone())
                            .open(Some(open_traffic(&p, protected)))
                            .config(),
                    ));
                }
                shape.push((topology, strategy, level));
            }
        }
    }

    let mut reports = run_batch(&specs).into_iter().map(|(label, result)| {
        let report = result.unwrap_or_else(|e| panic!("{label}: {e}"));
        report
            .open
            .unwrap_or_else(|| panic!("{label}: no open metrics"))
    });
    shape
        .into_iter()
        .map(|(topology, strategy, fault_level)| Cell {
            topology,
            strategy,
            fault_level,
            baseline: reports.next().expect("one baseline report per cell"),
            protected: reports.next().expect("one protected report per cell"),
        })
        .collect()
}

/// Check the physics of a sweep: per configuration and variant, goodput
/// must be monotone non-increasing in fault intensity (with a small
/// tolerance for stochastic jitter between single-seed runs), and every
/// run must conserve arrivals across completed + shed + abandoned +
/// in-flight; and some cell must keep more than twice the unprotected
/// goodput. Returns every violation found.
pub fn verify(cells: &[Cell]) -> Result<(), String> {
    let mut problems = Vec::new();
    for c in cells {
        for (variant, m) in [("baseline", &c.baseline), ("protected", &c.protected)] {
            let settled = m.completions + m.shed + m.abandoned_deadline + m.abandoned_retries;
            if m.arrivals != settled + m.inflight_at_end {
                problems.push(format!(
                    "{}/{}/{}/{variant}: arrivals {} != completed {} + shed {} + abandoned \
                     {} + in-flight {}",
                    c.topology,
                    c.strategy,
                    c.fault_name(),
                    m.arrivals,
                    m.completions,
                    m.shed,
                    m.abandoned_deadline + m.abandoned_retries,
                    m.inflight_at_end
                ));
            }
        }
    }
    // Fault levels of one configuration are adjacent in sweep order.
    for pair in cells.chunks(FAULT_LEVELS.len()) {
        for w in pair.windows(2) {
            let (lo, hi) = (&w[0], &w[1]);
            for (variant, a, b) in [
                ("baseline", lo.baseline.goodput, hi.baseline.goodput),
                ("protected", lo.protected.goodput, hi.protected.goodput),
            ] {
                // 5% relative + 0.1 absolute slack: the sweep is one seed
                // per cell, so tiny non-monotonicities are sampling noise,
                // not a broken model.
                if b > a * 1.05 + 0.1 {
                    problems.push(format!(
                        "{}/{}/{variant}: goodput rose from {} ({}) to {} ({})",
                        lo.topology,
                        lo.strategy,
                        f2(a),
                        lo.fault_name(),
                        f2(b),
                        hi.fault_name()
                    ));
                }
            }
        }
    }
    if !cells
        .iter()
        .any(|c| c.protected.goodput > 2.0 * c.baseline.goodput && c.protected.goodput > 0.0)
    {
        problems.push("no cell preserves >2x the unprotected goodput".to_string());
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Render the sweep: one row per (topology, strategy, fault level).
pub fn render(cells: &[Cell], fidelity: Fidelity) -> Table {
    let p = params(fidelity);
    let mut table = Table::new(
        format!(
            "Goodput under overload (poisson:{} of {} per request, deadline {}, duration {}, \
             warmup {}) — unprotected vs deadline+retry:{}+admission:{}+breaker:{}",
            f2(p.rate),
            p.workload,
            p.deadline,
            p.duration,
            p.warmup,
            p.retry,
            p.admission,
            p.breaker
        ),
        &[
            "configuration",
            "faults",
            "goodput base",
            "goodput prot",
            "ratio",
            "p99-in-deadline",
            "shed %",
            "abandoned %",
        ],
    );
    for c in cells {
        table.row(vec![
            format!("{}/{}", c.topology, c.strategy),
            c.fault_name().to_string(),
            f2(c.baseline.goodput),
            f2(c.protected.goodput),
            if c.baseline.goodput > 0.0 {
                f2(c.protection_ratio())
            } else {
                "inf".into()
            },
            c.protected.sojourn_p99.to_string(),
            f2(c.protected.shed_rate * 100.0),
            f2(c.protected.abandonment_rate * 100.0),
        ]);
    }
    table
}

/// Machine-readable dump of every cell (hand-rolled JSON; the involved
/// strings are free of quotes and backslashes).
pub fn to_json(cells: &[Cell]) -> String {
    let mut out = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            concat!(
                "  {{\"topology\": \"{}\", \"strategy\": \"{}\", \"faults\": \"{}\", ",
                "\"goodput_baseline\": {:.4}, \"goodput_protected\": {:.4}, ",
                "\"p99_in_deadline\": {}, \"shed_rate\": {:.4}, ",
                "\"abandonment_rate\": {:.4}, \"retries\": {}, \"breaker_opens\": {}}}{}\n"
            ),
            c.topology,
            c.strategy,
            c.fault_name(),
            c.baseline.goodput,
            c.protected.goodput,
            c.protected.sojourn_p99,
            c.protected.shed_rate,
            c.protected.abandonment_rate,
            c.protected.retries,
            c.protected.breaker_opens,
            sep
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_protection_and_passes_its_own_checks() {
        let cells = run(Fidelity::Quick, 1);
        // 2 topologies x 2 strategies x 3 fault levels.
        assert_eq!(cells.len(), 12);
        verify(&cells).unwrap_or_else(|e| panic!("physics check failed:\n{e}"));
        for c in &cells {
            assert!(
                c.protected.shed > 0,
                "{}/{}/{}: admission shed nothing under overload",
                c.topology,
                c.strategy,
                c.fault_name()
            );
            assert!(
                c.protected.sojourn_p99 <= params(Fidelity::Quick).deadline,
                "{}/{}/{}: measured sojourns are within-deadline by construction",
                c.topology,
                c.strategy,
                c.fault_name()
            );
        }
        // The headline claim: at least one cell where admission control
        // preserves more than twice the unprotected goodput.
        assert!(
            cells
                .iter()
                .any(|c| c.protected.goodput > 2.0 * c.baseline.goodput),
            "no cell demonstrates >2x goodput protection: {:?}",
            cells
                .iter()
                .map(|c| (c.baseline.goodput, c.protected.goodput))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        crate::runner::set_default_threads(1);
        let seq = run(Fidelity::Quick, 7);
        crate::runner::set_default_threads(4);
        let par = run(Fidelity::Quick, 7);
        crate::runner::clear_default_threads();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(format!("{:?}", a.baseline), format!("{:?}", b.baseline));
            assert_eq!(format!("{:?}", a.protected), format!("{:?}", b.protected));
        }
    }

    #[test]
    fn render_and_json_cover_every_cell() {
        let cells = run(Fidelity::Quick, 1);
        let table = render(&cells, Fidelity::Quick);
        assert_eq!(table.len(), 12);
        let json = to_json(&cells);
        assert_eq!(json.matches("\"goodput_protected\"").count(), cells.len());
        assert!(json.starts_with('['), "{json}");
        assert!(json.ends_with(']'));
    }
}
