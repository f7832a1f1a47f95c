//! Chaos-fuzzing harness: seeded random fault plans thrown at random
//! workload × topology × strategy combinations, every case run with the
//! invariant auditor on, under a panic catcher and a wall-clock watchdog.
//!
//! The harness answers one question continuously: does any combination of
//! injected faults drive the simulator into a state it does not handle —
//! a panic, an invariant violation, an unplanned goal loss, or a hang?
//! Modelling outcomes (a run that legitimately ends in
//! [`SimError::GoalsLost`] because its fault plan destroyed needed work, a
//! stall behind a dead PE, communication stagnation) are *contained*: they
//! are the simulator doing its job.
//!
//! Determinism: the whole case list is generated up front from one master
//! RNG, and each case is a pure function of its own configuration, so a
//! sweep's outcomes are identical regardless of `threads` — the worker
//! pool only decides wall-clock order. Failing cases are then shrunk
//! sequentially (drop fault-plan terms, shrink the workload; keep any
//! reduction that reproduces the same failure kind) into a minimal
//! reproducer line ready for `parse_suite` / `oracle-cli batch FILE`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use oracle_des::Rng;
use oracle_model::{
    AdmissionPolicy, CostModel, FaultPlan, LinkWindow, MachineConfig, OpenTraffic, PeCrash,
    RecoveryParams, RetryPolicy, SimError, Slowdown,
};
use oracle_strategies::StrategySpec;
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use crate::builder::RunConfig;

/// Knobs of one chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of cases to generate and run.
    pub cases: usize,
    /// Master seed: same seed, same case list, same outcomes.
    pub seed: u64,
    /// Worker threads (affects wall clock only, never outcomes).
    pub threads: usize,
    /// Wall-clock budget per case before it is declared hung.
    pub stall_timeout: Duration,
    /// Auditor interval forwarded to every case (0 disables — not
    /// recommended; the auditor is most of the point).
    pub audit_every: u64,
    /// Event-limit safety valve per case (also bounds how long an
    /// abandoned hung case can burn CPU after its watchdog fires).
    pub max_events: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            cases: 32,
            seed: 1,
            threads: crate::runner::default_threads(),
            stall_timeout: Duration::from_secs(30),
            audit_every: 64,
            max_events: 5_000_000,
        }
    }
}

/// One generated chaos case: a complete run description.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Position in the sweep (stable across thread counts).
    pub index: usize,
    /// Interconnection topology.
    pub topology: TopologySpec,
    /// Load-distribution strategy.
    pub strategy: StrategySpec,
    /// Simulated computation.
    pub workload: WorkloadSpec,
    /// Per-case machine seed.
    pub seed: u64,
    /// The injected fault schedule (possibly empty: fault-free cases keep
    /// the auditor honest on the happy path too).
    pub plan: FaultPlan,
    /// Open-arrival traffic for roughly a third of the cases, so the
    /// harness fuzzes the open regime (arrivals × faults × overload
    /// knobs), not just closed trees.
    pub open: Option<OpenTraffic>,
}

impl ChaosCase {
    /// The full run configuration for this case.
    pub fn run_config(&self, chaos: &ChaosConfig) -> RunConfig {
        RunConfig {
            topology: self.topology,
            strategy: self.strategy,
            workload: self.workload,
            costs: CostModel::paper_default(),
            machine: MachineConfig {
                seed: self.seed,
                audit_every: chaos.audit_every,
                max_events: chaos.max_events,
                fault_plan: self.plan.clone(),
                open: self.open.clone(),
                ..MachineConfig::default()
            },
        }
    }

    /// One-line label for progress output.
    pub fn label(&self) -> String {
        let open = match &self.open {
            Some(o) => format!(" arrivals={}", o.arrivals),
            None => String::new(),
        };
        format!(
            "case {:03}: {} {} {} seed={} faults={}{open}",
            self.index, self.topology, self.strategy, self.workload, self.seed, self.plan
        )
    }

    /// A `parse_suite`-compatible line reproducing this case as `chaos`
    /// ran it, auditor period included.
    pub fn suite_line(&self, chaos: &ChaosConfig) -> String {
        let mut line = format!(
            "{} {} {} seed={} audit-every={}",
            self.topology, self.strategy, self.workload, self.seed, chaos.audit_every
        );
        if !self.plan.is_empty() {
            line.push_str(&format!(" faults={}", self.plan));
        }
        if let Some(open) = &self.open {
            line.push_str(&format!(
                " arrivals={} duration={} warmup={}",
                open.arrivals, open.duration, open.warmup
            ));
            if let Some(d) = open.deadline {
                line.push_str(&format!(" deadline={d}"));
            }
            if let Some(p) = &open.retry {
                line.push_str(&format!(" retry={p}"));
            }
            if let Some(p) = &open.admission {
                line.push_str(&format!(" admission={p}"));
            }
            if let Some(c) = open.breaker {
                line.push_str(&format!(" breaker={c}"));
            }
        }
        line
    }
}

/// How one chaos case ended.
#[derive(Debug, Clone)]
pub enum ChaosOutcome {
    /// Ran to completion with a valid report.
    Completed,
    /// Failed in a way the fault plan makes legitimate (planned goal loss,
    /// a stall behind dead PEs, stagnation, the event-limit valve).
    Contained(SimError),
    /// The simulator panicked — always a bug.
    Panicked(String),
    /// The auditor found inconsistent state, goals were lost with *no*
    /// plan to blame, or the run rejected its own generated configuration
    /// — always a bug.
    Violation(SimError),
    /// No answer within the wall-clock budget (seconds shown) — a hang the
    /// in-simulation watchdogs did not catch.
    TimedOut(u64),
}

impl ChaosOutcome {
    /// True for outcomes that fail the sweep.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            ChaosOutcome::Panicked(_) | ChaosOutcome::Violation(_) | ChaosOutcome::TimedOut(_)
        )
    }

    /// Stable name of the outcome class (shrinking preserves this).
    pub fn kind(&self) -> &'static str {
        match self {
            ChaosOutcome::Completed => "completed",
            ChaosOutcome::Contained(_) => "contained",
            ChaosOutcome::Panicked(_) => "panic",
            ChaosOutcome::Violation(_) => "violation",
            ChaosOutcome::TimedOut(_) => "timeout",
        }
    }
}

impl std::fmt::Display for ChaosOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosOutcome::Completed => write!(f, "completed"),
            ChaosOutcome::Contained(e) => write!(f, "contained: {e}"),
            ChaosOutcome::Panicked(msg) => write!(f, "PANIC: {msg}"),
            ChaosOutcome::Violation(e) => write!(f, "VIOLATION: {e}"),
            ChaosOutcome::TimedOut(secs) => write!(f, "TIMEOUT: no answer within {secs}s"),
        }
    }
}

/// A failing case, shrunk to a minimal reproducer.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The original failing case.
    pub case: ChaosCase,
    /// How the original case failed.
    pub outcome: ChaosOutcome,
    /// The minimal case still failing the same way.
    pub shrunk: ChaosCase,
    /// The shrunk case's outcome (same `kind` as `outcome`).
    pub shrunk_outcome: ChaosOutcome,
}

impl ChaosFailure {
    /// Ready-to-run reproducer of a case of the `chaos` sweep: comment
    /// header plus a `parse_suite` line.
    pub fn reproducer(&self, chaos: &ChaosConfig) -> String {
        format!(
            "# chaos reproducer: case {} of master seed {} — {}\n\
             # original: {}\n\
             # shrunk outcome: {}\n\
             # run with: oracle-cli batch <this file>\n\
             {}\n",
            self.case.index,
            chaos.seed,
            self.outcome,
            self.case.suite_line(chaos),
            self.shrunk_outcome,
            self.shrunk.suite_line(chaos)
        )
    }
}

/// Results of a chaos sweep.
#[derive(Debug)]
pub struct ChaosReport {
    /// Outcome of every case, in case order (thread-count independent).
    pub outcomes: Vec<(ChaosCase, ChaosOutcome)>,
    /// Shrunk reproducers for every failing case.
    pub failures: Vec<ChaosFailure>,
}

impl ChaosReport {
    /// Count of cases with the given outcome kind.
    pub fn count(&self, kind: &str) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| o.kind() == kind)
            .count()
    }
}

// ---------------------------------------------------------------------
// Case generation: every random decision happens here, sequentially, off
// one master RNG — the parallel phase below never touches randomness.
// ---------------------------------------------------------------------

fn random_topology(rng: &mut Rng) -> TopologySpec {
    match rng.below(4) {
        0 => TopologySpec::grid(4),
        1 => TopologySpec::grid(5),
        2 => TopologySpec::Ring { n: 8 },
        _ => TopologySpec::Hypercube { dim: 3 },
    }
}

fn random_strategy(rng: &mut Rng) -> StrategySpec {
    match rng.below(10) {
        0 => StrategySpec::Cwn {
            radius: 4,
            horizon: 1,
        },
        1 => StrategySpec::Gradient {
            low_water_mark: 1,
            high_water_mark: 2,
            interval: 20,
        },
        2 => StrategySpec::AdaptiveCwn {
            radius: 4,
            horizon: 1,
            saturation: 3,
            redistribute: true,
        },
        3 => StrategySpec::WorkStealing { retry_delay: 25 },
        4 => StrategySpec::ThresholdProbe {
            threshold: 2,
            probe_limit: 3,
        },
        5 => StrategySpec::Diffusion {
            interval: 20,
            threshold: 2,
            max_per_cycle: 2,
        },
        6 => StrategySpec::GlobalRandom,
        7 => StrategySpec::RoundRobin,
        8 => StrategySpec::RandomWalk { hops: 3 },
        _ => StrategySpec::Local,
    }
}

fn random_workload(rng: &mut Rng) -> WorkloadSpec {
    match rng.below(4) {
        0 => WorkloadSpec::fib(10),
        1 => WorkloadSpec::fib(11),
        2 => WorkloadSpec::fib(12),
        _ => WorkloadSpec::dc(63),
    }
}

fn random_plan(rng: &mut Rng, num_pes: usize, num_channels: usize) -> FaultPlan {
    // One case in eight runs fault-free: the auditor must stay quiet on
    // the happy path too.
    if rng.below(8) == 0 {
        return FaultPlan::default();
    }
    let mut plan = FaultPlan::default();
    // Distinct crash victims (a PE never crashes twice) at distinct times.
    let crashes = rng.below(3) as usize;
    let mut victims: Vec<u32> = (0..num_pes as u32).collect();
    rng.shuffle(&mut victims);
    for &pe in victims.iter().take(crashes) {
        plan.pe_crashes.push(PeCrash {
            pe,
            at: rng.range_inclusive(50, 2000),
        });
    }
    // Link windows on distinct channels (same-channel windows must not
    // overlap; distinct channels sidestep the question entirely).
    let windows = rng.below(3) as usize;
    let mut channels: Vec<u32> = (0..num_channels as u32).collect();
    rng.shuffle(&mut channels);
    for &channel in channels.iter().take(windows) {
        let down_at = rng.range_inclusive(50, 1500);
        plan.link_windows.push(LinkWindow {
            channel,
            down_at,
            up_at: down_at + rng.range_inclusive(50, 500),
        });
    }
    // Integer percent so the plan grammar round-trips exactly.
    plan.message_loss = rng.below(4) as f64 / 100.0;
    if rng.below(4) == 0 {
        let from = rng.range_inclusive(50, 1000);
        plan.slowdowns.push(Slowdown {
            pe: rng.below(num_pes as u64) as u32,
            from,
            until: from + rng.range_inclusive(100, 600),
            factor: rng.range_inclusive(2, 4),
        });
    }
    // Recovery on for most cases: it is the most stateful (and therefore
    // most fuzz-worthy) part of the fault machinery.
    if rng.below(4) != 0 {
        plan.recovery = Some(RecoveryParams {
            ack_timeout: rng.range_inclusive(200, 800),
            max_retries: rng.range_inclusive(2, 6) as u32,
        });
    }
    plan
}

/// Open-arrival traffic for roughly a third of the cases. Rates stay
/// modest and horizons short (2000–6000) so a case still runs in
/// milliseconds; the overload knobs are sampled independently so the
/// auditor sees every combination of deadline × retry × admission ×
/// breaker over time.
fn random_open(rng: &mut Rng) -> Option<OpenTraffic> {
    if rng.below(3) != 0 {
        return None;
    }
    let spec = if rng.below(4) == 0 {
        format!(
            "burst:{}x1x{}x{}",
            rng.range_inclusive(3, 8),
            rng.range_inclusive(100, 300),
            rng.range_inclusive(200, 500)
        )
    } else {
        format!("poisson:{}", rng.range_inclusive(2, 8))
    };
    let spec = spec.parse().expect("generated arrival specs are valid");
    let mut open = OpenTraffic::new(spec, rng.range_inclusive(2000, 6000));
    if rng.below(2) == 0 {
        open.deadline = Some(rng.range_inclusive(500, 3000));
    }
    if rng.below(2) == 0 {
        open.retry = Some(RetryPolicy {
            max: rng.range_inclusive(1, 4) as u32,
            base: rng.range_inclusive(50, 300),
        });
    }
    match rng.below(4) {
        0 => {
            open.admission = Some(AdmissionPolicy::QueueDepth {
                max: rng.range_inclusive(4, 16),
            })
        }
        1 => {
            open.admission = Some(AdmissionPolicy::TokenBucket {
                rate: rng.range_inclusive(2, 10) as f64,
                burst: rng.range_inclusive(2, 8),
            })
        }
        _ => {}
    }
    if rng.below(3) == 0 {
        open.breaker = Some(rng.range_inclusive(200, 800));
    }
    Some(open)
}

/// Generate the full case list for a sweep (pure function of the config).
pub fn generate_cases(config: &ChaosConfig) -> Vec<ChaosCase> {
    let mut rng = Rng::seed_from_u64(config.seed ^ 0xC4A0_5EED);
    (0..config.cases)
        .map(|index| {
            let topology = random_topology(&mut rng);
            let topo = topology.build();
            ChaosCase {
                index,
                strategy: random_strategy(&mut rng),
                workload: random_workload(&mut rng),
                seed: rng.below(1 << 32),
                plan: random_plan(&mut rng, topo.num_pes(), topo.num_channels()),
                open: random_open(&mut rng),
                topology,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Guarded execution.
// ---------------------------------------------------------------------

fn classify(error: SimError, plan_is_empty: bool) -> ChaosOutcome {
    match &error {
        SimError::InvariantViolation { .. } | SimError::InvalidConfig(_) => {
            ChaosOutcome::Violation(error)
        }
        SimError::GoalsLost {
            expected_by_plan: false,
            ..
        } => ChaosOutcome::Violation(error),
        // With no faults injected, *any* failure is the simulator's fault.
        _ if plan_is_empty => ChaosOutcome::Violation(error),
        _ => ChaosOutcome::Contained(error),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one case under the panic catcher and wall-clock watchdog.
pub fn run_case(case: &ChaosCase, config: &ChaosConfig) -> ChaosOutcome {
    let run = case.run_config(config);
    let plan_is_empty = case.plan.is_empty();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name(format!("chaos-case-{}", case.index))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| run.run()));
            // The receiver may have timed out and walked away.
            let _ = tx.send(result);
        })
        .expect("spawn chaos case thread");
    match rx.recv_timeout(config.stall_timeout) {
        Ok(result) => {
            let _ = worker.join();
            match result {
                Ok(Ok(_report)) => ChaosOutcome::Completed,
                Ok(Err(e)) => classify(e, plan_is_empty),
                Err(payload) => ChaosOutcome::Panicked(panic_message(payload)),
            }
        }
        // Abandon the worker: it self-terminates at the event limit.
        Err(_) => ChaosOutcome::TimedOut(config.stall_timeout.as_secs()),
    }
}

// ---------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------

/// Every one-step reduction of a case: drop one fault-plan term, zero the
/// loss rate, drop recovery, drop one overload knob (or the open traffic
/// wholesale), or shrink the workload.
fn reductions(case: &ChaosCase) -> Vec<ChaosCase> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut ChaosCase)| {
        let mut c = case.clone();
        f(&mut c);
        out.push(c);
    };
    for i in 0..case.plan.pe_crashes.len() {
        push(&|c: &mut ChaosCase| {
            c.plan.pe_crashes.remove(i);
        });
    }
    for i in 0..case.plan.link_windows.len() {
        push(&|c: &mut ChaosCase| {
            c.plan.link_windows.remove(i);
        });
    }
    for i in 0..case.plan.slowdowns.len() {
        push(&|c: &mut ChaosCase| {
            c.plan.slowdowns.remove(i);
        });
    }
    if case.plan.message_loss > 0.0 {
        push(&|c: &mut ChaosCase| c.plan.message_loss = 0.0);
    }
    if case.plan.recovery.is_some() {
        push(&|c: &mut ChaosCase| c.plan.recovery = None);
    }
    if let Some(open) = &case.open {
        if open.deadline.is_some() {
            push(&|c: &mut ChaosCase| c.open.as_mut().unwrap().deadline = None);
        }
        if open.retry.is_some() {
            push(&|c: &mut ChaosCase| c.open.as_mut().unwrap().retry = None);
        }
        if open.admission.is_some() {
            push(&|c: &mut ChaosCase| c.open.as_mut().unwrap().admission = None);
        }
        if open.breaker.is_some() {
            push(&|c: &mut ChaosCase| c.open.as_mut().unwrap().breaker = None);
        }
        push(&|c: &mut ChaosCase| c.open = None);
    }
    match case.workload {
        WorkloadSpec::Fibonacci { n } if n > 8 => {
            push(&|c: &mut ChaosCase| c.workload = WorkloadSpec::fib(n - 1));
        }
        WorkloadSpec::DivideConquer { m, n } if n > 15 => {
            push(&|c: &mut ChaosCase| {
                c.workload = WorkloadSpec::DivideConquer { m, n: n / 2 };
            });
        }
        _ => {}
    }
    out
}

/// Greedily shrink a failing case: keep applying the first one-step
/// reduction that still fails with the same outcome kind, until none does
/// (or the re-run budget is spent).
pub fn shrink_case(
    case: &ChaosCase,
    outcome: &ChaosOutcome,
    config: &ChaosConfig,
) -> (ChaosCase, ChaosOutcome) {
    let kind = outcome.kind();
    let mut best = case.clone();
    let mut best_outcome = outcome.clone();
    let mut budget: u32 = 100;
    'outer: while budget > 0 {
        for candidate in reductions(&best) {
            budget -= 1;
            let candidate_outcome = run_case(&candidate, config);
            if candidate_outcome.kind() == kind {
                best = candidate;
                best_outcome = candidate_outcome;
                continue 'outer;
            }
            if budget == 0 {
                break;
            }
        }
        break;
    }
    (best, best_outcome)
}

// ---------------------------------------------------------------------
// The sweep driver.
// ---------------------------------------------------------------------

/// Run a full chaos sweep: generate, execute in parallel, shrink failures.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let cases = generate_cases(config);
    let threads = config.threads.clamp(1, cases.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ChaosOutcome>>> = cases.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cases.len() {
                    break;
                }
                let outcome = run_case(&cases[i], config);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
            });
        }
    });

    let outcomes: Vec<(ChaosCase, ChaosOutcome)> = cases
        .into_iter()
        .zip(slots)
        .map(|(case, slot)| {
            let outcome = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every chaos slot is filled before scope exit");
            (case, outcome)
        })
        .collect();

    // Shrink failures sequentially, in case order, so the reproducer set
    // is as deterministic as the sweep itself.
    let failures = outcomes
        .iter()
        .filter(|(_, o)| o.is_failure())
        .map(|(case, outcome)| {
            let (shrunk, shrunk_outcome) = shrink_case(case, outcome, config);
            ChaosFailure {
                case: case.clone(),
                outcome: outcome.clone(),
                shrunk,
                shrunk_outcome,
            }
        })
        .collect();

    ChaosReport { outcomes, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(cases: usize, seed: u64) -> ChaosConfig {
        ChaosConfig {
            cases,
            seed,
            threads: 4,
            stall_timeout: Duration::from_secs(60),
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn case_generation_is_deterministic_and_valid() {
        let config = quick_config(12, 7);
        let a = generate_cases(&config);
        let b = generate_cases(&config);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.suite_line(&config), y.suite_line(&config));
            let topo = x.topology.build();
            x.plan
                .validate(topo.num_pes(), topo.num_channels())
                .unwrap_or_else(|e| panic!("generated invalid plan {}: {e}", x.plan));
        }
        let c = generate_cases(&quick_config(12, 8));
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.suite_line(&config) != y.suite_line(&config)),
            "different master seeds produced identical sweeps"
        );
    }

    #[test]
    fn suite_lines_parse_back() {
        let config = quick_config(8, 3);
        for case in generate_cases(&config) {
            let line = case.suite_line(&config);
            let specs = crate::runner::parse_suite(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(specs.len(), 1);
            assert_eq!(specs[0].config.machine.seed, case.seed);
            assert_eq!(specs[0].config.machine.audit_every, config.audit_every);
            assert_eq!(specs[0].config.machine.fault_plan, case.plan);
            assert_eq!(specs[0].config.machine.open, case.open, "{line}");
        }
    }

    #[test]
    fn sweep_samples_the_open_regime() {
        let cases = generate_cases(&quick_config(48, 9));
        let open: Vec<_> = cases.iter().filter_map(|c| c.open.as_ref()).collect();
        assert!(
            open.len() >= 8,
            "only {} of 48 cases are open-arrival",
            open.len()
        );
        assert!(
            open.iter().any(|o| o.deadline.is_some())
                && open.iter().any(|o| o.retry.is_some())
                && open.iter().any(|o| o.admission.is_some())
                && open.iter().any(|o| o.breaker.is_some()),
            "overload knobs are not all exercised"
        );
        for o in open {
            o.validate().expect("generated open traffic is valid");
            assert!((2000..=6000).contains(&o.duration));
        }
    }

    #[test]
    fn outcomes_are_thread_count_independent() {
        let mut sequential = quick_config(6, 11);
        sequential.threads = 1;
        let mut parallel = quick_config(6, 11);
        parallel.threads = 4;
        let a = run_chaos(&sequential);
        let b = run_chaos(&parallel);
        let kinds = |r: &ChaosReport| r.outcomes.iter().map(|(_, o)| o.kind()).collect::<Vec<_>>();
        assert_eq!(kinds(&a), kinds(&b));
    }

    #[test]
    fn sweep_contains_all_faults() {
        let report = run_chaos(&quick_config(10, 5));
        assert_eq!(report.outcomes.len(), 10);
        for (case, outcome) in &report.outcomes {
            assert!(!outcome.is_failure(), "{}: {outcome}", case.label());
        }
        assert!(report.failures.is_empty());
    }

    #[test]
    fn shrinking_reduces_a_synthetic_failure() {
        // A panicking case fabricated by breaking the strategy parameters
        // is hard to arrange without touching real code; instead verify
        // the shrinker's mechanics on a *contained* outcome by treating it
        // as the target kind: every reduction either reproduces the kind
        // (shrinks) or is rejected, and the result still has that kind.
        let config = quick_config(40, 2);
        let cases = generate_cases(&config);
        let Some((case, outcome)) = cases
            .iter()
            .map(|c| (c, run_case(c, &config)))
            .find(|(_, o)| matches!(o, ChaosOutcome::Contained(_)))
        else {
            // Every case completed: nothing to shrink, nothing to check.
            return;
        };
        let (shrunk, shrunk_outcome) = shrink_case(case, &outcome, &config);
        assert_eq!(shrunk_outcome.kind(), outcome.kind());
        let original_terms =
            case.plan.pe_crashes.len() + case.plan.link_windows.len() + case.plan.slowdowns.len();
        let shrunk_terms = shrunk.plan.pe_crashes.len()
            + shrunk.plan.link_windows.len()
            + shrunk.plan.slowdowns.len();
        assert!(shrunk_terms <= original_terms);
    }
}
