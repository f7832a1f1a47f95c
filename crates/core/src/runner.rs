//! Deterministic parallel execution of simulation batches.
//!
//! The paper's 240 comparison runs took "between 15 minutes to 3 hours" each
//! on a VAX-750; ours take milliseconds to seconds, and since every run is a
//! pure function of its [`RunSpec`], a batch is embarrassingly parallel.
//! Results come back in input order regardless of scheduling, so harness
//! output is reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use oracle_model::{Report, SimError};

use crate::builder::{
    RunConfig, ADMISSION, ARRIVALS, AUDIT_EVERY, BREAKER, DEADLINE, DURATION, FAULTS, LOAD_PERIOD,
    NO_COPROCESSOR, RETRY, SEED, STRATEGY, TOPOLOGY, WARMUP, WORKLOAD,
};
use crate::flags::{Command, Kind};

/// One entry of a batch: a label (carried through to the results) plus the
/// full run configuration.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Caller-defined label identifying the run in the batch output.
    pub label: String,
    /// The run configuration.
    pub config: RunConfig,
}

impl RunSpec {
    /// A labelled run.
    pub fn new(label: impl Into<String>, config: RunConfig) -> Self {
        RunSpec {
            label: label.into(),
            config,
        }
    }
}

/// Run every spec (validated against analytic results), in parallel, and
/// return the reports in input order.
pub fn run_batch(specs: &[RunSpec]) -> Vec<(String, Result<Report, SimError>)> {
    run_batch_with_threads(specs, default_threads())
}

/// Process-wide override for [`default_threads`]; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The `--threads` grammar, quoted by every rejection of an invalid count
/// so the message itself teaches the rule.
pub const THREADS_GRAMMAR: &str = "--threads N (N >= 1; omit the flag for auto)";

/// Set the worker-thread count every subsequent [`run_batch`] uses — the
/// hook behind the CLI's `--threads N` flag, which has to reach batches
/// buried inside the experiment harnesses without threading a parameter
/// through every table/plot signature. Thread count never affects results,
/// only wall clock: `run_batch` writes each result into its input slot.
/// Undo with [`clear_default_threads`].
///
/// # Panics
///
/// Panics on `threads == 0`: zero used to fall back to "auto" silently,
/// which swallowed typos like `--threads $UNSET_VAR`. The valid grammar is
/// [`THREADS_GRAMMAR`].
pub fn set_default_threads(threads: usize) {
    assert!(
        threads >= 1,
        "thread count 0 is not a degree of parallelism; use {THREADS_GRAMMAR}"
    );
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// Remove the [`set_default_threads`] override: [`default_threads`] returns
/// to the machine's available parallelism.
pub fn clear_default_threads() {
    THREAD_OVERRIDE.store(0, Ordering::Relaxed);
}

/// Number of worker threads used by [`run_batch`]: the
/// [`set_default_threads`] override if one is set, else the machine's
/// available parallelism.
pub fn default_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// [`run_batch`] with an explicit thread count (1 = fully sequential).
///
/// # Panics
///
/// Panics on `threads == 0` (formerly clamped to 1 silently — a zero here
/// is always a caller bug, e.g. an empty env var parsed as 0). The valid
/// grammar is [`THREADS_GRAMMAR`].
pub fn run_batch_with_threads(
    specs: &[RunSpec],
    threads: usize,
) -> Vec<(String, Result<Report, SimError>)> {
    assert!(
        threads >= 1,
        "thread count 0 is not a degree of parallelism; use {THREADS_GRAMMAR}"
    );
    let threads = threads.min(specs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Report, SimError>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                let result = specs[i].config.run_validated();
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });

    specs
        .iter()
        .zip(slots)
        .map(|(spec, slot)| {
            let result = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every batch slot is filled before scope exit");
            (spec.label.clone(), result)
        })
        .collect()
}

/// Summary of one configuration run under several seeds: quantifies how
/// much of a measured effect is placement luck vs mechanism.
#[derive(Debug, Clone)]
pub struct SeedSummary {
    /// Speedups observed, one per seed (in seed order).
    pub speedups: Vec<f64>,
    /// Completion times observed.
    pub completion_times: Vec<u64>,
    /// Aggregate statistics over the speedups.
    pub stats: oracle_des::OnlineStats,
}

impl SeedSummary {
    /// Mean speedup across seeds.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Population standard deviation of the speedups.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Relative spread: std-dev over mean (0 = fully seed-independent).
    pub fn relative_spread(&self) -> f64 {
        if self.mean() > 0.0 {
            self.std_dev() / self.mean()
        } else {
            0.0
        }
    }

    /// Half-width of the ~95% confidence interval on the mean speedup
    /// (normal approximation, 1.96 standard errors).
    pub fn confidence95(&self) -> f64 {
        let n = self.speedups.len() as f64;
        if n < 2.0 {
            return 0.0;
        }
        1.96 * self.std_dev() / n.sqrt()
    }
}

/// Run `config` under seeds `0..n_seeds` (offset by `base_seed`) in
/// parallel and summarize the speedups.
///
/// # Panics
///
/// Panics if `n_seeds == 0` or any run fails — seed sweeps are measurement
/// tools; a failing configuration should be debugged with a single run.
pub fn seed_sweep(config: RunConfig, base_seed: u64, n_seeds: u64) -> SeedSummary {
    assert!(n_seeds > 0, "need at least one seed");
    let specs: Vec<RunSpec> = (0..n_seeds)
        .map(|i| {
            let mut c = config.clone();
            c.machine.seed = base_seed + i;
            RunSpec::new(format!("seed {}", base_seed + i), c)
        })
        .collect();
    let mut speedups = Vec::with_capacity(specs.len());
    let mut completion_times = Vec::with_capacity(specs.len());
    let mut stats = oracle_des::OnlineStats::new();
    for (label, result) in run_batch(&specs) {
        let r = result.unwrap_or_else(|e| panic!("{label}: {e}"));
        stats.record(r.speedup);
        speedups.push(r.speedup);
        completion_times.push(r.completion_time);
    }
    SeedSummary {
        speedups,
        completion_times,
        stats,
    }
}

/// Duration of an open run when `--duration` is not given.
pub const DEFAULT_OPEN_DURATION: u64 = 20_000;

/// The grammar of one suite line: the run-shaping rows of
/// [`crate::builder`], the same ones `oracle-cli run` lists. The first
/// three are the line's columns.
static SUITE_LINE: Command = Command {
    name: "suite line",
    about: "one run of a batch suite",
    positional: None,
    flags: &[
        TOPOLOGY,
        STRATEGY,
        WORKLOAD,
        SEED,
        FAULTS,
        ARRIVALS,
        DURATION,
        WARMUP,
        DEADLINE,
        RETRY,
        ADMISSION,
        BREAKER,
        LOAD_PERIOD,
        NO_COPROCESSOR,
        AUDIT_EVERY,
    ],
};

/// Parse a batch-suite description into run specs.
///
/// One run per non-empty, non-`#` line: three columns, then any
/// run-shaping `oracle-cli run` flag as `key=value` (a switch as a bare
/// `key`):
///
/// ```text
/// # topology   strategy   workload   [seed=N] [faults=PLAN] [arrivals=SPEC] ...
/// grid:10      cwn:9x1    fib:15
/// grid:10      gm:1x2x20  fib:15     seed=7 no-coprocessor
/// grid:6       cwn:5x1    fib:12     seed=3   faults=crash:7@400+loss:1%+recover:500x8
/// grid:6       cwn:5x1    fib:10     arrivals=poisson:4 duration=20000 audit-every=64
/// grid:6       cwn:5x1    open:poisson:40/fib:10  deadline=800 retry=3x100 admission=queue:8
/// ```
///
/// A line is the `run` command line `--topology T --strategy S
/// --workload W --key value ...`, parsed against the same flag rows and
/// turned into a configuration by [`RunConfig::from_args`]: the same defaults,
/// grammars and rules (a repeated key is an error; the open-traffic knobs
/// need arrivals). Labels are the columns plus every field but `seed=`,
/// `duration=` and `warmup=`, in line order. Errors name the line.
pub fn parse_suite(text: &str) -> Result<Vec<RunSpec>, String> {
    let mut specs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 3 {
            return Err(format!(
                "line {n}: expected `topology strategy workload [key=value ...]`, got {raw:?}"
            ));
        }
        let (columns, keys) = SUITE_LINE.flags.split_at(3);
        let mut tokens = Vec::new();
        for (flag, value) in columns.iter().zip(&fields) {
            tokens.extend([flag.name.to_string(), value.to_string()]);
        }
        let mut label = fields[..3].join(" ");
        for field in &fields[3..] {
            let (key, value) = match field.split_once('=') {
                Some((key, value)) => (key, Some(value.to_string())),
                None => (*field, None),
            };
            let flag = format!("--{key}");
            if !keys.iter().any(|f| f.name == flag) {
                let forms: Vec<String> = keys
                    .iter()
                    .map(|f| match f.kind {
                        Kind::Value(metavar) => format!("{}={metavar}", &f.name[2..]),
                        Kind::Switch | Kind::Removed => f.name[2..].to_string(),
                    })
                    .collect();
                return Err(format!(
                    "line {n}: bad field: {field:?} (expected {})",
                    forms.join(", ")
                ));
            }
            tokens.push(flag);
            tokens.extend(value);
            if !matches!(key, "seed" | "duration" | "warmup") {
                label = format!("{label} {field}");
            }
        }
        let config = SUITE_LINE
            .parse(tokens, &[])
            .and_then(|args| RunConfig::from_args(&args))
            .map_err(|e| match flag_key(&e) {
                Some(key) => format!("line {n}: bad {key}: {e}"),
                None => format!("line {n}: {e}"),
            })?;
        specs.push(RunSpec::new(label, config));
    }
    Ok(specs)
}

/// The key of the flag an error message starts with: `seed` for
/// `--seed "x": ...`.
fn flag_key(message: &str) -> Option<&str> {
    let rest = message.strip_prefix("--")?;
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationBuilder;
    use oracle_strategies::StrategySpec;
    use oracle_topo::TopologySpec;
    use oracle_workloads::WorkloadSpec;

    fn spec(n: i64, seed: u64) -> RunSpec {
        RunSpec::new(
            format!("fib{n}-s{seed}"),
            SimulationBuilder::new()
                .topology(TopologySpec::grid(4))
                .strategy(StrategySpec::Cwn {
                    radius: 4,
                    horizon: 1,
                })
                .workload(WorkloadSpec::fib(n))
                .seed(seed)
                .config(),
        )
    }

    #[test]
    fn batch_preserves_order_and_labels() {
        let specs: Vec<RunSpec> = (8..14).map(|n| spec(n, 1)).collect();
        let results = run_batch(&specs);
        assert_eq!(results.len(), 6);
        for (i, (label, report)) in results.iter().enumerate() {
            assert_eq!(label, &specs[i].label);
            report.as_ref().unwrap().check_invariants();
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let specs: Vec<RunSpec> = (8..12).map(|n| spec(n, 3)).collect();
        let par = run_batch_with_threads(&specs, 4);
        let seq = run_batch_with_threads(&specs, 1);
        for ((_, a), (_, b)) in par.iter().zip(&seq) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.completion_time, b.completion_time);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_batch(&[]).is_empty());
    }

    #[test]
    fn thread_override_is_respected_and_clearable() {
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        clear_default_threads();
        assert!(
            default_threads() >= 1,
            "cleared must mean auto, not zero workers"
        );
    }

    #[test]
    fn zero_threads_is_rejected_loudly() {
        let err = std::panic::catch_unwind(|| set_default_threads(0))
            .expect_err("thread count 0 must panic, not silently mean auto");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains(THREADS_GRAMMAR),
            "rejection must cite the grammar, got: {msg}"
        );
        assert!(std::panic::catch_unwind(|| run_batch_with_threads(&[], 0)).is_err());
    }

    #[test]
    fn seed_sweep_summarizes() {
        let config = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(11))
            .config();
        let s = seed_sweep(config, 1, 6);
        assert_eq!(s.speedups.len(), 6);
        assert!(s.mean() > 1.0);
        // Different seeds produce different runs, but not wildly different.
        assert!(s.std_dev() > 0.0, "seeds had no effect at all");
        assert!(
            s.relative_spread() < 0.5,
            "speedup should be mechanism-driven, spread = {}",
            s.relative_spread()
        );
    }

    #[test]
    fn confidence_interval_shrinks_with_more_seeds() {
        let config = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(10))
            .config();
        let few = seed_sweep(config.clone(), 1, 3);
        let many = seed_sweep(config.clone(), 1, 12);
        assert!(many.confidence95() < few.confidence95() * 1.5);
        assert!(few.confidence95() > 0.0);
        assert_eq!(seed_sweep(config, 1, 1).confidence95(), 0.0);
    }

    #[test]
    fn parse_suite_accepts_comments_and_seeds() {
        let text = "\n# a comment\ngrid:4 cwn:4x1 fib:10\nring:5 local fib:8 seed=9 # inline\n";
        let specs = parse_suite(text).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].label, "grid:4 cwn:4x1 fib:10");
        assert_eq!(specs[1].config.machine.seed, 9);
        // And the parsed suite actually runs.
        for (label, r) in run_batch(&specs) {
            r.unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }

    #[test]
    fn parse_suite_reports_line_numbers() {
        let err = parse_suite("grid:4 cwn:4x1 fib:10\nbogus line\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse_suite("nonsense:4 cwn:4x1 fib:10").unwrap_err();
        assert!(err.contains("bad topology"), "{err}");
        let err = parse_suite("grid:4 cwn:4x1 fib:10 sneed=2").unwrap_err();
        assert!(err.contains("seed=N, faults=PLAN"), "{err}");
        let err = parse_suite("grid:4 cwn:4x1 fib:10 faults=crash:zz").unwrap_err();
        assert!(err.contains("bad faults"), "{err}");
    }

    #[test]
    fn parse_suite_accepts_fault_plans() {
        let text = "grid:6 cwn:5x1 fib:10 seed=3 faults=crash:7@400+recover:500x8\n";
        let specs = parse_suite(text).unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].config.machine.seed, 3);
        assert_eq!(specs[0].config.machine.fault_plan.pe_crashes.len(), 1);
        assert!(specs[0].config.machine.fault_plan.recovery.is_some());
        assert!(specs[0].label.contains("faults="), "{}", specs[0].label);
        // Order of the trailing fields must not matter.
        let swapped =
            parse_suite("grid:6 cwn:5x1 fib:10 faults=crash:7@400+recover:500x8 seed=3\n").unwrap();
        assert_eq!(swapped[0].config, specs[0].config);
    }

    #[test]
    fn parse_suite_accepts_open_arrivals() {
        let text = "grid:4 cwn:4x1 fib:8 arrivals=poisson:3 duration=4000 warmup=500 seed=2\n";
        let specs = parse_suite(text).unwrap();
        assert_eq!(specs.len(), 1);
        let open = specs[0].config.machine.open.as_ref().unwrap();
        assert_eq!(open.duration, 4000);
        assert_eq!(open.warmup, 500);
        assert_eq!(open.arrivals.to_string(), "poisson:3");
        assert_eq!(specs[0].config.machine.seed, 2);
        assert!(specs[0].label.contains("arrivals="), "{}", specs[0].label);

        // Default duration/warmup apply when omitted.
        let specs = parse_suite("grid:4 cwn:4x1 fib:8 arrivals=poisson:3\n").unwrap();
        let open = specs[0].config.machine.open.as_ref().unwrap();
        assert_eq!(open.duration, DEFAULT_OPEN_DURATION);
        assert_eq!(open.warmup, DEFAULT_OPEN_DURATION / 10);

        // And an open suite line actually runs to a report with metrics.
        let specs = parse_suite("grid:4 cwn:4x1 fib:8 arrivals=poisson:2 duration=2000\n").unwrap();
        for (label, r) in run_batch(&specs) {
            let r = r.unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(r.open.is_some(), "{label}: no open metrics");
        }
    }

    #[test]
    fn parse_suite_rejects_bad_open_fields() {
        let err = parse_suite("grid:4 cwn:4x1 fib:8 arrivals=nope:3\n").unwrap_err();
        assert!(err.contains("bad arrivals"), "{err}");
        assert!(err.contains("poisson:RATE"), "{err}");
        let err = parse_suite("grid:4 cwn:4x1 fib:8 duration=4000\n").unwrap_err();
        assert!(err.contains("require arrivals"), "{err}");
        let err = parse_suite("grid:4 cwn:4x1 fib:8 arrivals=poisson:3 duration=zz\n").unwrap_err();
        assert!(err.contains("bad duration"), "{err}");
    }

    #[test]
    fn parse_suite_accepts_overload_knobs() {
        let text = "grid:4 cwn:4x1 fib:8 arrivals=poisson:30 deadline=800 retry=3x100 \
                    admission=queue:8 breaker=400\n";
        let specs = parse_suite(text).unwrap();
        assert_eq!(specs.len(), 1);
        let open = specs[0].config.machine.open.as_ref().unwrap();
        assert_eq!(open.deadline, Some(800));
        assert_eq!(open.retry.as_ref().unwrap().to_string(), "3x100");
        assert_eq!(open.admission.as_ref().unwrap().to_string(), "queue:8");
        assert_eq!(open.breaker, Some(400));
        for knob in [
            "deadline=800",
            "retry=3x100",
            "admission=queue:8",
            "breaker=400",
        ] {
            assert!(specs[0].label.contains(knob), "{}", specs[0].label);
        }

        // All three admission grammars parse.
        for policy in ["util:0.8", "bucket:12x5"] {
            let line = format!("grid:4 cwn:4x1 fib:8 arrivals=poisson:3 admission={policy}\n");
            let specs = parse_suite(&line).unwrap();
            let open = specs[0].config.machine.open.as_ref().unwrap();
            assert_eq!(open.admission.as_ref().unwrap().to_string(), policy);
        }
    }

    #[test]
    fn parse_suite_rejects_bad_overload_fields() {
        let err = parse_suite("grid:4 cwn:4x1 fib:8 deadline=800\n").unwrap_err();
        assert!(err.contains("require arrivals"), "{err}");
        let err = parse_suite("grid:4 cwn:4x1 fib:8 admission=queue:8\n").unwrap_err();
        assert!(err.contains("require arrivals"), "{err}");
        let err = parse_suite("grid:4 cwn:4x1 fib:8 arrivals=poisson:3 retry=zz\n").unwrap_err();
        assert!(err.contains("bad retry"), "{err}");
        let err =
            parse_suite("grid:4 cwn:4x1 fib:8 arrivals=poisson:3 admission=magic:9\n").unwrap_err();
        assert!(err.contains("bad admission"), "{err}");
        let err =
            parse_suite("grid:4 cwn:4x1 fib:8 arrivals=poisson:3 deadline=soon\n").unwrap_err();
        assert!(err.contains("bad deadline"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_sweep_panics() {
        let config = SimulationBuilder::new().config();
        seed_sweep(config, 0, 0);
    }
}
