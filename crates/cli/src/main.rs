//! `oracle-cli` — run the ORACLE load-distribution simulator from the
//! command line.
//!
//! ```text
//! oracle-cli run --topology grid:10 --strategy cwn:9x1 --workload fib:15 [--seed N] [--csv] [--series]
//! oracle-cli compare --topology grid:10 --workload fib:15 [--seed N]
//! oracle-cli experiment table2 [--quick]
//! oracle-cli topo-info grid:20 dlm:20 hypercube:7
//! oracle-cli COMMAND --help
//! ```
//!
//! Every command's flags come from one table in this file, parsed by
//! [`oracle::flags`]: unknown, repeated, value-less and other-command flags
//! fail with `error[config]` and exit 3.

use std::path::Path;
use std::process::ExitCode;

use oracle::builder::{
    paper_strategies, RunConfig, ADMISSION, ARRIVALS, AUDIT_EVERY, BREAKER, DEADLINE, DURATION,
    FAULTS, LOAD_PERIOD, NO_COPROCESSOR, RETRY, SEED, STRATEGY, TOPOLOGY, WARMUP, WORKLOAD,
};
use oracle::checkpoint::CheckpointError;
use oracle::flags::{Args, Arity, Command, Flag, Positional};
use oracle::prelude::*;
use oracle::table::{f1, f2};

/// A classified command failure: `kind` is the machine-readable class in
/// the one-line stderr summary (`error[kind]: message`), `code` the
/// process exit code.
///
/// Exit codes: 0 success; 2 the simulation itself failed (invariant
/// violation, unplanned goal loss, stall, stagnation, event-limit); 3 the
/// run never started or could not be recorded (bad flags/specs/plans,
/// unreadable files, bad checkpoints).
#[derive(Debug)]
struct Failure {
    kind: &'static str,
    code: u8,
    message: String,
}

impl Failure {
    fn config(message: impl Into<String>) -> Failure {
        Failure {
            kind: "config",
            code: 3,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> Failure {
        Failure {
            kind: "io",
            code: 3,
            message: message.into(),
        }
    }

    /// Prefix the message with the run label that failed.
    fn context(mut self, label: &str) -> Failure {
        self.message = format!("{label}: {}", self.message);
        self
    }
}

/// Flag/spec parse errors arriving as bare strings are configuration
/// errors.
impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::config(message)
    }
}

/// Classify a simulation error by outcome class.
fn sim_failure(e: SimError) -> Failure {
    let kind = match &e {
        SimError::InvariantViolation { .. } => "invariant",
        SimError::GoalsLost { .. } => "goals-lost",
        SimError::Stalled { .. } => "stalled",
        SimError::Stagnation { .. } => "stagnation",
        SimError::EventLimit { .. } => "event-limit",
        SimError::InvalidConfig(_) => return Failure::config(e.to_string()),
    };
    Failure {
        kind,
        code: 2,
        message: e.to_string(),
    }
}

fn checkpoint_failure(e: CheckpointError) -> Failure {
    match e {
        CheckpointError::Sim(e) => sim_failure(e),
        CheckpointError::Io(e) => Failure::io(e.to_string()),
        CheckpointError::Format(m) => Failure {
            kind: "checkpoint",
            code: 3,
            message: m,
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(3);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "experiment" => cmd_experiment(rest),
        "batch" => cmd_batch(rest),
        "chaos" => cmd_chaos(rest),
        "trace-check" => cmd_trace_check(rest),
        "topo-info" => cmd_topo_info(rest),
        "list" => cmd_list(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(Failure::config(format!(
            "unknown command {other:?}\n{}",
            usage()
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("error[{}]: {}", f.kind, f.message);
            ExitCode::from(f.code)
        }
    }
}

/// `--shards` is refused loudly: ignoring it would make an old command
/// line look like it still selects an engine.
const SHARDS: Flag = Flag::removed(
    "--shards",
    "--shards: the sharded engine was removed and every run uses \
     the sequential engine; --threads N parallelises batch and experiment runs",
);

/// `--state-mode` likewise, for the removed state representations.
const STATE_MODE: Flag = Flag::removed(
    "--state-mode",
    "--state-mode: the option was removed; per-PE and per-channel state \
     is always paged, so memory follows the PEs a run touches",
);

const THREADS: Flag = Flag::value("--threads", "N", "worker threads (default: all cores)");

static RUN: Command = Command {
    name: "run",
    about: "run one simulation and print its report",
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
        Flag::switch("--csv", "print the report as CSV"),
        Flag::switch("--series", "print the utilization series"),
        Flag::switch("--per-pe", "add the O(PEs) per-PE report vectors"),
        Flag::value("--trace", "N", "keep and print the first N events"),
        Flag::value("--trace-last", "N", "keep the last N events instead"),
        Flag::value("--trace-out", "FILE", "export the event trace"),
        Flag::value("--trace-format", "F", "jsonl (default) or chrome"),
        Flag::value("--series-out", "FILE", "write the per-PE series as CSV"),
        Flag::switch("--profile", "print the engine counters"),
        Flag::value("--heatmap", "FILE", "write the load heatmap as PPM"),
        Flag::value("--checkpoint-every", "T", "checkpoint every T time units"),
        Flag::value("--checkpoint-dir", "DIR", "default ./checkpoints"),
        Flag::value("--resume", "FILE", "finish a checkpointed run"),
        SHARDS,
        STATE_MODE,
    ],
};

static COMPARE: Command = Command {
    name: "compare",
    about: "run CWN vs the Gradient Model with the paper's parameters",
    positional: None,
    flags: &[TOPOLOGY, WORKLOAD, SEED],
};

static EXPERIMENT: Command = Command {
    name: "experiment",
    about: "print a paper table, figure or extension study: the text regen_all writes to \
            results/",
    positional: Some(Positional::new(
        "NAME",
        Arity::One,
        "an experiment name (see --help)",
    )),
    flags: &[
        Flag::switch("--quick", "run the miniature"),
        SEED,
        THREADS,
        Flag::switch("--json", "print only the per-cell JSON"),
        Flag::switch("--check", "exit 2 if a physics check fails"),
        SHARDS,
        STATE_MODE,
    ],
};

static BATCH: Command = Command {
    name: "batch",
    about: "run a suite file: one run per line, TOPOLOGY STRATEGY WORKLOAD, then any \
            run flag that shapes the run as key=VALUE (seed=3, faults=PLAN, \
            audit-every=64) or, for a switch, a bare key (no-coprocessor)",
    positional: Some(Positional::new("FILE", Arity::One, "a suite file")),
    flags: &[
        Flag::switch("--csv", "print the results as CSV"),
        THREADS,
        Flag::switch("--profile", "print the merged engine counters"),
        SHARDS,
        STATE_MODE,
    ],
};

static CHAOS: Command = Command {
    name: "chaos",
    about: "seeded chaos-fuzzing sweep: random fault plans thrown at random runs, \
            auditor on, each case under a panic catcher and watchdog; exits 2 if any \
            case fails",
    positional: None,
    flags: &[
        Flag::value("--cases", "N", "number of cases"),
        Flag::value("--seed", "N", "master seed"),
        THREADS,
        Flag::value("--stall-secs", "S", "per-case wall-clock watchdog"),
        Flag::value("--audit-every", "N", "auditor period in events"),
        Flag::value("--out", "DIR", "write shrunk reproducers here"),
        SHARDS,
        STATE_MODE,
    ],
};

static TRACE_CHECK: Command = Command {
    name: "trace-check",
    about: "validate an exported trace file (well-formed JSON, required header \
            fields, timestamps monotone per track)",
    positional: Some(Positional::new("FILE", Arity::One, "a trace file")),
    flags: &[Flag::value(
        "--format",
        "F",
        "jsonl or chrome (default: sniffed)",
    )],
};

static TOPO_INFO: Command = Command {
    name: "topo-info",
    about: "print PEs, channels, diameter, mean distance and degrees",
    positional: Some(Positional::new(
        "T",
        Arity::Many,
        "at least one topology spec",
    )),
    flags: &[Flag::switch("--dot", "print Graphviz DOT instead")],
};

static LIST: Command = Command {
    name: "list",
    about: "print this overview and the paper's presets",
    positional: None,
    flags: &[],
};

/// Every command, in help order.
static COMMANDS: &[&Command] = &[
    &RUN,
    &COMPARE,
    &EXPERIMENT,
    &BATCH,
    &CHAOS,
    &TRACE_CHECK,
    &TOPO_INFO,
    &LIST,
];

const GRAMMARS: &str = "\
spec grammars:
  topology: grid:10 | grid:4x6 | torus:8x8 | dlm:10 | dlm:5x20x20 |
            hypercube:7 | kary:4x3 | tree:2x5 | ring:16 | complete:8 |
            star:9 | bus:6
  strategy: cwn:RADIUSxHORIZON | gm:LWMxHWMxINTERVAL | acwn:RxHxSATxREDIST |
            local | random:HOPS | rr | steal[:RETRY] |
            diffusion[:INTERVALxTHRESHOLDxMAX] | global
  workload: fib:18 | dc:4181 | dc:1x4181 | lopsided:BUDGETxSKEW% |
            random:BUDGETxMAXCHILDxGRAINxSEED | cyclic:PHASESxWIDTHxLEAVES |
            tak:18x12x6 | open:ARRIVAL/WORKLOAD
  arrivals: PROCESS[@EDGES] where PROCESS is poisson:RATE |
            burst:HIxLOxONxOFF | diurnal:PEAKxPERIOD | trace:PATH
            (rates are arrivals per 1000 time units) and EDGES is
            all | root | a comma-separated PE list
  faults:   `+`-separated terms of crash:PE@T | link:CH@DOWN..UP | loss:P% |
            slow:PE@FROM..UNTILxFACTOR | recover:TIMEOUTxRETRIES | none

exit codes: 0 success (saturation is a measured outcome, not a failure) |
            2 simulation failed (invariant violation, goals lost, stall,
            …) | 3 configuration or I/O error | 4 overloaded (admission
            control shed the majority of arrivals) | 5 deadline exhausted
            (no request ever completed within its deadline)
            failures print one line to stderr: error[CLASS]: message";

/// The top-level help: every command's synopsis, then the grammars.
fn usage() -> String {
    let mut s = String::from(
        "oracle-cli — ORACLE load-distribution simulator (Kale, ICPP 1988 reproduction)\n\n\
         commands (`oracle-cli COMMAND --help` lists a command's flags):\n",
    );
    for cmd in COMMANDS {
        s += &cmd.overview();
    }
    s.push('\n');
    s.push_str(GRAMMARS);
    s
}

/// Parse a command's arguments against its table. `None` means `--help`
/// was given and the help has been printed.
fn parse(cmd: &'static Command, args: &[String]) -> Result<Option<Args>, Failure> {
    let flags = cmd.parse(args.iter().cloned(), COMMANDS)?;
    if !flags.help {
        return Ok(Some(flags));
    }
    print!("{}", cmd.help("oracle-cli"));
    if cmd.name == EXPERIMENT.name {
        println!("\nexperiments:");
        for e in oracle::experiments::REGISTRY {
            let json = if e.json { " (--json)" } else { "" };
            let check = if e.checked { " (--check)" } else { "" };
            println!("  {:<17}{}{json}{check}", e.name, e.about);
        }
    }
    Ok(None)
}

/// Default trace capacity when an export was requested but no explicit
/// `--trace`/`--trace-last` bound was given: ample for the paper-scale
/// runs, still bounded.
const DEFAULT_EXPORT_TRACE_CAP: usize = 1_000_000;

/// Classify a degraded open-traffic outcome after its report was printed:
/// `Overloaded` and `DeadlineExhausted` earn their own exit codes so CI can
/// branch on them, while `Saturated` stays a success (the trip wire is the
/// capacity search's measurement instrument, not a failure).
fn open_outcome_failure(report: &Report, config: &RunConfig) -> Result<(), Failure> {
    match report.open.as_ref().map(|o| &o.outcome) {
        Some(OpenOutcome::Overloaded { shed, arrivals }) => Err(Failure {
            kind: "overloaded",
            code: 4,
            // Without admission control only a dead edge sheds.
            message: if config
                .machine
                .open
                .as_ref()
                .is_some_and(|o| o.admission.is_some())
            {
                format!("admission control shed the majority of arrivals ({shed} of {arrivals})")
            } else {
                format!(
                    "every edge PE had crashed: the majority of arrivals were shed ({shed} of {arrivals})"
                )
            },
        }),
        Some(OpenOutcome::DeadlineExhausted { abandoned }) => Err(Failure {
            kind: "deadline-exhausted",
            code: 5,
            message: format!(
                "no request ever completed within its deadline ({abandoned} abandoned)"
            ),
        }),
        _ => Ok(()),
    }
}

fn cmd_run(args: &[String]) -> Result<(), Failure> {
    let Some(flags) = parse(&RUN, args)? else {
        return Ok(());
    };
    let mut trace_cap: usize = flags.parse("--trace", 0)?;
    let trace_last: usize = flags.parse("--trace-last", 0)?;
    let trace_out = flags.value("--trace-out");
    let trace_format: TraceFormat = flags.parse("--trace-format", TraceFormat::Jsonl)?;
    let series_out = flags.value("--series-out");
    let trace_mode = if trace_last > 0 {
        trace_cap = trace_cap.max(trace_last);
        TraceMode::KeepLast
    } else {
        TraceMode::KeepFirst
    };
    if trace_out.is_some() && trace_cap == 0 {
        trace_cap = DEFAULT_EXPORT_TRACE_CAP;
    }
    let heatmap_path = flags.value("--heatmap");

    if let Some(path) = flags.value("--resume") {
        if trace_cap > 0 || heatmap_path.is_some() {
            return Err(Failure::config(
                "--resume replays the checkpointed config; --trace/--heatmap do not apply",
            ));
        }
        let (config, report) = oracle::checkpoint::resume_run(Path::new(path))
            .map_err(|e| checkpoint_failure(e).context(path))?;
        println!(
            "resumed {} on {} under {} from {path}",
            config.workload, config.topology, config.strategy
        );
        print_report(&report, &flags);
        return open_outcome_failure(&report, &config);
    }

    // An unreadable `--faults @FILE` is an I/O failure, not bad input.
    let mut config = RunConfig::from_args(&flags).map_err(|e| {
        if e.starts_with("--faults @") {
            Failure::io(e)
        } else {
            Failure::config(e)
        }
    })?;
    let machine = &mut config.machine;
    machine.trace_capacity = trace_cap;
    machine.trace_mode = trace_mode;
    machine.profile = flags.has("--profile");
    machine.per_pe_series = flags.has("--series") || heatmap_path.is_some() || series_out.is_some();
    machine.per_pe_metrics = flags.has("--per-pe");

    let checkpoint_every: u64 = flags.parse("--checkpoint-every", 0)?;
    if checkpoint_every > 0 {
        if trace_cap > 0 || heatmap_path.is_some() {
            return Err(Failure::config(
                "--checkpoint-every does not combine with --trace/--heatmap",
            ));
        }
        let dir = flags.value("--checkpoint-dir").unwrap_or("checkpoints");
        let out =
            oracle::checkpoint::run_with_checkpoints(&config, checkpoint_every, Path::new(dir))
                .map_err(checkpoint_failure)?;
        for path in &out.checkpoints {
            println!("checkpoint: {}", path.display());
        }
        print_report(&out.report, &flags);
        return open_outcome_failure(&out.report, &config);
    }

    let (report, trace) = config.run_traced().map_err(sim_failure)?;
    if let Some(path) = trace_out {
        let text = export_trace(&trace, &report, trace_format);
        std::fs::write(path, &text).map_err(|e| Failure::io(format!("writing {path}: {e}")))?;
        println!(
            "wrote {} trace to {path} ({} events, {} dropped)",
            match trace_format {
                TraceFormat::Jsonl => "jsonl",
                TraceFormat::Chrome => "chrome",
            },
            trace.len(),
            trace.dropped()
        );
    }
    if let Some(path) = series_out {
        let csv = export_series_csv(&report);
        std::fs::write(path, &csv).map_err(|e| Failure::io(format!("writing {path}: {e}")))?;
        println!(
            "wrote utilization series to {path} ({} intervals x {} PEs)",
            report.util_series.len(),
            report.num_pes
        );
    }
    if let Some(path) = heatmap_path {
        let series = report
            .per_pe_series
            .as_ref()
            .expect("per-PE series was requested");
        let img = oracle::heatmap::render(series, 4);
        img.write_to(path)
            .map_err(|e| Failure::io(format!("writing {path}: {e}")))?;
        println!(
            "wrote load-monitor heatmap to {path} ({}x{} px)",
            img.width(),
            img.height()
        );
    }

    print_report(&report, &flags);
    if trace.dropped() > 0 {
        let what = match trace.mode() {
            TraceMode::KeepFirst => "dropped past capacity",
            TraceMode::KeepLast => "overwritten (ring mode)",
        };
        println!(
            "warning: trace truncated — {} of {} events {what}",
            trace.dropped(),
            trace.dropped() + trace.len() as u64
        );
    }
    // Print the trace inline only when it was explicitly requested for the
    // terminal (exported traces can be huge).
    if trace_cap > 0 && trace_out.is_none() {
        let which = match trace.mode() {
            TraceMode::KeepFirst => "first",
            TraceMode::KeepLast => "last",
        };
        println!("\nevent trace ({which} {} events):", trace.len());
        print!("{}", trace.render());
    }
    open_outcome_failure(&report, &config)
}

/// `trace-check FILE [--format jsonl|chrome]` — structural validation of an
/// exported trace (CI runs this against freshly exported files).
fn cmd_trace_check(args: &[String]) -> Result<(), Failure> {
    let Some(flags) = parse(&TRACE_CHECK, args)? else {
        return Ok(());
    };
    let path = &flags.positionals()[0];
    let text = std::fs::read_to_string(path).map_err(|e| Failure::io(format!("{path}: {e}")))?;
    let format = match flags.value("--format") {
        Some(f) => f.parse::<TraceFormat>().map_err(Failure::config)?,
        None => oracle::traceio::sniff_format(&text),
    };
    let summary = validate_trace(&text, format).map_err(|e| Failure {
        kind: "trace",
        code: 3,
        message: format!("{path}: {e}"),
    })?;
    println!(
        "{path}: valid {} trace — {} events, {} tracks, {} dropped",
        match format {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Chrome => "chrome",
        },
        summary.events,
        summary.tracks,
        summary.dropped
    );
    Ok(())
}

fn print_report(report: &Report, flags: &Args) {
    if flags.has("--csv") {
        println!("metric,value");
        println!("strategy,{}", report.strategy);
        println!("topology,{}", report.topology);
        println!("program,{}", report.program);
        println!("num_pes,{}", report.num_pes);
        println!("completion_time,{}", report.completion_time);
        println!("result,{}", report.result);
        println!("goals,{}", report.goals_executed);
        // Fraction in [0, 1], like every utilization the tool emits.
        println!("avg_utilization,{:.5}", report.avg_utilization);
        println!("speedup,{:.3}", report.speedup);
        println!("avg_goal_distance,{:.3}", report.avg_goal_distance);
        println!("hop_overflow,{}", report.hop_overflow);
        println!("goal_hops,{}", report.traffic.goal_hops);
        println!("response_hops,{}", report.traffic.response_hops);
        println!("control_msgs,{}", report.traffic.control_msgs);
        println!("load_updates,{}", report.traffic.load_updates);
        println!("events,{}", report.events);
        if report.faults.any() {
            println!("pes_crashed,{}", report.faults.pes_crashed);
            println!("goals_lost,{}", report.faults.goals_lost);
            println!("goals_respawned,{}", report.faults.goals_respawned);
            println!("messages_dropped,{}", report.faults.messages_dropped);
            println!("duplicate_responses,{}", report.faults.duplicate_responses);
            println!("retries_exhausted,{}", report.faults.retries_exhausted);
        }
        if let Some(o) = &report.open {
            match o.outcome {
                OpenOutcome::Completed => println!("open_outcome,completed"),
                OpenOutcome::Saturated { at, inflight } => {
                    println!("open_outcome,saturated");
                    println!("saturated_at,{at}");
                    println!("saturated_inflight,{inflight}");
                }
                OpenOutcome::Overloaded { shed, arrivals } => {
                    println!("open_outcome,overloaded");
                    println!("overloaded_shed,{shed}");
                    println!("overloaded_arrivals,{arrivals}");
                }
                OpenOutcome::DeadlineExhausted { abandoned } => {
                    println!("open_outcome,deadline-exhausted");
                    println!("deadline_abandoned,{abandoned}");
                }
            }
            println!("open_duration,{}", o.duration);
            println!("open_warmup,{}", o.warmup);
            println!("arrivals_total,{}", o.arrivals);
            println!("completions_total,{}", o.completions);
            println!("completions_measured,{}", o.completions_measured);
            println!("inflight_at_end,{}", o.inflight_at_end);
            println!("offered_rate,{:.4}", o.offered_rate);
            println!("throughput,{:.4}", o.throughput);
            println!("goodput,{:.4}", o.goodput);
            if let Some(d) = o.deadline {
                println!("deadline,{d}");
            }
            println!("shed,{}", o.shed);
            println!("shed_rate,{:.4}", o.shed_rate);
            println!("abandoned_deadline,{}", o.abandoned_deadline);
            println!("abandoned_retries,{}", o.abandoned_retries);
            println!("abandonment_rate,{:.4}", o.abandonment_rate);
            println!("retries,{}", o.retries);
            println!("breaker_opens,{}", o.breaker_opens);
            println!("sojourn_mean,{:.2}", o.sojourn_mean);
            println!("sojourn_p50,{}", o.sojourn_p50);
            println!("sojourn_p95,{}", o.sojourn_p95);
            println!("sojourn_p99,{}", o.sojourn_p99);
            println!("sojourn_max,{}", o.sojourn_max);
            println!("qlen_time_avg,{:.2}", o.qlen_time_avg);
            println!("qlen_p95,{}", o.qlen_p95);
        }
    } else {
        println!(
            "{} on {} under {}",
            report.program, report.topology, report.strategy
        );
        println!("  result            {}", report.result);
        println!("  goals             {}", report.goals_executed);
        println!("  completion time   {} units", report.completion_time);
        println!(
            "  avg utilization   {:.1} %",
            report.avg_utilization * 100.0
        );
        println!(
            "  speedup           {:.2} on {} PEs",
            report.speedup, report.num_pes
        );
        println!("  avg goal distance {:.2} hops", report.avg_goal_distance);
        println!(
            "  traffic           goal {} / response {} / control {} / load {}",
            report.traffic.goal_hops,
            report.traffic.response_hops,
            report.traffic.control_msgs,
            report.traffic.load_updates
        );
        println!("  events processed  {}", report.events);
        if report.faults.any() {
            println!(
                "  faults            {} PE crash(es), {} goals lost, {} re-spawned, \
                 {} messages dropped",
                report.faults.pes_crashed,
                report.faults.goals_lost,
                report.faults.goals_respawned,
                report.faults.messages_dropped
            );
        }
        if let Some(o) = &report.open {
            let outcome = match o.outcome {
                OpenOutcome::Completed => "completed".to_string(),
                OpenOutcome::Saturated { at, inflight } => {
                    format!("SATURATED at t={at} ({inflight} requests in flight)")
                }
                OpenOutcome::Overloaded { shed, arrivals } => {
                    format!("OVERLOADED ({shed} of {arrivals} arrivals shed at the door)")
                }
                OpenOutcome::DeadlineExhausted { abandoned } => {
                    format!("DEADLINE EXHAUSTED ({abandoned} requests blew their budget)")
                }
            };
            println!(
                "  open traffic      {outcome} (duration {}, warmup {})",
                o.duration, o.warmup
            );
            println!(
                "  requests          {} arrived / {} completed ({} measured, {} in flight at end)",
                o.arrivals, o.completions, o.completions_measured, o.inflight_at_end
            );
            println!(
                "  rates             offered {:.2} / carried {:.2} / useful {:.2} req per \
                 1000 units",
                o.offered_rate, o.throughput, o.goodput
            );
            if o.deadline.is_some() || o.shed > 0 || o.retries > 0 {
                println!(
                    "  overload          {} shed ({:.1} %) / {} past deadline / {} out of \
                     retries ({:.1} % abandoned) / {} retries / {} breaker opens",
                    o.shed,
                    o.shed_rate * 100.0,
                    o.abandoned_deadline,
                    o.abandoned_retries,
                    o.abandonment_rate * 100.0,
                    o.retries,
                    o.breaker_opens
                );
            }
            println!(
                "  sojourn           mean {:.1} / p50 {} / p95 {} / p99 {} / max {} units",
                o.sojourn_mean, o.sojourn_p50, o.sojourn_p95, o.sojourn_p99, o.sojourn_max
            );
            println!(
                "  queue length      time-avg {:.2} / p95 {}",
                o.qlen_time_avg, o.qlen_p95
            );
        }
    }
    if flags.has("--series") {
        println!("\nutilization over time (interval start, %):");
        for (t, u) in &report.util_series {
            println!("  {t},{:.1}", u * 100.0);
        }
    }
    if let Some(profile) = &report.profile {
        println!("\nengine profile:");
        print!("{}", profile.render());
    }
}

/// Chaos-fuzzing sweep frontend over [`oracle::chaos`].
fn cmd_chaos(args: &[String]) -> Result<(), Failure> {
    let Some(flags) = parse(&CHAOS, args)? else {
        return Ok(());
    };
    let mut config = oracle::chaos::ChaosConfig::default();
    config.cases = flags.parse("--cases", config.cases)?;
    config.seed = flags.parse("--seed", config.seed)?;
    config.audit_every = flags.parse("--audit-every", config.audit_every)?;
    if let Some(threads) = flags.threads()? {
        config.threads = threads;
    }
    let stall_secs: u64 = flags.parse("--stall-secs", config.stall_timeout.as_secs())?;
    config.stall_timeout = std::time::Duration::from_secs(stall_secs);
    let out_dir = flags.value("--out");

    println!(
        "chaos sweep: {} cases, master seed {}, {} threads, auditor every {} events",
        config.cases, config.seed, config.threads, config.audit_every
    );
    let report = oracle::chaos::run_chaos(&config);
    for (case, outcome) in &report.outcomes {
        println!("  {} -> {outcome}", case.label());
    }
    println!(
        "chaos summary: {} completed, {} contained, {} failures",
        report.count("completed"),
        report.count("contained"),
        report.failures.len()
    );
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| Failure::io(format!("{dir}: {e}")))?;
        for failure in &report.failures {
            let path = format!("{dir}/chaos-repro-{:03}.suite", failure.case.index);
            std::fs::write(&path, failure.reproducer(&config))
                .map_err(|e| Failure::io(format!("{path}: {e}")))?;
            println!("wrote reproducer {path}");
        }
    }
    if let Some(worst) = report.failures.first() {
        return Err(Failure {
            kind: "chaos",
            code: 2,
            message: format!(
                "{} of {} cases failed; first: {} -> {}",
                report.failures.len(),
                config.cases,
                worst.shrunk.suite_line(&config),
                worst.shrunk_outcome
            ),
        });
    }
    Ok(())
}

fn cmd_experiment(args: &[String]) -> Result<(), Failure> {
    use oracle::experiments::{find, Fidelity};

    let Some(flags) = parse(&EXPERIMENT, args)? else {
        return Ok(());
    };
    let name = &flags.positionals()[0];
    let experiment = find(name).ok_or_else(|| {
        Failure::config(format!(
            "unknown experiment {name:?}; see `oracle-cli experiment --help`"
        ))
    })?;
    for (flag, accepted) in [("--json", experiment.json), ("--check", experiment.checked)] {
        if flags.has(flag) && !accepted {
            return Err(Failure::config(format!(
                "{flag} does not apply to experiment {name}; see `oracle-cli experiment --help`"
            )));
        }
    }
    let fidelity = if flags.has("--quick") {
        Fidelity::Quick
    } else {
        Fidelity::Paper
    };
    let seed: u64 = flags.parse("--seed", 1)?;
    if let Some(threads) = flags.threads()? {
        oracle::runner::set_default_threads(threads);
    }

    let out = (experiment.run)(fidelity, seed);
    if let (true, Some(violations)) = (flags.has("--check"), &out.violations) {
        return Err(Failure {
            kind: experiment.name,
            code: 2,
            message: format!("{name} physics check failed:\n{violations}"),
        });
    }
    match (flags.has("--json"), out.json) {
        (true, Some(json)) => println!("{json}"),
        _ => print!("{}", out.text),
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), Failure> {
    let Some(flags) = parse(&BATCH, args)? else {
        return Ok(());
    };
    let path = &flags.positionals()[0];
    if let Some(threads) = flags.threads()? {
        oracle::runner::set_default_threads(threads);
    }
    let text = std::fs::read_to_string(path).map_err(|e| Failure::io(format!("{path}: {e}")))?;
    let mut specs = oracle::runner::parse_suite(&text)?;
    let profile = flags.has("--profile");
    if profile {
        for spec in &mut specs {
            spec.config.machine.profile = true;
        }
    }
    let mut table = Table::new(
        format!("suite {path} ({} runs)", specs.len()),
        &["run", "speedup", "util %", "time", "avg dist"],
    );
    let mut rollup = oracle::des::ProfileReport::default();
    for (label, result) in run_batch(&specs) {
        let r = result.map_err(|e| sim_failure(e).context(&label))?;
        table.row(vec![
            label,
            f2(r.speedup),
            f1(r.avg_utilization * 100.0),
            r.completion_time.to_string(),
            f2(r.avg_goal_distance),
        ]);
        if let Some(p) = &r.profile {
            rollup.merge(p);
        }
    }
    if flags.has("--csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
    if profile {
        println!("\nbatch engine profile (all runs merged):");
        print!("{}", rollup.render());
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), Failure> {
    let Some(flags) = parse(&COMPARE, args)? else {
        return Ok(());
    };
    let topology: TopologySpec = flags.parse("--topology", TopologySpec::grid(10))?;
    let workload: WorkloadSpec = flags.parse("--workload", WorkloadSpec::fib(15))?;
    let seed: u64 = flags.parse("--seed", 1)?;
    let (cwn, gm) = paper_strategies(&topology);

    let specs = vec![
        RunSpec::new(
            "CWN",
            SimulationBuilder::new()
                .topology(topology)
                .strategy(cwn)
                .workload(workload)
                .seed(seed)
                .config(),
        ),
        RunSpec::new(
            "GM",
            SimulationBuilder::new()
                .topology(topology)
                .strategy(gm)
                .workload(workload)
                .seed(seed)
                .config(),
        ),
    ];
    let results = run_batch(&specs);
    let mut table = Table::new(
        format!("{workload} on {topology} ({} PEs)", topology.num_pes()),
        &["scheme", "speedup", "util %", "time", "avg dist"],
    );
    let mut speedups = Vec::new();
    for (label, result) in results {
        let r = result.map_err(|e| sim_failure(e).context(&label))?;
        speedups.push(r.speedup);
        table.row(vec![
            label,
            f2(r.speedup),
            f1(r.avg_utilization * 100.0),
            r.completion_time.to_string(),
            f2(r.avg_goal_distance),
        ]);
    }
    println!("{table}");
    println!("speedup of CWN over GM: {:.2}", speedups[0] / speedups[1]);
    Ok(())
}

fn cmd_topo_info(args: &[String]) -> Result<(), Failure> {
    let Some(flags) = parse(&TOPO_INFO, args)? else {
        return Ok(());
    };
    let specs: Vec<TopologySpec> = flags
        .positionals()
        .iter()
        .map(|arg| arg.parse())
        .collect::<Result<_, oracle::topo::spec::ParseSpecError>>()
        .map_err(|e| e.to_string())?;
    if flags.has("--dot") {
        for spec in specs {
            print!("{}", spec.build().to_dot());
        }
        return Ok(());
    }
    let mut table = Table::new(
        "Topology characteristics",
        &[
            "topology",
            "PEs",
            "channels",
            "diameter",
            "mean dist",
            "min deg",
            "max deg",
        ],
    );
    for spec in specs {
        let t = spec.build();
        let (min_deg, max_deg) = t
            .pes()
            .map(|pe| t.degree(pe))
            .fold((usize::MAX, 0), |(lo, hi), d| (lo.min(d), hi.max(d)));
        table.row(vec![
            spec.to_string(),
            t.num_pes().to_string(),
            t.num_channels().to_string(),
            t.diameter().to_string(),
            f2(t.mean_distance()),
            min_deg.to_string(),
            max_deg.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), Failure> {
    if parse(&LIST, args)?.is_none() {
        return Ok(());
    }
    println!("{}", usage());
    println!("\npaper presets (Table 1):");
    println!("  grids:          cwn:9x1   gm:1x2x20");
    println!("  lattice-meshes: cwn:5x1   gm:1x1x20");
    println!("\npaper configurations: grid/dlm sides 5, 8, 10, 16, 20; fib 7-18; dc 21-4181");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parsed(cmd: &'static Command, args: &[&str]) -> Args {
        cmd.parse(flags(args), COMMANDS).expect("flags parse")
    }

    #[test]
    fn value_of_finds_pairs() {
        let f = parsed(&RUN, &["--seed", "42", "--csv"]);
        assert_eq!(f.value("--seed"), Some("42"));
        assert_eq!(f.value("--trace-out"), None);
        assert!(f.has("--csv"));
        assert!(!f.has("--series"));
    }

    #[test]
    fn parse_uses_defaults_and_values() {
        let f = parsed(&RUN, &["--seed", "7"]);
        assert_eq!(f.parse("--seed", 1u64).unwrap(), 7);
        assert_eq!(f.parse("--trace", 0usize).unwrap(), 0);
    }

    #[test]
    fn parse_reports_bad_values() {
        let f = parsed(&RUN, &["--seed", "xyz"]);
        let err = f.parse("--seed", 1u64).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(err.contains("xyz"), "{err}");
    }

    #[test]
    fn every_table_flag_appears_in_its_help() {
        let overview = usage();
        for cmd in COMMANDS {
            assert!(overview.contains(&cmd.overview()), "{}", cmd.name);
            let help = cmd.help("oracle-cli");
            for flag in cmd.flags {
                assert!(
                    help.contains(flag.name),
                    "{} --help lacks {}",
                    cmd.name,
                    flag.name
                );
            }
        }
    }

    #[test]
    fn run_command_smoke() {
        let a = flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:6",
            "--csv",
        ]);
        cmd_run(&a).expect("run should succeed");
    }

    #[test]
    fn compare_command_smoke() {
        let a = flags(&["--topology", "grid:4", "--workload", "fib:8"]);
        cmd_compare(&a).expect("compare should succeed");
    }

    #[test]
    fn topo_info_rejects_empty_and_bad_specs() {
        assert!(cmd_topo_info(&[]).is_err());
        assert!(cmd_topo_info(&flags(&["nonsense:9"])).is_err());
        cmd_topo_info(&flags(&["grid:4"])).expect("valid spec");
    }

    #[test]
    fn batch_command_runs_a_suite() {
        let path = std::env::temp_dir().join("oracle_cli_suite_test.txt");
        std::fs::write(&path, "grid:4 cwn:4x1 fib:9\nring:4 local fib:8 seed=2\n").unwrap();
        cmd_batch(&flags(&[path.to_str().unwrap(), "--csv"])).expect("suite runs");
        let err = cmd_batch(&[]).unwrap_err();
        assert!(err.message.contains("suite file"));
        assert_eq!((err.kind, err.code), ("config", 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_command_open_arrivals_smoke() {
        let a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:4",
            "--duration",
            "2000",
            "--warmup",
            "200",
            "--csv",
        ]);
        cmd_run(&a).expect("open run should succeed");
        // The combined `open:` workload spelling is equivalent.
        let a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "open:poisson:4/fib:8",
            "--duration",
            "2000",
        ]);
        cmd_run(&a).expect("open: workload run should succeed");
    }

    #[test]
    fn open_flags_are_validated_as_config_errors() {
        // Bad arrival spec: config error (exit 3), message names the token
        // and quotes the grammar.
        let err = cmd_run(&flags(&["--arrivals", "poisson:-3"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(err.message.contains("\"-3\""), "{}", err.message);
        assert!(err.message.contains("PROCESS[@EDGES]"), "{}", err.message);
        // Bad open: workload spelling too.
        let err = cmd_run(&flags(&["--workload", "open:nope:1/fib:8"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(
            err.message.contains("open:ARRIVAL/WORKLOAD"),
            "{}",
            err.message
        );
        // Both spellings at once conflict.
        let err = cmd_run(&flags(&[
            "--workload",
            "open:poisson:4/fib:8",
            "--arrivals",
            "poisson:4",
        ]))
        .unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        // Windows without any arrival process are meaningless.
        let err = cmd_run(&flags(&["--duration", "500"])).unwrap_err();
        assert!(err.message.contains("--arrivals"), "{}", err.message);
    }

    #[test]
    fn experiment_capacity_quick_smoke() {
        cmd_experiment(&flags(&["capacity", "--quick"])).expect("capacity quick");
        cmd_experiment(&flags(&["capacity", "--quick", "--json"])).expect("capacity json");
    }

    #[test]
    fn experiment_degradation_quick_smoke() {
        cmd_experiment(&flags(&["degradation", "--quick", "--check"])).expect("degradation quick");
        cmd_experiment(&flags(&["degradation", "--quick", "--json"])).expect("degradation json");
    }

    #[test]
    fn run_command_overload_flags_smoke() {
        let a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:4",
            "--duration",
            "2000",
            "--warmup",
            "200",
            "--deadline",
            "1500",
            "--retry",
            "2x100",
            "--admission",
            "queue:32",
            "--breaker",
            "300",
            "--faults",
            "crash:5@600",
            "--csv",
        ]);
        cmd_run(&a).expect("a lightly loaded protected run completes");
    }

    #[test]
    fn overload_flags_require_arrivals_and_valid_grammars() {
        for flag in ["--deadline", "--retry", "--admission", "--breaker"] {
            let err = cmd_run(&flags(&[flag, "1x1"])).unwrap_err();
            assert_eq!((err.kind, err.code), ("config", 3));
            assert!(err.message.contains("--arrivals"), "{}", err.message);
        }
        for (flag, bad) in [
            ("--deadline", "soon"),
            ("--retry", "zz"),
            ("--admission", "magic:9"),
            ("--breaker", "-4"),
        ] {
            let err = cmd_run(&flags(&["--arrivals", "poisson:4", flag, bad])).unwrap_err();
            assert_eq!((err.kind, err.code), ("config", 3));
            assert!(err.message.contains(flag), "{}", err.message);
        }
    }

    #[test]
    fn degraded_open_outcomes_map_to_their_exit_codes() {
        // A tight token bucket in front of a hopeless offered load sheds
        // the majority of arrivals: exit 4, class "overloaded".
        let err = cmd_run(&flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:400",
            "--duration",
            "3000",
            "--warmup",
            "100",
            "--admission",
            "bucket:1x2",
            "--csv",
        ]))
        .unwrap_err();
        assert_eq!((err.kind, err.code), ("overloaded", 4), "{}", err.message);
        assert!(err.message.contains("admission control"), "{}", err.message);

        // Without admission control, arrivals shed because their only edge
        // PE crashed count the same way, and the message names the cause.
        let err = cmd_run(&flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:4@root",
            "--duration",
            "4000",
            "--faults",
            "crash:0@1",
            "--csv",
        ]))
        .unwrap_err();
        assert_eq!((err.kind, err.code), ("overloaded", 4), "{}", err.message);
        assert!(
            err.message.contains("every edge PE had crashed") && err.message.contains("17 of 17"),
            "{}",
            err.message
        );

        // A deadline below the fastest possible sojourn is unservable:
        // exit 5, class "deadline-exhausted".
        let err = cmd_run(&flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:2",
            "--duration",
            "3000",
            "--deadline",
            "1",
        ]))
        .unwrap_err();
        assert_eq!(
            (err.kind, err.code),
            ("deadline-exhausted", 5),
            "{}",
            err.message
        );
    }

    #[test]
    fn experiment_rejects_unknown_names() {
        let err = cmd_experiment(&flags(&["not-a-table"])).unwrap_err();
        assert!(err.message.contains("unknown experiment"));
        assert!(cmd_experiment(&[]).is_err());
    }

    #[test]
    fn experiment_table3_quick_smoke() {
        cmd_experiment(&flags(&["table3", "--quick"])).expect("table3 quick");
    }

    #[test]
    fn run_command_with_faults_smoke() {
        let a = flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:8",
            "--faults",
            "crash:3@100",
            "--csv",
        ]);
        cmd_run(&a).expect("an idle-PE crash must not break the run");
        let bad = flags(&["--faults", "crash:zz"]);
        assert!(cmd_run(&bad).is_err());
    }

    #[test]
    fn threads_flag_is_validated_and_accepted() {
        let path = std::env::temp_dir().join("oracle_cli_threads_suite_test.txt");
        std::fs::write(&path, "grid:4 cwn:4x1 fib:9\nring:4 local fib:8\n").unwrap();
        cmd_batch(&flags(&[path.to_str().unwrap(), "--threads", "2"])).expect("capped batch runs");
        let err = cmd_batch(&flags(&[path.to_str().unwrap(), "--threads", "0"])).unwrap_err();
        assert!(err.message.contains("--threads"), "{}", err.message);
        std::fs::remove_file(&path).ok();
        oracle::runner::clear_default_threads();
    }

    #[test]
    fn trailing_value_flag_is_a_config_error() {
        let err = RUN
            .parse(flags(&["--csv", "--seed"]), COMMANDS)
            .unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let err = cmd_run(&flags(&[
            "--topology",
            "grid:4",
            "--workload",
            "fib:10",
            "--strategy",
            "cwn:4x1",
            "--csv",
            "--seed",
        ]))
        .unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(err.message.contains("--seed"), "{}", err.message);
        let err = cmd_run(&flags(&["--workload", "fib:10", "--trace-out"])).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("--trace-out"), "{}", err.message);
    }

    #[test]
    fn removed_shards_flag_is_rejected() {
        let run = ["--workload", "fib:8", "--shards", "2"];
        let batch = ["suites/resilience.txt", "--shards", "2"];
        let experiment = ["table2", "--quick", "--shards", "2"];
        let chaos = ["--cases", "1", "--shards", "auto"];
        for (cmd, result) in [
            ("run", cmd_run(&flags(&run))),
            ("batch", cmd_batch(&flags(&batch))),
            ("experiment", cmd_experiment(&flags(&experiment))),
            ("chaos", cmd_chaos(&flags(&chaos))),
        ] {
            let err = result.expect_err(cmd);
            assert_eq!((err.kind, err.code), ("config", 3), "{cmd}");
            assert!(
                err.message.contains("--shards") && err.message.contains("--threads"),
                "{cmd}: {}",
                err.message
            );
        }
    }

    #[test]
    fn removed_state_representation_flag_is_rejected() {
        for mode in ["auto", "dense", "sparse"] {
            let err =
                cmd_run(&flags(&["--workload", "fib:8", "--state-mode", mode])).expect_err(mode);
            assert_eq!((err.kind, err.code), ("config", 3), "{mode}");
            assert!(
                err.message.contains("--state-mode") && err.message.contains("removed"),
                "{mode}: {}",
                err.message
            );
        }
    }

    #[test]
    fn batch_command_accepts_fault_plans() {
        let path = std::env::temp_dir().join("oracle_cli_fault_suite_test.txt");
        std::fs::write(&path, "ring:4 local fib:8 faults=crash:3@100\n").unwrap();
        cmd_batch(&flags(&[path.to_str().unwrap(), "--csv"])).expect("fault suite runs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faults_flag_loads_plan_files() {
        let path =
            std::env::temp_dir().join(format!("oracle_cli_faults_file_{}.txt", std::process::id()));
        std::fs::write(
            &path,
            "# one term per line, joined with `+`\ncrash:3@100\n\nloss:1%\n",
        )
        .unwrap();
        let arg = format!("@{}", path.display());
        let config = RunConfig::from_args(&parsed(&RUN, &["--faults", &arg]));
        let plan = config.expect("plan file parses").machine.fault_plan;
        assert_eq!(plan.pe_crashes.len(), 1);
        assert!((plan.message_loss - 0.01).abs() < 1e-9);

        let err = cmd_run(&flags(&["--faults", "@/no/such/file"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("io", 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failures_are_classified_by_outcome() {
        // Bad spec: configuration error, exit 3.
        let err = cmd_run(&flags(&["--topology", "nonsense:9"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        // Invalid fault plan (PE out of range on ring:4): still exit 3.
        let err = cmd_run(&flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:8",
            "--faults",
            "crash:99@100",
        ]))
        .unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        // Crashing the only busy PE with no recovery layer loses goals:
        // simulation-outcome failure, exit 2.
        let err = cmd_run(&flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:8",
            "--faults",
            "crash:0@1",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2, "error[{}]: {}", err.kind, err.message);
    }

    #[test]
    fn run_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("oracle_cli_ckpt_{}", std::process::id()));
        let a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:10",
            "--seed",
            "5",
            "--audit-every",
            "64",
            "--checkpoint-every",
            "300",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ]);
        cmd_run(&a).expect("checkpointed run succeeds");
        let mut snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        snaps.sort();
        assert!(!snaps.is_empty(), "no checkpoints written");
        let resume = flags(&["--resume", snaps[0].to_str().unwrap()]);
        cmd_run(&resume).expect("resume succeeds");

        let err = cmd_run(&flags(&["--resume", "/no/such/checkpoint"])).unwrap_err();
        assert_eq!(err.code, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_exports_and_trace_check_validates() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join(format!("oracle_cli_trace_{}.jsonl", std::process::id()));
        let chrome = dir.join(format!("oracle_cli_trace_{}.json", std::process::id()));
        let series = dir.join(format!("oracle_cli_series_{}.csv", std::process::id()));
        let base = [
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:10",
            "--seed",
            "3",
        ];

        let mut a: Vec<String> = flags(&base);
        a.extend(flags(&["--trace-out", jsonl.to_str().unwrap()]));
        a.extend(flags(&["--series-out", series.to_str().unwrap()]));
        cmd_run(&a).expect("jsonl export run");
        cmd_trace_check(&flags(&[jsonl.to_str().unwrap()])).expect("jsonl validates");

        let mut a: Vec<String> = flags(&base);
        a.extend(flags(&[
            "--trace-out",
            chrome.to_str().unwrap(),
            "--trace-format",
            "chrome",
            "--profile",
        ]));
        cmd_run(&a).expect("chrome export run");
        cmd_trace_check(&flags(&[chrome.to_str().unwrap()])).expect("chrome validates");

        let csv = std::fs::read_to_string(&series).unwrap();
        assert!(csv
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("interval_start,avg,pe0"));

        // Tampered files must be rejected, as must unknown formats.
        std::fs::write(&jsonl, "not json\n").unwrap();
        let err = cmd_trace_check(&flags(&[jsonl.to_str().unwrap()])).unwrap_err();
        assert_eq!((err.kind, err.code), ("trace", 3));
        assert!(cmd_trace_check(&flags(&["/no/such/trace"])).is_err());

        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&chrome).ok();
        std::fs::remove_file(&series).ok();
    }

    #[test]
    fn truncated_export_headers_carry_the_dropped_count() {
        let path = std::env::temp_dir().join(format!(
            "oracle_cli_trace_trunc_{}.jsonl",
            std::process::id()
        ));
        let mut a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:10",
            "--trace",
            "10",
        ]);
        a.extend(flags(&["--trace-out", path.to_str().unwrap()]));
        cmd_run(&a).expect("truncated export run");
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap();
        assert!(
            header.contains("\"events_dropped\":") && !header.contains("\"events_dropped\":0"),
            "header must confess the truncation: {header}"
        );
        // keep-last mode records the same count as overwritten events.
        let mut a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:10",
            "--trace-last",
            "10",
        ]);
        a.extend(flags(&["--trace-out", path.to_str().unwrap()]));
        cmd_run(&a).expect("ring-mode export run");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"trace_mode\":\"keep-last\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_command_smoke() {
        let dir = std::env::temp_dir().join(format!("oracle_cli_chaos_{}", std::process::id()));
        cmd_chaos(&flags(&[
            "--cases",
            "4",
            "--seed",
            "9",
            "--threads",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("a small chaos sweep passes");
        let err = cmd_chaos(&flags(&["--threads", "0"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
