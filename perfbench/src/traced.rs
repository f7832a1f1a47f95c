//! `--trace 1`: untraced passes for the first half of the time, traced
//! passes for the second half, then the layer probes.

use std::time::Instant;

use oracle::des::DualQueue;
use oracle::model::Report;
use oracle::topo::PeId;

use crate::cells::{self, pass_seed, Cell};
use crate::metrics::{self, Metric};
use crate::probes::{hold_ns, replay_next_hop, response_walks};
use crate::spans::{self, Span, Tracer};
use crate::stats::median;
use crate::{another_pass, print_sims, run_pass, series, untraced_passes, Args, Pass, Tally};

/// Seconds of untraced paper_mix passes a traced run of another workload
/// spends to report the per-cell paper_mix run times.
const REFERENCE_SECONDS: f64 = 2.0;

/// Event-loop slices per traced simulation.
const SLICES: u64 = 10;

/// `(from_pe, parent_pe)` of every response a simulation routed.
type Walks = Vec<(PeId, PeId)>;

/// What the traced passes measured.
struct TracedPasses {
    /// Per span name, its self time summed over each pass's cells.
    self_s: Vec<(&'static str, Vec<f64>)>,
    /// Each pass's wall time: the sum of its `cell` spans.
    wall: Vec<f64>,
    /// Each pass's share of `cell` time covered by setup, run and report.
    coverage: Vec<f64>,
    /// The first pass's report and response walks per cell (`None` if it
    /// failed). Only the walks are kept of its trace, so trace buffers do
    /// not inflate the resident set of later simulations.
    first: Vec<Option<(Report, Walks)>>,
}

pub fn traced(args: &Args, cells: &[Cell], tally: &mut Tally) -> Vec<Metric> {
    let half = args.seconds / 2.0;
    let plain = untraced_passes(cells, args.seed, half, 1, true, tally);
    print_sims(cells, &plain[0]);
    let traced = traced_passes(args, cells, &plain, half, tally);

    let mut out = Vec::new();
    let mut push = |name: &str, value: f64| out.push(Metric::new(name, value));
    for (metric, span) in metrics::SELF_TIME_SPANS {
        let secs = traced.self_s.iter().find(|(n, _)| *n == span);
        push(metric, secs.map_or(0.0, |(_, v)| median(v)));
    }
    push("model.rss_after_new_mb", plain[0].rss_after_new_mb);
    push(
        "model.run_ns_per_event",
        median(&series(&plain, |p| p.phases.run / p.events as f64)) * 1e9,
    );

    // Layer probes and counts, outside every timed span.
    let first: Vec<&Report> = traced.first.iter().flatten().map(|(r, _)| r).collect();
    let (calls, ns) = next_hop_probe(cells, &traced.first);
    push("topo.next_hop_calls", calls as f64);
    push("topo.next_hop_ns", ns);
    let (depth, horizon, events) = first
        .iter()
        .filter_map(|r| {
            Some((
                r.profile.as_ref()?.queue_depth_hwm,
                r.completion_time,
                r.events,
            ))
        })
        .max_by_key(|&(depth, ..)| depth)
        .unwrap_or((1, 1, 1));
    // Little's law: an event waits about depth / (events per time unit).
    let mean_gap = (depth as u64 * horizon / events.max(1)).max(1);
    let (calendar_ns, heap_ns) = hold_probe(depth, mean_gap, args.seed);
    push("des.queue_depth_hwm", depth as f64);
    push("des.hold_ns.calendar", calendar_ns);
    push("des.hold_ns.heap", heap_ns);
    let kind = |name: &str| -> f64 {
        first
            .iter()
            .filter_map(|r| r.profile.as_ref())
            .flat_map(|p| &p.kinds)
            .filter(|k| k.name == name)
            .map(|k| k.count as f64)
            .sum()
    };
    push("des.events.pe_done", kind("pe_done"));
    push("des.events.channel_done", kind("channel_done"));
    let sum = |f: fn(&Report) -> u64| first.iter().map(|r| f(r)).sum::<u64>() as f64;
    push("strategies.goal_hops", sum(|r| r.traffic.goal_hops));
    push("strategies.response_hops", sum(|r| r.traffic.response_hops));
    push("strategies.control_msgs", sum(|r| r.traffic.control_msgs));
    push("strategies.load_updates", sum(|r| r.traffic.load_updates));
    push(
        "strategies.goal_hops_per_goal",
        sum(|r| r.traffic.goal_hops) / sum(|r| r.goals_created).max(1.0),
    );
    push("sim.events", sum(|r| r.events));
    push("sim.completion_time", sum(|r| r.completion_time));

    let traced_wall = median(&traced.wall);
    push("trace.wall_s", traced_wall);
    push(
        "trace.overhead_s",
        traced_wall - median(&series(&plain, |p| p.phases.wall())),
    );
    push("trace.coverage", median(&traced.coverage));

    // Per-cell run time of the paper's cells, from untraced passes.
    let reference;
    let (mix_cells, mix_passes) = if args.workload == "paper_mix" {
        (cells, &plain)
    } else {
        let mix = cells::cells("paper_mix").expect("paper_mix is a workload");
        let passes = untraced_passes(&mix, args.seed, REFERENCE_SECONDS, 3, false, tally);
        reference = (mix, passes);
        (&reference.0[..], &reference.1)
    };
    for (i, cell) in mix_cells.iter().enumerate() {
        push(
            &format!("paper_mix.{}.run_s", cell.name),
            median(&series(mix_passes, |p| p.cells[i].run)),
        );
    }
    for m in &out {
        println!("{}", metrics::describe(m, &[m.value]));
    }
    out
}

/// Traced passes for about `budget` seconds (at least one), each checked
/// against the untraced pass with the same seed.
fn traced_passes(
    args: &Args,
    cells: &[Cell],
    plain: &[Pass],
    budget: f64,
    tally: &mut Tally,
) -> TracedPasses {
    // Slices sized from the untraced first pass's completion times.
    let slices: Vec<u64> = plain[0]
        .sims
        .iter()
        .map(|s| s.map_or(1, |(_, t)| (t / SLICES).max(1)))
        .collect();
    let mut out = TracedPasses {
        self_s: Vec::new(),
        wall: Vec::new(),
        coverage: Vec::new(),
        first: (0..cells.len()).map(|_| None).collect(),
    };
    let mut tracer = Tracer::new(true);
    let start = Instant::now();
    let mut pass = 0;
    while another_pass(start, pass, budget) {
        let seed = pass_seed(args.seed, pass);
        let p = run_pass(
            cells,
            seed,
            &mut tracer,
            &slices,
            false,
            tally,
            |i, report, trace| {
                if pass == 0 {
                    out.first[i] = Some((report, response_walks(&trace)));
                }
            },
        );
        if let Some(q) = plain.get(pass) {
            for (i, (a, b)) in p.sims.iter().zip(&q.sims).enumerate() {
                if let (Some(a), Some(b)) = (a, b) {
                    if a != b {
                        tally.fail(format!(
                            "{} pass {pass}: traced (events, completion_time) {a:?} != untraced {b:?}",
                            cells[i].name
                        ));
                    }
                }
            }
        }
        let spans = tracer.spans();
        let total = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64 * 1e-9)
                .sum()
        };
        let cell_wall = total("cell");
        out.wall.push(cell_wall);
        out.coverage
            .push((total("setup") + total("run") + total("report")) / cell_wall);
        for (name, secs) in spans::self_seconds_by_name(spans) {
            match out.self_s.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(secs),
                None => out.self_s.push((name, vec![secs])),
            }
        }
        if pass == 0 {
            print_progress(cells, spans);
            if let Some(path) = &args.trace_out {
                let mut jsonl = String::new();
                spans::to_jsonl(spans, &args.workload, pass, &mut jsonl);
                if let Err(e) = std::fs::write(path, jsonl) {
                    eprintln!("warning: could not write spans to {path}: {e}");
                }
            }
        }
        tracer.clear();
        pass += 1;
    }
    out
}

/// Replay every response walk of the first traced pass through
/// `Topology::next_hop` on a freshly built topology per cell; repeat while
/// under a second (at most five times) and report the call count and the
/// median nanoseconds per call.
fn next_hop_probe(cells: &[Cell], first: &[Option<(Report, Walks)>]) -> (u64, f64) {
    let start = Instant::now();
    let mut per_call = Vec::new();
    let mut calls = 0;
    while per_call.is_empty() || (per_call.len() < 5 && start.elapsed().as_secs_f64() < 1.0) {
        let (mut n, mut ns) = (0, 0.0);
        for (cell, kept) in cells.iter().zip(first) {
            if let Some((_, walks)) = kept {
                let topo = cell.config.topology.build();
                let (c, t) = replay_next_hop(&topo, walks);
                n += c;
                ns += t;
            }
        }
        calls = n;
        per_call.push(ns / n.max(1) as f64);
    }
    (calls, median(&per_call))
}

/// Median ns per hold operation on the calendar queue and on the heap,
/// over three alternating trials each.
fn hold_probe(depth: usize, mean_gap: u64, seed: u64) -> (f64, f64) {
    const OPS: usize = 1_000_000;
    let (mut calendar, mut heap) = (Vec::new(), Vec::new());
    for trial in 0..3 {
        let s = pass_seed(seed, trial);
        calendar.push(hold_ns(DualQueue::calendar(), depth, mean_gap, OPS, s));
        heap.push(hold_ns(DualQueue::heap(), depth, mean_gap, OPS, s));
    }
    (median(&calendar), median(&heap))
}

/// One line per cell: `sim_time:events@host_ms` at the end of each slice
/// of the event loop, host time counted from the start of the run phase.
fn print_progress(cells: &[Cell], spans: &[Span]) {
    let mut lines: Vec<String> = Vec::new();
    let mut run_start = 0;
    for s in spans {
        match (s.name, s.progress, lines.last_mut()) {
            ("cell", ..) => lines.push(format!("progress {}", cells[lines.len()].name)),
            ("run", ..) => run_start = s.start_ns,
            ("model.advance_until", Some((t, events)), Some(line)) => {
                let ms = (s.end_ns - run_start) as f64 * 1e-6;
                line.push_str(&format!(" {t}:{events}@{ms:.1}"));
            }
            _ => {}
        }
    }
    for line in lines {
        println!("{line}");
    }
}
