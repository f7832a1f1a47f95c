//! Property-based tests over the whole stack: randomized topologies,
//! workloads, strategy parameters, and seeds must never break the machine's
//! invariants.

use oracle::des::{
    CalendarQueue, EventQueue, Histogram, IntervalSeries, OnlineStats, Rng, SimTime,
};
use oracle::prelude::*;
use proptest::prelude::*;
// Both preludes export a `Strategy` name (the load-distribution trait and
// proptest's generator trait); re-import the latter so `.prop_map` resolves.
use proptest::strategy::Strategy as _;

/// Random small topology specs (kept small so each case runs in
/// milliseconds).
fn topology_strategy() -> impl proptest::strategy::Strategy<Value = TopologySpec> {
    prop_oneof![
        (2usize..6, 2usize..6, any::<bool>()).prop_map(|(w, h, wrap)| {
            TopologySpec::Mesh2D {
                width: w.max(2),
                height: h,
                wraparound: wrap,
            }
        }),
        (2usize..4, 4usize..8).prop_map(|(span, side)| TopologySpec::DoubleLatticeMesh {
            span: span.min(side),
            width: side,
            height: side,
        }),
        (2u32..5).prop_map(|dim| TopologySpec::Hypercube { dim }),
        (3usize..10).prop_map(|n| TopologySpec::Ring { n }),
        (3usize..8).prop_map(|n| TopologySpec::Complete { n }),
        (3usize..10).prop_map(|n| TopologySpec::Star { n }),
        (3usize..8).prop_map(|n| TopologySpec::SingleBus { n }),
    ]
}

fn placement_strategy() -> impl proptest::strategy::Strategy<Value = StrategySpec> {
    prop_oneof![
        (1u32..7, 0u32..3).prop_map(|(radius, horizon)| StrategySpec::Cwn {
            radius,
            horizon: horizon.min(radius.saturating_sub(1)),
        }),
        (1u32..3, 0u32..3, 5u64..50).prop_map(|(lwm, extra, interval)| {
            StrategySpec::Gradient {
                low_water_mark: lwm,
                high_water_mark: lwm + extra,
                interval,
            }
        }),
        Just(StrategySpec::Local),
        (1u32..4).prop_map(|hops| StrategySpec::RandomWalk { hops }),
        Just(StrategySpec::RoundRobin),
        (5u64..60).prop_map(|d| StrategySpec::WorkStealing { retry_delay: d }),
        (5u64..40, 1u32..4).prop_map(|(interval, threshold)| StrategySpec::Diffusion {
            interval,
            threshold,
            max_per_cycle: 2,
        }),
        Just(StrategySpec::GlobalRandom),
        (1u32..5, 1u32..5).prop_map(|(threshold, probe_limit)| {
            StrategySpec::ThresholdProbe {
                threshold,
                probe_limit,
            }
        }),
        (1u32..6, 0u32..2, 0u32..4, any::<bool>()).prop_map(
            |(radius, horizon, saturation, redistribute)| StrategySpec::AdaptiveCwn {
                radius,
                horizon: horizon.min(radius.saturating_sub(1)),
                saturation,
                redistribute,
            }
        ),
    ]
}

fn workload_strategy() -> impl proptest::strategy::Strategy<Value = WorkloadSpec> {
    prop_oneof![
        (5i64..12).prop_map(WorkloadSpec::fib),
        (2i64..80).prop_map(WorkloadSpec::dc),
        (1i64..150, 10i64..90).prop_map(|(budget, skew)| WorkloadSpec::Lopsided {
            budget,
            skew_pct: skew,
        }),
        (1i64..150, 2u32..5, 1u64..4, any::<u64>()).prop_map(|(budget, mc, gs, seed)| {
            WorkloadSpec::RandomTree {
                budget,
                max_children: mc,
                grain_spread: gs,
                seed,
            }
        }),
        (1u32..4, 1u32..5, 1i64..12).prop_map(|(phases, width, leaves)| {
            WorkloadSpec::Cyclic {
                phases,
                width,
                leaves,
            }
        }),
        (4i64..10, 0i64..5, 0i64..3).prop_map(|(x, y, z)| WorkloadSpec::Tak { x, y, z }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any (topology, strategy, workload, seed) combination completes with
    /// the right answer and a consistent report.
    #[test]
    fn machine_invariants_hold_for_random_configs(
        topology in topology_strategy(),
        strategy in placement_strategy(),
        workload in workload_strategy(),
        seed in any::<u64>(),
    ) {
        let report = SimulationBuilder::new()
            .topology(topology)
            .strategy(strategy)
            .workload(workload)
            .seed(seed)
            .run_validated()
            .unwrap_or_else(|e| panic!("{topology} {strategy} {workload} seed {seed}: {e}"));
        report.check_invariants();
        prop_assert!(report.completion_time > 0);
        prop_assert!(report.avg_channel_utilization <= report.max_channel_utilization + 1e-12);
    }

    /// CWN hop counts never exceed the radius, and (when the radius is
    /// non-zero) no goal stays at its source.
    #[test]
    fn cwn_hop_bounds(
        radius in 1u32..8,
        horizon in 0u32..4,
        seed in any::<u64>(),
    ) {
        let horizon = horizon.min(radius);
        let report = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::Cwn { radius, horizon })
            .workload(WorkloadSpec::fib(10))
            .seed(seed)
            .run_validated()
            .unwrap();
        prop_assert!(report.hop_histogram.len() <= radius as usize + 1);
        prop_assert_eq!(report.hop_histogram[0], 0);
        for h in 1..horizon.min(radius) as usize {
            prop_assert_eq!(report.hop_histogram.get(h).copied().unwrap_or(0), 0,
                "goal stopped below the horizon");
        }
    }

    /// Topology structural invariants hold for arbitrary specs.
    #[test]
    fn topology_invariants(spec in topology_strategy()) {
        let t = spec.build();
        prop_assert_eq!(t.num_pes(), spec.num_pes());
        t.check_invariants();
        prop_assert!(t.diameter() as usize <= t.num_pes());
        prop_assert!(t.mean_distance() <= t.diameter() as f64);
    }

    /// The RNG's bounded draw is always in bounds and seeds reproduce.
    #[test]
    fn rng_bounded_and_reproducible(seed in any::<u64>(), bound in 1u64..1000) {
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }

    /// OnlineStats merge is order-insensitive and matches sequential.
    #[test]
    fn online_stats_merge_associative(xs in prop::collection::vec(-1e6f64..1e6, 1..100),
                                      split in 0usize..100) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..split].iter().for_each(|&x| left.record(x));
        xs[split..].iter().for_each(|&x| right.record(x));
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1.0);
    }

    /// Histogram totals are conserved under merge.
    #[test]
    fn histogram_merge_conserves(xs in prop::collection::vec(0u64..40, 0..200),
                                 ys in prop::collection::vec(0u64..40, 0..200)) {
        let mut a = Histogram::new(32);
        let mut b = Histogram::new(32);
        xs.iter().for_each(|&x| a.record(x));
        ys.iter().for_each(|&y| b.record(y));
        let totals_before = a.total() + b.total();
        a.merge(&b);
        prop_assert_eq!(a.total(), totals_before);
        let bucket_sum: u64 = a.buckets().iter().sum::<u64>() + a.overflow();
        prop_assert_eq!(bucket_sum, a.total());
    }

    /// Soundness under faults: killing any PE at any time yields either
    /// the correct answer (the dead PE didn't matter) or an explicit error
    /// — never a silently wrong result.
    #[test]
    fn failure_injection_never_corrupts_the_answer(
        pe in 0u32..16,
        at in 0u64..2000,
        strategy in placement_strategy(),
        seed in any::<u64>(),
    ) {
        let mut cfg = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(strategy)
            .workload(WorkloadSpec::fib(11))
            .seed(seed)
            .config();
        cfg.machine.fail_pe = Some((pe, at));
        match cfg.run() {
            Ok(report) => {
                prop_assert_eq!(report.result, 89, "wrong fib(11) after failure");
                report.check_invariants();
            }
            // The injected crash is folded into the fault plan, so losses
            // are attributed to it; a crash that strands no goals can still
            // stall (e.g. a response routed into the dead PE).
            Err(SimError::GoalsLost { expected_by_plan: true, .. }
                | SimError::Stalled { .. }
                | SimError::EventLimit { .. }) => {}
            Err(other) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("unexpected error class: {other}"),
            )),
        }
    }

    /// Any queue discipline preserves correctness and conservation.
    #[test]
    fn queue_disciplines_preserve_correctness(
        discipline in prop_oneof![
            Just(oracle::model::config::QueueDiscipline::Fifo),
            Just(oracle::model::config::QueueDiscipline::Lifo),
            Just(oracle::model::config::QueueDiscipline::DeepestFirst),
        ],
        strategy in placement_strategy(),
        workload in workload_strategy(),
        seed in any::<u64>(),
    ) {
        let mut cfg = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(strategy)
            .workload(workload)
            .seed(seed)
            .config();
        cfg.machine.queue_discipline = discipline;
        let report = cfg.run_validated()
            .unwrap_or_else(|e| panic!("{discipline:?} {workload}: {e}"));
        report.check_invariants();
    }

    /// Heterogeneous PE speeds preserve correctness; more spread never
    /// speeds the machine up.
    #[test]
    fn heterogeneous_speeds_preserve_correctness(
        spread in 1u64..6,
        seed in any::<u64>(),
    ) {
        let mut cfg = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::Cwn { radius: 4, horizon: 1 })
            .workload(WorkloadSpec::fib(10))
            .seed(seed)
            .config();
        cfg.machine.pe_speed_spread = spread;
        let het = cfg.run_validated().unwrap();
        cfg.machine.pe_speed_spread = 1;
        let uniform = cfg.run_validated().unwrap();
        prop_assert_eq!(het.result, uniform.result);
        // Slower PEs should not make the run faster. Placement noise can
        // shave a little, so allow 10% slack rather than a strict bound.
        prop_assert!(het.completion_time * 10 >= uniform.completion_time * 9,
            "heterogeneity sped the machine up?! {} vs {}",
            het.completion_time, uniform.completion_time);
    }

    /// The calendar queue pops in exactly the binary heap's order for any
    /// schedule (including duplicates and far-future jumps).
    #[test]
    fn calendar_queue_matches_event_queue(
        delays in prop::collection::vec(0u64..5000, 1..300),
        holds in prop::collection::vec(0u64..500, 0..300),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            cal.schedule_after(d, i);
            heap.schedule_after(d, i);
        }
        for (i, &d) in holds.iter().enumerate() {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_some() {
                cal.schedule_after(d, 100_000 + i);
                heap.schedule_after(d, 100_000 + i);
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The same order equality with the machine model's keyed scheduling
    /// on dense instants: non-monotone `(random << 32 | i)` keys and mostly
    /// 0..4 delays, interleaved with pops, so most instants hold many
    /// events and zero-delay inserts land in the instant being drained.
    #[test]
    fn calendar_queue_matches_event_queue_keyed(
        ops in prop::collection::vec(
            (
                0u64..1 << 20,
                // Nine in ten delays are 0..4; the rest reach the overflow.
                (0u64..10, 0u64..3000)
                    .prop_map(|(coin, far)| if coin == 0 { far } else { coin % 4 }),
                0usize..3,
            ),
            1..600,
        ),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        for (i, &(high, delay, pops)) in ops.iter().enumerate() {
            let at = heap.now() + delay;
            let key = (high << 32) | i as u64;
            cal.schedule_keyed_at(at, key, i);
            heap.schedule_keyed_at(at, key, i);
            for _ in 0..pops {
                prop_assert_eq!(cal.pop_keyed(), heap.pop_keyed());
            }
        }
        loop {
            let a = cal.pop_keyed();
            let b = heap.pop_keyed();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    /// IntervalSeries conserves busy time across arbitrary span layouts.
    #[test]
    fn interval_series_conserves_busy_time(
        width in 1u64..50,
        spans in prop::collection::vec((0u64..1000, 1u64..100), 0..50),
    ) {
        let mut s = IntervalSeries::new(width);
        let mut total = 0;
        for &(start, len) in &spans {
            s.add_busy(SimTime(start), SimTime(start + len));
            total += len;
        }
        prop_assert_eq!(s.total_busy(), total);
    }

    /// Utilization fractions stay in [0, 1] through width coarsening and a
    /// checkpoint/resume round trip (`raw_parts`/`from_raw_parts`), and the
    /// resumed series is bit-identical to the uninterrupted one.
    #[test]
    fn interval_series_fractions_survive_coarsening_and_resume(
        width in 1u64..4,
        gaps in prop::collection::vec((0u64..40, 1u64..1500), 1..40),
        split in 0usize..40,
    ) {
        // Non-overlapping busy spans (like a real PE's), pushed far enough
        // to force several pairwise coarsenings of the 8192-interval cap.
        let mut spans = Vec::new();
        let mut cursor = 0u64;
        for &(gap, len) in &gaps {
            spans.push((cursor + gap, cursor + gap + len));
            cursor += gap + len;
        }
        let split = split.min(spans.len());

        let mut whole = IntervalSeries::new(width);
        for &(a, b) in &spans {
            whole.add_busy(SimTime(a), SimTime(b));
        }

        let mut first = IntervalSeries::new(width);
        for &(a, b) in &spans[..split] {
            first.add_busy(SimTime(a), SimTime(b));
        }
        let (w, busy) = first.raw_parts();
        let mut resumed = IntervalSeries::from_raw_parts(w, busy.to_vec());
        for &(a, b) in &spans[split..] {
            resumed.add_busy(SimTime(a), SimTime(b));
        }

        let horizon = SimTime(cursor.max(1));
        let a = whole.utilization_series(horizon);
        let b = resumed.utilization_series(horizon);
        prop_assert_eq!(&a, &b, "resume diverged from the uninterrupted series");
        prop_assert!(whole.raw_parts().1.len() <= IntervalSeries::MAX_INTERVALS);
        for &(_, u) in &a {
            prop_assert!((0.0..=1.0).contains(&u), "fraction {u} out of [0, 1]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every strategy × topology, the exported traces are well-formed:
    /// the Chrome trace_event file parses, every non-metadata event carries
    /// pid/tid/ts, and timestamps are monotone per track; the JSONL export
    /// round-trips through its validator with a truthful header.
    #[test]
    fn exported_traces_are_well_formed(
        topology in topology_strategy(),
        strategy in placement_strategy(),
        keep_last in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // A small ring capacity exercises the wrapped (rotated) path.
        let (capacity, mode) = if keep_last {
            (128, TraceMode::KeepLast)
        } else {
            (50_000, TraceMode::KeepFirst)
        };
        let (report, trace) = SimulationBuilder::new()
            .topology(topology)
            .strategy(strategy)
            .workload(WorkloadSpec::fib(9))
            .seed(seed)
            .trace_capacity(capacity)
            .trace_mode(mode)
            .run_traced()
            .unwrap_or_else(|e| panic!("{topology} {strategy} seed {seed}: {e}"));

        let chrome = export_trace(&trace, &report, TraceFormat::Chrome);
        let summary = oracle::traceio::validate_chrome(&chrome)
            .unwrap_or_else(|e| panic!("{topology} {strategy}: chrome: {e}"));
        prop_assert_eq!(summary.dropped, trace.dropped());

        let jsonl = export_trace(&trace, &report, TraceFormat::Jsonl);
        let summary = oracle::traceio::validate_jsonl(&jsonl)
            .unwrap_or_else(|e| panic!("{topology} {strategy}: jsonl: {e}"));
        prop_assert_eq!(summary.events, trace.len());
        prop_assert_eq!(summary.dropped, trace.dropped());
    }
}

/// Random (valid) fault plans for a 4×4 grid: up to two crashes, a couple
/// of link windows, a few percent message loss, transient slowdowns, and
/// an optional recovery layer.
fn fault_plan_strategy() -> impl proptest::strategy::Strategy<Value = oracle::model::FaultPlan> {
    use oracle::model::{FaultPlan, LinkWindow, PeCrash, RecoveryParams, Slowdown};
    let crashes = prop::collection::vec(
        (0u32..16, 1u64..1500).prop_map(|(pe, at)| PeCrash { pe, at }),
        0..3,
    );
    // mesh2d(4, 4, false) has 24 channels.
    let links = prop::collection::vec(
        (0u32..24, 1u64..800, 1u64..800).prop_map(|(channel, a, b)| LinkWindow {
            channel,
            down_at: a.min(b),
            up_at: a.max(b) + 1,
        }),
        0..3,
    );
    let slows = prop::collection::vec(
        (0u32..16, 1u64..800, 1u64..400, 2u64..6).prop_map(|(pe, from, len, factor)| Slowdown {
            pe,
            from,
            until: from + len,
            factor,
        }),
        0..2,
    );
    (
        crashes,
        links,
        0u32..3,
        slows,
        any::<bool>(),
        (400u64..3000, 1u32..5),
    )
        .prop_map(
            |(
                pe_crashes,
                link_windows,
                loss_pct,
                slowdowns,
                recover,
                (ack_timeout, max_retries),
            )| {
                // Plan validation rejects a PE crashed twice and
                // overlapping windows on one channel; keep the first
                // occurrence per PE/channel so every generated plan loads.
                let mut seen_pes = std::collections::HashSet::new();
                let pe_crashes: Vec<PeCrash> = pe_crashes
                    .into_iter()
                    .filter(|c| seen_pes.insert(c.pe))
                    .collect();
                let mut seen_channels = std::collections::HashSet::new();
                let link_windows: Vec<LinkWindow> = link_windows
                    .into_iter()
                    .filter(|w| seen_channels.insert(w.channel))
                    .collect();
                FaultPlan {
                    pe_crashes,
                    link_windows,
                    message_loss: loss_pct as f64 / 100.0,
                    slowdowns,
                    recovery: if recover {
                        Some(RecoveryParams {
                            ack_timeout,
                            max_retries,
                        })
                    } else {
                        None
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness under arbitrary fault plans: every run either completes
    /// with the correct answer or fails with a fault-attributed (or
    /// watchdog) error — never a silently wrong result, never a hang.
    #[test]
    fn fault_plans_never_corrupt_the_answer(
        plan in fault_plan_strategy(),
        strategy in placement_strategy(),
        seed in any::<u64>(),
    ) {
        let report = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(strategy)
            .workload(WorkloadSpec::fib(10))
            .seed(seed)
            .fault_plan(plan.clone())
            .run_validated();
        match report {
            Ok(r) => {
                prop_assert_eq!(r.result, 55, "wrong fib(10) under plan {}", plan);
                r.check_invariants();
            }
            Err(SimError::GoalsLost { expected_by_plan: true, .. }
                | SimError::Stalled { .. }
                | SimError::EventLimit { .. }
                | SimError::Stagnation { .. }) => {}
            Err(other) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("unexpected error class under plan {plan}: {other}"),
            )),
        }
    }
}
