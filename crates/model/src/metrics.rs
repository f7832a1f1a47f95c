//! Run-level measurement and the final [`Report`].
//!
//! Mirrors ORACLE's statistics: "the overall average PE utilization,
//! average utilization of individual PEs, average and individual
//! utilizations of communication channels, the time to completion", the
//! per-interval utilization stream that drove the load monitor, and the
//! message-distance distribution of the paper's Table 3.

use oracle_des::{Histogram, ProfileReport};

/// Message traffic counters, by message class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Goal-message hops (each hop of each goal message counts once).
    pub goal_hops: u64,
    /// Response-message hops.
    pub response_hops: u64,
    /// Strategy control messages (proximity updates, steal handshake).
    pub control_msgs: u64,
    /// Periodic load-word broadcasts.
    pub load_updates: u64,
}

impl TrafficCounters {
    /// Total channel transfers of any kind.
    pub fn total(&self) -> u64 {
        self.goal_hops + self.response_hops + self.control_msgs + self.load_updates
    }
}

/// Fault-injection and recovery counters for one run. All zero on a
/// fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultMetrics {
    /// PEs killed by the plan during the run.
    pub pes_crashed: u32,
    /// Goals destroyed by faults: resident on a crashed PE, black-holed at
    /// a dead PE, or dropped in transit.
    pub goals_lost: u64,
    /// Channel transfers dropped by the message-loss process (all message
    /// classes).
    pub messages_dropped: u64,
    /// Goals re-spawned by the recovery layer (each is also counted in
    /// `goals_created`).
    pub goals_respawned: u64,
    /// Responses discarded because a newer attempt already filled the slot.
    pub duplicate_responses: u64,
    /// Goal slots whose retry budget ran out.
    pub retries_exhausted: u64,
    /// Mean time from a recovered goal's first spawn to its response
    /// finally combining (only goals that needed >= 1 respawn).
    pub recovery_latency_mean: f64,
    /// Largest such recovery latency.
    pub recovery_latency_max: f64,
}

impl FaultMetrics {
    /// True when any fault touched the run.
    pub fn any(&self) -> bool {
        self.pes_crashed > 0
            || self.goals_lost > 0
            || self.messages_dropped > 0
            || self.goals_respawned > 0
            || self.duplicate_responses > 0
            || self.retries_exhausted > 0
    }
}

/// How an open-traffic run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenOutcome {
    /// The run reached its configured duration (or the arrival schedule
    /// was exhausted and all work drained) with the backlog bounded.
    Completed,
    /// The saturation trip wire fired: `inflight` requests were in flight
    /// at time `at`, so the offered load exceeds what the machine can
    /// sustain. The statistics cover the run up to that instant.
    Saturated { at: u64, inflight: u64 },
    /// Admission control shed the majority of arrivals: the machine
    /// protected itself, but the offered load was far past what it could
    /// carry. `shed` of `arrivals` requests were refused at the door.
    Overloaded { shed: u64, arrivals: u64 },
    /// A deadline was configured and *no* request ever completed within
    /// it (`abandoned` blew their budget): the deadline is unservable at
    /// this load.
    DeadlineExhausted { abandoned: u64 },
}

impl OpenOutcome {
    /// True when the run ended by saturation.
    pub fn is_saturated(&self) -> bool {
        matches!(self, OpenOutcome::Saturated { .. })
    }

    /// True for the degraded outcomes (anything but `Completed`).
    pub fn is_degraded(&self) -> bool {
        !matches!(self, OpenOutcome::Completed)
    }
}

/// Steady-state measurements of an open-traffic run (`None` on the report
/// of a classic closed run). Sojourn figures cover only requests completing
/// inside the measurement window `[warmup, duration)`; queue-length figures
/// are time-weighted over the same window.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenMetrics {
    /// How the run ended.
    pub outcome: OpenOutcome,
    /// Configured run duration (simulated units).
    pub duration: u64,
    /// Configured warmup window.
    pub warmup: u64,
    /// Requests injected over the whole run.
    pub arrivals: u64,
    /// Requests completed over the whole run.
    pub completions: u64,
    /// Requests completed inside the measurement window (the population of
    /// the sojourn statistics). With a deadline configured this counts
    /// only within-deadline completions.
    pub completions_measured: u64,
    /// Requests still in the system when the run ended: routed subtrees
    /// plus requests waiting out a retry backoff.
    pub inflight_at_end: u64,
    /// Offered load: arrivals per 1000 time units over the whole run.
    pub offered_rate: f64,
    /// Carried load: measured completions (including ones past their
    /// deadline — the machine did the work even if the client walked away)
    /// per 1000 time units of measurement window.
    pub throughput: f64,
    /// Useful carried load: measured *within-deadline* completions per
    /// 1000 time units of measurement window. Equals `throughput` when no
    /// deadline is configured.
    pub goodput: f64,
    /// Mean sojourn time (arrival to result) in the window.
    pub sojourn_mean: f64,
    /// Sojourn percentiles from the log-bucketed histogram (<= 12.5%
    /// relative bucket error). With a deadline configured these are
    /// quantiles of the within-deadline completions (`sojourn_p99` is the
    /// "deadline-hit p99").
    pub sojourn_p50: u64,
    pub sojourn_p95: u64,
    pub sojourn_p99: u64,
    /// Largest measured sojourn.
    pub sojourn_max: u64,
    /// Time-weighted mean of the total queued-goal count.
    pub qlen_time_avg: f64,
    /// Time-weighted 95th percentile of the total queued-goal count.
    pub qlen_p95: u64,
    /// Configured per-request deadline (`None` when off).
    pub deadline: Option<u64>,
    /// Arrivals refused at the door over the whole run: admission control
    /// plus arrivals that found every edge PE dead.
    pub shed: u64,
    /// `shed / arrivals` (0 when there were no arrivals).
    pub shed_rate: f64,
    /// Requests that completed past their deadline (dead losses).
    pub abandoned_deadline: u64,
    /// Requests dropped after exhausting their retry budget (or with no
    /// live edge PE left to re-enter at).
    pub abandoned_retries: u64,
    /// `(abandoned_deadline + abandoned_retries) / arrivals` (0 when there
    /// were no arrivals).
    pub abandonment_rate: f64,
    /// Re-injections performed by the request-retry layer.
    pub retries: u64,
    /// Circuit-breaker transitions from closed to open.
    pub breaker_opens: u64,
}

/// One row of the report's top-K heavy-hitter table: a PE and the work it
/// absorbed. The table (plus the [`Report::other_goals`] remainder) is the
/// O(1)-size stand-in for the full `per_pe_goals` vector on huge machines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopPe {
    /// The PE's id.
    pub pe: u32,
    /// Goals it executed.
    pub goals: u64,
    /// Its utilization fraction in `[0, 1]`.
    pub utilization: f64,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Strategy name.
    pub strategy: String,
    /// Topology name.
    pub topology: String,
    /// Program name.
    pub program: String,
    /// Number of PEs.
    pub num_pes: usize,
    /// Time to completion in simulated units (the instant the root task's
    /// result was produced).
    pub completion_time: u64,
    /// The value computed by the simulated program.
    pub result: i64,
    /// Goals created during the run.
    pub goals_created: u64,
    /// Goals executed (must equal `goals_created` on a successful run).
    pub goals_executed: u64,
    /// Responses combined into waiting tasks.
    pub responses_processed: u64,
    /// Overall average PE utilization as a fraction in `[0, 1]` (the
    /// paper's Y axis shows it in percent; renderers multiply by 100).
    /// Without a co-processor this includes message-handling time. All
    /// utilization fields of a report share this unit.
    pub avg_utilization: f64,
    /// Useful-work efficiency as a fraction in `[0, 1]`: user computation
    /// (split + leaf + combine time) divided by
    /// `num_pes * completion_time`. Equals `avg_utilization` when a
    /// co-processor handles all balancing work.
    pub efficiency: f64,
    /// Speedup as the paper defines it: `num_pes * avg_utilization`.
    pub speedup: f64,
    /// Per-PE utilization quantiles (fractions in `[0, 1]`) from a
    /// log-histogram sketch of per-PE busy time — the O(1) summary of the
    /// utilization distribution that is always present, however large the
    /// machine. Bucket error <= 12.5% relative.
    pub util_p10: f64,
    pub util_p50: f64,
    pub util_p90: f64,
    pub util_p99: f64,
    /// The [`Report::TOP_PES`] PEs that executed the most goals (ties to
    /// the lower id), heaviest first. Always present; `top-K + other_goals`
    /// accounts for every executed goal, which `check_invariants` pins.
    pub top_pes: Vec<TopPe>,
    /// Goals executed by PEs outside `top_pes`.
    pub other_goals: u64,
    /// Per-PE utilization fractions in `[0, 1]`. Opt-in
    /// (`MachineConfig::per_pe_metrics`, the CLI's `--per-pe`); empty by
    /// default so the report stays O(1) in the PE count.
    pub per_pe_utilization: Vec<f64>,
    /// Goals executed by each PE (the placement distribution itself).
    /// Opt-in like `per_pe_utilization`.
    pub per_pe_goals: Vec<u64>,
    /// Average-across-PEs utilization per sampling interval:
    /// `(interval_start_time, fraction)` — the series of Plots 11–16.
    pub util_series: Vec<(u64, f64)>,
    /// Optional per-PE per-interval utilizations (the load-monitor stream);
    /// `per_pe_series[pe][interval]`.
    pub per_pe_series: Option<Vec<Vec<f64>>>,
    /// Distribution of the distance (hops) each goal travelled from its
    /// creation PE to the PE that executed it — the paper's Table 3.
    /// Together with `hop_overflow` this covers every executed goal.
    pub hop_histogram: Vec<u64>,
    /// Goals whose hop count fell beyond the histogram's bucket range
    /// (wandering placement on a small-diameter topology can revisit PEs
    /// indefinitely). Counted here so the histogram plus this field always
    /// sums to `goals_executed`; their true magnitudes still contribute to
    /// `avg_goal_distance`.
    pub hop_overflow: u64,
    /// Mean of that distribution ("Average" column of Table 3).
    pub avg_goal_distance: f64,
    /// Mean dispatch latency: time units from a goal's creation to the
    /// start of its execution (travel + queueing). The agility metric:
    /// CWN buys its fast rise time by paying placement latency up front.
    pub dispatch_latency_mean: f64,
    /// Largest single dispatch latency observed.
    pub dispatch_latency_max: f64,
    /// Message traffic by class.
    pub traffic: TrafficCounters,
    /// Mean channel utilization fraction across channels.
    pub avg_channel_utilization: f64,
    /// Highest single-channel utilization fraction (the bottleneck).
    pub max_channel_utilization: f64,
    /// High-water mark of any channel's message backlog — the
    /// communication-stagnation indicator (the paper chose costs so that
    /// "communication stagnation does not occur").
    pub max_channel_backlog: usize,
    /// High-water mark of any PE's work-queue length — the memory-footprint
    /// proxy, governed by the queue discipline.
    pub peak_queue_len: usize,
    /// Coefficient of variation of per-PE busy time: 0 = perfectly even
    /// load, larger = more imbalance.
    pub imbalance_cv: f64,
    /// Total user computation charged (split + leaf + combine time).
    pub seq_work: u64,
    /// Discrete events processed.
    pub events: u64,
    /// Seed the run used.
    pub seed: u64,
    /// Fault-injection and recovery counters (all zero on a fault-free
    /// run).
    pub faults: FaultMetrics,
    /// Engine profile (per-event-kind counts and wall times, queue pop
    /// time, routing time, queue-depth high-water mark, control-tag
    /// counters); `None` unless the run had `MachineConfig::profile` set.
    /// Wall times are nondeterministic.
    pub profile: Option<ProfileReport>,
    /// Steady-state open-traffic measurements; `None` on a closed run.
    /// When `Some`, `completion_time` is the run's end time (duration or
    /// saturation instant) and `result` is 0 (there is no single root).
    pub open: Option<OpenMetrics>,
}

impl Report {
    /// Size of the [`Report::top_pes`] heavy-hitter table.
    pub const TOP_PES: usize = 8;

    /// Speedup ratio of this run over `other` (the paper's Table 2 cells:
    /// speedup of CWN over GM). Both runs should be of the same program and
    /// topology for the ratio to be meaningful.
    pub fn speedup_over(&self, other: &Report) -> f64 {
        assert!(other.speedup > 0.0, "degenerate baseline speedup");
        self.speedup / other.speedup
    }

    /// The ideal completion time: sequential work divided by PE count.
    pub fn ideal_time(&self) -> f64 {
        self.seq_work as f64 / self.num_pes as f64
    }

    /// Build the hop fields from a histogram: the trimmed buckets, the
    /// overflow count (observations past the bucket range — previously
    /// lost, which broke goal conservation on wandering placements), and
    /// the mean over *all* observations including overflow.
    pub(crate) fn hop_fields(h: &Histogram) -> (Vec<u64>, u64, f64) {
        let upto = h.max_nonzero_bucket().map_or(0, |b| b + 1);
        (h.buckets()[..upto].to_vec(), h.overflow(), h.mean())
    }

    /// Internal consistency checks (used by integration tests): goal
    /// conservation, utilization bounds, speedup bound. Under injected
    /// faults exact goal conservation cannot hold (lost goals never
    /// execute; superseded attempts may still be in queues at completion),
    /// so the equality relaxes to an upper bound there.
    pub fn check_invariants(&self) {
        if self.faults.any() || self.open.is_some() {
            // Open runs end at a time horizon, not at quiescence: goals
            // still queued or in flight at the horizon were created but
            // never executed.
            assert!(
                self.goals_executed <= self.goals_created,
                "more goals executed than created"
            );
        } else {
            assert_eq!(
                self.goals_created, self.goals_executed,
                "goal conservation violated"
            );
        }
        assert!(
            (0.0..=1.0 + 1e-9).contains(&self.avg_utilization),
            "utilization out of range: {}",
            self.avg_utilization
        );
        assert!(
            (0.0..=1.0 + 1e-9).contains(&self.efficiency),
            "efficiency out of range: {}",
            self.efficiency
        );
        assert!(
            self.speedup <= self.num_pes as f64 + 1e-9,
            "speedup exceeds PE count"
        );
        for &u in &self.per_pe_utilization {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "per-PE utilization {u}");
        }
        let hist_total: u64 = self.hop_histogram.iter().sum::<u64>() + self.hop_overflow;
        assert_eq!(
            hist_total, self.goals_executed,
            "hop histogram (with overflow) does not cover every executed goal"
        );
        // Streaming conservation: the heavy-hitter table plus the
        // remainder must cover every executed goal — the O(1) analogue of
        // the full per-PE sum below, checked whether or not the per-PE
        // vectors were requested.
        let top_total: u64 = self.top_pes.iter().map(|t| t.goals).sum();
        assert_eq!(
            top_total + self.other_goals,
            self.goals_executed,
            "top-K goal counts plus remainder do not cover every executed goal"
        );
        for t in &self.top_pes {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&t.utilization),
                "top-PE utilization {} out of range",
                t.utilization
            );
        }
        // The full per-PE vector is opt-in; when present it must agree.
        if !self.per_pe_goals.is_empty() {
            let pe_total: u64 = self.per_pe_goals.iter().sum();
            assert_eq!(
                pe_total, self.goals_executed,
                "per-PE goal counts do not cover every executed goal"
            );
        }
        if let Some(o) = &self.open {
            // Every arrival is accounted exactly once: refused at the
            // door, completed in time, completed late, dropped by the
            // retry layer, or still in the system at the horizon.
            assert_eq!(
                o.arrivals,
                o.completions
                    + o.shed
                    + o.abandoned_deadline
                    + o.abandoned_retries
                    + o.inflight_at_end,
                "open-traffic arrival conservation violated"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(speedup: f64) -> Report {
        Report {
            strategy: "s".into(),
            topology: "t".into(),
            program: "p".into(),
            num_pes: 4,
            completion_time: 100,
            result: 0,
            goals_created: 3,
            goals_executed: 3,
            responses_processed: 2,
            avg_utilization: speedup / 4.0,
            efficiency: speedup / 4.0,
            speedup,
            util_p10: 0.4,
            util_p50: 0.5,
            util_p90: 0.5,
            util_p99: 0.5,
            top_pes: vec![
                TopPe {
                    pe: 0,
                    goals: 1,
                    utilization: 0.5,
                },
                TopPe {
                    pe: 1,
                    goals: 1,
                    utilization: 0.5,
                },
                TopPe {
                    pe: 2,
                    goals: 1,
                    utilization: 0.5,
                },
                TopPe {
                    pe: 3,
                    goals: 0,
                    utilization: 0.5,
                },
            ],
            other_goals: 0,
            per_pe_utilization: vec![0.5; 4],
            per_pe_goals: vec![1, 1, 1, 0],
            util_series: vec![],
            per_pe_series: None,
            hop_histogram: vec![1, 2],
            hop_overflow: 0,
            avg_goal_distance: 0.5,
            dispatch_latency_mean: 1.0,
            dispatch_latency_max: 2.0,
            traffic: TrafficCounters::default(),
            avg_channel_utilization: 0.1,
            max_channel_utilization: 0.2,
            max_channel_backlog: 0,
            peak_queue_len: 2,
            imbalance_cv: 0.0,
            seq_work: 200,
            events: 10,
            seed: 1,
            faults: FaultMetrics::default(),
            profile: None,
            open: None,
        }
    }

    #[test]
    fn speedup_ratio() {
        let a = dummy(2.0);
        let b = dummy(1.0);
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_time() {
        assert!((dummy(1.0).ideal_time() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn invariants_pass_on_consistent_report() {
        dummy(2.0).check_invariants();
    }

    #[test]
    #[should_panic(expected = "conservation")]
    fn invariants_catch_lost_goals() {
        let mut r = dummy(1.0);
        r.goals_executed = 2;
        r.check_invariants();
    }

    #[test]
    fn invariants_relax_conservation_under_faults() {
        let mut r = dummy(1.0);
        r.goals_created = 5; // 2 lost to a crash, never executed
        r.faults.pes_crashed = 1;
        r.faults.goals_lost = 2;
        assert!(r.faults.any());
        r.check_invariants();
    }

    #[test]
    fn hop_fields_include_overflow() {
        let mut h = Histogram::new(4);
        h.record(1);
        h.record(9); // past the bucket range
        h.record(9);
        let (buckets, overflow, mean) = Report::hop_fields(&h);
        assert_eq!(buckets, vec![0, 1]);
        assert_eq!(overflow, 2, "overflow must not be silently lost");
        assert!(
            (mean - 19.0 / 3.0).abs() < 1e-12,
            "mean keeps true magnitudes"
        );
    }

    #[test]
    fn invariants_accept_overflowed_hop_histogram() {
        let mut r = dummy(1.0);
        r.goals_created = 5;
        r.goals_executed = 5;
        r.per_pe_goals = vec![2, 1, 1, 1];
        r.other_goals = 2; // top-K table still shows 3 of the 5
        r.hop_histogram = vec![1, 2];
        r.hop_overflow = 2; // 3 in buckets + 2 overflowed = 5 executed
        r.check_invariants();
    }

    #[test]
    #[should_panic(expected = "top-K")]
    fn invariants_catch_top_k_undercount() {
        // Streaming conservation: the heavy-hitter table plus the
        // remainder must cover every executed goal even when the full
        // per-PE vector is absent (the default report shape).
        let mut r = dummy(1.0);
        r.per_pe_goals = Vec::new();
        r.per_pe_utilization = Vec::new();
        r.other_goals = 0;
        r.top_pes.pop(); // drop a PE that executed... nothing; still 3
        r.top_pes.pop(); // now the table misses an executed goal
        r.check_invariants();
    }

    #[test]
    fn invariants_skip_per_pe_sum_when_vectors_opted_out() {
        let mut r = dummy(1.0);
        r.per_pe_goals = Vec::new();
        r.per_pe_utilization = Vec::new();
        r.check_invariants(); // top-K + other still covers everything
    }

    #[test]
    #[should_panic(expected = "hop histogram")]
    fn invariants_still_catch_uncovered_goals() {
        let mut r = dummy(1.0);
        r.hop_overflow = 0;
        r.hop_histogram = vec![1]; // 1 != 3 executed
        r.check_invariants();
    }

    #[test]
    #[should_panic(expected = "utilization out of range")]
    fn invariants_reject_percent_scale_utilization() {
        let mut r = dummy(2.0);
        // A percentage smuggled into the fraction-unit field must trip.
        r.avg_utilization = 50.0;
        r.check_invariants();
    }

    #[test]
    fn invariants_relax_conservation_on_open_runs() {
        let mut r = dummy(1.0);
        r.goals_created = 5; // 2 still queued when the horizon hit
        r.open = Some(OpenMetrics {
            outcome: OpenOutcome::Completed,
            duration: 100,
            warmup: 10,
            arrivals: 3,
            completions: 1,
            completions_measured: 1,
            inflight_at_end: 2,
            offered_rate: 30.0,
            throughput: 11.1,
            goodput: 11.1,
            sojourn_mean: 12.0,
            sojourn_p50: 12,
            sojourn_p95: 12,
            sojourn_p99: 12,
            sojourn_max: 12,
            qlen_time_avg: 0.5,
            qlen_p95: 2,
            deadline: None,
            shed: 0,
            shed_rate: 0.0,
            abandoned_deadline: 0,
            abandoned_retries: 0,
            abandonment_rate: 0.0,
            retries: 0,
            breaker_opens: 0,
        });
        r.check_invariants();
        assert!(!r.open.as_ref().unwrap().outcome.is_saturated());
        assert!(OpenOutcome::Saturated { at: 5, inflight: 9 }.is_saturated());
        assert!(!OpenOutcome::Completed.is_degraded());
        assert!(OpenOutcome::Overloaded {
            shed: 8,
            arrivals: 10
        }
        .is_degraded());
        assert!(OpenOutcome::DeadlineExhausted { abandoned: 4 }.is_degraded());
    }

    #[test]
    fn fault_metrics_default_is_quiet() {
        assert!(!FaultMetrics::default().any());
    }

    #[test]
    fn traffic_total() {
        let t = TrafficCounters {
            goal_hops: 1,
            response_hops: 2,
            control_msgs: 3,
            load_updates: 4,
        };
        assert_eq!(t.total(), 10);
    }
}
