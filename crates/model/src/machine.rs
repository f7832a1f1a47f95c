//! The simulation driver: wires a topology, a program, and a strategy into
//! an event-driven run and produces a [`Report`].
//!
//! Two resource classes are contended, exactly as in ORACLE: each PE
//! executes one work item at a time (goals, response combinations, and —
//! without a communication co-processor — message handling), and each
//! channel transfers one message at a time, with FIFO backlogs on both.

use oracle_des::{
    CalendarQueue, FastHashMap, Histogram, IntervalSeries, KindId, LogHistogram, OnlineStats,
    Profiler, Rng, SimTime,
};
use oracle_topo::{ChannelId, PeId, Topology};

use crate::channel::Channel;
use crate::config::MachineConfig;
use crate::cost::CostModel;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::loadinfo::SilentWords;
use crate::message::{ControlMsg, Flight, FlightDest, GoalId, GoalMsg, Packet};
use crate::metrics::{FaultMetrics, OpenMetrics, OpenOutcome, Report, TopPe, TrafficCounters};
use crate::open::{AdmissionPolicy, Inflight, OpenState};
use crate::pe::{Executing, Pe, Waiting, WorkItem};
use crate::program::{Continuation, Expansion, Program, TaskList, TaskSpec};
use crate::sparse::Slab;
use crate::strategy::Strategy;
use crate::trace::{Trace, TraceEvent};

/// Discrete events of the machine model. `pub(crate)` so the snapshot
/// codec (`crate::snapshot`) can encode the pending event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The current work item on a PE completes.
    PeDone(PeId),
    /// The in-flight transfer on a channel completes.
    ChannelDone(ChannelId),
    /// A strategy timer fires.
    Timer(PeId, u64),
    /// A PE's periodic load-word broadcast is due.
    LoadBcast(PeId),
    /// Failure injection: the PE dies now.
    FailPe(PeId),
    /// Fault plan: the channel goes down now.
    LinkDown(ChannelId),
    /// Fault plan: the channel comes back up now.
    LinkUp(ChannelId),
    /// Fault plan: a transient slowdown window opens on the PE.
    SlowStart(PeId, u64),
    /// Fault plan: the slowdown window on the PE closes.
    SlowEnd(PeId),
    /// Recovery: the tracked goal has been silent for its whole ack
    /// window — re-spawn it if its response has still not combined.
    AckTimeout(GoalId),
    /// Open traffic: the next external request arrives now.
    Arrival,
    /// Open traffic: the backoff of the lost request whose dead root goal
    /// had this id expires — re-inject it at the next live edge PE.
    Retry(GoalId),
}

/// The PE on which a closed run's root goal is injected at time zero, and
/// where `@root` open traffic enters.
pub(crate) const ROOT_PE: PeId = PeId(0);

/// Profiler registry names, indexed by [`Event::kind`]. Keep the two in
/// sync.
const EVENT_KIND_NAMES: [&str; 12] = [
    "pe_done",
    "channel_done",
    "timer",
    "load_bcast",
    "fail_pe",
    "link_down",
    "link_up",
    "slow_start",
    "slow_end",
    "ack_timeout",
    "arrival",
    "retry",
];

impl Event {
    /// Index of this event's kind in [`EVENT_KIND_NAMES`].
    pub(crate) fn kind(&self) -> KindId {
        KindId(match self {
            Event::PeDone(_) => 0,
            Event::ChannelDone(_) => 1,
            Event::Timer(..) => 2,
            Event::LoadBcast(_) => 3,
            Event::FailPe(_) => 4,
            Event::LinkDown(_) => 5,
            Event::LinkUp(_) => 6,
            Event::SlowStart(..) => 7,
            Event::SlowEnd(_) => 8,
            Event::AckTimeout(_) => 9,
            Event::Arrival => 10,
            Event::Retry(_) => 11,
        })
    }
}

/// Recovery bookkeeping for one spawned goal: enough to re-create it from
/// the parent's side if it is lost or silent.
pub(crate) struct Outstanding {
    /// Where the parent task waits (`None` for the root goal).
    pub(crate) parent: Option<(PeId, GoalId)>,
    /// The task to re-spawn.
    pub(crate) spec: TaskSpec,
    /// Re-spawn attempts already made for this goal slot.
    pub(crate) attempts: u32,
    /// When the slot's first attempt was created (for recovery-latency
    /// accounting).
    pub(crate) first_created: u64,
    /// The PE the goal was last accepted on, if known — lets a crash
    /// trigger immediate re-spawn of everything resident on the dead PE.
    pub(crate) resident: Option<PeId>,
}

/// Fault-injection and recovery state of a run.
pub(crate) struct FaultState {
    /// Goals the recovery layer is tracking, keyed by goal id.
    pub(crate) outstanding: FastHashMap<GoalId, Outstanding>,
    pub(crate) pes_crashed: u32,
    pub(crate) goals_lost: u64,
    pub(crate) messages_dropped: u64,
    pub(crate) goals_respawned: u64,
    pub(crate) duplicate_responses: u64,
    pub(crate) retries_exhausted: u64,
    pub(crate) recovery_latency: OnlineStats,
}

impl FaultState {
    fn new() -> Self {
        FaultState {
            outstanding: FastHashMap::default(),
            pes_crashed: 0,
            goals_lost: 0,
            messages_dropped: 0,
            goals_respawned: 0,
            duplicate_responses: 0,
            retries_exhausted: 0,
            recovery_latency: OnlineStats::new(),
        }
    }

    fn metrics(&self) -> FaultMetrics {
        FaultMetrics {
            pes_crashed: self.pes_crashed,
            goals_lost: self.goals_lost,
            messages_dropped: self.messages_dropped,
            goals_respawned: self.goals_respawned,
            duplicate_responses: self.duplicate_responses,
            retries_exhausted: self.retries_exhausted,
            recovery_latency_mean: self.recovery_latency.mean(),
            recovery_latency_max: self.recovery_latency.max().unwrap_or(0.0),
        }
    }
}

/// Default window (in events) of the progress watchdog: if no goal is
/// created, executed, or combined across a full window, the run is
/// declared stalled. [`crate::config::MachineConfig::progress_window`]
/// overrides it per run.
pub(crate) const PROGRESS_WINDOW: u64 = 1_000_000;

/// Everything a strategy can see and act on: the machine without the
/// strategy itself. Strategies receive `&mut Core` in every callback.
///
/// Fields are `pub(crate)` (rather than private) so the snapshot codec
/// (`crate::snapshot`) and the invariant auditor (`crate::audit`) can read
/// and rebuild the state directly; the public API is still only the
/// accessor methods below.
pub struct Core {
    pub(crate) topo: Topology,
    pub(crate) costs: CostModel,
    pub(crate) config: MachineConfig,
    pub(crate) program: Box<dyn Program>,
    /// Per-PE state (queues, RNG stream, key and goal-id sequences,
    /// dispatch latency), paged: a page is built on its first write.
    pub(crate) pes: Slab<Pe>,
    /// Per-channel state, paged like `pes`.
    pub(crate) channels: Slab<Channel>,
    pub(crate) events: CalendarQueue<Event>,
    /// Silent load words on the wire: completions that hold a reserved key
    /// but no queued event (`crate::loadinfo`).
    pub(crate) silent: SilentWords,
    /// Ordering key of the event being handled (or last handled): the
    /// auditor checks that no silent word listed at or before it is still
    /// on the wire.
    pub(crate) event_key: u64,
    /// Scratch for a completed transfer: each receiver with the slot of
    /// the sender in its neighbour-load table (`Topology::receivers`).
    pub(crate) receivers: Vec<(PeId, usize)>,
    /// Scratch for a broadcast: the sender's incident channels.
    pub(crate) fanout: Vec<ChannelId>,
    /// Construction-time RNG (PE speed spreads). Never drawn from during a
    /// run: runtime randomness comes from the per-PE streams in
    /// [`Pe::rng`], seeded by [`pe_rng`]. The stream layout is part of the
    /// pinned results: changing it changes every golden.
    pub(crate) rng: Rng,
    /// Execution-cost multiplier per PE (1 = nominal speed; larger =
    /// slower hardware). Drawn eagerly in PE order when the machine is
    /// heterogeneous (`pe_speed_spread > 1`); empty, meaning 1 everywhere,
    /// otherwise.
    pub(crate) cost_factors: Vec<u64>,
    /// Event-ordering sequence of the environment actor (actor 0). An
    /// event's queue key is `(actor << 32) | seq` with a per-actor
    /// sequence (actor 0 = environment, then one per PE in
    /// [`Pe::key_seq`], then one per channel in [`Channel::key_seq`]), so
    /// simultaneous events fire in a fixed actor-then-issue order — the
    /// same-time order the goldens pin.
    pub(crate) env_key_seq: u32,
    /// Goal-id sequence of the environment (creator 0: root goals and
    /// open-traffic arrivals; PE creators count in [`Pe::goal_seq`]). A
    /// goal's id is `(creator << 32) | seq`: globally unique without a
    /// shared counter.
    pub(crate) env_goal_seq: u32,
    pub(crate) goals_created: u64,
    pub(crate) goals_executed: u64,
    pub(crate) responses_processed: u64,
    pub(crate) seq_work: u64,
    pub(crate) traffic: TrafficCounters,
    pub(crate) hop_hist: Histogram,
    /// Summed user-busy time across all PEs, per sampling interval.
    pub(crate) global_series: IntervalSeries,
    pub(crate) root_result: Option<(i64, SimTime)>,
    /// Open-traffic runtime state (`Some` iff `config.open` is set); boxed
    /// so the closed-run hot path pays one null check and no space.
    pub(crate) open: Option<Box<OpenState>>,
    pub(crate) trace: Trace,
    /// Engine profiler (`Some` only when `config.profile` is set). Like the
    /// trace, deliberately not part of a snapshot: a resumed run's profile
    /// covers the segment since the restore.
    pub(crate) profiler: Option<Box<Profiler>>,
    /// The fault plan, moved out of `config.fault_plan` at construction.
    pub(crate) plan: FaultPlan,
    /// Dedicated RNG stream for fault decisions (message-loss draws), so a
    /// fault plan never perturbs the strategy's random stream.
    pub(crate) fault_rng: Rng,
    pub(crate) faults: FaultState,
    /// Scratch buffers for the crash sweep, reused across crashes.
    pub(crate) sweep_orphans: Vec<GoalId>,
    pub(crate) sweep_respawns: Vec<GoalId>,
    /// Progress-watchdog state: the `(created, executed, combined)` triple
    /// at the last check and the event count of the next one. Lives in the
    /// `Core` (not the run loop) so a checkpointed run stalls at exactly
    /// the same point as an uninterrupted one.
    pub(crate) last_progress: (u64, u64, u64),
    pub(crate) next_check: u64,
    /// Invariant-auditor state: event count of the next audit and the
    /// simulated time at the previous one (for the monotonicity check).
    pub(crate) next_audit: u64,
    pub(crate) last_audit_now: u64,
    /// Live-graph routing distances (`Some` once any fault has changed the
    /// reachable topology). Derived state: rebuilt eagerly on every crash
    /// and link transition, and after a snapshot restore — never encoded.
    pub(crate) live_routes: Option<Box<LiveRoutes>>,
}

/// All-pairs hop distances over the *live* graph — failed PEs and down
/// channels removed. The static `Topology` tables assume full health;
/// routing a packet around a corpse with them can orbit forever (each
/// greedy hop "closest to the target" still points through the hole).
/// Distances over the graph as it actually is make every hop strictly
/// decrease the remaining distance, which rules cycles out.
pub(crate) struct LiveRoutes {
    /// `dist[from * n + to]`, `u32::MAX` when unreachable. Directed: the
    /// hop `a -> b` needs `b` alive and the channel up (`a`'s own health is
    /// the caller's problem — a packet is never at a dead PE). `u32`
    /// because a path topology's diameter alone can exceed `u16::MAX`.
    dist: Vec<u32>,
}

/// The runtime RNG stream of PE `pe`, decorrelated from the seed with a
/// SplitMix-style multiply so adjacent PEs never share a stream prefix. A
/// pure function of `(seed, pe)`: a PE's stream does not depend on when
/// its page is built.
fn pe_rng(seed: u64, pe: usize) -> Rng {
    Rng::seed_from_u64(seed ^ (pe as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// PE `id` of this machine as it is before the run touches it.
pub(crate) fn fresh_pe(topo: &Topology, config: &MachineConfig, id: usize) -> Pe {
    let degree = topo.degree(PeId(id as u32));
    Pe::new(degree, config.sampling_interval, pe_rng(config.seed, id))
}

/// Channel time to transfer `packet` one hop.
#[inline]
pub(crate) fn hop_cost(costs: &CostModel, packet: &Packet) -> u64 {
    match packet {
        Packet::Goal(_) => costs.goal_hop_cost,
        Packet::Response { .. } => costs.response_hop_cost,
        Packet::Control(_) | Packet::LoadUpdate => costs.control_hop_cost,
    }
}

impl Core {
    // ------------------------------------------------------------------
    // Read-only accessors (the strategy's view of the machine).
    // ------------------------------------------------------------------

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// The interconnection topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of PEs.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.pes.len()
    }

    /// Network diameter in hops.
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.topo.diameter()
    }

    /// The cost model in force.
    #[inline]
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The machine configuration.
    #[inline]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The deterministic PRNG stream of `pe` (all strategy randomness must
    /// come from here, charged to the PE making the decision). Per-PE
    /// streams make a run's randomness independent of how events from
    /// different PEs interleave.
    #[inline]
    pub fn rng(&mut self, pe: PeId) -> &mut Rng {
        &mut self.pe_mut(pe).rng
    }

    /// Read-only state of `pe` (pristine if the PE was never touched).
    #[inline]
    pub(crate) fn pe(&self, pe: PeId) -> &Pe {
        self.pes.get(pe.idx())
    }

    /// Mutable state of `pe`, building its page on first touch.
    #[inline]
    pub(crate) fn pe_mut(&mut self, pe: PeId) -> &mut Pe {
        let Core {
            pes, topo, config, ..
        } = self;
        pes.get_mut_or(pe.idx(), |id| fresh_pe(topo, config, id))
    }

    /// Read-only state of channel `ch` (pristine if never touched).
    #[inline]
    pub(crate) fn channel(&self, ch: ChannelId) -> &Channel {
        self.channels.get(ch.idx())
    }

    /// Mutable state of channel `ch`, building its page on first touch.
    #[inline]
    pub(crate) fn channel_mut(&mut self, ch: ChannelId) -> &mut Channel {
        self.channels.get_mut_or(ch.idx(), |_| Channel::new())
    }

    /// Hardware execution-cost multiplier of `pe` (1 on a uniform
    /// machine).
    #[inline]
    fn cost_factor(&self, pe: PeId) -> u64 {
        self.cost_factors.get(pe.idx()).copied().unwrap_or(1)
    }

    /// Schedule `ev` at the absolute instant `at` under the deterministic
    /// key schedule: `(actor << 32) | seq` with a per-actor sequence. The
    /// actor is 0 for the environment (open traffic, recovery timeouts),
    /// then one code per PE, then one per channel — total: every event
    /// maps to exactly one actor, and only that actor's handler mutates
    /// the actor's state. All simulation events must go through here (or
    /// [`Core::schedule_event_after`]) — a raw auto-keyed insert would
    /// break the pinned same-time order.
    pub(crate) fn schedule_event_at(&mut self, at: SimTime, ev: Event) {
        let (actor, seq) = match ev {
            Event::PeDone(pe)
            | Event::Timer(pe, _)
            | Event::LoadBcast(pe)
            | Event::FailPe(pe)
            | Event::SlowStart(pe, _)
            | Event::SlowEnd(pe) => (1 + pe.0 as u64, &mut self.pe_mut(pe).key_seq),
            Event::ChannelDone(ch) | Event::LinkDown(ch) | Event::LinkUp(ch) => {
                (self.channel_actor(ch), &mut self.channel_mut(ch).key_seq)
            }
            Event::AckTimeout(_) | Event::Arrival | Event::Retry(_) => (0, &mut self.env_key_seq),
        };
        let key = (actor << 32) | *seq as u64;
        *seq += 1;
        self.events.schedule_keyed_at(at, key, ev);
    }

    /// The ordering-key actor of channel `ch`: after the environment and
    /// every PE.
    #[inline]
    fn channel_actor(&self, ch: ChannelId) -> u64 {
        1 + self.pes.len() as u64 + ch.0 as u64
    }

    /// The ordering key of channel `ch`'s event with sequence `seq`.
    #[inline]
    pub(crate) fn channel_key(&self, ch: ChannelId, seq: u32) -> u64 {
        (self.channel_actor(ch) << 32) | seq as u64
    }

    /// Schedule `ev` to fire `delay` units from now (keyed; see
    /// [`Core::schedule_event_at`]).
    #[inline]
    pub(crate) fn schedule_event_after(&mut self, delay: u64, ev: Event) {
        let at = self.events.now() + delay;
        self.schedule_event_at(at, ev);
    }

    /// `pe`'s own current load, per the configured metric: "the number of
    /// messages waiting to be processed by that PE", optionally weighted by
    /// the tasks waiting for responses (future commitments).
    #[inline]
    pub fn load(&self, pe: PeId) -> u32 {
        let p = self.pe(pe);
        p.load() + self.config.future_commitment_weight * p.waiting_tasks()
    }

    /// Number of tasks pinned on `pe` awaiting responses — the "future
    /// commitments" refinement of the load metric.
    #[inline]
    pub fn waiting_tasks(&self, pe: PeId) -> u32 {
        self.pe(pe).waiting_tasks()
    }

    /// Number of goals currently queued (exportable) on `pe`.
    #[inline]
    pub fn queued_goal_count(&self, pe: PeId) -> u32 {
        self.pe(pe).queued_goals
    }

    /// True once `pe` has been killed by fault injection. Strategies use
    /// this to skip dead neighbours when they pick targets themselves.
    #[inline]
    pub fn is_pe_failed(&self, pe: PeId) -> bool {
        self.pe(pe).failed
    }

    /// True when the neighbour `nbr` of `pe` is reachable: alive, and the
    /// connecting channel is not in a fault-plan down window.
    pub fn neighbor_reachable(&self, pe: PeId, nbr: PeId) -> bool {
        if self.pe(nbr).failed {
            return false;
        }
        match self.topo.channel_between(pe, nbr) {
            Some(ch) => !self.channel(ch).down,
            None => false,
        }
    }

    /// [`Core::route_hop`], timed into the profiler when one is attached;
    /// the unprofiled path pays one branch.
    #[inline]
    fn profiled_route_hop(&mut self, from: PeId, to: PeId, prev: Option<PeId>) -> PeId {
        if self.profiler.is_none() {
            return self.route_hop(from, to, prev);
        }
        let started = std::time::Instant::now();
        let hop = self.route_hop(from, to, prev);
        if let Some(p) = self.profiler.as_mut() {
            p.record_route(started);
        }
        hop
    }

    /// Next hop for a software-routed packet from `from` toward `to`.
    ///
    /// Without faults this is the topology's precomputed shortest-path hop.
    /// Once a fault has changed the reachable topology, routing switches to
    /// the live-graph distance tables: the hop is the reachable neighbour
    /// closest to the target *in the graph as it actually is* (ties to the
    /// lowest PE id), so every hop strictly shrinks the remaining distance
    /// and a packet can never orbit a hole. A dead *target* is not detoured
    /// around — the packet black-holes at the corpse and the loss is
    /// accounted, which is what tells the recovery layer to re-spawn. A
    /// target cut off entirely falls back to the static greedy detour (the
    /// packet wanders until a black hole or a healing link settles it).
    fn route_hop(&self, from: PeId, to: PeId, prev: Option<PeId>) -> PeId {
        let hop = self.topo.next_hop(from, to);
        if self.plan.is_empty() || self.is_pe_failed(to) {
            return hop;
        }
        if let Some(lr) = self.live_routes.as_deref() {
            let n = self.num_pes();
            if lr.dist[from.idx() * n + to.idx()] != u32::MAX {
                let mut best: Option<(u32, u32)> = None;
                for nb in self.topo.neighbors(from) {
                    if !self.neighbor_reachable(from, nb.pe) {
                        continue;
                    }
                    let key = (lr.dist[nb.pe.idx() * n + to.idx()], nb.pe.0);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                if let Some((_, pe)) = best {
                    return PeId(pe);
                }
            }
        }
        if self.neighbor_reachable(from, hop) && prev != Some(hop) {
            return hop;
        }
        let mut best: Option<(u32, u32)> = None;
        for n in self.topo.neighbors(from) {
            if Some(n.pe) == prev || !self.neighbor_reachable(from, n.pe) {
                continue;
            }
            let key = (self.topo.distance(n.pe, to), n.pe.0);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        match best {
            Some((_, pe)) => PeId(pe),
            // Back the way it came, if even that is still open.
            None => match prev {
                Some(p) if self.neighbor_reachable(from, p) => p,
                _ => hop,
            },
        }
    }

    /// Recompute [`LiveRoutes`] from the current health state: one BFS per
    /// source PE over the graph with failed PEs and down channels removed.
    /// Called on every fault transition (crash, link down, link up) and
    /// after a snapshot restore — fault events are rare, so the O(n · E)
    /// rebuild never shows up in a profile.
    pub(crate) fn rebuild_live_routes(&mut self) {
        // Full health ⇒ no tables: the static shortest-path hop is already
        // correct, and `None` keeps healthy routing on the precomputed
        // tie-break (so a healed machine routes exactly like a fresh one).
        if !self.pes.iter().any(|(_, p)| p.failed) && !self.channels.iter().any(|(_, c)| c.down) {
            self.live_routes = None;
            return;
        }
        let n = self.num_pes();
        let mut lr = self
            .live_routes
            .take()
            .unwrap_or_else(|| Box::new(LiveRoutes { dist: Vec::new() }));
        lr.dist.clear();
        lr.dist.resize(n * n, u32::MAX);
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            if self.pes.get(s).failed {
                continue;
            }
            let row = s * n;
            lr.dist[row + s] = 0;
            queue.clear();
            queue.push_back(PeId(s as u32));
            while let Some(p) = queue.pop_front() {
                let d = lr.dist[row + p.idx()];
                for nb in self.topo.neighbors(p) {
                    if self.pe(nb.pe).failed || self.channel(nb.channel).down {
                        continue;
                    }
                    let slot = &mut lr.dist[row + nb.pe.idx()];
                    if *slot == u32::MAX {
                        *slot = d + 1;
                        queue.push_back(nb.pe);
                    }
                }
            }
        }
        self.live_routes = Some(lr);
    }

    // ------------------------------------------------------------------
    // Strategy actions.
    // ------------------------------------------------------------------

    /// Accept `goal` on `pe`: it is enqueued there and will be executed
    /// there (unless a strategy later exports it with
    /// [`Core::take_newest_goal`]).
    pub fn accept_goal(&mut self, pe: PeId, goal: GoalMsg) {
        if self.pe(pe).failed {
            self.note_goal_lost(goal.id, pe);
            return; // goal lost to the failed PE
        }
        if self.trace.enabled() {
            self.trace.record(TraceEvent::GoalAccepted {
                t: self.events.now().units(),
                goal: goal.id,
                pe,
                hops: goal.hops,
            });
        }
        if self.plan.recovery.is_some() {
            if let Some(o) = self.faults.outstanding.get_mut(&goal.id) {
                o.resident = Some(pe);
            }
        }
        self.pe_mut(pe).enqueue(WorkItem::Goal(goal));
        self.note_open_qlen(1);
        self.try_start(pe);
    }

    /// Send `goal` one hop from `from` to its neighbour `to`. The goal's
    /// `hops` count is incremented on arrival.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a neighbour of `from`.
    pub fn forward_goal(&mut self, from: PeId, to: PeId, goal: GoalMsg) {
        if self.trace.enabled() {
            self.trace.record(TraceEvent::GoalForwarded {
                t: self.events.now().units(),
                goal: goal.id,
                from,
                to,
                hops: goal.hops,
            });
        }
        let (idx, ch) = self
            .topo
            .find_neighbor(from, to)
            .unwrap_or_else(|| panic!("{from} -> {to}: not neighbours"));
        self.note_goal_forwarded(from, idx);
        if self.plan.recovery.is_some() {
            // In flight again: a crash of the old host must not re-spawn it.
            if let Some(o) = self.faults.outstanding.get_mut(&goal.id) {
                o.resident = None;
            }
        }
        self.send_on(ch, from, to, Packet::Goal(goal));
    }

    /// Send a strategy control message one hop to a neighbour.
    pub fn send_control(&mut self, from: PeId, to: PeId, msg: ControlMsg) {
        if self.trace.enabled() {
            self.trace.record(TraceEvent::ControlSent {
                t: self.events.now().units(),
                from,
                to,
                tag: msg.tag,
            });
        }
        self.send_unicast(from, to, Packet::Control(msg));
    }

    /// Broadcast a strategy control message to all neighbours: one
    /// transmission per incident channel, received by every other member.
    pub fn broadcast_control(&mut self, from: PeId, msg: ControlMsg) {
        self.broadcast_packet(from, Packet::Control(msg));
    }

    /// Arm a timer on `pe`; [`Strategy::on_timer`] fires with `tag` after
    /// `delay` units.
    pub fn set_timer(&mut self, pe: PeId, delay: u64, tag: u64) {
        self.schedule_event_after(delay, Event::Timer(pe, tag));
    }

    /// Remove the most recently queued goal from `pe` (the Gradient Model's
    /// export primitive).
    pub fn take_newest_goal(&mut self, pe: PeId) -> Option<GoalMsg> {
        let taken = self.pe_mut(pe).take_newest_goal();
        if taken.is_some() {
            self.note_open_qlen(-1);
        }
        taken
    }

    /// Remove the oldest queued goal from `pe`.
    pub fn take_oldest_goal(&mut self, pe: PeId) -> Option<GoalMsg> {
        let taken = self.pe_mut(pe).take_oldest_goal();
        if taken.is_some() {
            self.note_open_qlen(-1);
        }
        taken
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Open traffic: account a change of `delta` in the total queued-goal
    /// count for the time-weighted queue-length distribution. One branch
    /// on closed runs.
    #[inline]
    fn note_open_qlen(&mut self, delta: i64) {
        if let Some(open) = self.open.as_deref_mut() {
            let now = self.events.now().units();
            open.note_qlen(now, delta);
        }
    }

    /// Open traffic: is routing from `pe` toward `nbr` vetoed by the
    /// circuit breaker? Always false on closed runs or with the breaker
    /// unconfigured.
    #[inline]
    pub(crate) fn breaker_blocked(&self, pe: PeId, nbr: PeId) -> bool {
        match self.open.as_deref() {
            Some(o) if o.breaker_cooldown.is_some() && !o.breaker.is_empty() => {
                o.breaker_blocked(self.events.now().units(), pe.0, nbr.0)
            }
            _ => false,
        }
    }

    /// Open traffic: `nbr` (as seen from `pe`) crashed or its link
    /// dropped — open the breaker toward it.
    fn breaker_note_down(&mut self, pe: PeId, nbr: PeId) {
        if let Some(o) = self.open.as_deref_mut() {
            if o.breaker_cooldown.is_some() {
                o.breaker_open(pe.0, nbr.0);
            }
        }
    }

    /// Open traffic: the link from `pe` toward `nbr` recovered — move the
    /// breaker to its half-open cooldown window.
    fn breaker_note_up(&mut self, pe: PeId, nbr: PeId) {
        let now = self.events.now().units();
        if let Some(o) = self.open.as_deref_mut() {
            if o.breaker_cooldown.is_some() {
                o.breaker_recover(now, pe.0, nbr.0);
            }
        }
    }

    /// Open traffic: the root goal of an in-flight request was lost to a
    /// fault. With a retry policy (and no recovery layer — recovery
    /// re-spawns the same goal slot itself and keeps the in-flight entry
    /// keyed to the live attempt), park the request in the retry-pending
    /// table and arm its backoff; an exhausted budget abandons it. Lost
    /// non-root goals return from the in-flight lookup untouched.
    fn note_request_lost(&mut self, goal: GoalId) {
        let Some(open) = self.open.as_deref_mut() else {
            return;
        };
        let Some(policy) = open.retry else {
            return;
        };
        let Some(infl) = open.inflight.remove(&goal) else {
            return;
        };
        if infl.attempts >= policy.max {
            open.abandoned_retries += 1;
            return;
        }
        let delay = open.retry_backoff(policy.base, infl.attempts);
        open.retry_pending.insert(goal, infl);
        self.schedule_event_after(delay, Event::Retry(goal));
    }

    fn send_unicast(&mut self, from: PeId, to: PeId, packet: Packet) {
        let ch = self
            .topo
            .channel_between(from, to)
            .unwrap_or_else(|| panic!("{from} -> {to}: not neighbours"));
        self.send_on(ch, from, to, packet);
    }

    /// Send `packet` from `from` to its neighbour `to` over `ch`, the
    /// channel between them.
    fn send_on(&mut self, ch: ChannelId, from: PeId, to: PeId, packet: Packet) {
        let flight = self.flight(from, FlightDest::Unicast(to), packet);
        self.offer_to_channel(ch, flight);
    }

    pub(crate) fn broadcast_packet(&mut self, from: PeId, packet: Packet) {
        // One transmission per distinct incident channel.
        let mut fanout = std::mem::take(&mut self.fanout);
        fanout.clear();
        self.topo
            .for_each_incident_channel(from, |ch| fanout.push(ch));
        let load_word = matches!(packet, Packet::LoadUpdate);
        let flight = self.flight(from, FlightDest::Broadcast, packet);
        for &ch in &fanout {
            if !(load_word && self.send_silently(ch, &flight)) {
                self.offer_to_channel(ch, flight);
            }
        }
        self.fanout = fanout;
    }

    /// Hand `flight` to the channel: it starts transferring now if the
    /// channel is idle, otherwise it joins the channel's FIFO backlog
    /// (behind a silent word, see [`Core::offer_behind_silent_word`]).
    pub(crate) fn offer_to_channel(&mut self, ch: ChannelId, flight: Flight) {
        let cost = hop_cost(&self.costs, &flight.packet);
        let now = self.events.now();
        let c = self.channel_mut(ch);
        if c.silent {
            self.offer_behind_silent_word(ch, flight);
        } else if c.offer(flight, now) {
            self.schedule_event_after(cost, Event::ChannelDone(ch));
        }
    }

    /// Record a completed transfer in the traffic counters.
    fn count_traffic(&mut self, packet: &Packet) {
        match packet {
            Packet::Goal(_) => self.traffic.goal_hops += 1,
            Packet::Response { .. } => self.traffic.response_hops += 1,
            Packet::Control(m) => {
                self.traffic.control_msgs += 1;
                if let Some(p) = self.profiler.as_mut() {
                    p.bump_tag(m.tag);
                }
            }
            Packet::LoadUpdate => self.traffic.load_updates += 1,
        }
    }

    /// Create a fresh goal message for `spec`, child of `parent`.
    ///
    /// Ids are `(creator << 32) | seq` with a per-creator sequence
    /// (creator 0 = environment, so the root goal of a closed run keeps id
    /// 0): globally unique without a shared counter. The id layout is part
    /// of the pinned results (strategies and traces see it).
    fn make_goal(&mut self, spec: TaskSpec, parent: Option<(PeId, GoalId)>) -> GoalMsg {
        let (creator, seq) = match parent {
            Some((pe, _)) => (1 + pe.0 as u64, &mut self.pe_mut(pe).goal_seq),
            None => (0, &mut self.env_goal_seq),
        };
        let id = GoalId((creator << 32) | *seq as u64);
        *seq += 1;
        self.goals_created += 1;
        if self.trace.enabled() {
            let pe = parent.map_or(ROOT_PE, |(pe, _)| pe);
            self.trace.record(TraceEvent::GoalCreated {
                t: self.events.now().units(),
                goal: id,
                pe,
                parent: parent.map(|(_, g)| g),
            });
        }
        GoalMsg {
            id,
            spec,
            parent,
            hops: 0,
            direct: false,
            created_at: self.events.now().units(),
        }
    }

    /// Deliver `value` from the completed goal `child` to the waiting
    /// parent, or record the root result. The child id travels with the
    /// response: it is the acknowledgment key of the recovery layer.
    fn respond(
        &mut self,
        from_pe: PeId,
        child: GoalId,
        parent: Option<(PeId, GoalId)>,
        value: i64,
    ) {
        if self.trace.enabled() {
            self.trace.record(TraceEvent::Responded {
                t: self.events.now().units(),
                from_pe,
                parent_pe: parent.map(|(pe, _)| pe),
                value,
            });
        }
        match parent {
            None => {
                if self.plan.recovery.is_some() {
                    self.faults.outstanding.remove(&child);
                }
                if self.open.is_some() {
                    // An open-traffic request completed: record its
                    // sojourn (inside the measurement window) instead of
                    // declaring the run over. The deadline is accounted
                    // lazily right here — a completion whose sojourn
                    // (clocked from the *original* arrival, never reset by
                    // retries) exceeds the deadline is a dead loss, not a
                    // success, so the sojourn quantiles are by construction
                    // quantiles of the within-deadline completions.
                    let now = self.events.now().units();
                    let open = self.open.as_deref_mut().expect("checked above");
                    let Some(infl) = open.inflight.remove(&child) else {
                        return; // superseded respawn attempt of a request
                    };
                    let sojourn = now - infl.arrived;
                    let in_window = now >= open.warmup && now < open.duration;
                    if open.deadline.is_some_and(|d| sojourn > d) {
                        open.abandoned_deadline += 1;
                        if in_window {
                            open.abandoned_deadline_measured += 1;
                        }
                    } else {
                        open.completions_total += 1;
                        if in_window {
                            open.sojourn.record(sojourn);
                            open.sojourn_stats.record(sojourn as f64);
                        }
                    }
                    if self.trace.enabled() {
                        self.trace.record(TraceEvent::RequestCompleted {
                            t: now,
                            request: infl.request,
                            goal: child,
                            pe: from_pe,
                            sojourn,
                        });
                    }
                    return;
                }
                self.root_result = Some((value, self.events.now()));
                if self.trace.enabled() {
                    self.trace.record(TraceEvent::RootCompleted {
                        t: self.events.now().units(),
                        result: value,
                    });
                }
            }
            Some((ppe, pgoal)) if ppe == from_pe => {
                self.pe_mut(from_pe).enqueue(WorkItem::Response {
                    goal: pgoal,
                    child,
                    value,
                });
                self.try_start(from_pe);
            }
            Some((ppe, pgoal)) => {
                let hop = self.profiled_route_hop(from_pe, ppe, None);
                self.send_unicast(
                    from_pe,
                    hop,
                    Packet::Response {
                        to: (ppe, pgoal),
                        child,
                        value,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault-injection and recovery bookkeeping.
    // ------------------------------------------------------------------

    /// Register a freshly created goal with the recovery layer (no-op
    /// unless the plan enables recovery) and arm its acknowledgment
    /// timeout, widened exponentially with each re-spawn attempt.
    fn track_goal(&mut self, goal: &GoalMsg, attempts: u32, first_created: u64) {
        let Some(rec) = self.plan.recovery else {
            return;
        };
        self.faults.outstanding.insert(
            goal.id,
            Outstanding {
                parent: goal.parent,
                spec: goal.spec,
                attempts,
                first_created,
                resident: None,
            },
        );
        let window = rec.ack_timeout.saturating_mul(1u64 << attempts.min(5));
        self.schedule_event_after(window, Event::AckTimeout(goal.id));
    }

    /// Record a goal swallowed by a fault (dead PE, dropped transfer). If
    /// the recovery layer is tracking it, trigger an immediate re-spawn
    /// instead of waiting out the ack window — the simulator knows the
    /// loss happened.
    fn note_goal_lost(&mut self, goal: GoalId, pe: PeId) {
        self.faults.goals_lost += 1;
        if self.trace.enabled() {
            self.trace.record(TraceEvent::GoalLost {
                t: self.events.now().units(),
                goal,
                pe,
            });
        }
        if self.plan.recovery.is_some() {
            if let Some(o) = self.faults.outstanding.get_mut(&goal) {
                o.resident = None; // the loss voids any acceptance
                self.schedule_event_after(0, Event::AckTimeout(goal));
            }
        } else {
            // No recovery layer: the request-retry policy (if configured)
            // gets to re-inject a lost root request from the edge.
            self.note_request_lost(goal);
        }
    }

    /// A response for `child` was swallowed by a fault: re-spawn the child
    /// immediately if it is still tracked (the re-run re-sends the value).
    fn note_response_lost(&mut self, child: GoalId) {
        if self.plan.recovery.is_some() {
            if let Some(o) = self.faults.outstanding.get_mut(&child) {
                o.resident = None; // the computed value is gone with the response
                self.schedule_event_after(0, Event::AckTimeout(child));
            }
        }
    }

    /// `packet` was swallowed by a fault at `pe`: account the goal or the
    /// response it carried.
    fn note_packet_lost(&mut self, packet: &Packet, pe: PeId) {
        match *packet {
            Packet::Goal(g) => self.note_goal_lost(g.id, pe),
            Packet::Response { child, .. } => self.note_response_lost(child),
            Packet::Control(_) | Packet::LoadUpdate => {}
        }
    }

    /// If `pe` is free and has queued work, start its next item.
    fn try_start(&mut self, pe: PeId) {
        let p = self.pe(pe);
        if p.failed || p.executing.is_some() || (p.queue.is_empty() && p.sys_queue.is_empty()) {
            return;
        }
        let discipline = self.config.queue_discipline;
        let p = self.pe_mut(pe);
        let Some(item) = p.dequeue(discipline) else {
            return;
        };
        let transient = p.transient_factor;
        if matches!(item, WorkItem::Goal(_)) {
            self.note_open_qlen(-1);
        }
        let speed = self.cost_factor(pe) * transient;
        let (exec, cost, is_user_work) = match item {
            WorkItem::Goal(goal) => {
                let expansion = self.program.expand(&goal.spec);
                let mult = self.program.work_multiplier(&goal.spec).max(1);
                let base = match &expansion {
                    Expansion::Leaf(_) => self.costs.leaf_cost,
                    Expansion::Split(_) => self.costs.split_cost,
                };
                self.goals_executed += 1;
                self.hop_hist.record(goal.hops as u64);
                if self.trace.enabled() {
                    self.trace.record(TraceEvent::GoalStarted {
                        t: self.events.now().units(),
                        goal: goal.id,
                        pe,
                    });
                }
                (Executing::Goal(goal, expansion), base * mult * speed, true)
            }
            WorkItem::Response { goal, child, value } => (
                Executing::Response { goal, child, value },
                self.costs.combine_cost * speed,
                true,
            ),
            WorkItem::Handle { from, packet } => (
                Executing::Handle { from, packet },
                self.costs.software_routing_cost.max(1),
                false,
            ),
            WorkItem::TimerWork { tag } => (
                Executing::TimerWork { tag },
                self.costs.software_routing_cost.max(1),
                false,
            ),
        };
        if is_user_work {
            self.seq_work += cost;
        }
        let now = self.events.now();
        let p = self.pe_mut(pe);
        if let Executing::Goal(goal, _) = &exec {
            p.goals_executed += 1;
            p.dispatch_latency
                .record((now.units() - goal.created_at) as f64);
        }
        p.exec_start = now;
        p.busy_until = now + cost;
        p.executing = Some(exec);
        p.busy.set_busy(now);
        self.schedule_event_after(cost, Event::PeDone(pe));
    }

    /// True once the run is over: the root result was produced (closed
    /// runs), or the time horizon was reached / the saturation trip wire
    /// fired (open runs).
    fn completed(&self) -> bool {
        match &self.open {
            None => self.root_result.is_some(),
            Some(open) => open.saturated.is_some() || self.events.now().units() >= open.duration,
        }
    }
}

/// A complete simulation: a [`Core`] plus the strategy driving it.
pub struct Machine {
    pub(crate) core: Core,
    pub(crate) strategy: Box<dyn Strategy>,
}

impl Machine {
    /// Assemble a machine. Fails fast on invalid configuration.
    pub fn new(
        topo: Topology,
        program: Box<dyn Program>,
        strategy: Box<dyn Strategy>,
        costs: CostModel,
        mut config: MachineConfig,
    ) -> Result<Self, SimError> {
        costs.validate().map_err(SimError::InvalidConfig)?;
        config.validate().map_err(SimError::InvalidConfig)?;
        config
            .fault_plan
            .validate(topo.num_pes(), topo.num_channels())
            .map_err(SimError::InvalidConfig)?;
        let sampling = config.sampling_interval;
        let mut rng = Rng::seed_from_u64(config.seed);
        // Cost factors are drawn eagerly, in PE order, so the construction
        // RNG stream does not depend on which PEs a run touches.
        let cost_factors: Vec<u64> = if config.pe_speed_spread > 1 {
            topo.pes()
                .map(|_| 1 + rng.below(config.pe_speed_spread))
                .collect()
        } else {
            Vec::new()
        };
        // Every untouched slot reads as this PE. Its RNG is never drawn
        // (draws go through `pe_mut`, which builds the real PE) and its
        // empty neighbour-load table reads as all zeros.
        let pristine = Pe::new(0, sampling, Rng::seed_from_u64(0));
        let pes = Slab::new(topo.num_pes(), pristine);
        let channels = Slab::new(topo.num_channels(), Channel::new());
        let max_hops = topo.diameter() as usize + 2;
        // Taking the plan out of the config avoids cloning its vectors;
        // `Core::plan` is the single source of truth.
        let plan = std::mem::take(&mut config.fault_plan);
        // Fault decisions draw from their own stream so that an empty plan
        // leaves the strategy's randomness bit-identical to a run without
        // fault support at all.
        let fault_rng = Rng::seed_from_u64(config.seed ^ 0xD0E5_F00D_5EED_CAFE);
        // Open traffic resolves edges and loads any arrival trace file up
        // front, so a bad spec fails here rather than mid-run.
        let open = match &config.open {
            Some(o) => Some(Box::new(
                OpenState::build(o, config.seed, topo.num_pes())
                    .map_err(SimError::InvalidConfig)?,
            )),
            None => None,
        };
        Ok(Machine {
            core: Core {
                rng,
                cost_factors,
                env_key_seq: 0,
                env_goal_seq: 0,
                pes,
                channels,
                events: CalendarQueue::new(),
                silent: SilentWords::new(&topo, &costs, &plan),
                event_key: 0,
                receivers: Vec::new(),
                fanout: Vec::new(),
                goals_created: 0,
                goals_executed: 0,
                responses_processed: 0,
                seq_work: 0,
                traffic: TrafficCounters::default(),
                hop_hist: Histogram::new(max_hops.max(64)),
                global_series: IntervalSeries::new(sampling),
                root_result: None,
                open,
                trace: Trace::with_mode(config.trace_capacity, config.trace_mode),
                profiler: config
                    .profile
                    .then(|| Box::new(Profiler::with_kinds(&EVENT_KIND_NAMES))),
                plan,
                fault_rng,
                faults: FaultState::new(),
                sweep_orphans: Vec::new(),
                sweep_respawns: Vec::new(),
                last_progress: (0, 0, 0),
                next_check: config.progress_window,
                next_audit: if config.audit_every > 0 {
                    config.audit_every
                } else {
                    u64::MAX
                },
                last_audit_now: 0,
                live_routes: None,
                topo,
                costs,
                config,
                program,
            },
            strategy,
        })
    }

    /// Run the simulation to completion and produce the report.
    pub fn run(self) -> Result<Report, SimError> {
        self.run_traced().map(|(report, _)| report)
    }

    /// Current simulated time (for checkpoint drivers pacing
    /// [`Machine::advance_until`]).
    pub fn sim_time(&self) -> u64 {
        self.core.now().units()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events.events_processed()
    }

    /// Read-only view of the machine core (strategy tests size per-PE
    /// state against it when exercising [`Strategy::restore_state`]).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Run the simulation and also return the event trace (empty unless
    /// `MachineConfig::trace_capacity` is set).
    pub fn run_traced(mut self) -> Result<(Report, Trace), SimError> {
        self.begin();
        self.advance_until(None)?;
        self.finish()
    }

    /// Initialize the run: arm load broadcasts and the fault plan, inject
    /// the root goal. Must be called exactly once before
    /// [`Machine::advance_until`] — except on a machine restored from a
    /// checkpoint, where the snapshot already contains everything `begin`
    /// sets up.
    pub fn begin(&mut self) {
        self.strategy.init(&mut self.core);

        self.arm_load_broadcasts();
        self.core.next_check = self.progress_window();

        // Arm the fault plan: crashes, link windows, slowdown windows.
        // Index loops over the `Copy` entries sidestep borrowing the plan
        // while scheduling, without cloning its vectors.
        for i in 0..self.core.plan.pe_crashes.len() {
            let c = self.core.plan.pe_crashes[i];
            self.core
                .schedule_event_at(SimTime(c.at), Event::FailPe(PeId(c.pe)));
        }
        for i in 0..self.core.plan.link_windows.len() {
            let w = self.core.plan.link_windows[i];
            self.core
                .schedule_event_at(SimTime(w.down_at), Event::LinkDown(ChannelId(w.channel)));
            self.core
                .schedule_event_at(SimTime(w.up_at), Event::LinkUp(ChannelId(w.channel)));
        }
        for i in 0..self.core.plan.slowdowns.len() {
            let s = self.core.plan.slowdowns[i];
            self.core
                .schedule_event_at(SimTime(s.from), Event::SlowStart(PeId(s.pe), s.factor));
            self.core
                .schedule_event_at(SimTime(s.until), Event::SlowEnd(PeId(s.pe)));
        }

        // Closed run: inject the root goal. Open run: arm the first
        // arrival instead (each arrival injects its own root-level goal).
        if let Some(open) = self.core.open.as_deref_mut() {
            if let Some(at) = open.next_arrival(0) {
                self.core.schedule_event_at(SimTime(at), Event::Arrival);
            }
            return;
        }
        let root_spec = self.core.program.root();
        let root_goal = self.core.make_goal(root_spec, None);
        self.core.track_goal(&root_goal, 0, 0);
        self.strategy
            .on_goal_created(&mut self.core, ROOT_PE, root_goal);
    }

    /// Drive the event loop. With `pause_at: None`, runs until the root
    /// result is produced or the calendar drains; returns `Ok(true)` in
    /// either case ([`Machine::finish`] distinguishes them). With
    /// `Some(t)`, additionally pauses — returning `Ok(false)` — after
    /// processing the first event at simulated time `>= t`; this is the
    /// checkpointing driver's hook, and because the pause happens on an
    /// event boundary the paused machine's state is exactly the state an
    /// uninterrupted run passes through.
    pub fn advance_until(&mut self, pause_at: Option<u64>) -> Result<bool, SimError> {
        while let Some(at) = self.handle_next_event() {
            if self.core.completed() {
                return Ok(true);
            }
            let n = self.core.events.events_processed();
            if n >= self.core.next_audit {
                crate::audit::audit(&self.core, self.strategy.as_ref())?;
                self.core.last_audit_now = self.core.now().units();
                self.core.next_audit = n + self.core.config.audit_every;
            }
            if n >= self.core.next_check {
                let progress = (
                    self.core.goals_created,
                    self.core.goals_executed,
                    self.core.responses_processed,
                );
                if progress == self.core.last_progress {
                    // Distinguish a communication-bound machine (a channel
                    // backlog growing without bound) from a plain stall.
                    // Untouched channels have empty backlogs, so the worst
                    // materialized channel (std's max_by_key keeps the
                    // *last* maximum) is the worst channel.
                    let worst = self
                        .core
                        .channels
                        .iter()
                        .max_by_key(|(_, c)| c.backlog.len());
                    if let Some((idx, ch)) = worst {
                        if ch.backlog.len() > 100 {
                            return Err(SimError::Stagnation {
                                channel: idx as u32,
                                backlog: ch.backlog.len(),
                                time: self.core.now().units(),
                            });
                        }
                    }
                    return Err(self.stall_error());
                }
                self.core.last_progress = progress;
                self.core.next_check = n + self.progress_window();
            }
            if n >= self.core.config.max_events {
                return Err(SimError::EventLimit {
                    events: n,
                    time: self.core.now().units(),
                });
            }
            if let Some(t) = pause_at {
                if at.units() >= t {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Handle the next event in `(time, key)` order, a queued one or a
    /// silent load word that comes first (`crate::loadinfo`), and return
    /// its instant; `None` when nothing is pending.
    fn handle_next_event(&mut self) -> Option<SimTime> {
        let (word_at, word_key) = self.core.silent.next();
        if self.core.profiler.is_none() {
            let Some((at, key, ev)) = self.core.events.pop_keyed_before(word_at, word_key) else {
                return self.core.retire_next_silent_word();
            };
            self.core.event_key = key;
            self.handle_event(ev);
            return Some(at);
        }
        // Profiled path: clock reads around the pop and around the handler,
        // plus the queue-depth high-water mark. The unprofiled path pays
        // exactly one branch.
        let pop_started = std::time::Instant::now();
        let Some((at, key, ev)) = self.core.events.pop_keyed_before(word_at, word_key) else {
            return self.core.retire_next_silent_word();
        };
        self.core.event_key = key;
        let kind = ev.kind();
        let depth = self.core.events.len();
        let t0 = std::time::Instant::now();
        self.handle_event(ev);
        if let Some(p) = self.core.profiler.as_mut() {
            p.note_queue_depth(depth);
            p.record_queue(pop_started, t0);
            p.record(kind, t0);
        }
        Some(at)
    }

    /// Consume the machine after [`Machine::advance_until`] returned
    /// `Ok(true)` and produce the report (or the stall error when the
    /// calendar drained without a root result).
    pub fn finish(mut self) -> Result<(Report, Trace), SimError> {
        // An open run may also end by draining the calendar early (arrival
        // schedule exhausted and all work done); its report is always
        // buildable, with any shortfall visible in the open metrics.
        if self.core.open.is_none() && !self.core.completed() {
            return Err(self.stall_error());
        }
        let report = self.build_report();
        Ok((report, std::mem::take(&mut self.core.trace)))
    }

    /// The error for a run that cannot make progress any more. When faults
    /// swallowed goals or transfers, attribute the failure to them (and
    /// flag whether a plan made that expected); a fault-free stall keeps
    /// the loud [`SimError::Stalled`] that flags leaky strategies.
    pub(crate) fn stall_error(&self) -> SimError {
        let f = &self.core.faults;
        if f.goals_lost > 0 || f.messages_dropped > 0 || f.retries_exhausted > 0 {
            SimError::GoalsLost {
                expected_by_plan: !self.core.plan.is_empty(),
                goals_lost: f.goals_lost,
                messages_dropped: f.messages_dropped,
                retries_exhausted: f.retries_exhausted,
                time: self.core.now().units(),
            }
        } else {
            SimError::Stalled {
                time: self.core.now().units(),
                goals_created: self.core.goals_created,
                goals_executed: self.core.goals_executed,
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handlers.
    // ------------------------------------------------------------------

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::PeDone(pe) => self.handle_pe_done(pe),
            Event::ChannelDone(ch) => self.handle_channel_done(ch),
            Event::Timer(pe, tag) => {
                if self.core.pe(pe).failed {
                    return;
                }
                if self.core.trace.enabled() {
                    self.core.trace.record(TraceEvent::TimerFired {
                        t: self.core.events.now().units(),
                        pe,
                        tag,
                    });
                }
                if self.core.config.coprocessor {
                    self.strategy.on_timer(&mut self.core, pe, tag);
                } else {
                    // No co-processor: the balancing process itself (e.g.
                    // one gradient cycle) charges PE time, ahead of user
                    // work.
                    self.core
                        .pe_mut(pe)
                        .sys_queue
                        .push_back(WorkItem::TimerWork { tag });
                    self.core.try_start(pe);
                }
            }
            Event::LoadBcast(pe) => self.handle_load_bcast(pe),
            Event::FailPe(pe) => self.handle_fail_pe(pe),
            Event::LinkDown(ch) => self.handle_link_down(ch),
            Event::LinkUp(ch) => self.handle_link_up(ch),
            Event::SlowStart(pe, factor) => {
                if self.core.pe(pe).failed {
                    return;
                }
                self.core.pe_mut(pe).transient_factor = factor;
                if self.core.trace.enabled() {
                    self.core.trace.record(TraceEvent::PeSlowed {
                        t: self.core.events.now().units(),
                        pe,
                        factor,
                    });
                }
            }
            Event::SlowEnd(pe) => {
                if self.core.pe(pe).failed {
                    return;
                }
                self.core.pe_mut(pe).transient_factor = 1;
                if self.core.trace.enabled() {
                    self.core.trace.record(TraceEvent::PeRestored {
                        t: self.core.events.now().units(),
                        pe,
                    });
                }
            }
            Event::Arrival => self.handle_arrival(),
            Event::Retry(old) => self.handle_retry(old),
            Event::AckTimeout(goal) => {
                // Acceptance at a live PE is the acknowledgment: a goal
                // resident somewhere healthy is making progress (long-lived
                // subtrees legitimately outlive any fixed window), so re-arm
                // rather than duplicate the whole subtree. Only goals in
                // limbo — in transit past the window, or flagged by a known
                // loss (which clears residency) — are re-spawned.
                if let Some(o) = self.core.faults.outstanding.get(&goal) {
                    match o.resident {
                        Some(pe) if !self.core.pe(pe).failed => {
                            let rec = self.core.plan.recovery.expect("tracked implies recovery");
                            let window = rec.ack_timeout.saturating_mul(1u64 << o.attempts.min(5));
                            self.core
                                .schedule_event_after(window, Event::AckTimeout(goal));
                        }
                        _ => self.respawn(goal),
                    }
                }
            }
        }
    }

    /// Open traffic: one external request arrives — inject it as a fresh
    /// root-level goal at the next edge PE, check the saturation trip
    /// wire, and arm the next arrival.
    fn handle_arrival(&mut self) {
        let now = self.core.events.now().units();
        let Some(open) = self.core.open.as_deref_mut() else {
            return; // stale event on a closed run (cannot happen)
        };
        // Trace replay may pin the entry PE; taking the override also
        // advances the replay cursor, so it must precede the next-arrival
        // peek.
        let override_pe = open.trace_pe_override();
        let next_at = open.next_arrival(now);
        let (edges_len, start) = (open.edges.len() as u32, open.edge_idx);
        if let Some(at) = next_at {
            self.core.schedule_event_at(SimTime(at), Event::Arrival);
        }
        // Entry PE: the explicit trace PE if alive, else round-robin over
        // the edge set skipping crashed PEs. With every candidate dead the
        // request is refused at the door: it still counts as an arrival,
        // and as shed (it never enters the system), which keeps the
        // arrival-conservation identity exact under faults.
        let mut entry = None;
        if let Some(pe) = override_pe {
            if !self.core.pe(PeId(pe)).failed {
                entry = Some(PeId(pe));
            }
        } else {
            for k in 0..edges_len {
                let i = (start + k) % edges_len;
                let cand = self.core.open.as_ref().expect("open mode").edges[i as usize];
                if !self.core.pe(PeId(cand)).failed {
                    self.core.open.as_deref_mut().expect("open mode").edge_idx =
                        (i + 1) % edges_len;
                    entry = Some(PeId(cand));
                    break;
                }
            }
        }
        let Some(pe) = entry else {
            let open = self.core.open.as_deref_mut().expect("open mode");
            open.arrivals_total += 1;
            open.shed_total += 1;
            return;
        };
        // Edge admission control: an arrival that fails the configured
        // check is shed at the door — no goal is created, nothing queues.
        if let Some(policy) = self.core.open.as_deref().expect("open mode").admission {
            let admitted = match policy {
                AdmissionPolicy::QueueDepth { max } => (self.core.pe(pe).queued_goals as u64) < max,
                AdmissionPolicy::Utilization { threshold } => {
                    // Untouched PEs are live and idle.
                    let (mut executing, mut failed) = (0u64, 0u64);
                    for (_, p) in self.core.pes.iter() {
                        failed += p.failed as u64;
                        executing += (!p.failed && p.executing.is_some()) as u64;
                    }
                    let total = self.core.num_pes() as u64 - failed;
                    (executing as f64) < threshold * total.max(1) as f64
                }
                AdmissionPolicy::TokenBucket { rate, burst } => self
                    .core
                    .open
                    .as_deref_mut()
                    .expect("open mode")
                    .bucket_admit(now, rate, burst),
            };
            if !admitted {
                let open = self.core.open.as_deref_mut().expect("open mode");
                open.arrivals_total += 1;
                open.shed_total += 1;
                return;
            }
        }
        let spec = self.core.program.root();
        let goal = self.core.make_goal(spec, None);
        let open = self.core.open.as_deref_mut().expect("open mode");
        let request = open.next_request;
        open.next_request += 1;
        open.arrivals_total += 1;
        open.inflight.insert(
            goal.id,
            Inflight {
                request,
                arrived: now,
                attempts: 0,
            },
        );
        if open.saturated.is_none() && open.requests_in_system() > open.threshold {
            open.saturated = Some((now, open.requests_in_system()));
        }
        if self.core.trace.enabled() {
            self.core.trace.record(TraceEvent::RequestArrived {
                t: now,
                request,
                goal: goal.id,
                pe,
            });
        }
        self.core.track_goal(&goal, 0, now);
        self.strategy.on_goal_created(&mut self.core, pe, goal);
    }

    /// Open traffic: a lost request's backoff expired — re-inject it as a
    /// fresh root goal at the next live edge PE, carrying the original
    /// arrival instant (the deadline clock never resets) and one more
    /// attempt on its budget. A request whose deadline already passed
    /// while it waited is abandoned, as is one that finds every edge PE
    /// dead (crashed PEs never come back, so further backoff cannot help).
    fn handle_retry(&mut self, old: GoalId) {
        let now = self.core.events.now().units();
        let Some(open) = self.core.open.as_deref_mut() else {
            return;
        };
        let Some(infl) = open.retry_pending.remove(&old) else {
            return; // superseded (cannot happen: one Retry event per parking)
        };
        if open
            .deadline
            .is_some_and(|d| now.saturating_sub(infl.arrived) > d)
        {
            open.abandoned_deadline += 1;
            if now >= open.warmup && now < open.duration {
                open.abandoned_deadline_measured += 1;
            }
            return;
        }
        let (edges_len, start) = (open.edges.len() as u32, open.edge_idx);
        let mut entry = None;
        for k in 0..edges_len {
            let i = (start + k) % edges_len;
            let cand = self.core.open.as_ref().expect("open mode").edges[i as usize];
            if !self.core.pe(PeId(cand)).failed {
                self.core.open.as_deref_mut().expect("open mode").edge_idx = (i + 1) % edges_len;
                entry = Some(PeId(cand));
                break;
            }
        }
        let Some(pe) = entry else {
            self.core
                .open
                .as_deref_mut()
                .expect("open mode")
                .abandoned_retries += 1;
            return;
        };
        let spec = self.core.program.root();
        let goal = self.core.make_goal(spec, None);
        let open = self.core.open.as_deref_mut().expect("open mode");
        open.retries_total += 1;
        open.inflight.insert(
            goal.id,
            Inflight {
                attempts: infl.attempts + 1,
                ..infl
            },
        );
        if self.core.trace.enabled() {
            self.core.trace.record(TraceEvent::RequestArrived {
                t: now,
                request: infl.request,
                goal: goal.id,
                pe,
            });
        }
        self.core.track_goal(&goal, 0, now);
        self.strategy.on_goal_created(&mut self.core, pe, goal);
    }

    /// Kill `pe`: everything it held is lost; it never executes again. The
    /// recovery layer re-spawns the goals that were resident there and
    /// orphans the ones whose waiting parents died with it (the
    /// grandparent's retry recreates those subtrees).
    fn handle_fail_pe(&mut self, pe: PeId) {
        if self.core.pe(pe).failed {
            return; // double crash in the plan
        }
        let now = self.core.events.now();
        // Request retry (no recovery layer: recovery's own crash sweep
        // re-keys the in-flight table itself): collect every goal id that
        // dies with the PE — queued, executing, or pinned waiting — before
        // the state is cleared. Sorted, because `waiting` is a hash map
        // and its iteration order must never reach the retry RNG. The
        // in-flight lookup inside `note_request_lost` keeps only the ids
        // that are actually root requests.
        let mut lost_roots: Vec<GoalId> = Vec::new();
        if self.core.plan.recovery.is_none()
            && self.core.open.as_deref().is_some_and(|o| o.retry.is_some())
        {
            let p = self.core.pe(pe);
            for item in &p.queue {
                if let WorkItem::Goal(g) = item {
                    lost_roots.push(g.id);
                }
            }
            if let Some(Executing::Goal(g, _)) = &p.executing {
                lost_roots.push(g.id);
            }
            lost_roots.extend(p.waiting.keys().copied());
            lost_roots.sort();
        }
        let p = self.core.pe_mut(pe);
        let queued_goals = p.queued_goals;
        let lost = p.queued_goals as u64
            + matches!(p.executing, Some(Executing::Goal(..))) as u64
            + p.waiting.len() as u64;
        p.failed = true;
        p.executing = None;
        p.queue.clear();
        p.sys_queue.clear();
        p.waiting.clear();
        p.queued_goals = 0;
        p.queued_responses = 0;
        p.busy.set_idle(now);
        self.core.rebuild_live_routes();
        self.core.note_open_qlen(-(queued_goals as i64));
        self.core.faults.pes_crashed += 1;
        self.core.faults.goals_lost += lost;
        if self.core.trace.enabled() {
            self.core.trace.record(TraceEvent::PeCrashed {
                t: now.units(),
                pe,
                goals_lost: lost,
            });
        }
        if self.core.plan.recovery.is_some() {
            // Sweep the tracked goals. Sorted ids: HashMap iteration order
            // must never leak into the event sequence. The scratch buffers
            // are reused across crashes so repeated sweeps only allocate up
            // to their high-water mark.
            let mut orphans = std::mem::take(&mut self.core.sweep_orphans);
            let mut respawns = std::mem::take(&mut self.core.sweep_respawns);
            orphans.clear();
            respawns.clear();
            for (&id, o) in &self.core.faults.outstanding {
                if matches!(o.parent, Some((ppe, _)) if ppe == pe) {
                    orphans.push(id);
                } else if o.resident == Some(pe) {
                    respawns.push(id);
                }
            }
            orphans.sort();
            respawns.sort();
            for &id in &orphans {
                self.core.faults.outstanding.remove(&id);
            }
            for &id in &respawns {
                self.respawn(id);
            }
            self.core.sweep_orphans = orphans;
            self.core.sweep_respawns = respawns;
        }
        for id in lost_roots {
            self.core.note_request_lost(id);
        }
        // Live neighbours learn of the crash (the physical machine would
        // detect it via keep-alives; the simulator is omniscient). Index
        // re-borrowing lets the strategy take `&mut Core` inside the loop.
        // The circuit breaker opens toward the corpse first, so strategy
        // reactions to the down notification already see it blocked.
        for i in 0..self.core.topo.neighbors(pe).len() {
            let nbr = self.core.topo.neighbors(pe)[i].pe;
            if !self.core.pe(nbr).failed {
                self.core.breaker_note_down(nbr, pe);
                self.strategy.on_neighbor_down(&mut self.core, nbr, pe);
            }
        }
    }

    /// Re-spawn the tracked goal `old` on the parent's side: a fresh goal
    /// id, the same task, one more attempt on the slot's budget.
    fn respawn(&mut self, old: GoalId) {
        let Some(rec) = self.core.plan.recovery else {
            return;
        };
        let Some(entry) = self.core.faults.outstanding.remove(&old) else {
            return;
        };
        if entry.attempts >= rec.max_retries {
            self.core.faults.retries_exhausted += 1;
            return;
        }
        let home = match entry.parent {
            Some((ppe, _)) => {
                if self.core.pe(ppe).failed {
                    return; // orphan: the grandparent's retry covers it
                }
                ppe
            }
            None => {
                // The root goal re-enters at the root PE, or at the lowest
                // surviving PE if the root died.
                if !self.core.pe(ROOT_PE).failed {
                    ROOT_PE
                } else {
                    let Some(i) = (0..self.core.num_pes()).find(|&i| !self.core.pes.get(i).failed)
                    else {
                        return; // every PE is dead
                    };
                    PeId(i as u32)
                }
            }
        };
        let goal = self.core.make_goal(entry.spec, entry.parent);
        if entry.parent.is_none() {
            // An open-traffic request's root goal was re-spawned: keep the
            // in-flight entry keyed by the live attempt so the completion
            // still finds (and times) the original arrival.
            if let Some(open) = self.core.open.as_deref_mut() {
                if let Some(infl) = open.inflight.remove(&old) {
                    open.inflight.insert(goal.id, infl);
                }
            }
        }
        self.core.faults.goals_respawned += 1;
        if self.core.trace.enabled() {
            self.core.trace.record(TraceEvent::GoalRespawned {
                t: self.core.events.now().units(),
                old,
                new: goal.id,
                pe: home,
                attempt: entry.attempts + 1,
            });
        }
        self.core
            .track_goal(&goal, entry.attempts + 1, entry.first_created);
        self.strategy.on_goal_created(&mut self.core, home, goal);
    }

    /// A fault-plan link window opens: the channel stops starting
    /// transfers, and both sides treat each other as unreachable.
    fn handle_link_down(&mut self, ch: ChannelId) {
        if self.core.channel(ch).down {
            return;
        }
        if self.core.channel(ch).silent {
            self.core.wake_silent_word(ch);
        }
        self.core.channel_mut(ch).down = true;
        self.core.rebuild_live_routes();
        if self.core.trace.enabled() {
            self.core.trace.record(TraceEvent::LinkDown {
                t: self.core.events.now().units(),
                channel: ch.0,
            });
        }
        for i in 0..self.core.topo.channel_members(ch).len() {
            let a = self.core.topo.channel_members(ch)[i];
            if self.core.pe(a).failed {
                continue;
            }
            for j in 0..self.core.topo.channel_members(ch).len() {
                let b = self.core.topo.channel_members(ch)[j];
                if b != a {
                    self.core.breaker_note_down(a, b);
                    self.strategy.on_neighbor_down(&mut self.core, a, b);
                }
            }
        }
    }

    /// The link window closes: resume the backlog and tell both sides.
    fn handle_link_up(&mut self, ch: ChannelId) {
        if !self.core.channel(ch).down {
            return;
        }
        self.core.channel_mut(ch).down = false;
        self.core.rebuild_live_routes();
        if self.core.trace.enabled() {
            self.core.trace.record(TraceEvent::LinkUp {
                t: self.core.events.now().units(),
                channel: ch.0,
            });
        }
        let now = self.core.events.now();
        let costs = self.core.costs;
        let promoted_cost = self
            .core
            .channel_mut(ch)
            .promote(now)
            .map(|f| hop_cost(&costs, &f.packet));
        if let Some(cost) = promoted_cost {
            self.core.schedule_event_after(cost, Event::ChannelDone(ch));
        }
        for i in 0..self.core.topo.channel_members(ch).len() {
            let a = self.core.topo.channel_members(ch)[i];
            if self.core.pe(a).failed {
                continue;
            }
            for j in 0..self.core.topo.channel_members(ch).len() {
                let b = self.core.topo.channel_members(ch)[j];
                if b != a && !self.core.pe(b).failed {
                    self.core.breaker_note_up(a, b);
                    self.strategy.on_neighbor_up(&mut self.core, a, b);
                }
            }
        }
    }

    fn handle_pe_done(&mut self, pe: PeId) {
        let core = &mut self.core;
        let now = core.events.now();
        let per_pe_series = core.config.per_pe_series;
        let p = core.pe_mut(pe);
        if p.failed {
            return; // a completion scheduled before the PE died
        }
        let exec = p.executing.take().expect("PeDone with nothing executing");
        let start = p.exec_start;
        p.busy.set_idle(now);
        if per_pe_series {
            p.series.add_busy(start, now);
        }
        let user_work = !matches!(exec, Executing::Handle { .. } | Executing::TimerWork { .. });
        if user_work {
            core.global_series.add_busy(start, now);
        }
        if core.trace.enabled() {
            // Close the duration slice opened by GoalStarted (the Chrome
            // exporter pairs the two into one track-local span).
            if let Executing::Goal(ref goal, _) = exec {
                core.trace.record(TraceEvent::GoalFinished {
                    t: now.units(),
                    goal: goal.id,
                    pe,
                });
            }
        }

        match exec {
            Executing::Goal(goal, Expansion::Leaf(value)) => {
                core.respond(pe, goal.id, goal.parent, value);
            }
            Executing::Goal(goal, Expansion::Split(children)) => {
                let waiting = Waiting {
                    spec: goal.spec,
                    parent: goal.parent,
                    pending: children.len() as u32,
                    acc: core.program.combine_init(&goal.spec),
                    round: 0,
                    hops: goal.hops,
                };
                debug_assert!(waiting.pending > 0, "split with no children");
                core.pe_mut(pe).waiting.insert(goal.id, waiting);
                self.spawn_children(pe, goal.id, children);
            }
            Executing::Response { goal, child, value } => {
                self.finish_response(pe, goal, child, value);
            }
            Executing::Respawn { goal, children } => {
                self.spawn_children(pe, goal, children);
            }
            Executing::Handle { from, packet } => {
                self.process_delivery(pe, from, packet);
            }
            Executing::TimerWork { tag } => {
                self.strategy.on_timer(&mut self.core, pe, tag);
            }
        }

        self.core.try_start(pe);
        if self.core.pe(pe).is_idle() && !self.core.completed() {
            self.strategy.on_idle(&mut self.core, pe);
        }
    }

    /// Combine one response; when the round completes, finish or respawn.
    fn finish_response(&mut self, pe: PeId, goal: GoalId, child: GoalId, value: i64) {
        let core = &mut self.core;
        if core.plan.recovery.is_some() {
            // A response is the child's acknowledgment: clear its tracking.
            // An untracked child means a superseded attempt (the slot was
            // already acknowledged or re-spawned) — discard the duplicate
            // so the parent never combines the same slot twice.
            match core.faults.outstanding.remove(&child) {
                Some(entry) => {
                    if entry.attempts > 0 {
                        let latency = core.events.now().units() - entry.first_created;
                        core.faults.recovery_latency.record(latency as f64);
                    }
                }
                None => {
                    core.faults.duplicate_responses += 1;
                    if core.trace.enabled() {
                        core.trace.record(TraceEvent::DuplicateResponse {
                            t: core.events.now().units(),
                            goal: child,
                            pe,
                        });
                    }
                    return;
                }
            }
        }
        core.responses_processed += 1;
        let Core {
            pes,
            topo,
            config,
            program,
            ..
        } = core;
        let w = pes
            .get_mut_or(pe.idx(), |id| fresh_pe(topo, config, id))
            .waiting
            .get_mut(&goal)
            .expect("response for unknown waiting task");
        w.acc = program.combine(&w.spec, w.acc, value);
        w.pending -= 1;
        if w.pending > 0 {
            return;
        }
        let (spec, round, acc) = (w.spec, w.round, w.acc);
        match core.program.continue_after(&spec, round, acc) {
            Continuation::Done(result) => {
                let w = core.pe_mut(pe).waiting.remove(&goal).unwrap();
                core.respond(pe, goal, w.parent, result);
            }
            Continuation::Spawn(children) => {
                assert!(!children.is_empty(), "Continuation::Spawn with no children");
                let acc = core.program.combine_init(&spec);
                let w = core.pe_mut(pe).waiting.get_mut(&goal).unwrap();
                w.round += 1;
                w.pending = children.len() as u32;
                w.acc = acc;
                // Charge another split for the respawn round.
                let mult = core.program.work_multiplier(&spec).max(1);
                let speed = core.cost_factor(pe) * core.pe(pe).transient_factor;
                let cost = core.costs.split_cost * mult * speed;
                core.seq_work += cost;
                let now = core.events.now();
                let p = core.pe_mut(pe);
                debug_assert!(p.executing.is_none());
                p.exec_start = now;
                p.busy_until = now + cost;
                p.executing = Some(Executing::Respawn { goal, children });
                p.busy.set_busy(now);
                core.schedule_event_after(cost, Event::PeDone(pe));
            }
        }
    }

    /// Create goal messages for `children` of the waiting task `parent` on
    /// `pe` and hand each to the strategy for placement.
    fn spawn_children(&mut self, pe: PeId, parent: GoalId, children: TaskList) {
        for spec in children {
            let goal = self.core.make_goal(spec, Some((pe, parent)));
            self.core.track_goal(&goal, 0, goal.created_at);
            self.strategy.on_goal_created(&mut self.core, pe, goal);
        }
    }

    /// The in-flight transfer on `ch` finished: start the channel's next
    /// backlogged transfer (scheduling its completion), account the
    /// traffic, then deliver — the loss draw, the bus snoop, and the
    /// per-destination handoff.
    fn handle_channel_done(&mut self, ch: ChannelId) {
        let now = self.core.events.now();
        let costs = self.core.costs; // Copy: needed while the channel is borrowed.
        let c = self.core.channel_mut(ch);
        debug_assert!(!c.silent, "a silent word retires before its successor");
        // A flight offered behind this transfer while it was a silent
        // word has its completion queued already.
        let queued = std::mem::take(&mut c.successor_queued);
        let (flight, next) = c.complete(now);
        if let Some(cost) = next
            .filter(|_| !queued)
            .map(|n| hop_cost(&costs, &n.packet))
        {
            self.core.schedule_event_after(cost, Event::ChannelDone(ch));
        }
        self.core.count_traffic(&flight.packet);

        // Fault plan: each completed transfer may be lost in delivery. The
        // draw comes from the dedicated fault stream and is skipped
        // entirely at zero loss, so an empty plan changes nothing.
        if self.core.plan.message_loss > 0.0
            && self.core.fault_rng.chance(self.core.plan.message_loss)
        {
            self.core.faults.messages_dropped += 1;
            if self.core.trace.enabled() {
                self.core.trace.record(TraceEvent::MessageDropped {
                    t: self.core.events.now().units(),
                    channel: ch.0,
                });
            }
            self.core.note_packet_lost(&flight.packet, flight.from);
            return;
        }

        let mut receivers = std::mem::take(&mut self.core.receivers);
        self.core.topo.receivers(ch, flight.from, &mut receivers);
        self.core.snoop_load_word(&flight, &receivers);
        match flight.dest {
            FlightDest::Unicast(to) => self.deliver(to, flight.from, flight.packet),
            FlightDest::Broadcast => {
                for &(to, _) in &receivers {
                    self.deliver(to, flight.from, flight.packet);
                }
            }
        }
        self.core.receivers = receivers;
    }

    /// A packet reached PE `to` from its neighbour `from`.
    fn deliver(&mut self, to: PeId, from: PeId, packet: Packet) {
        if self.core.pe(to).failed {
            // The dead PE's mailbox is a black hole — but the recovery
            // layer gets to notice what fell in.
            self.core.note_packet_lost(&packet, to);
            return;
        }
        // The snoop has recorded a load update's word; that table update is
        // free bookkeeping.
        if matches!(packet, Packet::LoadUpdate) {
            return;
        }
        if self.core.config.coprocessor {
            self.process_delivery(to, from, packet);
        } else {
            // No co-processor: handling charges PE time, ahead of user work.
            self.core
                .pe_mut(to)
                .sys_queue
                .push_back(WorkItem::Handle { from, packet });
            self.core.try_start(to);
        }
    }

    /// Act on an arrived packet (after any software-routing charge).
    fn process_delivery(&mut self, pe: PeId, from: PeId, packet: Packet) {
        match packet {
            Packet::Goal(mut goal) => {
                goal.hops += 1;
                self.strategy.on_goal_message(&mut self.core, pe, goal);
            }
            Packet::Response {
                to: (ppe, pgoal),
                child,
                value,
            } => {
                if ppe == pe {
                    self.core.pe_mut(pe).enqueue(WorkItem::Response {
                        goal: pgoal,
                        child,
                        value,
                    });
                    self.core.try_start(pe);
                } else {
                    let hop = self.core.profiled_route_hop(pe, ppe, Some(from));
                    self.core.send_unicast(
                        pe,
                        hop,
                        Packet::Response {
                            to: (ppe, pgoal),
                            child,
                            value,
                        },
                    );
                }
            }
            Packet::Control(msg) => {
                self.strategy.on_control(&mut self.core, pe, from, msg);
            }
            Packet::LoadUpdate => unreachable!("load updates handled at delivery"),
        }
    }

    // ------------------------------------------------------------------
    // Reporting.
    // ------------------------------------------------------------------

    pub(crate) fn build_report(&mut self) -> Report {
        let core = &mut self.core;
        // Closed runs end the instant the root result appears; open runs
        // end at the horizon (duration, saturation instant, or a drained
        // calendar) with no single result value.
        let (result, horizon) = if core.open.is_some() {
            (0, core.events.now())
        } else {
            core.root_result.expect("report before completion")
        };

        // Close any open busy span (possible only for routing work).
        // Untouched PEs execute nothing.
        if core.config.per_pe_series {
            for (_, p) in core.pes.iter_mut() {
                if p.executing.is_some() && p.exec_start < horizon {
                    p.series.add_busy(p.exec_start, horizon);
                }
            }
        }

        let num_pes = core.num_pes();
        let t = horizon.units().max(1);
        let util = |p: &Pe| (p.busy.busy_time(horizon) as f64 / t as f64).min(1.0);
        // Every aggregate below folds the materialized PEs in id order and
        // accounts for each untouched PE exactly as the pristine PE it
        // reads as: a utilization of `+0.0` (the identity of these
        // non-negative sums), zero goals, zero busy time, an empty
        // dispatch accumulator. Folds whose per-PE term is not an identity
        // (the variance) add that term once per untouched id, in id order,
        // so every float matches a walk over a dense array bit for bit.
        let mut util_sum = 0.0f64;
        let mut peak_queue_len = 0usize;
        let mut busy_sketch = LogHistogram::new();
        let mut ranked: Vec<(u64, u32)> = Vec::new();
        let mut executed_by_pes = 0u64;
        let mut dispatch = OnlineStats::new();
        for (id, p) in core.pes.iter() {
            util_sum += util(p);
            peak_queue_len = peak_queue_len.max(p.peak_queue);
            busy_sketch.record(p.busy.busy_time(horizon));
            if p.goals_executed > 0 {
                ranked.push((p.goals_executed, id as u32));
            }
            executed_by_pes += p.goals_executed;
            dispatch.merge(&p.dispatch_latency);
        }
        busy_sketch.record_n(0, (num_pes - core.pes.materialized_slots()) as u64);
        // One unit everywhere: every utilization figure on the report is a
        // fraction in [0, 1] (renderers convert to percent at the edge).
        let avg_utilization = util_sum / num_pes as f64;
        let speedup = num_pes as f64 * avg_utilization;

        // Streaming per-PE summaries, O(1) in the report whatever the
        // machine size: a log-histogram sketch of busy time for the
        // utilization quantiles, and the K busiest PEs by goals executed.
        let util_quantile =
            |q: f64| -> f64 { (busy_sketch.quantile(q) as f64 / t as f64).min(1.0) };
        let (util_p10, util_p50, util_p90, util_p99) = (
            util_quantile(0.10),
            util_quantile(0.50),
            util_quantile(0.90),
            util_quantile(0.99),
        );
        // Top K by goals executed, ties to the lower id; when fewer than K
        // PEs executed a goal, the lowest-id idle PEs fill the table.
        let by_goals = |a: &(u64, u32), b: &(u64, u32)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        let k = Report::TOP_PES.min(num_pes);
        if ranked.len() > k {
            ranked.select_nth_unstable_by(k - 1, by_goals);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(by_goals);
        let idle = (0..num_pes).filter(|&i| core.pes.get(i).goals_executed == 0);
        let fill = k - ranked.len();
        ranked.extend(idle.take(fill).map(|i| (0, i as u32)));
        let top_pes: Vec<TopPe> = ranked
            .iter()
            .map(|&(goals, pe)| TopPe {
                pe,
                goals,
                utilization: util(core.pes.get(pe as usize)),
            })
            .collect();
        let other_goals = executed_by_pes - top_pes.iter().map(|tp| tp.goals).sum::<u64>();

        // The O(PE-count) vectors are built only on request.
        let (per_pe_utilization, per_pe_goals) = if core.config.per_pe_metrics {
            (0..num_pes)
                .map(|i| {
                    let p = core.pes.get(i);
                    (util(p), p.goals_executed)
                })
                .unzip()
        } else {
            (Vec::new(), Vec::new())
        };

        let util_series: Vec<(u64, f64)> = core
            .global_series
            .utilization_series(horizon)
            .into_iter()
            .map(|(t0, f)| (t0, (f / num_pes as f64).min(1.0)))
            .collect();

        let per_pe_series = core.config.per_pe_series.then(|| {
            (0..num_pes)
                .map(|i| {
                    core.pes
                        .get(i)
                        .series
                        .utilization_series(horizon)
                        .into_iter()
                        .map(|(_, f)| f.min(1.0))
                        .collect()
                })
                .collect()
        });

        // Imbalance: coefficient of variation of per-PE busy time.
        let mean_u = util_sum / num_pes as f64;
        let idle_term = (0.0 - mean_u) * (0.0 - mean_u);
        let mut var_sum = 0.0f64;
        for (ids, page) in core.pes.all_pages() {
            match page {
                Some(slots) => {
                    for p in slots {
                        let u = util(p);
                        var_sum += (u - mean_u) * (u - mean_u);
                    }
                }
                None => {
                    for _ in 0..ids {
                        var_sum += idle_term;
                    }
                }
            }
        }
        let var_u = var_sum / num_pes as f64;
        let imbalance_cv = if mean_u > 0.0 {
            var_u.sqrt() / mean_u
        } else {
            0.0
        };

        // Channel aggregates from the materialized slots only: an
        // untouched channel's utilization term is exactly `+0.0`, the
        // identity of this non-negative sum, and its backlog is empty.
        let num_channels = core.channels.len();
        let mut chan_util_sum = 0.0f64;
        let mut max_channel_utilization = 0.0f64;
        let mut max_channel_backlog = 0usize;
        for (_, c) in core.channels.iter() {
            let u = c.busy.busy_time(horizon) as f64 / t as f64;
            chan_util_sum += u;
            max_channel_utilization = max_channel_utilization.max(u);
            max_channel_backlog = max_channel_backlog.max(c.max_backlog);
        }
        let avg_channel_utilization = chan_util_sum / num_channels.max(1) as f64;

        let open_metrics = core.open.as_deref_mut().map(|open| {
            let end = horizon.units();
            open.flush_qlen(end);
            // Outcome classification, most- to least-severe: the trip
            // wire beats everything (the run physically ended there);
            // then majority-shed overload, whether admission control or
            // crashed edge PEs shed; then an unservable deadline; then a
            // clean completion.
            let outcome = match open.saturated {
                Some((at, inflight)) => OpenOutcome::Saturated { at, inflight },
                None if open.arrivals_total > 0 && open.shed_total * 2 > open.arrivals_total => {
                    OpenOutcome::Overloaded {
                        shed: open.shed_total,
                        arrivals: open.arrivals_total,
                    }
                }
                None if open.deadline.is_some()
                    && open.completions_total == 0
                    && open.abandoned_deadline > 0 =>
                {
                    OpenOutcome::DeadlineExhausted {
                        abandoned: open.abandoned_deadline,
                    }
                }
                None => OpenOutcome::Completed,
            };
            let window = end.min(open.duration).saturating_sub(open.warmup).max(1);
            let carried = open.sojourn.total() + open.abandoned_deadline_measured;
            let abandoned = open.abandoned_total();
            OpenMetrics {
                outcome,
                duration: open.duration,
                warmup: open.warmup,
                arrivals: open.arrivals_total,
                completions: open.completions_total,
                completions_measured: open.sojourn.total(),
                inflight_at_end: open.requests_in_system(),
                offered_rate: open.arrivals_total as f64 * crate::open::RATE_UNIT
                    / end.max(1) as f64,
                throughput: carried as f64 * crate::open::RATE_UNIT / window as f64,
                goodput: open.sojourn.total() as f64 * crate::open::RATE_UNIT / window as f64,
                sojourn_mean: open.sojourn_stats.mean(),
                sojourn_p50: open.sojourn.quantile(0.50),
                sojourn_p95: open.sojourn.quantile(0.95),
                sojourn_p99: open.sojourn.quantile(0.99),
                sojourn_max: open.sojourn.max(),
                qlen_time_avg: open.qlen_hist.mean(),
                qlen_p95: open.qlen_hist.quantile(0.95),
                deadline: open.deadline,
                shed: open.shed_total,
                shed_rate: if open.arrivals_total > 0 {
                    open.shed_total as f64 / open.arrivals_total as f64
                } else {
                    0.0
                },
                abandoned_deadline: open.abandoned_deadline,
                abandoned_retries: open.abandoned_retries,
                abandonment_rate: if open.arrivals_total > 0 {
                    abandoned as f64 / open.arrivals_total as f64
                } else {
                    0.0
                },
                retries: open.retries_total,
                breaker_opens: open.breaker_opens,
            }
        });

        let (hop_histogram, hop_overflow, avg_goal_distance) = Report::hop_fields(&core.hop_hist);
        let dispatch_latency_mean = dispatch.mean();
        let dispatch_latency_max = dispatch.max().unwrap_or(0.0);
        let efficiency = core.seq_work as f64 / (num_pes as u64 * t) as f64;

        Report {
            strategy: self.strategy.name().to_string(),
            topology: core.topo.name().to_string(),
            program: core.program.name(),
            num_pes,
            completion_time: horizon.units(),
            result,
            goals_created: core.goals_created,
            goals_executed: core.goals_executed,
            responses_processed: core.responses_processed,
            avg_utilization,
            efficiency,
            speedup,
            util_p10,
            util_p50,
            util_p90,
            util_p99,
            top_pes,
            other_goals,
            per_pe_utilization,
            per_pe_goals,
            util_series,
            per_pe_series,
            hop_histogram,
            hop_overflow,
            avg_goal_distance,
            dispatch_latency_mean,
            dispatch_latency_max,
            traffic: core.traffic,
            avg_channel_utilization,
            max_channel_utilization,
            max_channel_backlog,
            peak_queue_len,
            imbalance_cv,
            seq_work: core.seq_work,
            events: core.events.events_processed(),
            seed: core.config.seed,
            faults: core.faults.metrics(),
            profile: core.profiler.as_ref().map(|p| {
                let mut profile = p.report();
                profile.state = vec![core.pes.footprint("pe"), core.channels.footprint("channel")];
                profile.lines = vec![core.silent.counts.profile_line()];
                profile
            }),
            open: open_metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oracle_topo::misc::ring;

    /// fib(n) as an inline test program.
    struct Fib(i64);

    impl Program for Fib {
        fn name(&self) -> String {
            format!("fib({})", self.0)
        }
        fn root(&self) -> TaskSpec {
            TaskSpec::new(self.0, 0)
        }
        fn expand(&self, spec: &TaskSpec) -> Expansion {
            if spec.a < 2 {
                Expansion::Leaf(spec.a)
            } else {
                Expansion::Split([spec.child(spec.a - 1, 0), spec.child(spec.a - 2, 0)].into())
            }
        }
        fn combine(&self, _spec: &TaskSpec, acc: i64, child: i64) -> i64 {
            acc + child
        }
    }

    /// Keep every goal on the PE that created it.
    struct KeepLocal;

    impl Strategy for KeepLocal {
        fn name(&self) -> &'static str {
            "keep-local"
        }
        fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
            core.accept_goal(pe, goal);
        }
        fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
            core.accept_goal(pe, goal);
        }
    }

    /// Scatter every goal to the next PE around a ring, accepting after one
    /// hop — exercises channels and responses.
    struct ScatterRing;

    impl Strategy for ScatterRing {
        fn name(&self) -> &'static str {
            "scatter-ring"
        }
        fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
            let next = PeId((pe.0 + 1) % core.num_pes() as u32);
            core.forward_goal(pe, next, goal);
        }
        fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
            core.accept_goal(pe, goal);
        }
    }

    fn run(n: i64, strategy: Box<dyn Strategy>, seed: u64) -> Report {
        let mut config = MachineConfig::default().with_seed(seed);
        // The placement assertions below read the opt-in per-PE vectors.
        config.per_pe_metrics = true;
        let machine = Machine::new(
            ring(4),
            Box::new(Fib(n)),
            strategy,
            CostModel::unit(),
            config,
        )
        .unwrap();
        machine.run().unwrap()
    }

    #[test]
    fn computes_fibonacci_locally() {
        let r = run(10, Box::new(KeepLocal), 1);
        assert_eq!(r.result, 55);
        // fib call-tree size: 2*fib(n+1) - 1.
        assert_eq!(r.goals_created, 2 * 89 - 1);
        r.check_invariants();
        // Everything ran on the root PE.
        assert_eq!(r.avg_goal_distance, 0.0);
        assert!(r.per_pe_utilization[1] == 0.0);
    }

    #[test]
    fn computes_fibonacci_through_channels() {
        let r = run(10, Box::new(ScatterRing), 1);
        assert_eq!(r.result, 55);
        r.check_invariants();
        // Every goal travelled exactly one hop.
        assert_eq!(r.avg_goal_distance, 1.0);
        assert_eq!(r.hop_histogram, vec![0, r.goals_created]);
        assert!(r.traffic.goal_hops >= r.goals_created);
        assert!(r.traffic.response_hops > 0);
        // Work is spread across the ring.
        assert!(r.per_pe_utilization.iter().all(|&u| u > 0.0));
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(12, Box::new(ScatterRing), 7);
        let b = run(12, Box::new(ScatterRing), 7);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.events, b.events);
        assert_eq!(a.hop_histogram, b.hop_histogram);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn local_run_time_is_sequential_work() {
        // With everything on one PE and unit costs, completion time equals
        // the sequential work: one unit per goal plus one per response.
        let r = run(8, Box::new(KeepLocal), 1);
        let internal = r.goals_created - r.goals_created.div_ceil(2);
        let responses = 2 * internal;
        assert_eq!(r.seq_work, r.goals_created + responses);
        assert_eq!(r.completion_time, r.seq_work);
        assert!((r.per_pe_utilization[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_only_program_completes() {
        let r = run(1, Box::new(KeepLocal), 1);
        assert_eq!(r.result, 1);
        assert_eq!(r.goals_created, 1);
        assert_eq!(r.completion_time, 1);
    }

    /// A strategy that drops goals (violating the conservation contract)
    /// must produce a stall, not a hang.
    struct DropAll;

    impl Strategy for DropAll {
        fn name(&self) -> &'static str {
            "drop-all"
        }
        fn needs_load_broadcast(&self) -> bool {
            false // no broadcast events to keep the clock alive
        }
        fn on_goal_created(&mut self, _: &mut Core, _: PeId, _: GoalMsg) {}
        fn on_goal_message(&mut self, _: &mut Core, _: PeId, _: GoalMsg) {}
    }

    #[test]
    fn dropped_goals_stall_cleanly() {
        let machine = Machine::new(
            ring(4),
            Box::new(Fib(5)),
            Box::new(DropAll),
            CostModel::unit(),
            MachineConfig::default(),
        )
        .unwrap();
        assert!(matches!(machine.run(), Err(SimError::Stalled { .. })));
    }

    #[test]
    fn no_coprocessor_charges_routing_time() {
        let cfg = MachineConfig {
            coprocessor: false,
            ..MachineConfig::default()
        };
        let machine = Machine::new(
            ring(4),
            Box::new(Fib(10)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap();
        let slow = machine.run().unwrap();
        let fast = run(10, Box::new(ScatterRing), 1);
        assert_eq!(slow.result, fast.result);
        assert!(
            slow.completion_time > fast.completion_time,
            "software routing should slow the run ({} vs {})",
            slow.completion_time,
            fast.completion_time
        );
    }

    #[test]
    fn trace_records_the_goal_lifecycle() {
        let mut cfg = MachineConfig::default().with_seed(1);
        cfg.trace_capacity = 10_000;
        let machine = Machine::new(
            ring(4),
            Box::new(Fib(6)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap();
        let (report, trace) = machine.run_traced().unwrap();
        assert!(trace.enabled());
        let count = |pred: fn(&crate::trace::TraceEvent) -> bool| {
            trace.events().iter().filter(|e| pred(e)).count() as u64
        };
        let created = count(|e| matches!(e, crate::trace::TraceEvent::GoalCreated { .. }));
        let accepted = count(|e| matches!(e, crate::trace::TraceEvent::GoalAccepted { .. }));
        let started = count(|e| matches!(e, crate::trace::TraceEvent::GoalStarted { .. }));
        assert_eq!(created, report.goals_created);
        assert_eq!(accepted, report.goals_created, "every goal accepted once");
        assert_eq!(started, report.goals_executed);
        // Timestamps are monotone.
        let times: Vec<u64> = trace.events().iter().map(|e| e.time()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // The root completion appears with the right answer.
        assert!(trace
            .events()
            .iter()
            .any(|e| matches!(e, crate::trace::TraceEvent::RootCompleted { result: 8, .. })));
        assert!(trace.render().contains("result = 8"));
    }

    #[test]
    fn tracing_does_not_change_the_run() {
        let mut traced_cfg = MachineConfig::default().with_seed(2);
        traced_cfg.trace_capacity = 1000;
        let traced = Machine::new(
            ring(4),
            Box::new(Fib(9)),
            Box::new(ScatterRing),
            CostModel::unit(),
            traced_cfg,
        )
        .unwrap()
        .run()
        .unwrap();
        let plain = run(9, Box::new(ScatterRing), 2);
        assert_eq!(traced.completion_time, plain.completion_time);
        assert_eq!(traced.events, plain.events);
    }

    #[test]
    fn backlog_and_imbalance_metrics_are_populated() {
        let r = run(12, Box::new(ScatterRing), 1);
        // A scatter onto 4 PEs keeps load fairly even.
        assert!(r.imbalance_cv < 1.0, "cv = {}", r.imbalance_cv);
        let local = run(12, Box::new(KeepLocal), 1);
        assert!(
            local.imbalance_cv > r.imbalance_cv,
            "keep-local must be more imbalanced ({} vs {})",
            local.imbalance_cv,
            r.imbalance_cv
        );
        // Contention existed somewhere on the scatter run (goal traffic on
        // top of the periodic load words).
        assert!(r.max_channel_backlog > 0);
        assert!(
            local.max_channel_backlog <= r.max_channel_backlog,
            "keep-local (load words only) should not out-congest the scatter"
        );
    }

    #[test]
    fn heterogeneous_pe_speeds_slow_the_machine() {
        let mut het = MachineConfig::default().with_seed(4);
        het.pe_speed_spread = 4;
        let slow = Machine::new(
            ring(4),
            Box::new(Fib(10)),
            Box::new(ScatterRing),
            CostModel::unit(),
            het,
        )
        .unwrap()
        .run()
        .unwrap();
        let fast = run(10, Box::new(ScatterRing), 4);
        assert_eq!(slow.result, fast.result);
        assert!(
            slow.completion_time > fast.completion_time,
            "mixed-speed PEs must be slower ({} vs {})",
            slow.completion_time,
            fast.completion_time
        );
        // Deterministic: same seed, same factors.
        let again = {
            let mut cfg = MachineConfig::default().with_seed(4);
            cfg.pe_speed_spread = 4;
            Machine::new(
                ring(4),
                Box::new(Fib(10)),
                Box::new(ScatterRing),
                CostModel::unit(),
                cfg,
            )
            .unwrap()
            .run()
            .unwrap()
        };
        assert_eq!(slow.completion_time, again.completion_time);
    }

    #[test]
    fn util_series_covers_run() {
        let r = run(10, Box::new(ScatterRing), 3);
        assert!(!r.util_series.is_empty());
        // Total busy in the series equals per-PE busy time summed.
        let total: f64 = r
            .util_series
            .iter()
            .map(|&(t0, f)| {
                let width = (r.completion_time - t0).min(100);
                f * width as f64 * r.num_pes as f64
            })
            .sum();
        assert!((total - r.seq_work as f64).abs() < 1e-6);
    }

    fn run_with_plan(
        n: i64,
        strategy: Box<dyn Strategy>,
        seed: u64,
        plan: FaultPlan,
    ) -> Result<Report, SimError> {
        let mut config = MachineConfig::default().with_seed(seed);
        config.fault_plan = plan;
        config.per_pe_metrics = true; // match `run` for report comparisons
        Machine::new(
            ring(4),
            Box::new(Fib(n)),
            strategy,
            CostModel::unit(),
            config,
        )
        .unwrap()
        .run()
    }

    #[test]
    fn crash_without_recovery_is_attributed_to_the_plan() {
        // KeepLocal puts everything on PE 0; killing it mid-run strands the
        // whole computation, and the error says the plan did it.
        let plan = FaultPlan::none().crash(0, 50);
        let err = run_with_plan(10, Box::new(KeepLocal), 1, plan).unwrap_err();
        match err {
            SimError::GoalsLost {
                expected_by_plan,
                goals_lost,
                ..
            } => {
                assert!(expected_by_plan);
                assert!(goals_lost > 0);
            }
            other => panic!("expected GoalsLost, got {other}"),
        }
    }

    #[test]
    fn crash_with_recovery_still_computes_the_right_answer() {
        // Same crash, but the recovery layer re-spawns the lost subtree on
        // a surviving PE: the run completes and the value is exact.
        let plan = FaultPlan::none()
            .crash(0, 50)
            .with_recovery(crate::faults::RecoveryParams {
                ack_timeout: 50_000, // generous: only the crash sweep re-spawns
                max_retries: 6,
            });
        let r = run_with_plan(10, Box::new(KeepLocal), 1, plan).unwrap();
        assert_eq!(r.result, 55);
        assert_eq!(r.faults.pes_crashed, 1);
        assert!(r.faults.goals_lost > 0, "the dead PE held work");
        assert!(
            r.faults.goals_respawned > 0,
            "recovery must have re-spawned"
        );
        r.check_invariants();
    }

    #[test]
    fn message_loss_with_recovery_still_computes_the_right_answer() {
        // ScatterRing pushes every goal through a channel; with 5% loss
        // the retry layer must re-spawn the dropped ones until fib comes
        // out exact.
        let plan = FaultPlan::none()
            .with_loss(0.05)
            .with_recovery(crate::faults::RecoveryParams {
                ack_timeout: 5_000,
                max_retries: 8,
            });
        let r = run_with_plan(10, Box::new(ScatterRing), 3, plan).unwrap();
        assert_eq!(r.result, 55);
        assert!(
            r.faults.messages_dropped > 0,
            "5% loss over hundreds of transfers should drop something"
        );
        r.check_invariants();
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let plain = run(10, Box::new(ScatterRing), 7);
        let with_empty = run_with_plan(10, Box::new(ScatterRing), 7, FaultPlan::none()).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{with_empty:?}"));
    }

    #[test]
    fn link_window_delays_but_does_not_lose_work() {
        // Take one ring link down for a while: backlogged flights resume
        // when it comes up, nothing is lost, and completion is late.
        let plain = run(10, Box::new(ScatterRing), 5);
        let plan = FaultPlan::none().link_down(0, 10, 400);
        let r = run_with_plan(10, Box::new(ScatterRing), 5, plan).unwrap();
        assert_eq!(r.result, 55);
        assert_eq!(r.faults.goals_lost, 0);
        assert!(
            r.completion_time >= plain.completion_time,
            "a down window cannot speed the run up ({} vs {})",
            r.completion_time,
            plain.completion_time
        );
        r.check_invariants();
    }

    #[test]
    fn transient_slowdown_stretches_the_run() {
        let plain = run(10, Box::new(KeepLocal), 1);
        // KeepLocal runs everything on PE 0: slow it 4x for a long window.
        let plan = FaultPlan::none().slow(0, 0, 1_000_000, 4);
        let r = run_with_plan(10, Box::new(KeepLocal), 1, plan).unwrap();
        assert_eq!(r.result, 55);
        assert!(
            r.completion_time > plain.completion_time * 3,
            "4x slowdown barely moved completion: {} vs {}",
            r.completion_time,
            plain.completion_time
        );
    }

    #[test]
    fn goal_slices_open_and_close_in_the_trace() {
        let mut cfg = MachineConfig::default().with_seed(1);
        cfg.trace_capacity = 100_000;
        let machine = Machine::new(
            ring(4),
            Box::new(Fib(8)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap();
        let (report, trace) = machine.run_traced().unwrap();
        let started = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::GoalStarted { .. }))
            .count() as u64;
        let finished = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::GoalFinished { .. }))
            .count() as u64;
        assert_eq!(started, report.goals_executed);
        assert_eq!(finished, started, "every slice that opens must close");
    }

    #[test]
    fn keep_last_trace_retains_the_tail() {
        let mut cfg = MachineConfig::default().with_seed(1);
        cfg.trace_capacity = 50;
        cfg.trace_mode = crate::trace::TraceMode::KeepLast;
        let machine = Machine::new(
            ring(4),
            Box::new(Fib(9)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap();
        let (report, trace) = machine.run_traced().unwrap();
        assert_eq!(trace.len(), 50);
        assert!(trace.dropped() > 0, "fib(9) emits far more than 50 events");
        // The tail — not the prefix — is retained: the root completion is
        // the run's last interesting event and must be present.
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::RootCompleted { .. })));
        // Chronological iteration stays monotone across the ring seam.
        let times: Vec<u64> = trace.iter().map(|e| e.time()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.result, 34);
    }

    #[test]
    fn profiler_counts_every_event_and_does_not_perturb_the_run() {
        let mut cfg = MachineConfig::default().with_seed(6);
        cfg.profile = true;
        let profiled = Machine::new(
            ring(4),
            Box::new(Fib(10)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap()
        .run()
        .unwrap();
        let plain = run(10, Box::new(ScatterRing), 6);
        assert!(plain.profile.is_none(), "profiling is opt-in");
        let profile = profiled.profile.as_ref().expect("profile requested");
        assert_eq!(
            profile.total_events(),
            profiled.events,
            "every processed event lands in exactly one kind"
        );
        assert!(profile.queue_depth_hwm > 0);
        assert!(profile.queue_wall_nanos > 0, "queue pops are timed");
        assert!(
            profile.route_calls > 0,
            "response hops are routed and counted"
        );
        assert_eq!(
            profile.route_calls, profiled.traffic.response_hops,
            "one routing decision per response hop"
        );
        assert!(
            profile.render().contains("\nroute "),
            "route line is rendered"
        );
        assert!(profile
            .kinds
            .iter()
            .any(|k| k.name == "pe_done" && k.count > 0));
        // Profiling reads the wall clock but never the simulated state.
        assert_eq!(profiled.completion_time, plain.completion_time);
        assert_eq!(profiled.events, plain.events);
        assert_eq!(profiled.hop_histogram, plain.hop_histogram);
    }
}
