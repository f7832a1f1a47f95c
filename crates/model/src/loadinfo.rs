//! Neighbour-load information: how a PE learns its neighbours' loads.
//!
//! Every flight carries its sender's load word ("piggy-backed with regular
//! messages, whenever possible"); with a non-zero period each PE also
//! broadcasts a payload-free load update. A word reaches the tables only
//! through the snoop at transfer completion, at every member of the
//! channel: on a bus, members the packet is not addressed to too. The
//! tables are written under every [`LoadInfoMode`]; under
//! [`LoadInfoMode::Instant`] the reads ignore them.
//!
//! **Silent words.** A broadcast load word is *silent* when its channel is
//! idle, up and has an empty backlog, and every receiver's slot for the
//! sender already holds the word, on a run whose words may be silent at
//! all: no message loss, a positive control hop cost, and no buses. Its
//! transfer would change nothing but the channel's busy window and three
//! counters, so it occupies the channel for `control_hop_cost` and
//! reserves the channel's next event key, but queues no completion event.
//! It retires as an event that was never queued: the channel's transfer
//! count and busy time, `load_updates` and the event count grow exactly as
//! its completion would have grown them.
//!
//! - *Offers behind it.* A flight offered while the word is on the wire
//!   joins the backlog. The first one's completion is queued at once,
//!   under the next key of the channel: the word's completion would have
//!   promoted it and queued exactly that. The word itself stays silent.
//! - *Wake.* The word's completion is queued under its reserved key, and
//!   it becomes the ordinary transfer it would have been, when that
//!   completion must act at its own instant: a goal from the receiver
//!   (whose optimistic bump of the sender's slot the word must overwrite),
//!   a flight whose successor cannot be queued early (zero hop cost, or a
//!   link window that may take the channel down first), the link going
//!   down, and a snapshot, which records queued events only. A down
//!   channel takes no silent word, so a link coming up never finds one.
//! - *Retire.* Words retire one by one in `(time, key)` order: the run
//!   loop pops a queued event only if it comes before the first listed
//!   word, and otherwise retires the word as its own event, with the clock
//!   at its instant. The auditor, the progress watchdog, the event limit,
//!   a checkpoint pause and the end of an open run therefore see the same
//!   events at the same instants as with every word queued, and a touch
//!   never finds a word that should have completed already.
//!
//! Without buses every pair of PEs exchanges traffic over one channel, so
//! nothing but the receiver's bump, which wakes the word, writes the
//! receiver's slot for the sender while the word is on the wire. On a bus
//! machine two PEs can share two buses (the DLM's overlapping lattices),
//! and a flight from the sender or a bump over the other bus can change
//! the slot before the word's completion would have rewritten it, so
//! words there are never silent.

use std::collections::VecDeque;

use oracle_des::SimTime;
use oracle_topo::{ChannelId, PeId, Topology};

use crate::channel::Channel;
use crate::config::LoadInfoMode;
use crate::cost::CostModel;
use crate::faults::FaultPlan;
use crate::machine::{hop_cost, Core, Event, Machine};
use crate::message::{Flight, FlightDest, Packet};

/// The silent load words on the wire, in retirement order, and the
/// load-word counters of `--profile`.
#[derive(Default)]
pub(crate) struct SilentWords {
    /// `(done_at, key)`: the completion instant and reserved ordering key
    /// of each silent word on the wire, in `(time, key)` order. Every word
    /// takes `control_hop_cost`, so broadcast order is completion-time
    /// order, and a word only has to find its place among the words of its
    /// own instant.
    words: VecDeque<(u64, u64)>,
    /// Words of this run may be silent (see the module docs).
    allowed: bool,
    pub(crate) counts: LoadWordCounts,
}

/// Broadcast load words by fate, for `--profile`. Deterministic: a
/// function of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LoadWordCounts {
    /// Load words put on a channel.
    pub(crate) sent: u64,
    /// Of those, words every receiver already held: they occupied their
    /// channel without a queued completion event.
    pub(crate) silent: u64,
    /// Silent words that an offer, a link going down or a snapshot turned
    /// back into queued transfers.
    pub(crate) woken: u64,
}

impl LoadWordCounts {
    /// The `--profile` line: `load words  sent N  silent M  woken K`.
    pub(crate) fn profile_line(&self) -> (&'static str, Vec<(&'static str, u64)>) {
        (
            "load words",
            vec![
                ("sent", self.sent),
                ("silent", self.silent),
                ("woken", self.woken),
            ],
        )
    }
}

impl SilentWords {
    /// No words yet, on a run that loses no messages, has a positive
    /// control hop cost and no buses.
    pub(crate) fn new(topo: &Topology, costs: &CostModel, plan: &FaultPlan) -> Self {
        SilentWords {
            allowed: plan.message_loss == 0.0 && costs.control_hop_cost > 0 && !topo.has_buses(),
            ..SilentWords::default()
        }
    }

    /// `(done_at, key)` of the next word to retire, or `(u64::MAX,
    /// u64::MAX)`, after every event, when none is on the wire.
    #[inline]
    pub(crate) fn next(&self) -> (u64, u64) {
        self.words.front().copied().unwrap_or((u64::MAX, u64::MAX))
    }

    /// List a word behind every word of an earlier instant and, within its
    /// instant, in key order.
    fn push(&mut self, word: (u64, u64)) {
        let mut at = self.words.len();
        while at > 0 && self.words[at - 1] > word {
            at -= 1;
        }
        self.words.insert(at, word);
    }

    /// Take `word` off the list.
    fn remove(&mut self, word: (u64, u64)) {
        let at = self
            .words
            .binary_search(&word)
            .expect("a silent word on the wire is listed");
        self.words.remove(at);
    }

    /// The listed words, in `(time, key)` order.
    pub(crate) fn listed(&self) -> &VecDeque<(u64, u64)> {
        &self.words
    }
}

impl Core {
    /// `packet` as a flight from `from`, carrying `from`'s load word.
    #[inline]
    pub(crate) fn flight(&self, from: PeId, dest: FlightDest, packet: Packet) -> Flight {
        Flight {
            from,
            dest,
            piggyback_load: self.load(from),
            packet,
        }
    }

    /// A transfer of `flight` completed: each of its `receivers` (member and
    /// the sender's slot in its table, from `Topology::receivers`) records
    /// the word. Failed members too: the table of a dead PE is never read.
    #[inline]
    pub(crate) fn snoop_load_word(&mut self, flight: &Flight, receivers: &[(PeId, usize)]) {
        for &(m, slot) in receivers {
            self.pe_mut(m).known_load[slot] = flight.piggyback_load;
        }
    }

    /// Put the load word `flight` on `ch` as a silent word if it is one
    /// (see the module docs); returns whether it did. The one predicate
    /// every broadcast load word goes through.
    #[inline]
    pub(crate) fn send_silently(&mut self, ch: ChannelId, flight: &Flight) -> bool {
        self.silent.counts.sent += 1;
        if !self.silent.allowed {
            return false;
        }
        let now = self.events.now();
        let Core {
            channels,
            pes,
            topo,
            receivers,
            ..
        } = self;
        let c = channels.get_mut_or(ch.idx(), |_| Channel::new());
        if c.in_flight.is_some() || c.down || !c.backlog.is_empty() {
            return false;
        }
        topo.receivers(ch, flight.from, receivers);
        let held = receivers
            .iter()
            .all(|&(m, slot)| pes.get(m.idx()).known_load(slot) == flight.piggyback_load);
        if !held {
            return false;
        }
        let seq = c.occupy_silently(*flight, now);
        let key = self.channel_key(ch, seq);
        let done_at = now.units() + self.costs.control_hop_cost;
        self.silent.push((done_at, key));
        self.silent.counts.silent += 1;
        true
    }

    /// `(done_at, key)` of the silent word on `ch`.
    fn silent_word_on(&self, ch: ChannelId) -> (u64, u64) {
        let (started, seq) = self.channel(ch).silent_word();
        (
            started.units() + self.costs.control_hop_cost,
            self.channel_key(ch, seq),
        )
    }

    /// The channel whose event key `key` is (the inverse of
    /// [`Core::channel_key`]).
    fn key_channel(&self, key: u64) -> ChannelId {
        ChannelId(((key >> 32) - 1 - self.num_pes() as u64) as u32)
    }

    /// The channel whose silent word reserved `key`, or `None` once that
    /// word was woken or has retired.
    pub(crate) fn silent_channel(&self, key: u64) -> Option<ChannelId> {
        let ch = self.key_channel(key);
        self.channel(ch).holds_silent(key as u32).then_some(ch)
    }

    /// Offer `flight` to `ch`, which holds a silent word (see the module
    /// docs).
    #[inline(never)]
    pub(crate) fn offer_behind_silent_word(&mut self, ch: ChannelId, flight: Flight) {
        let (done_at, _) = self.silent_word_on(ch);
        let now = self.events.now();
        let c = self.channel_mut(ch);
        let first = c.backlog.is_empty();
        let sender = c
            .in_flight
            .as_ref()
            .expect("a silent word is in flight")
            .from;
        c.offer(flight, now);
        let cost = hop_cost(&self.costs, &flight.packet);
        let bumped = matches!(flight.packet, Packet::Goal(_)) && flight.from != sender;
        let link_may_drop = self
            .plan
            .link_windows
            .iter()
            .any(|w| w.channel == ch.0 && (now.units()..=done_at).contains(&w.down_at));
        if bumped || (first && (cost == 0 || link_may_drop)) {
            self.wake_silent_word(ch);
        } else if first {
            self.schedule_event_at(SimTime(done_at + cost), Event::ChannelDone(ch));
            self.channel_mut(ch).successor_queued = true;
        }
    }

    /// Queue the completion of the silent word on `ch` under the key it
    /// reserved, and take it off the list: it becomes an ordinary transfer.
    pub(crate) fn wake_silent_word(&mut self, ch: ChannelId) {
        let word = self.silent_word_on(ch);
        self.silent.remove(word);
        self.queue_silent_completion(ch, word);
    }

    fn queue_silent_completion(&mut self, ch: ChannelId, (done_at, key): (u64, u64)) {
        self.channel_mut(ch).silent = false;
        self.events
            .schedule_keyed_at(SimTime(done_at), key, Event::ChannelDone(ch));
        self.silent.counts.woken += 1;
    }

    /// Wake every silent word. A snapshot records queued events only, so
    /// before one every silent word becomes the queued transfer it stands
    /// for; [`Core::unqueue_successors`] finishes the job.
    pub(crate) fn wake_silent_words(&mut self) {
        while let Some(word) = self.silent.words.pop_front() {
            self.queue_silent_completion(self.key_channel(word.1), word);
        }
    }

    /// Take the early-queued completion of every successor out of
    /// `pending` (the drained event queue) and give its sequence back: the
    /// woken word's completion queues it as it would have, so the state is
    /// exactly the one every word queued passes through.
    pub(crate) fn unqueue_successors(&mut self, pending: &mut Vec<(SimTime, u64, Event)>) {
        let successors: Vec<ChannelId> = self
            .channels
            .iter()
            .filter(|(_, c)| c.successor_queued)
            .map(|(idx, _)| ChannelId(idx as u32))
            .collect();
        for ch in successors {
            let c = self.channel_mut(ch);
            c.successor_queued = false;
            c.key_seq -= 1;
            let seq = c.key_seq;
            let key = self.channel_key(ch, seq);
            pending.retain(|&(_, k, ev)| (k, ev) != (key, Event::ChannelDone(ch)));
        }
    }

    /// Retire the first listed silent word as the event being handled: the
    /// clock moves to its instant, and the channel, `load_updates` and the
    /// event count grow as its completion would have grown them. Returns
    /// that instant, or `None` when no word is listed. Call only when no
    /// queued event comes before the word.
    pub(crate) fn retire_next_silent_word(&mut self) -> Option<SimTime> {
        let (done_at, key) = self.silent.words.pop_front()?;
        let ch = self.key_channel(key);
        let at = SimTime(done_at);
        self.channel_mut(ch).retire_silent(at);
        self.traffic.load_updates += 1;
        if let Some(p) = self.profiler.as_mut() {
            p.count_only(Event::ChannelDone(ch).kind());
        }
        self.events.advance_unqueued(at);
        self.event_key = key;
        Some(at)
    }

    /// `from` forwarded a goal to the neighbour at `slot` of its list:
    /// optimistically bump its view of that neighbour's load, so consecutive
    /// subgoals created between load words do not all chase the same "least
    /// loaded" neighbour.
    #[inline]
    pub(crate) fn note_goal_forwarded(&mut self, from: PeId, slot: usize) {
        let load = &mut self.pe_mut(from).known_load[slot];
        *load = load.saturating_add(1);
    }

    /// `pe`'s current view of neighbour `nbr`'s load. In `Instant` mode this
    /// is the true load; in `Piggyback` mode it is the last load word
    /// received from `nbr` (possibly stale).
    pub fn known_load_of(&self, pe: PeId, nbr: PeId) -> u32 {
        match self.config.load_info {
            LoadInfoMode::Instant => self.load(nbr),
            LoadInfoMode::Piggyback { .. } => {
                let idx = self
                    .topo
                    .neighbor_position(pe, nbr)
                    .expect("known_load_of: not a neighbour");
                self.pe(pe).known_load(idx)
            }
        }
    }

    /// The least-loaded reachable neighbour of `pe` under its current
    /// knowledge, ties broken uniformly at random (deterministically, from
    /// the run's seed). Without randomized tie-breaking, the load plateaus
    /// of an idle machine funnel every goal down the same lowest-id path —
    /// a single saturated channel and a sequential execution. Optionally
    /// exclude one neighbour (e.g. the PE a goal just came from). Returns
    /// `None` when every candidate is excluded, dead, or cut off — the
    /// caller should then keep the goal local.
    pub fn least_loaded_neighbor(
        &mut self,
        pe: PeId,
        exclude: Option<PeId>,
    ) -> Option<(PeId, u32)> {
        // The PE's RNG stream is copied out for the scan and written back
        // after it, so the loop can read neighbours' slots while drawing
        // ties (this is a per-placement-decision hot path).
        let mut rng = self.pe_mut(pe).rng.clone();
        let mut best: Option<(PeId, u32)> = None;
        let mut ties = 0u64;
        self.for_each_known_load(pe, |nbr, load| {
            if Some(nbr) == exclude {
                return;
            }
            match best {
                Some((_, b)) if load > b => {}
                Some((_, b)) if load == b => {
                    // Reservoir-sample among the tied minima.
                    ties += 1;
                    if rng.below(ties + 1) == 0 {
                        best = Some((nbr, load));
                    }
                }
                _ => {
                    ties = 0;
                    best = Some((nbr, load));
                }
            }
        });
        self.pe_mut(pe).rng = rng;
        best
    }

    /// Minimum load among `pe`'s reachable neighbours under its current
    /// knowledge. `u32::MAX` when no neighbour is reachable (so a local
    /// minimum test degenerates to "accept locally").
    pub fn min_known_neighbor_load(&self, pe: PeId) -> u32 {
        let mut min = u32::MAX;
        self.for_each_known_load(pe, |_, load| min = min.min(load));
        min
    }

    /// The most-loaded reachable neighbour of `pe` under its current
    /// knowledge, or `None` when every neighbour is dead or cut off.
    pub fn most_loaded_neighbor(&self, pe: PeId) -> Option<(PeId, u32)> {
        let mut best: Option<(PeId, u32)> = None;
        self.for_each_known_load(pe, |nbr, load| match best {
            Some((_, b)) if b >= load => {}
            _ => best = Some((nbr, load)),
        });
        best
    }

    /// Call `f` on each reachable neighbour of `pe`, in neighbour order,
    /// with its load as `pe` knows it. Reachable: alive, over a channel
    /// that is up, and not vetoed by the circuit breaker (open runs only),
    /// which distrusts neighbourhoods it has not yet re-trusted after a
    /// fault.
    #[inline]
    fn for_each_known_load(&self, pe: PeId, mut f: impl FnMut(PeId, u32)) {
        let p = self.pe(pe);
        let mut slot = 0;
        self.topo.for_each_neighbor(pe, |n| {
            let i = slot;
            slot += 1;
            if self.pe(n.pe).failed
                || self.channel(n.channel).down
                || self.breaker_blocked(pe, n.pe)
            {
                return;
            }
            let load = match self.config.load_info {
                LoadInfoMode::Instant => self.load(n.pe),
                LoadInfoMode::Piggyback { .. } => p.known_load(i),
            };
            f(n.pe, load);
        });
    }
}

impl Machine {
    /// The load-broadcast period of this run, or 0 when it arms none:
    /// broadcasts need piggy-backed load info with a non-zero period, under
    /// a strategy that reads neighbour loads.
    fn broadcast_period(&self) -> u64 {
        match self.core.config.load_info {
            LoadInfoMode::Piggyback { period } if self.strategy.needs_load_broadcast() => period,
            _ => 0,
        }
    }

    /// Arm the periodic load broadcasts, staggered by PE id.
    pub(crate) fn arm_load_broadcasts(&mut self) {
        let period = self.broadcast_period();
        if period == 0 {
            return;
        }
        for pe in 0..self.core.num_pes() as u32 {
            let offset = pe as u64 % period;
            self.core
                .schedule_event_at(SimTime(offset), Event::LoadBcast(PeId(pe)));
        }
    }

    /// `pe`'s broadcast is due: send the load update on every incident
    /// channel and re-arm. A dead PE falls silent for good.
    pub(crate) fn handle_load_bcast(&mut self, pe: PeId) {
        if self.core.pe(pe).failed {
            return;
        }
        self.core.broadcast_packet(pe, Packet::LoadUpdate);
        let period = self.broadcast_period();
        self.core.schedule_event_after(period, Event::LoadBcast(pe));
    }

    /// The progress watchdog's window in events. One load-broadcast round
    /// is a `load_bcast` event per PE plus a transfer per incident channel
    /// — five million events on a 10^6-PE torus, before any goal can run.
    /// With broadcasts armed the window therefore grows by two rounds, so
    /// no round can fill it by itself and only a machine that makes no
    /// progress while broadcasting trips it.
    pub(crate) fn progress_window(&self) -> u64 {
        let base = self.core.config.progress_window;
        if self.broadcast_period() == 0 {
            return base;
        }
        base + 2 * (self.core.num_pes() + self.core.topo.num_incidences()) as u64
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use oracle_topo::dlm::double_lattice_mesh;
    use oracle_topo::misc::ring;
    use oracle_topo::{PeId, Topology};

    use crate::config::{LoadInfoMode, MachineConfig};
    use crate::cost::CostModel;
    use crate::machine::Machine;
    use crate::message::{ControlMsg, GoalId, GoalMsg, Packet};
    use crate::pe::WorkItem;
    use crate::program::{Expansion, Program, TaskSpec};
    use crate::strategy::Strategy;
    use crate::SimError;

    /// A one-goal program; the tests never inject it.
    struct Leaf;

    impl Program for Leaf {
        fn name(&self) -> String {
            "leaf".into()
        }
        fn root(&self) -> TaskSpec {
            TaskSpec::new(0, 0)
        }
        fn expand(&self, _: &TaskSpec) -> Expansion {
            Expansion::Leaf(0)
        }
        fn combine(&self, _: &TaskSpec, acc: i64, _: i64) -> i64 {
            acc
        }
    }

    /// Places nothing and reacts to nothing: the tests drive the machine.
    struct Idle;

    impl Strategy for Idle {
        fn name(&self) -> &'static str {
            "idle"
        }
        fn on_goal_created(&mut self, _: &mut crate::Core, _: PeId, _: GoalMsg) {}
        fn on_goal_message(&mut self, _: &mut crate::Core, _: PeId, _: GoalMsg) {}
    }

    /// What the [`Mailbox`] saw: `("goal", time, pe, goal id)` per
    /// arrival, and `("view", time, pe, load)` per timer, with `load` the
    /// PE's view of its goal's target right after forwarding it.
    type Log = Arc<Mutex<Vec<(&'static str, u64, u32, u64)>>>;

    /// Records arriving goals and drops them; a timer with tag `n` forwards
    /// a fresh goal to PE `n`.
    struct Mailbox(Log);

    impl Strategy for Mailbox {
        fn name(&self) -> &'static str {
            "mailbox"
        }
        fn on_goal_created(&mut self, _: &mut crate::Core, _: PeId, _: GoalMsg) {}
        fn on_goal_message(&mut self, core: &mut crate::Core, pe: PeId, goal: GoalMsg) {
            let t = core.now().units();
            self.0.lock().unwrap().push(("goal", t, pe.0, goal.id.0));
        }
        fn on_timer(&mut self, core: &mut crate::Core, pe: PeId, tag: u64) {
            let to = PeId(tag as u32);
            core.forward_goal(pe, to, goal(100 + tag));
            let t = core.now().units();
            let view = core.known_load_of(pe, to) as u64;
            self.0.lock().unwrap().push(("view", t, pe.0, view));
        }
    }

    fn goal(id: u64) -> GoalMsg {
        GoalMsg {
            id: GoalId(id),
            spec: TaskSpec::new(0, 0),
            parent: None,
            hops: 0,
            direct: false,
            created_at: 0,
        }
    }

    fn machine(topo: Topology, load_info: LoadInfoMode) -> Machine {
        let config = MachineConfig {
            load_info,
            ..MachineConfig::default()
        };
        machine_with(topo, config, Box::new(Idle))
    }

    fn machine_with(topo: Topology, config: MachineConfig, strategy: Box<dyn Strategy>) -> Machine {
        Machine::new(topo, Box::new(Leaf), strategy, CostModel::unit(), config).unwrap()
    }

    /// A ring of four under [`Mailbox`], broadcasting on demand only, with
    /// the fault plan `plan` armed.
    fn mailbox_ring(plan: &str) -> (Machine, Log) {
        let log = Log::default();
        let config = MachineConfig {
            load_info: LoadInfoMode::Piggyback { period: 0 },
            fault_plan: plan.parse().unwrap(),
            ..MachineConfig::default()
        };
        let mut m = machine_with(ring(4), config, Box::new(Mailbox(log.clone())));
        m.begin();
        (m, log)
    }

    /// Queue `n` goals on `pe` without starting them, so its load is `n`.
    fn set_load(m: &mut Machine, pe: PeId, n: u32) {
        for i in 0..n {
            let goal = GoalMsg {
                id: GoalId(((pe.0 as u64) << 32) | i as u64),
                spec: TaskSpec::new(0, 0),
                parent: None,
                hops: 0,
                direct: false,
                created_at: 0,
            };
            m.core.pe_mut(pe).enqueue(WorkItem::Goal(goal));
        }
        assert_eq!(m.core.load(pe), n);
    }

    #[test]
    fn a_unicast_on_a_bus_updates_every_members_table() {
        let mut m = machine(
            double_lattice_mesh(5, 10, 10),
            LoadInfoMode::Piggyback { period: 0 },
        );
        let from = PeId(0);
        let first = m.core.topo.neighbors(from)[0];
        let members = m.core.topo.channel_members(first.channel).to_vec();
        assert_eq!(members.len(), 6, "a span-5 bus has six members");
        set_load(&mut m, from, 3);
        let others = || members.iter().copied().filter(|&p| p != from);
        assert!(others().all(|p| m.core.known_load_of(p, from) == 0));
        m.core
            .send_control(from, first.pe, ControlMsg { tag: 0, value: 0 });
        m.advance_until(None).unwrap();
        for p in others() {
            assert_eq!(m.core.known_load_of(p, from), 3, "{p}");
        }
    }

    #[test]
    fn one_broadcast_round_leaves_every_table_equal_to_the_neighbours_loads() {
        let period = 1000;
        let mut m = machine(
            double_lattice_mesh(5, 10, 10),
            LoadInfoMode::Piggyback { period },
        );
        let n = m.core.num_pes() as u32;
        for pe in 0..n {
            set_load(&mut m, PeId(pe), pe % 7 + 1);
        }
        // Every PE broadcasts once in [0, n) and the round drains long
        // before the second one starts at `period`.
        m.arm_load_broadcasts();
        m.advance_until(Some(period)).unwrap();
        for pe in (0..n).map(PeId) {
            for (i, nb) in m.core.topo.neighbors(pe).iter().enumerate() {
                let load = m.core.load(nb.pe);
                assert_eq!(m.core.pe(pe).known_load(i), load, "{pe} -> {}", nb.pe);
                assert_eq!(m.core.known_load_of(pe, nb.pe), load);
            }
        }
    }

    /// At t = 0 PE 0 broadcasts its load word (0) and forwards a goal to
    /// PE 1; at t = 1 a timer on PE 1 forwards a goal back to PE 0, ahead
    /// of the word's completion at t = 1 (PE events precede channel events
    /// of the same instant). Unless `sent`, every table already holds the
    /// word, so the word on the link to PE 1 is silent.
    fn goals_behind_a_load_word(sent: bool) -> (Machine, Log) {
        let (mut m, log) = word_on_the_link(sent, "none");
        m.core.forward_goal(PeId(0), PeId(1), goal(1));
        let link = m.core.topo.channel_between(PeId(0), PeId(1)).unwrap();
        let c = m.core.channel(link);
        assert_eq!(c.silent, !sent, "the word stays silent");
        assert_eq!(c.backlog.len(), 1, "the goal queues behind the word");
        (m, log)
    }

    /// PE 0 broadcasts its load word at t = 0, and a timer on PE 1 forwards
    /// a goal to PE 0 at t = 1.
    fn word_on_the_link(sent: bool, plan: &str) -> (Machine, Log) {
        let (mut m, log) = mailbox_ring(plan);
        if sent {
            // PE 1 holds another word for PE 0: the word must be sent.
            m.core.pe_mut(PeId(1)).known_load.fill(9);
        }
        m.core.broadcast_packet(PeId(0), Packet::LoadUpdate);
        let link = m.core.topo.channel_between(PeId(0), PeId(1)).unwrap();
        assert_eq!(m.core.channel(link).silent, !sent);
        m.core.set_timer(PeId(1), 1, 0);
        (m, log)
    }

    /// The goal arrivals in `log`: `(time, pe, goal id)`.
    fn goals(log: &Log) -> Vec<(u64, u32, u64)> {
        let log = log.lock().unwrap();
        log.iter()
            .filter(|e| e.0 == "goal")
            .map(|&(_, t, pe, id)| (t, pe, id))
            .collect()
    }

    #[test]
    fn goals_queue_behind_a_silent_word_as_behind_a_sent_one() {
        let (mut silent, silent_log) = goals_behind_a_load_word(false);
        let (mut sent, sent_log) = goals_behind_a_load_word(true);
        silent.advance_until(None).unwrap();
        sent.advance_until(None).unwrap();
        // The word completes at 1; the first goal follows it (1..2), the
        // second waits for the first (2..3).
        assert_eq!(goals(&silent_log), [(2, 1, 1), (3, 0, 100)]);
        assert_eq!(goals(&sent_log), goals(&silent_log));
        assert_eq!(silent.core.traffic, sent.core.traffic);
        assert_eq!(silent.events_processed(), sent.events_processed());
        let words = silent.core.silent.counts;
        assert_eq!((words.sent, words.silent), (2, 2));
        // The goal from PE 1 bumped its view of PE 0: that word woke.
        assert_eq!(words.woken, 1);
        for (a, b) in silent.core.channels.iter().zip(sent.core.channels.iter()) {
            assert_eq!(a.1.transfers, b.1.transfers);
            assert_eq!(
                a.1.busy.busy_time(silent.core.now()),
                b.1.busy.busy_time(sent.core.now())
            );
        }
    }

    #[test]
    fn an_optimistic_bump_inside_the_window_is_overwritten_at_completion() {
        // No goal from PE 0 this time: only the word writes PE 1's view of
        // PE 0.
        let (mut m, log) = word_on_the_link(false, "none");
        m.advance_until(None).unwrap();
        assert_eq!(goals(&log), [(2, 0, 100)]);
        // The timer at t = 1 saw its own bump of PE 0 (0 -> 1); the word's
        // completion later that instant wrote PE 0's word back.
        let views: Vec<_> = log
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.0 == "view")
            .copied()
            .collect();
        assert_eq!(views, [("view", 1, 1, 1)]);
        assert_eq!(m.core.known_load_of(PeId(1), PeId(0)), 0);
    }

    #[test]
    fn a_link_window_wakes_the_word_and_holds_the_goals_behind_it() {
        // The link to PE 1 is down over [1, 5): the word completes while it
        // is down, so nothing behind it may start before 5.
        let plan = |m: &Machine| m.core.topo.channel_between(PeId(0), PeId(1)).unwrap().0;
        let probe = mailbox_ring("none").0;
        let spec = format!("link:{}@1..5", plan(&probe));
        let run = |sent: bool| {
            let (mut m, log) = word_on_the_link(sent, &spec);
            m.core.forward_goal(PeId(0), PeId(1), goal(1));
            m.advance_until(None).unwrap();
            (m, log)
        };
        let (silent, silent_log) = run(false);
        let (sent, sent_log) = run(true);
        assert_eq!(goals(&silent_log), [(6, 1, 1), (7, 0, 100)]);
        assert_eq!(goals(&sent_log), goals(&silent_log));
        assert_eq!(silent.core.traffic, sent.core.traffic);
        assert_eq!(silent.events_processed(), sent.events_processed());
        let words = silent.core.silent.counts;
        assert_eq!((words.silent, words.woken), (2, 1));
    }

    /// A machine whose strategy drops the root goal, broadcasting every
    /// `period`: nearly every word goes to neighbours that hold it.
    fn idle_broadcaster(config: impl FnOnce(&mut MachineConfig)) -> Machine {
        let mut cfg = MachineConfig {
            load_info: LoadInfoMode::Piggyback { period: 7 },
            progress_window: 300,
            ..MachineConfig::default()
        };
        config(&mut cfg);
        let mut m = machine_with(
            oracle_topo::mesh::mesh2d(4, 4, false),
            cfg,
            Box::new(Broadcaster),
        );
        m.begin();
        m
    }

    /// [`Idle`], but reading neighbour loads, so broadcasts are armed.
    struct Broadcaster;

    impl Strategy for Broadcaster {
        fn name(&self) -> &'static str {
            "broadcaster"
        }
        fn needs_load_broadcast(&self) -> bool {
            true
        }
        fn on_goal_created(&mut self, _: &mut crate::Core, _: PeId, _: GoalMsg) {}
        fn on_goal_message(&mut self, _: &mut crate::Core, _: PeId, _: GoalMsg) {}
    }

    /// The same run with every word queued: a plan that may lose messages
    /// (with a probability that never fires) makes no word silent.
    fn queued_words(cfg: &mut MachineConfig) {
        cfg.fault_plan.message_loss = 1e-15;
    }

    #[test]
    fn a_machine_of_silent_words_stalls_when_every_word_queued_would() {
        let mut silent = idle_broadcaster(|_| {});
        let mut queued = idle_broadcaster(queued_words);
        let err = silent.advance_until(None).unwrap_err();
        assert!(matches!(err, SimError::Stalled { .. }), "{err:?}");
        assert_eq!(err, queued.advance_until(None).unwrap_err());
        assert_eq!(silent.events_processed(), queued.events_processed());
        let words = silent.core.silent.counts;
        assert!(
            (words.silent - words.woken) * 10 > words.sent * 6,
            "{words:?}"
        );
        assert_eq!(queued.core.silent.counts.silent, 0);
    }

    #[test]
    fn an_event_limit_falls_on_the_same_event_and_instant() {
        for limit in [97, 500, 1_001] {
            let cap = |cfg: &mut MachineConfig| {
                cfg.max_events = limit;
                cfg.progress_window = 1_000_000;
            };
            let mut silent = idle_broadcaster(cap);
            let mut queued = idle_broadcaster(|cfg| {
                cap(cfg);
                queued_words(cfg);
            });
            let err = silent.advance_until(None).unwrap_err();
            assert!(
                matches!(err, SimError::EventLimit { events, .. } if events == limit),
                "{err:?}"
            );
            assert_eq!(err, queued.advance_until(None).unwrap_err());
        }
    }

    #[test]
    fn a_snapshot_behind_a_silent_word_resumes_identically() {
        let (mut straight, straight_log) = goals_behind_a_load_word(false);
        let (mut paused, _) = goals_behind_a_load_word(false);
        let bytes = paused.snapshot_bytes();
        let link = paused.core.topo.channel_between(PeId(0), PeId(1)).unwrap();
        let c = paused.core.channel(link);
        assert!(
            !c.silent && !c.successor_queued,
            "the snapshot woke the word"
        );
        // Restored instead of begun.
        let resumed_log = Log::default();
        let config = MachineConfig {
            load_info: LoadInfoMode::Piggyback { period: 0 },
            ..MachineConfig::default()
        };
        let mut resumed = machine_with(ring(4), config, Box::new(Mailbox(resumed_log.clone())));
        resumed.restore_bytes(&bytes).unwrap();
        assert_eq!(resumed.snapshot_bytes(), bytes);
        straight.advance_until(None).unwrap();
        paused.advance_until(None).unwrap();
        resumed.advance_until(None).unwrap();
        let reports = [&straight, &paused, &resumed]
            .map(|m| (m.core.traffic, m.events_processed(), m.core.now()));
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
        assert_eq!(
            straight_log.lock().unwrap().as_slice(),
            resumed_log.lock().unwrap().as_slice()
        );
    }

    #[test]
    fn instant_reads_ignore_the_tables() {
        let mut m = machine(ring(4), LoadInfoMode::Instant);
        let pe = PeId(0);
        set_load(&mut m, PeId(1), 5);
        set_load(&mut m, PeId(3), 2);
        // Stale words that contradict the true loads.
        m.core.pe_mut(pe).known_load.fill(9);
        assert_eq!(m.core.known_load_of(pe, PeId(1)), 5);
        assert_eq!(m.core.known_load_of(pe, PeId(3)), 2);
        assert_eq!(m.core.min_known_neighbor_load(pe), 2);
        assert_eq!(m.core.most_loaded_neighbor(pe), Some((PeId(1), 5)));
        assert_eq!(m.core.least_loaded_neighbor(pe, None), Some((PeId(3), 2)));
        // The same machine reading piggy-backed words sees the tables.
        m.core.config.load_info = LoadInfoMode::Piggyback { period: 0 };
        assert_eq!(m.core.known_load_of(pe, PeId(1)), 9);
        assert_eq!(m.core.min_known_neighbor_load(pe), 9);
    }
}
