//! Neighbour-load information: how a PE learns its neighbours' loads.
//!
//! Every flight carries its sender's load word ("piggy-backed with regular
//! messages, whenever possible"); with a non-zero period each PE also
//! broadcasts a payload-free load update. A word reaches the tables only
//! through the snoop at transfer completion, at every member of the
//! channel: on a bus, members the packet is not addressed to too. The
//! tables are written under every [`LoadInfoMode`]; under
//! [`LoadInfoMode::Instant`] the reads ignore them.

use oracle_des::SimTime;
use oracle_topo::PeId;

use crate::config::LoadInfoMode;
use crate::machine::{Core, Event, Machine};
use crate::message::{Flight, FlightDest, Packet};

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
    use oracle_topo::dlm::double_lattice_mesh;
    use oracle_topo::misc::ring;
    use oracle_topo::{PeId, Topology};

    use crate::config::{LoadInfoMode, MachineConfig};
    use crate::cost::CostModel;
    use crate::machine::Machine;
    use crate::message::{ControlMsg, GoalId, GoalMsg};
    use crate::pe::WorkItem;
    use crate::program::{Expansion, Program, TaskSpec};
    use crate::strategy::Strategy;

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

    fn machine(topo: Topology, load_info: LoadInfoMode) -> Machine {
        let config = MachineConfig {
            load_info,
            ..MachineConfig::default()
        };
        Machine::new(
            topo,
            Box::new(Leaf),
            Box::new(Idle),
            CostModel::unit(),
            config,
        )
        .unwrap()
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
