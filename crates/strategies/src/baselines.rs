//! Baseline placement policies used to calibrate the two competitors.
//!
//! * [`KeepLocal`] — no distribution at all: everything runs on the PE that
//!   created it (which, transitively, is the root PE). The floor.
//! * [`RandomWalk`] — each goal takes `walk_hops` uniformly random hops and
//!   is accepted where it lands: load-oblivious diffusion.
//! * [`RoundRobin`] — each PE scatters its goals over its neighbours in
//!   cyclic order: deterministic load-oblivious diffusion.

use oracle_des::snapshot::{SnapReader, SnapWriter};
use oracle_model::{Core, GoalMsg, Strategy};
use oracle_topo::PeId;

/// Keep every goal on its creating PE (no load distribution).
#[derive(Debug, Clone, Default)]
pub struct KeepLocal;

impl Strategy for KeepLocal {
    fn name(&self) -> &'static str {
        "local"
    }

    fn needs_load_broadcast(&self) -> bool {
        false
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        core.accept_goal(pe, goal);
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        // Only possible for directed transfers; accept them.
        core.accept_goal(pe, goal);
    }
}

/// Send each goal on a random walk of `walk_hops` hops, then accept it.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    walk_hops: u32,
}

impl RandomWalk {
    /// A random walk of `walk_hops` hops per goal (0 degenerates to
    /// keep-local).
    pub fn new(walk_hops: u32) -> Self {
        RandomWalk { walk_hops }
    }

    fn step(&self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        let degree = core.topology().degree(pe);
        debug_assert!(degree > 0, "PE with no neighbours");
        let pick = core.rng(pe).below(degree as u64) as usize;
        let to = core.topology().neighbors(pe)[pick].pe;
        core.forward_goal(pe, to, goal);
    }
}

impl Strategy for RandomWalk {
    fn name(&self) -> &'static str {
        "random-walk"
    }

    fn needs_load_broadcast(&self) -> bool {
        false
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        if self.walk_hops == 0 {
            core.accept_goal(pe, goal);
        } else {
            self.step(core, pe, goal);
        }
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        if goal.direct || goal.hops >= self.walk_hops {
            core.accept_goal(pe, goal);
        } else {
            self.step(core, pe, goal);
        }
    }
}

/// Scatter each PE's goals over its neighbours in cyclic order; goals are
/// accepted after one hop.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: Vec<u32>,
}

impl RoundRobin {
    /// A fresh round-robin scatterer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Strategy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn needs_load_broadcast(&self) -> bool {
        false
    }

    fn init(&mut self, core: &mut Core) {
        self.next = vec![0; core.num_pes()];
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        let degree = core.topology().degree(pe) as u32;
        debug_assert!(degree > 0, "PE with no neighbours");
        let slot = self.next[pe.idx()] % degree;
        self.next[pe.idx()] = self.next[pe.idx()].wrapping_add(1);
        let to = core.topology().neighbors(pe)[slot as usize].pe;
        core.forward_goal(pe, to, goal);
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        core.accept_goal(pe, goal);
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(self.next.len());
        for &n in &self.next {
            w.u32(n);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8], core: &Core) -> Result<(), String> {
        let bad = |e| format!("corrupt `round-robin` snapshot payload: {e}");
        let mut r = SnapReader::new(bytes);
        let n = r.usize().map_err(bad)?;
        if n != core.num_pes() {
            return Err(format!(
                "`round-robin` snapshot covers {n} PEs but this machine has {}",
                core.num_pes()
            ));
        }
        let mut next = Vec::with_capacity(n);
        for _ in 0..n {
            next.push(r.u32().map_err(bad)?);
        }
        r.finish().map_err(bad)?;
        self.next = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_fib;
    use oracle_model::MachineConfig;
    use oracle_topo::{mesh::mesh2d, misc::ring};

    #[test]
    fn keep_local_runs_everything_on_root() {
        let r = run_fib(ring(5), Box::new(KeepLocal), 10, MachineConfig::default());
        assert_eq!(r.avg_goal_distance, 0.0);
        assert!(r.per_pe_utilization[1..].iter().all(|&u| u == 0.0));
        // Utilization of a 5-PE machine doing sequential work ≈ 1/5.
        assert!(r.avg_utilization < 0.25);
    }

    #[test]
    fn random_walk_travels_exactly_walk_hops() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(RandomWalk::new(3)),
            12,
            MachineConfig::default(),
        );
        assert_eq!(r.hop_histogram.len(), 4);
        assert_eq!(&r.hop_histogram[..3], &[0, 0, 0]);
        assert_eq!(r.avg_goal_distance, 3.0);
    }

    #[test]
    fn random_walk_spreads_work() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(RandomWalk::new(3)),
            14,
            MachineConfig::default(),
        );
        // A 3-hop walk from a corner-rooted tree cannot cover the whole
        // mesh evenly, but most PEs should see real work.
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.05).count();
        assert!(active >= 9, "random walk reached only {active} PEs");
    }

    #[test]
    fn round_robin_cycles_neighbours() {
        let r = run_fib(
            ring(6),
            Box::new(RoundRobin::new()),
            12,
            MachineConfig::default(),
        );
        assert_eq!(r.avg_goal_distance, 1.0);
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.0).count();
        assert!(active >= 3);
    }

    #[test]
    fn zero_hop_walk_is_local() {
        let r = run_fib(
            ring(4),
            Box::new(RandomWalk::new(0)),
            8,
            MachineConfig::default(),
        );
        assert_eq!(r.avg_goal_distance, 0.0);
    }
}
