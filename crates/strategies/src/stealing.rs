//! Receiver-initiated work stealing (context baseline).
//!
//! Not in the paper — it is the scheme that ultimately displaced both CWN
//! and the Gradient Model — but it makes a valuable third point of
//! comparison: goals stay where they are created (like GM), and *idle* PEs
//! pull work from a neighbour (where GM's abundant PEs push it).
//!
//! Protocol: an idle PE sends a steal request to one neighbour (its
//! most-loaded known neighbour, falling back to a random one when all known
//! loads are zero). A PE receiving a request donates its oldest queued goal
//! as a directed transfer, or replies with a deny. A denied thief backs off
//! `retry_delay` units and tries again while still idle.

use oracle_des::snapshot::{SnapReader, SnapWriter};
use oracle_model::{ControlMsg, Core, GoalMsg, Strategy, StrategyState};
use oracle_topo::PeId;

/// Control tag: "give me work".
pub(crate) const TAG_STEAL_REQ: u8 = 2;
/// Control tag: "I have nothing to give".
pub(crate) const TAG_STEAL_DENY: u8 = 3;
/// Timer tag for the retry backoff.
const TIMER_RETRY: u64 = 2;

/// Receiver-initiated neighbour work stealing.
#[derive(Debug, Clone)]
pub struct WorkStealing {
    retry_delay: u64,
    /// One outstanding request per PE at a time.
    outstanding: Vec<bool>,
    /// Consecutive denies per PE, for exponential backoff (capped) —
    /// without it, a mostly idle machine drowns the channels in steal
    /// requests.
    denies: Vec<u32>,
}

impl WorkStealing {
    /// Work stealing with the given deny-retry backoff.
    ///
    /// # Panics
    ///
    /// Panics if `retry_delay == 0`.
    pub fn new(retry_delay: u64) -> Self {
        assert!(retry_delay > 0, "retry_delay must be positive");
        WorkStealing {
            retry_delay,
            outstanding: Vec::new(),
            denies: Vec::new(),
        }
    }

    fn try_steal(&mut self, core: &mut Core, pe: PeId) {
        if self.outstanding[pe.idx()] {
            return;
        }
        // Prefer the most-loaded reachable neighbour; if nobody is known
        // to have work, probe a random neighbour (knowledge may be stale).
        // With every neighbour dead or cut off, stay idle and retry later.
        let Some((mut victim, known)) = core.most_loaded_neighbor(pe) else {
            core.set_timer(pe, self.retry_delay, TIMER_RETRY);
            return;
        };
        if known == 0 {
            let degree = core.topology().degree(pe);
            let pick = core.rng(pe).below(degree as u64) as usize;
            let probe = core.topology().neighbors(pe)[pick].pe;
            if core.neighbor_reachable(pe, probe) {
                victim = probe;
            }
        }
        self.outstanding[pe.idx()] = true;
        core.send_control(
            pe,
            victim,
            ControlMsg {
                tag: TAG_STEAL_REQ,
                value: 0,
            },
        );
    }
}

impl Strategy for WorkStealing {
    fn name(&self) -> &'static str {
        "work-stealing"
    }

    fn init(&mut self, core: &mut Core) {
        self.outstanding = vec![false; core.num_pes()];
        self.denies = vec![0; core.num_pes()];
        // Kick-start: every PE begins idle, and on_idle only fires on
        // busy-to-idle transitions, so arm one initial probe per PE.
        for i in 0..core.num_pes() as u32 {
            let delay = 1 + core.rng(PeId(i)).below(self.retry_delay);
            core.set_timer(PeId(i), delay, TIMER_RETRY);
        }
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        core.accept_goal(pe, goal);
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        if goal.direct {
            self.outstanding[pe.idx()] = false;
            self.denies[pe.idx()] = 0;
        }
        core.accept_goal(pe, goal);
    }

    fn on_control(&mut self, core: &mut Core, pe: PeId, from: PeId, msg: ControlMsg) {
        match msg.tag {
            TAG_STEAL_REQ => match core.take_oldest_goal(pe) {
                Some(mut goal) => {
                    goal.direct = true;
                    core.forward_goal(pe, from, goal);
                }
                None => core.send_control(
                    pe,
                    from,
                    ControlMsg {
                        tag: TAG_STEAL_DENY,
                        value: 0,
                    },
                ),
            },
            TAG_STEAL_DENY => {
                self.outstanding[pe.idx()] = false;
                let denies = &mut self.denies[pe.idx()];
                *denies = denies.saturating_add(1);
                if core.load(pe) == 0 {
                    // Gentle exponential backoff: the first couple of denies
                    // retry at the base delay, persistent failures at up to
                    // 8x — keeps the frontier responsive without letting a
                    // mostly-idle machine flood the channels with requests.
                    let backoff = self.retry_delay << denies.saturating_sub(2).min(3);
                    core.set_timer(pe, backoff, TIMER_RETRY);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, core: &mut Core, pe: PeId, tag: u64) {
        if tag == TIMER_RETRY && core.load(pe) == 0 {
            self.try_steal(core, pe);
        }
    }

    fn on_idle(&mut self, core: &mut Core, pe: PeId) {
        self.try_steal(core, pe);
    }

    fn snapshot_state(&self) -> StrategyState {
        let mut w = SnapWriter::new();
        w.usize(self.outstanding.len());
        for &b in &self.outstanding {
            w.bool(b);
        }
        for &d in &self.denies {
            w.u32(d);
        }
        StrategyState {
            name: self.name().to_string(),
            bytes: w.into_bytes(),
        }
    }

    fn restore_state(&mut self, state: &StrategyState, core: &Core) -> Result<(), String> {
        if state.name != self.name() {
            return Err(format!(
                "strategy snapshot was taken from `{}` but is being restored into `{}`",
                state.name,
                self.name()
            ));
        }
        let bad = |e| format!("corrupt `work-stealing` snapshot payload: {e}");
        let mut r = SnapReader::new(&state.bytes);
        let n = r.usize().map_err(bad)?;
        if n != core.num_pes() {
            return Err(format!(
                "`work-stealing` snapshot covers {n} PEs but this machine has {}",
                core.num_pes()
            ));
        }
        let mut outstanding = Vec::with_capacity(n);
        for _ in 0..n {
            outstanding.push(r.bool().map_err(bad)?);
        }
        let mut denies = Vec::with_capacity(n);
        for _ in 0..n {
            denies.push(r.u32().map_err(bad)?);
        }
        r.finish().map_err(bad)?;
        self.outstanding = outstanding;
        self.denies = denies;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_fib;
    use oracle_model::MachineConfig;
    use oracle_topo::mesh::mesh2d;

    #[test]
    fn steals_spread_work() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(WorkStealing::new(30)),
            14,
            MachineConfig::default(),
        );
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.05).count();
        assert!(active >= 10, "stealing reached only {active}/16 PEs");
        assert!(r.traffic.control_msgs > 0);
    }

    #[test]
    fn all_transfers_are_single_hop() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(WorkStealing::new(30)),
            12,
            MachineConfig::default(),
        );
        // Goals either stay (0 hops) or are donated one hop at a time.
        assert!(r.avg_goal_distance < 2.0);
        assert!(r.hop_histogram[0] > 0, "no goal stayed local");
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_fib(
                mesh2d(4, 4, false),
                Box::new(WorkStealing::new(25)),
                12,
                MachineConfig::default().with_seed(11),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    #[should_panic(expected = "retry_delay")]
    fn zero_retry_panics() {
        WorkStealing::new(0);
    }
}
