//! Adaptive CWN — the paper's §5 future-work list, implemented.
//!
//! "A small, well-controlled (i.e. responsive to runtime conditions)
//! re-distribution component should be added to CWN. … CWN certainly needs
//! saturation control. When the system is running at 100% utilization,
//! there is no need to send every goal out to other PEs. … Taking future
//! commitments into account while computing the load is another suggestion.
//! … Notice that both of these amount to incorporating the good features of
//! GM in CWN. Care must be taken not to lose the agility of CWN."
//!
//! Three additions over [`crate::Cwn`]:
//!
//! 1. **Saturation control** — when the creating PE and all its neighbours
//!    are at or above `saturation` load, the goal is kept locally instead of
//!    contracted out.
//! 2. **Redistribution** — a PE that goes idle requests one queued goal
//!    from its most-loaded known neighbour (a directed, single-hop
//!    transfer; accepted goals still never move once execution is
//!    imminent — only *queued* goals are donated).
//! 3. **Future commitments** — enabled via
//!    `MachineConfig::future_commitment_weight` (the spec's builder sets it),
//!    which folds waiting tasks into every load word this strategy sees.

use oracle_des::snapshot::{SnapReader, SnapWriter};
use oracle_model::{ControlMsg, Core, GoalMsg, Strategy, StrategyState};
use oracle_topo::PeId;

use crate::cwn::CwnParams;

/// Control tag: idle PE requesting one goal.
const TAG_REDIST_REQ: u8 = 4;
/// Control tag: nothing to donate.
const TAG_REDIST_DENY: u8 = 5;
/// Timer tag for redistribution retry.
const TIMER_RETRY: u64 = 3;

/// Parameters of Adaptive CWN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcwnParams {
    /// The underlying CWN radius/horizon.
    pub cwn: CwnParams,
    /// Saturation threshold: keep goals local when own load and all known
    /// neighbour loads reach this value (0 disables saturation control).
    pub saturation: u32,
    /// Enable the idle-PE redistribution component.
    pub redistribute: bool,
    /// Backoff before an idle PE retries a denied redistribution request.
    pub retry_delay: u64,
}

impl AcwnParams {
    /// Defaults layered on the paper's grid CWN parameters.
    pub fn paper_grid() -> Self {
        AcwnParams {
            cwn: CwnParams::paper_grid(),
            saturation: 3,
            redistribute: true,
            retry_delay: 40,
        }
    }

    /// Defaults layered on the paper's DLM CWN parameters.
    pub fn paper_dlm() -> Self {
        AcwnParams {
            cwn: CwnParams::paper_dlm(),
            ..Self::paper_grid()
        }
    }
}

/// The Adaptive CWN strategy.
#[derive(Debug, Clone)]
pub struct AdaptiveCwn {
    params: AcwnParams,
    outstanding: Vec<bool>,
}

impl AdaptiveCwn {
    /// Adaptive CWN with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `retry_delay == 0` while redistribution is enabled.
    pub fn new(params: AcwnParams) -> Self {
        assert!(
            !params.redistribute || params.retry_delay > 0,
            "retry_delay must be positive when redistribution is enabled"
        );
        AdaptiveCwn {
            params,
            outstanding: Vec::new(),
        }
    }

    /// True when the neighbourhood is saturated and the goal should stay.
    fn saturated(&self, core: &Core, pe: PeId) -> bool {
        self.params.saturation > 0
            && core.load(pe) >= self.params.saturation
            && core.min_known_neighbor_load(pe) >= self.params.saturation
    }

    fn request_work(&mut self, core: &mut Core, pe: PeId) {
        if self.outstanding[pe.idx()] {
            return;
        }
        // Nobody reachable is known to have queued work: try again later.
        let Some((victim, known)) = core.most_loaded_neighbor(pe) else {
            core.set_timer(pe, self.params.retry_delay, TIMER_RETRY);
            return;
        };
        if known == 0 {
            core.set_timer(pe, self.params.retry_delay, TIMER_RETRY);
            return;
        }
        self.outstanding[pe.idx()] = true;
        core.send_control(
            pe,
            victim,
            ControlMsg {
                tag: TAG_REDIST_REQ,
                value: 0,
            },
        );
    }
}

impl Strategy for AdaptiveCwn {
    fn name(&self) -> &'static str {
        "adaptive-cwn"
    }

    fn init(&mut self, core: &mut Core) {
        self.outstanding = vec![false; core.num_pes()];
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        if self.params.cwn.radius == 0 || self.saturated(core, pe) {
            core.accept_goal(pe, goal);
            return;
        }
        match core.least_loaded_neighbor(pe, None) {
            Some((to, _)) => core.forward_goal(pe, to, goal),
            None => core.accept_goal(pe, goal),
        }
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        if goal.direct {
            self.outstanding[pe.idx()] = false;
            core.accept_goal(pe, goal);
            return;
        }
        if goal.hops >= self.params.cwn.radius {
            core.accept_goal(pe, goal);
            return;
        }
        if goal.hops >= self.params.cwn.horizon && core.load(pe) < core.min_known_neighbor_load(pe)
        {
            core.accept_goal(pe, goal);
            return;
        }
        // Saturation control applies in transit too: a saturated
        // neighbourhood keeps the goal rather than bouncing it around.
        if self.saturated(core, pe) && goal.hops >= self.params.cwn.horizon {
            core.accept_goal(pe, goal);
            return;
        }
        match core.least_loaded_neighbor(pe, None) {
            Some((to, _)) => core.forward_goal(pe, to, goal),
            None => core.accept_goal(pe, goal),
        }
    }

    fn on_control(&mut self, core: &mut Core, pe: PeId, from: PeId, msg: ControlMsg) {
        match msg.tag {
            TAG_REDIST_REQ => match core.take_oldest_goal(pe) {
                Some(mut goal) => {
                    goal.direct = true;
                    core.forward_goal(pe, from, goal);
                }
                None => core.send_control(
                    pe,
                    from,
                    ControlMsg {
                        tag: TAG_REDIST_DENY,
                        value: 0,
                    },
                ),
            },
            TAG_REDIST_DENY => {
                self.outstanding[pe.idx()] = false;
                if core.load(pe) == 0 {
                    core.set_timer(pe, self.params.retry_delay, TIMER_RETRY);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, core: &mut Core, pe: PeId, tag: u64) {
        if tag == TIMER_RETRY && self.params.redistribute && core.load(pe) == 0 {
            self.request_work(core, pe);
        }
    }

    fn on_idle(&mut self, core: &mut Core, pe: PeId) {
        if self.params.redistribute {
            self.request_work(core, pe);
        }
    }

    fn snapshot_state(&self) -> StrategyState {
        let mut w = SnapWriter::new();
        w.usize(self.outstanding.len());
        for &b in &self.outstanding {
            w.bool(b);
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
        let bad = |e| format!("corrupt `adaptive-cwn` snapshot payload: {e}");
        let mut r = SnapReader::new(&state.bytes);
        let n = r.usize().map_err(bad)?;
        if n != core.num_pes() {
            return Err(format!(
                "`adaptive-cwn` snapshot covers {n} PEs but this machine has {}",
                core.num_pes()
            ));
        }
        let mut outstanding = Vec::with_capacity(n);
        for _ in 0..n {
            outstanding.push(r.bool().map_err(bad)?);
        }
        r.finish().map_err(bad)?;
        self.outstanding = outstanding;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_fib;
    use oracle_model::MachineConfig;
    use oracle_topo::mesh::mesh2d;

    fn acwn_config() -> MachineConfig {
        MachineConfig {
            future_commitment_weight: 1,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn completes_and_spreads_work() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(AdaptiveCwn::new(AcwnParams {
                cwn: CwnParams {
                    radius: 6,
                    horizon: 2,
                    strict_min: true,
                },
                ..AcwnParams::paper_grid()
            })),
            14,
            acwn_config(),
        );
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.05).count();
        assert!(active >= 12, "ACWN reached only {active}/16 PEs");
    }

    #[test]
    fn saturation_keeps_some_goals_local() {
        // Plain CWN keeps nothing at hop 0; ACWN with saturation does once
        // the machine fills up.
        let r = run_fib(
            mesh2d(3, 3, false),
            Box::new(AdaptiveCwn::new(AcwnParams {
                cwn: CwnParams {
                    radius: 4,
                    horizon: 1,
                    strict_min: true,
                },
                saturation: 2,
                redistribute: false,
                retry_delay: 40,
            })),
            14,
            acwn_config(),
        );
        assert!(
            r.hop_histogram[0] > 0,
            "saturation control never kept a goal local: {:?}",
            r.hop_histogram
        );
    }

    #[test]
    fn saturation_cuts_communication() {
        let plain = run_fib(
            mesh2d(3, 3, false),
            Box::new(crate::Cwn::with(4, 1)),
            14,
            MachineConfig::default(),
        );
        let adaptive = run_fib(
            mesh2d(3, 3, false),
            Box::new(AdaptiveCwn::new(AcwnParams {
                cwn: CwnParams {
                    radius: 4,
                    horizon: 1,
                    strict_min: true,
                },
                saturation: 2,
                redistribute: false,
                retry_delay: 40,
            })),
            14,
            acwn_config(),
        );
        assert!(
            adaptive.traffic.goal_hops < plain.traffic.goal_hops,
            "saturation control should reduce goal traffic ({} vs {})",
            adaptive.traffic.goal_hops,
            plain.traffic.goal_hops
        );
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_fib(
                mesh2d(4, 4, false),
                Box::new(AdaptiveCwn::new(AcwnParams::paper_grid())),
                12,
                acwn_config().with_seed(9),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    #[should_panic(expected = "retry_delay")]
    fn zero_retry_with_redistribution_panics() {
        AdaptiveCwn::new(AcwnParams {
            cwn: CwnParams {
                radius: 4,
                horizon: 1,
                strict_min: true,
            },
            saturation: 0,
            redistribute: true,
            retry_delay: 0,
        });
    }
}
