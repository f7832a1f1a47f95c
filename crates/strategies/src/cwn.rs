//! Contracting Within a Neighborhood (CWN) — the paper's scheme.
//!
//! "Any time a subgoal is created on a PE, it consults this load
//! information, and sends the new goal message to its least loaded
//! neighbor. … A PE that receives such a message checks to see if the hop
//! count is equal to the allowed radius. If so, it must keep the goal for
//! processing. Otherwise it sends the goal to its least loaded neighbor
//! after adding 1 to the count. If a PE finds its own load is less than its
//! least loaded neighbors, it keeps the goal provided the message has
//! travelled a stipulated minimum hops already. Thus, a new subgoal travels
//! along the steepest load gradient to a local minimum."
//!
//! A goal, once accepted, "remains there, and is finally executed by that
//! PE. It cannot be re-sent elsewhere."

use oracle_model::{Core, GoalMsg, Strategy};
use oracle_topo::PeId;

/// Parameters of CWN: "the radius, i.e. the maximum distance a goal message
/// is allowed to travel, and the horizon, i.e. the minimum distance a goal
/// message is required to travel."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CwnParams {
    /// Maximum hops from the source; at this distance the goal must stop.
    pub radius: u32,
    /// Minimum hops before a local-minimum PE may keep the goal ("look over
    /// the horizon").
    pub horizon: u32,
    /// How "its own load is less than its least loaded neighbors" treats a
    /// tie. With `true` (the paper's strict reading) a goal on a load
    /// plateau keeps moving — which produces the paper's Table-3 spike at
    /// the radius; with `false` a plateau counts as a local minimum and the
    /// goal stops at the horizon.
    pub strict_min: bool,
}

impl CwnParams {
    /// Table 1's parameters for the grid topologies.
    pub fn paper_grid() -> Self {
        CwnParams {
            radius: 9,
            horizon: 1,
            strict_min: true,
        }
    }

    /// Table 1's parameters for the double-lattice-meshes.
    pub fn paper_dlm() -> Self {
        CwnParams {
            radius: 5,
            horizon: 1,
            strict_min: true,
        }
    }
}

/// The CWN strategy.
#[derive(Debug, Clone)]
pub struct Cwn {
    params: CwnParams,
}

impl Cwn {
    /// CWN with the given radius and horizon.
    pub fn new(params: CwnParams) -> Self {
        Cwn { params }
    }

    /// Convenience constructor (strict local-minimum test, as in the paper).
    pub fn with(radius: u32, horizon: u32) -> Self {
        Cwn::new(CwnParams {
            radius,
            horizon,
            strict_min: true,
        })
    }
}

impl Strategy for Cwn {
    fn name(&self) -> &'static str {
        "cwn"
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        // "In the interest of agility, this scheme sends every subgoal out
        // to another PE as soon as it is created." Radius 0 degenerates to
        // keep-local.
        if self.params.radius == 0 {
            core.accept_goal(pe, goal);
            return;
        }
        // With every neighbour dead or cut off, keep the goal: a wrong
        // placement beats routing work into a black hole.
        match core.least_loaded_neighbor(pe, None) {
            Some((to, _)) => core.forward_goal(pe, to, goal),
            None => core.accept_goal(pe, goal),
        }
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        // Directed transfers (used by AdaptiveCwn's redistribution) are
        // final.
        if goal.direct || goal.hops >= self.params.radius {
            core.accept_goal(pe, goal);
            return;
        }
        if goal.hops >= self.params.horizon {
            let own = core.load(pe);
            let min_nbr = core.min_known_neighbor_load(pe);
            let is_local_min = if self.params.strict_min {
                own < min_nbr
            } else {
                own <= min_nbr
            };
            if is_local_min {
                core.accept_goal(pe, goal);
                return;
            }
        }
        match core.least_loaded_neighbor(pe, None) {
            Some((to, _)) => core.forward_goal(pe, to, goal),
            None => core.accept_goal(pe, goal),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_fib;
    use oracle_model::MachineConfig;
    use oracle_topo::{mesh::mesh2d, misc::ring};

    #[test]
    fn paper_params() {
        assert_eq!(
            CwnParams::paper_grid(),
            CwnParams {
                radius: 9,
                horizon: 1,
                strict_min: true,
            }
        );
        assert_eq!(
            CwnParams::paper_dlm(),
            CwnParams {
                radius: 5,
                horizon: 1,
                strict_min: true,
            }
        );
    }

    #[test]
    fn hops_never_exceed_radius() {
        let r = run_fib(
            mesh2d(5, 5, false),
            Box::new(Cwn::with(4, 2)),
            12,
            MachineConfig::default(),
        );
        assert!(
            r.hop_histogram.len() <= 5,
            "goal travelled past the radius: {:?}",
            r.hop_histogram
        );
        // Every goal was contracted out: no goal executed at distance 0.
        assert_eq!(r.hop_histogram[0], 0);
    }

    #[test]
    fn horizon_forces_minimum_distance() {
        let r = run_fib(
            mesh2d(5, 5, false),
            Box::new(Cwn::with(6, 3)),
            12,
            MachineConfig::default(),
        );
        // No goal may stop before 3 hops (except none exist below horizon).
        assert_eq!(&r.hop_histogram[..3], &[0, 0, 0]);
        assert!(r.avg_goal_distance >= 3.0);
    }

    #[test]
    fn radius_zero_degenerates_to_local() {
        let r = run_fib(
            ring(4),
            Box::new(Cwn::with(0, 0)),
            10,
            MachineConfig::default(),
        );
        assert_eq!(r.avg_goal_distance, 0.0);
        assert_eq!(r.hop_histogram, vec![r.goals_created]);
    }

    #[test]
    fn spreads_work_across_the_machine() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(Cwn::with(6, 2)),
            14,
            MachineConfig::default(),
        );
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.05).count();
        assert!(active >= 12, "only {active}/16 PEs saw real work");
        assert!(r.avg_utilization > 0.30, "util {}", r.avg_utilization);
    }

    #[test]
    fn deterministic() {
        let a = run_fib(
            mesh2d(4, 4, false),
            Box::new(Cwn::with(6, 2)),
            12,
            MachineConfig::default().with_seed(5),
        );
        let b = run_fib(
            mesh2d(4, 4, false),
            Box::new(Cwn::with(6, 2)),
            12,
            MachineConfig::default().with_seed(5),
        );
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.hop_histogram, b.hop_histogram);
    }

    #[test]
    fn radius_spike_appears_at_radius() {
        // "The sudden rise at [the last bucket] for CWN is because [radius]
        // is the allowed radius. A message that has gone that far must stop."
        // The spike needs a loaded machine, so run the paper's fib(18).
        let r = run_fib(
            mesh2d(10, 10, false),
            Box::new(Cwn::new(CwnParams::paper_grid())),
            18,
            MachineConfig::default(),
        );
        let h = &r.hop_histogram;
        assert_eq!(h.len(), 10, "histogram should reach exactly radius 9");
        // The spike: more goals stop exactly at the radius than just before.
        assert!(h[9] > h[8], "no radius spike: {:?} (h[9] vs h[8])", &h[..]);
    }
}
