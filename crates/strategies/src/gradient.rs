//! The Gradient Model (Lin & Keller), as described in the paper's §2.2.
//!
//! "Whenever a subgoal is generated, it is simply entered in the local
//! queue. A separate, asynchronous process exists for the load-balancing
//! functions. This process wakes up periodically, and computes the load on
//! the PE … If the load is below the low-water-mark, the state is idle. If
//! the load is above the high-water-mark, the state is abundant; otherwise,
//! it is neutral. It then computes its proximity. An idle node has a 0
//! proximity. For all other nodes, the proximity is one more than the
//! smallest proximity among the immediate neighbors. If the calculated
//! proximity is more than network diameter, then it is set to (network
//! diameter + 1) … If the proximity so calculated is different than the old
//! value, then it is broadcast to all the neighbors. All the PEs initially
//! assume that the proximities of their neighbors are 0. … If the state is
//! abundant, it sends a goal message from the local queue to the neighbor
//! with least proximity."
//!
//! Work export is demand-driven, per the paper's own rationale: "the work is
//! kept locally, and sent out only when the presence of an idle node is
//! inferred" — an abundant PE only exports when the least neighbour
//! proximity is at most the diameter (`require_demand`, on by default; turn
//! off for the literal-unconditional ablation).

use oracle_des::snapshot::{SnapReader, SnapWriter};
use oracle_model::{ControlMsg, Core, GoalMsg, Strategy, StrategyState};
use oracle_topo::PeId;

use crate::util::neighbor_index;

/// Control-message tag for proximity updates.
const TAG_PROXIMITY: u8 = 1;
/// Timer tag for the gradient process's periodic wakeup.
const TIMER_CYCLE: u64 = 1;

/// Parameters of the Gradient Model: "the low-water-mark, the
/// high-water-mark, and the sleeping interval between two execution cycles
/// of the gradient process."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradientParams {
    /// Below this load a PE is idle.
    pub low_water_mark: u32,
    /// Above this load a PE is abundant.
    pub high_water_mark: u32,
    /// Sleep between gradient-process cycles, in time units.
    pub interval: u64,
    /// Stagger each PE's first wakeup randomly within one interval (avoids
    /// artificial lock-step synchrony among the asynchronous processes).
    pub stagger: bool,
    /// Export work only when an idle node is inferred (least neighbour
    /// proximity ≤ diameter). The paper's rationale; disable to ablate.
    pub require_demand: bool,
}

impl GradientParams {
    /// Table 1's parameters for the grid topologies.
    pub fn paper_grid() -> Self {
        GradientParams {
            low_water_mark: 1,
            high_water_mark: 2,
            interval: 20,
            stagger: true,
            require_demand: true,
        }
    }

    /// Table 1's parameters for the double-lattice-meshes.
    pub fn paper_dlm() -> Self {
        GradientParams {
            high_water_mark: 1,
            ..Self::paper_grid()
        }
    }
}

/// Per-PE state of the gradient process.
#[derive(Debug, Clone)]
struct GmPe {
    /// Own last-broadcast proximity.
    proximity: u32,
    /// Last received proximity of each neighbour (indexed like the
    /// topology's neighbour list); "all the PEs initially assume that the
    /// proximities of their neighbors are 0".
    neighbor_prox: Vec<u32>,
}

/// The Gradient Model strategy.
#[derive(Debug, Clone)]
pub struct GradientModel {
    params: GradientParams,
    state: Vec<GmPe>,
}

impl GradientModel {
    /// Gradient Model with the given parameters.
    pub fn new(params: GradientParams) -> Self {
        assert!(
            params.low_water_mark <= params.high_water_mark,
            "low-water-mark must not exceed high-water-mark"
        );
        assert!(params.interval > 0, "gradient interval must be positive");
        GradientModel {
            params,
            state: Vec::new(),
        }
    }

    /// Convenience constructor.
    pub fn with(lwm: u32, hwm: u32, interval: u64) -> Self {
        GradientModel::new(GradientParams {
            low_water_mark: lwm,
            high_water_mark: hwm,
            interval,
            stagger: true,
            require_demand: true,
        })
    }

    /// One cycle of the gradient process on `pe`.
    fn gradient_cycle(&mut self, core: &mut Core, pe: PeId) {
        let load = core.load(pe);
        let cap = core.diameter() + 1;

        // Proximity: 0 when idle, else 1 + min neighbour proximity, capped.
        let st = &self.state[pe.idx()];
        let min_nbr_prox = st.neighbor_prox.iter().copied().min().unwrap_or(cap);
        let new_prox = if load < self.params.low_water_mark {
            0
        } else {
            (min_nbr_prox.saturating_add(1)).min(cap)
        };
        if new_prox != st.proximity {
            self.state[pe.idx()].proximity = new_prox;
            core.broadcast_control(
                pe,
                ControlMsg {
                    tag: TAG_PROXIMITY,
                    value: new_prox as i64,
                },
            );
        }

        // Abundant PEs push one goal toward the nearest inferred idle PE.
        // Dead or cut-off neighbours never receive exports: their proximity
        // was pinned past the diameter in on_neighbor_down, and the
        // reachability check below covers the race before that hook fires.
        if load > self.params.high_water_mark {
            let st = &self.state[pe.idx()];
            let mut best: Option<(PeId, u32)> = None;
            for (i, n) in core.topology().neighbors(pe).iter().enumerate() {
                if !core.neighbor_reachable(pe, n.pe) {
                    continue;
                }
                let prox = st.neighbor_prox[i];
                match best {
                    Some((_, b)) if b <= prox => {}
                    _ => best = Some((n.pe, prox)),
                }
            }
            if let Some((to, prox)) = best {
                let demand_seen = !self.params.require_demand || prox <= core.diameter();
                if demand_seen {
                    if let Some(goal) = core.take_newest_goal(pe) {
                        core.forward_goal(pe, to, goal);
                    }
                }
            }
        }

        core.set_timer(pe, self.params.interval, TIMER_CYCLE);
    }
}

impl Strategy for GradientModel {
    fn name(&self) -> &'static str {
        "gradient"
    }

    fn needs_load_broadcast(&self) -> bool {
        false // GM maintains its own proximity field instead.
    }

    fn init(&mut self, core: &mut Core) {
        let n = core.num_pes();
        self.state = (0..n)
            .map(|i| GmPe {
                proximity: 0,
                neighbor_prox: vec![0; core.topology().degree(PeId(i as u32))],
            })
            .collect();
        for i in 0..n as u32 {
            let delay = if self.params.stagger {
                core.rng(PeId(i)).below(self.params.interval)
            } else {
                self.params.interval
            };
            core.set_timer(PeId(i), delay.max(1), TIMER_CYCLE);
        }
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        // "Whenever a subgoal is generated, it is simply entered in the
        // local queue."
        core.accept_goal(pe, goal);
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        // "Any PE that receives a goal message from its neighbor just adds
        // it to its queue." (It may be re-exported on a later cycle.)
        core.accept_goal(pe, goal);
    }

    fn on_control(&mut self, core: &mut Core, pe: PeId, from: PeId, msg: ControlMsg) {
        if msg.tag == TAG_PROXIMITY {
            if let Some(idx) = neighbor_index(core, pe, from) {
                self.state[pe.idx()].neighbor_prox[idx] = msg.value as u32;
            }
        }
    }

    fn on_timer(&mut self, core: &mut Core, pe: PeId, tag: u64) {
        if tag == TIMER_CYCLE {
            self.gradient_cycle(core, pe);
        }
    }

    fn on_neighbor_down(&mut self, core: &mut Core, pe: PeId, down: PeId) {
        // The stale proximity of a dead neighbour is a phantom demand
        // signal: pin it past the cap so the gradient stops pointing there.
        if let Some(idx) = neighbor_index(core, pe, down) {
            self.state[pe.idx()].neighbor_prox[idx] = core.diameter() + 1;
        }
    }

    fn on_neighbor_up(&mut self, core: &mut Core, pe: PeId, up: PeId) {
        // Back to the initial assumption ("proximities of their neighbors
        // are 0") until the neighbour's next real update arrives.
        if let Some(idx) = neighbor_index(core, pe, up) {
            self.state[pe.idx()].neighbor_prox[idx] = 0;
        }
    }

    fn snapshot_state(&self) -> StrategyState {
        let mut w = SnapWriter::new();
        w.usize(self.state.len());
        for st in &self.state {
            w.u32(st.proximity);
            w.usize(st.neighbor_prox.len());
            for &p in &st.neighbor_prox {
                w.u32(p);
            }
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
        let bad = |e| format!("corrupt `gradient` snapshot payload: {e}");
        let mut r = SnapReader::new(&state.bytes);
        let n = r.usize().map_err(bad)?;
        if n != core.num_pes() {
            return Err(format!(
                "`gradient` snapshot covers {n} PEs but this machine has {}",
                core.num_pes()
            ));
        }
        let mut restored = Vec::with_capacity(n);
        for i in 0..n {
            let proximity = r.u32().map_err(bad)?;
            let deg = r.usize().map_err(bad)?;
            let expect = core.topology().degree(PeId(i as u32));
            if deg != expect {
                return Err(format!(
                    "`gradient` snapshot lists {deg} neighbours for PE {i} \
                     but the topology gives it {expect}"
                ));
            }
            let mut neighbor_prox = Vec::with_capacity(deg);
            for _ in 0..deg {
                neighbor_prox.push(r.u32().map_err(bad)?);
            }
            restored.push(GmPe {
                proximity,
                neighbor_prox,
            });
        }
        r.finish().map_err(bad)?;
        self.state = restored;
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
    fn paper_params() {
        let g = GradientParams::paper_grid();
        assert_eq!(
            (g.low_water_mark, g.high_water_mark, g.interval),
            (1, 2, 20)
        );
        let d = GradientParams::paper_dlm();
        assert_eq!(
            (d.low_water_mark, d.high_water_mark, d.interval),
            (1, 1, 20)
        );
    }

    #[test]
    fn completes_and_spreads_some_work() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(GradientModel::new(GradientParams::paper_grid())),
            14,
            MachineConfig::default(),
        );
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.01).count();
        assert!(active > 4, "GM spread work to only {active} PEs");
        assert!(r.traffic.control_msgs > 0, "no proximity updates sent");
    }

    #[test]
    fn most_goals_stay_local() {
        // "A significant number of goals just stay at the PE they were
        // created on" — the average distance is typically below 1.
        let r = run_fib(
            mesh2d(5, 5, false),
            Box::new(GradientModel::new(GradientParams::paper_grid())),
            15,
            MachineConfig::default(),
        );
        assert!(
            r.hop_histogram[0] > r.goals_created / 3,
            "too few zero-hop goals: {:?}",
            &r.hop_histogram[..2.min(r.hop_histogram.len())]
        );
        assert!(
            r.avg_goal_distance < 2.0,
            "GM goals travelled too far on average: {}",
            r.avg_goal_distance
        );
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_fib(
                mesh2d(4, 4, false),
                Box::new(GradientModel::new(GradientParams::paper_grid())),
                12,
                MachineConfig::default().with_seed(3),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn literal_variant_without_demand_gating_still_completes() {
        // The ablation of "sent out only when the presence of an idle node
        // is inferred": abundant PEs export unconditionally.
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(GradientModel::new(GradientParams {
                require_demand: false,
                stagger: false,
                ..GradientParams::paper_grid()
            })),
            13,
            MachineConfig::default(),
        );
        assert!(r.avg_utilization > 0.05);
    }

    #[test]
    fn demand_gating_reduces_exports() {
        let run = |require_demand| {
            run_fib(
                mesh2d(4, 4, false),
                Box::new(GradientModel::new(GradientParams {
                    require_demand,
                    ..GradientParams::paper_grid()
                })),
                14,
                MachineConfig::default(),
            )
        };
        let gated = run(true);
        let literal = run(false);
        assert!(
            literal.traffic.goal_hops >= gated.traffic.goal_hops,
            "ungated GM should move at least as many goals ({} vs {})",
            literal.traffic.goal_hops,
            gated.traffic.goal_hops
        );
    }

    #[test]
    #[should_panic(expected = "low-water-mark")]
    fn inverted_watermarks_panic() {
        GradientModel::with(3, 1, 20);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        GradientModel::with(1, 2, 0);
    }
}
