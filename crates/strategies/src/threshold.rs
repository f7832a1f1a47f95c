//! Sender-initiated threshold probing (Eager, Lazowska & Zahorjan, 1986) —
//! the third classical scheme of the paper's era, restricted to
//! neighbourhoods.
//!
//! Where CWN ships *every* goal and GM ships only on inferred demand,
//! threshold probing ships only when the *sender* is loaded, and asks
//! first: a PE whose load reaches `threshold` probes a random neighbour; if
//! the neighbour's load is below the threshold it accepts the transfer,
//! otherwise the sender probes another, up to `probe_limit` tries, then
//! keeps the goal. The original algorithm probes arbitrary nodes; true to
//! the paper's locality argument (and to the machine model, whose control
//! messages are single-hop) this implementation probes neighbours only.
//!
//! The probed goal is *held at the sender* until the handshake resolves, so
//! placement is load-informed by construction — at the price of a
//! round-trip latency per transfer, which is exactly the agility trade-off
//! the paper frames CWN around.

use std::collections::HashMap;

use oracle_des::snapshot::{SnapReader, SnapWriter};
use oracle_model::snapshot::{get_goal, put_goal};
use oracle_model::{ControlMsg, Core, GoalId, GoalMsg, Strategy};
use oracle_topo::PeId;

/// Control tag: "is your load below the threshold?" (value = goal id).
const TAG_PROBE: u8 = 6;
/// Control tag: "yes — send it" (value = goal id).
const TAG_PROBE_OK: u8 = 7;
/// Control tag: "no — try elsewhere" (value = goal id).
const TAG_PROBE_REJECT: u8 = 8;

/// Parameters of threshold probing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdParams {
    /// Transfer goals away when the local load is at or above this.
    pub threshold: u32,
    /// Probes attempted per goal before keeping it.
    pub probe_limit: u32,
}

impl Default for ThresholdParams {
    fn default() -> Self {
        ThresholdParams {
            threshold: 2,
            probe_limit: 3,
        }
    }
}

/// A goal parked at its creator while its probe is outstanding.
#[derive(Debug)]
struct Pending {
    goal: GoalMsg,
    home: PeId,
    probes_left: u32,
}

/// The sender-initiated threshold-probing strategy.
#[derive(Debug)]
pub struct ThresholdProbe {
    params: ThresholdParams,
    pending: HashMap<GoalId, Pending>,
}

impl ThresholdProbe {
    /// Threshold probing with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` or `probe_limit == 0`.
    pub fn new(params: ThresholdParams) -> Self {
        assert!(params.threshold >= 1, "threshold must be at least 1");
        assert!(params.probe_limit >= 1, "probe_limit must be at least 1");
        ThresholdProbe {
            params,
            pending: HashMap::new(),
        }
    }

    fn send_probe(&mut self, core: &mut Core, pe: PeId, goal_id: GoalId) {
        let degree = core.topology().degree(pe);
        let pick = core.rng(pe).below(degree as u64) as usize;
        let to = core.topology().neighbors(pe)[pick].pe;
        core.send_control(
            pe,
            to,
            ControlMsg {
                tag: TAG_PROBE,
                value: goal_id.0 as i64,
            },
        );
    }
}

impl Strategy for ThresholdProbe {
    fn name(&self) -> &'static str {
        "threshold-probe"
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        if core.load(pe) < self.params.threshold {
            core.accept_goal(pe, goal);
            return;
        }
        let id = goal.id;
        self.pending.insert(
            id,
            Pending {
                goal,
                home: pe,
                probes_left: self.params.probe_limit,
            },
        );
        self.pending.get_mut(&id).unwrap().probes_left -= 1;
        self.send_probe(core, pe, id);
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        // Transfers arrive as directed goals; accept them.
        core.accept_goal(pe, goal);
    }

    fn on_control(&mut self, core: &mut Core, pe: PeId, from: PeId, msg: ControlMsg) {
        let goal_id = GoalId(msg.value as u64);
        match msg.tag {
            TAG_PROBE => {
                let tag = if core.load(pe) < self.params.threshold {
                    TAG_PROBE_OK
                } else {
                    TAG_PROBE_REJECT
                };
                core.send_control(
                    pe,
                    from,
                    ControlMsg {
                        tag,
                        value: msg.value,
                    },
                );
            }
            TAG_PROBE_OK => {
                if let Some(p) = self.pending.remove(&goal_id) {
                    let mut goal = p.goal;
                    goal.direct = true;
                    core.forward_goal(p.home, from, goal);
                }
            }
            TAG_PROBE_REJECT => {
                // Retry elsewhere or give up and keep the goal at home.
                let retry = match self.pending.get_mut(&goal_id) {
                    Some(p) if p.probes_left > 0 => {
                        p.probes_left -= 1;
                        true
                    }
                    Some(_) => false,
                    None => return,
                };
                if retry {
                    self.send_probe(core, pe, goal_id);
                } else if let Some(p) = self.pending.remove(&goal_id) {
                    core.accept_goal(p.home, p.goal);
                }
            }
            _ => {}
        }
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        // Sorted key order: HashMap iteration order is not deterministic,
        // snapshot bytes must be.
        let mut ids: Vec<GoalId> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        w.usize(ids.len());
        for id in ids {
            let p = &self.pending[&id];
            w.u64(id.0);
            put_goal(&mut w, &p.goal);
            w.u32(p.home.0);
            w.u32(p.probes_left);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8], core: &Core) -> Result<(), String> {
        let bad = |e| format!("corrupt `threshold-probe` snapshot payload: {e}");
        let mut r = SnapReader::new(bytes);
        // Each entry is at least a goal id, a home PE and a probe count.
        let n = r.count("pending-goal count", 16).map_err(bad)?;
        let mut pending = HashMap::with_capacity(n);
        for _ in 0..n {
            let id = GoalId(r.u64().map_err(bad)?);
            let goal = get_goal(&mut r).map_err(bad)?;
            let home = PeId(r.u32().map_err(bad)?);
            if home.idx() >= core.num_pes() {
                return Err(format!(
                    "`threshold-probe` snapshot parks a goal on PE {} \
                     but this machine has only {} PEs",
                    home.0,
                    core.num_pes()
                ));
            }
            let probes_left = r.u32().map_err(bad)?;
            pending.insert(
                id,
                Pending {
                    goal,
                    home,
                    probes_left,
                },
            );
        }
        r.finish().map_err(bad)?;
        self.pending = pending;
        Ok(())
    }

    fn goals_held(&self) -> u64 {
        // Parked goals are neither queued on a PE nor on the wire; without
        // this the auditor's task-conservation identity would not balance.
        self.pending.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_fib;
    use oracle_model::MachineConfig;
    use oracle_topo::mesh::mesh2d;

    #[test]
    fn completes_and_spreads_work() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(ThresholdProbe::new(ThresholdParams::default())),
            14,
            MachineConfig::default(),
        );
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.05).count();
        assert!(
            active >= 10,
            "threshold probing reached only {active}/16 PEs"
        );
        assert!(r.traffic.control_msgs > 0, "no probes were sent");
    }

    #[test]
    fn transfers_are_load_informed_single_hops() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(ThresholdProbe::new(ThresholdParams::default())),
            13,
            MachineConfig::default(),
        );
        // Goals either stay (0 hops, load below threshold or all probes
        // rejected) or move exactly one hop after a successful probe.
        assert!(r.hop_histogram.len() <= 2, "{:?}", r.hop_histogram);
        assert!(r.hop_histogram[0] > 0);
    }

    #[test]
    fn threshold_controls_probe_and_transfer_volume() {
        // The threshold gates both sides of the handshake: lowering it
        // makes senders probe more often but receivers accept more rarely.
        let run = |threshold| {
            run_fib(
                mesh2d(4, 4, false),
                Box::new(ThresholdProbe::new(ThresholdParams {
                    threshold,
                    probe_limit: 3,
                })),
                13,
                MachineConfig::default(),
            )
        };
        let eager = run(1);
        let lazy = run(6);
        assert!(
            eager.traffic.control_msgs > lazy.traffic.control_msgs,
            "threshold 1 should probe more ({} vs {})",
            eager.traffic.control_msgs,
            lazy.traffic.control_msgs
        );
        assert!(
            eager.traffic.goal_hops < lazy.traffic.goal_hops,
            "threshold 1 accepts more rarely ({} vs {})",
            eager.traffic.goal_hops,
            lazy.traffic.goal_hops
        );
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_fib(
                mesh2d(4, 4, false),
                Box::new(ThresholdProbe::new(ThresholdParams::default())),
                12,
                MachineConfig::default().with_seed(17),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_panics() {
        ThresholdProbe::new(ThresholdParams {
            threshold: 0,
            probe_limit: 3,
        });
    }
}
