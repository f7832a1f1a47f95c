//! The load-distribution strategy interface.
//!
//! A strategy is "dynamic … distributed on all of [the PEs] … each PE should
//! only use the information provided by its neighbors". The machine drives a
//! strategy through the callbacks below; the strategy acts on the machine
//! through the [`Core`] handle (accepting goals,
//! forwarding them to neighbours, exchanging control messages, setting
//! timers).
//!
//! Conservation contract: every goal handed to `on_goal_created` or
//! `on_goal_message` must eventually be either accepted on some PE or
//! forwarded to a neighbour — dropping a goal stalls the simulation (and is
//! caught by the machine's termination check).

use oracle_topo::PeId;

use crate::machine::Core;
use crate::message::{ControlMsg, GoalMsg};

/// A serializable snapshot of a strategy's mutable state, produced by
/// [`Strategy::snapshot_state`] and consumed by [`Strategy::restore_state`].
///
/// The payload is opaque to the machine: each scheme encodes its private
/// state (outstanding-bid bitmaps, proximity fields, held goals, …) with the
/// [`oracle_des::snapshot`] codec. The `name` tag guards against feeding a
/// snapshot taken from one scheme into another. Stateless strategies use the
/// empty payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrategyState {
    /// [`Strategy::name`] of the scheme the snapshot was taken from.
    pub name: String,
    /// The scheme's private state, encoded with the des snapshot codec.
    pub bytes: Vec<u8>,
}

/// A dynamic, distributed load-distribution scheme.
pub trait Strategy: Send {
    /// Short name used in reports, e.g. `"cwn"`.
    fn name(&self) -> &'static str;

    /// Whether this scheme consumes neighbour-load information. When
    /// `false`, the machine skips the periodic load-word broadcasts (the
    /// Gradient Model maintains its own proximity field instead; oblivious
    /// baselines need nothing), so a scheme is never charged channel
    /// bandwidth for information it does not read. Piggy-backed load words
    /// ride existing messages for free either way.
    fn needs_load_broadcast(&self) -> bool {
        true
    }

    /// Called once before the root goal is injected. Strategies size their
    /// per-PE state and arm initial timers here.
    fn init(&mut self, _core: &mut Core) {}

    /// A goal was just created on `pe` (by a task executing there). The
    /// strategy decides its first placement: accept locally or send to a
    /// neighbour.
    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg);

    /// A goal message arrived at `pe` from a neighbour (its `hops` field has
    /// already been incremented). The strategy decides: accept here or
    /// forward onward.
    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg);

    /// A control message from neighbour `from` arrived at `pe`.
    fn on_control(&mut self, _core: &mut Core, _pe: PeId, _from: PeId, _msg: ControlMsg) {}

    /// A timer armed with [`Core::set_timer`] fired on `pe`.
    fn on_timer(&mut self, _core: &mut Core, _pe: PeId, _tag: u64) {}

    /// `pe` transitioned from busy to idle (no executing item, empty
    /// queues). Receiver-initiated schemes react here.
    fn on_idle(&mut self, _core: &mut Core, _pe: PeId) {}

    /// `pe` lost contact with neighbour `down`: the neighbour crashed, or
    /// the link between them went down. Strategies that cache per-neighbour
    /// state (the Gradient Model's proximity field, steal targets) should
    /// invalidate it here so they stop routing work into a black hole. The
    /// machine already excludes dead neighbours from
    /// [`Core::least_loaded_neighbor`] and friends.
    fn on_neighbor_down(&mut self, _core: &mut Core, _pe: PeId, _down: PeId) {}

    /// The link between `pe` and `up` was restored (links recover; crashed
    /// PEs never do). Strategies may reset their view of the neighbour.
    fn on_neighbor_up(&mut self, _core: &mut Core, _pe: PeId, _up: PeId) {}

    /// Capture the strategy's mutable state for a checkpoint. The default
    /// (an empty payload) is correct for stateless schemes; any scheme with
    /// per-PE state **must** override this together with
    /// [`Strategy::restore_state`] or resumed runs will diverge.
    fn snapshot_state(&self) -> StrategyState {
        StrategyState {
            name: self.name().to_string(),
            bytes: Vec::new(),
        }
    }

    /// Restore state captured by [`Strategy::snapshot_state`]. Called on a
    /// freshly constructed strategy *instead of* [`Strategy::init`] — any
    /// timers or RNG draws `init` would perform already live in the
    /// snapshotted event queue and RNG state. `core` is provided read-only
    /// for sizing per-PE vectors.
    fn restore_state(&mut self, state: &StrategyState, _core: &Core) -> Result<(), String> {
        if state.name != self.name() {
            return Err(format!(
                "strategy snapshot was taken from `{}` but is being restored into `{}`",
                state.name,
                self.name()
            ));
        }
        if !state.bytes.is_empty() {
            return Err(format!(
                "strategy `{}` has no state to restore but the snapshot carries {} bytes",
                self.name(),
                state.bytes.len()
            ));
        }
        Ok(())
    }

    /// Number of goals the strategy is privately holding — goals it received
    /// via a callback but has neither accepted onto a PE queue nor forwarded
    /// into a channel yet (e.g. goals parked while probing for a placement).
    /// The invariant auditor adds this to its task-conservation identity;
    /// schemes that park goals **must** override it.
    fn goals_held(&self) -> u64 {
        0
    }
}
