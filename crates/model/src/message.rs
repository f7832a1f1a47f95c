//! Messages exchanged between PEs.

use oracle_topo::PeId;

use crate::program::TaskSpec;

/// Unique identifier of a goal within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GoalId(pub u64);

/// A goal message: a piece of work travelling to (or queued at) a PE.
///
/// `Copy` is load-bearing for performance: the hot path duplicates packets
/// when snooping and broadcasting, and a `Copy` message keeps those
/// duplications allocation-free (`tests/alloc_regression.rs` pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoalMsg {
    /// Unique id of this goal.
    pub id: GoalId,
    /// The task this goal will execute.
    pub spec: TaskSpec,
    /// Where the parent task is waiting, or `None` for the root goal.
    pub parent: Option<(PeId, GoalId)>,
    /// "A count field that says how many hops the message has travelled
    /// from the source." Incremented on every arrival at a PE.
    pub hops: u32,
    /// A directed transfer (e.g. a work-stealing donation): the receiver
    /// must accept it rather than apply its placement rule.
    pub direct: bool,
    /// Simulated time at which the goal was created (for dispatch-latency
    /// accounting).
    pub created_at: u64,
}

/// A strategy-defined control message (one hop, neighbour to neighbour).
/// The Gradient Model's proximity updates and the work-stealing handshake
/// travel as these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlMsg {
    /// Strategy-defined discriminator.
    pub tag: u8,
    /// Strategy-defined payload.
    pub value: i64,
}

/// A message in flight (or queued) on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packet {
    /// A goal travelling one hop; the strategy decides what happens on
    /// arrival.
    Goal(GoalMsg),
    /// A response routed hop-by-hop toward the waiting parent.
    Response {
        /// The PE and goal awaiting this response.
        to: (PeId, GoalId),
        /// The responding child goal — the acknowledgment key the recovery
        /// layer uses to clear its retry tracking and to discard duplicate
        /// responses from superseded attempts.
        child: GoalId,
        /// The child's result.
        value: i64,
    },
    /// A strategy control message for a specific neighbour.
    Control(ControlMsg),
    /// The "very short message" to all members of the channel. It has no
    /// payload: the sender's load word rides on the flight like on any
    /// other packet ([`Flight::piggyback_load`]).
    LoadUpdate,
}

impl Packet {
    /// True for the short control-plane packets (load words, proximity
    /// updates), false for goal and response messages.
    pub fn is_control_plane(&self) -> bool {
        matches!(self, Packet::Control(_) | Packet::LoadUpdate)
    }
}

/// Delivery scope of a flight on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightDest {
    /// Deliver to one member of the channel.
    Unicast(PeId),
    /// Deliver to every member except the sender (one bus transmission).
    Broadcast,
}

/// One hop of one message: what travels on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flight {
    /// The transmitting PE.
    pub from: PeId,
    /// Unicast target or broadcast.
    pub dest: FlightDest,
    /// Sender's load at send time, piggy-backed "with regular messages,
    /// whenever possible".
    pub piggyback_load: u32,
    /// The message itself.
    pub packet: Packet,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_plane_classification() {
        assert!(Packet::Control(ControlMsg { tag: 1, value: 2 }).is_control_plane());
        assert!(Packet::LoadUpdate.is_control_plane());
        assert!(!Packet::Response {
            to: (PeId(0), GoalId(0)),
            child: GoalId(1),
            value: 0
        }
        .is_control_plane());
        let g = GoalMsg {
            id: GoalId(1),
            spec: TaskSpec::new(0, 0),
            parent: None,
            hops: 0,
            direct: false,
            created_at: 0,
        };
        assert!(!Packet::Goal(g).is_control_plane());
    }
}
