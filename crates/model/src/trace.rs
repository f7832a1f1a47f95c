//! Structured event tracing.
//!
//! ORACLE accepted "form and content of the output information required" as
//! input; this is the equivalent facility: an optional, bounded log of the
//! semantically interesting events of a run (goal lifecycle, message
//! movement, strategy actions). Disabled by default (zero cost beyond one
//! branch); enable by setting `MachineConfig::trace_capacity`.
//!
//! Traces are the debugging companion to the load monitor: where the
//! monitor shows *where* the machine is busy, the trace shows *why* — which
//! goal went where, and when.

use oracle_topo::PeId;

use crate::message::GoalId;

/// One traced event. `t` is the simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A goal was created on `pe` (by its parent executing there).
    GoalCreated {
        t: u64,
        goal: GoalId,
        pe: PeId,
        parent: Option<GoalId>,
    },
    /// A goal message was sent one hop.
    GoalForwarded {
        t: u64,
        goal: GoalId,
        from: PeId,
        to: PeId,
        hops: u32,
    },
    /// A goal was accepted (it will execute on `pe`).
    GoalAccepted {
        t: u64,
        goal: GoalId,
        pe: PeId,
        hops: u32,
    },
    /// A goal started executing.
    GoalStarted { t: u64, goal: GoalId, pe: PeId },
    /// The goal's execution slice on `pe` completed (it responded or
    /// spawned children). Paired with [`TraceEvent::GoalStarted`], this
    /// bounds the duration events of the Chrome trace export.
    GoalFinished { t: u64, goal: GoalId, pe: PeId },
    /// A response was produced toward the waiting parent.
    Responded {
        t: u64,
        from_pe: PeId,
        parent_pe: Option<PeId>,
        value: i64,
    },
    /// A strategy control message was sent.
    ControlSent {
        t: u64,
        from: PeId,
        to: PeId,
        tag: u8,
    },
    /// A strategy timer fired.
    TimerFired { t: u64, pe: PeId, tag: u64 },
    /// The root task completed: the run's answer.
    RootCompleted { t: u64, result: i64 },
    /// A PE failed (fail-stop), destroying `goals_lost` resident goals.
    PeCrashed { t: u64, pe: PeId, goals_lost: u64 },
    /// A goal was destroyed by a fault (crash, black-holed delivery, or
    /// dropped transfer).
    GoalLost { t: u64, goal: GoalId, pe: PeId },
    /// A channel transfer was dropped by the message-loss process.
    MessageDropped { t: u64, channel: u32 },
    /// A channel went down per the fault plan.
    LinkDown { t: u64, channel: u32 },
    /// A downed channel came back up.
    LinkUp { t: u64, channel: u32 },
    /// The recovery layer re-spawned a lost or silent goal as `new`.
    GoalRespawned {
        t: u64,
        old: GoalId,
        new: GoalId,
        pe: PeId,
        attempt: u32,
    },
    /// A response arrived for a goal slot already filled by a newer
    /// attempt; it was discarded instead of combined twice.
    DuplicateResponse { t: u64, goal: GoalId, pe: PeId },
    /// A transient slowdown window opened on `pe`.
    PeSlowed { t: u64, pe: PeId, factor: u64 },
    /// The slowdown window on `pe` closed.
    PeRestored { t: u64, pe: PeId },
    /// Open traffic: request `request` arrived and entered as root goal
    /// `goal` at `pe`.
    RequestArrived {
        t: u64,
        request: u64,
        goal: GoalId,
        pe: PeId,
    },
    /// Open traffic: the request that entered as `goal` produced its
    /// result on `pe`, `sojourn` time units after arriving.
    RequestCompleted {
        t: u64,
        request: u64,
        goal: GoalId,
        pe: PeId,
        sojourn: u64,
    },
}

impl TraceEvent {
    /// The simulated time of the event.
    pub fn time(&self) -> u64 {
        match *self {
            TraceEvent::GoalCreated { t, .. }
            | TraceEvent::GoalForwarded { t, .. }
            | TraceEvent::GoalAccepted { t, .. }
            | TraceEvent::GoalStarted { t, .. }
            | TraceEvent::GoalFinished { t, .. }
            | TraceEvent::Responded { t, .. }
            | TraceEvent::ControlSent { t, .. }
            | TraceEvent::TimerFired { t, .. }
            | TraceEvent::RootCompleted { t, .. }
            | TraceEvent::PeCrashed { t, .. }
            | TraceEvent::GoalLost { t, .. }
            | TraceEvent::MessageDropped { t, .. }
            | TraceEvent::LinkDown { t, .. }
            | TraceEvent::LinkUp { t, .. }
            | TraceEvent::GoalRespawned { t, .. }
            | TraceEvent::DuplicateResponse { t, .. }
            | TraceEvent::PeSlowed { t, .. }
            | TraceEvent::PeRestored { t, .. }
            | TraceEvent::RequestArrived { t, .. }
            | TraceEvent::RequestCompleted { t, .. } => t,
        }
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TraceEvent::GoalCreated {
                t,
                goal,
                pe,
                parent,
            } => match parent {
                Some(p) => write!(
                    f,
                    "[{t:>8}] goal {} created on {pe} (child of {})",
                    goal.0, p.0
                ),
                None => write!(f, "[{t:>8}] root goal {} created on {pe}", goal.0),
            },
            TraceEvent::GoalForwarded {
                t,
                goal,
                from,
                to,
                hops,
            } => {
                write!(
                    f,
                    "[{t:>8}] goal {} forwarded {from} -> {to} (hop {hops})",
                    goal.0
                )
            }
            TraceEvent::GoalAccepted { t, goal, pe, hops } => {
                write!(
                    f,
                    "[{t:>8}] goal {} accepted at {pe} after {hops} hops",
                    goal.0
                )
            }
            TraceEvent::GoalStarted { t, goal, pe } => {
                write!(f, "[{t:>8}] goal {} executing on {pe}", goal.0)
            }
            TraceEvent::GoalFinished { t, goal, pe } => {
                write!(f, "[{t:>8}] goal {} finished on {pe}", goal.0)
            }
            TraceEvent::Responded {
                t,
                from_pe,
                parent_pe,
                value,
            } => match parent_pe {
                Some(p) => write!(f, "[{t:>8}] {from_pe} responded {value} toward {p}"),
                None => write!(f, "[{t:>8}] {from_pe} produced the root result {value}"),
            },
            TraceEvent::ControlSent { t, from, to, tag } => {
                write!(f, "[{t:>8}] control tag {tag} {from} -> {to}")
            }
            TraceEvent::TimerFired { t, pe, tag } => {
                write!(f, "[{t:>8}] timer tag {tag} fired on {pe}")
            }
            TraceEvent::RootCompleted { t, result } => {
                write!(f, "[{t:>8}] run complete: result = {result}")
            }
            TraceEvent::PeCrashed { t, pe, goals_lost } => {
                write!(f, "[{t:>8}] {pe} crashed, {goals_lost} goals lost")
            }
            TraceEvent::GoalLost { t, goal, pe } => {
                write!(f, "[{t:>8}] goal {} lost at {pe}", goal.0)
            }
            TraceEvent::MessageDropped { t, channel } => {
                write!(f, "[{t:>8}] transfer dropped on ch{channel}")
            }
            TraceEvent::LinkDown { t, channel } => {
                write!(f, "[{t:>8}] ch{channel} down")
            }
            TraceEvent::LinkUp { t, channel } => {
                write!(f, "[{t:>8}] ch{channel} up")
            }
            TraceEvent::GoalRespawned {
                t,
                old,
                new,
                pe,
                attempt,
            } => write!(
                f,
                "[{t:>8}] goal {} respawned as {} from {pe} (attempt {attempt})",
                old.0, new.0
            ),
            TraceEvent::DuplicateResponse { t, goal, pe } => {
                write!(f, "[{t:>8}] duplicate response for goal {} at {pe}", goal.0)
            }
            TraceEvent::PeSlowed { t, pe, factor } => {
                write!(f, "[{t:>8}] {pe} slowed x{factor}")
            }
            TraceEvent::PeRestored { t, pe } => {
                write!(f, "[{t:>8}] {pe} back to full speed")
            }
            TraceEvent::RequestArrived {
                t,
                request,
                goal,
                pe,
            } => write!(
                f,
                "[{t:>8}] request {request} arrived at {pe} as goal {}",
                goal.0
            ),
            TraceEvent::RequestCompleted {
                t,
                request,
                goal,
                pe,
                sojourn,
            } => write!(
                f,
                "[{t:>8}] request {request} (goal {}) completed on {pe}, sojourn {sojourn}",
                goal.0
            ),
        }
    }
}

/// What a full trace buffer does with further events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep the first `capacity` events and count the rest as dropped —
    /// the prefix of a run is usually what matters for debugging
    /// placement. The default.
    #[default]
    KeepFirst,
    /// Ring buffer: keep the *last* `capacity` events, so a long run
    /// retains its interesting tail (the events counted as dropped are the
    /// overwritten oldest ones).
    KeepLast,
}

/// A bounded event log. Once `capacity` events are recorded,
/// [`TraceMode`] decides whether further events are dropped
/// ([`TraceMode::KeepFirst`]) or overwrite the oldest ones
/// ([`TraceMode::KeepLast`]); either way the losses are counted in
/// [`Trace::dropped`], and exporters must surface that count — a truncated
/// trace must never pass for a complete one.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    mode: TraceMode,
    /// In `KeepLast` mode once full: index of the oldest retained event
    /// (the next overwrite target). Always 0 otherwise.
    head: usize,
}

impl Trace {
    /// A trace keeping at most `capacity` events (0 = tracing disabled).
    pub fn new(capacity: usize) -> Self {
        Trace::with_mode(capacity, TraceMode::KeepFirst)
    }

    /// A trace keeping at most `capacity` events under `mode`.
    pub fn with_mode(capacity: usize, mode: TraceMode) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            dropped: 0,
            mode,
            head: 0,
        }
    }

    /// True if this trace records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The retention mode.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Record one event (per the retention mode once full).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else if self.capacity > 0 {
            self.dropped += 1;
            if self.mode == TraceMode::KeepLast {
                self.events[self.head] = event;
                self.head += 1;
                if self.head == self.capacity {
                    self.head = 0;
                }
            }
        }
    }

    /// The recorded events in storage order. Identical to chronological
    /// order except in a wrapped `KeepLast` trace — use [`Trace::iter`]
    /// when order matters.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The retained events in chronological order (unrotates a wrapped
    /// `KeepLast` ring).
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, front) = self.events.split_at(self.head.min(self.events.len()));
        front.iter().chain(tail.iter())
    }

    /// Events dropped after the buffer filled (in `KeepLast` mode: the
    /// overwritten oldest events).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the whole trace as text, one event per line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.dropped > 0 && self.mode == TraceMode::KeepLast {
            let _ = writeln!(out, "... {} earlier events overwritten", self.dropped);
        }
        for e in self.iter() {
            let _ = writeln!(out, "{e}");
        }
        if self.dropped > 0 && self.mode == TraceMode::KeepFirst {
            let _ = writeln!(out, "... {} further events dropped", self.dropped);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(0);
        assert!(!t.enabled());
        t.record(TraceEvent::RootCompleted { t: 1, result: 2 });
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_the_log() {
        let mut t = Trace::new(2);
        for i in 0..5 {
            t.record(TraceEvent::TimerFired {
                t: i,
                pe: PeId(0),
                tag: 0,
            });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert!(t.render().contains("3 further events dropped"));
    }

    #[test]
    fn keep_last_retains_the_tail_in_order() {
        let mut t = Trace::with_mode(3, TraceMode::KeepLast);
        for i in 0..7 {
            t.record(TraceEvent::TimerFired {
                t: i,
                pe: PeId(0),
                tag: i,
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 4);
        let times: Vec<u64> = t.iter().map(|e| e.time()).collect();
        assert_eq!(times, vec![4, 5, 6], "chronological tail, unrotated");
        assert!(t.render().contains("4 earlier events overwritten"));
    }

    #[test]
    fn keep_last_without_wrap_matches_keep_first() {
        let mut a = Trace::with_mode(5, TraceMode::KeepLast);
        let mut b = Trace::new(5);
        for i in 0..4 {
            let e = TraceEvent::TimerFired {
                t: i,
                pe: PeId(1),
                tag: 0,
            };
            a.record(e);
            b.record(e);
        }
        assert_eq!(a.dropped(), 0);
        let ta: Vec<u64> = a.iter().map(|e| e.time()).collect();
        let tb: Vec<u64> = b.iter().map(|e| e.time()).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent::GoalCreated {
            t: 10,
            goal: GoalId(5),
            pe: PeId(3),
            parent: None,
        };
        assert!(e.to_string().contains("root goal 5"));
        assert_eq!(e.time(), 10);
        let e = TraceEvent::GoalAccepted {
            t: 11,
            goal: GoalId(5),
            pe: PeId(4),
            hops: 2,
        };
        assert!(e.to_string().contains("after 2 hops"));
        let e = TraceEvent::Responded {
            t: 12,
            from_pe: PeId(4),
            parent_pe: None,
            value: 99,
        };
        assert!(e.to_string().contains("root result 99"));
    }

    #[test]
    fn fault_events_format_and_report_time() {
        let e = TraceEvent::PeCrashed {
            t: 40,
            pe: PeId(7),
            goals_lost: 3,
        };
        assert_eq!(e.time(), 40);
        assert!(e.to_string().contains("PE7 crashed"));
        assert!(e.to_string().contains("3 goals lost"));

        let e = TraceEvent::GoalLost {
            t: 41,
            goal: GoalId(9),
            pe: PeId(7),
        };
        assert_eq!(e.time(), 41);
        assert!(e.to_string().contains("goal 9 lost"));

        let e = TraceEvent::MessageDropped { t: 42, channel: 5 };
        assert_eq!(e.time(), 42);
        assert!(e.to_string().contains("ch5"));

        let down = TraceEvent::LinkDown { t: 43, channel: 2 };
        let up = TraceEvent::LinkUp { t: 44, channel: 2 };
        assert_eq!(down.time(), 43);
        assert_eq!(up.time(), 44);
        assert!(down.to_string().contains("ch2 down"));
        assert!(up.to_string().contains("ch2 up"));

        let e = TraceEvent::GoalRespawned {
            t: 45,
            old: GoalId(9),
            new: GoalId(31),
            pe: PeId(1),
            attempt: 2,
        };
        assert_eq!(e.time(), 45);
        assert!(e.to_string().contains("respawned as 31"));
        assert!(e.to_string().contains("attempt 2"));

        let e = TraceEvent::DuplicateResponse {
            t: 46,
            goal: GoalId(9),
            pe: PeId(1),
        };
        assert_eq!(e.time(), 46);
        assert!(e.to_string().contains("duplicate response"));

        let slowed = TraceEvent::PeSlowed {
            t: 47,
            pe: PeId(2),
            factor: 4,
        };
        let restored = TraceEvent::PeRestored { t: 48, pe: PeId(2) };
        assert_eq!(slowed.time(), 47);
        assert_eq!(restored.time(), 48);
        assert!(slowed.to_string().contains("slowed x4"));
        assert!(restored.to_string().contains("full speed"));
    }

    #[test]
    fn open_traffic_events_format_and_report_time() {
        let e = TraceEvent::RequestArrived {
            t: 50,
            request: 12,
            goal: GoalId(77),
            pe: PeId(3),
        };
        assert_eq!(e.time(), 50);
        assert!(e.to_string().contains("request 12 arrived"));
        assert!(e.to_string().contains("goal 77"));

        let e = TraceEvent::RequestCompleted {
            t: 51,
            request: 12,
            goal: GoalId(77),
            pe: PeId(4),
            sojourn: 41,
        };
        assert_eq!(e.time(), 51);
        assert!(e.to_string().contains("request 12"));
        assert!(e.to_string().contains("sojourn 41"));
    }

    #[test]
    fn fault_events_respect_bounded_capacity() {
        let mut t = Trace::new(3);
        for i in 0..6 {
            t.record(TraceEvent::MessageDropped { t: i, channel: 0 });
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 3);
        let rendered = t.render();
        assert!(rendered.contains("transfer dropped"));
        assert!(rendered.contains("3 further events dropped"));
    }
}
