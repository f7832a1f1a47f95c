//! Simulation errors.

use std::fmt;

/// A simulation run failed to complete normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event limit (`MachineConfig::max_events`) was exceeded —
    /// usually a runaway strategy generating unbounded control traffic.
    EventLimit {
        /// Events processed when the run was aborted.
        events: u64,
        /// Simulated time reached.
        time: u64,
    },
    /// The event calendar drained before the root result was produced —
    /// goals were lost or a strategy deadlocked.
    Stalled {
        /// Simulated time at which the calendar drained.
        time: u64,
        /// Goals created so far.
        goals_created: u64,
        /// Goals executed so far.
        goals_executed: u64,
    },
    /// A channel's backlog grew without bound: the configuration is
    /// communication-bound ("communication stagnation", which the paper's
    /// cost ratio was chosen to avoid). Reported instead of a bare stall
    /// when the progress watchdog finds a runaway backlog.
    Stagnation {
        /// Channel with the largest backlog.
        channel: u32,
        /// Messages queued on it when the run was aborted.
        backlog: usize,
        /// Simulated time reached.
        time: u64,
    },
    /// Goals were destroyed by injected faults (PE crashes, black-holed
    /// deliveries, dropped transfers) and the run could not finish without
    /// them — either recovery was disabled or its retry budget ran out.
    /// Distinct from [`SimError::Stalled`] so that planned fault losses
    /// are attributable while a leaky strategy (losing goals with *no*
    /// fault plan) still fails loudly as a stall.
    GoalsLost {
        /// Whether a fault plan was active — i.e. the loss
        /// was scheduled rather than a simulator bug.
        expected_by_plan: bool,
        /// Goals destroyed by faults.
        goals_lost: u64,
        /// Channel transfers dropped by the loss process.
        messages_dropped: u64,
        /// Goal slots whose recovery retry budget ran out.
        retries_exhausted: u64,
        /// Simulated time at which the run gave up.
        time: u64,
    },
    /// The runtime invariant auditor found the machine in an inconsistent
    /// state — a simulator bug, not a modelling outcome. The `digest` is a
    /// compact rendering of the counters involved so a violation is
    /// actionable from the one-line error alone.
    InvariantViolation {
        /// Which invariant failed, e.g. `"task-conservation"`.
        check: &'static str,
        /// Simulated time at which the audit ran.
        time: u64,
        /// Minimal state digest: the counters the failed check compared.
        digest: String,
    },
    /// Configuration rejected before the run started.
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventLimit { events, time } => {
                write!(f, "event limit exceeded after {events} events at t={time}")
            }
            SimError::Stalled {
                time,
                goals_created,
                goals_executed,
            } => write!(
                f,
                "simulation stalled at t={time}: {goals_executed}/{goals_created} goals executed \
                 but no result produced"
            ),
            SimError::Stagnation {
                channel,
                backlog,
                time,
            } => write!(
                f,
                "communication stagnation at t={time}: channel {channel} has {backlog} \
                 messages backlogged and growing"
            ),
            SimError::GoalsLost {
                expected_by_plan,
                goals_lost,
                messages_dropped,
                retries_exhausted,
                time,
            } => write!(
                f,
                "run failed at t={time}: {goals_lost} goals lost to {}faults \
                 ({messages_dropped} transfers dropped, {retries_exhausted} retry budgets \
                 exhausted)",
                if *expected_by_plan {
                    "injected "
                } else {
                    "UNPLANNED "
                }
            ),
            SimError::InvariantViolation {
                check,
                time,
                digest,
            } => write!(f, "invariant `{check}` violated at t={time}: {digest}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::EventLimit {
            events: 10,
            time: 5,
        };
        assert!(e.to_string().contains("event limit"));
        let e = SimError::Stalled {
            time: 7,
            goals_created: 3,
            goals_executed: 2,
        };
        assert!(e.to_string().contains("2/3"));
        assert!(SimError::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
        let e = SimError::Stagnation {
            channel: 3,
            backlog: 5000,
            time: 100,
        };
        assert!(e.to_string().contains("stagnation"));
        assert!(e.to_string().contains("5000"));
        let e = SimError::GoalsLost {
            expected_by_plan: true,
            goals_lost: 4,
            messages_dropped: 2,
            retries_exhausted: 1,
            time: 900,
        };
        assert!(e.to_string().contains("4 goals lost"));
        assert!(e.to_string().contains("injected"));
        let e = SimError::GoalsLost {
            expected_by_plan: false,
            goals_lost: 1,
            messages_dropped: 0,
            retries_exhausted: 0,
            time: 10,
        };
        assert!(e.to_string().contains("UNPLANNED"));
        let e = SimError::InvariantViolation {
            check: "task-conservation",
            time: 42,
            digest: "created=10 accounted=9".into(),
        };
        assert!(e.to_string().contains("task-conservation"));
        assert!(e.to_string().contains("t=42"));
        assert!(e.to_string().contains("accounted=9"));
    }
}
