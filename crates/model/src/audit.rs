//! Runtime invariant auditor.
//!
//! An opt-in consistency check (`MachineConfig::audit_every`) that
//! re-derives, from first principles, the identities the simulator's O(1)
//! incremental counters are supposed to maintain, and aborts the run with
//! [`SimError::InvariantViolation`] on any mismatch. The auditor is a pure
//! read of machine state between events: it schedules nothing, draws no
//! random numbers, and allocates only on failure, so an audited run is
//! bit-identical to an unaudited one.
//!
//! Invariant catalog (the `check` tag of the violation):
//!
//! - `event-time-monotonicity` — simulated time never decreases between
//!   audit points.
//! - `queue-accounting` — each PE's incrementally maintained
//!   `queued_goals` / `queued_responses` counters equal a fresh count of
//!   the goals and responses actually sitting in its queue (which also
//!   pins the load metric, a pure function of those counters, to the
//!   ground truth); a crashed PE holds no work at all.
//! - `load-metric-agreement` — [`Core::load`] equals the metric recomputed
//!   from the recounted queue and the waiting-task set under the
//!   configured `count_responses_in_load` / `future_commitment_weight`.
//! - `channel-accounting` — a channel's busy-time tracker claims busy
//!   exactly when a transfer is in flight, and a non-empty backlog implies
//!   the channel is either occupied or held down by a fault window.
//! - `task-conservation` — every goal ever created is accounted for:
//!   started executing, queued on a PE, inside a message-handling work
//!   item, on the wire (in flight or backlogged), privately held by the
//!   strategy ([`Strategy::goals_held`]), or declared lost to faults.
//!   Fault-free runs must balance exactly; runs with losses must satisfy
//!   `accounted <= created <= accounted + lost` (the crash sweep counts a
//!   lost *waiting task* as a lost goal even though that goal already
//!   executed, so the loss side may over-count but never under-count).
//! - `arrival-conservation` — in open-traffic runs, every arrival is in
//!   exactly one bucket: completed, shed at admission, abandoned (deadline
//!   or retry exhaustion), or still in the system (in flight or awaiting a
//!   retry backoff).
//! - `retry-cap` — no tracked request has recorded more re-injection
//!   attempts than the configured retry cap.

use crate::machine::Core;
use crate::message::Packet;
use crate::pe::{Executing, WorkItem};
use crate::strategy::Strategy;
use crate::SimError;

/// One goal riding inside a packet (goals travel strictly unicast).
fn packet_goals(packet: &Packet) -> u64 {
    matches!(packet, Packet::Goal(_)) as u64
}

/// Audit the machine. Called by the run loop between events whenever the
/// processed-event count crosses `MachineConfig::audit_every`.
pub(crate) fn audit(core: &Core, strategy: &dyn Strategy) -> Result<(), SimError> {
    let now = core.now().units();
    let fail = |check: &'static str, digest: String| {
        Err(SimError::InvariantViolation {
            check,
            time: now,
            digest,
        })
    };

    if now < core.last_audit_now {
        return fail(
            "event-time-monotonicity",
            format!("now={now} previous-audit={}", core.last_audit_now),
        );
    }

    let mut queued_goals_total: u64 = 0;
    let mut handle_goals_total: u64 = 0;
    // Materialized PEs only: an untouched PE is pristine (no work, zero
    // counters, not crashed), which passes every check below and adds
    // nothing to the totals.
    for (id, pe) in core.pes.iter() {
        let mut goals: u32 = 0;
        let mut responses: u32 = 0;
        for item in &pe.queue {
            match item {
                WorkItem::Goal(_) => goals += 1,
                WorkItem::Response { .. } => responses += 1,
                WorkItem::Handle { .. } | WorkItem::TimerWork { .. } => {
                    return fail(
                        "queue-accounting",
                        format!("pe={} has balancing work on its user queue", id),
                    );
                }
            }
        }
        if goals != pe.queued_goals || responses != pe.queued_responses {
            return fail(
                "queue-accounting",
                format!(
                    "pe={} counters=({},{}) recount=({goals},{responses})",
                    id, pe.queued_goals, pe.queued_responses
                ),
            );
        }
        if pe.failed
            && (!pe.queue.is_empty()
                || !pe.sys_queue.is_empty()
                || pe.executing.is_some()
                || !pe.waiting.is_empty())
        {
            return fail(
                "queue-accounting",
                format!(
                    "crashed pe={} still holds work (queue={} sys={} waiting={})",
                    id,
                    pe.queue.len(),
                    pe.sys_queue.len(),
                    pe.waiting.len()
                ),
            );
        }
        let metric = pe.load(core.config.count_responses_in_load)
            + core.config.future_commitment_weight * pe.waiting.len() as u32;
        let load = core.load(oracle_topo::PeId(id as u32));
        if load != metric {
            return fail(
                "load-metric-agreement",
                format!("pe={id} load()={load} recomputed={metric}"),
            );
        }
        queued_goals_total += goals as u64;
        for item in &pe.sys_queue {
            if let WorkItem::Handle { packet, .. } = item {
                handle_goals_total += packet_goals(packet);
            }
        }
        if let Some(Executing::Handle { packet, .. }) = &pe.executing {
            handle_goals_total += packet_goals(packet);
        }
    }

    // Materialized channels only: an untouched channel is pristine (idle,
    // up, empty backlog), which passes every check below and adds nothing
    // to the wire count.
    let mut wire_goals_total: u64 = 0;
    for (idx, ch) in core.channels.iter() {
        if ch.busy.is_busy() != ch.in_flight.is_some() {
            return fail(
                "channel-accounting",
                format!(
                    "channel={idx} busy-tracker={} in-flight={}",
                    ch.busy.is_busy(),
                    ch.in_flight.is_some()
                ),
            );
        }
        if !ch.backlog.is_empty() && ch.in_flight.is_none() && !ch.down {
            return fail(
                "channel-accounting",
                format!(
                    "channel={idx} has {} backlogged flights but is idle and up",
                    ch.backlog.len()
                ),
            );
        }
        if let Some(f) = &ch.in_flight {
            wire_goals_total += packet_goals(&f.packet);
        }
        for f in &ch.backlog {
            wire_goals_total += packet_goals(&f.packet);
        }
    }

    let held = strategy.goals_held();
    let lost = core.faults.goals_lost;
    let accounted =
        core.goals_executed + queued_goals_total + handle_goals_total + wire_goals_total + held;
    let digest = || {
        format!(
            "created={} executed={} queued={queued_goals_total} handling={handle_goals_total} \
             wire={wire_goals_total} held={held} lost={lost}",
            core.goals_created, core.goals_executed
        )
    };
    if lost == 0 {
        if accounted != core.goals_created {
            return fail("task-conservation", digest());
        }
    } else if accounted > core.goals_created || core.goals_created > accounted + lost {
        return fail("task-conservation", digest());
    }

    if let Some(open) = core.open.as_deref() {
        let in_system = open.requests_in_system();
        let settled = open.completions_total
            + open.shed_total
            + open.abandoned_deadline
            + open.abandoned_retries;
        if open.arrivals_total != settled + in_system {
            return fail(
                "arrival-conservation",
                format!(
                    "arrivals={} completed={} shed={} abandoned-deadline={} \
                     abandoned-retries={} in-system={in_system}",
                    open.arrivals_total,
                    open.completions_total,
                    open.shed_total,
                    open.abandoned_deadline,
                    open.abandoned_retries
                ),
            );
        }
        let cap = open.retry.map_or(0, |p| p.max);
        for (goal, infl) in open.inflight.iter().chain(open.retry_pending.iter()) {
            if infl.attempts > cap {
                return fail(
                    "retry-cap",
                    format!(
                        "request={} goal={} attempts={} cap={cap}",
                        infl.request, goal.0, infl.attempts
                    ),
                );
            }
        }
    }

    Ok(())
}
