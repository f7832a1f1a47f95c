//! Machine-state snapshot codec — the model half of checkpoint/resume.
//!
//! [`Machine::snapshot_bytes`] serializes every piece of *mutable* run
//! state — the machine's RNG streams, all counters and statistics
//! collectors, every materialized page of PEs (queues, executing item,
//! waiting tasks, known loads, RNG stream and sequences) and of channels
//! (in-flight transfer and backlog), the recovery layer's tracking map, the
//! watchdog/auditor cursors, the pending event queue, and the strategy's
//! private state — into a self-contained byte blob using the
//! [`oracle_des::snapshot`] codec. Immutable state (topology, cost model,
//! configuration, program, fault plan, precomputed adjacency tables) is
//! *not* serialized: a resume rebuilds it by constructing the machine from
//! the same run configuration, then calling [`Machine::restore_bytes`]
//! instead of [`Machine::begin`].
//!
//! The format is designed for bit-identical resumption: floating-point
//! statistics are stored as raw IEEE-754 bits, hash maps are written in
//! sorted key order, and the event queue is written in exact pop order, so
//! a resumed run replays precisely the event sequence the uninterrupted run
//! would have processed.
//!
//! The event trace and the engine profiler are deliberately not part of a
//! snapshot — both are observability aids, not simulated state: a resumed
//! run's trace and profile simply start at the resume point (the simulated
//! results stay bit-identical either way).

use oracle_des::snapshot::{SnapError, SnapReader, SnapWriter};
use oracle_des::{
    BusyTracker, CalendarQueue, FastHashMap, Histogram, IntervalSeries, LogHistogram, OnlineStats,
    Rng, SimTime,
};
use oracle_topo::{ChannelId, PeId};

use crate::channel::Channel;
use crate::machine::{fresh_pe, Event, Machine, Outstanding};
use crate::message::{ControlMsg, Flight, FlightDest, GoalId, GoalMsg, Packet};
use crate::open::{Inflight, OpenState, ProcessState};
use crate::pe::{Executing, Pe, Waiting, WorkItem};
use crate::program::{Expansion, TaskList, TaskSpec};
use crate::SimError;

/// Magic prefix of a machine snapshot blob (`"MSNP"`).
pub const SNAPSHOT_MAGIC: u32 = 0x4D53_4E50;
/// Version of the machine snapshot layout. Bumped on any layout change;
/// restore refuses other versions rather than guessing.
///
/// v2 added the open-traffic block (arrival RNG, process cursor, in-flight
/// request table, sojourn/queue-length statistics).
///
/// v3 added the overload-protection block (retry RNG and pending-retry
/// table, token-bucket level, circuit-breaker table, shed/abandonment
/// counters, the `Retry` event tag, and per-request attempt counts).
///
/// v4 added the deterministic-ordering block (per-PE RNG streams,
/// per-actor event-key sequences, per-creator goal-id sequences replacing
/// the global goal counter, per-PE dispatch latency accumulators, and
/// explicit event-queue keys).
///
/// v5 made the per-channel table and the per-PE dispatch-latency
/// accumulators mode-agnostic: both now encode as a count of materialized
/// slots plus sorted `(id, state)` pairs, so sparse and dense machines
/// round-trip the same state bit-identically (an untouched sparse slot
/// and a pristine dense slot are the same state, and neither is encoded
/// when sparse).
///
/// v6 encodes the paged per-PE and per-channel slabs: each store is a
/// count of materialized pages plus `(page index, every slot of the page)`
/// in ascending page order, so a snapshot is O(touched pages). A PE slot
/// now carries its RNG stream, event-key and goal-id sequences and
/// dispatch-latency accumulator (no longer separate dense arrays), a
/// channel slot its event-key sequence; the environment's two sequences
/// are encoded on their own. Per-PE cost factors are construction-time
/// state and are no longer encoded.
///
/// v7 dropped the load update's payload and the presence byte of a flight's
/// load word: every flight carries its sender's word, and a load update is
/// its packet tag alone.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Why a restore failed: the blob itself was undecodable, or it decoded
/// fine but does not belong to this machine.
enum RestoreFail {
    Codec(SnapError),
    Mismatch(String),
}

impl From<SnapError> for RestoreFail {
    fn from(e: SnapError) -> Self {
        RestoreFail::Codec(e)
    }
}

// ---------------------------------------------------------------------
// Field codecs, in dependency order. Writers take the value; readers
// return `Result<_, SnapError>` so truncation surfaces as `Eof`.
// ---------------------------------------------------------------------

fn put_opt_u32(w: &mut SnapWriter, v: Option<u32>) {
    match v {
        Some(x) => {
            w.bool(true);
            w.u32(x);
        }
        None => w.bool(false),
    }
}

fn get_opt_u32(r: &mut SnapReader) -> Result<Option<u32>, SnapError> {
    Ok(if r.bool()? { Some(r.u32()?) } else { None })
}

fn put_spec(w: &mut SnapWriter, s: &TaskSpec) {
    w.i64(s.a);
    w.i64(s.b);
    w.u32(s.depth);
    w.u32(s.tag);
}

fn get_spec(r: &mut SnapReader) -> Result<TaskSpec, SnapError> {
    Ok(TaskSpec {
        a: r.i64()?,
        b: r.i64()?,
        depth: r.u32()?,
        tag: r.u32()?,
    })
}

fn put_parent(w: &mut SnapWriter, p: &Option<(PeId, GoalId)>) {
    match p {
        Some((pe, goal)) => {
            w.bool(true);
            w.u32(pe.0);
            w.u64(goal.0);
        }
        None => w.bool(false),
    }
}

fn get_parent(r: &mut SnapReader) -> Result<Option<(PeId, GoalId)>, SnapError> {
    Ok(if r.bool()? {
        Some((PeId(r.u32()?), GoalId(r.u64()?)))
    } else {
        None
    })
}

/// Encode a [`GoalMsg`] into a snapshot payload. Public so strategies that
/// park goals (e.g. threshold probing) can serialize them inside their
/// [`crate::Strategy::snapshot_state`] bytes with the same codec the
/// machine uses.
pub fn put_goal(w: &mut SnapWriter, g: &GoalMsg) {
    w.u64(g.id.0);
    put_spec(w, &g.spec);
    put_parent(w, &g.parent);
    w.u32(g.hops);
    w.bool(g.direct);
    w.u64(g.created_at);
}

/// Decode a [`GoalMsg`] written by [`put_goal`].
pub fn get_goal(r: &mut SnapReader) -> Result<GoalMsg, SnapError> {
    Ok(GoalMsg {
        id: GoalId(r.u64()?),
        spec: get_spec(r)?,
        parent: get_parent(r)?,
        hops: r.u32()?,
        direct: r.bool()?,
        created_at: r.u64()?,
    })
}

fn put_packet(w: &mut SnapWriter, p: &Packet) {
    match p {
        Packet::Goal(g) => {
            w.u8(0);
            put_goal(w, g);
        }
        Packet::Response { to, child, value } => {
            w.u8(1);
            w.u32(to.0 .0);
            w.u64(to.1 .0);
            w.u64(child.0);
            w.i64(*value);
        }
        Packet::Control(c) => {
            w.u8(2);
            w.u8(c.tag);
            w.i64(c.value);
        }
        Packet::LoadUpdate => w.u8(3),
    }
}

fn get_packet(r: &mut SnapReader) -> Result<Packet, SnapError> {
    Ok(match r.u8()? {
        0 => Packet::Goal(get_goal(r)?),
        1 => Packet::Response {
            to: (PeId(r.u32()?), GoalId(r.u64()?)),
            child: GoalId(r.u64()?),
            value: r.i64()?,
        },
        2 => Packet::Control(ControlMsg {
            tag: r.u8()?,
            value: r.i64()?,
        }),
        3 => Packet::LoadUpdate,
        t => {
            return Err(SnapError::Invalid {
                what: "packet tag",
                value: t as u64,
            })
        }
    })
}

fn put_flight(w: &mut SnapWriter, f: &Flight) {
    w.u32(f.from.0);
    match f.dest {
        FlightDest::Unicast(pe) => {
            w.u8(0);
            w.u32(pe.0);
        }
        FlightDest::Broadcast => w.u8(1),
    }
    w.u32(f.piggyback_load);
    put_packet(w, &f.packet);
}

fn get_flight(r: &mut SnapReader) -> Result<Flight, SnapError> {
    let from = PeId(r.u32()?);
    let dest = match r.u8()? {
        0 => FlightDest::Unicast(PeId(r.u32()?)),
        1 => FlightDest::Broadcast,
        t => {
            return Err(SnapError::Invalid {
                what: "flight dest tag",
                value: t as u64,
            })
        }
    };
    Ok(Flight {
        from,
        dest,
        piggyback_load: r.u32()?,
        packet: get_packet(r)?,
    })
}

fn put_work_item(w: &mut SnapWriter, item: &WorkItem) {
    match item {
        WorkItem::Goal(g) => {
            w.u8(0);
            put_goal(w, g);
        }
        WorkItem::Response { goal, child, value } => {
            w.u8(1);
            w.u64(goal.0);
            w.u64(child.0);
            w.i64(*value);
        }
        WorkItem::Handle { from, packet } => {
            w.u8(2);
            w.u32(from.0);
            put_packet(w, packet);
        }
        WorkItem::TimerWork { tag } => {
            w.u8(3);
            w.u64(*tag);
        }
    }
}

fn get_work_item(r: &mut SnapReader) -> Result<WorkItem, SnapError> {
    Ok(match r.u8()? {
        0 => WorkItem::Goal(get_goal(r)?),
        1 => WorkItem::Response {
            goal: GoalId(r.u64()?),
            child: GoalId(r.u64()?),
            value: r.i64()?,
        },
        2 => WorkItem::Handle {
            from: PeId(r.u32()?),
            packet: get_packet(r)?,
        },
        3 => WorkItem::TimerWork { tag: r.u64()? },
        t => {
            return Err(SnapError::Invalid {
                what: "work item tag",
                value: t as u64,
            })
        }
    })
}

fn put_task_list(w: &mut SnapWriter, list: &TaskList) {
    w.usize(list.len());
    for spec in list {
        put_spec(w, spec);
    }
}

fn get_task_list(r: &mut SnapReader) -> Result<TaskList, SnapError> {
    let n = r.usize()?;
    let mut list = TaskList::new();
    for _ in 0..n {
        list.push(get_spec(r)?);
    }
    Ok(list)
}

fn put_expansion(w: &mut SnapWriter, e: &Expansion) {
    match e {
        Expansion::Leaf(v) => {
            w.u8(0);
            w.i64(*v);
        }
        Expansion::Split(children) => {
            w.u8(1);
            put_task_list(w, children);
        }
    }
}

fn get_expansion(r: &mut SnapReader) -> Result<Expansion, SnapError> {
    Ok(match r.u8()? {
        0 => Expansion::Leaf(r.i64()?),
        1 => Expansion::Split(get_task_list(r)?),
        t => {
            return Err(SnapError::Invalid {
                what: "expansion tag",
                value: t as u64,
            })
        }
    })
}

fn put_executing(w: &mut SnapWriter, e: &Executing) {
    match e {
        Executing::Goal(g, exp) => {
            w.u8(0);
            put_goal(w, g);
            put_expansion(w, exp);
        }
        Executing::Response { goal, child, value } => {
            w.u8(1);
            w.u64(goal.0);
            w.u64(child.0);
            w.i64(*value);
        }
        Executing::Respawn { goal, children } => {
            w.u8(2);
            w.u64(goal.0);
            put_task_list(w, children);
        }
        Executing::Handle { from, packet } => {
            w.u8(3);
            w.u32(from.0);
            put_packet(w, packet);
        }
        Executing::TimerWork { tag } => {
            w.u8(4);
            w.u64(*tag);
        }
    }
}

fn get_executing(r: &mut SnapReader) -> Result<Executing, SnapError> {
    Ok(match r.u8()? {
        0 => Executing::Goal(get_goal(r)?, get_expansion(r)?),
        1 => Executing::Response {
            goal: GoalId(r.u64()?),
            child: GoalId(r.u64()?),
            value: r.i64()?,
        },
        2 => Executing::Respawn {
            goal: GoalId(r.u64()?),
            children: get_task_list(r)?,
        },
        3 => Executing::Handle {
            from: PeId(r.u32()?),
            packet: get_packet(r)?,
        },
        4 => Executing::TimerWork { tag: r.u64()? },
        t => {
            return Err(SnapError::Invalid {
                what: "executing tag",
                value: t as u64,
            })
        }
    })
}

fn put_event(w: &mut SnapWriter, ev: &Event) {
    match ev {
        Event::PeDone(pe) => {
            w.u8(0);
            w.u32(pe.0);
        }
        Event::ChannelDone(ch) => {
            w.u8(1);
            w.u32(ch.0);
        }
        Event::Timer(pe, tag) => {
            w.u8(2);
            w.u32(pe.0);
            w.u64(*tag);
        }
        Event::LoadBcast(pe) => {
            w.u8(3);
            w.u32(pe.0);
        }
        Event::FailPe(pe) => {
            w.u8(4);
            w.u32(pe.0);
        }
        Event::LinkDown(ch) => {
            w.u8(5);
            w.u32(ch.0);
        }
        Event::LinkUp(ch) => {
            w.u8(6);
            w.u32(ch.0);
        }
        Event::SlowStart(pe, factor) => {
            w.u8(7);
            w.u32(pe.0);
            w.u64(*factor);
        }
        Event::SlowEnd(pe) => {
            w.u8(8);
            w.u32(pe.0);
        }
        Event::AckTimeout(goal) => {
            w.u8(9);
            w.u64(goal.0);
        }
        Event::Arrival => w.u8(10),
        Event::Retry(goal) => {
            w.u8(11);
            w.u64(goal.0);
        }
    }
}

fn get_event(r: &mut SnapReader) -> Result<Event, SnapError> {
    Ok(match r.u8()? {
        0 => Event::PeDone(PeId(r.u32()?)),
        1 => Event::ChannelDone(ChannelId(r.u32()?)),
        2 => Event::Timer(PeId(r.u32()?), r.u64()?),
        3 => Event::LoadBcast(PeId(r.u32()?)),
        4 => Event::FailPe(PeId(r.u32()?)),
        5 => Event::LinkDown(ChannelId(r.u32()?)),
        6 => Event::LinkUp(ChannelId(r.u32()?)),
        7 => Event::SlowStart(PeId(r.u32()?), r.u64()?),
        8 => Event::SlowEnd(PeId(r.u32()?)),
        9 => Event::AckTimeout(GoalId(r.u64()?)),
        10 => Event::Arrival,
        11 => Event::Retry(GoalId(r.u64()?)),
        t => {
            return Err(SnapError::Invalid {
                what: "event tag",
                value: t as u64,
            })
        }
    })
}

fn put_stats(w: &mut SnapWriter, s: &OnlineStats) {
    let (count, mean, m2, min, max) = s.raw_parts();
    w.u64(count);
    w.f64(mean);
    w.f64(m2);
    w.f64(min);
    w.f64(max);
}

fn get_stats(r: &mut SnapReader) -> Result<OnlineStats, SnapError> {
    let count = r.u64()?;
    let mean = r.f64()?;
    let m2 = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    Ok(OnlineStats::from_raw_parts(count, mean, m2, min, max))
}

fn put_hist(w: &mut SnapWriter, h: &Histogram) {
    let (buckets, overflow, total, sum) = h.raw_parts();
    w.usize(buckets.len());
    for &b in buckets {
        w.u64(b);
    }
    w.u64(overflow);
    w.u64(total);
    w.u64(sum);
}

fn get_hist(r: &mut SnapReader) -> Result<Histogram, SnapError> {
    let n = r.count("histogram bucket count", 8)?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push(r.u64()?);
    }
    let overflow = r.u64()?;
    let total = r.u64()?;
    let sum = r.u64()?;
    Ok(Histogram::from_raw_parts(buckets, overflow, total, sum))
}

fn put_log_hist(w: &mut SnapWriter, h: &LogHistogram) {
    let (buckets, total, sum, max) = h.raw_parts();
    w.usize(buckets.len());
    for &b in buckets {
        w.u64(b);
    }
    w.u64(total);
    w.f64(sum);
    w.u64(max);
}

fn get_log_hist(r: &mut SnapReader) -> Result<LogHistogram, SnapError> {
    let n = r.usize()?;
    if n != LogHistogram::new().raw_parts().0.len() {
        return Err(SnapError::Invalid {
            what: "log histogram bucket count",
            value: n as u64,
        });
    }
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        buckets.push(r.u64()?);
    }
    let total = r.u64()?;
    let sum = r.f64()?;
    let max = r.u64()?;
    Ok(LogHistogram::from_raw_parts(buckets, total, sum, max))
}

/// Serialize the mutable open-traffic state. The immutable parameters
/// (rates, edge list, windows, threshold, trace entries) are rebuilt from
/// the run configuration on restore; only the cursors, counters, tables,
/// and statistics travel in the blob.
fn put_open(w: &mut SnapWriter, open: &OpenState) {
    put_rng(w, &open.rng);
    match &open.process {
        ProcessState::Poisson { .. } => w.u8(0),
        ProcessState::Burst { on, phase_end, .. } => {
            w.u8(1);
            w.bool(*on);
            w.u64(*phase_end);
        }
        ProcessState::Diurnal { .. } => w.u8(2),
        ProcessState::Trace { idx, .. } => {
            w.u8(3);
            w.usize(*idx);
        }
    }
    w.u32(open.edge_idx);
    w.u64(open.next_request);
    w.u64(open.arrivals_total);
    w.u64(open.completions_total);
    match open.saturated {
        Some((at, inflight)) => {
            w.bool(true);
            w.u64(at);
            w.u64(inflight);
        }
        None => w.bool(false),
    }
    w.u64(open.qlen_cur);
    w.u64(open.qlen_last);
    put_log_hist(w, &open.sojourn);
    put_stats(w, &open.sojourn_stats);
    put_log_hist(w, &open.qlen_hist);
    // In-flight requests in sorted goal-id order — map iteration order
    // must not leak into the blob.
    put_inflight_map(w, &open.inflight);
    // Overload-protection runtime state (v3): retry stream and pending
    // re-injections, token-bucket level (raw f64 bits), breaker table in
    // sorted (pe, neighbour) order, and the shed/abandonment counters.
    put_rng(w, &open.retry_rng);
    w.f64(open.tokens);
    w.u64(open.tokens_last);
    put_inflight_map(w, &open.retry_pending);
    let mut keys: Vec<(u32, u32)> = open.breaker.keys().copied().collect();
    keys.sort_unstable();
    w.usize(keys.len());
    for key in keys {
        w.u32(key.0);
        w.u32(key.1);
        w.u64(open.breaker[&key]);
    }
    w.u64(open.shed_total);
    w.u64(open.abandoned_deadline);
    w.u64(open.abandoned_deadline_measured);
    w.u64(open.abandoned_retries);
    w.u64(open.retries_total);
    w.u64(open.breaker_opens);
}

/// Write a goal-id → in-flight-request table in sorted goal-id order (map
/// iteration order must not leak into the blob).
fn put_inflight_map(w: &mut SnapWriter, map: &FastHashMap<GoalId, Inflight>) {
    let mut ids: Vec<GoalId> = map.keys().copied().collect();
    ids.sort_unstable();
    w.usize(ids.len());
    for id in ids {
        let infl = map[&id];
        w.u64(id.0);
        w.u64(infl.request);
        w.u64(infl.arrived);
        w.u32(infl.attempts);
    }
}

fn get_inflight_map(r: &mut SnapReader) -> Result<FastHashMap<GoalId, Inflight>, SnapError> {
    let mut map = FastHashMap::default();
    for _ in 0..r.usize()? {
        let id = GoalId(r.u64()?);
        let infl = Inflight {
            request: r.u64()?,
            arrived: r.u64()?,
            attempts: r.u32()?,
        };
        map.insert(id, infl);
    }
    Ok(map)
}

/// Restore state written by [`put_open`] into the freshly built
/// [`OpenState`] (whose immutable parameters came from the configuration).
fn get_open(r: &mut SnapReader, open: &mut OpenState) -> Result<(), RestoreFail> {
    open.rng = get_rng(r)?;
    let tag = r.u8()?;
    match (&mut open.process, tag) {
        (ProcessState::Poisson { .. }, 0) => {}
        (ProcessState::Burst { on, phase_end, .. }, 1) => {
            *on = r.bool()?;
            *phase_end = r.u64()?;
        }
        (ProcessState::Diurnal { .. }, 2) => {}
        (ProcessState::Trace { entries, idx }, 3) => {
            let i = r.usize()?;
            if i > entries.len() {
                return Err(RestoreFail::Mismatch(format!(
                    "snapshot arrival-trace cursor {i} exceeds this machine's trace \
                     length {}",
                    entries.len()
                )));
            }
            *idx = i;
        }
        (_, t) => {
            return Err(RestoreFail::Mismatch(format!(
                "snapshot arrival process (tag {t}) does not match this machine's \
                 configured process"
            )))
        }
    }
    open.edge_idx = r.u32()?;
    open.next_request = r.u64()?;
    open.arrivals_total = r.u64()?;
    open.completions_total = r.u64()?;
    open.saturated = if r.bool()? {
        Some((r.u64()?, r.u64()?))
    } else {
        None
    };
    open.qlen_cur = r.u64()?;
    open.qlen_last = r.u64()?;
    open.sojourn = get_log_hist(r)?;
    open.sojourn_stats = get_stats(r)?;
    open.qlen_hist = get_log_hist(r)?;
    open.inflight = get_inflight_map(r)?;
    open.retry_rng = get_rng(r)?;
    open.tokens = r.f64()?;
    open.tokens_last = r.u64()?;
    open.retry_pending = get_inflight_map(r)?;
    open.breaker = FastHashMap::default();
    for _ in 0..r.usize()? {
        let key = (r.u32()?, r.u32()?);
        let until = r.u64()?;
        open.breaker.insert(key, until);
    }
    open.shed_total = r.u64()?;
    open.abandoned_deadline = r.u64()?;
    open.abandoned_deadline_measured = r.u64()?;
    open.abandoned_retries = r.u64()?;
    open.retries_total = r.u64()?;
    open.breaker_opens = r.u64()?;
    Ok(())
}

fn put_busy(w: &mut SnapWriter, b: &BusyTracker) {
    let (since, accumulated) = b.raw_parts();
    match since {
        Some(t) => {
            w.bool(true);
            w.u64(t.units());
        }
        None => w.bool(false),
    }
    w.u64(accumulated);
}

fn get_busy(r: &mut SnapReader) -> Result<BusyTracker, SnapError> {
    let since = if r.bool()? {
        Some(SimTime(r.u64()?))
    } else {
        None
    };
    let accumulated = r.u64()?;
    Ok(BusyTracker::from_raw_parts(since, accumulated))
}

fn put_series(w: &mut SnapWriter, s: &IntervalSeries) {
    let (width, busy) = s.raw_parts();
    w.u64(width);
    w.usize(busy.len());
    for &b in busy {
        w.u64(b);
    }
}

fn get_series(r: &mut SnapReader) -> Result<IntervalSeries, SnapError> {
    let width = r.u64()?;
    if width == 0 {
        return Err(SnapError::Invalid {
            what: "interval series width",
            value: 0,
        });
    }
    let n = r.count("interval series length", 8)?;
    let mut busy = Vec::with_capacity(n);
    for _ in 0..n {
        busy.push(r.u64()?);
    }
    Ok(IntervalSeries::from_raw_parts(width, busy))
}

fn put_rng(w: &mut SnapWriter, rng: &Rng) {
    for word in rng.state() {
        w.u64(word);
    }
}

fn get_rng(r: &mut SnapReader) -> Result<Rng, SnapError> {
    let mut s = [0u64; 4];
    for word in &mut s {
        *word = r.u64()?;
    }
    Ok(Rng::from_state(s))
}

fn put_pe(w: &mut SnapWriter, pe: &Pe) {
    w.usize(pe.queue.len());
    for item in &pe.queue {
        put_work_item(w, item);
    }
    w.usize(pe.sys_queue.len());
    for item in &pe.sys_queue {
        put_work_item(w, item);
    }
    match &pe.executing {
        Some(e) => {
            w.bool(true);
            put_executing(w, e);
        }
        None => w.bool(false),
    }
    w.u64(pe.exec_start.units());
    w.u64(pe.busy_until.units());
    // Waiting tasks in sorted goal-id order: map iteration order must not
    // leak into the blob or two snapshots of one state could differ.
    let mut ids: Vec<GoalId> = pe.waiting.keys().copied().collect();
    ids.sort_unstable();
    w.usize(ids.len());
    for id in ids {
        let wt = &pe.waiting[&id];
        w.u64(id.0);
        put_spec(w, &wt.spec);
        put_parent(w, &wt.parent);
        w.u32(wt.pending);
        w.i64(wt.acc);
        w.u32(wt.round);
        w.u32(wt.hops);
    }
    w.usize(pe.known_load.len());
    for &l in &pe.known_load {
        w.u32(l);
    }
    put_busy(w, &pe.busy);
    put_series(w, &pe.series);
    w.u32(pe.queued_goals);
    w.u32(pe.queued_responses);
    w.u64(pe.goals_executed);
    w.bool(pe.failed);
    w.u64(pe.transient_factor);
    w.usize(pe.peak_queue);
    put_stats(w, &pe.dispatch_latency);
    put_rng(w, &pe.rng);
    w.u32(pe.key_seq);
    w.u32(pe.goal_seq);
}

fn get_pe(r: &mut SnapReader, id: usize, pe: &mut Pe) -> Result<(), RestoreFail> {
    pe.queue.clear();
    for _ in 0..r.usize()? {
        pe.queue.push_back(get_work_item(r)?);
    }
    pe.sys_queue.clear();
    for _ in 0..r.usize()? {
        pe.sys_queue.push_back(get_work_item(r)?);
    }
    pe.executing = if r.bool()? {
        Some(get_executing(r)?)
    } else {
        None
    };
    pe.exec_start = SimTime(r.u64()?);
    pe.busy_until = SimTime(r.u64()?);
    pe.waiting = FastHashMap::default();
    for _ in 0..r.usize()? {
        let id = GoalId(r.u64()?);
        let wt = Waiting {
            spec: get_spec(r)?,
            parent: get_parent(r)?,
            pending: r.u32()?,
            acc: r.i64()?,
            round: r.u32()?,
            hops: r.u32()?,
        };
        pe.waiting.insert(id, wt);
    }
    let degree = r.usize()?;
    if degree != pe.known_load.len() {
        return Err(RestoreFail::Mismatch(format!(
            "snapshot PE {id} has degree {degree} but this machine's has {}",
            pe.known_load.len()
        )));
    }
    for slot in &mut pe.known_load {
        *slot = r.u32()?;
    }
    pe.busy = get_busy(r)?;
    pe.series = get_series(r)?;
    pe.queued_goals = r.u32()?;
    pe.queued_responses = r.u32()?;
    pe.goals_executed = r.u64()?;
    pe.failed = r.bool()?;
    pe.transient_factor = r.u64()?;
    pe.peak_queue = r.usize()?;
    pe.dispatch_latency = get_stats(r)?;
    pe.rng = get_rng(r)?;
    pe.key_seq = r.u32()?;
    pe.goal_seq = r.u32()?;
    Ok(())
}

fn put_channel(w: &mut SnapWriter, ch: &Channel) {
    match &ch.in_flight {
        Some(f) => {
            w.bool(true);
            put_flight(w, f);
        }
        None => w.bool(false),
    }
    w.usize(ch.backlog.len());
    for f in &ch.backlog {
        put_flight(w, f);
    }
    put_busy(w, &ch.busy);
    w.u64(ch.transfers);
    w.usize(ch.max_backlog);
    w.bool(ch.down);
    w.u32(ch.key_seq);
}

fn get_channel(r: &mut SnapReader, ch: &mut Channel) -> Result<(), SnapError> {
    ch.in_flight = if r.bool()? {
        Some(get_flight(r)?)
    } else {
        None
    };
    ch.backlog.clear();
    for _ in 0..r.usize()? {
        ch.backlog.push_back(get_flight(r)?);
    }
    ch.busy = get_busy(r)?;
    ch.transfers = r.u64()?;
    ch.max_backlog = r.usize()?;
    ch.down = r.bool()?;
    ch.key_seq = r.u32()?;
    Ok(())
}

/// The number of materialized `what` pages a snapshot holds, at most the
/// `num_pages` this machine has.
fn page_count(r: &mut SnapReader, what: &str, num_pages: usize) -> Result<usize, RestoreFail> {
    let n = r.usize()?;
    if n > num_pages {
        return Err(RestoreFail::Mismatch(format!(
            "snapshot has {n} {what} pages for a machine with {num_pages}"
        )));
    }
    Ok(n)
}

/// The next materialized `what` page index: in range, and above `prev`
/// (pages are encoded in strictly ascending order).
fn page_index(
    r: &mut SnapReader,
    what: &str,
    num_pages: usize,
    prev: &mut Option<usize>,
) -> Result<usize, RestoreFail> {
    let p = r.usize()?;
    if p >= num_pages {
        return Err(RestoreFail::Mismatch(format!(
            "snapshot {what} page {p} out of range (machine has {num_pages} pages)"
        )));
    }
    if prev.is_some_and(|q| p <= q) {
        return Err(RestoreFail::Mismatch(format!(
            "snapshot {what} pages out of order ({p} after {})",
            prev.unwrap_or(0)
        )));
    }
    *prev = Some(p);
    Ok(p)
}

impl Machine {
    /// Serialize the machine's complete mutable state. Restoring the bytes
    /// into a machine freshly constructed from the same run configuration
    /// (via [`Machine::restore_bytes`]) continues the run bit-identically.
    ///
    /// Takes `&mut self` because serializing the event queue drains it in
    /// pop order and rebuilds it, and silent load words are woken first;
    /// the machine's observable state is unchanged.
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        self.core.wake_silent_words();
        let now = self.core.events.now();
        let processed = self.core.events.events_processed();
        let mut pending: Vec<_> = std::iter::from_fn(|| self.core.events.pop_keyed()).collect();
        self.core.unqueue_successors(&mut pending);
        let mut w = SnapWriter::with_capacity(4096);
        w.u32(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.usize(self.core.pes.len());
        w.usize(self.core.channels.len());
        put_rng(&mut w, &self.core.rng);
        put_rng(&mut w, &self.core.fault_rng);
        w.u32(self.core.env_key_seq);
        w.u32(self.core.env_goal_seq);
        w.u64(self.core.goals_created);
        w.u64(self.core.goals_executed);
        w.u64(self.core.responses_processed);
        w.u64(self.core.seq_work);
        w.u64(self.core.traffic.goal_hops);
        w.u64(self.core.traffic.response_hops);
        w.u64(self.core.traffic.control_msgs);
        w.u64(self.core.traffic.load_updates);
        put_hist(&mut w, &self.core.hop_hist);
        put_series(&mut w, &self.core.global_series);
        match self.core.root_result {
            Some((v, t)) => {
                w.bool(true);
                w.i64(v);
                w.u64(t.units());
            }
            None => w.bool(false),
        }
        w.u64(self.core.last_progress.0);
        w.u64(self.core.last_progress.1);
        w.u64(self.core.last_progress.2);
        w.u64(self.core.next_check);
        w.u64(self.core.next_audit);
        w.u64(self.core.last_audit_now);
        // Fault / recovery state, tracking map in sorted goal-id order.
        let f = &self.core.faults;
        let mut ids: Vec<GoalId> = f.outstanding.keys().copied().collect();
        ids.sort_unstable();
        w.usize(ids.len());
        for id in ids {
            let o = &f.outstanding[&id];
            w.u64(id.0);
            put_parent(&mut w, &o.parent);
            put_spec(&mut w, &o.spec);
            w.u32(o.attempts);
            w.u64(o.first_created);
            put_opt_u32(&mut w, o.resident.map(|pe| pe.0));
        }
        w.u32(f.pes_crashed);
        w.u64(f.goals_lost);
        w.u64(f.messages_dropped);
        w.u64(f.goals_respawned);
        w.u64(f.duplicate_responses);
        w.u64(f.retries_exhausted);
        put_stats(&mut w, &f.recovery_latency);
        // Open-traffic runtime state; presence must match the restoring
        // machine's configuration.
        match self.core.open.as_deref() {
            Some(open) => {
                w.bool(true);
                put_open(&mut w, open);
            }
            None => w.bool(false),
        }
        // PEs and channels as their materialized pages, in ascending page
        // order: O(touched pages) however large the machine.
        w.usize(self.core.pes.materialized_pages());
        for (p, slots) in self.core.pes.pages() {
            w.usize(p);
            for pe in slots {
                put_pe(&mut w, pe);
            }
        }
        w.usize(self.core.channels.materialized_pages());
        for (p, slots) in self.core.channels.pages() {
            w.usize(p);
            for ch in slots {
                put_channel(&mut w, ch);
            }
        }
        w.u64(now.units());
        w.u64(processed);
        w.usize(pending.len());
        for (at, key, ev) in &pending {
            w.u64(at.units());
            w.u64(*key);
            put_event(&mut w, ev);
        }
        w.str(self.strategy.name());
        w.bytes(&self.strategy.snapshot_state());
        self.core.events = CalendarQueue::from_snapshot(now, processed, pending);
        w.into_bytes()
    }

    /// Restore state captured by [`Machine::snapshot_bytes`] into this
    /// freshly constructed machine. Call *instead of* [`Machine::begin`] —
    /// everything `begin` arms (broadcasts, fault-plan events, the root
    /// goal) is already inside the snapshot — then drive the run with
    /// [`Machine::advance_until`] / [`Machine::finish`] as usual.
    ///
    /// Fails with [`SimError::InvalidConfig`] when the bytes are corrupt,
    /// from a different snapshot version, or from a machine with a
    /// different shape (PE/channel counts, degrees, strategy). A failed
    /// restore leaves the machine partially written — discard it.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        match self.restore_inner(bytes) {
            Ok(()) => Ok(()),
            Err(RestoreFail::Codec(e)) => Err(SimError::InvalidConfig(format!(
                "corrupt machine snapshot: {e}"
            ))),
            Err(RestoreFail::Mismatch(msg)) => Err(SimError::InvalidConfig(msg)),
        }
    }

    fn restore_inner(&mut self, bytes: &[u8]) -> Result<(), RestoreFail> {
        let mut r = SnapReader::new(bytes);
        let magic = r.u32()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(RestoreFail::Mismatch(format!(
                "not a machine snapshot (magic {magic:#010x})"
            )));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(RestoreFail::Mismatch(format!(
                "machine snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
            )));
        }
        let num_pes = r.usize()?;
        let num_channels = r.usize()?;
        if num_pes != self.core.num_pes() || num_channels != self.core.channels.len() {
            return Err(RestoreFail::Mismatch(format!(
                "snapshot is of a {num_pes}-PE/{num_channels}-channel machine but this one has \
                 {} PEs and {} channels",
                self.core.num_pes(),
                self.core.channels.len()
            )));
        }
        self.core.rng = get_rng(&mut r)?;
        self.core.fault_rng = get_rng(&mut r)?;
        self.core.env_key_seq = r.u32()?;
        self.core.env_goal_seq = r.u32()?;
        self.core.goals_created = r.u64()?;
        self.core.goals_executed = r.u64()?;
        self.core.responses_processed = r.u64()?;
        self.core.seq_work = r.u64()?;
        self.core.traffic.goal_hops = r.u64()?;
        self.core.traffic.response_hops = r.u64()?;
        self.core.traffic.control_msgs = r.u64()?;
        self.core.traffic.load_updates = r.u64()?;
        self.core.hop_hist = get_hist(&mut r)?;
        self.core.global_series = get_series(&mut r)?;
        self.core.root_result = if r.bool()? {
            let v = r.i64()?;
            let t = r.u64()?;
            Some((v, SimTime(t)))
        } else {
            None
        };
        self.core.last_progress = (r.u64()?, r.u64()?, r.u64()?);
        self.core.next_check = r.u64()?;
        self.core.next_audit = r.u64()?;
        self.core.last_audit_now = r.u64()?;
        self.core.faults.outstanding = FastHashMap::default();
        for _ in 0..r.usize()? {
            let id = GoalId(r.u64()?);
            let o = Outstanding {
                parent: get_parent(&mut r)?,
                spec: get_spec(&mut r)?,
                attempts: r.u32()?,
                first_created: r.u64()?,
                resident: get_opt_u32(&mut r)?.map(PeId),
            };
            self.core.faults.outstanding.insert(id, o);
        }
        self.core.faults.pes_crashed = r.u32()?;
        self.core.faults.goals_lost = r.u64()?;
        self.core.faults.messages_dropped = r.u64()?;
        self.core.faults.goals_respawned = r.u64()?;
        self.core.faults.duplicate_responses = r.u64()?;
        self.core.faults.retries_exhausted = r.u64()?;
        self.core.faults.recovery_latency = get_stats(&mut r)?;
        let has_open = r.bool()?;
        match (has_open, self.core.open.as_deref_mut()) {
            (true, Some(open)) => get_open(&mut r, open)?,
            (false, None) => {}
            (true, None) => {
                return Err(RestoreFail::Mismatch(
                    "snapshot is of an open-traffic run but this machine is a closed run".into(),
                ))
            }
            (false, Some(_)) => {
                return Err(RestoreFail::Mismatch(
                    "snapshot is of a closed run but this machine has open traffic configured"
                        .into(),
                ))
            }
        }
        let core = &mut self.core;
        core.pes.clear();
        let mut prev = None;
        for _ in 0..page_count(&mut r, "PE", core.pes.num_pages())? {
            let p = page_index(&mut r, "PE", core.pes.num_pages(), &mut prev)?;
            let (topo, config) = (&core.topo, &core.config);
            let slots = core
                .pes
                .page_slots_mut_or(p, |id| fresh_pe(topo, config, id));
            let base = p << crate::sparse::PAGE_BITS;
            for (i, pe) in slots.iter_mut().enumerate() {
                get_pe(&mut r, base + i, pe)?;
            }
        }
        core.channels.clear();
        let mut prev = None;
        for _ in 0..page_count(&mut r, "channel", core.channels.num_pages())? {
            let p = page_index(&mut r, "channel", core.channels.num_pages(), &mut prev)?;
            for ch in core.channels.page_slots_mut_or(p, |_| Channel::new()) {
                get_channel(&mut r, ch)?;
            }
        }
        let now = SimTime(r.u64()?);
        let processed = r.u64()?;
        // Each event is at least its time, its key and a one-byte tag.
        let n_events = r.count("event count", 17)?;
        let mut events = Vec::with_capacity(n_events);
        let mut prev = now;
        for _ in 0..n_events {
            let at = SimTime(r.u64()?);
            if at < prev {
                return Err(RestoreFail::Mismatch(format!(
                    "snapshot event queue is not in pop order ({at} after {prev})"
                )));
            }
            prev = at;
            let key = r.u64()?;
            events.push((at, key, get_event(&mut r)?));
        }
        self.core.events = CalendarQueue::from_snapshot(now, processed, events);
        let strategy = r.str()?;
        let payload = r.bytes()?;
        r.finish()?;
        // Live routing tables are derived state: recompute them from the
        // restored health (a no-op back to `None` at full health), exactly
        // as the fault handlers maintained them along the original run.
        self.core.rebuild_live_routes();
        if strategy != self.strategy.name() {
            return Err(RestoreFail::Mismatch(format!(
                "strategy snapshot was taken from `{strategy}` but is being restored into `{}`",
                self.strategy.name()
            )));
        }
        self.strategy
            .restore_state(payload, &self.core)
            .map_err(RestoreFail::Mismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::cost::CostModel;
    use crate::faults::{FaultPlan, RecoveryParams};
    use crate::machine::Core;
    use crate::open::{ArrivalSpec, OpenTraffic};
    use crate::program::Program;
    use crate::strategy::Strategy;
    use oracle_topo::misc::ring;

    struct Fib(i64);

    impl Program for Fib {
        fn name(&self) -> String {
            format!("fib({})", self.0)
        }
        fn root(&self) -> TaskSpec {
            TaskSpec::new(self.0, 0)
        }
        fn expand(&self, spec: &TaskSpec) -> Expansion {
            if spec.a < 2 {
                Expansion::Leaf(spec.a)
            } else {
                Expansion::Split([spec.child(spec.a - 1, 0), spec.child(spec.a - 2, 0)].into())
            }
        }
        fn combine(&self, _spec: &TaskSpec, acc: i64, child: i64) -> i64 {
            acc + child
        }
    }

    /// Scatter goals one hop around the ring (exercises channels, known
    /// loads, and responses); stateless, so the default snapshot hooks
    /// apply.
    struct ScatterRing;

    impl Strategy for ScatterRing {
        fn name(&self) -> &'static str {
            "scatter-ring"
        }
        fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
            let next = PeId((pe.0 + 1) % core.num_pes() as u32);
            core.forward_goal(pe, next, goal);
        }
        fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
            core.accept_goal(pe, goal);
        }
    }

    fn machine(cfg: MachineConfig) -> Machine {
        Machine::new(
            ring(4),
            Box::new(Fib(14)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap()
    }

    /// Drive a begun (or restored) machine to its end and render the full
    /// outcome — report or error — so success *and* failure trajectories
    /// must match bit-for-bit.
    fn run_to_end(mut m: Machine) -> String {
        match m.advance_until(None) {
            Ok(_) => format!("{:?}", m.finish().map(|(report, _)| report)),
            Err(e) => format!("Err({e:?})"),
        }
    }

    fn resume_matches_uninterrupted(cfg: MachineConfig) {
        let mut plain = machine(cfg.clone());
        plain.begin();
        let baseline = run_to_end(plain);

        let mut first = machine(cfg.clone());
        first.begin();
        let done = first.advance_until(Some(120)).unwrap();
        assert!(!done, "run should pause before completing");
        let bytes = first.snapshot_bytes();

        // The snapshotted machine itself keeps running to the same outcome…
        assert_eq!(run_to_end(first), baseline);

        // …and so does a fresh machine restored from the bytes.
        let mut resumed = machine(cfg);
        resumed.restore_bytes(&bytes).unwrap();
        assert_eq!(run_to_end(resumed), baseline);
    }

    #[test]
    fn audited_run_is_bit_identical_to_unaudited() {
        let base = machine(MachineConfig::default().with_seed(5))
            .run()
            .unwrap();
        let audited = machine(MachineConfig {
            audit_every: 1,
            ..MachineConfig::default().with_seed(5)
        })
        .run()
        .unwrap();
        assert_eq!(format!("{audited:?}"), format!("{base:?}"));
    }

    #[test]
    fn resume_is_bit_identical_on_both_backends() {
        resume_matches_uninterrupted(MachineConfig::default().with_seed(7));
    }

    #[test]
    fn resume_is_bit_identical_under_faults() {
        let cfg = MachineConfig {
            fault_plan: FaultPlan::default()
                .crash(2, 400)
                .with_loss(0.01)
                .with_recovery(RecoveryParams::default()),
            audit_every: 64,
            ..MachineConfig::default().with_seed(11)
        };
        resume_matches_uninterrupted(cfg);
    }

    #[test]
    fn open_resume_is_bit_identical_mid_measurement_window() {
        let spec: ArrivalSpec = "poisson:5".parse().unwrap();
        let cfg = MachineConfig {
            open: Some(OpenTraffic {
                warmup: 200,
                ..OpenTraffic::new(spec, 2000)
            }),
            ..MachineConfig::default().with_seed(9)
        };
        // Early pause (still in warmup).
        resume_matches_uninterrupted(cfg.clone());

        // Pause well inside the measurement window, where sojourn samples
        // and the in-flight table are non-trivial.
        let mut plain = machine(cfg.clone());
        plain.begin();
        let baseline = run_to_end(plain);

        let mut first = machine(cfg.clone());
        first.begin();
        let done = first.advance_until(Some(900)).unwrap();
        assert!(!done, "open run should pause before its horizon");
        let bytes = first.snapshot_bytes();
        assert_eq!(run_to_end(first), baseline);

        let mut resumed = machine(cfg);
        resumed.restore_bytes(&bytes).unwrap();
        assert_eq!(run_to_end(resumed), baseline);

        // An open snapshot refuses a closed machine (and vice versa).
        let mut closed = machine(MachineConfig::default().with_seed(9));
        let err = closed.restore_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("open-traffic"), "{err}");
    }

    #[test]
    fn overload_state_resume_is_bit_identical_under_faults() {
        // Deadline + retry + admission + breaker all active, plus a crash
        // and message loss, so the v3 block (retry RNG, pending retries,
        // bucket level, breaker table, counters) is non-trivial at the
        // pause point.
        let spec: ArrivalSpec = "poisson:5".parse().unwrap();
        let cfg = MachineConfig {
            open: Some(OpenTraffic {
                warmup: 200,
                deadline: Some(600),
                retry: Some("3x50".parse().unwrap()),
                admission: Some("bucket:8x4".parse().unwrap()),
                breaker: Some(300),
                ..OpenTraffic::new(spec, 2000)
            }),
            fault_plan: FaultPlan::default().crash(2, 600).with_loss(0.02),
            ..MachineConfig::default().with_seed(13)
        };
        let mut plain = machine(cfg.clone());
        plain.begin();
        let baseline = run_to_end(plain);

        // Pause after the crash so breaker/retry state is in play.
        let mut first = machine(cfg.clone());
        first.begin();
        let done = first.advance_until(Some(900)).unwrap();
        assert!(!done, "overload run should pause before its horizon");
        let bytes = first.snapshot_bytes();
        assert_eq!(run_to_end(first), baseline);

        let mut resumed = machine(cfg);
        resumed.restore_bytes(&bytes).unwrap();
        assert_eq!(run_to_end(resumed), baseline);
    }

    #[test]
    fn restore_rejects_corrupt_and_mismatched_blobs() {
        let cfg = MachineConfig::default().with_seed(3);
        let mut m = machine(cfg.clone());
        m.begin();
        m.advance_until(Some(50)).unwrap();
        let bytes = m.snapshot_bytes();

        // Truncation anywhere is a decode error, not a panic.
        let mut fresh = machine(cfg.clone());
        let err = fresh.restore_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");

        // Garbage magic is rejected up front.
        let mut fresh = machine(cfg.clone());
        let err = fresh.restore_bytes(&[0u8; 64]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // A machine of a different shape refuses the blob.
        let mut other = Machine::new(
            ring(8),
            Box::new(Fib(14)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap();
        let err = other.restore_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("8 PEs"), "{err}");
    }

    #[test]
    fn page_headers_out_of_range_or_order_are_refused() {
        let mut w = SnapWriter::with_capacity(64);
        for v in [5usize, 2, 2, 9, 1, 3] {
            w.usize(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mismatch = |e: RestoreFail| match e {
            RestoreFail::Mismatch(msg) => msg,
            RestoreFail::Codec(e) => panic!("expected a mismatch, got {e}"),
        };
        // More pages than the machine has.
        let msg = mismatch(page_count(&mut r, "PE", 4).unwrap_err());
        assert!(msg.contains("5 PE pages"), "{msg}");
        let mut prev = None;
        assert_eq!(page_index(&mut r, "PE", 4, &mut prev).ok(), Some(2));
        // A repeated page.
        let msg = mismatch(page_index(&mut r, "PE", 4, &mut prev).unwrap_err());
        assert!(msg.contains("out of order"), "{msg}");
        // A page past the end of the id space.
        let msg = mismatch(page_index(&mut r, "channel", 4, &mut None).unwrap_err());
        assert!(msg.contains("channel page 9 out of range"), "{msg}");
        // A page below its predecessor.
        let mut prev = Some(2);
        let msg = mismatch(page_index(&mut r, "PE", 4, &mut prev).unwrap_err());
        assert!(msg.contains("out of order"), "{msg}");
        assert_eq!(page_index(&mut r, "PE", 4, &mut prev).ok(), Some(3));
    }

    #[test]
    fn restore_rejects_an_event_count_the_blob_cannot_hold() {
        let cfg = MachineConfig::default().with_seed(3);
        let mut m = machine(cfg.clone());
        m.begin();
        m.advance_until(Some(50)).unwrap();
        let q = &m.core.events;
        let mut header = Vec::new();
        for word in [q.now().units(), q.events_processed(), q.len() as u64] {
            header.extend_from_slice(&word.to_le_bytes());
        }
        let mut bytes = m.snapshot_bytes();
        let at = bytes
            .windows(header.len())
            .position(|w| w == header)
            .expect("the queue header is in the blob");
        bytes[at + 16..at + 24].copy_from_slice(&(1u64 << 40).to_le_bytes());

        let err = machine(cfg).restore_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("event count"), "{err}");
    }
}
