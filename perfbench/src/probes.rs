//! Layer probes, run in the traced run only and outside every timed span:
//! a replay of the run's response walks through the topology's router, and
//! a hold model on both event-queue backends.

use std::hint::black_box;
use std::time::Instant;

use oracle::des::{DualQueue, Rng, SimTime};
use oracle::model::{Trace, TraceEvent};
use oracle::topo::{PeId, Topology};

/// The `(from_pe, parent_pe)` pair of every response in `trace`: the walks
/// the run routed hop by hop with `Topology::next_hop`.
pub fn response_walks(trace: &Trace) -> Vec<(PeId, PeId)> {
    trace
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Responded {
                from_pe,
                parent_pe: Some(parent),
                ..
            } => Some((from_pe, parent)),
            _ => None,
        })
        .collect()
}

/// Replay `walks` through `topo.next_hop`, one call per hop. Returns the
/// number of calls and the host nanoseconds they took.
pub fn replay_next_hop(topo: &Topology, walks: &[(PeId, PeId)]) -> (u64, f64) {
    let mut calls = 0u64;
    let t0 = Instant::now();
    for &(from, to) in walks {
        let mut at = from;
        while at != to {
            at = black_box(topo.next_hop(at, to));
            calls += 1;
        }
    }
    (calls, t0.elapsed().as_nanos() as f64)
}

/// Host nanoseconds per hold operation (pop the earliest event, schedule
/// one `U[0, 2 * mean_gap]` units later) on `queue` kept at `depth` events,
/// after `depth` warm-up holds.
pub fn hold_ns(
    mut queue: DualQueue<u32>,
    depth: usize,
    mean_gap: u64,
    ops: usize,
    seed: u64,
) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    let span = 2 * mean_gap.max(1) + 1;
    let mut key = 0u64;
    for _ in 0..depth.max(1) {
        queue.schedule_keyed_at(SimTime(rng.below(span)), key, 0);
        key += 1;
    }
    let mut hold = |queue: &mut DualQueue<u32>, rng: &mut Rng| {
        let (at, payload) = queue.pop().expect("the hold model keeps the queue full");
        queue.schedule_keyed_at(
            SimTime(at.units() + rng.below(span)),
            key,
            black_box(payload),
        );
        key += 1;
    };
    for _ in 0..depth {
        hold(&mut queue, &mut rng);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        hold(&mut queue, &mut rng);
    }
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oracle::topo::TopologySpec;

    #[test]
    fn replay_counts_one_call_per_hop() {
        let topo = TopologySpec::grid(4).build();
        // (0,0) -> (3,3) is six hops; a walk to itself is none.
        let (calls, ns) = replay_next_hop(&topo, &[(PeId(0), PeId(15)), (PeId(5), PeId(5))]);
        assert_eq!(calls, 6);
        assert!(ns >= 0.0);
    }

    #[test]
    fn hold_model_runs_on_both_backends() {
        for q in [DualQueue::calendar(), DualQueue::heap()] {
            let ns = hold_ns(q, 300, 20, 10_000, 1);
            assert!(ns > 0.0 && ns.is_finite());
        }
    }
}
