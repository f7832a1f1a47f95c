//! Mode-switchable dense/sparse containers for per-channel and per-PE
//! bookkeeping.
//!
//! A 10^6-PE torus has two million channels, but a closed run touches only
//! the channels near where work actually flows. The dense representation
//! (one slot per id, the fast default on small machines) charges memory
//! for every idle slot; the sparse representation holds only the slots
//! that were ever written and synthesizes the pristine default on reads.
//!
//! Both representations produce **bit-identical reports**. The reductions
//! at report time (channel-utilization sums, dispatch-latency folds) walk
//! slots in ascending id order in both modes, and every absent sparse slot
//! contributes exactly the terms a pristine dense slot would: `0.0` added
//! to a non-negative f64 accumulator is the identity, and merging an empty
//! [`OnlineStats`] is a no-op — so skipping the untouched slots cannot
//! perturb a single bit of the folds. `tests/sparse_dense.rs` pins this
//! equivalence across the golden cells and a snapshot resume.

use oracle_des::{FastHashMap, OnlineStats};
use oracle_topo::ChannelId;

use crate::channel::Channel;

/// Per-channel state, dense (`Vec` indexed by channel id) or sparse (map
/// of touched channels only).
#[derive(Debug)]
pub enum ChannelTable {
    /// One slot per channel id.
    Dense(Vec<Channel>),
    /// Only the channels that were ever mutated.
    Sparse {
        /// Touched channels, keyed by channel id.
        map: FastHashMap<u32, Channel>,
        /// Total channel count (`Topology::num_channels`), for
        /// invariant checks and snapshot validation.
        len: usize,
        /// A pristine channel returned for reads of untouched slots.
        /// Never mutated: writers go through [`ChannelTable::get_mut`],
        /// which materializes a real slot.
        empty: Channel,
    },
}

impl ChannelTable {
    /// A table for `len` channels in the given representation.
    pub fn new(len: usize, sparse: bool) -> Self {
        if sparse {
            ChannelTable::Sparse {
                map: FastHashMap::default(),
                len,
                empty: Channel::new(),
            }
        } else {
            ChannelTable::Dense((0..len).map(|_| Channel::new()).collect())
        }
    }

    /// Total channel count (touched or not).
    pub fn len(&self) -> usize {
        match self {
            ChannelTable::Dense(v) => v.len(),
            ChannelTable::Sparse { len, .. } => *len,
        }
    }

    /// True if the table covers zero channels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True in the sparse representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self, ChannelTable::Sparse { .. })
    }

    /// Number of channels actually materialized (== `len()` when dense).
    pub fn touched(&self) -> usize {
        match self {
            ChannelTable::Dense(v) => v.len(),
            ChannelTable::Sparse { map, .. } => map.len(),
        }
    }

    /// Read-only view of channel `ch`; untouched sparse slots read as a
    /// pristine idle channel.
    #[inline]
    pub fn get(&self, ch: ChannelId) -> &Channel {
        match self {
            ChannelTable::Dense(v) => &v[ch.idx()],
            ChannelTable::Sparse { map, empty, .. } => map.get(&ch.0).unwrap_or(empty),
        }
    }

    /// Mutable view of channel `ch`, materializing the slot if untouched.
    #[inline]
    pub fn get_mut(&mut self, ch: ChannelId) -> &mut Channel {
        match self {
            ChannelTable::Dense(v) => &mut v[ch.idx()],
            ChannelTable::Sparse { map, len, .. } => {
                debug_assert!(ch.idx() < *len, "channel id out of range");
                map.entry(ch.0).or_insert_with(Channel::new)
            }
        }
    }

    /// The materialized `(id, channel)` slots in ascending id order. In
    /// dense mode that is every channel; in sparse mode only the touched
    /// ones — callers folding over this must treat the missing slots as
    /// pristine (all reductions in this codebase do, see module docs).
    pub fn present(&self) -> Vec<(u32, &Channel)> {
        match self {
            ChannelTable::Dense(v) => v.iter().enumerate().map(|(i, c)| (i as u32, c)).collect(),
            ChannelTable::Sparse { map, .. } => {
                let mut v: Vec<(u32, &Channel)> = map.iter().map(|(&i, c)| (i, c)).collect();
                v.sort_unstable_by_key(|&(i, _)| i);
                v
            }
        }
    }

    /// Reset every slot to the pristine channel (snapshot restore applies
    /// the encoded `(id, state)` pairs on top of this blank table).
    pub fn reset(&mut self) {
        match self {
            ChannelTable::Dense(v) => {
                for c in v.iter_mut() {
                    *c = Channel::new();
                }
            }
            ChannelTable::Sparse { map, .. } => map.clear(),
        }
    }
}

/// Per-PE dispatch-latency accumulators, dense or sparse. Folded in
/// ascending PE order at report time; merging an empty [`OnlineStats`] is
/// the identity, so both representations fold to bit-identical floats.
#[derive(Debug)]
pub enum DispatchLatency {
    /// One accumulator per PE.
    Dense(Vec<OnlineStats>),
    /// Accumulators only for PEs that ever started a goal.
    Sparse(FastHashMap<u32, OnlineStats>),
}

impl DispatchLatency {
    /// A table for `num_pes` PEs in the given representation.
    pub fn new(num_pes: usize, sparse: bool) -> Self {
        if sparse {
            DispatchLatency::Sparse(FastHashMap::default())
        } else {
            DispatchLatency::Dense(vec![OnlineStats::new(); num_pes])
        }
    }

    /// Record one dispatch latency observed on `pe`.
    #[inline]
    pub fn record(&mut self, pe: u32, value: f64) {
        match self {
            DispatchLatency::Dense(v) => v[pe as usize].record(value),
            DispatchLatency::Sparse(map) => {
                map.entry(pe).or_insert_with(OnlineStats::new).record(value)
            }
        }
    }

    /// Fold every accumulator into one, in ascending PE order.
    pub fn fold(&self) -> OnlineStats {
        let mut out = OnlineStats::new();
        match self {
            DispatchLatency::Dense(v) => {
                for s in v {
                    out.merge(s);
                }
            }
            DispatchLatency::Sparse(map) => {
                let mut ids: Vec<u32> = map.keys().copied().collect();
                ids.sort_unstable();
                for id in ids {
                    out.merge(&map[&id]);
                }
            }
        }
        out
    }

    /// The materialized `(pe, stats)` slots in ascending PE order (every
    /// PE when dense, touched PEs when sparse).
    pub fn present(&self) -> Vec<(u32, &OnlineStats)> {
        match self {
            DispatchLatency::Dense(v) => v.iter().enumerate().map(|(i, s)| (i as u32, s)).collect(),
            DispatchLatency::Sparse(map) => {
                let mut v: Vec<(u32, &OnlineStats)> = map.iter().map(|(&i, s)| (i, s)).collect();
                v.sort_unstable_by_key(|&(i, _)| i);
                v
            }
        }
    }

    /// Mutable view of PE `p`'s accumulator, materializing it if absent
    /// (snapshot restore writes decoded accumulators through this).
    pub fn slot_mut(&mut self, pe: u32) -> &mut OnlineStats {
        match self {
            DispatchLatency::Dense(v) => &mut v[pe as usize],
            DispatchLatency::Sparse(map) => map.entry(pe).or_insert_with(OnlineStats::new),
        }
    }

    /// Reset every accumulator to empty (snapshot restore applies the
    /// encoded `(pe, stats)` pairs on top of this blank table).
    pub fn reset(&mut self) {
        match self {
            DispatchLatency::Dense(v) => {
                for s in v.iter_mut() {
                    *s = OnlineStats::new();
                }
            }
            DispatchLatency::Sparse(map) => map.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oracle_des::SimTime;

    #[test]
    fn sparse_reads_untouched_as_pristine() {
        let t = ChannelTable::new(100, true);
        let ch = t.get(ChannelId(57));
        assert!(!ch.is_busy());
        assert!(!ch.down);
        assert_eq!(ch.transfers, 0);
        assert_eq!(t.touched(), 0);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn sparse_materializes_on_write_and_iterates_sorted() {
        let mut t = ChannelTable::new(100, true);
        t.get_mut(ChannelId(42)).transfers = 7;
        t.get_mut(ChannelId(3)).down = true;
        assert_eq!(t.touched(), 2);
        let ids: Vec<u32> = t.present().iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![3, 42]);
        assert_eq!(t.get(ChannelId(42)).transfers, 7);
    }

    #[test]
    fn dense_present_covers_all() {
        let mut t = ChannelTable::new(4, false);
        t.get_mut(ChannelId(2)).transfers = 1;
        assert_eq!(t.present().len(), 4);
        assert_eq!(t.touched(), 4);
    }

    #[test]
    fn dispatch_fold_matches_dense_and_sparse() {
        let mut d = DispatchLatency::new(10, false);
        let mut s = DispatchLatency::new(10, true);
        for (pe, v) in [(3u32, 5.0), (7, 2.0), (3, 9.0), (0, 1.0)] {
            d.record(pe, v);
            s.record(pe, v);
        }
        let (fd, fs) = (d.fold(), s.fold());
        assert_eq!(fd.mean().to_bits(), fs.mean().to_bits());
        assert_eq!(fd.count(), fs.count());
        assert_eq!(s.present().len(), 3);
        assert_eq!(d.present().len(), 10);
    }

    #[test]
    fn channel_state_survives_sparse_roundtrip() {
        let mut t = ChannelTable::new(10, true);
        t.get_mut(ChannelId(1)).offer(
            crate::message::Flight {
                from: oracle_topo::PeId(0),
                dest: crate::message::FlightDest::Broadcast,
                piggyback_load: None,
                packet: crate::message::Packet::LoadUpdate { load: 3 },
            },
            SimTime(0),
        );
        assert!(t.get(ChannelId(1)).is_busy());
        assert!(!t.get(ChannelId(2)).is_busy());
    }
}
