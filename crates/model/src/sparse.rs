//! The paged slab behind every per-PE and per-channel state store.
//!
//! A 10^6-PE torus has two million channels, but a closed run touches only
//! the PEs and channels near where work actually flows. The slab splits
//! the id space into fixed pages of [`PAGE_SIZE`] slots and allocates a
//! page on its first write, so a machine's memory, construction, report
//! and drop cost follow the pages the run touched, not the machine size.
//!
//! - Indexing is `pages[id >> PAGE_BITS][id & PAGE_MASK]`: O(1), no
//!   hashing.
//! - A read of an untouched slot returns the slab's pristine value without
//!   materializing anything. The pristine value must equal what
//!   materializing that slot would produce, for every field a reader looks
//!   at; the machine keeps id-dependent state (RNG seeds, neighbour-load
//!   tables) behind mutable access, which always materializes.
//! - Iteration walks the materialized pages in ascending id order.
//!
//! Reductions at report time fold over the materialized slots in id order.
//! Every untouched slot is pristine and contributes exactly what a pristine
//! slot in a dense array would: `0.0` added to a non-negative f64
//! accumulator is the identity, merging an empty [`oracle_des::OnlineStats`]
//! is a no-op, and folds whose per-slot term is not an identity (the
//! utilization variance) add that term once per untouched id, in id order.

/// log2 of the page size. Small pages keep scattered touches cheap: on a
/// 10^6-PE random graph a run touches ~5% of the PEs and ~6% of the
/// channels, spread over the whole id space, so 256-slot pages would all
/// be built while 8-slot pages leave most of them untouched.
pub const PAGE_BITS: u32 = 3;
/// Slots per page.
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_SIZE - 1;

/// One page. A fixed-size array, so a slot index masked by `PAGE_MASK`
/// needs no bounds check; the last page's slots past the final id hold
/// copies of the pristine value and are never exposed.
type Page<T> = Box<[T; PAGE_SIZE]>;

/// Per-id state in pages materialized on first write.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    pages: Vec<Option<Page<T>>>,
    len: usize,
    /// What every untouched slot reads as. Never mutated: writers go
    /// through [`Slab::get_mut_or`], which materializes a real page.
    pristine: T,
    materialized: usize,
}

impl<T: Clone> Slab<T> {
    /// A slab covering ids `0..len`, every slot reading as `pristine`.
    pub fn new(len: usize, pristine: T) -> Self {
        Slab {
            pages: (0..len.div_ceil(PAGE_SIZE)).map(|_| None).collect(),
            len,
            pristine,
            materialized: 0,
        }
    }

    /// Number of ids covered (touched or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of pages covering the id space.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages allocated so far.
    pub fn materialized_pages(&self) -> usize {
        self.materialized
    }

    /// Number of slots in the allocated pages.
    pub fn materialized_slots(&self) -> usize {
        self.pages().map(|(_, page)| page.len()).sum()
    }

    /// This store's materialized pages and slots out of its totals, for
    /// the profiler's `state` line.
    pub fn footprint(&self, name: &str) -> oracle_des::StoreFootprint {
        oracle_des::StoreFootprint {
            name: name.to_string(),
            pages: self.materialized_pages() as u64,
            pages_total: self.num_pages() as u64,
            slots: self.materialized_slots() as u64,
            slots_total: self.len as u64,
        }
    }

    /// Number of real ids on page `p` (fewer than [`PAGE_SIZE`] only on
    /// the last page).
    fn page_len(&self, p: usize) -> usize {
        (self.len - (p << PAGE_BITS)).min(PAGE_SIZE)
    }

    /// Read slot `id`; an untouched slot reads as the pristine value.
    #[inline]
    pub fn get(&self, id: usize) -> &T {
        debug_assert!(id < self.len, "slab id {id} out of range");
        match &self.pages[id >> PAGE_BITS] {
            Some(page) => &page[id & PAGE_MASK],
            None => &self.pristine,
        }
    }

    /// Mutable slot `id`, materializing its page first if needed: every
    /// slot of a new page is built by `init(slot_id)`.
    #[inline]
    pub fn get_mut_or(&mut self, id: usize, init: impl FnMut(usize) -> T) -> &mut T {
        debug_assert!(id < self.len, "slab id {id} out of range");
        &mut self.page_mut_or(id >> PAGE_BITS, init)[id & PAGE_MASK]
    }

    /// Page `p`, materializing it first with `init` if needed. The
    /// returned array's slots past the last id are filler.
    #[inline]
    fn page_mut_or(&mut self, p: usize, init: impl FnMut(usize) -> T) -> &mut Page<T> {
        if self.pages[p].is_none() {
            self.materialize(p, init);
        }
        match &mut self.pages[p] {
            Some(page) => page,
            None => unreachable!("page {p} was just materialized"),
        }
    }

    /// Build page `p`. Out of line and cold, so the hot write path is a
    /// null check, not a copy of every slot constructor.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, p: usize, mut init: impl FnMut(usize) -> T) {
        let base = p << PAGE_BITS;
        let (len, pristine) = (self.len, &self.pristine);
        let page: Page<T> = Box::new(std::array::from_fn(|i| {
            if base + i < len {
                init(base + i)
            } else {
                pristine.clone()
            }
        }));
        self.pages[p] = Some(page);
        self.materialized += 1;
    }

    /// The real slots of page `p`, materializing it first with `init` if
    /// needed (snapshot restore writes decoded slots through this).
    pub fn page_slots_mut_or(&mut self, p: usize, init: impl FnMut(usize) -> T) -> &mut [T] {
        let n = self.page_len(p);
        &mut self.page_mut_or(p, init)[..n]
    }

    /// The allocated pages as `(page index, real slots)`, in ascending
    /// order.
    pub fn pages(&self) -> impl Iterator<Item = (usize, &[T])> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| page.as_deref().map(|slots| (p, &slots[..self.page_len(p)])))
    }

    /// Every page in ascending order, `None` for the untouched ones, with
    /// the number of ids each covers.
    pub fn all_pages(&self) -> impl Iterator<Item = (usize, Option<&[T]>)> + '_ {
        self.pages.iter().enumerate().map(|(p, page)| {
            let n = self.page_len(p);
            (n, page.as_deref().map(|slots| &slots[..n]))
        })
    }

    /// The materialized `(id, slot)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        self.pages().flat_map(|(p, slots)| {
            slots
                .iter()
                .enumerate()
                .map(move |(i, s)| ((p << PAGE_BITS) + i, s))
        })
    }

    /// The materialized `(id, slot)` pairs in ascending id order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> + '_ {
        let len = self.len;
        self.pages
            .iter_mut()
            .enumerate()
            .filter_map(|(p, page)| page.as_deref_mut().map(|slots| (p, slots)))
            .flat_map(move |(p, slots)| {
                let base = p << PAGE_BITS;
                slots[..(len - base).min(PAGE_SIZE)]
                    .iter_mut()
                    .enumerate()
                    .map(move |(i, s)| (base + i, s))
            })
    }

    /// Drop every page: all slots read as pristine again (snapshot restore
    /// re-materializes the encoded pages on top of this blank slab).
    pub fn clear(&mut self) {
        for page in &mut self.pages {
            *page = None;
        }
        self.materialized = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use oracle_des::{OnlineStats, SimTime};
    use oracle_topo::ChannelId;

    fn channels(len: usize) -> Slab<Channel> {
        Slab::new(len, Channel::new())
    }

    fn chan_mut(t: &mut Slab<Channel>, ch: ChannelId) -> &mut Channel {
        t.get_mut_or(ch.idx(), |_| Channel::new())
    }

    #[test]
    fn sparse_reads_untouched_as_pristine() {
        let t = channels(100);
        let ch = t.get(57);
        assert!(!ch.is_busy());
        assert!(!ch.down);
        assert_eq!(ch.transfers, 0);
        assert_eq!(t.materialized_pages(), 0);
        assert_eq!(t.materialized_slots(), 0);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn sparse_materializes_on_write_and_iterates_sorted() {
        let mut t = channels(2000);
        chan_mut(&mut t, ChannelId(1500)).transfers = 7;
        chan_mut(&mut t, ChannelId(3)).down = true;
        assert_eq!(t.materialized_pages(), 2);
        let touched: Vec<usize> = t
            .iter()
            .filter(|(_, c)| c.transfers > 0 || c.down)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(touched, vec![3, 1500]);
        let ids: Vec<usize> = t.iter().map(|(i, _)| i).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        assert_eq!(ids.len(), 2 * PAGE_SIZE);
        assert_eq!(t.get(1500).transfers, 7);
    }

    #[test]
    fn dense_present_covers_all() {
        // Touch every page: iteration then covers every id exactly once.
        let mut t = channels(3 * PAGE_SIZE + 5);
        for id in (0..t.len()).step_by(PAGE_SIZE) {
            chan_mut(&mut t, ChannelId(id as u32)).transfers = 1;
        }
        assert_eq!(t.materialized_pages(), t.num_pages());
        assert_eq!(t.materialized_slots(), t.len());
        let ids: Vec<usize> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, (0..t.len()).collect::<Vec<_>>());
    }

    #[test]
    fn page_boundaries_and_partial_last_page() {
        let len = 2 * PAGE_SIZE + 3;
        let mut t: Slab<u32> = Slab::new(len, 0);
        assert_eq!(t.num_pages(), 3);
        // Ids on both sides of the first boundary land in different pages.
        *t.get_mut_or(PAGE_SIZE - 1, |_| 0) = 1;
        assert_eq!(t.materialized_pages(), 1);
        *t.get_mut_or(PAGE_SIZE, |_| 0) = 2;
        assert_eq!(t.materialized_pages(), 2);
        assert_eq!((*t.get(PAGE_SIZE - 1), *t.get(PAGE_SIZE)), (1, 2));
        // The last page holds only the ids that exist.
        *t.get_mut_or(len - 1, |id| id as u32) += 10;
        assert_eq!(t.materialized_slots(), 2 * PAGE_SIZE + 3);
        assert_eq!(*t.get(len - 1), (len - 1) as u32 + 10);
        assert_eq!(*t.get(2 * PAGE_SIZE), (2 * PAGE_SIZE) as u32);
        let sizes: Vec<usize> = t.all_pages().map(|(n, _)| n).collect();
        assert_eq!(t.iter().map(|(i, _)| i).max(), Some(len - 1));
        assert_eq!(sizes, vec![PAGE_SIZE, PAGE_SIZE, 3]);
        t.clear();
        assert_eq!(t.materialized_pages(), 0);
        assert_eq!(*t.get(PAGE_SIZE), 0);
    }

    #[test]
    fn init_sees_each_slot_id_once() {
        let mut t: Slab<usize> = Slab::new(PAGE_SIZE * 2, usize::MAX);
        let mut seen = Vec::new();
        t.get_mut_or(PAGE_SIZE + 1, |id| {
            seen.push(id);
            id
        });
        assert_eq!(seen, (PAGE_SIZE..2 * PAGE_SIZE).collect::<Vec<_>>());
        assert_eq!(*t.get(2 * PAGE_SIZE - 1), 2 * PAGE_SIZE - 1);
        assert_eq!(*t.get(3), usize::MAX, "untouched page reads pristine");
    }

    #[test]
    fn dispatch_fold_matches_dense_and_sparse() {
        // Folding the materialized slots in id order equals folding a
        // dense array of accumulators: the untouched ones are empty.
        let n = 3 * PAGE_SIZE;
        let mut dense = vec![OnlineStats::new(); n];
        let mut slab = Slab::new(n, OnlineStats::new());
        let far = 2 * PAGE_SIZE + 1;
        for (pe, v) in [(1usize, 5.0), (far, 2.0), (1, 9.0), (0, 1.0)] {
            dense[pe].record(v);
            slab.get_mut_or(pe, |_| OnlineStats::new()).record(v);
        }
        let mut fd = OnlineStats::new();
        for s in &dense {
            fd.merge(s);
        }
        let mut fs = OnlineStats::new();
        for (_, s) in slab.iter() {
            fs.merge(s);
        }
        assert_eq!(fd.mean().to_bits(), fs.mean().to_bits());
        assert_eq!(fd.variance().to_bits(), fs.variance().to_bits());
        assert_eq!(fd.count(), fs.count());
        assert_eq!(slab.materialized_pages(), 2);
    }

    #[test]
    fn channel_state_survives_sparse_roundtrip() {
        let mut t = channels(10);
        chan_mut(&mut t, ChannelId(1)).offer(
            crate::message::Flight {
                from: oracle_topo::PeId(0),
                dest: crate::message::FlightDest::Broadcast,
                piggyback_load: None,
                packet: crate::message::Packet::LoadUpdate { load: 3 },
            },
            SimTime(0),
        );
        assert!(t.get(1).is_busy());
        assert!(!t.get(2).is_busy());
    }
}
