//! The concrete topology type: channel sets, adjacency, and routing.
//!
//! Storage is compressed sparse rows (CSR) for both the channel member
//! sets and the per-PE neighbour lists, so a topology costs O(PEs + edges)
//! memory. Routing goes through a per-family `Router`: the regular
//! topologies (grid, torus, hypercube, k-ary n-cube) answer distance
//! queries arithmetically and carry no table at all; small arbitrary
//! graphs keep the classic dense all-pairs table; large arbitrary graphs
//! answer each query with a bidirectional BFS and store no routes. All
//! three produce bit-identical next hops (pinned by tests): the next hop
//! from `a` toward `b` is always the first neighbour of `a`, in sorted
//! PE-id order, whose distance to `b` is one less than `a`'s.

use std::collections::VecDeque;
use std::fmt;
use std::io::BufRead;
use std::sync::Mutex;

/// Identifier of a processing element, dense in `0..num_pes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeId(pub u32);

impl PeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// Identifier of a communication channel (link or bus), dense in
/// `0..num_channels`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// One entry of a PE's neighbour list: the neighbouring PE and the channel a
/// message to it travels over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor {
    /// The adjacent PE.
    pub pe: PeId,
    /// The channel connecting them (lowest-numbered one if several do).
    pub channel: ChannelId,
}

/// A malformed topology specification or graph file. The message cites the
/// offending token or line and the grammar it violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Arbitrary graphs at or below this many PEs precompute the dense
/// all-pairs table; larger ones route through the lazy bidirectional-BFS
/// router. The regular families (grid/torus/hypercube/k-ary) never build a
/// table.
pub const DENSE_ROUTER_LIMIT: usize = 2048;

/// How shortest-path queries are answered. Everything except `Dense` is
/// O(1) or O(active) memory; `Dense` is the classic O(n²) table kept only
/// for small arbitrary graphs.
enum Router {
    /// Flattened `[from * num_pes + to]` next-hop and distance tables.
    Dense { next_hop: Vec<PeId>, dist: Vec<u32> },
    /// 2-D mesh, row-major `id = y * width + x`; `wrap` adds per-dimension
    /// torus links on dimensions longer than 2.
    Grid { width: u32, height: u32, wrap: bool },
    /// Binary hypercube: distance is the Hamming distance of the ids.
    Hypercube,
    /// k-ary n-cube, digit strides `k^d`; per-dimension ring distance.
    KAry { k: u32, n: u32 },
    /// Bidirectional BFS per query; stores no routes.
    Lazy(LazyRouter),
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Router::Dense { dist, .. } => write!(f, "Dense({} entries)", dist.len()),
            Router::Grid {
                width,
                height,
                wrap,
            } => {
                write!(f, "Grid({width}x{height}, wrap={wrap})")
            }
            Router::Hypercube => write!(f, "Hypercube"),
            Router::KAry { k, n } => write!(f, "KAry({k}^{n})"),
            Router::Lazy(_) => write!(f, "Lazy"),
        }
    }
}

impl Clone for Router {
    fn clone(&self) -> Self {
        match self {
            Router::Dense { next_hop, dist } => Router::Dense {
                next_hop: next_hop.clone(),
                dist: dist.clone(),
            },
            Router::Grid {
                width,
                height,
                wrap,
            } => Router::Grid {
                width: *width,
                height: *height,
                wrap: *wrap,
            },
            Router::Hypercube => Router::Hypercube,
            Router::KAry { k, n } => Router::KAry { k: *k, n: *n },
            // The router holds only scratch space; a clone gets its own.
            Router::Lazy(_) => Router::Lazy(LazyRouter::new()),
        }
    }
}

/// Exact shortest-path oracle for large arbitrary graphs that stores no
/// routes: every query is a bidirectional (meet-in-the-middle) BFS between
/// `from` and the target. One search costs about two balls of radius
/// `d / 2` instead of one ball of radius `d`, which on an expander such as
/// `rand:NxD` is the difference between a few hundred PEs and most of the
/// graph.
///
/// The search keeps two labellings: T-depth out of the target and F-depth
/// out of `from`. It grows one whole BFS layer at a time, always on the
/// side with the smaller frontier, and stops after the first layer in
/// which a newly labelled PE already carries the other side's label. With
/// F complete to depth `a` and T complete to depth `b`, the distance is
/// `d = a + b`, and the doubly labelled PEs are exactly those at F-depth
/// `a` and T-depth `b` (the meeting set).
///
/// The hop is the dense table's hop: the first neighbour of `from`, in
/// sorted PE-id order, at distance `d - 1` from the target. A neighbour
/// has that distance iff an F-increasing path leads from it into the
/// meeting set, so the T labelling is extended backwards over F layers
/// `a - 1` down to `1`: a PE at F-depth `k` gets T-depth `d - k` iff a
/// neighbour at F-depth `k + 1` has T-depth `d - k - 1`. When the T side
/// itself reached `from` (`a == 0`), no extension is needed.
struct LazyRouter {
    scratch: Mutex<BfsScratch>,
}

/// Index of the target-side labelling in [`Label::depth`].
const TO_TARGET: usize = 0;
/// Index of the source-side labelling in [`Label::depth`].
const FROM_SOURCE: usize = 1;
/// A side's depth for a PE that side has not labelled.
const UNSEEN: u32 = u32::MAX;

/// One PE's labels in the current query, valid only when `stamp` equals
/// the scratch epoch.
#[derive(Clone, Copy, Default)]
struct Label {
    stamp: u32,
    depth: [u32; 2],
}

/// Epoch-stamped scratch for the searches, so queries reuse the buffers
/// without an O(n) clear between them: three `u32` of labels per PE plus
/// the two discovery orders, which together hold each PE at most twice.
#[derive(Default)]
struct BfsScratch {
    labels: Vec<Label>,
    epoch: u32,
    /// Each side's labelled PEs in discovery order; BFS layers are
    /// contiguous runs, and `layer[side]..` is the current frontier.
    order: [Vec<u32>; 2],
    layer: [usize; 2],
}

impl BfsScratch {
    /// Start a query: invalidate every label and empty both orders.
    fn reset(&mut self, num_pes: usize) {
        if self.labels.len() < num_pes {
            self.labels.resize(num_pes, Label::default());
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One O(n) reset every 2^32 queries keeps stale stamps from a
            // previous epoch cycle from aliasing the current one.
            self.labels.fill(Label::default());
            self.epoch = 1;
        }
        self.order[TO_TARGET].clear();
        self.order[FROM_SOURCE].clear();
        self.layer = [0, 0];
    }

    /// Label `pe` at depth 0 on `side` (a search root).
    fn seed(&mut self, side: usize, pe: PeId) {
        let mut depth = [UNSEEN; 2];
        depth[side] = 0;
        self.labels[pe.idx()] = Label {
            stamp: self.epoch,
            depth,
        };
        self.order[side].push(pe.0);
    }

    /// Size of `side`'s current frontier.
    fn frontier(&self, side: usize) -> usize {
        self.order[side].len() - self.layer[side]
    }

    /// Label the next BFS layer of `side` at `depth`: every neighbour of
    /// the frontier that `side` has not labelled yet. Returns true if any
    /// of them already carries the other side's label.
    fn expand(&mut self, topo: &Topology, side: usize, depth: u32) -> bool {
        let epoch = self.epoch;
        let order = &mut self.order[side];
        let (start, end) = (self.layer[side], order.len());
        let mut met = false;
        for i in start..end {
            for nb in topo.neighbors(PeId(order[i])) {
                let label = &mut self.labels[nb.pe.idx()];
                if label.stamp != epoch {
                    *label = Label {
                        stamp: epoch,
                        depth: [UNSEEN; 2],
                    };
                } else if label.depth[side] != UNSEEN {
                    continue;
                }
                label.depth[side] = depth;
                met |= label.depth[1 - side] != UNSEEN;
                order.push(nb.pe.0);
            }
        }
        self.layer[side] = end;
        met
    }

    /// The T-depth of `pe`, or [`UNSEEN`].
    fn to_target(&self, pe: PeId) -> u32 {
        let label = self.labels[pe.idx()];
        if label.stamp == self.epoch {
            label.depth[TO_TARGET]
        } else {
            UNSEEN
        }
    }
}

impl LazyRouter {
    fn new() -> Self {
        LazyRouter {
            scratch: Mutex::new(BfsScratch::default()),
        }
    }

    /// Exact `dist(from, target)` plus (when `want_hop`) the first
    /// neighbour of `from` in sorted PE-id order that lies one hop closer
    /// to `target` — identical to what the dense table would answer. A
    /// target in another component has distance `u32::MAX`.
    fn query(&self, topo: &Topology, from: PeId, target: PeId, want_hop: bool) -> (u32, PeId) {
        if from == target {
            return (0, from);
        }
        let mut scratch = self.scratch.lock().expect("lazy router scratch poisoned");
        let s = &mut *scratch;
        s.reset(topo.num_pes);
        s.seed(TO_TARGET, target);
        s.seed(FROM_SOURCE, from);
        // F is complete to depth `a`, T to depth `b`.
        let (mut a, mut b) = (0u32, 0u32);
        loop {
            let (f, t) = (s.frontier(FROM_SOURCE), s.frontier(TO_TARGET));
            if f == 0 || t == 0 {
                assert!(!want_hop, "next_hop target must be reachable");
                return (u32::MAX, from);
            }
            let met = if f < t {
                a += 1;
                s.expand(topo, FROM_SOURCE, a)
            } else {
                b += 1;
                s.expand(topo, TO_TARGET, b)
            };
            if met {
                break;
            }
        }
        let d = a + b;
        if !want_hop {
            return (d, from);
        }

        // Extend the T labelling backwards from the meeting set over F
        // layers `a - 1` down to 1. The F order lists layers in increasing
        // depth, so walking it in reverse finishes layer `k + 1` before any
        // PE of layer `k` looks at it.
        for i in (0..s.order[FROM_SOURCE].len()).rev() {
            let v = PeId(s.order[FROM_SOURCE][i]);
            let k = s.labels[v.idx()].depth[FROM_SOURCE];
            if k == 0 || k >= a {
                continue;
            }
            if topo
                .neighbors(v)
                .iter()
                .any(|nb| s.to_target(nb.pe) == d - k - 1)
            {
                s.labels[v.idx()].depth[TO_TARGET] = d - k;
            }
        }
        let hop = topo
            .neighbors(from)
            .iter()
            .find(|nb| s.to_target(nb.pe) == d - 1)
            .map(|nb| nb.pe)
            .expect("connected graph has a descending neighbour");
        (d, hop)
    }
}

/// An interconnection topology: PEs, channels, adjacency, and shortest-path
/// routing.
///
/// Built via the constructors in [`crate::mesh`], [`crate::dlm`],
/// [`crate::hypercube`], [`crate::misc`], generically through
/// [`Topology::from_channels`], or from an edge-list file through
/// [`Topology::from_edge_list`].
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    num_pes: usize,
    /// CSR member PEs of each channel (sorted within a channel):
    /// channel `c` owns `chan_pes[chan_off[c]..chan_off[c + 1]]`.
    chan_off: Vec<usize>,
    chan_pes: Vec<PeId>,
    /// CSR sorted neighbour list per PE (one entry per distinct
    /// neighbour): PE `p` owns `adj[adj_off[p]..adj_off[p + 1]]`.
    adj_off: Vec<usize>,
    adj: Vec<Neighbor>,
    router: Router,
    diameter: u32,
}

impl Topology {
    /// Build a topology from the member sets of its channels.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes == 0`, a channel has fewer than two distinct
    /// members or an out-of-range member, or the resulting graph is not
    /// connected — all of those are construction bugs, not runtime
    /// conditions. (The fallible twin used by file loaders is
    /// [`Topology::try_from_channels`].)
    pub fn from_channels(
        name: impl Into<String>,
        num_pes: usize,
        channels: Vec<Vec<PeId>>,
    ) -> Self {
        match Self::try_from_channels(name, num_pes, channels) {
            Ok(t) => t,
            Err(SpecError(msg)) => panic!("{msg}"),
        }
    }

    /// Fallible [`Topology::from_channels`]: returns a grammar-citing
    /// [`SpecError`] instead of panicking, for loader-driven construction.
    pub fn try_from_channels(
        name: impl Into<String>,
        num_pes: usize,
        channels: Vec<Vec<PeId>>,
    ) -> Result<Self, SpecError> {
        let name = name.into();
        let mut chan_off: Vec<usize> = Vec::with_capacity(channels.len() + 1);
        let mut chan_pes: Vec<PeId> = Vec::new();
        chan_off.push(0);
        for members in channels {
            chan_pes.extend_from_slice(&members);
            chan_off.push(chan_pes.len());
        }
        let mut t = Self::build_structure(name, num_pes, chan_off, chan_pes)?;
        t.attach_generic_router();
        Ok(t)
    }

    /// Build CSR structure and validate membership; the router is attached
    /// by the caller (arithmetic for the regular families, dense/lazy
    /// otherwise). Channel `c` is given as the members
    /// `chan_pes[chan_off[c]..chan_off[c + 1]]`, in any order and with
    /// repeats; they are normalized in place.
    fn build_structure(
        name: String,
        num_pes: usize,
        mut chan_off: Vec<usize>,
        mut chan_pes: Vec<PeId>,
    ) -> Result<Self, SpecError> {
        if num_pes == 0 {
            return Err(SpecError(format!("topology {name:?} has no PEs")));
        }
        let num_channels = chan_off.len() - 1;
        // All ids must round-trip through the u32 `PeId`/`ChannelId` space;
        // `try_from` instead of `as` so oversized graphs fail loudly
        // instead of wrapping.
        u32::try_from(num_pes).map_err(|_| {
            SpecError(format!(
                "topology {name:?} has {num_pes} PEs, more than PE ids (u32) can address"
            ))
        })?;
        u32::try_from(num_channels).map_err(|_| {
            SpecError(format!(
                "topology {name:?} has {num_channels} channels, more than channel ids (u32) can address"
            ))
        })?;

        // Normalize each channel's member set in place: sorted, repeats
        // dropped, compacted toward the front of `chan_pes`.
        let mut write = 0usize;
        for c in 0..num_channels {
            let (start, end) = (chan_off[c], chan_off[c + 1]);
            chan_pes[start..end].sort_unstable();
            let first = write;
            for i in start..end {
                if write == first || chan_pes[write - 1] != chan_pes[i] {
                    chan_pes[write] = chan_pes[i];
                    write += 1;
                }
            }
            if write - first < 2 {
                return Err(SpecError(format!(
                    "channel in {name:?} has fewer than two distinct members"
                )));
            }
            if chan_pes[write - 1].idx() >= num_pes {
                return Err(SpecError(format!(
                    "channel member out of range in {name:?}"
                )));
            }
            chan_off[c] = first;
        }
        chan_off[num_channels] = write;
        chan_pes.truncate(write);

        let (adj_off, adj) = adjacency(num_pes, &chan_off, &chan_pes);
        Ok(Topology {
            name,
            num_pes,
            chan_off,
            chan_pes,
            adj_off,
            adj,
            router: Router::Hypercube, // placeholder; callers attach the real one
            diameter: 0,
        })
    }

    /// Attach the router for an arbitrary graph: dense all-pairs tables up
    /// to [`DENSE_ROUTER_LIMIT`] PEs, the lazy bidirectional-BFS router
    /// beyond. Both verify connectivity.
    fn attach_generic_router(&mut self) {
        if self.num_pes <= DENSE_ROUTER_LIMIT {
            self.build_dense_router();
        } else {
            self.build_lazy_router();
        }
    }

    /// All-pairs BFS tables (small arbitrary graphs only).
    fn build_dense_router(&mut self) {
        let n = self.num_pes;
        let mut dist = vec![u32::MAX; n * n];
        let mut next_hop = vec![PeId(u32::MAX); n * n];
        let mut diameter = 0u32;
        let mut queue = VecDeque::new();
        for src in 0..n {
            let base = src * n;
            dist[base + src] = 0;
            next_hop[base + src] = PeId(src as u32);
            queue.clear();
            queue.push_back(src);
            while let Some(v) = queue.pop_front() {
                let dv = dist[base + v];
                for n in self.neighbors(PeId(v as u32)) {
                    let u = n.pe.idx();
                    if dist[base + u] == u32::MAX {
                        dist[base + u] = dv + 1;
                        // First hop from src toward u: if v is the source the
                        // first hop is u itself, otherwise inherit v's.
                        next_hop[base + u] = if v == src { n.pe } else { next_hop[base + v] };
                        diameter = diameter.max(dv + 1);
                        queue.push_back(u);
                    }
                }
            }
            assert!(
                dist[base..base + n].iter().all(|&d| d != u32::MAX),
                "topology {:?} is not connected (unreachable from PE {src})",
                self.name
            );
        }
        self.router = Router::Dense { next_hop, dist };
        self.diameter = diameter;
    }

    /// Lazy router for large arbitrary graphs: one BFS proves
    /// connectivity, a second (double-sweep) estimates the diameter.
    fn build_lazy_router(&mut self) {
        let row0 = self.bfs_row(PeId(0));
        let (far, ecc0) = row0
            .iter()
            .enumerate()
            .max_by_key(|&(_, &d)| (d != u32::MAX) as u64 * (d as u64 + 1))
            .map(|(i, &d)| (i, d))
            .expect("non-empty topology");
        assert!(
            !row0.contains(&u32::MAX),
            "topology {:?} is not connected (unreachable from PE 0)",
            self.name
        );
        let ecc_far = self
            .bfs_row(PeId(far as u32))
            .into_iter()
            .max()
            .unwrap_or(ecc0);
        // Double-sweep lower bound — exact on trees and typically exact or
        // near-exact on the sparse random graphs this router serves. The
        // machine uses it only to size histograms (which carry explicit
        // overflow counters), never for correctness.
        self.diameter = ecc_far.max(ecc0);
        self.router = Router::Lazy(LazyRouter::new());
    }

    /// One BFS from `src`: distances to every PE (`u32::MAX` = unreachable).
    fn bfs_row(&self, src: PeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_pes];
        let mut queue = VecDeque::new();
        dist[src.idx()] = 0;
        queue.push_back(src.idx());
        while let Some(v) = queue.pop_front() {
            let dv = dist[v];
            for n in self.neighbors(PeId(v as u32)) {
                let u = n.pe.idx();
                if dist[u] == u32::MAX {
                    dist[u] = dv + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Attach an arithmetic (table-free) router. `diameter` must be the
    /// exact diameter; the regular-family constructors compute it in
    /// closed form. Used by [`crate::mesh`], [`crate::hypercube`], and
    /// [`crate::kary`], whose channels are all point-to-point links:
    /// channel `c` joins `links[2c]` and `links[2c + 1]`, passed flat so a
    /// million-PE family costs one array, not a `Vec` per channel.
    pub(crate) fn with_arithmetic_router(
        name: impl Into<String>,
        num_pes: usize,
        links: Vec<PeId>,
        kind: ArithmeticRouter,
        diameter: u32,
    ) -> Self {
        let name = name.into();
        let chan_off: Vec<usize> = (0..=links.len() / 2).map(|c| 2 * c).collect();
        let mut t = match Self::build_structure(name, num_pes, chan_off, links) {
            Ok(t) => t,
            Err(SpecError(msg)) => panic!("{msg}"),
        };
        t.router = match kind {
            ArithmeticRouter::Grid {
                width,
                height,
                wrap,
            } => Router::Grid {
                width,
                height,
                wrap,
            },
            ArithmeticRouter::Hypercube => Router::Hypercube,
            ArithmeticRouter::KAry { k, n } => Router::KAry { k, n },
        };
        t.diameter = diameter;
        t
    }

    /// Replace this topology's router with the lazy router (keeping
    /// the already-computed exact diameter). For tests pinning
    /// lazy-vs-dense routing equivalence on small graphs.
    pub fn force_lazy_router(mut self) -> Self {
        self.router = Router::Lazy(LazyRouter::new());
        self
    }

    /// Human-readable name, e.g. `"grid 10x10"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processing elements.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Number of channels (links plus buses).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.chan_off.len() - 1
    }

    /// All PE ids.
    pub fn pes(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.num_pes as u32).map(PeId)
    }

    /// The sorted member PEs of channel `c`.
    #[inline]
    pub fn channel_members(&self, c: ChannelId) -> &[PeId] {
        &self.chan_pes[self.chan_off[c.idx()]..self.chan_off[c.idx() + 1]]
    }

    /// The sorted neighbour list of `pe`.
    #[inline]
    pub fn neighbors(&self, pe: PeId) -> &[Neighbor] {
        &self.adj[self.adj_off[pe.idx()]..self.adj_off[pe.idx() + 1]]
    }

    /// Number of distinct neighbours of `pe`.
    pub fn degree(&self, pe: PeId) -> usize {
        self.adj_off[pe.idx() + 1] - self.adj_off[pe.idx()]
    }

    /// True if `a` and `b` share a channel.
    pub fn is_neighbor(&self, a: PeId, b: PeId) -> bool {
        self.neighbors(a).binary_search_by_key(&b, |n| n.pe).is_ok()
    }

    /// The channel a single-hop message from `a` to its neighbour `b` uses.
    pub fn channel_between(&self, a: PeId, b: PeId) -> Option<ChannelId> {
        self.neighbors(a)
            .binary_search_by_key(&b, |n| n.pe)
            .ok()
            .map(|i| self.neighbors(a)[i].channel)
    }

    /// Shortest-path distance in hops.
    #[inline]
    pub fn distance(&self, from: PeId, to: PeId) -> u32 {
        match &self.router {
            Router::Dense { dist, .. } => dist[from.idx() * self.num_pes + to.idx()],
            Router::Grid {
                width,
                height,
                wrap,
            } => {
                let (w, h) = (*width, *height);
                let (x1, y1) = (from.0 % w, from.0 / w);
                let (x2, y2) = (to.0 % w, to.0 / w);
                let _ = h;
                dim_distance(x1, x2, w, *wrap) + dim_distance(y1, y2, h, *wrap)
            }
            Router::Hypercube => (from.0 ^ to.0).count_ones(),
            Router::KAry { k, n } => {
                let (mut a, mut b, mut d) = (from.0, to.0, 0u32);
                for _ in 0..*n {
                    d += dim_distance(a % k, b % k, *k, true);
                    a /= k;
                    b /= k;
                }
                d
            }
            Router::Lazy(lazy) => {
                if from == to {
                    0
                } else if self.is_neighbor(from, to) {
                    // The dominant query on neighbourhood-local strategies;
                    // answered without a search.
                    1
                } else {
                    lazy.query(self, from, to, false).0
                }
            }
        }
    }

    /// The neighbour of `from` that lies on a shortest path to `to`.
    /// Returns `from` itself when `from == to`.
    ///
    /// Deterministic across all routers: the hop is the first neighbour of
    /// `from` in sorted PE-id order whose distance to `to` is one less
    /// than `from`'s — exactly the hop the dense BFS table discovers,
    /// since BFS layers fill in sorted-neighbour order.
    #[inline]
    pub fn next_hop(&self, from: PeId, to: PeId) -> PeId {
        if from == to {
            return from;
        }
        match &self.router {
            Router::Dense { next_hop, .. } => next_hop[from.idx() * self.num_pes + to.idx()],
            Router::Lazy(lazy) => lazy.query(self, from, to, true).1,
            _ => {
                let d = self.distance(from, to);
                self.neighbors(from)
                    .iter()
                    .find(|n| self.distance(n.pe, to) == d - 1)
                    .map(|n| n.pe)
                    .expect("connected graph has a descending neighbour")
            }
        }
    }

    /// The network diameter in hops. Exact for every constructor except
    /// huge arbitrary graphs on the lazy router, where it is a
    /// double-sweep BFS estimate (a lower bound, exact on trees).
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// Mean shortest-path distance over ordered pairs of distinct PEs.
    ///
    /// Closed-form for the arithmetic families, exact table sum for dense
    /// graphs; on the lazy router it is exact up to 4096 PEs (all-source
    /// BFS) and a deterministic 64-source sample beyond.
    pub fn mean_distance(&self) -> f64 {
        let n = self.num_pes as u128;
        if n < 2 {
            return 0.0;
        }
        let pairs = (n * (n - 1)) as f64;
        match &self.router {
            Router::Dense { dist, .. } => {
                let sum: u64 = dist.iter().map(|&d| d as u64).sum();
                sum as f64 / pairs
            }
            Router::Grid {
                width,
                height,
                wrap,
            } => {
                let (w, h) = (*width as u128, *height as u128);
                let sum =
                    dim_pair_sum(*width, *wrap) * h * h + dim_pair_sum(*height, *wrap) * w * w;
                sum as f64 / pairs
            }
            Router::Hypercube => {
                // Each of the `dim` bits differs in exactly half of the
                // n² ordered pairs.
                let dim = (self.num_pes as u64).trailing_zeros() as u128;
                let sum = dim * n * n / 2;
                sum as f64 / pairs
            }
            Router::KAry { k, n: dims } => {
                let per_dim = dim_pair_sum(*k, true);
                let rest = n / *k as u128; // k^(dims-1)
                let sum = per_dim * rest * rest * (*dims as u128);
                sum as f64 / pairs
            }
            Router::Lazy(_) => {
                let exact = self.num_pes <= 4096;
                let stride = if exact { 1 } else { (self.num_pes / 64).max(1) };
                let sources: Vec<usize> = (0..self.num_pes).step_by(stride).collect();
                let mut sum = 0u128;
                for &s in &sources {
                    let row = self.bfs_row(PeId(s as u32));
                    sum += row.iter().map(|&d| d as u128).sum::<u128>();
                }
                let per_source_pairs = (self.num_pes - 1) as f64;
                sum as f64 / (sources.len() as f64 * per_source_pairs)
            }
        }
    }

    /// Render the topology as Graphviz DOT (links as edges; buses as
    /// box-shaped hyperedge nodes connected to their members), for
    /// visual inspection with `dot -Tsvg`.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "graph \"{}\" {{", self.name);
        let _ = writeln!(out, "  node [shape=circle];");
        for ci in 0..self.num_channels() {
            let members = self.channel_members(ChannelId(ci as u32));
            if members.len() == 2 {
                let _ = writeln!(out, "  p{} -- p{};", members[0].0, members[1].0);
            } else {
                let _ = writeln!(out, "  b{ci} [shape=box, label=\"bus {ci}\"];");
                for m in members {
                    let _ = writeln!(out, "  b{ci} -- p{};", m.0);
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Exhaustive structural self-check, used by tests: adjacency symmetry,
    /// routing consistency, and the triangle inequality on distances.
    /// O(n²) — intended for small topologies.
    pub fn check_invariants(&self) {
        let lazy_estimate = matches!(self.router, Router::Lazy(_));
        for a in self.pes() {
            for n in self.neighbors(a) {
                assert!(self.is_neighbor(n.pe, a), "asymmetric adjacency");
                assert_eq!(self.distance(a, n.pe), 1, "neighbour at distance != 1");
                assert!(
                    self.channel_members(n.channel).contains(&a)
                        && self.channel_members(n.channel).contains(&n.pe),
                    "adjacency channel does not contain both endpoints"
                );
            }
            for b in self.pes() {
                let d = self.distance(a, b);
                if !lazy_estimate {
                    assert!(d <= self.diameter, "distance exceeds diameter");
                }
                assert_eq!(d, self.distance(b, a), "asymmetric distance");
                if a == b {
                    assert_eq!(d, 0);
                } else {
                    let hop = self.next_hop(a, b);
                    assert!(self.is_neighbor(a, hop), "next hop is not a neighbour");
                    assert_eq!(
                        self.distance(hop, b),
                        d - 1,
                        "next hop does not make progress"
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Edge-list loading and random graphs.
    // ------------------------------------------------------------------

    /// Load a topology from a streaming edge-list reader.
    ///
    /// Grammar (one declaration per line; `#` starts a comment):
    ///
    /// ```text
    /// pes <N>        # exactly one header line, before any edge
    /// <U> <V>        # one undirected link per line, 0 <= U,V < N
    /// ```
    ///
    /// Self-loops (`U == V`) and duplicate edges (in either orientation)
    /// are rejected loudly, as are ids that do not fit a `u32`. The graph
    /// must be connected.
    pub fn from_edge_list(
        name: impl Into<String>,
        reader: impl BufRead,
    ) -> Result<Self, SpecError> {
        const GRAMMAR: &str =
            "grammar: 'pes N' header, then one 'U V' edge per line with U != V, no duplicates";
        let name = name.into();
        let mut num_pes: Option<usize> = None;
        let mut edges: Vec<Vec<PeId>> = Vec::new();
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for (lineno, line) in reader.lines().enumerate() {
            let lineno = lineno + 1;
            let line = line.map_err(|e| SpecError(format!("edge list line {lineno}: {e}")))?;
            let body = line.split('#').next().unwrap_or("").trim();
            if body.is_empty() {
                continue;
            }
            let mut tokens = body.split_whitespace();
            let (a, b) = (tokens.next(), tokens.next());
            if tokens.next().is_some() {
                return Err(SpecError(format!(
                    "edge list line {lineno}: too many fields in {body:?} ({GRAMMAR})"
                )));
            }
            match (a, b) {
                (Some("pes"), Some(count)) => {
                    if num_pes.is_some() {
                        return Err(SpecError(format!(
                            "edge list line {lineno}: duplicate 'pes' header ({GRAMMAR})"
                        )));
                    }
                    let n: u64 = count.parse().map_err(|_| {
                        SpecError(format!(
                            "edge list line {lineno}: bad PE count {count:?} ({GRAMMAR})"
                        ))
                    })?;
                    // PE ids are u32; reject counts the id space cannot hold.
                    if n == 0 || u32::try_from(n).is_err() {
                        return Err(SpecError(format!(
                            "edge list line {lineno}: PE count {n} exceeds u32 ({GRAMMAR})"
                        )));
                    }
                    num_pes = Some(n as usize);
                }
                (Some(u), Some(v)) => {
                    let Some(n) = num_pes else {
                        return Err(SpecError(format!(
                            "edge list line {lineno}: edge before 'pes N' header ({GRAMMAR})"
                        )));
                    };
                    let parse_id = |tok: &str| -> Result<u32, SpecError> {
                        let wide: u64 = tok.parse().map_err(|_| {
                            SpecError(format!(
                                "edge list line {lineno}: bad PE id {tok:?} ({GRAMMAR})"
                            ))
                        })?;
                        let id = u32::try_from(wide).map_err(|_| {
                            SpecError(format!(
                                "edge list line {lineno}: PE id {wide} exceeds u32 ({GRAMMAR})"
                            ))
                        })?;
                        if (id as usize) >= n {
                            return Err(SpecError(format!(
                                "edge list line {lineno}: PE id {id} out of range 0..{n} ({GRAMMAR})"
                            )));
                        }
                        Ok(id)
                    };
                    let (u, v) = (parse_id(u)?, parse_id(v)?);
                    if u == v {
                        return Err(SpecError(format!(
                            "edge list line {lineno}: self-loop '{u} {v}' ({GRAMMAR})"
                        )));
                    }
                    let key = (u.min(v), u.max(v));
                    if !seen.insert(key) {
                        return Err(SpecError(format!(
                            "edge list line {lineno}: duplicate edge '{u} {v}' ({GRAMMAR})"
                        )));
                    }
                    edges.push(vec![PeId(u), PeId(v)]);
                }
                _ => {
                    return Err(SpecError(format!(
                        "edge list line {lineno}: malformed line {body:?} ({GRAMMAR})"
                    )));
                }
            }
        }
        let Some(num_pes) = num_pes else {
            return Err(SpecError(format!(
                "edge list {name:?}: missing 'pes N' header ({GRAMMAR})"
            )));
        };
        Self::try_from_channels(name, num_pes, edges)
    }
}

/// Sorted, deduplicated per-PE neighbour lists in CSR form from the
/// normalized channel CSR, without a global sort. A counting pass sizes
/// each PE's slots, a fill pass writes them in channel-id order, and a
/// stable per-PE sort by neighbour id followed by keeping the first entry
/// per neighbour leaves the lowest channel for PEs that share several.
fn adjacency(num_pes: usize, chan_off: &[usize], chan_pes: &[PeId]) -> (Vec<usize>, Vec<Neighbor>) {
    let members = |c: usize| &chan_pes[chan_off[c]..chan_off[c + 1]];
    let num_channels = chan_off.len() - 1;
    let mut adj_off = vec![0usize; num_pes + 1];
    for c in 0..num_channels {
        let m = members(c);
        for p in m {
            adj_off[p.idx() + 1] += m.len() - 1;
        }
    }
    for p in 0..num_pes {
        adj_off[p + 1] += adj_off[p];
    }
    let blank = Neighbor {
        pe: PeId(0),
        channel: ChannelId(0),
    };
    let mut adj = vec![blank; adj_off[num_pes]];
    let mut cursor: Vec<usize> = adj_off[..num_pes].to_vec();
    for c in 0..num_channels {
        let channel = ChannelId(c as u32); // bounded by the caller's try_from
        let m = members(c);
        for (i, &a) in m.iter().enumerate() {
            for &b in &m[i + 1..] {
                adj[cursor[a.idx()]] = Neighbor { pe: b, channel };
                cursor[a.idx()] += 1;
                adj[cursor[b.idx()]] = Neighbor { pe: a, channel };
                cursor[b.idx()] += 1;
            }
        }
    }
    drop(cursor);
    // Sort and deduplicate each PE's slots, compacting in place: PE `p`'s
    // new range starts at or before its old one, so nothing unread is
    // overwritten.
    let mut write = 0usize;
    let mut start = 0usize;
    for p in 0..num_pes {
        let end = adj_off[p + 1];
        adj[start..end].sort_by_key(|n| n.pe);
        let first = write;
        for i in start..end {
            if write == first || adj[write - 1].pe != adj[i].pe {
                adj[write] = adj[i];
                write += 1;
            }
        }
        adj_off[p + 1] = write;
        start = end;
    }
    adj.truncate(write);
    (adj_off, adj)
}

/// The arithmetic router families the regular constructors attach.
pub(crate) enum ArithmeticRouter {
    Grid { width: u32, height: u32, wrap: bool },
    Hypercube,
    KAry { k: u32, n: u32 },
}

/// Per-dimension hop distance: plain `|a - b|`, or the ring distance when
/// the dimension wraps. Wrap links only exist on dimensions longer than 2
/// (a width-2 wrap would duplicate the existing link), matching the mesh
/// constructors.
#[inline]
fn dim_distance(a: u32, b: u32, size: u32, wrap: bool) -> u32 {
    let d = a.abs_diff(b);
    if wrap && size > 2 {
        d.min(size - d)
    } else {
        d
    }
}

/// Sum of `dim_distance` over all ordered coordinate pairs of one
/// dimension — the closed-form building block of `mean_distance`.
fn dim_pair_sum(size: u32, wrap: bool) -> u128 {
    let w = size as u128;
    if wrap && size > 2 {
        // Σ over ordered pairs of min(d, w - d) = w * floor(w² / 4).
        w * (w * w / 4)
    } else {
        // Σ over ordered pairs of |i - j| = w (w² - 1) / 3.
        w * (w * w - 1) / 3
    }
}

/// A connected random graph: a ring (guaranteeing connectivity) plus
/// seeded random chords up to roughly the requested `degree`. Ids and the
/// chord set are a pure function of `(n, degree, seed)`.
///
/// # Panics
///
/// Panics if `n < 3` or `degree < 2`.
pub fn random_regular(n: u32, degree: u32, seed: u64) -> Topology {
    assert!(n >= 3, "random graph needs at least 3 PEs");
    assert!(degree >= 2, "random graph needs degree >= 2");
    let mut channels: Vec<Vec<PeId>> = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for i in 0..n {
        let j = (i + 1) % n;
        seen.insert((i.min(j), i.max(j)));
        channels.push(vec![PeId(i), PeId(j)]);
    }
    let mut state = seed ^ ((n as u64) << 32) ^ degree as u64;
    let mut next = move || splitmix64(&mut state);
    let chords = (n as u64 * (degree.saturating_sub(2)) as u64) / 2;
    let mut placed = 0u64;
    let mut attempts = 0u64;
    while placed < chords && attempts < chords * 16 {
        attempts += 1;
        let a = (next() % n as u64) as u32;
        let b = (next() % n as u64) as u32;
        if a == b {
            continue;
        }
        if seen.insert((a.min(b), a.max(b))) {
            channels.push(vec![PeId(a), PeId(b)]);
            placed += 1;
        }
    }
    Topology::from_channels(format!("rand {n}x{degree}"), n as usize, channels)
}

/// One SplitMix64 step — self-contained so the topology crate stays
/// dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pair-sort adjacency builder the counting pass replaced, kept
    /// as the oracle: emit both directions of every member pair in
    /// channel order, stable-sort globally by `(pe, neighbour)`, and keep
    /// the first (lowest-channel) entry per pair.
    fn adjacency_by_sort(t: &Topology) -> (Vec<usize>, Vec<Neighbor>) {
        let mut pairs: Vec<(PeId, Neighbor)> = Vec::new();
        for cid in 0..t.num_channels() {
            let channel = ChannelId(cid as u32);
            let members = t.channel_members(channel);
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    pairs.push((a, Neighbor { pe: b, channel }));
                    pairs.push((b, Neighbor { pe: a, channel }));
                }
            }
        }
        pairs.sort_by_key(|(p, n)| (*p, n.pe));
        pairs.dedup_by_key(|(p, n)| (*p, n.pe));
        let mut adj_off = vec![0usize; t.num_pes() + 1];
        for (p, _) in &pairs {
            adj_off[p.idx() + 1] += 1;
        }
        for p in 0..t.num_pes() {
            adj_off[p + 1] += adj_off[p];
        }
        (adj_off, pairs.into_iter().map(|(_, n)| n).collect())
    }

    fn assert_matches_sort_oracle(t: &Topology) {
        let (adj_off, adj) = adjacency_by_sort(t);
        assert_eq!(t.adj_off, adj_off, "{}: adj_off", t.name());
        assert_eq!(t.adj, adj, "{}: adj", t.name());
        for c in 0..t.num_channels() {
            let m = t.channel_members(ChannelId(c as u32));
            assert!(
                m.windows(2).all(|w| w[0] < w[1]),
                "{}: channel {c}",
                t.name()
            );
        }
    }

    #[test]
    fn counting_build_matches_the_pair_sort_oracle() {
        use crate::{dlm, hypercube, kary, mesh, misc};
        let families = [
            mesh::mesh2d(7, 5, false),
            mesh::mesh2d(6, 6, true),
            mesh::mesh2d(2, 9, true),
            mesh::mesh2d(1, 4, false),
            hypercube::hypercube(5),
            kary::kary_ncube(3, 3),
            kary::kary_ncube(2, 4),
            kary::kary_ncube(5, 2),
            dlm::double_lattice_mesh(3, 6, 6),
            misc::ring(9),
            misc::complete(6),
            misc::star(7),
            misc::tree(3, 3),
            misc::single_bus(5),
            random_regular(300, 4, 7),
            random_regular(97, 5, 3),
            tiny(),
        ];
        for t in &families {
            assert_matches_sort_oracle(t);
        }
    }

    #[test]
    fn counting_build_keeps_lowest_channel_for_repeated_and_bus_shared_pairs() {
        // Repeated links, members given out of order and twice, and two
        // overlapping buses that also duplicate a link.
        let t = Topology::from_channels(
            "shared",
            6,
            vec![
                vec![PeId(3), PeId(1)],
                vec![PeId(1), PeId(3)],
                vec![PeId(0), PeId(2), PeId(1), PeId(2)],
                vec![PeId(4), PeId(5)],
                vec![PeId(5), PeId(3), PeId(1), PeId(0)],
                vec![PeId(2), PeId(4)],
                vec![PeId(0), PeId(1)],
            ],
        );
        assert_matches_sort_oracle(&t);
        assert_eq!(t.channel_between(PeId(1), PeId(3)), Some(ChannelId(0)));
        assert_eq!(t.channel_between(PeId(0), PeId(1)), Some(ChannelId(2)));
        assert_eq!(t.channel_between(PeId(0), PeId(5)), Some(ChannelId(4)));
        assert_eq!(
            t.channel_members(ChannelId(2)),
            &[PeId(0), PeId(1), PeId(2)]
        );
        let edges = "pes 5\n0 1\n3 4\n1 2\n4 0\n2 3\n0 2\n";
        let t = Topology::from_edge_list("edges", std::io::Cursor::new(edges)).unwrap();
        assert_matches_sort_oracle(&t);
    }

    /// A path 0 - 1 - 2 plus a 3-member bus {0, 1, 3}.
    fn tiny() -> Topology {
        Topology::from_channels(
            "tiny",
            4,
            vec![
                vec![PeId(0), PeId(1)],
                vec![PeId(1), PeId(2)],
                vec![PeId(0), PeId(1), PeId(3)],
            ],
        )
    }

    #[test]
    fn adjacency_from_links_and_buses() {
        let t = tiny();
        assert_eq!(t.num_pes(), 4);
        assert_eq!(t.num_channels(), 3);
        let n0: Vec<u32> = t.neighbors(PeId(0)).iter().map(|n| n.pe.0).collect();
        assert_eq!(n0, vec![1, 3]);
        assert!(t.is_neighbor(PeId(1), PeId(3)));
        assert!(!t.is_neighbor(PeId(2), PeId(3)));
    }

    #[test]
    fn lowest_channel_wins_for_shared_pairs() {
        // PEs 0 and 1 share both channel 0 (the link) and channel 2 (the bus).
        let t = tiny();
        assert_eq!(t.channel_between(PeId(0), PeId(1)), Some(ChannelId(0)));
        assert_eq!(t.channel_between(PeId(1), PeId(3)), Some(ChannelId(2)));
        assert_eq!(t.channel_between(PeId(0), PeId(2)), None);
    }

    #[test]
    fn distances_and_diameter() {
        let t = tiny();
        assert_eq!(t.distance(PeId(0), PeId(0)), 0);
        assert_eq!(t.distance(PeId(0), PeId(2)), 2);
        assert_eq!(t.distance(PeId(3), PeId(2)), 2);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn next_hop_routes_along_shortest_paths() {
        let t = tiny();
        assert_eq!(t.next_hop(PeId(3), PeId(2)), PeId(1));
        assert_eq!(t.next_hop(PeId(0), PeId(2)), PeId(1));
        assert_eq!(t.next_hop(PeId(2), PeId(3)), PeId(1));
        assert_eq!(t.next_hop(PeId(1), PeId(1)), PeId(1));
    }

    #[test]
    fn invariants_hold() {
        tiny().check_invariants();
    }

    /// Distances and every hop of the whole walk between 100k seeded
    /// random pairs, on random graphs just under the dense-table limit.
    #[test]
    fn lazy_router_matches_dense_on_random_graphs() {
        for (n, degree, seed) in [(2000, 4, 1), (1500, 3, 7), (600, 6, 3)] {
            let dense = random_regular(n, degree, seed);
            assert!(dense.num_pes() <= DENSE_ROUTER_LIMIT);
            let lazy = dense.clone().force_lazy_router();
            let name = dense.name();
            let mut state = seed;
            let mut pick = || PeId((splitmix64(&mut state) % n as u64) as u32);
            for _ in 0..100_000 {
                let (a, b) = (pick(), pick());
                assert_eq!(
                    dense.distance(a, b),
                    lazy.distance(a, b),
                    "{name}: {a}->{b}"
                );
                let mut at = a;
                while at != b {
                    let hop = dense.next_hop(at, b);
                    assert_eq!(
                        lazy.next_hop(at, b),
                        hop,
                        "{name}: {at}->{b} (walk {a}->{b})"
                    );
                    at = hop;
                }
            }
        }
    }

    /// Every ordered pair on buses and degenerate shapes: odd and even
    /// distances, searches where the target side reaches the source,
    /// adjacent pairs.
    #[test]
    fn lazy_router_matches_dense_on_arbitrary_graph() {
        tiny().force_lazy_router().check_invariants();
        for dense in [
            tiny(),
            crate::dlm::double_lattice_mesh(3, 12, 12),
            crate::misc::tree(3, 5),
            crate::misc::ring(301),
            crate::misc::star(40),
            crate::misc::single_bus(9),
        ] {
            let lazy = dense.clone().force_lazy_router();
            let name = dense.name();
            for a in dense.pes() {
                for b in dense.pes() {
                    assert_eq!(
                        dense.distance(a, b),
                        lazy.distance(a, b),
                        "{name}: {a}->{b}"
                    );
                    assert_eq!(
                        dense.next_hop(a, b),
                        lazy.next_hop(a, b),
                        "{name}: {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn mean_distance_of_two_node_graph() {
        let t = Topology::from_channels("pair", 2, vec![vec![PeId(0), PeId(1)]]);
        assert_eq!(t.mean_distance(), 1.0);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn duplicate_members_are_deduped() {
        let t = Topology::from_channels("dup", 2, vec![vec![PeId(0), PeId(1), PeId(1), PeId(0)]]);
        assert_eq!(t.degree(PeId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_graph_panics() {
        Topology::from_channels(
            "split",
            4,
            vec![vec![PeId(0), PeId(1)], vec![PeId(2), PeId(3)]],
        );
    }

    #[test]
    #[should_panic(expected = "fewer than two")]
    fn degenerate_channel_panics() {
        Topology::from_channels(
            "loop",
            2,
            vec![vec![PeId(0), PeId(0)], vec![PeId(0), PeId(1)]],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_member_panics() {
        Topology::from_channels("oob", 2, vec![vec![PeId(0), PeId(5)]]);
    }

    #[test]
    fn dot_export_contains_links_and_buses() {
        let t = tiny();
        let dot = t.to_dot();
        assert!(dot.starts_with("graph \"tiny\""));
        assert!(dot.contains("p0 -- p1;"), "{dot}");
        assert!(dot.contains("b2 [shape=box"), "{dot}");
        assert!(dot.contains("b2 -- p3;"), "{dot}");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    #[should_panic(expected = "no PEs")]
    fn empty_topology_panics() {
        Topology::from_channels("none", 0, vec![]);
    }

    // ------------------------------------------------------------------
    // Edge-list loader.
    // ------------------------------------------------------------------

    fn load(text: &str) -> Result<Topology, SpecError> {
        Topology::from_edge_list("test", std::io::Cursor::new(text))
    }

    #[test]
    fn edge_list_loads_with_comments_and_blanks() {
        let t = load("# a triangle\npes 3\n\n0 1\n1 2 # closing\n2 0\n").unwrap();
        assert_eq!(t.num_pes(), 3);
        assert_eq!(t.num_channels(), 3);
        assert_eq!(t.diameter(), 1);
        t.check_invariants();
    }

    #[test]
    fn edge_list_rejects_self_loop() {
        let err = load("pes 3\n0 1\n1 1\n2 0\n").unwrap_err();
        assert!(err.0.contains("self-loop"), "{err}");
        assert!(err.0.contains("line 3"), "{err}");
        assert!(err.0.contains("grammar"), "{err}");
    }

    #[test]
    fn edge_list_rejects_duplicate_edge_either_orientation() {
        let err = load("pes 3\n0 1\n1 2\n1 0\n").unwrap_err();
        assert!(err.0.contains("duplicate edge"), "{err}");
        assert!(err.0.contains("line 4"), "{err}");
    }

    #[test]
    fn edge_list_rejects_oversized_ids_via_try_from() {
        // An id beyond u32 must fail the checked conversion loudly, not
        // wrap — the regression the unchecked `as u32` casts allowed.
        let err = load("pes 4294967296\n0 1\n").unwrap_err();
        assert!(err.0.contains("exceeds u32"), "{err}");
        let err = load("pes 3\n0 99999999999\n").unwrap_err();
        assert!(err.0.contains("exceeds u32"), "{err}");
    }

    #[test]
    fn edge_list_rejects_missing_header_and_bad_lines() {
        assert!(load("0 1\n").unwrap_err().0.contains("before 'pes N'"));
        assert!(load("pes 3\n0\n").unwrap_err().0.contains("malformed"));
        assert!(load("pes 3\n0 1 2\n")
            .unwrap_err()
            .0
            .contains("too many fields"));
        assert!(load("").unwrap_err().0.contains("missing 'pes N'"));
        assert!(load("pes 3\n0 9\n").unwrap_err().0.contains("out of range"));
    }

    // ------------------------------------------------------------------
    // Random graphs.
    // ------------------------------------------------------------------

    #[test]
    fn random_graph_is_connected_and_deterministic() {
        let a = random_regular(40, 4, 7);
        let b = random_regular(40, 4, 7);
        a.check_invariants();
        assert_eq!(a.num_channels(), b.num_channels());
        assert_eq!(a.num_pes(), 40);
        // Ring + chords: strictly more channels than the bare ring.
        assert!(a.num_channels() > 40, "{}", a.num_channels());
        for pe in a.pes() {
            assert_eq!(
                a.channel_between(pe, b.neighbors(pe)[0].pe).is_some(),
                b.channel_between(pe, a.neighbors(pe)[0].pe).is_some()
            );
        }
    }
}
