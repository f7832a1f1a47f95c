//! The concrete topology type: channel sets, adjacency, and routing.
//!
//! A topology has one of two shapes. The 2-D mesh and torus
//! ([`crate::mesh::Grid`]) store nothing per PE or per link: neighbours,
//! channel ids, channel members, neighbour positions and shortest paths are
//! all computed from the width and height, and they agree exactly with what
//! the CSR build below would store for the same channel list (pinned by
//! tests). Every other graph keeps its channel member sets and per-PE
//! neighbour lists in compressed sparse rows (CSR), so it costs
//! O(PEs + edges) memory. k-ary n-cubes (the binary hypercube is `k = 2`)
//! route arithmetically; other small graphs route from a dense all-pairs
//! table, large ones answer each query with a bidirectional BFS and store
//! no routes. Every router produces the same next hops: the next hop from
//! `a` toward `b` is always the first neighbour of `a`, in sorted PE-id
//! order, whose distance to `b` is one less than `a`'s.

use std::collections::VecDeque;
use std::fmt;
use std::io::BufRead;
use std::sync::Mutex;

use crate::list::{List, Members, Neighbors};
use crate::mesh::Grid;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// How a CSR graph answers shortest-path queries.
enum Router {
    /// Flattened `[from * num_pes + to]` next-hop and distance tables.
    Dense { next_hop: Vec<PeId>, dist: Vec<u32> },
    /// k-ary n-cube (binary hypercube when `k == 2`), ids in base `k`:
    /// per-digit ring distance, no table.
    Cube { k: u32, n: u32 },
    /// Bidirectional BFS per query; stores no routes.
    Lazy(LazyRouter),
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Router::Dense { dist, .. } => write!(f, "Dense({} entries)", dist.len()),
            Router::Cube { k, n } => write!(f, "Cube({k}-ary {n}-cube)"),
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
            Router::Cube { k, n } => Router::Cube { k: *k, n: *n },
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
    fn expand(&mut self, g: &Graph, side: usize, depth: u32) -> bool {
        let epoch = self.epoch;
        let order = &mut self.order[side];
        let (start, end) = (self.layer[side], order.len());
        let mut met = false;
        for i in start..end {
            for nb in g.neighbors(PeId(order[i])) {
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
    fn query(&self, g: &Graph, from: PeId, target: PeId, want_hop: bool) -> (u32, PeId) {
        if from == target {
            return (0, from);
        }
        let mut scratch = self.scratch.lock().expect("lazy router scratch poisoned");
        let s = &mut *scratch;
        s.reset(g.num_pes());
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
                s.expand(g, FROM_SOURCE, a)
            } else {
                b += 1;
                s.expand(g, TO_TARGET, b)
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
            if g.neighbors(v)
                .iter()
                .any(|nb| s.to_target(nb.pe) == d - k - 1)
            {
                s.labels[v.idx()].depth[TO_TARGET] = d - k;
            }
        }
        let hop = g
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
/// [`crate::hypercube`], [`crate::kary`], [`crate::misc`], generically
/// through [`Topology::from_channels`], or from an edge-list file through
/// [`Topology::from_edge_list`].
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    num_pes: usize,
    diameter: u32,
    shape: Shape,
}

/// Where a topology's adjacency comes from.
#[derive(Debug, Clone)]
pub(crate) enum Shape {
    /// 2-D mesh or torus, computed from its width and height.
    Grid(Grid),
    /// Any other graph, stored in CSR form.
    Graph(Box<Graph>),
}

/// A stored graph: channel member sets, neighbour lists, the twin index
/// and the broadcast fan-out, all in CSR form, plus its router.
#[derive(Debug, Clone)]
pub(crate) struct Graph {
    /// CSR member PEs of each channel (sorted within a channel):
    /// channel `c` owns `chan_pes[chan_off[c]..chan_off[c + 1]]`.
    chan_off: Vec<usize>,
    chan_pes: Vec<PeId>,
    /// CSR sorted neighbour list per PE (one entry per distinct
    /// neighbour): PE `p` owns `adj[adj_off[p]..adj_off[p + 1]]`.
    adj_off: Vec<usize>,
    adj: Vec<Neighbor>,
    /// Twin index, aligned with `chan_pes`, so a delivery finds each
    /// receiver's slot for the sender without a search. For a member `m`
    /// of a link: the position of the other member in `m`'s neighbour
    /// list. For a member `m` of a bus: the start of `m`'s row in
    /// `bus_twin`, which gives, for every member of the bus in member
    /// order, its position in `m`'s neighbour list.
    twin: Vec<u32>,
    bus_twin: Vec<u32>,
    /// Distinct channels incident to each PE, in first-appearance order
    /// over its neighbour list: PE `p` owns
    /// `incident[incident_off[p]..incident_off[p + 1]]`. Stored only when
    /// the graph has a bus; on links alone they are the neighbours'
    /// channels, and both stay empty.
    incident_off: Vec<usize>,
    incident: Vec<ChannelId>,
    router: Router,
}

impl Graph {
    #[inline]
    fn num_pes(&self) -> usize {
        self.adj_off.len() - 1
    }

    #[inline]
    fn neighbors(&self, pe: PeId) -> &[Neighbor] {
        &self.adj[self.adj_off[pe.idx()]..self.adj_off[pe.idx() + 1]]
    }

    #[inline]
    fn members(&self, c: ChannelId) -> &[PeId] {
        &self.chan_pes[self.chan_off[c.idx()]..self.chan_off[c.idx() + 1]]
    }

    #[inline]
    fn position(&self, pe: PeId, nbr: PeId) -> Option<usize> {
        self.neighbors(pe).binary_search_by_key(&nbr, |n| n.pe).ok()
    }

    /// Check the id space, normalize the channel CSR (any member order,
    /// repeats allowed) and build the graph on it, with no router yet.
    fn stored(
        name: &str,
        num_pes: usize,
        mut chan_off: Vec<usize>,
        mut chan_pes: Vec<PeId>,
    ) -> Result<Self, SpecError> {
        check_id_space(name, num_pes, chan_off.len() - 1)?;
        normalize_channels(name, num_pes, &mut chan_off, &mut chan_pes)?;
        Graph::new(name, num_pes, chan_off, chan_pes)
    }

    /// Build the neighbour lists, twin index and fan-out lists from the
    /// normalized channel CSR.
    fn new(
        name: &str,
        num_pes: usize,
        chan_off: Vec<usize>,
        chan_pes: Vec<PeId>,
    ) -> Result<Self, SpecError> {
        let (adj_off, adj) = adjacency(num_pes, &chan_off, &chan_pes);
        let mut g = Graph {
            chan_off,
            chan_pes,
            adj_off,
            adj,
            twin: Vec::new(),
            bus_twin: Vec::new(),
            incident_off: Vec::new(),
            incident: Vec::new(),
            router: Router::Lazy(LazyRouter::new()),
        };
        // One pass over the neighbour lists. Entry `i` of a PE's list is
        // the position of that neighbour, which is the twin of every link
        // that is the lowest channel joining its pair (a link's members
        // are its two ends in id order). With buses, the broadcast fan-out
        // is each PE's distinct channels, deduplicated with a per-channel
        // stamp of the last PE that listed it.
        const UNSET: u32 = u32::MAX;
        let num_channels = g.chan_off.len() - 1;
        let buses = g.chan_off.windows(2).any(|w| w[1] - w[0] > 2);
        let mut twin = vec![UNSET; g.chan_pes.len()];
        let mut listed_by = vec![u32::MAX; if buses { num_channels } else { 0 }];
        let (mut incident_off, mut incident) = (Vec::new(), Vec::new());
        for p in 0..num_pes {
            let pe = PeId(p as u32);
            if buses {
                incident_off.push(incident.len());
            }
            for (i, nb) in g.neighbors(pe).iter().enumerate() {
                let c = nb.channel.idx();
                let start = g.chan_off[c];
                if g.chan_off[c + 1] - start == 2 {
                    twin[start + (pe > nb.pe) as usize] = i as u32;
                }
                if buses && listed_by[c] != pe.0 {
                    listed_by[c] = pe.0;
                    incident.push(nb.channel);
                }
            }
        }
        if buses {
            incident_off.push(incident.len());
        }
        // Buses, and links repeating a lower channel, by search.
        let mut bus_twin = Vec::new();
        for c in 0..num_channels {
            let start = g.chan_off[c];
            let members = g.members(ChannelId(c as u32));
            for (j, &at) in members.iter().enumerate() {
                let pos = |about: PeId| {
                    g.position(at, about)
                        .expect("channel members are neighbours") as u32
                };
                if members.len() == 2 {
                    if twin[start + j] == UNSET {
                        twin[start + j] = pos(members[1 - j]);
                    }
                    continue;
                }
                twin[start + j] = u32::try_from(bus_twin.len()).map_err(|_| {
                    SpecError(format!(
                        "topology {name:?} has buses too large for the twin index (u32)"
                    ))
                })?;
                bus_twin.extend(members.iter().map(|&about| {
                    if about == at {
                        u32::MAX
                    } else {
                        pos(about)
                    }
                }));
            }
        }
        g.twin = twin;
        g.bus_twin = bus_twin;
        g.incident_off = incident_off;
        g.incident = incident;
        Ok(g)
    }

    /// The slot of `pe` among the members of channel `c`.
    #[inline]
    fn member_slot(&self, c: ChannelId, pe: PeId) -> usize {
        self.members(c)
            .binary_search(&pe)
            .expect("a member of the channel")
    }

    /// Each member of channel `c` other than `from`, paired with the
    /// position of `from` in its neighbour list.
    #[inline]
    fn receivers(&self, c: ChannelId, from: PeId, out: &mut Vec<(PeId, usize)>) {
        let start = self.chan_off[c.idx()];
        if self.chan_off[c.idx() + 1] - start == 2 {
            let j = (self.chan_pes[start] == from) as usize;
            out.push((self.chan_pes[start + j], self.twin[start + j] as usize));
            return;
        }
        let i = self.member_slot(c, from);
        for (j, &m) in self.members(c).iter().enumerate() {
            if j != i {
                let row = self.twin[start + j] as usize;
                out.push((m, self.bus_twin[row + i] as usize));
            }
        }
    }

    /// All-pairs BFS tables (small arbitrary graphs only). Returns the
    /// diameter.
    fn build_dense_router(&mut self, name: &str) -> u32 {
        let n = self.num_pes();
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
                "topology {name:?} is not connected (unreachable from PE {src})"
            );
        }
        self.router = Router::Dense { next_hop, dist };
        diameter
    }

    /// Lazy router for large arbitrary graphs: one BFS proves
    /// connectivity, a second (double-sweep) estimates the diameter, which
    /// it returns.
    fn build_lazy_router(&mut self, name: &str) -> u32 {
        let row0 = self.bfs_row(PeId(0));
        let (far, ecc0) = row0
            .iter()
            .enumerate()
            .max_by_key(|&(_, &d)| (d != u32::MAX) as u64 * (d as u64 + 1))
            .map(|(i, &d)| (i, d))
            .expect("non-empty topology");
        assert!(
            !row0.contains(&u32::MAX),
            "topology {name:?} is not connected (unreachable from PE 0)"
        );
        let ecc_far = self
            .bfs_row(PeId(far as u32))
            .into_iter()
            .max()
            .unwrap_or(ecc0);
        self.router = Router::Lazy(LazyRouter::new());
        // Double-sweep lower bound — exact on trees and typically exact or
        // near-exact on the sparse random graphs this router serves. The
        // machine uses it only to size histograms (which carry explicit
        // overflow counters), never for correctness.
        ecc_far.max(ecc0)
    }

    /// One BFS from `src`: distances to every PE (`u32::MAX` = unreachable).
    fn bfs_row(&self, src: PeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_pes()];
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
        let mut graph = Graph::stored(&name, num_pes, chan_off, chan_pes)?;
        let diameter = if num_pes <= DENSE_ROUTER_LIMIT {
            graph.build_dense_router(&name)
        } else {
            graph.build_lazy_router(&name)
        };
        Ok(Topology {
            name,
            num_pes,
            diameter,
            shape: Shape::Graph(Box::new(graph)),
        })
    }

    /// A mesh or torus: adjacency and routing are computed from `grid`,
    /// and nothing is stored per PE or per link. `diameter` must be exact;
    /// [`crate::mesh::mesh2d`] computes it in closed form.
    ///
    /// # Panics
    ///
    /// Panics if the PE or channel count overflows the `u32` id space.
    pub(crate) fn grid(name: impl Into<String>, num_pes: usize, grid: Grid, diameter: u32) -> Self {
        let name = name.into();
        let num_channels = usize::try_from(grid.num_channels()).unwrap_or(usize::MAX);
        if let Err(SpecError(msg)) = check_id_space(&name, num_pes, num_channels) {
            panic!("{msg}");
        }
        Topology {
            name,
            num_pes,
            diameter,
            shape: Shape::Grid(grid),
        }
    }

    /// A k-ary n-cube of `k^n` PEs, stored in CSR form and routed by
    /// per-digit arithmetic ([`crate::kary`], [`crate::hypercube`]). Its
    /// channels are all links: channel `c` joins `links[2c]` and
    /// `links[2c + 1]`, passed flat so a big cube costs one array, not a
    /// `Vec` per channel.
    ///
    /// # Panics
    ///
    /// Panics if the PE or channel count overflows the `u32` id space.
    pub(crate) fn cube(
        name: impl Into<String>,
        num_pes: usize,
        links: Vec<PeId>,
        k: u32,
        n: u32,
    ) -> Self {
        let name = name.into();
        let chan_off: Vec<usize> = (0..=links.len() / 2).map(|c| 2 * c).collect();
        let mut graph = match Graph::stored(&name, num_pes, chan_off, links) {
            Ok(g) => g,
            Err(SpecError(msg)) => panic!("{msg}"),
        };
        graph.router = Router::Cube { k, n };
        Topology {
            name,
            num_pes,
            // Each digit contributes at most floor(k/2) ring hops.
            diameter: n * (k / 2),
            shape: Shape::Graph(Box::new(graph)),
        }
    }

    /// Replace this topology's router with the lazy router (keeping
    /// the already-computed exact diameter). For tests pinning
    /// lazy-vs-dense routing equivalence on small graphs; meshes have no
    /// router to replace.
    pub fn force_lazy_router(mut self) -> Self {
        if let Shape::Graph(g) = &mut self.shape {
            g.router = Router::Lazy(LazyRouter::new());
        }
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
        match &self.shape {
            Shape::Grid(g) => g.num_channels() as usize,
            Shape::Graph(g) => g.chan_off.len() - 1,
        }
    }

    /// All PE ids.
    pub fn pes(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.num_pes as u32).map(PeId)
    }

    /// The sorted member PEs of channel `c`.
    #[inline]
    pub fn channel_members(&self, c: ChannelId) -> Members<'_> {
        match &self.shape {
            Shape::Grid(g) => link(g.members(c)),
            Shape::Graph(g) => List::borrowed(g.members(c)),
        }
    }

    /// Call `f` on every neighbour of `pe`, in sorted PE-id order: the
    /// entries of [`Topology::neighbors`] without building the list.
    #[inline]
    pub fn for_each_neighbor(&self, pe: PeId, f: impl FnMut(Neighbor)) {
        match &self.shape {
            Shape::Grid(g) => g.links(pe, f),
            Shape::Graph(g) => g.neighbors(pe).iter().copied().for_each(f),
        }
    }

    /// The sorted neighbour list of `pe`.
    #[inline]
    pub fn neighbors(&self, pe: PeId) -> Neighbors<'_> {
        if let Shape::Graph(g) = &self.shape {
            return List::borrowed(g.neighbors(pe));
        }
        let mut list = List::inline();
        self.for_each_neighbor(pe, |nb| list.push(nb));
        list
    }

    /// Number of distinct neighbours of `pe`.
    #[inline]
    pub fn degree(&self, pe: PeId) -> usize {
        match &self.shape {
            Shape::Graph(g) => g.adj_off[pe.idx() + 1] - g.adj_off[pe.idx()],
            Shape::Grid(_) => {
                let mut degree = 0;
                self.for_each_neighbor(pe, |_| degree += 1);
                degree
            }
        }
    }

    /// The position of `nbr` in `pe`'s neighbour list together with the
    /// channel between them, or `None` if they are not neighbours. A binary
    /// search on stored graphs; computed on meshes.
    #[inline]
    pub fn find_neighbor(&self, pe: PeId, nbr: PeId) -> Option<(usize, ChannelId)> {
        match &self.shape {
            Shape::Grid(g) => g.find(pe, nbr),
            Shape::Graph(g) => {
                let list = g.neighbors(pe);
                g.position(pe, nbr).map(|i| (i, list[i].channel))
            }
        }
    }

    /// The position of `nbr` in `pe`'s neighbour list.
    #[inline]
    pub fn neighbor_position(&self, pe: PeId, nbr: PeId) -> Option<usize> {
        self.find_neighbor(pe, nbr).map(|(i, _)| i)
    }

    /// True if `a` and `b` share a channel.
    pub fn is_neighbor(&self, a: PeId, b: PeId) -> bool {
        self.find_neighbor(a, b).is_some()
    }

    /// The channel a single-hop message from `a` to its neighbour `b` uses.
    #[inline]
    pub fn channel_between(&self, a: PeId, b: PeId) -> Option<ChannelId> {
        self.find_neighbor(a, b).map(|(_, c)| c)
    }

    /// Call `f` on each distinct channel incident to `pe`, in
    /// first-appearance order over its neighbour list: a broadcast from
    /// `pe` transmits once on each. Where every channel is a link (meshes,
    /// and stored graphs without a bus), these are just the neighbours'
    /// channels.
    #[inline]
    pub fn for_each_incident_channel(&self, pe: PeId, mut f: impl FnMut(ChannelId)) {
        match &self.shape {
            Shape::Graph(g) if !g.incident_off.is_empty() => g.incident
                [g.incident_off[pe.idx()]..g.incident_off[pe.idx() + 1]]
                .iter()
                .copied()
                .for_each(f),
            _ => self.for_each_neighbor(pe, |nb| f(nb.channel)),
        }
    }

    /// The number of incident channels summed over every PE (see
    /// [`Topology::for_each_incident_channel`]): the transfers of one
    /// broadcast round from every PE.
    pub fn num_incidences(&self) -> usize {
        match &self.shape {
            Shape::Graph(g) if !g.incident_off.is_empty() => g.incident.len(),
            Shape::Graph(g) => g.adj.len(),
            // Every link is incident to both of its ends.
            _ => 2 * self.num_channels(),
        }
    }

    /// Fill `out` with each member of channel `c` other than the sender
    /// `from`, in member order, paired with the position of `from` in that
    /// member's neighbour list — the slot a delivery over `c` updates. O(1)
    /// per receiver: computed on meshes, read from the twin index on stored
    /// graphs. `from` must be a member of `c`.
    #[inline]
    pub fn receivers(&self, c: ChannelId, from: PeId, out: &mut Vec<(PeId, usize)>) {
        out.clear();
        match &self.shape {
            Shape::Grid(g) => out.push(g.receiver(c, from)),
            Shape::Graph(g) => g.receivers(c, from, out),
        }
    }

    /// Shortest-path distance in hops.
    #[inline]
    pub fn distance(&self, from: PeId, to: PeId) -> u32 {
        match &self.shape {
            Shape::Grid(g) => g.distance(from, to),
            Shape::Graph(g) => match &g.router {
                Router::Dense { dist, .. } => dist[from.idx() * self.num_pes + to.idx()],
                // The binary hypercube: the Hamming distance of the ids.
                Router::Cube { k: 2, .. } => (from.0 ^ to.0).count_ones(),
                &Router::Cube { k, n } => {
                    let (mut a, mut b, mut d) = (from.0, to.0, 0u32);
                    for _ in 0..n {
                        d += dim_distance(a % k, b % k, k, true);
                        a /= k;
                        b /= k;
                    }
                    d
                }
                Router::Lazy(lazy) => {
                    if from == to {
                        0
                    } else if g.position(from, to).is_some() {
                        // The dominant query on neighbourhood-local
                        // strategies; answered without a search.
                        1
                    } else {
                        lazy.query(g, from, to, false).0
                    }
                }
            },
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
        let g = match &self.shape {
            Shape::Grid(g) => return g.next_hop(from, to),
            Shape::Graph(g) => g,
        };
        match &g.router {
            Router::Dense { next_hop, .. } => next_hop[from.idx() * self.num_pes + to.idx()],
            // The smallest descending neighbour clears the highest bit
            // that `from` has and `to` lacks, or else sets the lowest bit
            // that `to` has and `from` lacks.
            Router::Cube { k: 2, .. } => {
                let (diff, fall) = (from.0 ^ to.0, (from.0 ^ to.0) & from.0);
                let b = if fall != 0 {
                    31 - fall.leading_zeros()
                } else {
                    diff.trailing_zeros()
                };
                PeId(from.0 ^ (1 << b))
            }
            Router::Cube { .. } => {
                let d = self.distance(from, to);
                g.neighbors(from)
                    .iter()
                    .find(|nb| self.distance(nb.pe, to) == d - 1)
                    .map(|nb| nb.pe)
                    .expect("connected graph has a descending neighbour")
            }
            Router::Lazy(lazy) => lazy.query(g, from, to, true).1,
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
    /// Closed-form for meshes and cubes, exact table sum for dense
    /// graphs; on the lazy router it is exact up to 4096 PEs (all-source
    /// BFS) and a deterministic 64-source sample beyond.
    pub fn mean_distance(&self) -> f64 {
        let n = self.num_pes as u128;
        if n < 2 {
            return 0.0;
        }
        let pairs = (n * (n - 1)) as f64;
        match &self.shape {
            Shape::Grid(g) => {
                let (w, h) = (g.width as u128, g.height as u128);
                let sum =
                    dim_pair_sum(g.width, g.wrap) * h * h + dim_pair_sum(g.height, g.wrap) * w * w;
                sum as f64 / pairs
            }
            Shape::Graph(g) => match &g.router {
                Router::Dense { dist, .. } => {
                    let sum: u64 = dist.iter().map(|&d| d as u64).sum();
                    sum as f64 / pairs
                }
                &Router::Cube { k, n: dims } => {
                    let per_dim = dim_pair_sum(k, true);
                    let rest = n / k as u128; // k^(dims-1)
                    let sum = per_dim * rest * rest * (dims as u128);
                    sum as f64 / pairs
                }
                Router::Lazy(_) => {
                    let exact = self.num_pes <= 4096;
                    let stride = if exact { 1 } else { (self.num_pes / 64).max(1) };
                    let sources: Vec<usize> = (0..self.num_pes).step_by(stride).collect();
                    let mut sum = 0u128;
                    for &s in &sources {
                        let row = g.bfs_row(PeId(s as u32));
                        sum += row.iter().map(|&d| d as u128).sum::<u128>();
                    }
                    let per_source_pairs = (self.num_pes - 1) as f64;
                    sum as f64 / (sources.len() as f64 * per_source_pairs)
                }
            },
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
        let lazy_estimate =
            matches!(&self.shape, Shape::Graph(g) if matches!(g.router, Router::Lazy(_)));
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

/// Fail unless every PE and channel id fits the `u32` id space (checked
/// with `try_from` rather than `as`, so oversized graphs fail loudly
/// instead of wrapping).
fn check_id_space(name: &str, num_pes: usize, num_channels: usize) -> Result<(), SpecError> {
    if num_pes == 0 {
        return Err(SpecError(format!("topology {name:?} has no PEs")));
    }
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
    Ok(())
}

/// Normalize each channel's member set in place: sorted, repeats dropped,
/// compacted toward the front of `chan_pes`. Channel `c` is given as the
/// members `chan_pes[chan_off[c]..chan_off[c + 1]]`, in any order and with
/// repeats.
fn normalize_channels(
    name: &str,
    num_pes: usize,
    chan_off: &mut [usize],
    chan_pes: &mut Vec<PeId>,
) -> Result<(), SpecError> {
    let num_channels = chan_off.len() - 1;
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
    Ok(())
}

/// A computed link's member list.
#[inline]
fn link<'a>([a, b]: [PeId; 2]) -> Members<'a> {
    let mut list = List::inline();
    list.push(a);
    list.push(b);
    list
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

/// Per-dimension hop distance: plain `|a - b|`, or the ring distance when
/// the dimension wraps. Wrap links only exist on dimensions longer than 2
/// (a width-2 wrap would duplicate the existing link), matching the mesh
/// constructors.
#[inline]
pub(crate) fn dim_distance(a: u32, b: u32, size: u32, wrap: bool) -> u32 {
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
        for p in t.pes() {
            let oracle = &adj[adj_off[p.idx()]..adj_off[p.idx() + 1]];
            assert_eq!(&*t.neighbors(p), oracle, "{}: {p}", t.name());
        }
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
            &*t.channel_members(ChannelId(2)),
            &[PeId(0), PeId(1), PeId(2)]
        );
        let edges = "pes 5\n0 1\n3 4\n1 2\n4 0\n2 3\n0 2\n";
        let t = Topology::from_edge_list("edges", std::io::Cursor::new(edges)).unwrap();
        assert_matches_sort_oracle(&t);
    }

    /// The twin index against its definition (neighbour positions), and
    /// the stored fan-out against the first-appearance dedup of the
    /// neighbour list, on links, buses, overlapping buses and a link
    /// repeated by a bus.
    #[test]
    fn twin_index_and_fan_out_match_their_definitions() {
        use crate::{dlm, misc};
        let overlapping = Topology::from_channels(
            "overlapping",
            6,
            vec![
                vec![PeId(0), PeId(1), PeId(2), PeId(3)],
                vec![PeId(2), PeId(3), PeId(4)],
                vec![PeId(3), PeId(4)],
                vec![PeId(4), PeId(5), PeId(0)],
            ],
        );
        let mut out = Vec::new();
        for t in [
            tiny(),
            overlapping,
            dlm::double_lattice_mesh(3, 6, 6),
            misc::single_bus(5),
            misc::star(7),
            random_regular(60, 4, 2),
        ] {
            let name = t.name().to_string();
            for c in 0..t.num_channels() {
                let c = ChannelId(c as u32);
                let members = t.channel_members(c);
                for &from in &*members {
                    t.receivers(c, from, &mut out);
                    let want: Vec<(PeId, usize)> = members
                        .iter()
                        .filter(|&&m| m != from)
                        .map(|&m| (m, t.neighbor_position(m, from).unwrap()))
                        .collect();
                    assert_eq!(out, want, "{name}: receivers of {c} from {from}");
                }
            }
            for p in t.pes() {
                let mut fanout = Vec::new();
                t.for_each_incident_channel(p, |c| fanout.push(c));
                let mut want: Vec<ChannelId> = Vec::new();
                for nb in t.neighbors(p) {
                    if !want.contains(&nb.channel) {
                        want.push(nb.channel);
                    }
                }
                assert_eq!(fanout, want, "{name}: fan-out of {p}");
            }
            let total: usize = t
                .pes()
                .map(|p| {
                    let mut n = 0;
                    t.for_each_incident_channel(p, |_| n += 1);
                    n
                })
                .sum();
            assert_eq!(t.num_incidences(), total, "{name}");
        }
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
