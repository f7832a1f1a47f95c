//! # oracle-topo — interconnection topologies
//!
//! The paper compares load-distribution strategies on three interconnection
//! schemes: the 2-D nearest-neighbour grid, the double-lattice-mesh (DLM, a
//! bus-based topology from Kale's "Optimal Communication Neighborhoods",
//! ICPP 1986), and — in the appendix — hypercubes. This crate builds those
//! (plus rings, complete graphs, and stars used for testing and ablations)
//! behind a single concrete [`Topology`] type.
//!
//! A topology is a set of *channels*; a channel is either a point-to-point
//! link (two members) or a bus (more than two members). Two PEs are
//! *neighbours* iff they share a channel. Every topology answers
//! shortest-path distance and deterministic next-hop queries: the regular
//! families (grid/torus/hypercube/k-ary) arithmetically with no stored
//! table, small arbitrary graphs from a precomputed all-pairs table, and
//! large arbitrary graphs (edge-list files, `rand:NxD`) through a
//! bidirectional BFS per query that stores no routes — so memory stays
//! O(PEs + links) at every scale.

pub mod dlm;
pub mod graph;
pub mod hypercube;
pub mod kary;
pub mod mesh;
pub mod misc;
pub mod spec;

pub use graph::{random_regular, ChannelId, Neighbor, PeId, SpecError, Topology};
pub use spec::TopologySpec;
