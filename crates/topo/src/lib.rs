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
//! *neighbours* iff they share a channel. Grids and tori compute their
//! adjacency and shortest paths from their width and height and store
//! nothing per PE or per link. Every other graph keeps its adjacency in CSR
//! form. Hypercubes and k-ary cubes route by per-digit arithmetic; other
//! graphs answer shortest-path queries from a precomputed all-pairs table
//! when small, and through a bidirectional BFS per query that stores no
//! routes when large (edge-list files, `rand:NxD`) — so memory stays
//! O(PEs + links) at every scale.

pub mod dlm;
pub mod graph;
pub mod hypercube;
pub mod kary;
pub mod list;
pub mod mesh;
pub mod misc;
pub mod spec;

pub use graph::{random_regular, ChannelId, Neighbor, PeId, SpecError, Topology};
pub use list::{Members, Neighbors};
pub use spec::TopologySpec;
