//! Declarative topology specifications.
//!
//! A [`TopologySpec`] is a small serializable value describing which topology
//! to build; `build()` turns it into a concrete [`Topology`]. Specs also
//! parse from compact strings (`"grid:10x10"`, `"dlm:5x20x20"`,
//! `"hypercube:7"`, `"rand:100000x4"`), which the CLI and benchmark
//! harnesses use. All size arithmetic is checked: a spec whose PE count
//! overflows (or exceeds the `u32` id space) is a loud error naming the
//! offending token, never a wrapped nonsense count.

use std::fmt;
use std::str::FromStr;

use crate::graph::Topology;
use crate::{dlm, graph, hypercube, kary, mesh, misc};

/// Seed for the `rand:NxD` topology family: the graph is a pure function of
/// `(nodes, degree)` and this constant, so a spec names one graph forever.
const RANDOM_TOPOLOGY_SEED: u64 = 0x00C0_FFEE_5EED_5EED;

/// A description of an interconnection topology.
///
/// ```
/// use oracle_topo::TopologySpec;
///
/// let spec: TopologySpec = "grid:10".parse().unwrap();
/// let topo = spec.build();
/// assert_eq!(topo.num_pes(), 100);
/// assert_eq!(topo.diameter(), 18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// 2-D nearest-neighbour mesh; `wraparound` joins opposite edges.
    Mesh2D {
        width: usize,
        height: usize,
        wraparound: bool,
    },
    /// Double-lattice-mesh with buses spanning `span` PEs.
    DoubleLatticeMesh {
        span: usize,
        width: usize,
        height: usize,
    },
    /// Binary hypercube with `2^dim` PEs.
    Hypercube { dim: u32 },
    /// A cycle of `n` PEs.
    Ring { n: usize },
    /// Every pair of PEs directly linked.
    Complete { n: usize },
    /// PE 0 at the hub, all others leaves.
    Star { n: usize },
    /// All PEs on one shared bus.
    SingleBus { n: usize },
    /// k-ary n-cube (`k^n` PEs; ring/torus/hypercube generalization).
    KAryNCube { k: usize, n: u32 },
    /// Complete `arity`-ary tree of the given depth.
    Tree { arity: usize, depth: u32 },
    /// Seeded connected random graph: a ring plus random chords up to
    /// roughly `degree` per PE. Deterministic per `(nodes, degree)`.
    Random { nodes: u32, degree: u32 },
}

impl TopologySpec {
    /// The paper's square grid of `side × side` PEs (no wraparound; see
    /// DESIGN.md on the grid/torus discrepancy).
    pub fn grid(side: usize) -> Self {
        TopologySpec::Mesh2D {
            width: side,
            height: side,
            wraparound: false,
        }
    }

    /// The paper's DLM presets: span 5 for sides divisible by 5, span 4
    /// otherwise (matching the `5 20 20` / `4 16 16` plot headers).
    pub fn dlm(side: usize) -> Self {
        let span = if side.is_multiple_of(5) { 5 } else { 4 };
        TopologySpec::DoubleLatticeMesh {
            span,
            width: side,
            height: side,
        }
    }

    /// Number of PEs this spec will produce, with checked arithmetic: a
    /// count that overflows or exceeds the `u32` PE id space is an error
    /// naming the offending spec token rather than a silently wrapped
    /// value.
    pub fn try_num_pes(&self) -> Result<usize, String> {
        let fit = |n: u64| -> Result<usize, String> {
            if u32::try_from(n).is_err() {
                return Err(format!(
                    "spec token {self}: PE count {n} exceeds the u32 id space"
                ));
            }
            Ok(n as usize)
        };
        let overflow = || format!("spec token {self}: PE count overflows");
        match *self {
            TopologySpec::Mesh2D { width, height, .. }
            | TopologySpec::DoubleLatticeMesh { width, height, .. } => (width as u64)
                .checked_mul(height as u64)
                .ok_or_else(overflow)
                .and_then(fit),
            TopologySpec::Hypercube { dim } => {
                if dim >= 32 {
                    return Err(overflow());
                }
                fit(1u64 << dim)
            }
            TopologySpec::Ring { n }
            | TopologySpec::Complete { n }
            | TopologySpec::Star { n }
            | TopologySpec::SingleBus { n } => fit(n as u64),
            TopologySpec::KAryNCube { k, n } => {
                (k as u64).checked_pow(n).ok_or_else(overflow).and_then(fit)
            }
            TopologySpec::Tree { arity, depth } => {
                let mut size = 0u64;
                let mut level = 1u64;
                for _ in 0..=depth {
                    size = size.checked_add(level).ok_or_else(overflow)?;
                    level = level.checked_mul(arity as u64).ok_or_else(overflow)?;
                }
                fit(size)
            }
            TopologySpec::Random { nodes, .. } => Ok(nodes as usize),
        }
    }

    /// Number of PEs this spec will produce.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows; fallible callers (parsers, loaders)
    /// should prefer [`TopologySpec::try_num_pes`].
    pub fn num_pes(&self) -> usize {
        self.try_num_pes().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct the topology.
    pub fn build(&self) -> Topology {
        match *self {
            TopologySpec::Mesh2D {
                width,
                height,
                wraparound,
            } => mesh::mesh2d(width, height, wraparound),
            TopologySpec::DoubleLatticeMesh {
                span,
                width,
                height,
            } => dlm::double_lattice_mesh(span, width, height),
            TopologySpec::Hypercube { dim } => hypercube::hypercube(dim),
            TopologySpec::Ring { n } => misc::ring(n),
            TopologySpec::Complete { n } => misc::complete(n),
            TopologySpec::Star { n } => misc::star(n),
            TopologySpec::SingleBus { n } => misc::single_bus(n),
            TopologySpec::KAryNCube { k, n } => kary::kary_ncube(k, n),
            TopologySpec::Tree { arity, depth } => misc::tree(arity, depth),
            TopologySpec::Random { nodes, degree } => {
                graph::random_regular(nodes, degree, RANDOM_TOPOLOGY_SEED)
            }
        }
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopologySpec::Mesh2D {
                width,
                height,
                wraparound,
            } => {
                let kind = if wraparound { "torus" } else { "grid" };
                write!(f, "{kind}:{width}x{height}")
            }
            TopologySpec::DoubleLatticeMesh {
                span,
                width,
                height,
            } => write!(f, "dlm:{span}x{width}x{height}"),
            TopologySpec::Hypercube { dim } => write!(f, "hypercube:{dim}"),
            TopologySpec::Ring { n } => write!(f, "ring:{n}"),
            TopologySpec::Complete { n } => write!(f, "complete:{n}"),
            TopologySpec::Star { n } => write!(f, "star:{n}"),
            TopologySpec::SingleBus { n } => write!(f, "bus:{n}"),
            TopologySpec::KAryNCube { k, n } => write!(f, "kary:{k}x{n}"),
            TopologySpec::Tree { arity, depth } => write!(f, "tree:{arity}x{depth}"),
            TopologySpec::Random { nodes, degree } => write!(f, "rand:{nodes}x{degree}"),
        }
    }
}

/// Error parsing a [`TopologySpec`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError(pub String);

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology spec: {}", self.0)
    }
}

impl std::error::Error for ParseSpecError {}

impl FromStr for TopologySpec {
    type Err = ParseSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseSpecError(s.to_string());
        let (kind, args) = s.split_once(':').ok_or_else(err)?;
        let nums: Vec<usize> = args
            .split('x')
            .map(|p| p.parse().map_err(|_| err()))
            .collect::<Result<_, _>>()?;
        let spec = match (kind, nums.as_slice()) {
            ("grid", [w, h]) => TopologySpec::Mesh2D {
                width: *w,
                height: *h,
                wraparound: false,
            },
            ("grid", [side]) => TopologySpec::grid(*side),
            ("torus", [w, h]) => TopologySpec::Mesh2D {
                width: *w,
                height: *h,
                wraparound: true,
            },
            ("torus", [side]) => TopologySpec::Mesh2D {
                width: *side,
                height: *side,
                wraparound: true,
            },
            ("dlm", [span, w, h]) => TopologySpec::DoubleLatticeMesh {
                span: *span,
                width: *w,
                height: *h,
            },
            ("dlm", [side]) => TopologySpec::dlm(*side),
            ("hypercube", [dim]) => TopologySpec::Hypercube { dim: *dim as u32 },
            ("ring", [n]) => TopologySpec::Ring { n: *n },
            ("complete", [n]) => TopologySpec::Complete { n: *n },
            ("star", [n]) => TopologySpec::Star { n: *n },
            ("bus", [n]) => TopologySpec::SingleBus { n: *n },
            ("kary", [k, n]) => TopologySpec::KAryNCube {
                k: *k,
                n: *n as u32,
            },
            ("tree", [arity, depth]) => TopologySpec::Tree {
                arity: *arity,
                depth: *depth as u32,
            },
            ("rand", [nodes, degree]) => TopologySpec::Random {
                nodes: u32::try_from(*nodes)
                    .map_err(|_| ParseSpecError(format!("{s} (node count exceeds u32)")))?,
                degree: u32::try_from(*degree)
                    .map_err(|_| ParseSpecError(format!("{s} (degree exceeds u32)")))?,
            },
            _ => return Err(err()),
        };
        // Size arithmetic is checked at parse time so a CLI user sees the
        // offending token, not a downstream panic.
        spec.try_num_pes().map_err(ParseSpecError)?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_matches_spec_sizes() {
        let specs = [
            TopologySpec::grid(5),
            TopologySpec::dlm(10),
            TopologySpec::Hypercube { dim: 5 },
            TopologySpec::Ring { n: 9 },
            TopologySpec::Complete { n: 6 },
            TopologySpec::Star { n: 7 },
            TopologySpec::SingleBus { n: 4 },
            TopologySpec::KAryNCube { k: 3, n: 3 },
            TopologySpec::Tree { arity: 2, depth: 4 },
            TopologySpec::Random {
                nodes: 50,
                degree: 4,
            },
        ];
        for spec in specs {
            let t = spec.build();
            assert_eq!(t.num_pes(), spec.num_pes(), "{spec}");
        }
    }

    #[test]
    fn dlm_preset_spans() {
        assert_eq!(
            TopologySpec::dlm(20),
            TopologySpec::DoubleLatticeMesh {
                span: 5,
                width: 20,
                height: 20
            }
        );
        assert_eq!(
            TopologySpec::dlm(16),
            TopologySpec::DoubleLatticeMesh {
                span: 4,
                width: 16,
                height: 16
            }
        );
    }

    #[test]
    fn display_and_parse_round_trip() {
        let specs = [
            TopologySpec::grid(10),
            TopologySpec::Mesh2D {
                width: 4,
                height: 6,
                wraparound: true,
            },
            TopologySpec::dlm(20),
            TopologySpec::Hypercube { dim: 7 },
            TopologySpec::Ring { n: 12 },
            TopologySpec::Complete { n: 5 },
            TopologySpec::Star { n: 9 },
            TopologySpec::SingleBus { n: 16 },
            TopologySpec::KAryNCube { k: 4, n: 3 },
            TopologySpec::Tree { arity: 3, depth: 2 },
            TopologySpec::Random {
                nodes: 1000,
                degree: 4,
            },
        ];
        for spec in specs {
            let parsed: TopologySpec = spec.to_string().parse().unwrap();
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn parse_shorthand_forms() {
        assert_eq!(
            "grid:8".parse::<TopologySpec>().unwrap(),
            TopologySpec::grid(8)
        );
        assert_eq!(
            "dlm:10".parse::<TopologySpec>().unwrap(),
            TopologySpec::dlm(10)
        );
        assert_eq!(
            "dlm:5x20x20".parse::<TopologySpec>().unwrap(),
            TopologySpec::DoubleLatticeMesh {
                span: 5,
                width: 20,
                height: 20
            }
        );
        assert_eq!(
            "torus:1000".parse::<TopologySpec>().unwrap(),
            TopologySpec::Mesh2D {
                width: 1000,
                height: 1000,
                wraparound: true,
            }
        );
        assert_eq!(
            "rand:100000x4".parse::<TopologySpec>().unwrap(),
            TopologySpec::Random {
                nodes: 100_000,
                degree: 4,
            }
        );
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in ["", "grid", "grid:", "grid:axb", "blah:3", "hypercube:1x2"] {
            assert!(bad.parse::<TopologySpec>().is_err(), "{bad:?} parsed");
        }
    }

    /// Regression for the unchecked dimension multiply: an overflowing spec
    /// must parse to an error naming the offending token, not produce a
    /// wrapped PE count.
    #[test]
    fn overflowing_dimensions_are_rejected_with_the_token() {
        let spec = TopologySpec::Mesh2D {
            width: 10_000_000_000,
            height: 10_000_000_000,
            wraparound: false,
        };
        let err = spec.try_num_pes().unwrap_err();
        assert!(err.contains("grid:10000000000x10000000000"), "{err}");
        assert!(err.contains("overflows"), "{err}");

        let err = "grid:10000000000x10000000000"
            .parse::<TopologySpec>()
            .unwrap_err();
        assert!(err.0.contains("grid:10000000000x10000000000"), "{}", err.0);

        let err = TopologySpec::KAryNCube { k: 1000, n: 10 }
            .try_num_pes()
            .unwrap_err();
        assert!(err.contains("kary:1000x10"), "{err}");

        // Within u64 but beyond the u32 id space: also rejected, with the
        // actual count in the message.
        let err = "torus:100000x100000".parse::<TopologySpec>().unwrap_err();
        assert!(err.0.contains("exceeds the u32 id space"), "{}", err.0);

        let err = TopologySpec::Hypercube { dim: 40 }
            .try_num_pes()
            .unwrap_err();
        assert!(err.contains("hypercube:40"), "{err}");
    }

    #[test]
    fn million_pe_specs_count_without_building() {
        assert_eq!(
            "torus:1000x1000".parse::<TopologySpec>().unwrap().num_pes(),
            1_000_000
        );
        assert_eq!(
            "rand:1000000x4".parse::<TopologySpec>().unwrap().num_pes(),
            1_000_000
        );
    }
}
