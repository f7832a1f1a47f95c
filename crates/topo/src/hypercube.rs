//! Binary hypercubes (the paper's Appendix I topology).
//!
//! Distance is the Hamming distance of the PE ids, so hypercubes route
//! arithmetically with no stored table.

use crate::graph::{ArithmeticRouter, PeId, Topology};

/// Build a binary hypercube of the given dimension (`2^dim` PEs; PEs whose
/// ids differ in exactly one bit are linked).
///
/// # Panics
///
/// Panics if `dim == 0` (a single PE has no channels) or `dim > 24`
/// (16 Mi PEs — beyond that the link lists alone dwarf any simulation).
pub fn hypercube(dim: u32) -> Topology {
    assert!((1..=24).contains(&dim), "hypercube dimension out of range");
    let n = 1usize << dim;
    // Channel c joins links[2c] and links[2c + 1].
    let mut links = Vec::with_capacity(n * dim as usize);
    for i in 0..n {
        for b in 0..dim {
            let j = i ^ (1 << b);
            if i < j {
                links.extend([PeId(i as u32), PeId(j as u32)]);
            }
        }
    }
    Topology::with_arithmetic_router(
        format!("hypercube dim {dim}"),
        n,
        links,
        ArithmeticRouter::Hypercube,
        dim,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_is_diameter_and_degree() {
        for dim in 1..=7 {
            let t = hypercube(dim);
            assert_eq!(t.num_pes(), 1 << dim);
            assert_eq!(t.diameter(), dim);
            for pe in t.pes() {
                assert_eq!(t.degree(pe), dim as usize);
            }
        }
    }

    #[test]
    fn distance_is_hamming_distance() {
        let t = hypercube(5);
        for a in t.pes() {
            for b in t.pes() {
                assert_eq!(
                    t.distance(a, b),
                    (a.0 ^ b.0).count_ones(),
                    "distance({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn channel_count() {
        // d * 2^(d-1) links.
        assert_eq!(hypercube(6).num_channels(), 6 * 32);
    }

    #[test]
    fn invariants_hold() {
        hypercube(4).check_invariants();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_dimension_panics() {
        hypercube(0);
    }

    /// Arithmetic routing must reproduce the dense BFS table exactly
    /// (distances, next hops, diameter, mean distance).
    #[test]
    fn arithmetic_router_matches_dense_bfs_tables() {
        for dim in [1, 3, 5] {
            let arith = hypercube(dim);
            let channels = (0..arith.num_channels())
                .map(|c| {
                    arith
                        .channel_members(crate::graph::ChannelId(c as u32))
                        .to_vec()
                })
                .collect();
            let dense =
                Topology::from_channels(arith.name().to_string(), arith.num_pes(), channels);
            for a in arith.pes() {
                for b in arith.pes() {
                    assert_eq!(arith.distance(a, b), dense.distance(a, b));
                    assert_eq!(
                        arith.next_hop(a, b),
                        dense.next_hop(a, b),
                        "{a}->{b} dim {dim}"
                    );
                }
            }
            assert_eq!(arith.diameter(), dense.diameter());
            assert!((arith.mean_distance() - dense.mean_distance()).abs() < 1e-9);
        }
    }
}
