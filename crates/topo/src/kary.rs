//! k-ary n-cubes: the family that unifies rings, toruses, and hypercubes.
//!
//! A k-ary n-cube has `k^n` PEs addressed by `n` base-`k` digits; PEs are
//! linked iff their addresses differ by ±1 (mod k) in exactly one digit.
//! `kary_ncube(k, 1)` is a ring of k, `kary_ncube(k, 2)` the k×k torus,
//! and `kary_ncube(2, n)` the binary hypercube — so this one constructor
//! covers the whole design space the 1980s interconnection literature
//! argued over, and lets the ablation harness sweep dimensionality at a
//! fixed PE count.
//!
//! Routing is arithmetic (per-digit ring distance), so even million-PE
//! cubes carry no distance table; adjacency is stored in CSR form.

use crate::graph::{PeId, Topology};

/// Build a k-ary n-cube (`k^n` PEs).
///
/// # Panics
///
/// Panics unless `k >= 2`, `1 <= n`, and `k^n` fits the PE id space
/// (`u32`), or if the channel ids overflow it.
pub fn kary_ncube(k: usize, n: u32) -> Topology {
    assert!(k >= 2, "radix must be at least 2");
    assert!(n >= 1, "dimension must be at least 1");
    let size = (k as u64)
        .checked_pow(n)
        .filter(|&s| u32::try_from(s).is_ok())
        .unwrap_or_else(|| panic!("k^n = {k}^{n} exceeds the PE id space"));
    let size = size as usize;

    // Channel c joins links[2c] and links[2c + 1]: PE by PE in id order,
    // digit by digit from the least significant, the link to the PE whose
    // digit is one higher (mod k). That covers every edge exactly once,
    // except for k == 2, where +1 and -1 coincide: emit only from digit 0.
    let mut links = Vec::new();
    for id in 0..size {
        let mut stride = 1;
        for _ in 0..n {
            let digit = (id / stride) % k;
            if k > 2 || digit == 0 {
                let up = id - digit * stride + (digit + 1) % k * stride;
                links.extend([PeId(id as u32), PeId(up as u32)]);
            }
            stride *= k;
        }
    }
    Topology::cube(format!("{k}-ary {n}-cube"), size, links, k as u32, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::hypercube;
    use crate::mesh::mesh2d;
    use crate::misc::ring;

    #[test]
    fn one_dimension_is_a_ring() {
        let cube = kary_ncube(7, 1);
        let r = ring(7);
        assert_eq!(cube.num_pes(), r.num_pes());
        assert_eq!(cube.num_channels(), r.num_channels());
        assert_eq!(cube.diameter(), r.diameter());
        cube.check_invariants();
    }

    #[test]
    fn two_dimensions_is_a_torus() {
        let cube = kary_ncube(5, 2);
        let torus = mesh2d(5, 5, true);
        assert_eq!(cube.num_pes(), torus.num_pes());
        assert_eq!(cube.num_channels(), torus.num_channels());
        assert_eq!(cube.diameter(), torus.diameter());
        cube.check_invariants();
    }

    #[test]
    fn radix_two_is_a_hypercube() {
        let cube = kary_ncube(2, 6);
        let h = hypercube(6);
        assert_eq!(cube.num_pes(), h.num_pes());
        assert_eq!(cube.num_channels(), h.num_channels());
        assert_eq!(cube.diameter(), h.diameter());
        for pe in cube.pes() {
            assert_eq!(cube.degree(pe), h.degree(pe));
        }
        cube.check_invariants();
    }

    #[test]
    fn diameter_is_n_times_half_k() {
        // Each dimension contributes floor(k/2) wrap-distance.
        assert_eq!(kary_ncube(6, 3).diameter(), 9);
        assert_eq!(kary_ncube(4, 2).diameter(), 4);
    }

    #[test]
    fn degrees() {
        // k > 2: 2 links per dimension; k == 2: one.
        let t = kary_ncube(4, 3);
        for pe in t.pes() {
            assert_eq!(t.degree(pe), 6);
        }
        let b = kary_ncube(2, 5);
        for pe in b.pes() {
            assert_eq!(b.degree(pe), 5);
        }
    }

    #[test]
    fn three_dimensional_invariants() {
        kary_ncube(3, 3).check_invariants();
    }

    #[test]
    #[should_panic(expected = "radix")]
    fn unary_radix_panics() {
        kary_ncube(1, 3);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_cube_panics() {
        kary_ncube(64, 8);
    }

    /// Arithmetic routing must reproduce the dense BFS table exactly.
    #[test]
    fn arithmetic_router_matches_dense_bfs_tables() {
        for (k, n) in [(5, 1), (4, 2), (3, 3), (2, 4)] {
            let arith = kary_ncube(k, n);
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
                        "{a}->{b} on {}-ary {}-cube",
                        k,
                        n
                    );
                }
            }
            assert_eq!(arith.diameter(), dense.diameter());
            assert!((arith.mean_distance() - dense.mean_distance()).abs() < 1e-9);
        }
    }
}
