//! The 2-D nearest-neighbour grid.
//!
//! The paper's text says "the 2-dimensional grid (nearest neighbor grid) with
//! wrap-around connections", but the diameters it quotes (8 for 5×5 up to 38
//! for 20×20) are those of the *plain* mesh — a 20×20 torus has diameter 20.
//! Both variants are provided; the experiment presets follow the quoted
//! diameters and use `wraparound = false` (see DESIGN.md).
//!
//! Meshes route arithmetically (per-dimension coordinate walk), so a
//! 1000×1000 torus costs O(PEs + links) memory — no all-pairs table.

use crate::graph::{ArithmeticRouter, PeId, Topology};

/// Diameter contribution of one dimension: `size - 1` on a path, `size / 2`
/// on a ring (wrap links exist only on dimensions longer than 2).
fn dim_diameter(size: usize, wrap: bool) -> u32 {
    if wrap && size > 2 {
        (size / 2) as u32
    } else {
        (size - 1) as u32
    }
}

/// Build a `width × height` 2-D mesh. With `wraparound`, opposite edges are
/// joined into a torus.
///
/// PEs are numbered row-major: PE at `(x, y)` is `y * width + x`.
///
/// # Panics
///
/// Panics if either dimension is zero, if the mesh would have a single PE
/// (no channels), or if `width * height` overflows the PE id space.
pub fn mesh2d(width: usize, height: usize, wraparound: bool) -> Topology {
    assert!(width > 0 && height > 0, "mesh dimensions must be positive");
    let n = width
        .checked_mul(height)
        .filter(|&n| u32::try_from(n).is_ok())
        .unwrap_or_else(|| panic!("mesh {width}x{height} overflows the PE id space"));
    assert!(n > 1, "a 1x1 mesh has no channels");
    let id = |x: usize, y: usize| PeId((y * width + x) as u32);
    // Channel c joins links[2c] and links[2c + 1].
    let mut links = Vec::with_capacity(4 * n);
    for y in 0..height {
        for x in 0..width {
            // Rightward link.
            if x + 1 < width {
                links.extend([id(x, y), id(x + 1, y)]);
            } else if wraparound && width > 2 {
                links.extend([id(x, y), id(0, y)]);
            }
            // Downward link.
            if y + 1 < height {
                links.extend([id(x, y), id(x, y + 1)]);
            } else if wraparound && height > 2 {
                links.extend([id(x, y), id(x, 0)]);
            }
        }
    }
    let kind = if wraparound { "torus" } else { "grid" };
    let diameter = dim_diameter(width, wraparound) + dim_diameter(height, wraparound);
    Topology::with_arithmetic_router(
        format!("{kind} {width}x{height}"),
        n,
        links,
        ArithmeticRouter::Grid {
            width: width as u32,
            height: height as u32,
            wrap: wraparound,
        },
        diameter,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_5x5_matches_paper_diameter() {
        let t = mesh2d(5, 5, false);
        assert_eq!(t.num_pes(), 25);
        assert_eq!(t.diameter(), 8); // paper: grid diameters range from 8 ...
        t.check_invariants();
    }

    #[test]
    fn grid_20x20_matches_paper_diameter() {
        let t = mesh2d(20, 20, false);
        assert_eq!(t.num_pes(), 400);
        assert_eq!(t.diameter(), 38); // ... to 38
    }

    #[test]
    fn grid_degrees() {
        let t = mesh2d(4, 4, false);
        assert_eq!(t.degree(PeId(0)), 2); // corner
        assert_eq!(t.degree(PeId(1)), 3); // edge
        assert_eq!(t.degree(PeId(5)), 4); // interior
    }

    #[test]
    fn torus_every_pe_has_degree_four() {
        let t = mesh2d(5, 5, true);
        for pe in t.pes() {
            assert_eq!(t.degree(pe), 4);
        }
        assert_eq!(t.diameter(), 4); // floor(5/2) + floor(5/2)
        t.check_invariants();
    }

    #[test]
    fn torus_10x10_diameter() {
        assert_eq!(mesh2d(10, 10, true).diameter(), 10);
    }

    #[test]
    fn channel_count_grid() {
        // An n x m grid has n(m-1) + m(n-1) links.
        let t = mesh2d(3, 4, false);
        assert_eq!(t.num_channels(), 3 * 3 + 4 * 2);
    }

    #[test]
    fn channel_count_torus() {
        // A torus (both dims > 2) has 2nm links.
        let t = mesh2d(4, 5, true);
        assert_eq!(t.num_channels(), 2 * 20);
    }

    #[test]
    fn degenerate_width_two_torus_has_no_duplicate_links() {
        let t = mesh2d(2, 3, true);
        // Width 2: wrap link would duplicate the existing horizontal link.
        assert_eq!(t.degree(PeId(0)), 3); // right + down + wrap-down
        t.check_invariants();
    }

    #[test]
    fn single_row_mesh_is_a_path() {
        let t = mesh2d(6, 1, false);
        assert_eq!(t.diameter(), 5);
        assert_eq!(t.num_channels(), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        mesh2d(0, 3, false);
    }

    /// The tentpole's routing contract: the arithmetic router must agree
    /// with the classic dense BFS table on every (from, to) pair — same
    /// distances AND the same next hops, since next hops feed the golden
    /// reports.
    #[test]
    fn arithmetic_router_matches_dense_bfs_tables() {
        for (w, h, wrap) in [
            (5, 5, false),
            (5, 5, true),
            (4, 7, false),
            (4, 7, true),
            (2, 3, true),
            (6, 1, false),
            (3, 3, true),
        ] {
            let arith = mesh2d(w, h, wrap);
            // Rebuild the same graph through the generic constructor, which
            // attaches the dense all-pairs router at this size.
            let dense = dense_twin(&arith);
            for a in arith.pes() {
                for b in arith.pes() {
                    assert_eq!(
                        arith.distance(a, b),
                        dense.distance(a, b),
                        "distance {a}->{b} on {}",
                        arith.name()
                    );
                    assert_eq!(
                        arith.next_hop(a, b),
                        dense.next_hop(a, b),
                        "next_hop {a}->{b} on {}",
                        arith.name()
                    );
                }
            }
            assert_eq!(arith.diameter(), dense.diameter(), "{}", arith.name());
            assert!((arith.mean_distance() - dense.mean_distance()).abs() < 1e-9);
        }
    }

    fn dense_twin(t: &Topology) -> Topology {
        let channels = (0..t.num_channels())
            .map(|c| {
                t.channel_members(crate::graph::ChannelId(c as u32))
                    .to_vec()
            })
            .collect();
        Topology::from_channels(t.name().to_string(), t.num_pes(), channels)
    }

    /// Regression for the `diameter() -> u16` truncation: a path of 70 000
    /// PEs has eccentricity 69 999 > 65 535, which the old u16 return
    /// silently wrapped to 4 463.
    #[test]
    fn long_path_diameter_exceeds_u16() {
        let t = mesh2d(70_000, 1, false);
        assert_eq!(t.diameter(), 69_999);
        assert!(t.diameter() > u16::MAX as u32);
        assert_eq!(t.distance(PeId(0), PeId(69_999)), 69_999);
        assert_eq!(t.next_hop(PeId(0), PeId(69_999)), PeId(1));
    }
}
