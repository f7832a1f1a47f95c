//! The 2-D nearest-neighbour grid.
//!
//! The paper's text says "the 2-dimensional grid (nearest neighbor grid) with
//! wrap-around connections", but the diameters it quotes (8 for 5×5 up to 38
//! for 20×20) are those of the *plain* mesh — a 20×20 torus has diameter 20.
//! Both variants are provided; the experiment presets follow the quoted
//! diameters and use `wraparound = false` (see DESIGN.md).
//!
//! Meshes are computed, not stored: neighbours, channel ids and shortest
//! paths all follow from the width and height, so a 1000×1000 torus costs
//! no memory per PE or per link.

use crate::graph::{dim_distance, ChannelId, Neighbor, PeId, Topology};

/// A missing neighbour in [`Grid::around`]: larger than every PE id.
const NONE: u32 = u32::MAX;

/// The shape of a `width × height` mesh, PEs numbered row-major. With
/// `wrap`, each dimension longer than 2 closes into a ring (a width-2 wrap
/// would duplicate the existing link).
///
/// Channel ids follow [`mesh2d`]'s construction order: PE by PE in id
/// order, each PE's rightward link (the wrap link at the end of a wrapped
/// row) before its downward one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grid {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) wrap: bool,
    /// Whether rows (`wrap_x`) and columns (`wrap_y`) close into rings.
    wrap_x: bool,
    wrap_y: bool,
    /// Channels of a row with downward links: its rightward links plus one
    /// downward link per PE (saturated on a single row too long for it,
    /// which has no second row to offset).
    row: u32,
    /// Divisions by the width (ids to coordinates) and by `row` (channel
    /// ids to rows), done by multiplication.
    by_width: Divisor,
    by_row: Divisor,
}

/// Division of a `u32` by a fixed divisor as a multiplication by its
/// precomputed inverse (Lemire, Kaser & Kurz, "Faster remainder by direct
/// computation", 2019): `inverse = u64::MAX / d + 1`, exact for every
/// `u32` dividend and divisor. Divisor 1, whose inverse would be 2^64,
/// divides directly. Every mesh query starts with a division, and a
/// hardware `div` made `grid_1k` about 10% slower (EXPERIMENTS.md,
/// "Computed adjacency on regular machines").
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u32,
    inverse: u64,
}

impl Divisor {
    fn new(d: u32) -> Self {
        Divisor {
            d,
            inverse: (u64::MAX / d as u64).wrapping_add(1),
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(&self, n: u32) -> (u32, u32) {
        let q = if self.d == 1 {
            n
        } else {
            ((self.inverse as u128 * n as u128) >> 64) as u32
        };
        (q, n - q * self.d)
    }
}

impl Grid {
    fn new(width: u32, height: u32, wrap: bool) -> Self {
        let (wrap_x, wrap_y) = (wrap && width > 2, wrap && height > 2);
        let row = (width - 1 + wrap_x as u32).saturating_add(width);
        Grid {
            width,
            height,
            wrap,
            wrap_x,
            wrap_y,
            row,
            by_width: Divisor::new(width),
            by_row: Divisor::new(row),
        }
    }

    /// The column and row of `pe`.
    #[inline]
    pub(crate) fn coords(&self, pe: PeId) -> (u32, u32) {
        let (y, x) = self.by_width.div_rem(pe.0);
        (x, y)
    }

    /// Whether the PEs of column `x` have a rightward link.
    #[inline]
    fn has_right(&self, x: u32) -> bool {
        x + 1 < self.width || self.wrap_x
    }

    /// Whether the PEs of row `y` have a downward link.
    #[inline]
    fn has_down(&self, y: u32) -> bool {
        y + 1 < self.height || self.wrap_y
    }

    /// The first channel of PE `(x, y)`. Every earlier row has all its
    /// downward links, and every earlier PE of the row its rightward one.
    #[inline]
    fn first_channel(&self, x: u32, y: u32) -> u32 {
        y * self.row + x * (1 + self.has_down(y) as u32)
    }

    #[inline]
    fn right(&self, x: u32, y: u32) -> ChannelId {
        ChannelId(self.first_channel(x, y))
    }

    #[inline]
    fn down(&self, x: u32, y: u32) -> ChannelId {
        ChannelId(self.first_channel(x, y) + self.has_right(x) as u32)
    }

    pub(crate) fn num_channels(&self) -> u64 {
        let (w, h) = (self.width as u64, self.height as u64);
        let right = w - 1 + self.wrap_x as u64;
        (h - 1) * (right + w) + right + w * self.wrap_y as u64
    }

    /// The up, left, right and down neighbours of PE `id` at `(x, y)`,
    /// with their channels: `(x, y)`'s own rightward and downward links,
    /// and the upper and left neighbours' for the other two. A missing
    /// neighbour's id is [`NONE`].
    #[inline]
    fn around(&self, id: u32, x: u32, y: u32) -> [Neighbor; 4] {
        let (w, h) = (self.width, self.height);
        let up = match y {
            0 if self.wrap_y => id + (h - 1) * w,
            0 => NONE,
            _ => id - w,
        };
        let left = match x {
            0 if self.wrap_x => id + w - 1,
            0 => NONE,
            _ => id - 1,
        };
        let right = match x + 1 < w {
            true => id + 1,
            false if self.wrap_x => id + 1 - w,
            false => NONE,
        };
        let down = match y + 1 < h {
            true => id + w,
            false if self.wrap_y => id - (h - 1) * w,
            false => NONE,
        };
        let nb = |pe: u32, channel: ChannelId| Neighbor {
            pe: PeId(pe),
            channel,
        };
        [
            nb(up, self.down(x, if y > 0 { y - 1 } else { h - 1 })),
            nb(left, self.right(if x > 0 { x - 1 } else { w - 1 }, y)),
            nb(right, self.right(x, y)),
            nb(down, self.down(x, y)),
        ]
    }

    /// The directions of `(x, y)`'s neighbours in id order. Without wrap
    /// links that is up, left, right, down; a wrap link jumps across its
    /// row or column, which moves the wrapped neighbour: a wrapped left or
    /// right neighbour swaps sides, a wrapped up neighbour is the largest
    /// id and a wrapped down neighbour the smallest.
    #[inline]
    fn order(&self, x: u32, y: u32) -> [usize; 4] {
        let (left, right) = if self.wrap_x && (x == 0 || x + 1 == self.width) {
            (2, 1)
        } else {
            (1, 2)
        };
        if self.wrap_y && y == 0 {
            [left, right, 3, 0]
        } else if self.wrap_y && y + 1 == self.height {
            [3, 0, left, right]
        } else {
            [0, left, right, 3]
        }
    }

    /// Every neighbour of `pe` with its channel, in id order.
    #[inline]
    pub(crate) fn links(&self, pe: PeId, mut f: impl FnMut(Neighbor)) {
        let (x, y) = self.coords(pe);
        let around = self.around(pe.0, x, y);
        for dir in self.order(x, y) {
            if around[dir].pe.0 != NONE {
                f(around[dir]);
            }
        }
    }

    /// Hop distance: the per-dimension distances, each the ring distance
    /// on a wrapped dimension.
    #[inline]
    pub(crate) fn distance(&self, a: PeId, b: PeId) -> u32 {
        let ((x1, y1), (x2, y2)) = (self.coords(a), self.coords(b));
        dim_distance(x1, x2, self.width, self.wrap) + dim_distance(y1, y2, self.height, self.wrap)
    }

    /// The first neighbour of `from`, in id order, one hop closer to `to`.
    #[inline]
    pub(crate) fn next_hop(&self, from: PeId, to: PeId) -> PeId {
        let (w, h, wrap) = (self.width, self.height, self.wrap);
        let ((x, y), (tx, ty)) = (self.coords(from), self.coords(to));
        let (dx, dy) = (dim_distance(x, tx, w, wrap), dim_distance(y, ty, h, wrap));
        // A step moves one coordinate, so it is closer iff that dimension's
        // distance shrinks. (Where the mesh ends, the wrapped coordinate
        // stands for a neighbour that does not exist and is skipped.)
        let closer = [
            dim_distance(if y > 0 { y - 1 } else { h - 1 }, ty, h, wrap) < dy,
            dim_distance(if x > 0 { x - 1 } else { w - 1 }, tx, w, wrap) < dx,
            dim_distance(if x + 1 < w { x + 1 } else { 0 }, tx, w, wrap) < dx,
            dim_distance(if y + 1 < h { y + 1 } else { 0 }, ty, h, wrap) < dy,
        ];
        let around = self.around(from.0, x, y);
        self.order(x, y)
            .into_iter()
            .find(|&dir| around[dir].pe.0 != NONE && closer[dir])
            .map(|dir| around[dir].pe)
            .expect("connected graph has a descending neighbour")
    }

    /// The position of `nbr` among `pe`'s neighbours in id order, and the
    /// channel to it.
    #[inline]
    pub(crate) fn find(&self, pe: PeId, nbr: PeId) -> Option<(usize, ChannelId)> {
        let (x, y) = self.coords(pe);
        let around = self.around(pe.0, x, y);
        let link = around.iter().find(|n| n.pe == nbr && nbr.0 != NONE)?;
        // The number of smaller neighbours, as in `receiver`.
        let position = around.iter().filter(|n| n.pe < nbr).count();
        Some((position, link.channel))
    }

    /// The other end of link `c` from `from`, with the position of `from`
    /// among its neighbours: the number of smaller ones ([`NONE`] is
    /// larger than every id).
    #[inline]
    pub(crate) fn receiver(&self, c: ChannelId, from: PeId) -> (PeId, usize) {
        let [a, b] = self.members(c);
        let to = if a == from { b } else { a };
        let (x, y) = self.coords(to);
        let around = self.around(to.0, x, y);
        (to, around.iter().filter(|n| n.pe < from).count())
    }

    /// The two ends of channel `c`, in id order.
    pub(crate) fn members(&self, c: ChannelId) -> [PeId; 2] {
        let (w, h) = (self.width, self.height);
        let (y, offset) = self.by_row.div_rem(c.0);
        let (x, down) = if self.has_down(y) {
            (offset / 2, offset % 2 == 1 || !self.has_right(offset / 2))
        } else {
            (offset, false)
        };
        let id = y * w + x;
        let other = match (down, x + 1 < w, y + 1 < h) {
            (false, true, _) => id + 1,
            (false, false, _) => id + 1 - w,
            (true, _, true) => id + w,
            (true, _, false) => id - (h - 1) * w,
        };
        [PeId(id.min(other)), PeId(id.max(other))]
    }
}

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
    let kind = if wraparound { "torus" } else { "grid" };
    let diameter = dim_diameter(width, wraparound) + dim_diameter(height, wraparound);
    Topology::grid(
        format!("{kind} {width}x{height}"),
        n,
        Grid::new(width as u32, height as u32, wraparound),
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
    fn divisor_divides_exactly() {
        for d in [
            1u32,
            2,
            3,
            7,
            10,
            32,
            641,
            1000,
            65_535,
            65_536,
            3_000_000_007,
            u32::MAX,
        ] {
            let divisor = Divisor::new(d);
            let mut ns: Vec<u32> = (0..5000).chain(u32::MAX - 5000..=u32::MAX).collect();
            ns.extend((1..=u32::MAX / d).step_by(9973).flat_map(|q| {
                let n = q * d;
                [n - 1, n, n.saturating_add(1)]
            }));
            for n in ns {
                assert_eq!(divisor.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
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
