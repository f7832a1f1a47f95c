//! Meshes and tori compute their adjacency from their width and height.
//! Each one must answer every adjacency query exactly as the stored CSR
//! graph built from the same channel member sets does: the same neighbours
//! in the same order over the same channels, the same channel members,
//! neighbour positions, receivers and broadcast fan-out. Hypercubes and
//! k-ary cubes are stored in CSR form; for them the check pins that their
//! constructors' channel lists rebuild into the same graph.

use oracle_topo::hypercube::hypercube;
use oracle_topo::kary::kary_ncube;
use oracle_topo::mesh::mesh2d;
use oracle_topo::{ChannelId, PeId, Topology};

/// The same channel list, stored in CSR form.
fn csr_twin(t: &Topology) -> Topology {
    let channels = (0..t.num_channels())
        .map(|c| t.channel_members(ChannelId(c as u32)).to_vec())
        .collect();
    Topology::from_channels(t.name().to_string(), t.num_pes(), channels)
}

fn assert_same_adjacency(computed: &Topology) {
    let stored = csr_twin(computed);
    let name = computed.name();
    assert_eq!(computed.num_channels(), stored.num_channels(), "{name}");
    assert_eq!(computed.num_incidences(), stored.num_incidences(), "{name}");
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for c in 0..computed.num_channels() {
        let c = ChannelId(c as u32);
        let members = computed.channel_members(c);
        assert_eq!(&*members, &*stored.channel_members(c), "{name}: {c}");
        assert_eq!(members.len(), 2, "{name}: {c} is a link");
        for &from in &*members {
            computed.receivers(c, from, &mut got);
            stored.receivers(c, from, &mut want);
            assert_eq!(got, want, "{name}: receivers of {c} from {from}");
        }
    }
    for p in computed.pes() {
        let nbrs = computed.neighbors(p);
        assert_eq!(&*nbrs, &*stored.neighbors(p), "{name}: neighbours of {p}");
        assert_eq!(computed.degree(p), stored.degree(p), "{name}: {p}");
        let fanout = |t: &Topology| {
            let mut channels = Vec::new();
            t.for_each_incident_channel(p, |c| channels.push(c));
            channels
        };
        assert_eq!(fanout(computed), fanout(&stored), "{name}: fan-out of {p}");
        let mut each = Vec::new();
        computed.for_each_neighbor(p, |nb| each.push(nb));
        assert_eq!(each, &*nbrs, "{name}: {p}");
        for (i, nb) in nbrs.iter().enumerate() {
            assert_eq!(computed.neighbor_position(p, nb.pe), Some(i), "{name}");
            assert_eq!(stored.neighbor_position(p, nb.pe), Some(i), "{name}");
            assert_eq!(
                computed.find_neighbor(p, nb.pe),
                Some((i, nb.channel)),
                "{name}: {p} -> {}",
                nb.pe
            );
        }
    }
    // Every pair is small enough to check on the small shapes; the long
    // path checks each PE against a window of ids around it.
    let n = computed.num_pes() as u32;
    for a in computed.pes() {
        let window = if n <= 256 {
            0..n
        } else {
            a.0.saturating_sub(3)..(a.0 + 4).min(n)
        };
        for b in window.map(PeId) {
            assert_eq!(
                computed.is_neighbor(a, b),
                stored.is_neighbor(a, b),
                "{name}: {a}, {b}"
            );
            assert_eq!(
                computed.channel_between(a, b),
                stored.channel_between(a, b),
                "{name}: {a}, {b}"
            );
            assert_eq!(
                computed.neighbor_position(a, b),
                stored.neighbor_position(a, b),
                "{name}: {a}, {b}"
            );
        }
    }
}

#[test]
fn meshes_match_their_csr_twins() {
    for (w, h) in [(5, 5), (4, 7), (6, 1)] {
        assert_same_adjacency(&mesh2d(w, h, false));
    }
}

#[test]
fn tori_match_their_csr_twins() {
    for (w, h) in [(5, 5), (3, 3), (2, 3)] {
        assert_same_adjacency(&mesh2d(w, h, true));
    }
}

#[test]
fn a_long_path_matches_its_csr_twin() {
    assert_same_adjacency(&mesh2d(70_000, 1, false));
}

#[test]
fn hypercubes_match_their_csr_twins() {
    for dim in 1..=6 {
        assert_same_adjacency(&hypercube(dim));
    }
}

#[test]
fn kary_cubes_match_their_csr_twins() {
    for (k, n) in [(2, 4), (3, 2), (4, 3), (7, 1)] {
        assert_same_adjacency(&kary_ncube(k, n));
    }
}
