//! Footprint guard for regular machines.
//!
//! Grids and tori compute their adjacency from their width and height, so
//! building one and assembling a machine on it must not allocate anything
//! proportional to its links, let alone to PEs². What
//! remains is the paged per-PE and per-channel state's page tables (one
//! pointer per 8 slots) and a few fixed-size structures. This test sums
//! the bytes requested from the allocator over `topology.build()` plus
//! `Machine::new`:
//!
//! - a 10^6-PE torus must stay under 8 MiB (a CSR adjacency alone would
//!   be tens of MiB);
//! - the paper-sized `grid:32` must stay under 1 MiB (the neighbour-
//!   position table it once held was 2 MiB).
//!
//! This file deliberately contains a single `#[test]`: the counter is a
//! process global, and a sibling test running on another thread would
//! pollute the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use oracle::prelude::*;

/// Wraps the system allocator, summing the bytes of every allocation (a
/// `realloc` counts its new size).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const MIB: u64 = 1 << 20;

/// Bytes allocated building the topology and the machine of `topology`.
fn construction_bytes(topology: &str) -> u64 {
    let config = SimulationBuilder::new()
        .topology(topology.parse().expect("topology spec"))
        .strategy(StrategySpec::Cwn {
            radius: 9,
            horizon: 1,
        })
        .workload(WorkloadSpec::fib(20))
        .config();
    let before = BYTES.load(Ordering::Relaxed);
    let machine = config.machine().expect("machine");
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(machine);
    bytes
}

#[test]
fn regular_machines_hold_no_adjacency_tables() {
    for (topology, limit) in [("torus:1000", 8 * MIB), ("grid:32", MIB)] {
        let bytes = construction_bytes(topology);
        eprintln!(
            "{topology}: {:.2} MiB allocated by construction (limit {} MiB)",
            bytes as f64 / MIB as f64,
            limit / MIB
        );
        assert!(
            bytes < limit,
            "{topology}: construction allocated {bytes} bytes (limit {limit}) — \
             an O(links) or O(PEs²) table is back"
        );
    }
}
