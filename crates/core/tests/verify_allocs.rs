//! Deterministic allocation gate for the verification round.
//!
//! Wall-clock time is too noisy to gate in CI; allocation counts are
//! not. A counting global allocator measures one `run_with_assignment`
//! of the planarity scheme on honest certificates. This file holds a
//! single test so no other test thread adds to the count.

use dpc_core::harness::run_with_assignment;
use dpc_core::scheme::ProofLabelingScheme;
use dpc_core::schemes::planarity::PlanarityScheme;
use dpc_graph::generators;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is an
// atomic statistic and touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` contract is passed through.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator, and
        // the caller's size contract is passed through.
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn verification_round_allocations_stay_gated() {
    // (graph, allocations one round took with the per-node verifier,
    // which decoded every certificate 1 + deg(v) times)
    let cases = [
        ("grid(40,40)", generators::grid(40, 40), 44_473u64),
        (
            "stacked_triangulation(3000,7)",
            generators::stacked_triangulation(3000, 7),
            85_886,
        ),
    ];
    let scheme = PlanarityScheme::new();
    let mut failures = Vec::new();
    for (name, g, before) in cases {
        let assignment = scheme.prove(&g).expect("planar");
        let start = ALLOCS.load(Ordering::Relaxed);
        let outcome = run_with_assignment(&scheme, &g, &assignment);
        let allocs = ALLOCS.load(Ordering::Relaxed) - start;
        assert!(outcome.all_accept(), "{name}: honest certificates rejected");
        let gate = before / 3;
        println!(
            "{name}: {allocs} allocations per round (gate {gate}, per-node verifier {before})"
        );
        if allocs > gate {
            failures.push(format!("{name}: {allocs} > {gate}"));
        }
    }
    assert!(failures.is_empty(), "allocation gate: {failures:?}");
}
