//! Deterministic allocation gate for the client's side of a certify.
//!
//! Wall-clock time is too noisy to gate in CI; allocation counts are
//! not. A counting global allocator measures the two codec calls a
//! client makes per certify: the request encode and the decode of the
//! Certified answer. An assignment decoded into one buffer per node
//! allocates twice per node (20,002 times for 10,000 nodes), and an
//! encode that collects and sorts the edge list grows its buffers 15
//! times or more. This file holds a single test so no other test
//! thread adds to the count.

use dpc_core::harness::certify_pls;
use dpc_core::schemes::planarity::PlanarityScheme;
use dpc_graph::generators;
use dpc_service::registry::SchemeId;
use dpc_service::wire::{self, Response};
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

/// The gate on `Response::decode` of a Certified body.
const MAX_DECODE_ALLOCS: u64 = 8;

/// The gate on `encode_certify_request`.
const MAX_ENCODE_ALLOCS: u64 = 4;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn the_client_codec_allocates_a_handful_of_times() {
    let mut failures = Vec::new();
    for (name, g) in [
        ("grid(100,100)", generators::grid(100, 100)),
        (
            "stacked_triangulation(10000,7)",
            generators::stacked_triangulation(10000, 7),
        ),
    ] {
        let (request, allocs) =
            counted(|| wire::encode_certify_request(&g, false, SchemeId::PLANARITY));
        eprintln!("{name}: encode_certify_request made {allocs} allocations");
        if allocs > MAX_ENCODE_ALLOCS {
            failures.push(format!(
                "{name}: encode_certify_request made {allocs} allocations (gate {MAX_ENCODE_ALLOCS})"
            ));
        }
        assert!(!request.is_empty());

        let certified = certify_pls(&PlanarityScheme::new(), &g).unwrap();
        let suffix = wire::encode_certified_suffix(&certified.outcome, &certified.assignment);
        let body = wire::certified_body_from_suffix(true, &suffix);
        let (decoded, allocs) = counted(|| Response::decode(&body).unwrap());
        eprintln!("{name}: Response::decode made {allocs} allocations");
        if allocs > MAX_DECODE_ALLOCS {
            failures.push(format!(
                "{name}: Response::decode made {allocs} allocations (gate {MAX_DECODE_ALLOCS})"
            ));
        }
        match decoded {
            Response::Certified { assignment, .. } => {
                assert_eq!(assignment.certs, certified.assignment.certs, "{name}")
            }
            other => panic!("{name}: decoded {other:?}"),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
