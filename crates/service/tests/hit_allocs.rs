//! Deterministic allocation gate for a cache hit.
//!
//! Wall-clock time is too noisy to gate in CI; allocation counts are
//! not. A counting global allocator measures whole hits against an
//! in-process server, on both front ends: pre-encoded `grid(100,100)`
//! certify frames go out over a raw `TcpStream`, and each response
//! frame comes back as raw bytes into one reused buffer, so the client
//! side of the loop allocates nothing and the count is the server's.
//! A hit that rebuilds the graph from the wire allocates about 10,000
//! times here. This file holds a single test so no other test thread
//! adds to the count.

use dpc_graph::generators;
use dpc_service::registry::SchemeId;
use dpc_service::server::{serve, ServeConfig};
use dpc_service::wire::{self, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// Hits measured per front end, after the one miss that fills the cache.
const HITS: u64 = 20;

/// The gate: allocations per hit, averaged over [`HITS`].
const MAX_ALLOCS_PER_HIT: u64 = 64;

/// Sends one pre-framed request and reads the response body into
/// `body`, reusing its capacity.
fn exchange(stream: &mut TcpStream, frame: &[u8], body: &mut Vec<u8>) {
    stream.write_all(frame).unwrap();
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    body.resize(u32::from_le_bytes(header) as usize, 0);
    stream.read_exact(body).unwrap();
}

#[test]
fn a_cache_hit_allocates_at_most_64_times() {
    let g = generators::grid(100, 100);
    let request = wire::encode_certify_request(&g, false, SchemeId::PLANARITY);
    let mut frame = (request.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&request);
    let mut failures = Vec::new();
    for event_loop in [true, false] {
        let name = if event_loop { "event loop" } else { "threaded" };
        let cfg = ServeConfig {
            event_loop,
            ..ServeConfig::default()
        };
        let handle = serve("127.0.0.1:0", cfg).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut body = Vec::new();
        exchange(&mut stream, &frame, &mut body);
        assert!(
            matches!(
                Response::decode(&body).unwrap(),
                Response::Certified { cached: false, .. }
            ),
            "{name}: the first certify must prove"
        );
        let start = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..HITS {
            exchange(&mut stream, &frame, &mut body);
        }
        let per_hit = (ALLOCS.load(Ordering::Relaxed) - start) / HITS;
        assert!(
            matches!(
                Response::decode(&body).unwrap(),
                Response::Certified { cached: true, .. }
            ),
            "{name}: the repeats must be hits"
        );
        println!("{name}: {per_hit} allocations per hit (gate {MAX_ALLOCS_PER_HIT})");
        if per_hit > MAX_ALLOCS_PER_HIT {
            failures.push(format!("{name}: {per_hit} > {MAX_ALLOCS_PER_HIT}"));
        }
        drop(stream);
        handle.shutdown();
    }
    assert!(failures.is_empty(), "allocation gate: {failures:?}");
}
