//! Certification-service benches: end-to-end latency of cache hits vs
//! cache misses over real loopback TCP, and request throughput.
//!
//! The `cache` group is the serving-layer acceptance gate: on
//! `grid(100,100)` a repeated Certify must be served from the
//! content-addressed cache at least 10x faster than a fresh prove
//! (bypass flag) — in practice the gap is orders of magnitude, since
//! a hit memcpys a pre-encoded `Arc`-shared suffix while a miss runs
//! the full Theorem 1 prover.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpc_graph::generators;
use dpc_service::client::Client;
use dpc_service::cluster::ClusterClient;
use dpc_service::server::{serve, ServeConfig};
use dpc_service::wire::Response;

fn expect_certified(resp: Response) {
    match resp {
        Response::Certified { .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }
}

fn bench_cache(c: &mut Criterion) {
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let mut client = ClusterClient::connect(handle.addr()).expect("connect");
    let g = generators::grid(100, 100);
    // populate the cache once
    expect_certified(client.certify(&g, false).expect("warm-up certify"));

    let mut group = c.benchmark_group("service_cache");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("hit", "grid100"), |b| {
        b.iter(|| expect_certified(client.certify(&g, false).expect("hit")));
    });
    group.bench_function(BenchmarkId::new("miss_fresh_prove", "grid100"), |b| {
        b.iter(|| expect_certified(client.certify(&g, true).expect("bypass")));
    });
    group.finish();
    handle.shutdown();
}

fn bench_throughput(c: &mut Criterion) {
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // distinct small graphs: after the first pass all of them are hits,
    // so this measures the steady-state serving path
    let graphs: Vec<_> = (0..64u64)
        .map(|s| generators::stacked_triangulation(60, s))
        .collect();

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("pipelined_certify", graphs.len()),
        &graphs,
        |b, graphs| {
            b.iter(|| {
                for g in graphs {
                    client
                        .send(&dpc_service::Request::Certify {
                            graph: g.clone(),
                            bypass_cache: false,
                            cached_only: false,
                            summary: false,
                            scheme: dpc_service::SchemeId::PLANARITY,
                        })
                        .expect("send");
                }
                for _ in graphs {
                    expect_certified(client.recv().expect("recv"));
                }
            });
        },
    );
    group.finish();
    handle.shutdown();
}

criterion_group!(benches, bench_cache, bench_throughput);
criterion_main!(benches);
