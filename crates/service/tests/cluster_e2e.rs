//! End-to-end cluster test: three unmodified `dpc serve` nodes behind
//! a [`ClusterClient`] — rendezvous routing spreads mixed-scheme
//! traffic, a killed node fails over without losing a single request,
//! and the dead node's segment store merges into a survivor with
//! byte-identical certificate suffixes and deduplicated records.

use dpc_graph::generators;
use dpc_service::cluster::{graphs_by_owner, ClusterClient, Ring};
use dpc_service::registry::{SchemeId, SchemeRegistry};
use dpc_service::store::{CertStore, StoreRecord};
use dpc_service::wire::Response;
use dpc_service::{serve, CertifyOptions, SegmentConfig, SegmentStore, ServeConfig, ServerHandle};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dpc-cluster-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn ring_of(n: usize, base: &std::path::Path) -> Vec<ServerHandle> {
    (0..n)
        .map(|i| {
            let cfg = ServeConfig {
                store: Some(SegmentConfig::new(base.join(format!("node-{i}")))),
                ..ServeConfig::default()
            };
            serve("127.0.0.1:0", cfg).unwrap()
        })
        .collect()
}

/// Mixed-scheme workload: planar triangulations under planarity,
/// grids under bipartite, and one spanning-tree certify.
fn workload() -> Vec<(dpc_graph::Graph, SchemeId)> {
    let mut work = Vec::new();
    for seed in 0..8u64 {
        work.push((
            generators::stacked_triangulation(18 + seed as u32, seed),
            SchemeId::PLANARITY,
        ));
    }
    for side in 3..7u32 {
        work.push((generators::grid(side, side), SchemeId::BIPARTITE));
    }
    work.push((generators::grid(5, 4), SchemeId::SPANNING_TREE));
    work
}

#[test]
fn three_node_ring_survives_a_kill_and_merges_the_dead_store() {
    let base = scratch_dir("ring");
    let mut handles = ring_of(3, &base);
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let ring = Ring::new(addrs.clone()).unwrap();
    let mut cc = ClusterClient::over(ring.clone());

    // ---- phase 1: mixed-scheme traffic over the full ring ----
    // the fixed workload plus one ring-selected graph per node, so
    // every node deterministically owns at least one key
    let mut work = workload();
    for bucket in graphs_by_owner(&ring, 1, 20) {
        for g in bucket {
            work.push((g, SchemeId::PLANARITY));
        }
    }
    for (g, scheme) in &work {
        let resp = cc
            .certify(g, CertifyOptions::new().scheme(*scheme))
            .unwrap();
        assert!(
            matches!(resp, Response::Certified { cached: false, .. }),
            "fresh key must prove: {resp:?}"
        );
        // the repeat is a cache hit on the same owning node
        let again = cc
            .certify(g, CertifyOptions::new().scheme(*scheme))
            .unwrap();
        assert!(
            matches!(again, Response::Certified { cached: true, .. }),
            "{again:?}"
        );
    }
    let routing = cc.cluster_stats().clone();
    assert_eq!(routing.requests, 2 * work.len() as u64);
    assert_eq!(routing.failovers, 0, "all nodes are up: {routing:?}");
    assert_eq!(
        routing.nodes_used(),
        3,
        "every node serves its selected key: {routing:?}"
    );
    // per-node server stats agree that traffic spread
    let (fleet, per_node) = cc.fleet_stats().unwrap();
    assert_eq!(fleet.certify, 2 * work.len() as u64);
    assert!(per_node.iter().all(|(_, r)| r.is_ok()));

    // ---- phase 2: kill the busiest node; every request still answers ----
    let victim = routing
        .per_node
        .iter()
        .enumerate()
        .max_by_key(|(_, n)| n.routed)
        .map(|(i, _)| i)
        .unwrap();
    let victim_addr = addrs[victim].clone();
    let victim_dir = base.join(format!("node-{victim}"));
    handles.remove(victim).shutdown();

    let mut cc = ClusterClient::new(addrs.clone()).unwrap();
    for (g, scheme) in &work {
        let resp = cc
            .certify(g, CertifyOptions::new().scheme(*scheme))
            .unwrap();
        assert!(
            matches!(resp, Response::Certified { .. }),
            "failover must answer: {resp:?}"
        );
    }
    let routing = cc.cluster_stats().clone();
    assert_eq!(routing.requests, work.len() as u64, "no request was lost");
    assert_eq!(routing.exhausted, 0);
    assert!(routing.failovers > 0, "the victim owned keys: {routing:?}");
    let victim_row = routing
        .per_node
        .iter()
        .find(|n| n.addr == victim_addr)
        .unwrap();
    assert_eq!(victim_row.routed, 0, "a dead node answers nothing");
    assert!(victim_row.failures > 0);

    // ---- phase 3: merge the dead node's store into a survivor ----
    for h in handles {
        h.shutdown(); // stores must be offline for dpc-store tools
    }
    let survivor_idx = (0..3).find(|&i| i != victim).unwrap();
    let survivor_dir = base.join(format!("node-{survivor_idx}"));
    let victim_store = SegmentStore::open(SegmentConfig::new(&victim_dir)).unwrap();
    let victim_records: Vec<StoreRecord> = victim_store.iter().map(|r| r.unwrap()).collect();
    assert!(
        !victim_records.is_empty(),
        "the busiest node persisted its certificates"
    );
    let survivor = SegmentStore::open(SegmentConfig::new(&survivor_dir)).unwrap();
    let before = survivor.len();
    let report = survivor.merge_from(&victim_store).unwrap();
    assert_eq!(report.scanned, victim_records.len() as u64);
    assert_eq!(report.source_errors, 0);
    assert_eq!(
        report.merged + report.duplicates,
        report.scanned,
        "every record lands exactly once: {report:?}"
    );
    assert_eq!(
        survivor.len(),
        before + report.merged,
        "dedup by content key: {report:?}"
    );
    // the rehomed certificates are byte-identical to what the victim
    // served: same keyed bytes, same pre-encoded wire suffix
    for record in &victim_records {
        let merged = survivor
            .get(record.key(), &record.keyed)
            .expect("merged record is retrievable");
        assert_eq!(merged.suffix, record.suffix, "byte-identical suffix");
        assert_eq!(merged, *record);
    }
    // the union verifies clean against the standard registry
    survivor.flush().unwrap();
    let verify = survivor.verify(&SchemeRegistry::standard());
    assert!(verify.problems.is_empty(), "{:?}", verify.problems);
    assert_eq!(verify.records, survivor.len());
    // merging the same source twice is a pure no-op
    let again = survivor.merge_from(&victim_store).unwrap();
    assert_eq!(again.merged, 0);
    assert_eq!(again.duplicates, report.scanned);
    assert_eq!(survivor.len(), before + report.merged);

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn restarted_survivor_serves_the_merged_certificates_without_reproving() {
    // the payoff of merge: after rehoming, a single node answers the
    // whole ring's keys from its store — zero prover executions
    let base = scratch_dir("rehome");
    let handles = ring_of(2, &base);
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let ring = Ring::new(addrs).unwrap();
    let mut cc = ClusterClient::over(ring.clone());
    // three ring-selected graphs per node: both stores fill, certainly
    let graphs: Vec<_> = graphs_by_owner(&ring, 3, 20)
        .into_iter()
        .flatten()
        .collect();
    for g in &graphs {
        assert!(matches!(
            cc.certify(g, false).unwrap(),
            Response::Certified { cached: false, .. }
        ));
    }
    assert_eq!(
        cc.cluster_stats().nodes_used(),
        2,
        "both nodes took traffic: {:?}",
        cc.cluster_stats()
    );
    for h in handles {
        h.shutdown();
    }
    // merge node-1 into node-0, then restart only node-0
    let src = SegmentStore::open(SegmentConfig::new(base.join("node-1"))).unwrap();
    let dst = SegmentStore::open(SegmentConfig::new(base.join("node-0"))).unwrap();
    dst.merge_from(&src).unwrap();
    dst.flush().unwrap();
    assert_eq!(dst.len(), graphs.len() as u64);
    drop((src, dst));
    let cfg = ServeConfig {
        store: Some(SegmentConfig::new(base.join("node-0"))),
        ..ServeConfig::default()
    };
    let survivor = serve("127.0.0.1:0", cfg).unwrap();
    let mut cc = ClusterClient::new([survivor.addr().to_string()]).unwrap();
    for g in &graphs {
        // every key — including those the dead node proved — is a hit
        assert!(matches!(
            cc.certify(g, false).unwrap(),
            Response::Certified { cached: true, .. }
        ));
    }
    assert_eq!(survivor.stats().proves, 0, "nothing was re-proved");
    survivor.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

/// Reserves `n` distinct loopback ports by binding and dropping
/// listeners, so peer lists can name every address up front.
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

/// Two or more disjoint stacked triangulations glued into one graph
/// by shifting each component past the previous one.
fn disjoint_union(sizes: &[u32], seed: u64) -> dpc_graph::Graph {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut base = 0u32;
    for (i, &n) in sizes.iter().enumerate() {
        let part = generators::stacked_triangulation(n, seed + i as u64);
        edges.extend(part.edges().iter().map(|e| (e.u + base, e.v + base)));
        base += n;
    }
    dpc_graph::Graph::from_edges(base, &edges)
}

#[test]
fn distributed_summary_fold_is_byte_identical_to_the_sequential_one() {
    use dpc_core::batch::BatchSummary;
    use std::time::Duration;

    // every node knows the other two as peers, so a summary certify
    // of a disconnected graph can delegate components across the ring
    let addrs = reserve_addrs(3);
    let handles: Vec<ServerHandle> = (0..3)
        .map(|i| {
            let cfg = ServeConfig {
                peers: addrs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, a)| a.clone())
                    .collect(),
                ..ServeConfig::default()
            };
            serve(addrs[i].as_str(), cfg).unwrap()
        })
        .collect();

    // connected instances plus disconnected ones (twelve components
    // total across the unions — some are all but certain to rank onto
    // a peer of whichever node receives the graph)
    let mut graphs: Vec<dpc_graph::Graph> = (0..9)
        .map(|seed| generators::stacked_triangulation(16 + seed as u32, seed))
        .collect();
    for seed in 0..4u64 {
        graphs.push(disjoint_union(&[11, 14, 17], 100 + 10 * seed));
    }

    // the sequential reference: one node folds every outcome itself,
    // in input order, with the cache bypassed so both sweeps prove
    let mut single =
        ClusterClient::connect_with_retry(addrs[0].as_str(), Duration::from_secs(5)).unwrap();
    let seq_results: Vec<Result<_, String>> = graphs
        .iter()
        .map(|g| {
            match single
                .certify(g, CertifyOptions::new().bypass().summary())
                .unwrap()
            {
                Response::CertifiedSummary { outcome, .. } => Ok(outcome),
                Response::Declined { reason, .. } => Err(reason),
                other => panic!("{other:?}"),
            }
        })
        .collect();
    let seq_summary = BatchSummary::fold(seq_results.iter().map(|r| r.as_ref().ok()));
    assert_eq!(seq_summary.instances, graphs.len());
    assert_eq!(seq_summary.proved, graphs.len(), "planar inputs all prove");

    // the distributed sweep over the full ring
    let mut cc = ClusterClient::new(addrs.clone()).unwrap();
    let report = cc.certify_distributed(&graphs, true, SchemeId::PLANARITY);
    assert_eq!(
        report.summary, seq_summary,
        "the merged summary must equal the sequential fold exactly"
    );
    for (i, (d, s)) in report.results.iter().zip(&seq_results).enumerate() {
        assert_eq!(
            d.as_ref().ok(),
            s.as_ref().ok(),
            "per-graph outcome {i} diverged"
        );
    }
    assert!(
        report.nodes_used >= 2,
        "rendezvous must spread 13 graphs: {report:?}"
    );
    assert_eq!(report.delegated, graphs.len() as u64);
    assert_eq!(report.delegate_errors, 0);

    // server-side evidence: the fleet merged disconnected outcomes,
    // and at least one component prove crossed the ring to a peer
    let mut merges = 0u64;
    let mut delegated = 0u64;
    for addr in &addrs {
        let mut c = ClusterClient::connect(addr.as_str()).unwrap();
        let stats = c.stats().unwrap();
        merges += stats.outcome_merges;
        delegated += stats.delegated_proves;
    }
    assert!(merges >= 4, "each disjoint union merges: {merges}");
    assert!(delegated >= 1, "no component prove was delegated");

    for h in handles {
        h.shutdown();
    }
}

/// A chunked certify routes like an interactive session: the whole
/// upload goes to the graph's owner, and with the owner down it
/// restarts on the next-ranked node — answering, both times, the
/// summary a plain summary certify gets from the owner.
#[test]
fn chunked_certify_goes_to_the_owner_and_restarts_on_rank_two() {
    use dpc_service::cluster::graph_key;
    let mut handles: Vec<ServerHandle> = (0..3)
        .map(|_| serve("127.0.0.1:0", ServeConfig::default()).unwrap())
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    let ring = Ring::new(addrs.clone()).unwrap();
    let g = generators::stacked_triangulation(60, 5);
    let ranked = ring.rank(&graph_key(SchemeId::PLANARITY, &g));
    let (owner, rank2) = (ranked[0], ranked[1]);
    let summary = |resp: Response| match resp {
        Response::CertifiedSummary { outcome, .. } => outcome,
        other => panic!("{other:?}"),
    };

    // the reference: a plain summary certify sent to the owner
    let mut direct = ClusterClient::connect(addrs[owner].as_str()).unwrap();
    let want = summary(direct.certify(&g, CertifyOptions::new().summary()).unwrap());
    assert!(want.all_accept());

    // through the 3-node ring, the upload lands whole on the owner
    let chunked = CertifyOptions::new().chunked(64);
    let mut cc = ClusterClient::over(ring.clone());
    assert_eq!(summary(cc.certify(&g, chunked).unwrap()), want);
    let routing = cc.cluster_stats().clone();
    assert_eq!(routing.per_node[owner].routed, 1, "{routing:?}");
    assert_eq!(routing.failovers, 0, "{routing:?}");
    assert_eq!(handles[owner].stats().chunk_sessions, 1);

    // owner down: the whole upload restarts on rank 2 and answers
    handles.remove(owner).shutdown();
    let mut cc = ClusterClient::over(ring);
    assert_eq!(summary(cc.certify(&g, chunked).unwrap()), want);
    let routing = cc.cluster_stats().clone();
    assert_eq!(routing.requests, 1, "{routing:?}");
    assert_eq!(routing.failovers, 1, "{routing:?}");
    assert_eq!(routing.exhausted, 0, "{routing:?}");
    assert_eq!(routing.per_node[owner].failures, 1, "{routing:?}");
    assert_eq!(routing.per_node[rank2].routed, 1, "{routing:?}");
    let rank2_handle = handles
        .iter()
        .find(|h| h.addr().to_string() == addrs[rank2])
        .unwrap();
    assert_eq!(rank2_handle.stats().chunk_sessions, 1);

    for h in handles {
        h.shutdown();
    }
}
