//! Property-based tests for the graph substrate.

use dpc_graph::canon::{self, graph_hash, structural_hash};
use dpc_graph::{degeneracy, generators, graph6, minors, traversal, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The canonical edge order by its definition: every edge smaller
/// endpoint first, the list sorted.
fn sorted_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().iter().map(|e| e.canonical()).collect();
    edges.sort_unstable();
    edges
}

/// The hashes are cache keys shared by clients, servers and stores on
/// disk: pinned values, so a change to the canonical order shows.
#[test]
fn canonical_hashes_are_pinned() {
    let tri = generators::shuffle_ids(&generators::stacked_triangulation(200, 7), 3);
    let grid = generators::grid(10, 10);
    let hex = |h: canon::GraphHash| h.to_string();
    assert_eq!(hex(graph_hash(&tri)), "01fde172594f8801b78030d69da611c6");
    assert_eq!(
        hex(structural_hash(&tri)),
        "4e08dd032f6a4820039d061cd62f56d6"
    );
    assert_eq!(hex(graph_hash(&grid)), "fbea8844c0ffae1e862f0bcd9aad2112");
    assert_eq!(
        hex(structural_hash(&grid)),
        "93a21bf51798a186d65342b0187f7bcd"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// graph6 round-trips preserve structure exactly.
    #[test]
    fn graph6_roundtrip(n in 1u32..80, m_extra in 0u32..120, seed in 0u64..1000) {
        let m = (n.saturating_sub(1) + m_extra).min(n * n.saturating_sub(1) / 2);
        let g = if m >= n.saturating_sub(1) && n >= 2 {
            generators::gnm_connected(n, m, seed)
        } else {
            generators::path(n.max(1))
        };
        let s = graph6::encode(&g);
        let h = graph6::decode(&s).unwrap();
        prop_assert_eq!(h.node_count(), g.node_count());
        prop_assert_eq!(h.edge_count(), g.edge_count());
        for e in g.edges() {
            prop_assert!(h.has_edge(e.u, e.v));
        }
        // idempotent: encoding the decoded graph gives the same string
        prop_assert_eq!(graph6::encode(&h), s);
    }

    /// graph6 round-trips every generator family, including
    /// shuffled-identifier variants (graph6 carries structure only, so
    /// the round trip must be id-independent), and the canonical hash
    /// of the structure survives the trip.
    #[test]
    fn graph6_roundtrip_all_families(
        which in 0u32..generators::SAMPLE_FAMILY_COUNT,
        n in 4u32..60,
        seed in 0u64..1000,
    ) {
        let g = generators::sample_family(which, n, seed);
        for g in [g.clone(), generators::shuffle_ids(&g, seed)] {
            let s = graph6::encode(&g);
            let h = graph6::decode(&s).unwrap();
            prop_assert_eq!(h.node_count(), g.node_count(), "family {}", which);
            prop_assert_eq!(h.edge_count(), g.edge_count(), "family {}", which);
            for e in g.edges() {
                prop_assert!(h.has_edge(e.u, e.v), "family {}", which);
            }
            prop_assert_eq!(graph6::encode(&h), s, "re-encode is stable");
            prop_assert_eq!(
                dpc_graph::canon::structural_hash(&h),
                dpc_graph::canon::structural_hash(&g),
                "structure survives the trip"
            );
        }
    }

    /// The canonical order read off the sorted adjacency lists equals
    /// the collect-and-sort oracle, whatever the edge insertion order,
    /// the endpoint order within an edge and the identifiers; and the
    /// hashes do not see the insertion order.
    #[test]
    fn canonical_order_matches_the_sorting_oracle(
        which in 0u32..generators::SAMPLE_FAMILY_COUNT,
        n in 4u32..60,
        seed in 0u64..1000,
    ) {
        let g = generators::sample_family(which, n, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut list: Vec<(NodeId, NodeId)> = g
            .edges()
            .iter()
            .map(|e| if rng.gen_bool(0.5) { (e.u, e.v) } else { (e.v, e.u) })
            .collect();
        list.shuffle(&mut rng);
        let shuffled = Graph::from_edges(g.node_count() as u32, &list).with_ids(g.ids().to_vec());
        let relabelled = generators::shuffle_ids(&shuffled, seed);
        for h in [&g, &shuffled, &relabelled] {
            let oracle = sorted_edges(h);
            prop_assert_eq!(canon::canonical_edge_iter(h).collect::<Vec<_>>(), oracle.clone(), "family {}", which);
            prop_assert_eq!(canon::canonical_edges(h), oracle, "family {}", which);
        }
        prop_assert_eq!(graph_hash(&shuffled), graph_hash(&g));
        prop_assert_eq!(structural_hash(&relabelled), structural_hash(&g));
    }

    /// BFS tree distances are ≤ DFS tree distances, both span, subtree
    /// sizes are consistent.
    #[test]
    fn spanning_trees_consistent(n in 2u32..120, seed in 0u64..1000) {
        let g = generators::random_planar(n.max(3), 0.5, seed);
        let bfs = traversal::bfs_spanning_tree(&g, 0);
        let dfs = traversal::dfs_spanning_tree(&g, 0);
        let bfs_sizes = bfs.subtree_sizes();
        let dfs_sizes = dfs.subtree_sizes();
        prop_assert_eq!(bfs_sizes[0] as usize, g.node_count());
        prop_assert_eq!(dfs_sizes[0] as usize, g.node_count());
        for v in g.nodes() {
            prop_assert!(bfs.dist[v as usize] <= dfs.dist[v as usize],
                "BFS distances are shortest");
        }
        // n-1 tree edges each
        prop_assert_eq!(bfs.tree_edge_mask(&g).iter().filter(|&&b| b).count(),
            g.node_count() - 1);
    }

    /// Degeneracy is monotone under edge deletion and bounded by max degree.
    #[test]
    fn degeneracy_monotonicity(n in 3u32..80, seed in 0u64..500) {
        let g = generators::stacked_triangulation(n.max(3), seed);
        let d_full = degeneracy::degeneracy_order(&g).degeneracy;
        prop_assert!(d_full <= g.max_degree());
        prop_assert!(d_full <= 5, "planar");
        // remove half the cotree edges: degeneracy cannot increase
        let tree = traversal::bfs_spanning_tree(&g, 0);
        let mask = tree.tree_edge_mask(&g);
        let mut keep = true;
        let sub = g.edge_subgraph(|e, _| {
            mask[e as usize] || {
                keep = !keep;
                keep
            }
        });
        let d_sub = degeneracy::degeneracy_order(&sub).degeneracy;
        prop_assert!(d_sub <= d_full);
    }

    /// The bandwidth certificate is sound: whenever it certifies
    /// K4-minor-freeness, the exact series-parallel test agrees.
    #[test]
    fn stretch_certificate_sound(n in 4u32..60, seed in 0u64..500) {
        // build a random graph with stretch <= 2 by connecting only
        // nearby nodes in a layout
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = dpc_graph::GraphBuilder::new(n);
        for v in 1..n {
            b.add_edge(v - 1, v).unwrap();
        }
        for v in 2..n {
            if rng.gen_bool(0.5) {
                b.add_edge(v - 2, v).unwrap();
            }
        }
        let g = b.build();
        let layout: Vec<u32> = (0..n).collect();
        if minors::excludes_clique_minor_by_stretch(&g, 4, &layout) {
            prop_assert!(!minors::has_k4_minor(&g), "certificate must be sound");
        }
    }

    /// Subdivision preserves K4-minor status in both directions.
    #[test]
    fn subdivision_invariance(n in 4u32..30, seed in 0u64..200, extra in 1u32..3) {
        let g = generators::gnm_connected(n, (2 * n).min(n * (n - 1) / 2), seed);
        let sub = generators::subdivision_of(&g, extra);
        prop_assert_eq!(minors::has_k4_minor(&g), minors::has_k4_minor(&sub));
    }

    /// Components partition the nodes and respect edges.
    #[test]
    fn components_partition(n in 2u32..60, seed in 0u64..200) {
        let a = generators::random_tree(n, seed);
        let b = generators::cycle((n % 17).max(3));
        let g = a.disjoint_union(&b);
        let comps = traversal::components(&g);
        prop_assert_eq!(comps.count, 2);
        for e in g.edges() {
            prop_assert_eq!(comps.comp[e.u as usize], comps.comp[e.v as usize]);
        }
    }

    /// Biconnected components: bridges are singleton components; edges in
    /// a common cycle share a component.
    #[test]
    fn biconnectivity_invariants(n in 3u32..80, seed in 0u64..500) {
        let g = generators::random_planar(n.max(3), 0.4, seed);
        let bc = dpc_graph::biconnectivity::biconnectivity(&g);
        // every bridge forms its own component
        for &e in &bc.bridges {
            let c = bc.component[e as usize];
            let same = bc.component.iter().filter(|&&x| x == c).count();
            prop_assert_eq!(same, 1, "a bridge is alone in its component");
        }
        // the number of components is between 1 and m
        prop_assert!(bc.component_count as usize <= g.edge_count());
    }

    /// Generator contracts: node/edge counts and connectivity.
    #[test]
    fn generator_contracts(n in 3u32..100, seed in 0u64..500) {
        let tri = generators::stacked_triangulation(n.max(3), seed);
        prop_assert_eq!(tri.edge_count(), 3 * tri.node_count() - 6);
        prop_assert!(tri.is_connected());
        let outer = generators::random_maximal_outerplanar(n.max(3), seed);
        prop_assert_eq!(outer.edge_count(), 2 * outer.node_count() - 3,
            "maximal outerplanar has 2n-3 edges");
        let sp = generators::random_series_parallel(n.max(2), seed);
        prop_assert!(!minors::has_k4_minor(&sp), "series-parallel is K4-free");
    }
}
