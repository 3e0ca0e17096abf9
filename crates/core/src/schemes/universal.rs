//! The universal `O(m log n)`-bit baseline: ship the entire graph to
//! every node.
//!
//! Works for *any* decidable graph class (here instantiated for
//! planarity): the certificate is one canonical encoding of the whole
//! graph; each node checks (a) its neighbors carry the bit-identical
//! certificate, (b) its own row in the encoded graph matches its actual
//! neighborhood, and (c) the encoded graph is in the class. With the
//! network connected, all nodes accepting forces the encoding to be a
//! supergraph of the real network that agrees on every real node's row,
//! so class membership (for subgraph-closed classes like planarity)
//! transfers. This is the baseline the paper's `O(log n)` result should
//! be compared against (experiment E10).

use crate::scheme::{Assignment, ProofLabelingScheme, ProveError};
use dpc_graph::{Graph, GraphBuilder};
use dpc_runtime::bits::BitWriter;
use dpc_runtime::{NodeCtx, Payload};

/// Universal PLS instantiated for the class of planar graphs.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniversalScheme;

impl UniversalScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        UniversalScheme
    }
}

fn encode_graph(g: &Graph) -> Payload {
    // canonical encoding: n, m, sorted ids, then edges as index pairs
    // (sorted lexicographically)
    let mut ids: Vec<u64> = g.ids().to_vec();
    ids.sort_unstable();
    let index_of = |id: u64| ids.binary_search(&id).unwrap() as u64;
    let mut edges: Vec<(u64, u64)> = g
        .edges()
        .iter()
        .map(|e| {
            let (a, b) = (index_of(g.id_of(e.u)), index_of(g.id_of(e.v)));
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    let mut w = BitWriter::new();
    w.write_varint(g.node_count() as u64);
    w.write_varint(g.edge_count() as u64);
    for &id in &ids {
        w.write_varint(id);
    }
    for &(a, b) in &edges {
        w.write_varint(a);
        w.write_varint(b);
    }
    Payload::from_writer(w)
}

fn decode_graph(p: &Payload) -> Option<(Vec<u64>, Graph)> {
    let mut r = p.reader();
    let n = r.read_varint().ok()?;
    let m = r.read_varint().ok()?;
    if n > 1_000_000 || m > 10_000_000 {
        return None;
    }
    let mut ids = Vec::with_capacity(n as usize);
    for _ in 0..n {
        ids.push(r.read_varint().ok()?);
    }
    // ids must be sorted and distinct (canonical form)
    if ids.windows(2).any(|w| w[0] >= w[1]) {
        return None;
    }
    let mut b = GraphBuilder::new(n as u32);
    for _ in 0..m {
        let x = r.read_varint().ok()?;
        let y = r.read_varint().ok()?;
        if x >= n || y >= n {
            return None;
        }
        if !b.add_edge_if_absent(x as u32, y as u32).ok()? {
            return None; // duplicate edge: not canonical
        }
    }
    if r.remaining() != 0 {
        return None;
    }
    b.with_ids(ids.clone());
    Some((ids, b.build()))
}

impl ProofLabelingScheme for UniversalScheme {
    fn name(&self) -> &'static str {
        "universal"
    }

    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
        if !g.is_connected() {
            return Err(ProveError::NotConnected);
        }
        if !dpc_planar::lr::is_planar(g) {
            return Err(ProveError::NotInClass("planar graphs"));
        }
        let cert = encode_graph(g);
        Ok(Assignment {
            certs: vec![cert; g.node_count()],
        })
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        // (a) all neighbors carry the identical certificate
        for nb in neighbors {
            if nb != own {
                return false;
            }
        }
        // (b) my row matches my actual neighborhood
        let Some((ids, h)) = decode_graph(own) else {
            return false;
        };
        let Ok(me) = ids.binary_search(&ctx.id) else {
            return false;
        };
        let mut claimed: Vec<u64> = h.neighbors(me as u32).map(|w| ids[w as usize]).collect();
        claimed.sort_unstable();
        let mut actual = ctx.neighbor_ids.clone();
        actual.sort_unstable();
        if claimed != actual {
            return false;
        }
        // (c) the encoded graph is planar
        dpc_planar::lr::is_planar(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_pls, run_with_assignment};
    use dpc_graph::generators;

    #[test]
    fn accepts_planar() {
        for g in [
            generators::grid(4, 4),
            generators::stacked_triangulation(25, 1),
            generators::random_tree(30, 2),
        ] {
            let out = run_pls(&UniversalScheme, &g).unwrap();
            assert!(out.all_accept());
        }
    }

    #[test]
    fn declines_nonplanar() {
        assert!(UniversalScheme.prove(&generators::complete(5)).is_err());
    }

    #[test]
    fn certificate_is_linear_size() {
        let small = UniversalScheme
            .prove(&generators::stacked_triangulation(50, 3))
            .unwrap();
        let large = UniversalScheme
            .prove(&generators::stacked_triangulation(500, 3))
            .unwrap();
        // ~10x nodes => ~10x bits (linear, unlike the paper's scheme)
        assert!(large.max_bits() > 5 * small.max_bits());
    }

    #[test]
    fn soundness_replay_subgraph() {
        // certificates of the planarized graph replayed on the non-planar
        // one: some node's row no longer matches its neighborhood
        let g = generators::planted_kuratowski(15, true, 1, 2);
        let planar = {
            // remove witness edges greedily until planar (simple variant)
            let mut mask: Vec<bool> = vec![true; g.edge_count()];
            for e in 0..g.edge_count() {
                if dpc_planar::lr::is_planar(&g.edge_subgraph(|id, _| mask[id as usize])) {
                    break;
                }
                mask[e] = false;
                let sub = g.edge_subgraph(|id, _| mask[id as usize]);
                if !sub.is_connected() {
                    mask[e] = true;
                }
            }
            g.edge_subgraph(|id, _| mask[id as usize])
        };
        assert!(dpc_planar::lr::is_planar(&planar));
        let a = UniversalScheme.prove(&planar).unwrap();
        let out = run_with_assignment(&UniversalScheme, &g, &a);
        assert!(!out.all_accept());
    }

    #[test]
    fn forged_extra_edge_in_encoding_rejected() {
        // the certificate encodes a graph with an edge the network lacks
        let g = generators::path(5);
        let mut b = dpc_graph::GraphBuilder::new(5);
        for e in g.edges() {
            b.add_edge(e.u, e.v).unwrap();
        }
        b.add_edge(0, 4).unwrap(); // pretend a cycle
        let h = b.build().with_ids(g.ids().to_vec());
        let cert = encode_graph(&h);
        let a = Assignment {
            certs: vec![cert; 5],
        };
        let out = run_with_assignment(&UniversalScheme, &g, &a);
        assert!(!out.all_accept(), "nodes 0 and 4 see a phantom edge");
    }
}
