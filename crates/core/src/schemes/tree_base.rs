//! The spanning-tree certificate component.
//!
//! Folklore since the self-stabilization literature (paper §2): every
//! node receives the root identifier, a parent pointer, its hop distance
//! to the root, the total node count `n`, and its subtree size. Locally
//! checking (a) root-id agreement, (b) distance decrement toward the
//! parent, and (c) subtree counts proves globally that the parent
//! pointers form one spanning tree with the claimed `n` — the substrate
//! for "this structure exists somewhere" arguments.

use dpc_runtime::bits::{BitReader, BitWriter, DecodeError};
use dpc_runtime::NodeCtx;

/// Decoded spanning-tree certificate of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeCert {
    /// Identifier of the root (agreed network-wide).
    pub root_id: u64,
    /// Claimed number of nodes.
    pub n: u64,
    /// Hop distance to the root (0 iff root).
    pub dist: u64,
    /// Identifier of the parent; by convention equal to the node's own
    /// identifier at the root.
    pub parent_id: u64,
    /// Number of nodes in this node's subtree (≥ 1).
    pub subtree: u64,
}

impl TreeCert {
    /// Serializes into a bit stream.
    pub fn encode(&self, w: &mut BitWriter) {
        w.write_varint(self.root_id);
        w.write_varint(self.n);
        w.write_varint(self.dist);
        w.write_varint(self.parent_id);
        w.write_varint(self.subtree);
    }

    /// Deserializes from a bit stream.
    pub fn decode(r: &mut BitReader<'_>) -> Result<Self, DecodeError> {
        Ok(TreeCert {
            root_id: r.read_varint()?,
            n: r.read_varint()?,
            dist: r.read_varint()?,
            parent_id: r.read_varint()?,
            subtree: r.read_varint()?,
        })
    }
}

/// Result of the local spanning-tree check: the ports of the parent and
/// of the children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeInfo {
    /// Port of the parent (`None` at the root).
    pub parent_port: Option<usize>,
    /// Ports of the children (neighbors pointing here), in port order.
    pub children_ports: Vec<usize>,
}

/// Local verification of the spanning-tree component at one node.
///
/// `neighbors[p]` is the tree certificate heard on port `p`. Returns
/// `None` (reject) on any inconsistency.
pub fn check_tree(ctx: &NodeCtx, own: &TreeCert, neighbors: &[TreeCert]) -> Option<TreeInfo> {
    let mut children_ports = Vec::new();
    let parent_port = check_tree_into(ctx, own, neighbors, &mut children_ports)?;
    Some(TreeInfo {
        parent_port,
        children_ports,
    })
}

/// [`check_tree`] with the children's ports written to a caller's
/// buffer (cleared first, filled in port order), so a verifier visiting
/// every node reuses one allocation. Returns the parent port (`None` at
/// the root), or `None` (reject) on any inconsistency.
pub fn check_tree_into(
    ctx: &NodeCtx,
    own: &TreeCert,
    neighbors: &[TreeCert],
    children_ports: &mut Vec<usize>,
) -> Option<Option<usize>> {
    children_ports.clear();
    if neighbors.len() != ctx.degree() || own.n == 0 || own.subtree == 0 {
        return None;
    }
    // agreement on root id and n
    for nb in neighbors {
        if nb.root_id != own.root_id || nb.n != own.n {
            return None;
        }
    }
    let is_root = own.dist == 0;
    if is_root {
        // root: own id is the agreed root id; parent pointer loops
        if own.root_id != ctx.id || own.parent_id != ctx.id {
            return None;
        }
        if own.subtree != own.n {
            return None;
        }
    } else if own.parent_id == ctx.id || own.root_id == ctx.id {
        return None; // non-root cannot self-parent or carry the root id
    }
    // locate parent
    let parent_port = if is_root {
        None
    } else {
        let p = ctx
            .neighbor_ids
            .iter()
            .position(|&nid| nid == own.parent_id)?;
        if neighbors[p].dist.checked_add(1) != Some(own.dist) {
            return None;
        }
        Some(p)
    };
    // children: neighbors that point here
    let mut sum = 1u64;
    for (p, nb) in neighbors.iter().enumerate() {
        if nb.parent_id == ctx.id && Some(p) != parent_port {
            if Some(nb.dist) != own.dist.checked_add(1) {
                return None;
            }
            sum = sum.checked_add(nb.subtree)?;
            children_ports.push(p);
        }
    }
    if sum != own.subtree {
        return None;
    }
    Some(parent_port)
}

/// Honest prover side: tree certificates from an actual spanning tree.
pub fn build_tree_certs(
    g: &dpc_graph::Graph,
    tree: &dpc_graph::traversal::SpanningTree,
) -> Vec<TreeCert> {
    let n = g.node_count() as u64;
    let sizes = tree.subtree_sizes();
    g.nodes()
        .map(|v| {
            let parent_id = match tree.parent[v as usize] {
                Some(p) => g.id_of(p),
                None => g.id_of(v),
            };
            TreeCert {
                root_id: g.id_of(tree.root),
                n,
                dist: tree.dist[v as usize] as u64,
                parent_id,
                subtree: sizes[v as usize] as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_graph::generators;
    use dpc_graph::traversal::bfs_spanning_tree;

    fn ctx_for(g: &dpc_graph::Graph, v: u32) -> NodeCtx {
        NodeCtx {
            node: v,
            id: g.id_of(v),
            neighbor_ids: g.neighbors(v).map(|w| g.id_of(w)).collect(),
        }
    }

    fn neighbor_certs(g: &dpc_graph::Graph, certs: &[TreeCert], v: u32) -> Vec<TreeCert> {
        g.neighbors(v).map(|w| certs[w as usize]).collect()
    }

    #[test]
    fn honest_certs_verify_everywhere() {
        for g in [
            generators::grid(4, 5),
            generators::random_tree(40, 2),
            generators::stacked_triangulation(30, 3),
        ] {
            let tree = bfs_spanning_tree(&g, 0);
            let certs = build_tree_certs(&g, &tree);
            for v in g.nodes() {
                let info = check_tree(
                    &ctx_for(&g, v),
                    &certs[v as usize],
                    &neighbor_certs(&g, &certs, v),
                );
                assert!(info.is_some(), "node {v} must accept");
            }
            // root has no parent; children counts sum to n
            let info =
                check_tree(&ctx_for(&g, 0), &certs[0], &neighbor_certs(&g, &certs, 0)).unwrap();
            assert_eq!(info.parent_port, None);
        }
    }

    #[test]
    fn lying_about_n_rejected() {
        let g = generators::grid(3, 3);
        let tree = bfs_spanning_tree(&g, 0);
        let mut certs = build_tree_certs(&g, &tree);
        for c in &mut certs {
            c.n = 100; // global lie: the subtree sum at the root breaks
        }
        let rejected = g.nodes().any(|v| {
            check_tree(
                &ctx_for(&g, v),
                &certs[v as usize],
                &neighbor_certs(&g, &certs, v),
            )
            .is_none()
        });
        assert!(rejected);
    }

    #[test]
    fn forged_second_root_rejected() {
        let g = generators::path(6);
        let tree = bfs_spanning_tree(&g, 0);
        let mut certs = build_tree_certs(&g, &tree);
        // node 5 pretends to be a root of its own tree
        certs[5].dist = 0;
        certs[5].parent_id = g.id_of(5);
        certs[5].root_id = g.id_of(5);
        let rejected = g.nodes().any(|v| {
            check_tree(
                &ctx_for(&g, v),
                &certs[v as usize],
                &neighbor_certs(&g, &certs, v),
            )
            .is_none()
        });
        assert!(rejected, "root-id disagreement must surface");
    }

    #[test]
    fn wrong_subtree_size_rejected() {
        let g = generators::random_tree(20, 9);
        let tree = bfs_spanning_tree(&g, 0);
        let mut certs = build_tree_certs(&g, &tree);
        certs[7].subtree += 1;
        let rejected = g.nodes().any(|v| {
            check_tree(
                &ctx_for(&g, v),
                &certs[v as usize],
                &neighbor_certs(&g, &certs, v),
            )
            .is_none()
        });
        assert!(rejected);
    }

    #[test]
    fn distance_skip_rejected() {
        let g = generators::path(5);
        let tree = bfs_spanning_tree(&g, 0);
        let mut certs = build_tree_certs(&g, &tree);
        certs[3].dist += 1; // distance no longer decrements toward parent
        let rejected = g.nodes().any(|v| {
            check_tree(
                &ctx_for(&g, v),
                &certs[v as usize],
                &neighbor_certs(&g, &certs, v),
            )
            .is_none()
        });
        assert!(rejected);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = TreeCert {
            root_id: 12345,
            n: 999,
            dist: 42,
            parent_id: 777,
            subtree: 13,
        };
        let mut w = BitWriter::new();
        c.encode(&mut w);
        let mut r = BitReader::new(w.as_bytes(), w.bit_len());
        assert_eq!(TreeCert::decode(&mut r).unwrap(), c);
    }
}
