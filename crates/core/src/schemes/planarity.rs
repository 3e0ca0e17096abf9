//! Theorem 1: the 1-round proof-labeling scheme for **planarity** with
//! `O(log n)`-bit certificates — the paper's main contribution
//! (Algorithm 2).
//!
//! # Prover (Section 3.3)
//!
//! On a planar graph the prover computes a combinatorial embedding (our
//! left-right test), a spanning tree `T`, the DFS mapping `f` and the
//! path-outerplanar graph `G_{T,f}` (Lemma 3, [`dpc_planar::tembed`]).
//! It then distributes, per **edge** of `G`:
//!
//! * for a tree edge `{x, c}` (`c` the child): the interval labels of the
//!   four spine positions `fmin(c)−1, fmin(c), fmax(c), fmax(c)+1` — the
//!   two spine edges the tree edge maps to;
//! * for a cotree edge: its chord `{i, j}` with the labels `I(i), I(j)`.
//!
//! Each edge-certificate is stored at one endpoint, chosen by a
//! 5-degeneracy ordering so every node stores **at most five** of them;
//! the other endpoint hears it in the verification round. Each node also
//! carries the spanning-tree component and its own `fmin/fmax`.
//!
//! # Verifier (Algorithm 2)
//!
//! Phase 1 reconstructs the copies `f⁻¹(x)` and their `G_{T,f}`
//! neighborhoods from the certificates heard in one round. Phase 2
//! checks the spanning tree (root agreement, distances, subtree counts)
//! and that `f` is a DFS mapping (the `fmin/fmax` recurrences of §3.3).
//! Phase 3 simulates Algorithm 1 ([`crate::alg1`]) at every copy; the
//! root simulates the two virtual spine ends `0` and `2n`.
//!
//! The verification round ([`ProofLabelingScheme::verify_round`])
//! decodes each certificate once and runs the per-node predicate of
//! [`ProofLabelingScheme::verify`] at every node on the decoded
//! neighbors, so a round costs n decodes instead of n + 2m.
//!
//! Soundness: all nodes accepting forces `T` spanning, `f` a DFS mapping
//! and `G_{T,f}` path-outerplanar (Lemma 2), hence `G` planar (Lemma 4).

use crate::alg1::{verify_spine_sorted, virtual_interval, Interval};
use crate::scheme::{Assignment, ProofLabelingScheme, ProveError};
use crate::schemes::tree_base::{build_tree_certs, check_tree_into, TreeCert};
use dpc_graph::degeneracy::{assign_edges_by_degeneracy, assign_edges_naive, degeneracy_order};
use dpc_graph::Graph;
use dpc_planar::tembed::t_embedding;
use dpc_runtime::bits::{BitReader, BitWriter, DecodeError};
use dpc_runtime::{NodeCtx, Payload};

type Iv = (u64, u64);

/// One edge-certificate (the `c(e)` of Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    /// Tree edge: interval labels at `fmin(c)−1, fmin(c), fmax(c),
    /// fmax(c)+1` where `c` is the child endpoint (positions are implied
    /// by the endpoints' `fmin/fmax`, so only intervals are shipped).
    Tree([Iv; 4]),
    /// Cotree edge: its chord `{i, j}` (`i < j`) with interval labels.
    Cotree { i: u64, ii: Iv, j: u64, ij: Iv },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EdgeCert {
    id_a: u64,
    id_b: u64,
    kind: EdgeKind,
}

/// One node's certificate, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlanCert {
    tree: TreeCert,
    fmin: u64,
    fmax: u64,
    edges: Vec<EdgeCert>,
}

fn write_iv(w: &mut BitWriter, iv: Iv) {
    w.write_varint(iv.0);
    w.write_varint(iv.1);
}

fn read_iv(r: &mut BitReader<'_>) -> Result<Iv, DecodeError> {
    Ok((r.read_varint()?, r.read_varint()?))
}

/// Writes one certificate: the tree component, `fmin`, `fmax`, then the
/// edge-certificates, count first.
fn write_cert(w: &mut BitWriter, tree: &TreeCert, fmin: u64, fmax: u64, edges: &[EdgeCert]) {
    tree.encode(w);
    w.write_varint(fmin);
    w.write_varint(fmax);
    w.write_varint(edges.len() as u64);
    for e in edges {
        w.write_varint(e.id_a);
        w.write_varint(e.id_b);
        match e.kind {
            EdgeKind::Tree(ivs) => {
                w.write_bool(true);
                for iv in ivs {
                    write_iv(w, iv);
                }
            }
            EdgeKind::Cotree { i, ii, j, ij } => {
                w.write_bool(false);
                w.write_varint(i);
                write_iv(w, ii);
                w.write_varint(j);
                write_iv(w, ij);
            }
        }
    }
}

impl PlanCert {
    /// Re-encodes a certificate (the rejection-path tests mutate and
    /// re-encode decoded ones).
    #[cfg(test)]
    fn encode(&self) -> Payload {
        let mut w = BitWriter::new();
        write_cert(&mut w, &self.tree, self.fmin, self.fmax, &self.edges);
        Payload::from_writer(w)
    }

    fn decode(p: &Payload) -> Option<PlanCert> {
        let mut r = p.reader();
        let tree = TreeCert::decode(&mut r).ok()?;
        let fmin = r.read_varint().ok()?;
        let fmax = r.read_varint().ok()?;
        let count = r.read_varint().ok()?;
        if count > 10_000 {
            return None; // sanity cap against absurd forgeries
        }
        let mut edges = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id_a = r.read_varint().ok()?;
            let id_b = r.read_varint().ok()?;
            let kind = if r.read_bool().ok()? {
                let mut ivs = [(0, 0); 4];
                for iv in &mut ivs {
                    *iv = read_iv(&mut r).ok()?;
                }
                EdgeKind::Tree(ivs)
            } else {
                let i = r.read_varint().ok()?;
                let ii = read_iv(&mut r).ok()?;
                let j = r.read_varint().ok()?;
                let ij = read_iv(&mut r).ok()?;
                EdgeKind::Cotree { i, ii, j, ij }
            };
            edges.push(EdgeCert { id_a, id_b, kind });
        }
        (r.remaining() == 0).then_some(PlanCert {
            tree,
            fmin,
            fmax,
            edges,
        })
    }
}

/// How edge-certificates are assigned to endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeAssignment {
    /// By a degeneracy ordering (≤ 5 certificates per node on planar
    /// graphs — the paper's choice).
    #[default]
    Degeneracy,
    /// Naive smaller-endpoint assignment (up to Δ certificates per node)
    /// — the ablation baseline of experiment E12.
    Naive,
}

/// The planarity PLS of Theorem 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanarityScheme {
    assignment: EdgeAssignment,
}

impl PlanarityScheme {
    /// Scheme with the paper's degeneracy-based certificate placement.
    pub fn new() -> Self {
        PlanarityScheme::default()
    }

    /// Scheme with an explicit placement policy (for the ablation).
    pub fn with_assignment(assignment: EdgeAssignment) -> Self {
        PlanarityScheme { assignment }
    }
}

impl ProofLabelingScheme for PlanarityScheme {
    fn name(&self) -> &'static str {
        "planarity"
    }

    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
        if !g.is_connected() {
            return Err(ProveError::NotConnected);
        }
        let n = g.node_count();
        if n == 1 {
            let tree = TreeCert {
                root_id: g.id_of(0),
                n: 1,
                dist: 0,
                parent_id: g.id_of(0),
                subtree: 1,
            };
            let mut w = BitWriter::new();
            write_cert(&mut w, &tree, 1, 1, &[]);
            return Ok(Assignment {
                certs: vec![Payload::from_writer(w)],
            });
        }
        let rot = dpc_planar::lr::planarity(g)
            .into_embedding()
            .ok_or(ProveError::NotInClass("planar graphs"))?;
        let tree = dpc_graph::traversal::bfs_spanning_tree(g, 0);
        let te = t_embedding(g, &rot, &tree)
            .expect("planar rotation system yields laminar chords (Lemma 3)");
        let tree_certs = build_tree_certs(g, &tree);
        let owners = match self.assignment {
            EdgeAssignment::Degeneracy => {
                let d = degeneracy_order(g);
                assign_edges_by_degeneracy(g, &d)
            }
            EdgeAssignment::Naive => assign_edges_naive(g),
        };
        let tree_mask = tree.tree_edge_mask(g);
        let iv = |x: u64| -> Iv {
            let (a, b) = te.interval(x as u32);
            (a as u64, b as u64)
        };
        let edge_cert = |eid: usize| {
            let e = g.edges()[eid];
            let kind = if tree_mask[eid] {
                let c = if tree.parent[e.u as usize] == Some(e.v) {
                    e.u
                } else {
                    e.v
                };
                let (cmin, cmax) = (te.fmin(c) as u64, te.fmax(c) as u64);
                EdgeKind::Tree([iv(cmin - 1), iv(cmin), iv(cmax), iv(cmax + 1)])
            } else {
                let chord = te.chords[te.chord_of[eid] as usize];
                EdgeKind::Cotree {
                    i: chord.a as u64,
                    ii: iv(chord.a as u64),
                    j: chord.b as u64,
                    ij: iv(chord.b as u64),
                }
            };
            EdgeCert {
                id_a: g.id_of(e.u),
                id_b: g.id_of(e.v),
                kind,
            }
        };
        // edge ids grouped by owner, in edge order within a group (a
        // counting sort): node v stores by_owner[start[v]..start[v + 1]]
        let mut start = vec![0u32; n + 1];
        for &o in &owners {
            start[o as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut next = start.clone();
        let mut by_owner = vec![0u32; owners.len()];
        for (eid, &o) in owners.iter().enumerate() {
            by_owner[next[o as usize] as usize] = eid as u32;
            next[o as usize] += 1;
        }
        // one writer and one edge list reused for every certificate, and
        // one buffer holding them all
        let mut w = BitWriter::new();
        let mut edges = Vec::new();
        let mut packed = Vec::new();
        let mut spans = Vec::with_capacity(n);
        for v in g.nodes() {
            let (lo, hi) = (start[v as usize] as usize, start[v as usize + 1] as usize);
            edges.clear();
            edges.extend(by_owner[lo..hi].iter().map(|&eid| edge_cert(eid as usize)));
            w.clear();
            write_cert(
                &mut w,
                &tree_certs[v as usize],
                te.fmin(v) as u64,
                te.fmax(v) as u64,
                &edges,
            );
            spans.push((packed.len(), w.bit_len()));
            packed.extend_from_slice(w.as_bytes());
        }
        Ok(Assignment::packed(&packed.into(), spans))
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        let Some(own) = PlanCert::decode(own) else {
            return false;
        };
        let Some(nbs) = neighbors
            .iter()
            .map(PlanCert::decode)
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        let nbs: Vec<&PlanCert> = nbs.iter().collect();
        check_node(ctx, &own, &nbs, &mut Scratch::default()).is_some()
    }

    /// Decodes every certificate once, then runs the per-node predicate
    /// of [`Self::verify`] at each node on the decoded neighbors.
    fn verify_round(&self, g: &Graph, certs: &[Payload]) -> Vec<bool> {
        let decoded: Vec<Option<PlanCert>> = certs.iter().map(PlanCert::decode).collect();
        let mut ctx = NodeCtx::default();
        let mut nbs = Vec::new();
        let mut scratch = Scratch::default();
        g.nodes()
            .map(|v| {
                let Some(own) = &decoded[v as usize] else {
                    return false;
                };
                nbs.clear();
                for w in g.neighbors(v) {
                    match &decoded[w as usize] {
                        Some(c) => nbs.push(c),
                        None => return false,
                    }
                }
                ctx.load(g, v);
                check_node(&ctx, own, &nbs, &mut scratch).is_some()
            })
            .collect()
    }
}

/// Claimed node counts above this are rejected: every spine position and
/// interval bound then fits an `i64` with room for the virtual ends.
const MAX_NODES: u64 = 1 << 60;

/// Buffers of the per-node predicate, reused from node to node.
#[derive(Debug, Default)]
struct Scratch {
    /// Tree certificates heard, by port.
    trees: Vec<TreeCert>,
    /// Ports of the tree children (sorted by `fmin` once checked).
    children: Vec<usize>,
    /// Per port: is the edge a tree edge?
    on_tree: Vec<bool>,
    /// The copies `f⁻¹(x)`, sorted.
    copies: Vec<u64>,
    /// Per port: the edge's certificate.
    resolved: Vec<EdgeCert>,
    /// Interval claims `(position, I(position))`.
    claims: Vec<(u64, Iv)>,
    /// H-edges at the copies: `(copy, neighbor position)`.
    adj: Vec<(u64, u64)>,
    /// One copy's Algorithm 1 neighbor list.
    view: Vec<(i64, Interval)>,
}

/// Records an interval claim after a range check; `None` = reject.
fn claim(claims: &mut Vec<(u64, Iv)>, spine: u64, pos: u64, iv: Iv) -> Option<()> {
    if pos < 1 || pos > spine || iv.1 > spine + 1 || iv.0 >= iv.1 {
        return None;
    }
    claims.push((pos, iv));
    Some(())
}

/// Records the H-edge `{a, b}` at each endpoint that is a copy of `x`.
fn add_edge(adj: &mut Vec<(u64, u64)>, copies: &[u64], a: u64, b: u64) {
    if copies.binary_search(&a).is_ok() {
        adj.push((a, b));
    }
    if copies.binary_search(&b).is_ok() {
        adj.push((b, a));
    }
}

/// Algorithm 2 at one node on decoded certificates (`nbs[p]` heard on
/// port `p`); `None` = reject. Written with `?` so any missing or
/// inconsistent piece rejects, and with checked arithmetic so a forged
/// position rejects instead of overflowing. The one predicate behind
/// both `verify` and `verify_round`.
fn check_node(ctx: &NodeCtx, own: &PlanCert, nbs: &[&PlanCert], s: &mut Scratch) -> Option<()> {
    // ---- Phase 2a: spanning tree ----------------------------------------
    s.trees.clear();
    s.trees.extend(nbs.iter().map(|c| c.tree));
    let parent_port = check_tree_into(ctx, &own.tree, &s.trees, &mut s.children)?;
    let n = own.tree.n;
    if n == 1 {
        return (own.fmin == 1 && own.fmax == 1).then_some(());
    }
    if n > MAX_NODES {
        return None;
    }
    let spine = 2 * n - 1; // N

    // ---- Phase 2b: DFS mapping ------------------------------------------
    if own.fmin < 1 || own.fmin > own.fmax || own.fmax > spine {
        return None;
    }
    if parent_port.is_none() && (own.fmin != 1 || own.fmax != spine) {
        return None;
    }
    // children sorted by fmin
    s.children.sort_by_key(|&p| nbs[p].fmin);
    match (s.children.first(), s.children.last()) {
        (Some(&first), Some(&last)) => {
            if Some(nbs[first].fmin) != own.fmin.checked_add(1) {
                return None;
            }
            for w in s.children.windows(2) {
                if Some(nbs[w[1]].fmin) != nbs[w[0]].fmax.checked_add(2) {
                    return None;
                }
            }
            if Some(own.fmax) != nbs[last].fmax.checked_add(1) {
                return None;
            }
        }
        _ => {
            if own.fmax != own.fmin {
                return None;
            }
        }
    }
    // copies of x on the spine
    s.copies.clear();
    s.copies.push(own.fmin);
    for &p in &s.children {
        s.copies.push(nbs[p].fmax.checked_add(1)?);
    }
    s.copies.sort_unstable();
    s.copies.dedup();

    // ---- Phase 1: resolve one edge-certificate per incident edge --------
    s.on_tree.clear();
    s.on_tree.resize(ctx.degree(), false);
    for &p in parent_port.iter().chain(&s.children) {
        s.on_tree[p] = true;
    }
    s.resolved.clear();
    for (p, &nid) in ctx.neighbor_ids.iter().enumerate() {
        let mut found: Option<&EdgeCert> = None;
        for e in own.edges.iter().chain(&nbs[p].edges) {
            if (e.id_a == ctx.id && e.id_b == nid) || (e.id_a == nid && e.id_b == ctx.id) {
                match found {
                    None => found = Some(e),
                    Some(prev) if prev == e => {}
                    Some(_) => return None, // two different certificates
                }
            }
        }
        let e = found?;
        if matches!(e.kind, EdgeKind::Tree(_)) != s.on_tree[p] {
            return None;
        }
        s.resolved.push(*e);
    }

    // ---- Phase 1b: interval claims + H-adjacency of the copies ----------
    s.claims.clear();
    s.adj.clear();
    for (p, e) in s.resolved.iter().enumerate() {
        match &e.kind {
            EdgeKind::Tree(ivs) => {
                let child_is_self = parent_port == Some(p);
                let (cmin, cmax) = if child_is_self {
                    (own.fmin, own.fmax)
                } else {
                    (nbs[p].fmin, nbs[p].fmax)
                };
                if cmin < 2 || cmax >= spine {
                    return None; // child occupies interior spine positions
                }
                let pos = [cmin - 1, cmin, cmax, cmax + 1];
                for (&q, &iv) in pos.iter().zip(ivs) {
                    claim(&mut s.claims, spine, q, iv)?;
                }
                add_edge(&mut s.adj, &s.copies, pos[0], pos[1]);
                add_edge(&mut s.adj, &s.copies, pos[2], pos[3]);
                // x is the parent: pos[0], pos[3] must be copies of x (a
                // child checks nothing more here; its parent checks its
                // own copy membership)
                let is_copy = |q: u64| s.copies.binary_search(&q).is_ok();
                if !(child_is_self || is_copy(pos[0]) && is_copy(pos[3])) {
                    return None;
                }
            }
            &EdgeKind::Cotree { i, ii, j, ij } => {
                if i >= j {
                    return None;
                }
                claim(&mut s.claims, spine, i, ii)?;
                claim(&mut s.claims, spine, j, ij)?;
                let mine_i = s.copies.binary_search(&i).is_ok();
                let mine_j = s.copies.binary_search(&j).is_ok();
                if mine_i == mine_j {
                    return None; // exactly one endpoint is a copy of x
                }
                // the other endpoint must lie in the neighbor's range
                let other = if mine_i { j } else { i };
                if other < nbs[p].fmin || other > nbs[p].fmax {
                    return None;
                }
                add_edge(&mut s.adj, &s.copies, i, j);
            }
        }
    }
    // one interval per position: conflicting claims reject
    s.claims.sort_unstable();
    if s.claims
        .windows(2)
        .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
    {
        return None;
    }
    s.claims.dedup();
    let claims = &s.claims;
    let interval_of = |q: u64| -> Option<Interval> {
        let k = claims.binary_search_by_key(&q, |c| c.0).ok()?;
        let (a, b) = claims[k].1;
        Some((a as i64, b as i64))
    };

    // ---- Phase 3: Algorithm 1 at every copy ------------------------------
    s.adj.sort_unstable();
    s.adj.dedup();
    let spine_i = spine as i64;
    let mut rest = &s.adj[..];
    for &c in &s.copies {
        let here = rest.partition_point(|e| e.0 == c);
        let (nb_positions, tail) = rest.split_at(here);
        rest = tail;
        // claimed positions lie in 1..=N: the virtual ends keep it sorted
        s.view.clear();
        if c == 1 {
            s.view.push((0, virtual_interval(spine_i)));
        }
        for &(_, q) in nb_positions {
            s.view.push((q as i64, interval_of(q)?));
        }
        if c == spine {
            s.view.push((spine_i + 1, virtual_interval(spine_i)));
        }
        if !verify_spine_sorted(c as i64, spine_i, interval_of(c)?, &s.view) {
            return None;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_pls, run_with_assignment, run_with_assignment_deepcopy};
    use dpc_graph::generators;

    /// Runs a (forged) assignment through the round path and asserts the
    /// per-node reference path agrees verdict for verdict.
    fn run_both(g: &Graph, a: &Assignment) -> crate::harness::Outcome {
        let scheme = PlanarityScheme::new();
        let round = run_with_assignment(&scheme, g, a);
        assert_eq!(round, run_with_assignment_deepcopy(&scheme, g, a));
        round
    }

    #[test]
    fn accepts_planar_families() {
        let graphs = vec![
            generators::path(1),
            generators::path(2),
            generators::path(20),
            generators::cycle(15),
            generators::star(12),
            generators::grid(5, 6),
            generators::wheel(10),
            generators::complete(4),
            generators::random_tree(60, 1),
            generators::random_maximal_outerplanar(25, 2),
            generators::random_series_parallel(40, 3),
        ];
        for g in graphs {
            let out = run_pls(&PlanarityScheme::new(), &g).unwrap();
            assert!(out.all_accept(), "graph {g:?} must be fully accepted");
            assert_eq!(out.rounds, 1);
        }
    }

    /// Helper for the rejection-path matrix: mutate node `v`'s decoded
    /// certificate and assert at least one node rejects.
    fn assert_mutation_caught(
        g: &Graph,
        v: usize,
        name: &str,
        mutate: impl FnOnce(&mut PlanCert) -> bool,
    ) {
        let honest = PlanarityScheme::new().prove(g).unwrap();
        let mut cert = PlanCert::decode(&honest.certs[v]).unwrap();
        if !mutate(&mut cert) {
            return; // mutation not applicable at this node
        }
        let mut forged = honest;
        forged.certs[v] = cert.encode();
        let out = run_both(g, &forged);
        assert!(
            !out.all_accept(),
            "mutation `{name}` at node {v} went unnoticed"
        );
    }

    /// Every targeted certificate mutation must trip a distinct check of
    /// Algorithm 2 — a rejection-path matrix for the verifier.
    #[test]
    fn rejection_path_matrix() {
        let g = generators::stacked_triangulation(30, 13);
        for v in [1usize, 5, 12] {
            assert_mutation_caught(&g, v, "root-id lie", |c| {
                c.tree.root_id ^= 1;
                true
            });
            assert_mutation_caught(&g, v, "distance bump", |c| {
                c.tree.dist += 1;
                true
            });
            assert_mutation_caught(&g, v, "subtree count", |c| {
                c.tree.subtree += 1;
                true
            });
            assert_mutation_caught(&g, v, "n inflation", |c| {
                c.tree.n += 1;
                true
            });
            assert_mutation_caught(&g, v, "fmin shift", |c| {
                c.fmin += 1;
                true
            });
            assert_mutation_caught(&g, v, "fmax shrink", |c| {
                if c.fmax > c.fmin {
                    c.fmax -= 1;
                    true
                } else {
                    c.fmax += 1;
                    true
                }
            });
            assert_mutation_caught(&g, v, "drop an edge certificate", |c| {
                if c.edges.is_empty() {
                    false
                } else {
                    c.edges.remove(0);
                    true
                }
            });
            assert_mutation_caught(&g, v, "tree/cotree flag flip", |c| {
                match c.edges.first_mut() {
                    Some(e) => {
                        e.kind = match &e.kind {
                            EdgeKind::Tree(ivs) => EdgeKind::Cotree {
                                i: 2,
                                ii: ivs[0],
                                j: 4,
                                ij: ivs[1],
                            },
                            EdgeKind::Cotree { ii, ij, .. } => EdgeKind::Tree([*ii, *ij, *ii, *ij]),
                        };
                        true
                    }
                    None => false,
                }
            });
            assert_mutation_caught(&g, v, "chord endpoint moved", |c| {
                for e in &mut c.edges {
                    if let EdgeKind::Cotree { j, .. } = &mut e.kind {
                        *j += 1;
                        return true;
                    }
                }
                false
            });
            assert_mutation_caught(&g, v, "edge cert retargeted", |c| {
                match c.edges.first_mut() {
                    Some(e) => {
                        e.id_b ^= 1;
                        true
                    }
                    None => false,
                }
            });
        }
    }

    /// Positions forged to the top of the `u64` range must be rejected
    /// by checked arithmetic, never overflow the verifier.
    #[test]
    fn forged_extreme_positions_reject_without_panicking() {
        let g = generators::grid(4, 4);
        let honest = PlanarityScheme::new().prove(&g).unwrap();
        type Forge = fn(&mut PlanCert);
        let forgeries: [(&str, Forge); 3] = [
            ("fmax = u64::MAX", |c| c.fmax = u64::MAX),
            ("fmin = u64::MAX", |c| c.fmin = u64::MAX),
            ("tree.n = 1 << 63", |c| c.tree.n = 1 << 63),
        ];
        for (name, forge) in forgeries {
            let mut everywhere = honest.clone();
            for v in 0..g.node_count() {
                let mut cert = PlanCert::decode(&honest.certs[v]).unwrap();
                forge(&mut cert);
                let mut forged = honest.clone();
                forged.certs[v] = cert.encode();
                everywhere.certs[v] = forged.certs[v].clone();
                let out = run_both(&g, &forged);
                assert!(!out.all_accept(), "`{name}` at node {v} went unnoticed");
            }
            let out = run_both(&g, &everywhere);
            assert!(!out.all_accept(), "`{name}` at every node went unnoticed");
        }
    }

    #[test]
    fn conflicting_interval_claims_across_certs_rejected() {
        // two certificates visible to the same node claiming different
        // intervals for the same spine position: the consistency map
        // must reject. Mutate every cotree interval of one node's certs
        // in a way that keeps each cert locally plausible.
        let g = generators::stacked_triangulation(24, 3);
        let scheme = PlanarityScheme::new();
        let honest = scheme.prove(&g).unwrap();
        let mut caught = false;
        'victims: for v in 0..g.node_count() {
            let mut cert = PlanCert::decode(&honest.certs[v]).unwrap();
            for e in &mut cert.edges {
                if let EdgeKind::Cotree { ii, .. } = &mut e.kind {
                    // widen the claimed interval of endpoint i while the
                    // same position keeps its honest interval elsewhere
                    if ii.0 > 0 {
                        ii.0 -= 1;
                        let mut forged = honest.clone();
                        forged.certs[v] = cert.encode();
                        let out = run_with_assignment(&scheme, &g, &forged);
                        if !out.all_accept() {
                            caught = true;
                        }
                        break 'victims;
                    }
                }
            }
        }
        assert!(caught, "interval conflict must be rejected");
    }

    #[test]
    fn duplicated_conflicting_edge_cert_rejected() {
        // the same edge described twice with different content
        let g = generators::stacked_triangulation(20, 8);
        let scheme = PlanarityScheme::new();
        let honest = scheme.prove(&g).unwrap();
        for v in 0..g.node_count() {
            let mut cert = PlanCert::decode(&honest.certs[v]).unwrap();
            if let Some(&first) = cert.edges.first() {
                let mut dup = first;
                if let EdgeKind::Tree(ivs) = &mut dup.kind {
                    ivs[0].1 += 1;
                } else if let EdgeKind::Cotree { ii, .. } = &mut dup.kind {
                    ii.1 += 1;
                }
                cert.edges.push(dup);
                let mut forged = honest.clone();
                forged.certs[v] = cert.encode();
                let out = run_with_assignment(&scheme, &g, &forged);
                assert!(!out.all_accept(), "conflicting duplicate at node {v}");
                return;
            }
        }
        panic!("no node with edge certificates");
    }

    #[test]
    fn accepts_triangulations_many_seeds() {
        for seed in 0..10u64 {
            let g = generators::stacked_triangulation(80, seed);
            let out = run_pls(&PlanarityScheme::new(), &g).unwrap();
            assert!(out.all_accept(), "seed {seed}");
        }
    }

    #[test]
    fn accepts_random_planar_with_shuffled_ids() {
        for seed in 0..8u64 {
            let g =
                generators::shuffle_ids(&generators::random_planar(70, 0.5, seed), seed ^ 0xabcd);
            let out = run_pls(&PlanarityScheme::new(), &g).unwrap();
            assert!(out.all_accept(), "seed {seed}");
        }
    }

    #[test]
    fn prover_declines_nonplanar() {
        assert_eq!(
            PlanarityScheme::new()
                .prove(&generators::complete(5))
                .unwrap_err(),
            ProveError::NotInClass("planar graphs")
        );
        assert!(PlanarityScheme::new()
            .prove(&generators::k33_subdivision(2))
            .is_err());
        assert!(PlanarityScheme::new()
            .prove(&generators::planted_kuratowski(25, true, 1, 7))
            .is_err());
    }

    #[test]
    fn certificate_size_is_logarithmic() {
        // certificates grow like log n: compare growth against 4x size
        let g1 = generators::stacked_triangulation(100, 5);
        let g2 = generators::stacked_triangulation(6_400, 5);
        let a1 = PlanarityScheme::new().prove(&g1).unwrap();
        let a2 = PlanarityScheme::new().prove(&g2).unwrap();
        // 64x more nodes must cost far less than 64x certificate bits
        assert!(
            a2.max_bits() < 3 * a1.max_bits(),
            "max bits {} vs {}",
            a1.max_bits(),
            a2.max_bits()
        );
        assert!(a2.max_bits() < 2500);
    }

    #[test]
    fn soundness_replay_planar_subgraph_certs() {
        // Strongest attack: G = maximal planar + one edge (non-planar).
        // Replay honest certificates of the planar part on G.
        let g = generators::stacked_triangulation(30, 7);
        let n = g.node_count() as u32;
        let mut extra = None;
        'outer: for u in 0..n {
            for v in (u + 1)..n {
                if !g.has_edge(u, v) {
                    extra = Some((u, v));
                    break 'outer;
                }
            }
        }
        let (u, v) = extra.unwrap();
        let mut b = dpc_graph::GraphBuilder::new(n);
        for e in g.edges() {
            b.add_edge(e.u, e.v).unwrap();
        }
        b.add_edge(u, v).unwrap();
        let bad = b.build();
        assert!(!dpc_planar::lr::is_planar(&bad));
        let honest_on_sub = PlanarityScheme::new().prove(&g).unwrap();
        let out = run_with_assignment(&PlanarityScheme::new(), &bad, &honest_on_sub);
        assert!(
            !out.all_accept(),
            "the endpoints of the extra edge find no certificate for it"
        );
    }

    #[test]
    fn soundness_garbage_and_shuffle() {
        let g = generators::planted_kuratowski(20, false, 1, 3);
        let out = run_with_assignment(
            &PlanarityScheme::new(),
            &g,
            &Assignment::empty(g.node_count()),
        );
        assert!(out.reject_count() > 0);
    }

    #[test]
    fn naive_assignment_also_works_but_bigger() {
        let g = generators::star(40); // hub = node 0, degree 39: the naive
                                      // smaller-endpoint rule dumps every
                                      // edge-certificate on the hub
        let smart = PlanarityScheme::new().prove(&g).unwrap();
        let naive = PlanarityScheme::with_assignment(EdgeAssignment::Naive)
            .prove(&g)
            .unwrap();
        let out = run_with_assignment(
            &PlanarityScheme::with_assignment(EdgeAssignment::Naive),
            &g,
            &naive,
        );
        assert!(out.all_accept(), "naive placement is still a valid proof");
        assert!(
            naive.max_bits() > 2 * smart.max_bits(),
            "naive {} vs degeneracy {}",
            naive.max_bits(),
            smart.max_bits()
        );
    }

    #[test]
    fn mutated_interval_rejected() {
        let g = generators::stacked_triangulation(25, 9);
        let honest = PlanarityScheme::new().prove(&g).unwrap();
        // decode node 3's certificate, shift a cotree interval, re-encode
        let mut cert = PlanCert::decode(&honest.certs[3]).unwrap();
        let mut mutated = false;
        for e in &mut cert.edges {
            if let EdgeKind::Cotree { ii, .. } = &mut e.kind {
                ii.1 += 1;
                mutated = true;
                break;
            }
        }
        if !mutated {
            for e in &mut cert.edges {
                if let EdgeKind::Tree(ivs) = &mut e.kind {
                    ivs[1].1 = ivs[1].1.saturating_sub(1).max(ivs[1].0 + 1);
                    mutated = true;
                    break;
                }
            }
        }
        assert!(mutated, "node 3 should own at least one edge certificate");
        let mut forged = honest.clone();
        forged.certs[3] = cert.encode();
        let out = run_with_assignment(&PlanarityScheme::new(), &g, &forged);
        assert!(!out.all_accept(), "interval tampering must be caught");
    }

    #[test]
    fn single_node_accepts() {
        let g = generators::path(1);
        let out = run_pls(&PlanarityScheme::new(), &g).unwrap();
        assert!(out.all_accept());
    }
}
