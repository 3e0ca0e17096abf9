//! The counting side of Lemma 5, made concrete.
//!
//! The proof: a `g(n) = o(log n)`-bit scheme labels each block with one
//! of `2^{(k−1)g}` *labeled blocks*; there are at most `2^{(k−1)gp}`
//! distinct sets of labeled blocks but `p!` paths of blocks, so for
//! large `p` two accepted paths `P, P'` share all labels, and splicing
//! them yields an accepted **cycle** of blocks — illegal.
//!
//! Two artifacts here:
//!
//! * [`crossover_p`] — the smallest `p` where `p! > 2^{(k−1)gp}`
//!   (when the pigeonhole *must* fire);
//! * a concrete end-to-end forgery against [`ModCounterScheme`] — the
//!   natural `g`-bit scheme one would write for block paths (a chain
//!   counter mod `2^g`). All paths of blocks are accepted with
//!   *identical* labeled blocks, and [`forge_cycle`] builds a cycle of
//!   `2^g` blocks on which **every node accepts**: the soundness failure
//!   the lemma predicts, reproduced on a real verifier run.

use crate::blocks::{
    block_size, cycle_of_blocks, left_part, path_of_blocks, right_part, BlockInstance,
};
use dpc_core::scheme::{Assignment, ProofLabelingScheme, ProveError};
use dpc_graph::Graph;
use dpc_runtime::bits::BitWriter;
use dpc_runtime::{NodeCtx, Payload};

/// `ln(p!)` via the exact sum (fine for the `p` ranges involved).
pub fn ln_factorial(p: u64) -> f64 {
    (2..=p).map(|i| (i as f64).ln()).sum()
}

/// Smallest `p` with `p! > 2^{(k−1) g p}` — past this point two paths of
/// blocks *must* share a labeled-block set, whatever the scheme does.
pub fn crossover_p(k: u32, g: u32) -> u64 {
    let c = ((k - 1) * g) as f64 * std::f64::consts::LN_2;
    let mut p = 1u64;
    let mut lnfact = 0.0;
    loop {
        p += 1;
        lnfact += (p as f64).ln();
        if lnfact > c * p as f64 {
            return p;
        }
        if p > 1_000_000_000 {
            unreachable!("ln p! grows superlinearly");
        }
    }
}

/// The natural `g`-bit scheme for paths of blocks: every node's
/// certificate is its block's position along the chain, **mod `2^g`**.
///
/// The verifier at a node checks: its block is a local clique with one
/// agreed counter value; neighbors outside the block (recognized by
/// identifier block-arithmetic, which an LCP may use) carry counter
/// `±1 mod 2^g` on the appropriate side. This accepts every path of
/// blocks; with `g` bits it cannot tell a long chain from a ring whose
/// length is a multiple of `2^g` — exactly Lemma 5's point.
#[derive(Debug, Clone, Copy)]
pub struct ModCounterScheme {
    /// Forbidden-clique parameter `k` (block size `k−1`).
    pub k: usize,
    /// Certificate size in bits.
    pub g: u32,
}

impl ModCounterScheme {
    /// Creates the scheme.
    pub fn new(k: usize, g: u32) -> Self {
        assert!(k >= 3 && (1..=16).contains(&g));
        ModCounterScheme { k, g }
    }

    fn modulus(&self) -> u64 {
        1u64 << self.g
    }

    /// Block index of an identifier (the paper's `r`).
    fn block_of(&self, id: u64) -> u64 {
        id / block_size(self.k) as u64
    }

    /// Assignment giving every node of chain position `t` the value
    /// `t mod 2^g`.
    pub fn assign(&self, inst: &BlockInstance) -> Assignment {
        let s = block_size(self.k);
        let certs = (0..inst.graph.node_count())
            .map(|v| {
                let t = (v / s) as u64 % self.modulus();
                let mut w = BitWriter::new();
                w.write_bits(t, self.g);
                Payload::from_writer(w)
            })
            .collect();
        Assignment { certs }
    }
}

impl ProofLabelingScheme for ModCounterScheme {
    fn name(&self) -> &'static str {
        "mod-counter"
    }

    fn prove(&self, _g: &Graph) -> Result<Assignment, ProveError> {
        // the generic entry point cannot know chain positions; use
        // `assign` with the BlockInstance instead
        Err(ProveError::MissingWitness(
            "use ModCounterScheme::assign with a BlockInstance",
        ))
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        let read = |p: &Payload| -> Option<u64> {
            let mut r = p.reader();
            let v = r.read_bits(self.g).ok()?;
            (r.remaining() == 0).then_some(v)
        };
        let Some(mine) = read(own) else { return false };
        let m = self.modulus();
        let s = block_size(self.k) as u64;
        let my_block = self.block_of(ctx.id);
        let mut in_block = 0usize;
        for (p, &nid) in ctx.neighbor_ids.iter().enumerate() {
            let Some(val) = read(&neighbors[p]) else {
                return false;
            };
            let nb_block = self.block_of(nid);
            if nb_block == my_block {
                in_block += 1;
                if val != mine {
                    return false;
                }
            } else {
                // a connection edge: the side tells the expected counter.
                // My intra-block offset decides whether this neighbor can
                // be on my right (I am in the right part) or left.
                let my_off = ctx.id % s;
                let nb_off = nid % s;
                let i_am_right = my_off >= s - crate::blocks::right_part(self.k) as u64;
                let i_am_left = my_off < crate::blocks::left_part(self.k) as u64;
                if i_am_right && nb_off < crate::blocks::left_part(self.k) as u64 {
                    if val != (mine + 1) % m {
                        return false;
                    }
                } else if i_am_left && nb_off >= s - crate::blocks::right_part(self.k) as u64 {
                    if (val + 1) % m != mine {
                        return false;
                    }
                } else {
                    return false; // an edge the construction never builds
                }
            }
        }
        // the whole block is visible: K_{k-1} means k-2 in-block neighbors
        in_block == block_size(self.k) - 1
    }
}

/// [`ModCounterScheme`] with a *generic* honest prover: the PLS for the
/// class of **paths of blocks** servable through the standard
/// `prove(&Graph)` entry point (and hence the certification service).
///
/// [`ModCounterScheme::prove`] deliberately refuses — the raw scheme
/// only knows counter values given chain positions. This wrapper
/// reconstructs the chain from the identifiers (block `r` = `id/(k−1)`,
/// intra-block offset = `id mod (k−1)`), validates that the graph is
/// *exactly* a path of blocks (complete intra-block cliques, complete
/// right-part → left-part connections, path-shaped block adjacency),
/// and assigns each node its block's chain position mod `2^g`.
///
/// Soundness is unchanged (the verifier is the same), so the Lemma 5
/// forgery still applies: this scheme exists to be served, measured,
/// and attacked, not to fix the lower bound.
///
/// ```
/// use dpc_lowerbounds::blocks::path_of_blocks;
/// use dpc_lowerbounds::counting::BlockPathScheme;
/// use dpc_core::scheme::ProofLabelingScheme;
///
/// let scheme = BlockPathScheme::new(4, 8);
/// let inst = path_of_blocks(4, &[2, 1, 3]);
/// let outcome = dpc_core::harness::run_pls(&scheme, &inst.graph).unwrap();
/// assert!(outcome.all_accept());
/// // a clique is not a path of blocks
/// assert!(scheme.prove(&dpc_graph::generators::complete(6)).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BlockPathScheme {
    inner: ModCounterScheme,
}

impl BlockPathScheme {
    /// Wraps `ModCounterScheme::new(k, g)`.
    pub fn new(k: usize, g: u32) -> Self {
        BlockPathScheme {
            inner: ModCounterScheme::new(k, g),
        }
    }

    /// The wrapped scheme (for forgery experiments).
    pub fn inner(&self) -> &ModCounterScheme {
        &self.inner
    }

    /// Chain position of every node's block, if the graph is exactly a
    /// path of blocks for parameter `k`.
    fn chain_positions(&self, g: &Graph) -> Result<Vec<u64>, ProveError> {
        const NOT_PATH: ProveError = ProveError::NotInClass("paths of blocks");
        if !g.is_connected() {
            return Err(ProveError::NotConnected);
        }
        let s = block_size(self.inner.k);
        let n = g.node_count();
        if n == 0 || !n.is_multiple_of(s) {
            return Err(NOT_PATH);
        }
        // group nodes by block r = id / s; offsets within a block must
        // be exactly {0, .., s-1} (ids are distinct, so so are blocks)
        let mut blocks: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
        for v in g.nodes() {
            let id = g.id_of(v);
            blocks.entry(id / s as u64).or_default().push(v);
        }
        for members in blocks.values() {
            if members.len() != s {
                return Err(NOT_PATH);
            }
            let mut seen = vec![false; s];
            for &v in members {
                seen[(g.id_of(v) % s as u64) as usize] = true;
            }
            if seen.iter().any(|&b| !b) {
                return Err(NOT_PATH);
            }
            // intra-block edges form a complete clique
            for (i, &u) in members.iter().enumerate() {
                for &w in &members[i + 1..] {
                    if !g.has_edge(u, w) {
                        return Err(NOT_PATH);
                    }
                }
            }
        }
        // classify cross-block edges: always right part -> left part,
        // and count them per ordered block pair
        let lp = left_part(self.inner.k) as u64;
        let rp = right_part(self.inner.k) as u64;
        let mut links: std::collections::HashMap<(u64, u64), usize> =
            std::collections::HashMap::new();
        for e in g.edges() {
            let (iu, iv) = (g.id_of(e.u), g.id_of(e.v));
            let (bu, bv) = (iu / s as u64, iv / s as u64);
            if bu == bv {
                continue; // clique edge, validated above
            }
            let (ou, ov) = (iu % s as u64, iv % s as u64);
            // the right part is offsets [s-rp, s), the left part [0, lp)
            let (from, to) = if ou >= s as u64 - rp && ov < lp {
                (bu, bv)
            } else if ov >= s as u64 - rp && ou < lp {
                (bv, bu)
            } else {
                return Err(NOT_PATH); // an edge the construction never builds
            };
            *links.entry((from, to)).or_insert(0) += 1;
        }
        // the block digraph must be a simple directed path covering
        // every block, with every connection complete (rp * lp edges)
        let mut succ: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut pred: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (&(from, to), &count) in &links {
            if count != (rp * lp) as usize {
                return Err(NOT_PATH);
            }
            if succ.insert(from, to).is_some() || pred.insert(to, from).is_some() {
                return Err(NOT_PATH);
            }
        }
        let start = match blocks
            .keys()
            .filter(|r| !pred.contains_key(r))
            .collect::<Vec<_>>()[..]
        {
            [&r] => r,
            // no start block: the chain closed into a cycle of blocks
            // (or several components, already excluded by connectivity)
            _ => return Err(NOT_PATH),
        };
        let mut position = std::collections::HashMap::new();
        let mut cur = start;
        for t in 0..blocks.len() as u64 {
            position.insert(cur, t);
            match succ.get(&cur) {
                Some(&next) => cur = next,
                None if t + 1 == blocks.len() as u64 => {}
                None => return Err(NOT_PATH),
            }
        }
        Ok(g.nodes()
            .map(|v| position[&(g.id_of(v) / s as u64)])
            .collect())
    }
}

impl ProofLabelingScheme for BlockPathScheme {
    fn name(&self) -> &'static str {
        "mod-counter"
    }

    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
        let positions = self.chain_positions(g)?;
        let m = self.inner.modulus();
        let certs = positions
            .into_iter()
            .map(|t| {
                let mut w = BitWriter::new();
                w.write_bits(t % m, self.inner.g);
                Payload::from_writer(w)
            })
            .collect();
        Ok(Assignment { certs })
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        self.inner.verify(ctx, own, neighbors)
    }

    fn verify_round(&self, g: &Graph, certs: &[Payload]) -> Vec<bool> {
        self.inner.verify_round(g, certs)
    }
}

/// Outcome of the forgery experiment.
#[derive(Debug, Clone)]
pub struct Forgery {
    /// The illegal instance (a cycle of blocks).
    pub cycle: BlockInstance,
    /// The forged certificates.
    pub assignment: Assignment,
    /// Verdict: true iff *every* node of the illegal instance accepted.
    pub fully_accepted: bool,
}

/// Builds the cycle of `2^g` blocks with counter certificates
/// `0, 1, …, 2^g − 1` and runs the verifier everywhere. Every node sees
/// a view that also occurs in an accepted path of blocks, so all accept
/// — a complete soundness failure for the `g`-bit scheme.
pub fn forge_cycle(scheme: &ModCounterScheme) -> Forgery {
    let len = scheme.modulus() as usize;
    let blocks: Vec<usize> = (1..=len).collect();
    let cycle = cycle_of_blocks(scheme.k, &blocks);
    let assignment = scheme.assign(&cycle);
    let outcome = dpc_core::harness::run_with_assignment(scheme, &cycle.graph, &assignment);
    Forgery {
        cycle,
        assignment,
        fully_accepted: outcome.all_accept(),
    }
}

/// Completeness side: the scheme accepts every path of blocks.
pub fn accepts_path(scheme: &ModCounterScheme, perm: &[usize]) -> bool {
    let path = path_of_blocks(scheme.k, perm);
    let a = scheme.assign(&path);
    dpc_core::harness::run_with_assignment(scheme, &path.graph, &a).all_accept()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_decreases_reasonably() {
        // larger g needs a longer path before pigeonhole fires
        let p1 = crossover_p(4, 1);
        let p2 = crossover_p(4, 2);
        let p4 = crossover_p(4, 4);
        assert!(p1 < p2 && p2 < p4, "{p1} {p2} {p4}");
        // sanity: ln(p!) > (k-1) g p ln2 at the crossover
        for (g, p) in [(1u32, p1), (2, p2), (4, p4)] {
            let c = 3.0 * g as f64 * std::f64::consts::LN_2;
            assert!(ln_factorial(p) > c * p as f64);
            assert!(ln_factorial(p - 1) <= c * (p - 1) as f64);
        }
    }

    #[test]
    fn mod_counter_accepts_all_paths() {
        let scheme = ModCounterScheme::new(4, 2);
        assert!(accepts_path(&scheme, &[1, 2, 3, 4, 5, 6]));
        assert!(accepts_path(&scheme, &[3, 1, 4, 2, 6, 5]));
        let scheme5 = ModCounterScheme::new(5, 3);
        assert!(accepts_path(&scheme5, &(1..=10).collect::<Vec<_>>()));
    }

    #[test]
    fn forged_cycle_fully_accepted() {
        for g in 1..=4u32 {
            let scheme = ModCounterScheme::new(4, g);
            let f = forge_cycle(&scheme);
            assert!(
                f.fully_accepted,
                "g={g}: the 2^g-block cycle must fool every node"
            );
            // and the instance really is illegal
            assert!(crate::blocks::certify_cycle_has_kk(&f.cycle));
            assert!(dpc_graph::minors::has_k4_minor(&f.cycle.graph));
        }
    }

    #[test]
    fn wrong_length_cycles_are_caught() {
        // a cycle whose length is NOT a multiple of 2^g is rejected:
        // the counter cannot wrap
        let scheme = ModCounterScheme::new(4, 2);
        let blocks: Vec<usize> = (1..=5).collect(); // 5 % 4 != 0
        let cycle = cycle_of_blocks(scheme.k, &blocks);
        let a = scheme.assign(&cycle);
        let out = dpc_core::harness::run_with_assignment(&scheme, &cycle.graph, &a);
        assert!(!out.all_accept());
    }

    #[test]
    fn certificate_size_is_exactly_g() {
        let scheme = ModCounterScheme::new(4, 3);
        let path = path_of_blocks(4, &[1, 2]);
        let a = scheme.assign(&path);
        assert_eq!(a.max_bits(), 3);
    }

    #[test]
    fn block_path_scheme_proves_paths_generically() {
        let scheme = BlockPathScheme::new(4, 8);
        for perm in [vec![1, 2, 3], vec![3, 1, 4, 2, 5], vec![2, 1]] {
            let inst = path_of_blocks(4, &perm);
            let out = dpc_core::harness::run_pls(&scheme, &inst.graph)
                .unwrap_or_else(|e| panic!("perm {perm:?}: {e}"));
            assert!(out.all_accept(), "perm {perm:?}");
            assert_eq!(out.max_cert_bits, 8);
        }
        // k = 5 too
        let scheme5 = BlockPathScheme::new(5, 4);
        let inst = path_of_blocks(5, &[2, 3, 1]);
        assert!(dpc_core::harness::run_pls(&scheme5, &inst.graph)
            .unwrap()
            .all_accept());
    }

    #[test]
    fn block_path_scheme_survives_wire_roundtrip() {
        // the service re-decodes graphs from the canonical wire
        // encoding; ids (not node indices) must carry the structure
        let scheme = BlockPathScheme::new(4, 8);
        let inst = path_of_blocks(4, &[2, 1, 3]);
        let g = &inst.graph;
        // simulate an id-preserving structural round-trip: rebuild from
        // sorted edges + ids, as wire decode does
        let mut edges: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .map(|e| if e.u < e.v { (e.u, e.v) } else { (e.v, e.u) })
            .collect();
        edges.sort_unstable();
        let rebuilt = Graph::from_edges(g.node_count() as u32, &edges).with_ids(g.ids().to_vec());
        let out = dpc_core::harness::run_pls(&scheme, &rebuilt).unwrap();
        assert!(out.all_accept());
    }

    #[test]
    fn block_path_scheme_declines_non_paths() {
        let scheme = BlockPathScheme::new(4, 3);
        // a cycle of blocks is outside the class (pigeonhole instance!)
        let cyc = cycle_of_blocks(4, &[1, 2, 3, 4]);
        assert_eq!(
            scheme.prove(&cyc.graph).unwrap_err(),
            ProveError::NotInClass("paths of blocks")
        );
        // ordinary graphs are outside the class
        for g in [
            dpc_graph::generators::complete(6),
            dpc_graph::generators::grid(3, 3),
            dpc_graph::generators::path(9),
        ] {
            assert!(scheme.prove(&g).is_err(), "{} nodes", g.node_count());
        }
        // a path of blocks with one clique edge missing is rejected
        let inst = path_of_blocks(4, &[1, 2]);
        let broken = inst.graph.edge_subgraph(|id, _| id != 0);
        if broken.is_connected() {
            assert!(scheme.prove(&broken).is_err());
        }
    }

    #[test]
    fn ln_factorial_matches_direct() {
        let direct: f64 = (2..=10u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(10) - direct).abs() < 1e-9);
        assert_eq!(ln_factorial(1), 0.0);
    }
}
