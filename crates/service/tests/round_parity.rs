//! Verdict parity of the two verification paths for every registered
//! scheme: `run_with_assignment` (the scheme's round method, which may
//! share decoding across nodes) must equal `run_with_assignment_deepcopy`
//! (the per-node verifier on a deep-copied inbox at every node) on
//! honest certificates, on a matrix of targeted forgeries and on random
//! bit flips.

use dpc_core::harness::{run_with_assignment, run_with_assignment_deepcopy};
use dpc_core::scheme::Assignment;
use dpc_graph::{generators, Graph};
use dpc_runtime::Payload;
use dpc_service::SchemeRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Yes-instances per scheme: two each, of different shapes.
fn instances(name: &str) -> Vec<Graph> {
    match name {
        // every universal certificate holds the whole graph: keep it small
        "universal" => vec![
            generators::grid(3, 3),
            generators::stacked_triangulation(10, 3),
        ],
        "planarity" => vec![
            generators::grid(5, 6),
            generators::shuffle_ids(&generators::stacked_triangulation(40, 3), 9),
        ],
        "bipartite" => vec![generators::cycle(12), generators::grid(4, 7)],
        "tree" => vec![generators::random_tree(30, 3), generators::star(9)],
        "spanning-tree" => vec![generators::complete(6), generators::wheel(12)],
        "path" | "path-outerplanar" => vec![generators::path(8), generators::path(21)],
        "non-planarity" => vec![generators::complete(5), generators::k33_subdivision(2)],
        "mod-counter" => vec![
            dpc_lowerbounds::blocks::path_of_blocks(4, &[1, 2, 3]).graph,
            dpc_lowerbounds::blocks::path_of_blocks(4, &[2, 1]).graph,
        ],
        other => panic!("no yes-instance wired for {other}"),
    }
}

fn rebuilt(bytes: Vec<u8>, bit_len: usize) -> Payload {
    let mut bytes = bytes;
    bytes.resize(bit_len.div_ceil(8).max(bytes.len()), 0);
    Payload::from_bytes(bytes, bit_len)
}

/// Targeted forgeries of node `v`'s certificate: truncation by a bit,
/// one zero bit appended, the empty certificate, and a neighbor's
/// certificate in its place.
fn matrix(g: &Graph, honest: &Assignment, v: usize) -> Vec<Assignment> {
    let cert = &honest.certs[v];
    let mut forged = Vec::new();
    let mut with = |p: Payload| {
        let mut a = honest.clone();
        a.certs[v] = p;
        forged.push(a);
    };
    if cert.bit_len > 0 {
        with(rebuilt(cert.to_vec(), cert.bit_len - 1));
    }
    with(rebuilt(cert.to_vec(), cert.bit_len + 1));
    with(Payload::empty());
    if let Some(w) = g.neighbors(v as u32).next() {
        with(honest.certs[w as usize].clone());
    }
    forged
}

/// `flips` random single-bit flips, one certificate each.
fn bit_flips(honest: &Assignment, rng: &mut StdRng, flips: usize) -> Vec<Assignment> {
    let n = honest.certs.len();
    (0..flips)
        .filter_map(|_| {
            let v = rng.gen_range(0..n);
            let cert = &honest.certs[v];
            if cert.bit_len == 0 {
                return None;
            }
            let bit = rng.gen_range(0..cert.bit_len);
            let mut bytes = cert.to_vec();
            bytes[bit / 8] ^= 0x80 >> (bit % 8);
            let mut a = honest.clone();
            a.certs[v] = Payload::from_bytes(bytes, cert.bit_len);
            Some(a)
        })
        .collect()
}

#[test]
fn round_and_per_node_verdicts_agree_for_every_scheme() {
    let reg = SchemeRegistry::standard();
    let mut rng = StdRng::seed_from_u64(0x9a41);
    for e in reg.entries() {
        let scheme = e.scheme();
        let mut rejected = 0usize;
        let mut checked = 0usize;
        for g in instances(e.name) {
            let honest = scheme
                .prove(&g)
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
            let mut cases = vec![honest.clone()];
            for v in 0..g.node_count() {
                cases.extend(matrix(&g, &honest, v));
            }
            cases.extend(bit_flips(&honest, &mut rng, 60));
            for (k, a) in cases.iter().enumerate() {
                let round = run_with_assignment(&scheme, &g, a);
                let per_node = run_with_assignment_deepcopy(&scheme, &g, a);
                assert_eq!(
                    round,
                    per_node,
                    "{}: case {k} on n = {}",
                    e.name,
                    g.node_count()
                );
                if k == 0 {
                    assert!(round.all_accept(), "{}: honest run rejected", e.name);
                }
                rejected += usize::from(!round.all_accept());
                checked += 1;
            }
        }
        // the forgeries exercise the rejection paths, not just acceptance
        assert!(
            rejected > 0,
            "{}: no forgery of {checked} was rejected",
            e.name
        );
    }
}
