//! Pins the planarity scheme's certificate bytes and verdicts: FNV-1a-64
//! digests of the wire encodings of `certify_pls` on three fixed graphs.
//! Any change to the prover, the bit codec or the verifier that moves a
//! single certificate bit or verdict changes a digest.

use dpc_core::harness::certify_pls;
use dpc_core::schemes::planarity::PlanarityScheme;
use dpc_graph::{generators, Graph};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(assignment digest, assignment byte length, outcome digest)`.
fn digests(g: &Graph) -> (u64, usize, u64) {
    let certified = certify_pls(&PlanarityScheme::new(), g).expect("planar");
    let mut assignment = Vec::new();
    certified.assignment.encode_into(&mut assignment);
    let mut outcome = Vec::new();
    certified.outcome.encode_into(&mut outcome);
    (fnv1a64(&assignment), assignment.len(), fnv1a64(&outcome))
}

#[test]
fn planarity_certificates_and_outcomes_are_pinned() {
    let cases = [
        (
            "grid(40,40)",
            generators::grid(40, 40),
            (0xbcc7_aa07_d0e6_6ea4, 81_111, 0xcbb6_2c23_8d8b_17e1),
        ),
        (
            "stacked_triangulation(3000,7)",
            generators::stacked_triangulation(3000, 7),
            (0x69ec_5913_b690_f70c, 205_151, 0x1146_bb04_6e9d_ea69),
        ),
        (
            "shuffle_ids(random_planar(500,0.5,3),0xabcd)",
            generators::shuffle_ids(&generators::random_planar(500, 0.5, 3), 0xabcd),
            (0xc3d1_b544_ca87_bb0e, 27_962, 0x6289_ab2f_7d05_579d),
        ),
    ];
    for (name, g, (assignment, len, outcome)) in cases {
        let got = digests(&g);
        assert_eq!(
            got,
            (assignment, len, outcome),
            "{name}: got assignment {:#018x} ({} B), outcome {:#018x}",
            got.0,
            got.1,
            got.2
        );
    }
}
