//! Property tests for the wire codec: `decode(encode(x)) == x` across
//! every generator family, including shuffled-identifier variants, and
//! the server's certify skim against the full decode.

use dpc_core::harness::{certify_pls, run_with_assignment};
use dpc_core::scheme::Assignment;
use dpc_core::schemes::planarity::PlanarityScheme;
use dpc_graph::{generators, Graph};
use dpc_runtime::{get_uvarint, put_uvarint, DecodeError};
use dpc_service::registry::{SchemeId, SchemeRegistry};
use dpc_service::wire::{self, CertifyFlags, Request, Response, Skimmed, WireError};
use proptest::prelude::*;

/// One representative of every generator family (the shared
/// cross-crate table — see `generators::sample_family`).
fn family_graph(which: u32, n: u32, seed: u64) -> Graph {
    generators::sample_family(which, n, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Graph wire encoding round-trips every family exactly, with
    /// default and with shuffled identifiers.
    #[test]
    fn graph_codec_identity(which in 0u32..generators::SAMPLE_FAMILY_COUNT, n in 5u32..40, seed in 0u64..1000) {
        let g = family_graph(which, n, seed);
        for g in [g.clone(), generators::shuffle_ids(&g, seed)] {
            let mut out = Vec::new();
            wire::encode_graph(&mut out, &g);
            let mut cursor = out.as_slice();
            let h = wire::decode_graph(&mut cursor).unwrap();
            prop_assert!(cursor.is_empty(), "full consumption");
            prop_assert!(wire::graphs_equal(&g, &h));
            // encoding is canonical: re-encoding the decoded graph is
            // byte-identical
            let mut again = Vec::new();
            wire::encode_graph(&mut again, &h);
            prop_assert_eq!(out, again);
        }
    }

    /// Requests round-trip through the frame body codec — for *every*
    /// scheme id the standard registry serves, plus an unregistered id
    /// (the codec is registry-agnostic; routing unknown ids is the
    /// server's job).
    #[test]
    fn request_codec_identity(which in 0u32..generators::SAMPLE_FAMILY_COUNT, n in 5u32..30, seed in 0u64..500) {
        let g = family_graph(which, n, seed);
        let registry = SchemeRegistry::standard();
        let mut ids: Vec<SchemeId> =
            registry.entries().iter().map(|e| e.id).collect();
        ids.push(SchemeId(4321)); // unregistered but well-formed
        for scheme in ids {
            let requests = [
                Request::Certify { graph: g.clone(), bypass_cache: seed.is_multiple_of(2), cached_only: false, summary: false, scheme },
                Request::Check { graph: g.clone(), scheme },
                Request::Gen { family: "grid".into(), n, seed, scheme },
                Request::SoundnessProbe { graph: g.clone(), seed, scheme },
                Request::Stats,
            ];
            for req in requests {
                let back = Request::decode(&req.encode()).unwrap();
                prop_assert_eq!(req.scheme(), back.scheme(), "scheme changed in flight");
                match (&req, &back) {
                    (Request::Certify { graph: a, bypass_cache: fa, .. },
                     Request::Certify { graph: b, bypass_cache: fb, .. }) => {
                        prop_assert!(wire::graphs_equal(a, b));
                        prop_assert_eq!(fa, fb);
                    }
                    (Request::Check { graph: a, .. }, Request::Check { graph: b, .. }) => {
                        prop_assert!(wire::graphs_equal(a, b));
                    }
                    (Request::Gen { family: a, n: na, seed: sa, .. },
                     Request::Gen { family: b, n: nb, seed: sb, .. }) => {
                        prop_assert_eq!(a, b);
                        prop_assert_eq!(na, nb);
                        prop_assert_eq!(sa, sb);
                    }
                    (Request::SoundnessProbe { graph: a, seed: sa, .. },
                     Request::SoundnessProbe { graph: b, seed: sb, .. }) => {
                        prop_assert!(wire::graphs_equal(a, b));
                        prop_assert_eq!(sa, sb);
                    }
                    (Request::Stats, Request::Stats) => {}
                    _ => prop_assert!(false, "kind changed in flight"),
                }
            }
        }
    }

    /// Certified responses round-trip with byte-identical certificates.
    #[test]
    fn certified_response_identity(n in 6u32..40, seed in 0u64..500) {
        let g = generators::stacked_triangulation(n, seed);
        let certified = certify_pls(&PlanarityScheme::new(), &g).unwrap();
        let resp = Response::Certified {
            cached: seed.is_multiple_of(2),
            outcome: certified.outcome.clone(),
            assignment: certified.assignment.clone(),
        };
        match Response::decode(&resp.encode()).unwrap() {
            Response::Certified { cached, outcome, assignment } => {
                prop_assert_eq!(cached, seed.is_multiple_of(2));
                prop_assert_eq!(outcome, certified.outcome);
                prop_assert_eq!(
                    assignment.certs.len(),
                    certified.assignment.certs.len()
                );
                for (a, b) in assignment.certs.iter().zip(&certified.assignment.certs) {
                    prop_assert_eq!(a.bit_len, b.bit_len);
                    prop_assert_eq!(a.as_bytes(), b.as_bytes());
                }
            }
            other => prop_assert!(false, "kind changed: {:?}", other),
        }
    }

    /// Streaming the canonical graph bytes through the incremental
    /// decoder in arbitrary chunk sizes reconstructs exactly the graph
    /// a single-frame decode yields — for every generator family, with
    /// default and with shuffled identifiers — and the decoder's
    /// between-chunk carry never exceeds one partial uvarint.
    #[test]
    fn chunked_reassembly_matches_single_frame(
        which in 0u32..generators::SAMPLE_FAMILY_COUNT,
        n in 5u32..40,
        seed in 0u64..1000,
        chunk in 1usize..64,
    ) {
        let g = family_graph(which, n, seed);
        for g in [g.clone(), generators::shuffle_ids(&g, seed)] {
            let mut payload = Vec::new();
            wire::encode_graph(&mut payload, &g);
            let mut dec = wire::GraphStreamDecoder::new();
            for piece in payload.chunks(chunk) {
                dec.feed(piece).unwrap();
                prop_assert!(dec.carry_len() <= 9, "carry stays bounded");
            }
            let h = dec.finish().unwrap();
            prop_assert!(wire::graphs_equal(&g, &h));
            // canonicality survives the streamed path: re-encoding the
            // reassembled graph is byte-identical to the original
            let mut again = Vec::new();
            wire::encode_graph(&mut again, &h);
            prop_assert_eq!(payload, again);
        }
    }

    /// Malformed chunk traffic never panics, only errors: truncating a
    /// chunk frame body anywhere, flipping a payload byte under its
    /// CRC, tearing the stream short, or feeding garbage bytes.
    #[test]
    fn malformed_chunk_frames_error_cleanly(
        which in 0u32..generators::SAMPLE_FAMILY_COUNT,
        n in 5u32..25,
        seed in 0u64..200,
        victim in 0usize..1024,
    ) {
        let g = family_graph(which, n, seed);
        let mut payload = Vec::new();
        wire::encode_graph(&mut payload, &g);
        let body = wire::encode_chunk_request(9, 0, &payload);
        // truncation anywhere inside the body is an error
        for cut in 0..body.len() {
            prop_assert!(Request::decode(&body[..cut]).is_err());
        }
        // flipping any payload byte breaks the per-chunk CRC
        let payload_start = body.len() - 4 - payload.len();
        let mut corrupt = body.clone();
        corrupt[payload_start + victim % payload.len()] ^= 0x5a;
        prop_assert!(Request::decode(&corrupt).is_err());
        // a torn stream (missing tail bytes) fails at finish
        let mut dec = wire::GraphStreamDecoder::new();
        dec.feed(&payload[..payload.len() - 1]).unwrap();
        prop_assert!(dec.finish().is_err());
        // garbage must be handled without panicking — an error, or a
        // decode that still round-trips canonically, never a crash
        let garbage: Vec<u8> = payload.iter().map(|b| !b).collect();
        let mut dec = wire::GraphStreamDecoder::new();
        if dec.feed(&garbage).is_ok() {
            if let Ok(h) = dec.finish() {
                let mut again = Vec::new();
                wire::encode_graph(&mut again, &h);
                prop_assert_eq!(garbage, again, "accepted bytes must be canonical");
            }
        }
    }

    /// Truncating any encoded request never panics, only errors —
    /// including truncation inside the scheme-id extension block.
    #[test]
    fn truncation_is_an_error_not_a_panic(which in 0u32..generators::SAMPLE_FAMILY_COUNT, n in 5u32..25, seed in 0u64..200) {
        let g = family_graph(which, n, seed);
        let body = Request::Certify {
            graph: g.clone(),
            bypass_cache: false,
            cached_only: false,
            summary: false,
            scheme: SchemeId::PLANARITY,
        }.encode();
        for cut in 0..body.len().min(48) {
            prop_assert!(Request::decode(&body[..cut]).is_err());
        }
        // with a scheme-id extension the block sits at the tail:
        // cutting *inside* it (tag without length, length without
        // payload) must error; cutting the whole block off falls back
        // to a valid v1 planarity request — that is the compatibility
        // rule, not a bug
        let ext = Request::Certify {
            graph: g,
            bypass_cache: false,
            cached_only: false,
            summary: false,
            scheme: SchemeId::MOD_COUNTER,
        }.encode();
        for cut in ext.len() - 2..ext.len() {
            prop_assert!(Request::decode(&ext[..cut]).is_err());
        }
        let v1 = Request::decode(&ext[..ext.len() - 3]).unwrap();
        prop_assert_eq!(v1.scheme(), Some(SchemeId::PLANARITY));
        // random corruption of the tag byte
        let mut corrupt = body.clone();
        corrupt[0] = 99;
        prop_assert!(Request::decode(&corrupt).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The server's read path skims a certify instead of decoding it,
    /// so the skim must agree with the decode on every body — valid
    /// certifies under each flag and scheme shape, default and custom
    /// identifiers, and every mutation below (see [`skim_parity`]).
    #[test]
    fn skim_and_decode_agree_on_mutated_certify_bodies(
        which in 0u32..generators::SAMPLE_FAMILY_COUNT,
        n in 4u32..24,
        seed in 0u64..500,
    ) {
        let g = family_graph(which, n, seed);
        let ids = (0..g.node_count() as u64).map(|i| 1000 + 7 * i).collect();
        let custom = g.with_ids(ids);
        let bodies = [
            wire::encode_certify_request(&g, false, SchemeId::PLANARITY),
            wire::encode_certify_request(&custom, true, SchemeId::MOD_COUNTER),
            wire::encode_certify_summary_request(&custom, false, SchemeId::PLANARITY),
            wire::encode_certify_probe_request(&g, SchemeId(4321)),
        ];
        for body in &bodies {
            skim_parity(body);
            for cut in 0..body.len() {
                skim_parity(&body[..cut]);
            }
            for (at, bit) in (0..body.len()).flat_map(|at| (0..8).map(move |bit| (at, bit))) {
                let mut flipped = body.clone();
                flipped[at] ^= 1 << bit;
                skim_parity(&flipped);
            }
            // a non-minimal varint: pad each varint with one more
            // continuation group of zero bits (the same value); padding
            // the node count always leaves a valid, non-canonical body
            for end in (0..body.len()).filter(|&at| body[at] & 0x80 == 0) {
                let mut padded = body[..end].to_vec();
                padded.extend([body[end] | 0x80, 0]);
                padded.extend_from_slice(&body[end + 1..]);
                skim_parity(&padded);
                if end == 2 {
                    prop_assert!(matches!(wire::skim_request(&padded), Ok(Skimmed::Certify(_))));
                }
            }
            if let Some(dup) = duplicate_first_id(body) {
                let err = Request::decode(&dup).unwrap_err().to_string();
                prop_assert!(err.contains("duplicate network identifiers"), "{}", err);
                skim_parity(&dup);
            }
            for flags in (0..16).chain([1 << 7, 1 << 20, u64::MAX]) {
                let mut reflagged = vec![body[0]];
                put_uvarint(&mut reflagged, flags);
                reflagged.extend_from_slice(&body[2..]);
                skim_parity(&reflagged);
            }
            let tails: [&[u8]; 6] = [&[0], &[7, 0], &[1, 1, 9], &[1], &[0xff], &[5, 2, 1]];
            for tail in tails {
                let mut longer = body.clone();
                longer.extend_from_slice(tail);
                skim_parity(&longer);
            }
        }
    }
}

#[test]
fn all_other_response_kinds_roundtrip() {
    use dpc_service::wire::{CheckVerdict, SoundnessLine};
    let responses = vec![
        Response::Error("nope".into()),
        Response::Declined {
            cached: true,
            reason: "instance is not in the class: planar graphs".into(),
        },
        Response::Checked(CheckVerdict::Planar { faces: 7, genus: 0 }),
        Response::Checked(CheckVerdict::NonPlanar {
            k5: false,
            branch_nodes: vec![1, 5, 9, 2, 4, 8],
            witness_edges: 12,
        }),
        Response::Generated(generators::grid(4, 4)),
        Response::Soundness(vec![
            SoundnessLine {
                attack: "garbage".into(),
                rejects: Some(14),
            },
            SoundnessLine {
                attack: "replay-planarized".into(),
                rejects: None,
            },
        ]),
    ];
    for resp in responses {
        let back = Response::decode(&resp.encode()).unwrap();
        assert_eq!(format!("{resp:?}"), format!("{back:?}"));
    }
}

/// A uvarint above `u32::MAX` in a `u32` field is a protocol error on
/// decode, never a value truncated to its low 32 bits: a Gen asking
/// for 2^32 + 16 nodes must not be answered with a 16-node graph, and
/// a NonPlanar verdict must not rename its branch nodes. The server's
/// skim gives the same verdict and the same error text.
#[test]
fn oversized_u32_fields_are_rejected_not_truncated() {
    let big = (1u64 << 32) + 16;
    // Gen: kind, family string (length + bytes), n, seed, extensions
    let gen = wire::encode_gen_request("grid", 16, 1, SchemeId::PLANARITY);
    let mut rest = &gen[..];
    get_uvarint(&mut rest).unwrap();
    let len = get_uvarint(&mut rest).unwrap() as usize;
    rest = &rest[len..];
    let n_at = gen.len() - rest.len();
    assert_eq!(get_uvarint(&mut rest).unwrap(), 16);
    let mut body = gen[..n_at].to_vec();
    put_uvarint(&mut body, big);
    body.extend_from_slice(rest);
    match Request::decode(&body) {
        Err(WireError::Protocol(e)) => assert!(e.contains("32 bits"), "{e}"),
        other => panic!("an oversized node count decoded as {other:?}"),
    }
    skim_parity(&body);

    // NonPlanar: kind, verdict tag, k5, count, branch nodes, edges
    let verdict = Response::Checked(wire::CheckVerdict::NonPlanar {
        k5: true,
        branch_nodes: vec![16],
        witness_edges: 10,
    });
    let encoded = verdict.encode();
    let node_at = encoded.len() - 2;
    assert_eq!(&encoded[node_at..], &[16, 10]);
    let mut body = encoded[..node_at].to_vec();
    put_uvarint(&mut body, big);
    put_uvarint(&mut body, 10);
    match Response::decode(&body) {
        Err(WireError::Protocol(e)) => assert!(e.contains("32 bits"), "{e}"),
        other => panic!("an oversized branch node decoded as {other:?}"),
    }
}

/// Every registered scheme's honest assignment round-trips the codec:
/// the decoded certificates (views of one shared buffer) equal the
/// prover's, re-encode to the same bytes, and travel in a Certified
/// response. A body cut short anywhere, or whose certificate count or
/// first bit length claims more than it holds, fails with the codec's
/// one error for a short buffer.
#[test]
fn assignments_roundtrip_for_every_registered_scheme() {
    let candidates = [
        generators::grid(3, 4),
        generators::cycle(10),
        generators::star(7),
        generators::path(9),
        generators::complete(5),
        generators::k33_subdivision(1),
        generators::shuffle_ids(&generators::stacked_triangulation(12, 3), 5),
        dpc_lowerbounds::blocks::path_of_blocks(4, &[1, 2, 3]).graph,
    ];
    let short = DecodeError::OutOfBits;
    let registry = SchemeRegistry::standard();
    for entry in registry.entries() {
        let name = entry.name;
        let honest: Vec<(&Graph, Assignment)> = candidates
            .iter()
            .filter_map(|g| Some((g, entry.scheme().prove(g).ok()?)))
            .collect();
        assert!(
            !honest.is_empty(),
            "{name}: no yes-instance among the candidates"
        );
        for (g, a) in honest {
            let mut body = Vec::new();
            a.encode_into(&mut body);
            let mut rest = &body[..];
            let back = Assignment::decode_from(&mut rest).unwrap();
            assert!(rest.is_empty(), "{name}: the decode stops at the end");
            assert_eq!(back.certs, a.certs, "{name}");
            for (x, y) in back.certs.iter().zip(&a.certs) {
                assert_eq!(x.to_vec(), y.to_vec(), "{name}");
                assert_eq!(x.reader().remaining(), y.reader().remaining(), "{name}");
            }
            let mut again = Vec::new();
            back.encode_into(&mut again);
            assert_eq!(again, body, "{name}: decoded views re-encode byte for byte");

            let outcome = run_with_assignment(&entry.scheme(), g, &a);
            let resp = Response::Certified {
                cached: false,
                outcome,
                assignment: a.clone(),
            };
            let resp_body = resp.encode();
            match Response::decode(&resp_body).unwrap() {
                Response::Certified { assignment, .. } => {
                    assert_eq!(assignment.certs, a.certs, "{name}")
                }
                other => panic!("{name}: kind changed: {other:?}"),
            }
            let expected = WireError::Decode(short).to_string();
            for cut in resp_body.len() - body.len()..resp_body.len() {
                let err = Response::decode(&resp_body[..cut]).unwrap_err();
                assert_eq!(err.to_string(), expected, "{name}: response cut at {cut}");
            }

            for cut in 0..body.len() {
                let err = Assignment::decode_from(&mut &body[..cut]).unwrap_err();
                assert_eq!(err, short, "{name}: cut at {cut}");
            }
            let count = a.certs.len() as u64;
            let mut certs = &body[..];
            get_uvarint(&mut certs).unwrap();
            let recount = |claimed: u64| {
                let mut b = Vec::new();
                put_uvarint(&mut b, claimed);
                b.extend_from_slice(certs);
                Assignment::decode_from(&mut &b[..]).unwrap_err()
            };
            for claimed in [count + 1, count + 1000, body.len() as u64 + 1, 1 << 24 | 1] {
                assert_eq!(recount(claimed), short, "{name}: count {claimed}");
            }
            if let Some(first) = a.certs.first() {
                let mut b = Vec::new();
                put_uvarint(&mut b, count);
                put_uvarint(&mut b, (8 * body.len() + 1) as u64);
                let mut rest = certs;
                get_uvarint(&mut rest).unwrap();
                b.extend_from_slice(&rest[first.bit_len.div_ceil(8)..]);
                let err = Assignment::decode_from(&mut &b[..]).unwrap_err();
                assert_eq!(err, short, "{name}: over-long first certificate");
            }
        }
    }
}

/// `wire::skim_request` against `Request::decode` on one body: the
/// same verdict and the same error text; on an accepted certify, the
/// same flags, scheme and graph, a graph span of exactly the bytes
/// `decode_graph` consumes after the kind and flags, and the rest of
/// the body as the extension block.
fn skim_parity(body: &[u8]) {
    match (wire::skim_request(body), Request::decode(body)) {
        (Err(skim), Err(decode)) => {
            assert_eq!(
                skim.to_string(),
                decode.to_string(),
                "error text on {body:?}"
            )
        }
        (Ok(Skimmed::Request(skim)), Ok(decode)) => {
            assert!(!matches!(decode, Request::Certify { .. }), "{body:?}");
            assert_eq!(skim.kind_tag(), decode.kind_tag(), "{body:?}");
        }
        (
            Ok(Skimmed::Certify(frame)),
            Ok(Request::Certify {
                graph,
                bypass_cache,
                cached_only,
                summary,
                scheme,
            }),
        ) => {
            let flags = CertifyFlags {
                bypass_cache,
                cached_only,
                summary,
            };
            assert_eq!(frame.flags, flags, "{body:?}");
            assert_eq!(frame.scheme, scheme, "{body:?}");
            let mut head = body;
            get_uvarint(&mut head).unwrap();
            get_uvarint(&mut head).unwrap();
            let start = body.len() - head.len();
            let decoded = wire::decode_graph(&mut head).unwrap();
            assert_eq!(
                frame.graph,
                &body[start..body.len() - head.len()],
                "{body:?}"
            );
            assert_eq!(frame.extensions, head, "{body:?}");
            assert!(wire::graphs_equal(&decoded, &graph));
        }
        (skim, decode) => panic!(
            "skim {:?} but decode {:?} on {body:?}",
            skim.map(|_| "accepted"),
            decode.map(|r| r.kind_tag())
        ),
    }
}

/// The certify body with its second custom identifier set to the
/// first (`None` for a body with default identifiers).
fn duplicate_first_id(body: &[u8]) -> Option<Vec<u8>> {
    let mut buf = body;
    for _ in 0..3 {
        get_uvarint(&mut buf).ok()?; // kind, flags, node count
    }
    if get_uvarint(&mut buf).ok()? != 1 {
        return None;
    }
    let first = get_uvarint(&mut buf).ok()?;
    let second_at = body.len() - buf.len();
    get_uvarint(&mut buf).ok()?;
    let rest_at = body.len() - buf.len();
    let mut out = body[..second_at].to_vec();
    put_uvarint(&mut out, first);
    out.extend_from_slice(&body[rest_at..]);
    Some(out)
}
