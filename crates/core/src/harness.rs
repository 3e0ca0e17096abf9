//! Runs proof-labeling schemes through the CONGEST simulator.
//!
//! The verification phase of a PLS is exactly one synchronous round in
//! which every node broadcasts its certificate. Every verification in
//! this workspace goes through the same measured execution path:
//!
//! * delivery and the CONGEST accounting (rounds, largest message,
//!   total bits over all edges) come from the simulator's
//!   [`run_protocol`], which broadcasts every certificate over every
//!   incident edge;
//! * the verdicts come from the scheme's round method,
//!   [`ProofLabelingScheme::verify_round`], which sees the same
//!   port-ordered inboxes. Its default runs the per-node verifier at
//!   every node; a scheme may override it to share decoding across
//!   nodes, with the per-node verdicts unchanged.
//!
//! [`run_with_assignment_deepcopy`] is the per-node reference path: it
//! calls [`ProofLabelingScheme::verify`] at every node on a deep-copied
//! inbox, and its outcome must equal [`run_with_assignment`]'s.

use crate::scheme::{Assignment, ProofLabelingScheme, ProveError};
use dpc_graph::Graph;
use dpc_runtime::{
    get_bytes, get_uvarint, put_uvarint, run_protocol, DecodeError, NodeCtx, Payload, Protocol,
    Step,
};

/// Outcome of running a scheme on a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-node verdicts.
    pub verdicts: Vec<bool>,
    /// Rounds of communication used (always 1 for a PLS).
    pub rounds: usize,
    /// Largest message (= certificate) in bits.
    pub max_message_bits: usize,
    /// Total bits sent over all edges and rounds (CONGEST accounting,
    /// straight from the simulator).
    pub total_message_bits: u64,
    /// Largest certificate in bits (same as the message for a PLS).
    pub max_cert_bits: usize,
    /// Total bits across all certificates.
    pub total_cert_bits: usize,
    /// Average certificate size in bits.
    pub avg_cert_bits: f64,
}

impl Outcome {
    /// True iff every node accepted.
    pub fn all_accept(&self) -> bool {
        self.verdicts.iter().all(|&b| b)
    }

    /// Number of rejecting nodes.
    pub fn reject_count(&self) -> usize {
        self.verdicts.iter().filter(|&&b| !b).count()
    }

    /// Appends the wire encoding: scalar fields as varints, then the
    /// per-node verdicts as a packed bitmap. `avg_cert_bits` is not
    /// transmitted — it is recomputed from the totals on decode.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.verdicts.len() as u64);
        put_uvarint(out, self.rounds as u64);
        put_uvarint(out, self.max_message_bits as u64);
        put_uvarint(out, self.total_message_bits);
        put_uvarint(out, self.max_cert_bits as u64);
        put_uvarint(out, self.total_cert_bits as u64);
        let mut byte = 0u8;
        for (i, &v) in self.verdicts.iter().enumerate() {
            if v {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if !self.verdicts.len().is_multiple_of(8) {
            out.push(byte);
        }
    }

    /// Decodes an outcome from the front of `buf`, advancing it.
    /// Inverse of [`Outcome::encode_into`]. The node count is bounded
    /// like [`crate::scheme::MAX_WIRE_CERTS`] so a hostile header
    /// cannot force a multi-gigabyte verdict allocation.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Outcome, DecodeError> {
        let n = get_uvarint(buf)? as usize;
        if n > crate::scheme::MAX_WIRE_CERTS {
            return Err(DecodeError::OutOfBits);
        }
        let rounds = get_uvarint(buf)? as usize;
        let max_message_bits = get_uvarint(buf)? as usize;
        let total_message_bits = get_uvarint(buf)?;
        let max_cert_bits = get_uvarint(buf)? as usize;
        let total_cert_bits = get_uvarint(buf)? as usize;
        let bitmap = get_bytes(buf, n.div_ceil(8))?;
        let verdicts = (0..n).map(|i| bitmap[i / 8] >> (i % 8) & 1 == 1).collect();
        Ok(Outcome {
            verdicts,
            rounds,
            max_message_bits,
            total_message_bits,
            max_cert_bits,
            total_cert_bits,
            avg_cert_bits: if n == 0 {
                0.0
            } else {
                total_cert_bits as f64 / n as f64
            },
        })
    }

    /// Merges per-component outcomes back into one graph-level
    /// outcome: verdicts are scattered to each node's original index,
    /// totals are summed and maxima folded with plain integer
    /// arithmetic, so the merge is order-independent and the merged
    /// outcome is byte-identical no matter which machine proved which
    /// component. `parts` must partition `0..n`: each pair carries a
    /// component's original node indices alongside the outcome
    /// measured on its induced subgraph (whose verdict `i` belongs to
    /// original node `nodes[i]`).
    ///
    /// # Panics
    /// If an index is out of range or a part's verdict count does not
    /// match its node list — both are caller bugs, not wire inputs.
    pub fn merge_components(n: usize, parts: &[(Vec<u32>, Outcome)]) -> Outcome {
        let mut merged = Outcome {
            verdicts: vec![false; n],
            rounds: 0,
            max_message_bits: 0,
            total_message_bits: 0,
            max_cert_bits: 0,
            total_cert_bits: 0,
            avg_cert_bits: 0.0,
        };
        for (nodes, outcome) in parts {
            assert_eq!(
                nodes.len(),
                outcome.verdicts.len(),
                "component outcome must cover exactly its nodes"
            );
            for (i, &node) in nodes.iter().enumerate() {
                merged.verdicts[node as usize] = outcome.verdicts[i];
            }
            merged.rounds = merged.rounds.max(outcome.rounds);
            merged.max_message_bits = merged.max_message_bits.max(outcome.max_message_bits);
            merged.total_message_bits += outcome.total_message_bits;
            merged.max_cert_bits = merged.max_cert_bits.max(outcome.max_cert_bits);
            merged.total_cert_bits += outcome.total_cert_bits;
        }
        merged.avg_cert_bits = if n == 0 {
            0.0
        } else {
            merged.total_cert_bits as f64 / n as f64
        };
        merged
    }
}

/// A prove-and-verify result that *retains* the certificate
/// assignment. [`run_pls`] discards the assignment because experiments
/// only need the measurements; the certification service serves the
/// certificates themselves, so it runs through here.
#[derive(Debug, Clone)]
pub struct Certified {
    /// The honest prover's certificate assignment.
    pub assignment: Assignment,
    /// Measured verification outcome under that assignment.
    pub outcome: Outcome,
}

/// The verification round as a [`Protocol`]: every node broadcasts its
/// certificate. With `per_node`, each node then runs that scheme's
/// per-node verifier on its inbox; without it, each node stops once its
/// inbox is delivered and the verdicts come from
/// [`ProofLabelingScheme::verify_round`].
struct PlsRound<'a, S> {
    assignment: &'a Assignment,
    per_node: Option<&'a S>,
}

impl<'a, S: ProofLabelingScheme> Protocol for PlsRound<'a, S> {
    type State = Payload;

    fn init(&self, ctx: &NodeCtx) -> Payload {
        self.assignment.certs[ctx.node as usize].clone()
    }

    fn message(&self, cert: &Payload, _round: usize) -> Payload {
        cert.clone()
    }

    fn receive(&self, cert: &mut Payload, ctx: &NodeCtx, inbox: &[Payload], _round: usize) -> Step {
        Step::Output(self.per_node.is_none_or(|s| s.verify(ctx, cert, inbox)))
    }
}

/// Runs the honest prover and then the distributed verifier.
///
/// Returns `Err` when the prover declines (instance outside the class):
/// by soundness this is the *expected* result on no-instances.
pub fn run_pls<S: ProofLabelingScheme>(scheme: &S, g: &Graph) -> Result<Outcome, ProveError> {
    Ok(certify_pls(scheme, g)?.outcome)
}

/// Like [`run_pls`], but returns the certificate assignment alongside
/// the outcome — the entry point of the certification service, where
/// the certificates are the product.
///
/// ```
/// use dpc_core::harness::certify_pls;
/// use dpc_core::schemes::planarity::PlanarityScheme;
///
/// let g = dpc_graph::generators::grid(5, 5);
/// let certified = certify_pls(&PlanarityScheme::new(), &g).unwrap();
/// assert!(certified.outcome.all_accept());
/// assert_eq!(certified.assignment.certs.len(), g.node_count());
/// ```
pub fn certify_pls<S: ProofLabelingScheme>(scheme: &S, g: &Graph) -> Result<Certified, ProveError> {
    let assignment = scheme.prove(g)?;
    let outcome = run_with_assignment(scheme, g, &assignment);
    Ok(Certified {
        assignment,
        outcome,
    })
}

/// Runs the distributed verifier under an arbitrary (possibly forged)
/// certificate assignment — the soundness experiments live here.
///
/// The simulator delivers the round and does the accounting; the
/// verdicts are the scheme's [`ProofLabelingScheme::verify_round`].
pub fn run_with_assignment<S: ProofLabelingScheme>(
    scheme: &S,
    g: &Graph,
    assignment: &Assignment,
) -> Outcome {
    assert_eq!(assignment.certs.len(), g.node_count());
    let delivery = PlsRound {
        assignment,
        per_node: None::<&S>,
    };
    let report = run_protocol(&delivery, g, 1);
    let verdicts = scheme.verify_round(g, &assignment.certs);
    outcome_from(report, verdicts, assignment)
}

/// Like [`run_with_assignment`], but every node runs the per-node
/// verifier on its own inbox through the deep-copy reference executor
/// ([`dpc_runtime::baseline`]): one byte copy per certificate per
/// incident edge. The reference the round path is held against, and
/// the "before" of the delivery benches; results are identical.
pub fn run_with_assignment_deepcopy<S: ProofLabelingScheme>(
    scheme: &S,
    g: &Graph,
    assignment: &Assignment,
) -> Outcome {
    assert_eq!(assignment.certs.len(), g.node_count());
    let proto = PlsRound {
        assignment,
        per_node: Some(scheme),
    };
    let report = dpc_runtime::baseline::run_protocol_deepcopy(&proto, g, 1);
    let verdicts = report.verdicts.iter().map(|v| v.unwrap_or(false)).collect();
    outcome_from(report, verdicts, assignment)
}

fn outcome_from(
    report: dpc_runtime::RunReport,
    verdicts: Vec<bool>,
    assignment: &Assignment,
) -> Outcome {
    Outcome {
        verdicts,
        rounds: report.rounds,
        max_message_bits: report.max_message_bits,
        total_message_bits: report.total_message_bits,
        max_cert_bits: assignment.max_bits(),
        total_cert_bits: assignment.total_bits(),
        avg_cert_bits: assignment.avg_bits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_graph::generators;
    use dpc_runtime::BitWriter;

    /// Toy scheme: class = all graphs; certificate = the node's degree;
    /// verify checks the certificate matches the observed degree.
    struct DegreeScheme;

    impl ProofLabelingScheme for DegreeScheme {
        fn name(&self) -> &'static str {
            "degree"
        }

        fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
            let certs = g
                .nodes()
                .map(|v| {
                    let mut w = BitWriter::new();
                    w.write_varint(g.degree(v) as u64);
                    Payload::from_writer(w)
                })
                .collect();
            Ok(Assignment { certs })
        }

        fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
            let mut r = own.reader();
            match r.read_varint() {
                Ok(d) => d as usize == ctx.degree() && neighbors.len() == ctx.degree(),
                Err(_) => false,
            }
        }
    }

    #[test]
    fn honest_run_accepts_in_one_round() {
        let g = generators::grid(3, 3);
        let out = run_pls(&DegreeScheme, &g).unwrap();
        assert!(out.all_accept());
        assert_eq!(out.rounds, 1);
        assert!(out.max_cert_bits >= 8);
        assert_eq!(out.max_cert_bits, out.max_message_bits);
    }

    #[test]
    fn certify_retains_the_assignment() {
        let g = generators::grid(3, 4);
        let certified = certify_pls(&DegreeScheme, &g).unwrap();
        assert!(certified.outcome.all_accept());
        assert_eq!(certified.assignment.certs.len(), g.node_count());
        assert_eq!(
            certified.outcome.total_cert_bits,
            certified.assignment.total_bits()
        );
    }

    #[test]
    fn outcome_wire_roundtrip() {
        for n in [1u32, 8, 9, 17] {
            let g = generators::path(n);
            let mut out = run_pls(&DegreeScheme, &g).unwrap();
            if n > 2 {
                out.verdicts[1] = false; // exercise a mixed bitmap
            }
            let mut buf = Vec::new();
            out.encode_into(&mut buf);
            let mut cursor = buf.as_slice();
            let back = Outcome::decode_from(&mut cursor).unwrap();
            assert!(cursor.is_empty());
            assert_eq!(back, out);
        }
    }

    #[test]
    fn deepcopy_harness_agrees_with_zero_copy() {
        let g = generators::grid(4, 5);
        let a = DegreeScheme.prove(&g).unwrap();
        let fast = run_with_assignment(&DegreeScheme, &g, &a);
        let slow = run_with_assignment_deepcopy(&DegreeScheme, &g, &a);
        assert_eq!(fast, slow);
    }

    #[test]
    fn forged_assignment_rejected_somewhere() {
        let g = generators::grid(3, 3);
        let mut a = DegreeScheme.prove(&g).unwrap();
        // corrupt node 4's certificate (degree lie)
        let mut w = BitWriter::new();
        w.write_varint(99);
        a.certs[4] = Payload::from_writer(w);
        let out = run_with_assignment(&DegreeScheme, &g, &a);
        assert!(!out.all_accept());
        assert_eq!(out.reject_count(), 1);
    }
}
