//! The proof-labeling-scheme abstraction.

use dpc_graph::Graph;
use dpc_runtime::{get_bytes, get_uvarint, put_uvarint, DecodeError, NodeCtx, Payload};
use std::fmt;
use std::sync::Arc;

/// A certificate assignment: one payload per node.
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    /// `certs[v]` is the certificate handed to node `v`.
    pub certs: Vec<Payload>,
}

impl Assignment {
    /// Assignment of empty certificates for `n` nodes.
    pub fn empty(n: usize) -> Self {
        Assignment {
            certs: vec![Payload::empty(); n],
        }
    }

    /// Size of the largest certificate, in bits.
    pub fn max_bits(&self) -> usize {
        self.certs.iter().map(|c| c.bit_len).max().unwrap_or(0)
    }

    /// Average certificate size in bits.
    pub fn avg_bits(&self) -> f64 {
        if self.certs.is_empty() {
            return 0.0;
        }
        self.certs.iter().map(|c| c.bit_len as f64).sum::<f64>() / self.certs.len() as f64
    }

    /// Total bits across all certificates.
    pub fn total_bits(&self) -> usize {
        self.certs.iter().map(|c| c.bit_len).sum()
    }

    /// Certificate-size statistics in one pass.
    pub fn stats(&self) -> CertStats {
        CertStats {
            count: self.certs.len(),
            max_bits: self.max_bits(),
            total_bits: self.total_bits(),
            avg_bits: self.avg_bits(),
        }
    }

    /// Total *bytes* the assignment occupies (each certificate rounded
    /// up to whole bytes) — the cache-budget measure of the service.
    pub fn byte_size(&self) -> usize {
        self.certs.iter().map(|c| c.bit_len.div_ceil(8)).sum()
    }

    /// Appends the wire encoding: certificate count, then per
    /// certificate the exact bit length (varint) followed by
    /// `ceil(bit_len / 8)` raw bytes. Byte-aligned so decoded payloads
    /// are byte-identical to the encoded ones.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.certs.len() as u64);
        for c in self.certs.iter() {
            put_uvarint(out, c.bit_len as u64);
            out.extend_from_slice(&c.as_bytes()[..c.bit_len.div_ceil(8)]);
        }
    }

    /// Certificates sharing one buffer: `certs` yields each one's
    /// `(first byte, bit length)` in `bytes`, and the certificate is the
    /// view of the `ceil(bit_len / 8)` bytes from there. The wire
    /// decoder and the planarity prover build through here, so an
    /// assignment costs one buffer rather than one per node.
    ///
    /// # Panics
    ///
    /// Panics if a certificate's bytes run past the end of `bytes`.
    pub(crate) fn packed(
        bytes: &Arc<[u8]>,
        certs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let view = |(start, bit_len): (usize, usize)| {
            Payload::view(bytes, start..start + bit_len.div_ceil(8), bit_len)
        };
        Assignment {
            certs: certs.into_iter().map(view).collect(),
        }
    }

    /// Decodes an assignment from the front of `buf`, advancing it.
    /// Inverse of [`Assignment::encode_into`].
    ///
    /// The certificate count is validated against the remaining buffer
    /// (each certificate costs at least one byte on the wire) and a
    /// fixed per-node ceiling, so a hostile header cannot amplify a
    /// small frame into gigabytes of `Payload` allocations. Every
    /// length is checked before a byte is copied; then the certificates'
    /// wire span is copied once, and each certificate is a view of it.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Assignment, DecodeError> {
        let count = get_uvarint(buf)? as usize;
        if count > buf.len() || count > MAX_WIRE_CERTS {
            return Err(DecodeError::OutOfBits);
        }
        let wire = *buf;
        for _ in 0..count {
            let bit_len = get_uvarint(buf)? as usize;
            get_bytes(buf, bit_len.div_ceil(8))?;
        }
        let span = &wire[..wire.len() - buf.len()];
        if u32::try_from(span.len()).is_err() {
            // a payload addresses its bytes with 32-bit offsets
            return Err(DecodeError::OutOfBits);
        }
        let span: Arc<[u8]> = span.into();
        let mut rest = &span[..];
        let certs = (0..count).map(|_| {
            let bit_len = get_uvarint(&mut rest).expect("checked above") as usize;
            let start = span.len() - rest.len();
            rest = &rest[bit_len.div_ceil(8)..];
            (start, bit_len)
        });
        Ok(Assignment::packed(&span, certs))
    }
}

/// Upper bound on certificates (= nodes) in one wire assignment,
/// matching the service's *streamed* graph-size cap: chunk-uploaded
/// giant graphs produce outcomes larger than any single-frame graph,
/// and their summaries must still decode.
pub const MAX_WIRE_CERTS: usize = 1 << 24;

/// Certificate-size statistics of an [`Assignment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertStats {
    /// Number of certificates (= nodes).
    pub count: usize,
    /// Largest certificate in bits.
    pub max_bits: usize,
    /// Total bits across all certificates.
    pub total_bits: usize,
    /// Average certificate size in bits.
    pub avg_bits: f64,
}

/// Why the honest prover declined to produce certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProveError {
    /// The instance is not in the certified class (e.g. the graph is not
    /// planar and the scheme certifies planarity). Soundness in action:
    /// there is nothing valid to hand out.
    NotInClass(&'static str),
    /// The model assumes connected networks.
    NotConnected,
    /// The scheme needs auxiliary input it was not given (e.g. a
    /// Hamiltonian-path witness for path-outerplanarity).
    MissingWitness(&'static str),
}

impl fmt::Display for ProveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProveError::NotInClass(c) => write!(f, "instance is not in the class: {c}"),
            ProveError::NotConnected => write!(f, "the network must be connected"),
            ProveError::MissingWitness(w) => write!(f, "missing witness: {w}"),
        }
    }
}

impl std::error::Error for ProveError {}

/// A proof-labeling scheme: centralized prover + 1-round local verifier.
///
/// The verifier is *stateless by node*: it sees the node's initial
/// knowledge ([`NodeCtx`]), its own certificate, and the certificates of
/// its neighbors in port order — exactly the information available after
/// the single communication round of the PLS model.
///
/// # Example: build a scheme and certify a graph
///
/// ```
/// use dpc_core::harness::certify_pls;
/// use dpc_core::scheme::ProofLabelingScheme;
/// use dpc_core::schemes::bipartite::BipartiteScheme;
///
/// let scheme = BipartiteScheme::new();
/// let g = dpc_graph::generators::grid(4, 5); // grids are bipartite
/// let certified = certify_pls(&scheme, &g).expect("yes-instance");
/// assert!(certified.outcome.all_accept());
/// assert_eq!(certified.assignment.max_bits(), 1); // one bit per node
///
/// // an odd cycle is not bipartite: the honest prover refuses
/// let odd = dpc_graph::generators::cycle(5);
/// assert!(scheme.prove(&odd).is_err());
/// ```
pub trait ProofLabelingScheme {
    /// Human-readable name (for reports).
    fn name(&self) -> &'static str;

    /// Honest prover: certificate assignment for a yes-instance.
    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError>;

    /// Local verification at one node after the communication round.
    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool;

    /// The verdicts of one whole verification round on `g`, where node
    /// `v` broadcast `certs[v]`: entry `v` is what [`Self::verify`]
    /// answers at `v` on the certificates of its neighbors in port
    /// order, which is exactly what this default runs.
    ///
    /// A scheme may override it to share work across nodes (say, to
    /// decode each certificate once instead of once per incident edge),
    /// as long as every verdict stays equal to the per-node one.
    fn verify_round(&self, g: &Graph, certs: &[Payload]) -> Vec<bool> {
        let mut ctx = NodeCtx::default();
        let mut inbox = Vec::new();
        g.nodes()
            .map(|v| {
                ctx.load(g, v);
                inbox.clear();
                inbox.extend(g.neighbors(v).map(|w| certs[w as usize].clone()));
                self.verify(&ctx, &certs[v as usize], &inbox)
            })
            .collect()
    }
}

// Delegating impls so `&S`, `&dyn ProofLabelingScheme`, and boxed
// schemes (e.g. the entries of a scheme registry) run through every
// generic harness function unchanged.

impl<S: ProofLabelingScheme + ?Sized> ProofLabelingScheme for &S {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
        (**self).prove(g)
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        (**self).verify(ctx, own, neighbors)
    }

    fn verify_round(&self, g: &Graph, certs: &[Payload]) -> Vec<bool> {
        (**self).verify_round(g, certs)
    }
}

impl<S: ProofLabelingScheme + ?Sized> ProofLabelingScheme for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn prove(&self, g: &Graph) -> Result<Assignment, ProveError> {
        (**self).prove(g)
    }

    fn verify(&self, ctx: &NodeCtx, own: &Payload, neighbors: &[Payload]) -> bool {
        (**self).verify(ctx, own, neighbors)
    }

    fn verify_round(&self, g: &Graph, certs: &[Payload]) -> Vec<bool> {
        (**self).verify_round(g, certs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_stats() {
        let mut a = Assignment::empty(3);
        assert_eq!(a.max_bits(), 0);
        let mut w = dpc_runtime::BitWriter::new();
        w.write_bits(0b1010, 4);
        a.certs[1] = Payload::from_writer(w);
        assert_eq!(a.max_bits(), 4);
        assert_eq!(a.total_bits(), 4);
        assert!((a.avg_bits() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn assignment_wire_roundtrip() {
        let mut a = Assignment::empty(4);
        for (i, cert) in a.certs.iter_mut().enumerate() {
            let mut w = dpc_runtime::BitWriter::new();
            w.write_varint(i as u64 * 1000 + 3);
            w.write_bits(i as u64, 3); // non-byte-aligned lengths
            *cert = Payload::from_writer(w);
        }
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        let mut cursor = buf.as_slice();
        let b = Assignment::decode_from(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        assert_eq!(a.certs.len(), b.certs.len());
        for (x, y) in a.certs.iter().zip(b.certs.iter()) {
            assert_eq!(x.bit_len, y.bit_len);
            assert_eq!(x.as_bytes(), y.as_bytes());
        }
        let stats = a.stats();
        assert_eq!(stats.count, 4);
        assert_eq!(stats.total_bits, a.total_bits());
        assert!(a.byte_size() >= stats.total_bits / 8);
    }

    #[test]
    fn assignment_decode_rejects_truncation() {
        let mut a = Assignment::empty(2);
        let mut w = dpc_runtime::BitWriter::new();
        w.write_varint(77);
        a.certs[0] = Payload::from_writer(w);
        let mut buf = Vec::new();
        a.encode_into(&mut buf);
        buf.truncate(buf.len() - 1);
        let mut cursor = buf.as_slice();
        assert!(Assignment::decode_from(&mut cursor).is_err());
    }

    #[test]
    fn prove_error_display() {
        let e = ProveError::NotInClass("planar graphs");
        assert!(e.to_string().contains("planar"));
        assert_eq!(
            ProveError::NotConnected.to_string(),
            "the network must be connected"
        );
    }
}
