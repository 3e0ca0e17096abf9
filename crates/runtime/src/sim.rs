//! Deterministic synchronous network simulator with CONGEST accounting.
//!
//! Executes a [`Protocol`] on a graph: in every round each node emits one
//! broadcast payload, all payloads are delivered to neighbors, and each
//! node either continues or outputs accept/reject. The executor tracks
//! the number of rounds and the largest payload in bits — a protocol is
//! a *1-round CONGEST* protocol exactly when `rounds == 1` and
//! `max_message_bits = O(log n)`, the regime of Theorem 1.

use crate::bits::{BitReader, BitWriter};
use dpc_graph::{Graph, NodeId};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A broadcast payload: a view of shared raw bytes plus the exact
/// length in bits.
///
/// The byte buffer is reference-counted, so cloning a payload — the
/// operation the simulator performs once per incident edge per round —
/// is O(1) and never copies certificate bytes. A payload sees only its
/// byte range of the buffer, so the certificates of one assignment can
/// share a single buffer ([`Payload::view`]). Payloads are immutable
/// after construction; to derive a modified payload (e.g. for an
/// adversarial bit flip), copy the bytes out with [`Payload::to_vec`]
/// and rebuild with [`Payload::from_bytes`].
#[derive(Clone, Default)]
pub struct Payload {
    /// Shared backing bytes; the payload's own are `start..end`.
    bytes: Arc<[u8]>,
    start: u32,
    end: u32,
    /// Exact number of meaningful bits.
    pub bit_len: usize,
}

impl Payload {
    /// Empty payload (zero bits).
    pub fn empty() -> Self {
        Payload::default()
    }

    /// Payload from a finished [`BitWriter`].
    pub fn from_writer(w: BitWriter) -> Self {
        let (bytes, bit_len) = w.into_parts();
        Payload::from_bytes(bytes, bit_len)
    }

    /// Payload from raw bytes and an exact bit length.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too short to hold `bit_len` bits.
    pub fn from_bytes(bytes: impl Into<Arc<[u8]>>, bit_len: usize) -> Self {
        let bytes = bytes.into();
        let len = bytes.len();
        Payload::view(&bytes, 0..len, bit_len)
    }

    /// Payload over `range` of a shared buffer: the `bit_len` bits at
    /// the front of those bytes. No byte is copied.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not inside `bytes` or does not fit in 32
    /// bits, or is too short to hold `bit_len` bits.
    pub fn view(bytes: &Arc<[u8]>, range: Range<usize>, bit_len: usize) -> Self {
        assert!(
            range.start <= range.end && range.end <= bytes.len(),
            "range outside the buffer"
        );
        assert!(range.len() * 8 >= bit_len, "bit_len exceeds the buffer");
        let offset = |i: usize| u32::try_from(i).expect("payload range exceeds 32 bits");
        Payload {
            bytes: Arc::clone(bytes),
            start: offset(range.start),
            end: offset(range.end),
            bit_len,
        }
    }

    /// The payload's bytes as a plain slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[self.start as usize..self.end as usize]
    }

    /// Owned copy of the payload's bytes (for mutation-and-rebuild).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// A bit reader over the payload's exact bit range.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader::new(self.as_bytes(), self.bit_len)
    }
}

/// Equal bit lengths and equal bytes, wherever the bytes live.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.bit_len == other.bit_len && self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Payload {}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("bytes", &self.as_bytes())
            .field("bit_len", &self.bit_len)
            .finish()
    }
}

/// What the node initially knows: its index, identifier, and — per the
/// usual KT1 assumption — the identifiers behind each port.
#[derive(Debug, Clone, Default)]
pub struct NodeCtx {
    /// Dense node index (for the harness only; protocols should use ids).
    pub node: NodeId,
    /// The node's unique network identifier.
    pub id: u64,
    /// Identifier of the neighbor behind each port, in port order.
    pub neighbor_ids: Vec<u64>,
}

impl NodeCtx {
    /// Node `v`'s initial knowledge in `g`.
    pub fn of(g: &Graph, v: NodeId) -> NodeCtx {
        let mut ctx = NodeCtx::default();
        ctx.load(g, v);
        ctx
    }

    /// Refills this context with node `v`'s knowledge, reusing the
    /// identifier buffer (for loops that visit every node in turn).
    pub fn load(&mut self, g: &Graph, v: NodeId) {
        self.node = v;
        self.id = g.id_of(v);
        self.neighbor_ids.clear();
        self.neighbor_ids.extend(g.neighbors(v).map(|w| g.id_of(w)));
    }

    /// Degree of the node.
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }
}

/// Decision of a node after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep running.
    Continue,
    /// Terminate with accept (`true`) or reject (`false`).
    Output(bool),
}

/// A synchronous distributed protocol with broadcast messages.
pub trait Protocol {
    /// Per-node state.
    type State;

    /// Initial state of a node.
    fn init(&self, ctx: &NodeCtx) -> Self::State;

    /// Payload broadcast by the node in the given round (0-based).
    fn message(&self, state: &Self::State, round: usize) -> Payload;

    /// Delivers the payloads of all neighbors (indexed by port) and asks
    /// for a decision.
    fn receive(
        &self,
        state: &mut Self::State,
        ctx: &NodeCtx,
        inbox: &[Payload],
        round: usize,
    ) -> Step;
}

/// Execution report.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Final verdict per node (`None` if the node never terminated).
    pub verdicts: Vec<Option<bool>>,
    /// Rounds executed.
    pub rounds: usize,
    /// Largest single payload, in bits.
    pub max_message_bits: usize,
    /// Total bits sent over all edges and rounds (each broadcast counted
    /// once per incident edge, once per direction).
    pub total_message_bits: u64,
}

impl RunReport {
    /// True if every node terminated and accepted.
    pub fn all_accept(&self) -> bool {
        self.verdicts.iter().all(|v| *v == Some(true))
    }

    /// Number of nodes that rejected.
    pub fn reject_count(&self) -> usize {
        self.verdicts.iter().filter(|v| **v == Some(false)).count()
    }
}

/// Runs `protocol` on `g` for at most `max_rounds` rounds.
///
/// Deterministic: nodes are processed in index order; all messages of a
/// round are delivered simultaneously (two-phase update).
pub fn run_protocol<P: Protocol>(protocol: &P, g: &Graph, max_rounds: usize) -> RunReport {
    run_protocol_states(protocol, g, max_rounds).0
}

/// Like [`run_protocol`] but also returns the final per-node states —
/// used when the protocol *computes* something (e.g. the distributed
/// certificate pre-processing phase) rather than just deciding.
pub fn run_protocol_states<P: Protocol>(
    protocol: &P,
    g: &Graph,
    max_rounds: usize,
) -> (RunReport, Vec<P::State>) {
    let n = g.node_count();
    let ctxs: Vec<NodeCtx> = g.nodes().map(|v| NodeCtx::of(g, v)).collect();
    let mut states: Vec<P::State> = ctxs.iter().map(|c| protocol.init(c)).collect();
    let mut verdicts: Vec<Option<bool>> = vec![None; n];
    let mut max_bits = 0usize;
    let mut total_bits = 0u64;
    let mut round = 0usize;
    // Both buffers are reused across every node and every round: the
    // per-round cost is n cheap payload handles plus one O(1) reference
    // bump per incident edge — no per-edge byte copies, no per-node
    // inbox allocation.
    let mut outgoing: Vec<Payload> = Vec::with_capacity(n);
    let mut inbox: Vec<Payload> = Vec::new();
    while round < max_rounds && verdicts.iter().any(|v| v.is_none()) {
        // phase 1: everyone still running emits its broadcast
        outgoing.clear();
        outgoing.extend((0..n).map(|v| {
            if verdicts[v].is_none() {
                protocol.message(&states[v], round)
            } else {
                Payload::empty()
            }
        }));
        for (v, p) in outgoing.iter().enumerate() {
            max_bits = max_bits.max(p.bit_len);
            total_bits += p.bit_len as u64 * g.degree(v as NodeId) as u64;
        }
        // phase 2: deliver and step
        for v in 0..n {
            if verdicts[v].is_some() {
                continue;
            }
            inbox.clear();
            inbox.extend(
                g.neighbors(v as NodeId)
                    .map(|w| outgoing[w as usize].clone()),
            );
            if let Step::Output(b) = protocol.receive(&mut states[v], &ctxs[v], &inbox, round) {
                verdicts[v] = Some(b);
            }
        }
        round += 1;
    }
    (
        RunReport {
            verdicts,
            rounds: round,
            max_message_bits: max_bits,
            total_message_bits: total_bits,
        },
        states,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;
    use dpc_graph::generators;

    /// Toy protocol: accept iff the node's id is larger than all
    /// neighbor ids it hears (exactly one node accepts per round-1 run —
    /// the max-id node rejects nothing; others reject).
    struct MaxId;

    impl Protocol for MaxId {
        type State = u64;

        fn init(&self, ctx: &NodeCtx) -> u64 {
            ctx.id
        }

        fn message(&self, state: &u64, _round: usize) -> Payload {
            let mut w = BitWriter::new();
            w.write_varint(*state);
            Payload::from_writer(w)
        }

        fn receive(
            &self,
            state: &mut u64,
            _ctx: &NodeCtx,
            inbox: &[Payload],
            _round: usize,
        ) -> Step {
            let mut best = true;
            for p in inbox {
                let mut r = p.reader();
                if r.read_varint().unwrap() > *state {
                    best = false;
                }
            }
            Step::Output(best)
        }
    }

    /// A view of `bytes` placed between foreign bytes in one buffer.
    fn embedded(bytes: &[u8], bit_len: usize) -> Payload {
        let mut buf = vec![0xff; 3];
        buf.extend_from_slice(bytes);
        buf.extend_from_slice(&[0xee; 4]);
        Payload::view(&buf.into(), 3..3 + bytes.len(), bit_len)
    }

    #[test]
    fn a_view_agrees_with_an_owned_payload() {
        let mut w = BitWriter::new();
        w.write_varint(300);
        w.write_bits(0b101, 3);
        let owned = Payload::from_writer(w);
        let view = embedded(owned.as_bytes(), owned.bit_len);
        assert_eq!(view, owned);
        assert_eq!(view.as_bytes(), owned.as_bytes());
        assert_eq!(view.to_vec(), owned.to_vec());
        assert_eq!(format!("{view:?}"), format!("{owned:?}"));
        let (mut a, mut b) = (view.reader(), owned.reader());
        assert_eq!(a.remaining(), b.remaining());
        assert_eq!(a.read_varint(), b.read_varint());
        assert_eq!(a.read_bits(3), b.read_bits(3));
        assert_eq!(a.read_bool(), Err(crate::DecodeError::OutOfBits));
        // equality is the bit length plus the bytes
        let shorter = Payload::from_bytes(owned.to_vec(), owned.bit_len - 1);
        assert_ne!(view, shorter);
        let other = embedded(&[0u8; 3], owned.bit_len);
        assert_ne!(view, other);
    }

    #[test]
    fn a_view_never_exposes_bytes_outside_its_range() {
        let buf: Arc<[u8]> = (0u8..16).collect::<Vec<_>>().into();
        for start in 0..=buf.len() {
            for end in start..=buf.len() {
                let bits = 8 * (end - start);
                let view = Payload::view(&buf, start..end, bits);
                assert_eq!(view.as_bytes(), &buf[start..end]);
                assert_eq!(view.to_vec(), &buf[start..end]);
                // a reader sees the range, then zeros, never a neighbour
                let mut r = view.reader();
                let read: Vec<u8> = (start..end)
                    .map(|_| r.read_bits(8).unwrap() as u8)
                    .collect();
                assert_eq!(read, &buf[start..end]);
                assert!(r.read_bool().is_err());
            }
        }
        let empty = embedded(&[], 0);
        assert_eq!(empty, Payload::empty());
        assert!(empty.as_bytes().is_empty());
    }

    #[test]
    #[should_panic(expected = "range outside the buffer")]
    fn a_view_past_the_buffer_panics() {
        let buf: Arc<[u8]> = vec![0u8; 4].into();
        Payload::view(&buf, 2..5, 0);
    }

    #[test]
    #[should_panic(expected = "bit_len exceeds the buffer")]
    fn a_view_too_short_for_its_bits_panics() {
        let buf: Arc<[u8]> = vec![0u8; 4].into();
        Payload::view(&buf, 1..2, 9);
    }

    #[test]
    fn one_round_protocol_runs_once() {
        let g = generators::cycle(10);
        let rep = run_protocol(&MaxId, &g, 10);
        assert_eq!(rep.rounds, 1);
        let accepts = rep.verdicts.iter().filter(|v| **v == Some(true)).count();
        assert_eq!(accepts, 1, "only the local maxima accept; on a cycle with distinct ids and increasing assignment, exactly the global max");
    }

    #[test]
    fn message_accounting() {
        let g = generators::star(5);
        let rep = run_protocol(&MaxId, &g, 5);
        assert!(rep.max_message_bits >= 8);
        // total bits: each node broadcasts once over each incident edge
        assert!(rep.total_message_bits >= 8 * (2 * g.edge_count() as u64));
        assert_eq!(rep.rounds, 1);
    }

    /// Counts rounds: node terminates after `k` rounds where `k` = its
    /// index modulo 3 + 1.
    struct Delay;
    impl Protocol for Delay {
        type State = usize;
        fn init(&self, ctx: &NodeCtx) -> usize {
            (ctx.node as usize % 3) + 1
        }
        fn message(&self, _s: &usize, _round: usize) -> Payload {
            Payload::empty()
        }
        fn receive(&self, s: &mut usize, _c: &NodeCtx, _i: &[Payload], round: usize) -> Step {
            if round + 1 >= *s {
                Step::Output(true)
            } else {
                Step::Continue
            }
        }
    }

    #[test]
    fn multi_round_termination() {
        let g = generators::path(7);
        let rep = run_protocol(&Delay, &g, 10);
        assert_eq!(rep.rounds, 3);
        assert!(rep.all_accept());
    }

    #[test]
    fn max_rounds_cap() {
        struct Never;
        impl Protocol for Never {
            type State = ();
            fn init(&self, _c: &NodeCtx) {}
            fn message(&self, _s: &(), _r: usize) -> Payload {
                Payload::empty()
            }
            fn receive(&self, _s: &mut (), _c: &NodeCtx, _i: &[Payload], _r: usize) -> Step {
                Step::Continue
            }
        }
        let g = generators::path(4);
        let rep = run_protocol(&Never, &g, 3);
        assert_eq!(rep.rounds, 3);
        assert!(rep.verdicts.iter().all(|v| v.is_none()));
        assert_eq!(rep.reject_count(), 0);
    }

    #[test]
    fn ctx_exposes_neighbor_ids() {
        let g = generators::path(3);
        struct CheckCtx;
        impl Protocol for CheckCtx {
            type State = usize;
            fn init(&self, ctx: &NodeCtx) -> usize {
                ctx.degree()
            }
            fn message(&self, _s: &usize, _r: usize) -> Payload {
                Payload::empty()
            }
            fn receive(&self, s: &mut usize, _c: &NodeCtx, inbox: &[Payload], _r: usize) -> Step {
                Step::Output(inbox.len() == *s)
            }
        }
        let rep = run_protocol(&CheckCtx, &g, 2);
        assert!(rep.all_accept());
    }
}
