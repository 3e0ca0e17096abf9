//! Deep-copy reference executor — the "before" in zero-copy benchmarks.
//!
//! This is the seed implementation of the simulator loop, kept verbatim
//! in behavior: every delivered payload is a fresh byte buffer (one full
//! copy per incident edge per round) and every node gets a freshly
//! allocated inbox vector. [`crate::sim::run_protocol_states`] must
//! produce bit-identical reports and states; the `verifier` criterion
//! bench and the runtime equivalence tests hold the two implementations
//! against each other.

use crate::sim::{NodeCtx, Payload, Protocol, RunReport, Step};
use dpc_graph::{Graph, NodeId};

/// Like [`crate::sim::run_protocol`], but deep-copying every delivered
/// payload. Only useful as a performance baseline.
pub fn run_protocol_deepcopy<P: Protocol>(protocol: &P, g: &Graph, max_rounds: usize) -> RunReport {
    run_protocol_states_deepcopy(protocol, g, max_rounds).0
}

/// Like [`crate::sim::run_protocol_states`], but deep-copying every
/// delivered payload and allocating a fresh inbox per node per round.
pub fn run_protocol_states_deepcopy<P: Protocol>(
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
    while round < max_rounds && verdicts.iter().any(|v| v.is_none()) {
        let outgoing: Vec<Payload> = (0..n)
            .map(|v| {
                if verdicts[v].is_none() {
                    protocol.message(&states[v], round)
                } else {
                    Payload::empty()
                }
            })
            .collect();
        for (v, p) in outgoing.iter().enumerate() {
            max_bits = max_bits.max(p.bit_len);
            total_bits += p.bit_len as u64 * g.degree(v as NodeId) as u64;
        }
        for v in 0..n {
            if verdicts[v].is_some() {
                continue;
            }
            let inbox: Vec<Payload> = g
                .neighbors(v as NodeId)
                .map(|w| {
                    let p = &outgoing[w as usize];
                    // the deliberate per-edge byte copy
                    Payload::from_bytes(p.to_vec(), p.bit_len)
                })
                .collect();
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
    use crate::sim::run_protocol;
    use dpc_graph::generators;

    /// Echo protocol: broadcast the id, accept iff the inbox hashes to
    /// the same value two rounds in a row (exercises multi-round state).
    struct IdSum;

    impl Protocol for IdSum {
        type State = (u64, usize);

        fn init(&self, ctx: &NodeCtx) -> (u64, usize) {
            (ctx.id, 0)
        }

        fn message(&self, state: &(u64, usize), _round: usize) -> Payload {
            let mut w = BitWriter::new();
            w.write_varint(state.0);
            Payload::from_writer(w)
        }

        fn receive(
            &self,
            state: &mut (u64, usize),
            _ctx: &NodeCtx,
            inbox: &[Payload],
            round: usize,
        ) -> Step {
            let sum: u64 = inbox
                .iter()
                .map(|p| p.reader().read_varint().unwrap())
                .fold(0u64, |a, b| a.wrapping_add(b));
            state.0 = state.0.wrapping_add(sum);
            state.1 += 1;
            if round >= 2 {
                Step::Output(state.0.is_multiple_of(2) || state.1 > 0)
            } else {
                Step::Continue
            }
        }
    }

    #[test]
    fn deepcopy_and_zero_copy_agree_exactly() {
        for g in [
            generators::grid(7, 9),
            generators::cycle(40),
            generators::star(16),
            generators::stacked_triangulation(60, 4),
        ] {
            let (fast, fast_states) = crate::sim::run_protocol_states(&IdSum, &g, 5);
            let (slow, slow_states) = run_protocol_states_deepcopy(&IdSum, &g, 5);
            assert_eq!(fast.verdicts, slow.verdicts);
            assert_eq!(fast.rounds, slow.rounds);
            assert_eq!(fast.max_message_bits, slow.max_message_bits);
            assert_eq!(fast.total_message_bits, slow.total_message_bits);
            assert_eq!(fast_states, slow_states);
        }
    }

    #[test]
    fn deepcopy_report_matches_fast_path_on_single_round() {
        let g = generators::grid(5, 5);
        let fast = run_protocol(&IdSum, &g, 1);
        let slow = run_protocol_deepcopy(&IdSum, &g, 1);
        assert_eq!(fast.total_message_bits, slow.total_message_bits);
        assert_eq!(fast.max_message_bits, slow.max_message_bits);
    }
}
