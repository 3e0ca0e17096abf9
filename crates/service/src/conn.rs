//! The per-connection protocol, written once: a sans-IO core that both
//! front ends drive.
//!
//! [`ConnCore::step`] takes a connection's unparsed bytes and peels one
//! frame. A certify is only validated: its graph stays as its wire
//! bytes, one copy out of the read buffer, because the worker probes
//! the cache on those bytes and decodes the graph only on a miss.
//! Every other request is decoded and runs through the two
//! per-connection filters — chunked uploads ([`ChunkSessions`]) and
//! interactive dMAM rounds ([`InteractiveSessions`]). It bumps the
//! request counters and starts the request's [`Trace`]. The result is
//! one [`Step`]: a [`Job`] for the worker queue, an immediate reply, or
//! one last reply before the connection closes. Every frame takes
//! exactly one sequence number and yields exactly one response: that is
//! the pipelining contract. On the way out, [`Reorder`] releases
//! finished responses strictly in sequence order.
//!
//! The front ends own only their I/O:
//!
//! * **threaded** (`server.rs`): a blocking read loop feeds the core
//!   and pushes jobs with the blocking `JobQueue::push`; a writer
//!   thread reorders with [`Reorder`] and writes.
//! * **reactor** (`reactor.rs`): nonblocking reads feed the core; jobs
//!   go through `try_push`, parking in the connection's stall slot when
//!   the queue is full; completions reorder with [`Reorder`] and leave
//!   in batched vectored writes.

use crate::metrics::{Metrics, Trace};
use crate::registry::SchemeId;
use crate::server::{duration_us, unknown_scheme, CertifyJob, Job, ReplyTo, Shared, Work};
use crate::store::crc32_update;
use crate::wire::{self, Request, Response, Skimmed, WireError};
use dpc_core::scheme::Assignment;
use dpc_graph::Graph;
use dpc_interactive::dmam::{challenge_from_seed, run_forged, DmamPlanarity};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Read granularity of both front ends.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Process-wide connection counter: the high 32 bits of every trace
/// id, shared by both front ends so ids stay unique across them.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// One finished response on its way to its connection: the frame body,
/// when it was finished (the reorder-wait stage starts there), and the
/// request's trace (`None` for replies made at the connection layer).
pub(crate) struct Done {
    pub(crate) seq: u64,
    pub(crate) body: Vec<u8>,
    pub(crate) finished: Instant,
    pub(crate) trace: Option<Trace>,
}

impl Done {
    /// A reply finished now, outside the worker pool.
    pub(crate) fn now(seq: u64, body: Vec<u8>, trace: Option<Trace>) -> Done {
        Done {
            seq,
            body,
            finished: Instant::now(),
            trace,
        }
    }
}

/// What the front end does with one peeled frame.
pub(crate) enum Step {
    /// Queue it for the workers.
    Job(Job),
    /// Answered at the connection layer: a decode error, a chunk ack or
    /// chunk error, or an interactive round.
    Reply(Done),
    /// The frame header is over the limit: send this reply, then close.
    /// The stream cannot be resynchronized.
    Close(Done),
}

/// One connection's protocol state.
pub(crate) struct ConnCore {
    /// Process-wide connection id (epoll tokens are per-loop and
    /// collide across loops, so they cannot be it).
    id: u64,
    /// Sequence number of the next frame.
    next_seq: u64,
    chunks: ChunkSessions,
    interactive: InteractiveSessions,
}

impl ConnCore {
    pub(crate) fn new() -> ConnCore {
        ConnCore {
            id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
            next_seq: 0,
            chunks: ChunkSessions::default(),
            interactive: InteractiveSessions::default(),
        }
    }

    /// Peels one frame off the front of `buf`: `None` while no whole
    /// frame (or oversized header) is there, else the bytes consumed
    /// and the step. `reply` names where the worker sends a job's
    /// response.
    pub(crate) fn step(
        &mut self,
        buf: &[u8],
        shared: &Shared,
        reply: impl FnOnce() -> ReplyTo,
    ) -> Option<(usize, Step)> {
        let header: [u8; 4] = buf.get(..4)?.try_into().expect("4 bytes");
        let len = u32::from_le_bytes(header) as usize;
        let m = &shared.metrics;
        let seq = self.next_seq;
        if len > wire::MAX_FRAME_BYTES {
            m.errors.fetch_add(1, Ordering::Relaxed);
            self.next_seq += 1;
            let msg = WireError::Protocol(format!("frame of {len} bytes exceeds the limit"));
            let body = Response::Error(msg.to_string()).encode();
            return Some((4, Step::Close(Done::now(seq, body, None))));
        }
        let body = buf.get(4..4 + len)?;
        self.next_seq += 1;
        let used = 4 + len;
        let decode_start = Instant::now();
        let (work, kind, scheme) = match self.read(body, shared) {
            ControlFlow::Continue(read) => read,
            ControlFlow::Break(resp) => {
                let done = Done::now(seq, resp.encode(), None);
                return Some((used, Step::Reply(done)));
            }
        };
        count_request(m, &work);
        let read_decode = decode_start.elapsed();
        m.stages.read_decode.record(read_decode);
        let mut trace = Trace::new((self.id << 32) | (seq & 0xffff_ffff), kind, scheme);
        trace.read_decode_us = duration_us(read_decode);
        let received = Instant::now();
        let job = Job {
            work,
            seq,
            reply: reply(),
            received,
            dequeued: received,
            trace,
        };
        Some((used, Step::Job(job)))
    }

    /// Reads one frame body: the job's work with the wire kind and
    /// scheme id its trace carries, or the reply made here — a decode
    /// error, a chunk ack or chunk error, or an interactive round.
    fn read(&mut self, body: &[u8], shared: &Shared) -> ControlFlow<Response, (Work, u8, u16)> {
        let m = &shared.metrics;
        let req = match wire::skim_request(body) {
            Ok(Skimmed::Request(req)) => req,
            // a certify is only validated here: the worker probes the
            // cache on its bytes and decodes the graph on a miss, so a
            // hit never builds it (neither filter below takes a certify)
            Ok(Skimmed::Certify(frame)) => {
                let work = Work::Certify(CertifyJob::from_frame(&frame));
                return ControlFlow::Continue((work, wire::REQ_CERTIFY as u8, frame.scheme.0));
            }
            Err(e) => {
                // a request-level decode error is a normal answer on a
                // healthy connection: the framing is intact
                m.errors.fetch_add(1, Ordering::Relaxed);
                return ControlFlow::Break(Response::Error(e.to_string()));
            }
        };
        // the trace keeps the wire kind: a certify born from a
        // GraphChunkEnd shows up as "chunkend" in the slow log
        let kind = req.kind_tag();
        let scheme = req.scheme().map_or(0, |s| s.0);
        let req = match self.chunks.step(req, m) {
            ControlFlow::Continue(req) => req,
            ControlFlow::Break(resp) => {
                // chunk acks and chunk errors share the stats bucket
                // with the other maintenance kinds
                m.stats.fetch_add(1, Ordering::Relaxed);
                return ControlFlow::Break(resp);
            }
        };
        // interactive rounds are answered here too: the dMAM verifier
        // is a linear scan, and keeping it out of the worker pool makes
        // the transcript identical across front ends by construction
        let req = self.interactive.step(req, shared)?;
        ControlFlow::Continue((req.into(), kind, scheme))
    }

    /// Connection teardown: an unfinished upload counts as aborted.
    pub(crate) fn close(&mut self, m: &Metrics) {
        self.chunks.abandon(m);
    }
}

/// Reorder by sequence number: items filed in any order come out
/// strictly in order, each once.
pub(crate) struct Reorder<T> {
    next: u64,
    pending: HashMap<u64, T>,
}

impl<T> Default for Reorder<T> {
    fn default() -> Self {
        Reorder {
            next: 0,
            pending: HashMap::new(),
        }
    }
}

impl<T> Reorder<T> {
    pub(crate) fn insert(&mut self, seq: u64, item: T) {
        self.pending.insert(seq, item);
    }

    /// The item with the next sequence number, once it has arrived.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }
}

/// Bumps the per-kind request counter. An exhaustive match, so adding
/// a `Request` variant without deciding its counter fails to compile
/// instead of silently misattributing it.
fn count_request(m: &Metrics, work: &Work) {
    let counter = match work {
        Work::Certify(_) => &m.certify,
        Work::Request(req) => match req {
            Request::Check { .. } => &m.check,
            Request::Gen { .. } => &m.gen,
            Request::SoundnessProbe { .. } => &m.soundness,
            // introspection and replication-maintenance kinds share
            // the stats counter — the v2 prefix is frozen, and the v6
            // replication counters already break StoreList/StorePush
            // traffic out by what it *did* (merged/duplicate records)
            Request::Stats | Request::SlowLog | Request::StoreList | Request::StorePush { .. } => {
                &m.stats
            }
            // certify, chunk and interactive kinds never get here
            // (every certify, a completed chunk End included, is
            // `Work::Certify`, and the filters answer the rest); these
            // arms only keep the match exhaustive. Audit is a
            // maintenance kind and rides the stats bucket.
            Request::Certify { .. }
            | Request::GraphChunkBegin { .. }
            | Request::GraphChunk { .. }
            | Request::GraphChunkEnd { .. }
            | Request::InteractiveBegin { .. }
            | Request::InteractiveRespond { .. }
            | Request::Audit { .. } => &m.stats,
        },
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// One open chunked-upload session: the incremental graph decoder
/// plus the sequencing and integrity state the protocol checks.
/// Memory here is O(chunk): the decoder holds the graph *index* under
/// construction and a < 10-byte carry, never the full encoding.
struct ChunkSession {
    session: u64,
    bypass_cache: bool,
    scheme: SchemeId,
    decoder: wire::GraphStreamDecoder,
    /// Chunks accepted so far == the seq the next chunk must carry.
    received: u64,
    /// Payload bytes accepted so far.
    bytes: u64,
    /// Running CRC-32 state over the whole payload (`!0` initial;
    /// finalized with a complement at End).
    crc: u32,
}

/// Per-connection chunk-session tracker (at most one active session —
/// a second Begin aborts the first, which is also the client's clean
/// reset path after its own error). Chunk kinds are answered here
/// (`Break`), never enqueued; a clean `GraphChunkEnd` continues as a
/// summary-mode certify of the reassembled graph.
#[derive(Default)]
struct ChunkSessions {
    active: Option<ChunkSession>,
}

impl ChunkSessions {
    /// Kills the active session (if any) with an error response. The
    /// session dies; the connection — and its sequence numbers —
    /// survive, so the client can Begin again.
    fn fail(&mut self, m: &Metrics, msg: String) -> ControlFlow<Response, Request> {
        self.abandon(m);
        m.errors.fetch_add(1, Ordering::Relaxed);
        ControlFlow::Break(Response::Error(msg))
    }

    /// Counts an abandoned session when its connection closes (idle
    /// reap, EOF, or error teardown) with the upload unfinished.
    fn abandon(&mut self, m: &Metrics) {
        if self.active.take().is_some() {
            m.chunk_aborts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs one decoded request through the session state machine.
    fn step(&mut self, req: Request, m: &Metrics) -> ControlFlow<Response, Request> {
        match req {
            Request::GraphChunkBegin {
                session,
                bypass_cache,
                scheme,
            } => {
                // a fresh Begin replaces a half-done session: this is
                // how a client resets without reconnecting
                self.abandon(m);
                m.chunk_sessions.fetch_add(1, Ordering::Relaxed);
                self.active = Some(ChunkSession {
                    session,
                    bypass_cache,
                    scheme,
                    decoder: wire::GraphStreamDecoder::new(),
                    received: 0,
                    bytes: 0,
                    crc: !0,
                });
                ControlFlow::Break(Response::ChunkAck {
                    session,
                    received: 0,
                })
            }
            Request::GraphChunk {
                session,
                seq,
                payload,
            } => {
                let Some(st) = self.active.as_mut() else {
                    return self.fail(m, "graph chunk outside a chunk session".into());
                };
                if st.session != session {
                    let open = st.session;
                    return self.fail(
                        m,
                        format!("chunk for session {session} but session {open} is open"),
                    );
                }
                if seq != st.received {
                    // out-of-order, duplicated, or gapped chunk: the
                    // stream cannot be trusted past this point
                    let expect = st.received;
                    return self.fail(
                        m,
                        format!("chunk seq {seq} out of order (expected {expect})"),
                    );
                }
                st.crc = crc32_update(st.crc, &payload);
                st.bytes += payload.len() as u64;
                st.received += 1;
                if let Err(e) = st.decoder.feed(&payload) {
                    return self.fail(m, e.to_string());
                }
                m.chunk_chunks.fetch_add(1, Ordering::Relaxed);
                m.chunk_bytes
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                m.chunk_carry_peak
                    .fetch_max(st.decoder.carry_len() as u64, Ordering::Relaxed);
                ControlFlow::Break(Response::ChunkAck {
                    session,
                    received: st.received,
                })
            }
            Request::GraphChunkEnd {
                session,
                total_chunks,
                total_bytes,
                crc,
            } => {
                let Some(st) = self.active.take() else {
                    return self.fail(m, "chunk end outside a chunk session".into());
                };
                let problem = if st.session != session {
                    format!(
                        "chunk end for session {session} but session {} is open",
                        st.session
                    )
                } else if total_chunks != st.received || total_bytes != st.bytes {
                    format!(
                        "chunk totals mismatch: client sent {total_chunks} chunks / \
                         {total_bytes} bytes, server saw {} / {}",
                        st.received, st.bytes
                    )
                } else if !st.crc != crc {
                    "reassembled graph payload failed its CRC check".into()
                } else {
                    match st.decoder.finish() {
                        Ok(graph) => {
                            return ControlFlow::Continue(Request::Certify {
                                graph,
                                bypass_cache: st.bypass_cache,
                                cached_only: false,
                                summary: true,
                                scheme: st.scheme,
                            })
                        }
                        Err(e) => e.to_string(),
                    }
                };
                // the session was already taken: count its abort here
                m.chunk_aborts.fetch_add(1, Ordering::Relaxed);
                m.errors.fetch_add(1, Ordering::Relaxed);
                ControlFlow::Break(Response::Error(problem))
            }
            other => ControlFlow::Continue(other),
        }
    }
}

/// One open interactive-verification session (wire v8): the graph and
/// Merlin's commitment parked between the `InteractiveBegin` that got
/// the public coin back and the `InteractiveRespond` that closes the
/// round.
struct InteractiveSession {
    session: u64,
    challenge: u64,
    graph: Graph,
    commit: Assignment,
}

/// Per-connection interactive-session tracker (at most one active
/// session — a second Begin replaces the first, which is also the
/// client's clean reset path). Both rounds are answered here
/// (`Break`): the dMAM verifier is a linear-time scan of the committed
/// payloads, far below a prove.
#[derive(Default)]
struct InteractiveSessions {
    active: Option<InteractiveSession>,
}

impl InteractiveSessions {
    /// Kills the active session (if any) with an error response; the
    /// connection — and its sequence numbers — survive.
    fn fail(&mut self, m: &Metrics, msg: String) -> ControlFlow<Response, Request> {
        self.active = None;
        m.errors.fetch_add(1, Ordering::Relaxed);
        ControlFlow::Break(Response::Error(msg))
    }

    /// Runs one decoded request through the session state machine.
    fn step(&mut self, req: Request, shared: &Shared) -> ControlFlow<Response, Request> {
        let m = &shared.metrics;
        match req {
            Request::InteractiveBegin {
                session,
                seed,
                graph,
                commit,
                scheme,
            } => {
                // a fresh Begin replaces whatever round was half open
                self.active = None;
                let Some(entry) = shared.registry.get(scheme) else {
                    return ControlFlow::Break(unknown_scheme(shared, scheme, 1));
                };
                if !entry.caps.interactive {
                    return self.fail(
                        m,
                        format!(
                            "scheme {} does not run interactive sessions \
                             (the dMAM protocol is defined for planarity)",
                            entry.name
                        ),
                    );
                }
                m.interactive_sessions.fetch_add(1, Ordering::Relaxed);
                // Arthur's public coin is a pure function of the seed
                // the client committed to, so a logged (trace id,
                // seed) pair replays to the same challenge — and the
                // same verdict
                let challenge = challenge_from_seed(seed);
                self.active = Some(InteractiveSession {
                    session,
                    challenge,
                    graph,
                    commit,
                });
                ControlFlow::Break(Response::Challenge { session, challenge })
            }
            Request::InteractiveRespond { session, response } => {
                let Some(st) = self.active.take() else {
                    return self.fail(m, "interactive response outside a session".into());
                };
                if st.session != session {
                    let open = st.session;
                    return self.fail(
                        m,
                        format!(
                            "interactive response for session {session} \
                             but session {open} is open"
                        ),
                    );
                }
                if response.certs.len() != st.graph.node_count() {
                    return self.fail(
                        m,
                        format!(
                            "response for {} nodes on a {}-node graph",
                            response.certs.len(),
                            st.graph.node_count()
                        ),
                    );
                }
                // contained like any worker handler: a panicking
                // verifier must never take down a reactor loop
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_forged(
                        &DmamPlanarity::new(),
                        &st.graph,
                        st.challenge,
                        &st.commit,
                        &response,
                    )
                }));
                let Ok(outcome) = run else {
                    return self.fail(
                        m,
                        "internal error: the interactive verifier panicked".into(),
                    );
                };
                let accept = outcome.all_accept();
                if !accept {
                    m.interactive_rejects.fetch_add(1, Ordering::Relaxed);
                }
                ControlFlow::Break(Response::Verdict {
                    session,
                    challenge: st.challenge,
                    accept,
                    reject_count: outcome.reject_count() as u64,
                    nodes: st.graph.node_count() as u64,
                    max_commit_bits: outcome.max_commit_bits as u64,
                    max_response_bits: outcome.max_response_bits as u64,
                    soundness_ppm: soundness_ppm(&st.graph),
                })
            }
            other => ControlFlow::Continue(other),
        }
    }
}

/// The dMAM planarity protocol's per-session soundness bound, in
/// parts per million. The challenge opens one uniformly random port
/// per node, so each endpoint of a cheated edge probes it with
/// probability at least `1/Δ` — a forged proof survives the round
/// with probability at most `1 − 1/Δ`.
fn soundness_ppm(g: &Graph) -> u64 {
    let max_deg = (0..g.node_count() as u32)
        .map(|v| g.degree(v))
        .max()
        .unwrap_or(0)
        .max(1) as u64;
    1_000_000 - 1_000_000 / max_deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CertCache;
    use crate::registry::SchemeRegistry;
    use crate::server::ServeConfig;
    use crate::store::{crc32, TieredCache};
    use dpc_graph::generators;
    use dpc_interactive::dmam::DmamProtocol;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::sync::mpsc;

    fn shared() -> Shared {
        let cfg = ServeConfig::default();
        let cache = TieredCache::hot_only(CertCache::new(cfg.cache));
        Shared::new(cfg, SchemeRegistry::standard(), cache, "local".into())
    }

    fn frame(body: Vec<u8>) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend(body);
        out
    }

    /// Feeds `pieces` one after another, peeling every whole frame
    /// after each the way both front ends do. Each step is reduced to its
    /// sequence number, what it is, and the job's request kind or the
    /// reply's bytes.
    fn drive(shared: &Shared, pieces: &[&[u8]]) -> Vec<(u64, &'static str, Vec<u8>)> {
        let (tx, _rx) = mpsc::channel();
        let mut core = ConnCore::new();
        let (mut buf, mut seen) = (Vec::new(), Vec::new());
        for piece in pieces {
            buf.extend_from_slice(piece);
            let mut used = 0;
            while let Some((n, step)) =
                core.step(&buf[used..], shared, || ReplyTo::Channel(tx.clone()))
            {
                used += n;
                seen.push(match step {
                    Step::Job(job) => {
                        let kind = match &job.work {
                            Work::Certify(_) => wire::REQ_CERTIFY as u8,
                            Work::Request(req) => req.kind_tag(),
                        };
                        (job.seq, "job", vec![kind])
                    }
                    Step::Reply(done) => (done.seq, "reply", done.body),
                    Step::Close(done) => {
                        seen.push((done.seq, "close", done.body));
                        return seen;
                    }
                });
            }
            buf.drain(..used);
        }
        seen
    }

    /// Certify, a decode error, a whole chunked upload, a stray chunk,
    /// an interactive Begin and a Respond for the wrong session.
    fn burst() -> Vec<u8> {
        let g = generators::grid(3, 3);
        let scheme = SchemeId::PLANARITY;
        let mut payload = Vec::new();
        wire::encode_graph(&mut payload, &g);
        let commit = DmamPlanarity::new().commit(&g).unwrap();
        [
            wire::encode_certify_request(&g, false, scheme),
            vec![99],
            wire::encode_chunk_begin_request(7, false, scheme),
            wire::encode_chunk_request(7, 0, &payload),
            wire::encode_chunk_end_request(7, 1, payload.len() as u64, crc32(&payload)),
            wire::encode_chunk_request(7, 1, &payload),
            wire::encode_interactive_begin_request(9, 42, &g, &commit, scheme),
            wire::encode_interactive_respond_request(8, &commit),
        ]
        .into_iter()
        .flat_map(frame)
        .collect()
    }

    #[test]
    fn a_pipelined_burst_steps_the_same_at_every_cut() {
        let shared = shared();
        let bytes = burst();
        let whole = drive(&shared, &[&bytes]);
        // every frame takes exactly one sequence number, in order, and
        // only the certify and the chunk End (as the certify it
        // becomes) reach the queue
        assert_eq!(
            whole.iter().map(|s| s.0).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        let what: Vec<&str> = whole.iter().map(|s| s.1).collect();
        assert_eq!(
            what,
            ["job", "reply", "reply", "reply", "job", "reply", "reply", "reply"]
        );
        assert_eq!(whole[0].2, whole[4].2);
        let m = &shared.metrics;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(count(&m.certify), 2, "the certify and the chunk End");
        assert_eq!(count(&m.stats), 3, "two chunk acks and a chunk error");
        assert_eq!(count(&m.errors), 3, "decode, stray chunk, wrong session");
        assert_eq!(count(&m.chunk_sessions), 1);
        assert_eq!(count(&m.interactive_sessions), 1);
        for cut in 0..=bytes.len() {
            let split = drive(&shared, &[&bytes[..cut], &bytes[cut..]]);
            assert_eq!(split, whole, "cut at byte {cut}");
        }
    }

    #[test]
    fn an_oversize_header_yields_one_fatal_reply() {
        let shared = shared();
        let g = generators::grid(2, 2);
        let mut bytes = frame(wire::encode_certify_request(&g, false, SchemeId::PLANARITY));
        bytes.extend((wire::MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        bytes.extend([0u8; 32]);
        let seen = drive(&shared, &[&bytes, &bytes]);
        let what: Vec<(u64, &str)> = seen.iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(what, [(0, "job"), (1, "close")]);
        let Response::Error(msg) = Response::decode(&seen[1].2).unwrap() else {
            panic!("not an error")
        };
        assert!(msg.contains("exceeds the limit"), "{msg}");
        assert_eq!(shared.metrics.errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reorder_releases_a_random_permutation_in_order() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1u64, 2, 17, 500] {
            let mut seqs: Vec<u64> = (0..n).collect();
            seqs.shuffle(&mut rng);
            let mut order = Reorder::default();
            let mut out = Vec::new();
            for seq in seqs {
                order.insert(seq, seq);
                while let Some(item) = order.pop() {
                    out.push(item);
                }
            }
            assert_eq!(out, (0..n).collect::<Vec<_>>());
        }
    }
}
