//! The client's one operation surface: rendezvous hashing across
//! `dpc serve` nodes, with failover.
//!
//! Every operation — certify, check, gen, soundness, interactive,
//! audit, stats, slowlog, and the store exchange — is written once,
//! on [`ClusterClient`], over the bare [`Client`] connection. A single
//! server is a one-node ring ([`ClusterClient::connect`]): the prover
//! needs one interaction and no randomness, so a request proves the
//! same certificate on any node and can restart on any node, and
//! routing on a ring of one skips the key hash entirely.
//!
//! Certificates are content-addressed (`uvarint(scheme id)` + the
//! canonical [`dpc_graph::canon::graph_hash`]), and the client
//! computes that key deterministically *before* opening any
//! connection — so request routing needs no coordinator and no
//! gossip. A [`ClusterClient`] holds N server addresses, ranks them
//! per key by rendezvous (highest-random-weight) hashing, sends each
//! request to the top-ranked node, and fails over down the ranking
//! when a node cannot be reached. Servers stay share-nothing on the
//! request path: each node's cache and store simply fill with the
//! keys the ring assigns it.
//!
//! With a replication factor above one
//! ([`ClusterClient::with_replication`]) each certificate lives on
//! the top-k nodes of its ranking instead of just the owner: fresh
//! proves are StorePush-copied to the other replicas, reads walk the
//! top-k with cheap cached-only probes and **read-repair** any
//! higher-ranked replica that missed, and the servers' own
//! anti-entropy sweep (`dpc serve --peers`) converges whatever the
//! client could not reach — so killing any single node loses no
//! cached certificate and forces no re-prove.
//!
//! Rendezvous hashing (rather than a ring of virtual tokens) keeps
//! the stability property the store layer wants: when a node leaves,
//! only *its* keys remap (each surviving node keeps its rank-1 set),
//! so a drained node's segment files can be
//! [`crate::store::SegmentStore::merge_from`]-d into any survivor and
//! every certificate stays exactly one `get` away.
//!
//! The failure model is connection-level: connect errors and broken
//! *or unparseable* streams fail over to the next-ranked node — once
//! a frame cannot be decoded the stream offset is untrustworthy, so a
//! version-skewed peer is handled like a dead one, and retrying is
//! always safe because requests are idempotent (the same key proves
//! the same certificate anywhere). An error *response* from a
//! reachable server is a real answer and is returned, not retried.
//! Per-request failover is tracked in [`ClusterStats`], the
//! client-side mirror of the servers' Stats.

use crate::client::{
    AuditOptions, CertifyOptions, CheckOptions, Client, GenOptions, InteractiveOptions,
    SoundnessOptions,
};
use crate::metrics::{SlowLogEntry, StatsSnapshot};
use crate::registry::SchemeId;
use crate::store::{RecordKind, StoreRecord};
use crate::wire::{self, Response, WireError};
use dpc_core::batch::BatchSummary;
use dpc_core::harness::Outcome;
use dpc_graph::canon;
use dpc_graph::Graph;
use dpc_interactive::dmam::{DmamPlanarity, DmamProtocol};
use dpc_runtime::put_uvarint;
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Domain separator between the routing key and the node address in
/// a rendezvous score (neither side can fake a boundary shift).
const SCORE_SEP: u8 = 0xa5;

/// An ordered set of node addresses with deterministic per-key
/// ranking. The pure routing core of [`ClusterClient`] — tests and
/// tools can rank keys without opening a single connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    addrs: Vec<String>,
}

/// MurmurHash3's 64-bit finalizer: each input bit flips each output
/// bit with probability close to 1/2.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

impl Ring {
    /// A ring over the given node addresses. Order does not affect
    /// routing (scores are per-address), but duplicates would make
    /// one node own every rank of its keys — silently disabling
    /// failover — so they are rejected, as is an empty set. The
    /// duplicate check is *literal*: list each server by exactly one
    /// canonical address, because aliases of the same machine
    /// (`localhost:4700` vs `127.0.0.1:4700`, hostname vs IP) cannot
    /// be detected and would quietly shrink the effective ring.
    pub fn new<I, S>(addrs: I) -> Result<Ring, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let addrs: Vec<String> = addrs
            .into_iter()
            .map(Into::into)
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        if addrs.is_empty() {
            return Err("a cluster needs at least one node address".to_string());
        }
        let mut seen = addrs.clone();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!(
                "duplicate node address {:?} (each node may appear once)",
                seen.windows(2).find(|w| w[0] == w[1]).expect("dup")[0]
            ));
        }
        Ok(Ring { addrs })
    }

    /// The node addresses, in construction order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True for a ring with no nodes (unconstructible via [`Ring::new`]).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The rendezvous score of `key` on `addr`: FNV-1a-128 over
    /// `key ‖ 0xa5 ‖ addr`, with both 64-bit halves passed through
    /// murmur3's `fmix64` and cross-mixed (`lo' = fmix64(lo)`,
    /// `hi' = fmix64(hi ^ lo')`, score `hi' ‖ fmix64(lo' ^ hi')`).
    /// Raw FNV barely moves its high bits when addresses differ only
    /// in trailing port digits, so same-host nodes on adjacent ports
    /// could own almost nothing; the finalizer spreads every input bit
    /// over the whole score. Deterministic across processes, so every
    /// client ranks identically.
    pub fn score(key: &[u8], addr: &str) -> u128 {
        let mut buf = Vec::with_capacity(key.len() + addr.len() + 1);
        buf.extend_from_slice(key);
        buf.push(SCORE_SEP);
        buf.extend_from_slice(addr.as_bytes());
        let h = canon::hash_bytes(&buf).0;
        let lo = fmix64(h as u64);
        let hi = fmix64((h >> 64) as u64 ^ lo);
        (hi as u128) << 64 | fmix64(lo ^ hi) as u128
    }

    /// Node indices ranked for `key`, best first: the failover order.
    /// Ties (never observed with distinct addresses, but the order
    /// must be total) break toward the lexicographically smaller
    /// address.
    pub fn rank(&self, key: &[u8]) -> Vec<usize> {
        let mut scored: Vec<(u128, usize)> = self
            .addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| (Self::score(key, addr), i))
            .collect();
        scored.sort_unstable_by(|a, b| {
            b.0.cmp(&a.0)
                .then_with(|| self.addrs[a.1].cmp(&self.addrs[b.1]))
        });
        scored.into_iter().map(|(_, i)| i).collect()
    }

    /// The owning (rank-1) node index for `key`.
    pub fn owner(&self, key: &[u8]) -> usize {
        self.rank(key)[0]
    }
}

/// The routing key of a graph-carrying request: `uvarint(scheme id)`
/// followed by the 128-bit canonical graph hash (structure *and*
/// identifiers — the same content the servers key their caches by),
/// little-endian.
pub fn graph_key(scheme: SchemeId, g: &Graph) -> Vec<u8> {
    let mut key = Vec::with_capacity(19);
    put_uvarint(&mut key, scheme.0 as u64);
    key.extend_from_slice(&canon::graph_hash(g).0.to_le_bytes());
    key
}

/// The routing key of a Gen request, which carries no graph: the
/// scheme id plus the generation parameters. Any node can generate,
/// but a stable key keeps repeat generations on one node's pipeline.
pub fn gen_key(scheme: SchemeId, family: &str, n: u32, seed: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(family.len() + 16);
    put_uvarint(&mut key, scheme.0 as u64);
    key.extend_from_slice(family.as_bytes());
    key.push(0);
    put_uvarint(&mut key, n as u64);
    put_uvarint(&mut key, seed);
    key
}

/// Deterministically picks `per_node` planar triangulations of `n`
/// nodes owned by each node of `ring`, by scanning seeds and
/// bucketing each graph under its rendezvous owner. Which keys a
/// node owns depends on its address (often an OS-assigned port), so
/// callers that must *cover* the ring — the spread/failover tests,
/// and `dpc bench-serve --nodes`, whose summary claims every node
/// served traffic — select their graphs through the pure ring
/// instead of hoping a blind sample lands everywhere. The seed range
/// starts at 10 000, far from the small seeds tests hand-pick for
/// fixed workloads, so a selected graph never duplicates one
/// (which would turn an expected fresh prove into a cache hit).
///
/// # Panics
///
/// If the seed budget (2000 seeds per node, at least 4000) cannot
/// cover the ring — which would take an astronomically skewed hash,
/// at any ring size, since the budget scales with the node count.
pub fn graphs_by_owner(ring: &Ring, per_node: usize, n: u32) -> Vec<Vec<Graph>> {
    let mut buckets: Vec<Vec<Graph>> = vec![Vec::new(); ring.len()];
    let budget = 4000u64.max(2000 * (ring.len() as u64 + per_node as u64));
    for seed in 10_000..10_000 + budget {
        if buckets.iter().all(|b| b.len() >= per_node) {
            break;
        }
        let g = dpc_graph::generators::stacked_triangulation(n, seed);
        let owner = ring.owner(&graph_key(SchemeId::PLANARITY, &g));
        if buckets[owner].len() < per_node {
            buckets[owner].push(g);
        }
    }
    assert!(
        buckets.iter().all(|b| b.len() >= per_node),
        "{budget} seeds cover every node of a {}-node ring",
        ring.len()
    );
    buckets
}

/// Client-side counters of one node, inside [`ClusterStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Node address (as configured).
    pub addr: String,
    /// Requests this node answered.
    pub routed: u64,
    /// Connection-level failures observed against this node (each one
    /// excluded it for the remainder of that request).
    pub failures: u64,
}

/// Client-side view of a cluster's traffic: where requests were
/// routed and how often the ranking had to fail over. This is *not*
/// server state — every process driving the ring keeps its own.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Requests that got an answer from some node.
    pub requests: u64,
    /// Fail-over hops: attempts that hit an unreachable node before
    /// a lower-ranked node answered.
    pub failovers: u64,
    /// Requests that exhausted every node without an answer.
    pub exhausted: u64,
    /// Certificates copied synchronously to the other top-k replicas
    /// after a fresh prove (replication factor > 1 only).
    pub replica_writes: u64,
    /// Cached hits served by a lower-ranked replica that triggered an
    /// asynchronous backfill of the replicas ranked above it.
    pub read_repairs: u64,
    /// Replica copies that failed (target unreachable or errored);
    /// the servers' anti-entropy sweep repairs these later.
    pub replica_errors: u64,
    /// Per-node counters, indexed like the ring's addresses.
    pub per_node: Vec<NodeStats>,
}

impl ClusterStats {
    fn new(addrs: &[String]) -> ClusterStats {
        ClusterStats {
            per_node: addrs
                .iter()
                .map(|a| NodeStats {
                    addr: a.clone(),
                    ..NodeStats::default()
                })
                .collect(),
            ..ClusterStats::default()
        }
    }

    /// Number of nodes that answered at least one request.
    pub fn nodes_used(&self) -> usize {
        self.per_node.iter().filter(|n| n.routed > 0).count()
    }
}

/// The result of one [`ClusterClient::certify_distributed`] sweep.
#[derive(Debug)]
pub struct DistributedReport {
    /// Per-graph answers, in input order: the measured outcome of a
    /// certified graph, or the decline reason / error text otherwise.
    pub results: Vec<Result<Outcome, String>>,
    /// [`BatchSummary::fold`] over the outcomes, in input order — the
    /// same integer fold a single node applies, so this summary is
    /// byte-identical to the sequential one over the same graphs.
    pub summary: BatchSummary,
    /// Nodes that answered at least one certify in this sweep.
    pub nodes_used: usize,
    /// Graphs certified by the fleet (outcome obtained).
    pub delegated: u64,
    /// Graphs whose every ranked node failed at the connection level.
    pub delegate_errors: u64,
    /// Wall time of the client-side summary fold.
    pub merge_wall: Duration,
}

/// Maps a summary-certify response into its fold input: the outcome
/// of a certified graph, the decline reason or error text otherwise.
fn summary_result(resp: Response) -> Result<Outcome, String> {
    match resp {
        Response::CertifiedSummary { outcome, .. } => Ok(outcome),
        Response::Declined { reason, .. } => Err(reason),
        Response::Error(e) => Err(e),
        other => Err(format!("unexpected response to Certify: {other:?}")),
    }
}

/// A client for one `dpc serve` node or a cluster of them — the one
/// place each operation is written. It rendezvous-routes each request
/// by its content key and fails over on connection errors.
/// Connections are opened lazily per node and reused; a failed
/// connection is dropped and re-dialed on the node's next turn. A
/// single server is a one-node ring ([`ClusterClient::connect`]).
///
/// The wire protocol is exactly the single-node one — a server cannot
/// tell a ring's request from any other.
pub struct ClusterClient {
    ring: Ring,
    conns: Vec<Option<Client>>,
    /// Nodes that have been dialed at least once; the connect-wait
    /// retry window only applies before this flips (boot races), so
    /// a dead node costs the window once per client, not per request.
    dialed: Vec<bool>,
    connect_wait: Option<Duration>,
    /// Copies of each certificate to keep, on the top-k ranked nodes.
    /// 1 (the default) is the original single-owner routing.
    replication: usize,
    stats: ClusterStats,
}

/// Process-wide session id source for chunked uploads and interactive
/// sessions. Ids only need to be distinct per connection (the server
/// tracks one session per connection), but globally unique ids make
/// interleaved logs unambiguous for free.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

/// Takes the payload of the response variant `$pat`: an error
/// response becomes [`WireError::Protocol`] with the server's text,
/// any other variant an "unexpected response" error.
macro_rules! expect {
    ($resp:expr, $what:literal, $pat:pat => $val:expr) => {
        match $resp {
            $pat => Ok($val),
            Response::Error(e) => Err(WireError::Protocol(e)),
            other => Err(WireError::Protocol(format!(
                concat!("unexpected response to ", $what, ": {:?}"),
                other
            ))),
        }
    };
}

/// The `(merged, duplicates)` counts of a StorePush answer.
fn pushed(resp: Response) -> Result<(u64, u64), WireError> {
    expect!(resp, "StorePush", Response::StorePushed { merged, duplicates } =>
        (merged, duplicates))
}

/// Folds the answers of every node that answered into one; errors
/// only when no node answered.
fn fold<T: Clone>(
    answers: &[(String, Result<T, WireError>)],
    merge: impl Fn(&mut T, &T),
) -> Result<T, WireError> {
    let mut up = answers
        .iter()
        .filter_map(|(_, answer)| answer.as_ref().ok());
    let Some(mut folded) = up.next().cloned() else {
        return Err(WireError::Io(io::Error::new(
            io::ErrorKind::NotConnected,
            "no cluster node is reachable",
        )));
    };
    up.for_each(|answer| merge(&mut folded, answer));
    Ok(folded)
}

impl ClusterClient {
    /// A client over the given node addresses (at least one, no
    /// duplicates). No connection is opened yet.
    pub fn new<I, S>(addrs: I) -> Result<ClusterClient, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Ok(Self::over(Ring::new(addrs)?))
    }

    /// A client over an existing ring.
    pub fn over(ring: Ring) -> ClusterClient {
        let stats = ClusterStats::new(ring.addrs());
        let conns = ring.addrs().iter().map(|_| None).collect();
        let dialed = ring.addrs().iter().map(|_| false).collect();
        ClusterClient {
            ring,
            conns,
            dialed,
            connect_wait: None,
            replication: 1,
            stats,
        }
    }

    /// A one-node ring over one server, dialed at once: an unreachable
    /// address fails here, not at the first request.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<ClusterClient> {
        Client::connect(addr).map(ClusterClient::from)
    }

    /// [`ClusterClient::connect`], retrying the dial for up to `wait`
    /// (see [`Client::connect_with_retry`]).
    pub fn connect_with_retry<A: ToSocketAddrs + Copy>(
        addr: A,
        wait: Duration,
    ) -> io::Result<ClusterClient> {
        Client::connect_with_retry(addr, wait).map(ClusterClient::from)
    }

    /// Keeps each certificate on the top-`k` nodes of its rendezvous
    /// ranking (clamped to `1..=ring.len()`). With `k == 1` routing
    /// is byte-identical to the unreplicated client. With `k > 1`,
    /// non-bypass certifies probe the top-k replicas with cached-only
    /// requests (a probe never triggers a prove), read-repair any
    /// higher-ranked replica that missed, and copy fresh proves to
    /// every replica — so any single node can die without losing a
    /// cached certificate.
    pub fn with_replication(mut self, k: usize) -> ClusterClient {
        self.replication = k.clamp(1, self.ring.len());
        self
    }

    /// The configured replication factor (see
    /// [`ClusterClient::with_replication`]).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Retries each node's *first* dial (in this client's lifetime)
    /// for up to `wait` — covering the boot race where servers are
    /// still binding. Every later dial of a node is a single attempt:
    /// once a node has been tried, its death costs one refused
    /// connect per request, never a timeout.
    pub fn with_connect_wait(mut self, wait: Duration) -> ClusterClient {
        self.connect_wait = Some(wait);
        self
    }

    /// The configured connect-wait, if any (see
    /// [`ClusterClient::with_connect_wait`]).
    pub fn connect_wait(&self) -> Option<Duration> {
        self.connect_wait
    }

    /// The routing ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The client-side traffic counters.
    pub fn cluster_stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Node indices ranked for a request, best first. A one-node ring
    /// has one ranking, so `key` — for a graph-carrying request, a hash
    /// over the whole graph — is never computed.
    fn ranked(&self, key: impl FnOnce() -> Vec<u8>) -> Vec<usize> {
        if self.ring.len() == 1 {
            return vec![0];
        }
        self.ring.rank(&key())
    }

    /// Runs one request — a single frame, or a session of several
    /// that must share a connection — on the `ranked` nodes in order.
    /// A connection-level error (dead node, broken or unparseable
    /// stream) excludes that node for the rest of this request and
    /// restarts the whole request on the next one; an answer, error
    /// responses included, is returned.
    fn route(
        &mut self,
        ranked: &[usize],
        mut run: impl FnMut(&mut Client) -> Result<Response, WireError>,
    ) -> Result<Response, WireError> {
        let mut last_err: Option<WireError> = None;
        for (hop, &idx) in ranked.iter().enumerate() {
            match self.try_node(idx, &mut run) {
                Ok(resp) => {
                    self.stats.failovers += hop as u64;
                    self.stats.requests += 1;
                    self.stats.per_node[idx].routed += 1;
                    return Ok(resp);
                }
                Err(e) => {
                    self.stats.per_node[idx].failures += 1;
                    last_err = Some(e);
                }
            }
        }
        self.stats.exhausted += 1;
        Err(last_err.expect("ring is nonempty"))
    }

    /// The cached connection to a node, dialing if needed. Only the
    /// node's first-ever dial honors the connect-wait window.
    fn ensure_conn(&mut self, idx: usize) -> Result<&mut Client, WireError> {
        if self.conns[idx].is_none() {
            let addr = self.ring.addrs()[idx].as_str();
            let first_dial = !std::mem::replace(&mut self.dialed[idx], true);
            let client = match (self.connect_wait, first_dial) {
                (Some(wait), true) => Client::connect_with_retry(addr, wait),
                _ => Client::connect(addr),
            }
            .map_err(WireError::Io)?;
            self.conns[idx] = Some(client);
        }
        Ok(self.conns[idx].as_mut().expect("just connected"))
    }

    /// One attempt against one node; any error drops its cached
    /// connection — a broken stream poisons the pipeline ordering, so
    /// the node is always re-dialed next time.
    fn try_node<T>(
        &mut self,
        idx: usize,
        run: impl FnOnce(&mut Client) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let result = self.ensure_conn(idx).and_then(run);
        if result.is_err() {
            self.conns[idx] = None;
        }
        result
    }

    /// Certifies a graph on the owning node (or, with a replication
    /// factor above one, across the top-k replicas — bypass requests
    /// always take the plain single-owner path, since their whole
    /// point is a fresh prove). A chunked upload goes whole to the
    /// owner and restarts on the next-ranked node if its connection
    /// fails, like an interactive session.
    pub fn certify(
        &mut self,
        graph: &Graph,
        opts: impl Into<CertifyOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        let ranked = self.ranked(|| graph_key(opts.scheme, graph));
        if let Some(chunk_bytes) = opts.chunked {
            return self.certify_chunked(&ranked, graph, opts, chunk_bytes);
        }
        let body = if opts.cached_only {
            wire::encode_certify_probe_request(graph, opts.scheme)
        } else if opts.summary {
            wire::encode_certify_summary_request(graph, opts.bypass, opts.scheme)
        } else if self.replication > 1 && !opts.bypass {
            return self.certify_replicated(&ranked, graph, opts.scheme);
        } else {
            wire::encode_certify_request(graph, opts.bypass, opts.scheme)
        };
        self.route(&ranked, |c| c.call_body(&body))
    }

    /// The chunked certify transport (`CertifyOptions::chunked`):
    /// streams the one-pass encoding in CRC-checked chunks and
    /// returns the final summary-certify response. What the chunking
    /// bounds is the *server's* peak reassembly memory (per-chunk,
    /// not per-graph), which is the side that matters when many
    /// clients upload giant graphs at once.
    ///
    /// All frames are pipelined — Begin, every chunk, End go out
    /// before the first ack is read — so the upload costs one round
    /// trip plus bandwidth, and every ack is still verified (session
    /// id and running chunk count). A frame the server refuses makes
    /// its error the answer, after the remaining acks are read, so
    /// the connection stays in step.
    fn certify_chunked(
        &mut self,
        ranked: &[usize],
        graph: &Graph,
        opts: CertifyOptions,
        chunk_bytes: usize,
    ) -> Result<Response, WireError> {
        let chunk_bytes = chunk_bytes.clamp(1, wire::MAX_CHUNK_BYTES);
        let mut payload = Vec::new();
        wire::encode_graph(&mut payload, graph);
        let session = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        let chunks = payload.len().div_ceil(chunk_bytes) as u64;
        let begin = wire::encode_chunk_begin_request(session, opts.bypass, opts.scheme);
        let end = wire::encode_chunk_end_request(
            session,
            chunks,
            payload.len() as u64,
            crate::store::crc32(&payload),
        );
        self.route(ranked, |c| {
            c.send_body(&begin)?;
            for (seq, piece) in payload.chunks(chunk_bytes).enumerate() {
                c.send_body(&wire::encode_chunk_request(session, seq as u64, piece))?;
            }
            c.send_body(&end)?;
            // the Begin ack plus one ack per chunk, in order
            let mut refused = None;
            for expect in 0..=chunks {
                match c.recv()? {
                    Response::ChunkAck {
                        session: s,
                        received,
                    } if s == session && received == expect => {}
                    Response::Error(e) => {
                        refused.get_or_insert(e);
                    }
                    other => {
                        return Err(WireError::Protocol(format!(
                            "unexpected chunk ack: {other:?}"
                        )))
                    }
                }
            }
            let answer = c.recv()?;
            Ok(refused.map_or(answer, Response::Error))
        })
    }

    /// The k>1 certify path: walk the top-k replicas with cached-only
    /// probes; a hit anywhere answers immediately (read-repairing the
    /// higher-ranked replicas that missed); an all-miss falls back to
    /// one full certify routed down the whole ranking, whose result
    /// is then copied to the other replicas.
    fn certify_replicated(
        &mut self,
        ranked: &[usize],
        graph: &Graph,
        scheme: SchemeId,
    ) -> Result<Response, WireError> {
        let replicas = &ranked[..self.replication.min(ranked.len())];
        let probe = wire::encode_certify_probe_request(graph, scheme);
        let mut hops = 0u64;
        let mut missed: Vec<usize> = Vec::new();
        for &idx in replicas {
            match self.try_node(idx, |c| c.call_body(&probe)) {
                Ok(Response::Error(e)) if e == wire::NOT_CACHED => missed.push(idx),
                Ok(resp) => {
                    self.stats.requests += 1;
                    self.stats.failovers += hops;
                    self.stats.per_node[idx].routed += 1;
                    if !missed.is_empty() {
                        if let Some(record) = response_record(scheme, graph, &resp) {
                            // backfill the better-ranked replicas off
                            // the request path: the caller already
                            // has its answer
                            self.stats.read_repairs += 1;
                            let targets: Vec<String> = missed
                                .iter()
                                .map(|&i| self.ring.addrs()[i].clone())
                                .collect();
                            read_repair(targets, record);
                        }
                    }
                    return Ok(resp);
                }
                Err(_) => {
                    hops += 1;
                    self.stats.per_node[idx].failures += 1;
                }
            }
        }
        // no replica holds it (or none was reachable): one real
        // certify, failing over down the full ranking as usual
        let body = wire::encode_certify_request(graph, false, scheme);
        let resp = self.route(ranked, |c| c.call_body(&body))?;
        if let Some(record) = response_record(scheme, graph, &resp) {
            // the answering node cached and stored the result itself;
            // the other replicas get an explicit copy (a push to a
            // node that already holds the key is a cheap duplicate)
            let push = wire::encode_store_push_request(std::slice::from_ref(&record));
            for &idx in &replicas[1..] {
                let copied = self.try_node(idx, |c| c.call_body(&push));
                match copied.and_then(pushed) {
                    Ok(_) => self.stats.replica_writes += 1,
                    Err(_) => self.stats.replica_errors += 1,
                }
            }
        }
        Ok(resp)
    }

    /// Certifies a batch of graphs across the whole fleet: each graph
    /// is summary-certified on its rendezvous owner, with all of one
    /// node's graphs pipelined on its connection (bandwidth plus one
    /// round trip, not one round trip per graph).
    /// A node that dies mid-pipeline fails its unanswered graphs over
    /// down the ranking one by one, like any routed request.
    ///
    /// Results come back in input order and are folded with
    /// [`BatchSummary::fold`] — the same integer fold a single node
    /// applies to the same graphs in the same order, so the
    /// distributed summary is byte-identical to the sequential one.
    pub fn certify_distributed(
        &mut self,
        graphs: &[Graph],
        bypass_cache: bool,
        scheme: SchemeId,
    ) -> DistributedReport {
        let ranks: Vec<Vec<usize>> = graphs
            .iter()
            .map(|g| self.ranked(|| graph_key(scheme, g)))
            .collect();
        let bodies: Vec<Vec<u8>> = graphs
            .iter()
            .map(|g| wire::encode_certify_summary_request(g, bypass_cache, scheme))
            .collect();
        let mut buckets: Vec<Vec<usize>> = (0..self.ring.len()).map(|_| Vec::new()).collect();
        for (i, ranked) in ranks.iter().enumerate() {
            buckets[ranked[0]].push(i);
        }
        let mut results: Vec<Option<Result<Outcome, String>>> =
            (0..graphs.len()).map(|_| None).collect();
        // nodes_used is per sweep, not per client lifetime: diff the
        // per-node routed counters around the sweep
        let routed_before: Vec<u64> = self.stats.per_node.iter().map(|n| n.routed).collect();
        let mut delegate_errors = 0u64;
        for (node, idxs) in buckets.into_iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut answered = 0u64;
            let unanswered = match self.ensure_conn(node) {
                Ok(client) => client.pipeline(
                    idxs.iter().map(|&i| (i, bodies[i].as_slice())),
                    |i, resp| {
                        answered += 1;
                        results[i] = Some(summary_result(resp));
                    },
                ),
                Err(_) => idxs,
            };
            self.stats.requests += answered;
            self.stats.per_node[node].routed += answered;
            if !unanswered.is_empty() {
                // a dead dial, or a broken stream that poisons the
                // pipeline ordering: re-dial next time, and route the
                // leftovers the ordinary way, one round trip each
                self.conns[node] = None;
                self.stats.per_node[node].failures += 1;
            }
            for i in unanswered {
                match self.route(&ranks[i], |c| c.call_body(&bodies[i])) {
                    Ok(resp) => results[i] = Some(summary_result(resp)),
                    Err(e) => {
                        delegate_errors += 1;
                        results[i] = Some(Err(e.to_string()));
                    }
                }
            }
        }
        let nodes_used = self
            .stats
            .per_node
            .iter()
            .zip(routed_before)
            .filter(|(n, before)| n.routed > *before)
            .count();
        let results: Vec<Result<Outcome, String>> = results
            .into_iter()
            .map(|r| r.expect("every graph answered"))
            .collect();
        let merge_start = Instant::now();
        let summary = BatchSummary::fold(results.iter().map(|r| r.as_ref().ok()));
        let merge_wall = merge_start.elapsed();
        DistributedReport {
            delegated: results.iter().filter(|r| r.is_ok()).count() as u64,
            delegate_errors,
            nodes_used,
            results,
            summary,
            merge_wall,
        }
    }

    /// Membership check on the owning node.
    pub fn check(
        &mut self,
        graph: &Graph,
        opts: impl Into<CheckOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        let ranked = self.ranked(|| graph_key(opts.scheme, graph));
        let body = wire::encode_check_request(graph, opts.scheme);
        self.route(&ranked, |c| c.call_body(&body))
    }

    /// Server-side generation, routed by the generation parameters.
    pub fn gen(
        &mut self,
        family: &str,
        n: u32,
        seed: u64,
        opts: impl Into<GenOptions>,
    ) -> Result<Graph, WireError> {
        let opts = opts.into();
        let ranked = self.ranked(|| gen_key(opts.scheme, family, n, seed));
        let body = wire::encode_gen_request(family, n, seed, opts.scheme);
        let resp = self.route(&ranked, |c| c.call_body(&body))?;
        expect!(resp, "Gen", Response::Generated(g) => g)
    }

    /// Adversarial soundness probe on the owning node
    /// (`SoundnessOptions` carries the replay seed and scheme; a plain
    /// `u64` reads as the seed).
    pub fn soundness(
        &mut self,
        graph: &Graph,
        opts: impl Into<SoundnessOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        let ranked = self.ranked(|| graph_key(opts.scheme, graph));
        let body = wire::encode_soundness_request(graph, opts.seed, opts.scheme);
        self.route(&ranked, |c| c.call_body(&body))
    }

    /// Runs one full interactive-certification session (wire v8) on
    /// the graph's owning node and returns the closing
    /// [`Response::Verdict`]. The client plays Merlin: it computes
    /// the dMAM commitment locally, opens the session with
    /// `InteractiveBegin` (committing to the seed the server will
    /// derive its public coin from), answers the challenge with the
    /// protocol's response round, and hands back the server's verdict
    /// — which carries the measured soundness bound for this graph.
    ///
    /// A session is two ordered frames on one connection, so failover
    /// restarts the *whole* session on the next node — safe, because
    /// a session is as idempotent as a certify (same graph, same
    /// seed, same transcript on every correct node).
    pub fn interactive(
        &mut self,
        graph: &Graph,
        opts: impl Into<InteractiveOptions>,
    ) -> Result<Response, WireError> {
        let opts = opts.into();
        let proto = DmamPlanarity::new();
        let commit = proto
            .commit(graph)
            .map_err(|e| WireError::Protocol(format!("cannot open an interactive session: {e}")))?;
        let session = NEXT_SESSION.fetch_add(1, Ordering::Relaxed);
        let begin =
            wire::encode_interactive_begin_request(session, opts.seed, graph, &commit, opts.scheme);
        let ranked = self.ranked(|| graph_key(opts.scheme, graph));
        self.route(&ranked, |c| {
            let challenge = match c.call_body(&begin)? {
                Response::Challenge {
                    session: s,
                    challenge,
                } if s == session => challenge,
                refused @ Response::Error(_) => return Ok(refused),
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected response to InteractiveBegin: {other:?}"
                    )))
                }
            };
            let response = proto.respond(graph, &commit, challenge);
            c.call_body(&wire::encode_interactive_respond_request(
                session, &response,
            ))
        })
    }

    /// Sends one node-addressed request (no routing key) to every
    /// node, in ring order: each node's answer as `want` checks it,
    /// or its error. A broadcast leaves [`ClusterStats`] alone.
    fn broadcast<T>(
        &mut self,
        body: &[u8],
        want: impl Fn(Response) -> Result<T, WireError>,
    ) -> Vec<(String, Result<T, WireError>)> {
        (0..self.ring.len())
            .map(|idx| {
                let answer = self.try_node(idx, |c| c.call_body(body)).and_then(&want);
                (self.ring.addrs()[idx].clone(), answer)
            })
            .collect()
    }

    /// One on-demand audit pass on every node, as its `(sampled,
    /// failed, quarantined)` counts — the same sweep the background
    /// auditor (`dpc serve --audit`) runs, with the caller's sizing
    /// and seed. Every node gets the same sampling seed, so a
    /// fleet-wide report is reproducible end to end.
    #[allow(clippy::type_complexity)]
    pub fn node_audits(
        &mut self,
        opts: impl Into<AuditOptions>,
    ) -> Vec<(String, Result<(u64, u64, u64), WireError>)> {
        let opts = opts.into();
        let body = wire::encode_audit_request(opts.samples, opts.seed);
        self.broadcast(&body, |r| {
            expect!(r, "Audit", Response::AuditReport { sampled, failed, quarantined } =>
                (sampled, failed, quarantined))
        })
    }

    /// The fleet's audit pass: [`ClusterClient::node_audits`] summed
    /// into one [`Response::AuditReport`]. Errors only when no node
    /// answered.
    pub fn audit(&mut self, opts: impl Into<AuditOptions>) -> Result<Response, WireError> {
        let (sampled, failed, quarantined) = fold(&self.node_audits(opts), |total, node| {
            total.0 += node.0;
            total.1 += node.1;
            total.2 += node.2;
        })?;
        Ok(Response::AuditReport {
            sampled,
            failed,
            quarantined,
        })
    }

    /// Every node's Stats snapshot (`Err` for unreachable nodes).
    pub fn node_stats(&mut self) -> Vec<(String, Result<StatsSnapshot, WireError>)> {
        self.broadcast(
            &wire::encode_stats_request(),
            |r| expect!(r, "Stats", Response::Stats(s) => *s),
        )
    }

    /// The server counters: on a one-node ring that node's snapshot,
    /// on a larger one the fleet view of [`ClusterClient::fleet_stats`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, WireError> {
        fold(&self.node_stats(), StatsSnapshot::absorb)
    }

    /// The fleet view: every reachable node's Stats v3 snapshot
    /// folded into one (counters summed, histograms added bucket-wise,
    /// per-scheme rows merged by id), plus the per-node details.
    /// Errors only when *no* node is reachable.
    #[allow(clippy::type_complexity)]
    pub fn fleet_stats(
        &mut self,
    ) -> Result<
        (
            StatsSnapshot,
            Vec<(String, Result<StatsSnapshot, WireError>)>,
        ),
        WireError,
    > {
        let per_node = self.node_stats();
        let fleet = fold(&per_node, StatsSnapshot::absorb)?;
        Ok((fleet, per_node))
    }

    /// Every node's slow-request log (`Err` for unreachable nodes).
    pub fn node_slowlog(&mut self) -> Vec<(String, Result<Vec<SlowLogEntry>, WireError>)> {
        self.broadcast(
            &wire::encode_slowlog_request(),
            |r| expect!(r, "SlowLog", Response::SlowLog(entries) => entries),
        )
    }

    /// The slow-request log, newest first (requests whose end-to-end
    /// latency crossed a server's `--slow-ms` threshold), every node's
    /// entries merged. Errors only when no node answered.
    pub fn slowlog(&mut self) -> Result<Vec<SlowLogEntry>, WireError> {
        let mut entries = fold(&self.node_slowlog(), |all, more| {
            all.extend_from_slice(more)
        })?;
        entries.sort_by_key(|e| e.age_us);
        Ok(entries)
    }

    /// The store content-key digests of every node — the cheap half of
    /// an anti-entropy exchange (see [`ClusterClient::store_push`]). A
    /// key several nodes hold appears once per node.
    pub fn store_list(&mut self) -> Result<Vec<u128>, WireError> {
        let keys = self.broadcast(
            &wire::encode_store_list_request(),
            |r| expect!(r, "StoreList", Response::StoreKeys(keys) => keys),
        );
        fold(&keys, |all, more| all.extend_from_slice(more))
    }

    /// Streams certificate records into every node's store; returns
    /// `(merged, duplicates)` summed over the nodes — records absorbed
    /// vs. keys a node already held. Replica writes, read-repair, and
    /// the anti-entropy sweep all funnel through this one request
    /// kind. Errors only when no node answered.
    pub fn store_push(&mut self, records: &[StoreRecord]) -> Result<(u64, u64), WireError> {
        let body = wire::encode_store_push_request(records);
        fold(&self.broadcast(&body, pushed), |a, b| {
            a.0 += b.0;
            a.1 += b.1;
        })
    }
}

impl From<Client> for ClusterClient {
    /// A one-node ring over an open connection, which it keeps using.
    fn from(client: Client) -> ClusterClient {
        let ring = Ring::new([client.peer_addr().to_string()]).expect("one address");
        let mut cc = ClusterClient::over(ring);
        cc.dialed[0] = true;
        cc.conns[0] = Some(client);
        cc
    }
}

/// Reconstructs the store record a server retains for a certify
/// response — the unit replica writes, read-repair, and anti-entropy
/// all push. The keyed bytes are rebuilt from the scheme id and the
/// canonical graph encoding (exactly what the server keys its cache
/// by), so the record is byte-identical to the one the answering node
/// wrote. `None` for responses that are never cached (errors).
pub fn response_record(scheme: SchemeId, graph: &Graph, resp: &Response) -> Option<StoreRecord> {
    let (kind, suffix) = match resp {
        Response::Certified {
            outcome,
            assignment,
            ..
        } => (
            RecordKind::Certified,
            wire::encode_certified_suffix(outcome, assignment),
        ),
        Response::Declined { reason, .. } => {
            (RecordKind::Declined, wire::encode_declined_suffix(reason))
        }
        _ => return None,
    };
    let mut keyed = Vec::new();
    put_uvarint(&mut keyed, scheme.0 as u64);
    wire::encode_graph(&mut keyed, graph);
    Some(StoreRecord {
        kind,
        keyed,
        suffix,
    })
}

/// Fire-and-forget backfill of replicas that missed a read: a
/// detached thread with its own connections, so the repair never
/// blocks the request path (and a dead target costs the caller
/// nothing — anti-entropy converges it later).
fn read_repair(targets: Vec<String>, record: StoreRecord) {
    let _ = std::thread::Builder::new()
        .name("dpc-read-repair".into())
        .spawn(move || {
            if let Ok(mut targets) = ClusterClient::new(targets) {
                let _ = targets.store_push(std::slice::from_ref(&record));
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServeConfig};
    use dpc_graph::generators;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:4700")).collect()
    }

    #[test]
    fn ring_rejects_empty_and_duplicate_node_sets() {
        assert!(Ring::new(Vec::<String>::new()).is_err());
        assert!(Ring::new(["a:1", "b:1", "a:1"]).is_err());
        assert!(Ring::new([" ", ""]).is_err(), "blank addresses are empty");
        let ring = Ring::new(["a:1", "b:1"]).unwrap();
        assert_eq!(ring.len(), 2);
        assert!(!ring.is_empty());
    }

    #[test]
    fn ranking_is_deterministic_and_total() {
        let ring = Ring::new(addrs(5)).unwrap();
        let g = generators::grid(6, 6);
        let key = graph_key(SchemeId::PLANARITY, &g);
        let first = ring.rank(&key);
        assert_eq!(first, ring.rank(&key), "same key, same ranking");
        assert_eq!(first.len(), 5);
        let mut sorted = first.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a ranking is a permutation");
        assert_eq!(ring.owner(&key), first[0]);
    }

    #[test]
    fn node_order_does_not_affect_routing() {
        let fwd = Ring::new(addrs(4)).unwrap();
        let mut rev_addrs = addrs(4);
        rev_addrs.reverse();
        let rev = Ring::new(rev_addrs).unwrap();
        for seed in 0..20u64 {
            let g = generators::stacked_triangulation(16, seed);
            let key = graph_key(SchemeId::PLANARITY, &g);
            assert_eq!(
                fwd.addrs()[fwd.owner(&key)],
                rev.addrs()[rev.owner(&key)],
                "owner is an address property, not a position property"
            );
        }
    }

    #[test]
    fn scheme_id_is_part_of_the_routing_key() {
        let g = generators::grid(5, 5);
        let a = graph_key(SchemeId::PLANARITY, &g);
        let b = graph_key(SchemeId::BIPARTITE, &g);
        assert_ne!(a, b, "same graph, different schemes, different keys");
        let ring = Ring::new(addrs(8)).unwrap();
        // not necessarily different owners, but the ranking machinery
        // must at least see different keys; over 8 nodes and many
        // schemes some pair diverges
        let diverges = (0u16..9).any(|s| {
            ring.owner(&graph_key(SchemeId(s), &g)) != ring.owner(&graph_key(SchemeId(0), &g))
        });
        assert!(diverges, "scheme id never moved a key across 8 nodes");
    }

    #[test]
    fn cluster_client_fails_over_to_a_live_node() {
        let handle = serve("127.0.0.1:0", ServeConfig::default()).unwrap();
        // one dead node (port 1 refuses), one live node — requests
        // whose rank-1 is dead must land on the live one
        let dead = "127.0.0.1:1".to_string();
        let live = handle.addr().to_string();
        let ring = Ring::new([dead.clone(), live.clone()]).unwrap();
        let buckets = graphs_by_owner(&ring, 3, 16);
        let dead_idx = ring.addrs().iter().position(|a| *a == dead).unwrap();
        let mut cc = ClusterClient::over(ring.clone());
        for g in buckets.iter().flatten() {
            let resp = cc.certify(g, false).unwrap();
            assert!(matches!(resp, Response::Certified { .. }), "{resp:?}");
        }
        let stats = cc.cluster_stats().clone();
        assert_eq!(stats.requests, 6);
        assert_eq!(
            stats.failovers, 3,
            "exactly the dead-owned requests hopped: {stats:?}"
        );
        assert_eq!(stats.exhausted, 0);
        let dead_row = &stats.per_node[dead_idx];
        let live_row = &stats.per_node[1 - dead_idx];
        assert_eq!(dead_row.routed, 0);
        assert_eq!(dead_row.failures, 3);
        assert_eq!(live_row.routed, 6);
        assert_eq!(stats.nodes_used(), 1);
        // stats broadcast skips the dead node but reaches the live one
        let (fleet, per_node) = cc.fleet_stats().unwrap();
        assert_eq!(fleet.certify, 6);
        assert_eq!(per_node.len(), 2);
        assert!(per_node.iter().any(|(_, r)| r.is_err()));
        handle.shutdown();
    }

    #[test]
    fn connect_wait_applies_only_to_a_nodes_first_dial() {
        let handle = serve("127.0.0.1:0", ServeConfig::default()).unwrap();
        let dead = "127.0.0.1:1".to_string();
        let live = handle.addr().to_string();
        let ring = Ring::new([dead, live]).unwrap();
        let buckets = graphs_by_owner(&ring, 4, 16);
        let wait = Duration::from_millis(300);
        let mut cc = ClusterClient::over(ring).with_connect_wait(wait);
        assert_eq!(cc.connect_wait(), Some(wait));
        let start = std::time::Instant::now();
        for g in buckets.iter().flatten() {
            cc.certify(g, false).unwrap();
        }
        let elapsed = start.elapsed();
        // 8 requests, 4 of them ranked on the dead node: only the
        // FIRST dead dial may burn the retry window; re-dials are
        // single refused connects (the old per-request behavior
        // would stall >= 4 * wait here)
        assert!(
            elapsed < wait * 2,
            "dead node stalls once per client, not per request: {elapsed:?}"
        );
        assert_eq!(cc.cluster_stats().requests, 8);
        assert_eq!(cc.cluster_stats().failovers, 4);
        handle.shutdown();
    }

    #[test]
    fn exhausting_every_node_reports_the_error() {
        let mut cc = ClusterClient::new(["127.0.0.1:1"]).unwrap();
        let g = generators::grid(3, 3);
        assert!(cc.certify(&g, false).is_err());
        assert_eq!(cc.cluster_stats().exhausted, 1);
        assert_eq!(cc.cluster_stats().requests, 0);
        assert!(cc.fleet_stats().is_err(), "no node reachable");
    }
}
