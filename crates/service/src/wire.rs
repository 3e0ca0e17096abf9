//! The binary wire protocol of the certification service.
//!
//! Every message is a *frame*: a little-endian `u32` byte length
//! followed by that many body bytes. Bodies are sequences of LEB128
//! varints and raw byte runs (certificate payloads, bitmaps), so the
//! codec is byte-aligned end to end and decoded certificates are
//! byte-identical to the encoded ones.
//!
//! Graphs travel in a canonical delta encoding: node count, optional
//! identifier list, then the sorted smaller-endpoint-first edge list
//! with gap-encoded coordinates. Sortedness is enforced *by
//! construction* on decode (coordinates are reconstructed from
//! non-negative gaps), so malformed input can produce `Protocol`
//! errors but never duplicate edges, self-loops, or panics. One scan
//! does all of it: [`decode_graph`] builds the graph as it goes, and
//! the server's read path, [`skim_request`], runs the same scan
//! without building anything, so a certify's cache probe can use the
//! graph's bytes as sent.
//!
//! Request kinds: Certify, Check, Gen, SoundnessProbe, Stats,
//! SlowLog, StoreList, StorePush, GraphChunkBegin, GraphChunk,
//! GraphChunkEnd. The codec is total: `decode(encode(x)) == x` for
//! every request and response, which the property tests in
//! `tests/wire_props.rs` pin down across all generator families.
//!
//! StoreList and StorePush are the replication plane (wire v6): a
//! peer lists another peer's store key digests, then streams it the
//! records it lacks as CRC-checked [`StoreRecord`] bodies — the
//! over-TCP twin of `SegmentStore::merge_from`'s dedup-by-key merge.
//!
//! The GraphChunk* kinds are the giant-graph plane (wire v7): a
//! client streams one graph's canonical encoding as CRC-checked,
//! sequence-numbered chunks, and the server reassembles it
//! *incrementally* through [`GraphStreamDecoder`] — between chunks it
//! keeps only a partial trailing varint (a handful of bytes) plus the
//! graph being built, so peak reassembly memory is O(chunk + graph
//! index) no matter how large the upload is.
//!
//! The Interactive* and Audit kinds are the randomized-verification
//! plane (wire v8). An interactive session is the paper's dMAM
//! exchange over TCP: the client (Merlin) opens with
//! `InteractiveBegin` carrying the graph, its commitment assignment,
//! and the session seed; the server (Arthur) answers with a
//! `Challenge` derived deterministically from that seed, the client
//! sends its `InteractiveRespond`, and the server verifies every node
//! and closes with a `Verdict` carrying the per-node reject count and
//! the scheme's soundness bound. `Audit` triggers one randomized
//! store-audit sweep on demand and reports what it sampled,
//! failed, and quarantined.

use crate::metrics::{SlowLogEntry, StatsSnapshot};
use crate::registry::SchemeId;
use crate::store::{crc32, StoreRecord};
use dpc_core::harness::Outcome;
use dpc_core::scheme::Assignment;
use dpc_graph::{canon, Graph, GraphBuilder};
use dpc_runtime::bits::varint_len;
use dpc_runtime::{get_bytes, get_uvarint, put_uvarint, DecodeError};
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame body, to bound allocation on malicious input.
pub const MAX_FRAME_BYTES: usize = 64 << 20;
/// Upper bound on node count in a wire graph.
pub const MAX_WIRE_NODES: u64 = 1 << 22;
/// Upper bound on node count in a chunk-streamed graph. Streamed
/// graphs are not bounded by one frame, so the cap is above
/// [`MAX_WIRE_NODES`]; it matches `MAX_WIRE_CERTS`, keeping the
/// merged `Outcome` of a giant graph decodable by ordinary clients.
pub const MAX_STREAM_NODES: u64 = 1 << 24;
/// Upper bound on one `GraphChunk` payload the server will buffer.
pub const MAX_CHUNK_BYTES: usize = 4 << 20;
/// Default client-side chunk payload size for streamed uploads.
pub const DEFAULT_CHUNK_BYTES: usize = 256 << 10;

/// Errors of the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Io(io::Error),
    /// A varint or byte run could not be read.
    Decode(DecodeError),
    /// Structurally invalid message (bad tag, bounds, trailing bytes).
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Decode(e) => write!(f, "malformed frame: {e}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

fn protocol(msg: impl Into<String>) -> WireError {
    WireError::Protocol(msg.into())
}

/// Reads a uvarint that must fit a `u32` field: a larger value is a
/// protocol error naming `what`, never a silent truncation.
fn get_u32(buf: &mut &[u8], what: &str) -> Result<u32, WireError> {
    let v = get_uvarint(buf)?;
    u32::try_from(v).map_err(|_| protocol(format!("{what} {v} does not fit in 32 bits")))
}

// ---------------------------------------------------------------------------
// Frames.

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME_BYTES);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Reads one frame. `Ok(None)` means the peer closed the connection
/// cleanly (EOF at a frame boundary).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(protocol(format!("frame of {len} bytes exceeds the limit")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// ---------------------------------------------------------------------------
// Graphs.

/// Appends the canonical wire encoding of a graph.
pub fn encode_graph(out: &mut Vec<u8>, g: &Graph) {
    let custom = !g.has_default_ids();
    // reserve an upper bound, so the edge loop never reallocates: two
    // counts and the flag, the ids as they are, and each endpoint delta
    // no longer than `n`
    let bytes = |x: u64| varint_len(x) / 8;
    let ids: usize = if custom {
        g.ids().iter().map(|&id| bytes(id)).sum()
    } else {
        0
    };
    out.reserve(21 + ids + 2 * bytes(g.node_count() as u64) * g.edge_count());
    put_uvarint(out, g.node_count() as u64);
    put_uvarint(out, custom as u64);
    if custom {
        for &id in g.ids() {
            put_uvarint(out, id);
        }
    }
    put_uvarint(out, g.edge_count() as u64);
    // each edge is the gap to the previous edge's smaller endpoint, then
    // the larger endpoint's gap to the smaller one (new `u`) or to the
    // previous larger one (same `u`); both start at 0
    let (mut prev_u, mut prev_v) = (0u32, 0u32);
    canon::canonical_edge_iter(g).for_each(|(u, v)| {
        let du = u - prev_u;
        put_uvarint(out, du as u64);
        let base = if du > 0 { u } else { prev_v };
        put_uvarint(out, (v - base - 1) as u64);
        prev_u = u;
        prev_v = v;
    });
}

/// Decodes a wire graph from the front of `buf`, advancing it.
///
/// Amplification guard: the node count must be roughly covered by the
/// bytes actually present (any connected graph carries at least
/// `2(n-1)` edge bytes; the 64x headroom also admits realistically
/// sparse disconnected graphs sent to Check), so a few-byte frame
/// cannot materialize a multi-hundred-MB `Graph` before the server
/// even looks at it. Only pathological near-edgeless graphs beyond a
/// few hundred nodes are rejected by this bound.
pub fn decode_graph(buf: &mut &[u8]) -> Result<Graph, WireError> {
    Ok(scan_graph(buf, true)?.expect("a building scan returns its graph"))
}

/// Validates a wire graph at the front of `buf` without building it,
/// advancing `buf`, and returns the graph's bytes. It is the same scan
/// as [`decode_graph`]: it accepts exactly the same input, fails with
/// the same error, and the span it returns is exactly the bytes
/// `decode_graph` consumes.
fn skim_graph<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let start = *buf;
    scan_graph(buf, false)?;
    Ok(&start[..start.len() - buf.len()])
}

/// The one wire-graph scanner behind [`decode_graph`] and
/// [`skim_graph`]: every check of the graph grammar, in order, and the
/// graph itself when `build` is set. The guards measure what is left
/// of `buf`, so a caller that re-scans a span must leave the bytes that
/// followed it in the frame behind it.
fn scan_graph(buf: &mut &[u8], build: bool) -> Result<Option<Graph>, WireError> {
    let n = get_uvarint(buf)?;
    if n > MAX_WIRE_NODES {
        return Err(protocol(format!("graph with {n} nodes exceeds the limit")));
    }
    if n > 64 * buf.len() as u64 + 1 {
        return Err(protocol(format!(
            "{n} nodes is not supported by a {}-byte frame",
            buf.len()
        )));
    }
    let n = n as u32;
    let custom_ids = match get_uvarint(buf)? {
        0 => false,
        1 => true,
        x => return Err(protocol(format!("bad id flag {x}"))),
    };
    let ids = if custom_ids {
        if n as usize > buf.len() {
            return Err(protocol("identifier list longer than the frame"));
        }
        let mut ids = Vec::with_capacity(n as usize);
        for _ in 0..n {
            ids.push(get_uvarint(buf)?);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(protocol("duplicate network identifiers"));
        }
        Some(ids)
    } else {
        None
    };
    let m = get_uvarint(buf)?;
    let max_m = n as u64 * (n as u64).saturating_sub(1) / 2;
    if m > max_m {
        return Err(protocol(format!("{m} edges on {n} nodes is impossible")));
    }
    if m > buf.len() as u64 / 2 {
        // each edge is two varints, at least two bytes
        return Err(protocol("edge list longer than the frame"));
    }
    let mut builder = build.then(|| {
        let mut b = GraphBuilder::new(n);
        if let Some(ids) = ids {
            b.with_ids(ids);
        }
        b
    });
    let (mut prev_u, mut prev_v) = (0u32, 0u32);
    for i in 0..m {
        let du = get_uvarint(buf)?;
        let u = (prev_u as u64)
            .checked_add(du)
            .filter(|&u| u < n as u64)
            .ok_or_else(|| protocol("edge endpoint out of range"))? as u32;
        let dv = get_uvarint(buf)?;
        let base = if i == 0 || du > 0 {
            u as u64
        } else {
            prev_v as u64
        };
        let v = base
            .checked_add(dv)
            .and_then(|x| x.checked_add(1))
            .filter(|&v| v < n as u64)
            .ok_or_else(|| protocol("edge endpoint out of range"))? as u32;
        // the delta coding already makes every edge in range, loop-free
        // and strictly after the previous one, so the builder never
        // refuses an edge the skim let through
        if let Some(b) = builder.as_mut() {
            b.add_edge(u, v)
                .map_err(|e| protocol(format!("bad edge list: {e}")))?;
        }
        prev_u = u;
        prev_v = v;
    }
    Ok(builder.map(GraphBuilder::build))
}

/// Reads one uvarint if its terminating byte is present, advancing
/// `buf`. `Ok(None)` means the varint is split across a chunk
/// boundary — feed more bytes. An unterminated run of 10+ bytes can
/// never complete into a valid `u64` varint and is rejected here
/// rather than buffered forever.
fn try_uvarint(buf: &mut &[u8]) -> Result<Option<u64>, WireError> {
    match buf.iter().position(|b| b & 0x80 == 0) {
        Some(end) => {
            let mut head = &buf[..=end];
            let v = get_uvarint(&mut head)?;
            *buf = &buf[end + 1..];
            Ok(Some(v))
        }
        None if buf.len() >= 10 => Err(protocol("unterminated varint in graph stream")),
        None => Ok(None),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamStage {
    NodeCount,
    IdFlag,
    Ids,
    EdgeCount,
    Edges,
    Done,
}

/// Incremental decoder for the canonical graph encoding of
/// [`encode_graph`], fed one chunk at a time.
///
/// The decoder consumes every complete varint of each chunk as it
/// arrives and carries at most one *partial* trailing varint (under
/// ten bytes) to the next `feed` call, so its transient memory is
/// O(chunk) and its resident state is the graph under construction
/// itself — never the raw upload. [`GraphStreamDecoder::carry_len`]
/// exposes the carried remnant so callers can meter the bound
/// (`chunk_carry_peak` in the server stats).
///
/// The grammar and validity checks match [`decode_graph`] exactly —
/// same gap decoding, same endpoint bounds, same duplicate-id
/// rejection — except that the node cap is [`MAX_STREAM_NODES`] and
/// the frame-proportional amplification guards are replaced by the
/// bytes the stream actually delivers. A decoded stream re-encodes
/// byte-identically to the single-frame form.
pub struct GraphStreamDecoder {
    stage: StreamStage,
    carry: Vec<u8>,
    n: u32,
    ids: Vec<u64>,
    custom_ids: bool,
    m: u64,
    edges_done: u64,
    prev_u: u32,
    prev_v: u32,
    pending_du: Option<u64>,
    builder: Option<GraphBuilder>,
}

impl Default for GraphStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphStreamDecoder {
    /// A decoder at the start of the graph grammar.
    pub fn new() -> Self {
        GraphStreamDecoder {
            stage: StreamStage::NodeCount,
            carry: Vec::new(),
            n: 0,
            ids: Vec::new(),
            custom_ids: false,
            m: 0,
            edges_done: 0,
            prev_u: 0,
            prev_v: 0,
            pending_du: None,
            builder: None,
        }
    }

    /// Bytes carried over from the previous chunk (a split varint).
    pub fn carry_len(&self) -> usize {
        self.carry.len()
    }

    /// Consumes one chunk of the encoding.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), WireError> {
        let joined;
        let mut buf: &[u8] = if self.carry.is_empty() {
            chunk
        } else {
            let mut v = std::mem::take(&mut self.carry);
            v.extend_from_slice(chunk);
            joined = v;
            &joined
        };
        self.advance(&mut buf)?;
        self.carry = buf.to_vec();
        Ok(())
    }

    fn advance(&mut self, buf: &mut &[u8]) -> Result<(), WireError> {
        loop {
            match self.stage {
                StreamStage::NodeCount => {
                    let Some(n) = try_uvarint(buf)? else {
                        return Ok(());
                    };
                    if n > MAX_STREAM_NODES {
                        return Err(protocol(format!(
                            "streamed graph with {n} nodes exceeds the limit"
                        )));
                    }
                    self.n = n as u32;
                    self.stage = StreamStage::IdFlag;
                }
                StreamStage::IdFlag => {
                    let Some(flag) = try_uvarint(buf)? else {
                        return Ok(());
                    };
                    self.custom_ids = match flag {
                        0 => false,
                        1 => true,
                        x => return Err(protocol(format!("bad id flag {x}"))),
                    };
                    self.stage = if self.custom_ids {
                        StreamStage::Ids
                    } else {
                        StreamStage::EdgeCount
                    };
                }
                StreamStage::Ids => {
                    while (self.ids.len() as u64) < self.n as u64 {
                        let Some(id) = try_uvarint(buf)? else {
                            return Ok(());
                        };
                        self.ids.push(id);
                    }
                    let mut sorted = self.ids.clone();
                    sorted.sort_unstable();
                    if sorted.windows(2).any(|w| w[0] == w[1]) {
                        return Err(protocol("duplicate network identifiers"));
                    }
                    self.stage = StreamStage::EdgeCount;
                }
                StreamStage::EdgeCount => {
                    let Some(m) = try_uvarint(buf)? else {
                        return Ok(());
                    };
                    let max_m = self.n as u64 * (self.n as u64).saturating_sub(1) / 2;
                    if m > max_m {
                        return Err(protocol(format!(
                            "{m} edges on {} nodes is impossible",
                            self.n
                        )));
                    }
                    self.m = m;
                    let mut b = GraphBuilder::new(self.n);
                    if self.custom_ids {
                        b.with_ids(std::mem::take(&mut self.ids));
                    }
                    self.builder = Some(b);
                    self.stage = StreamStage::Edges;
                }
                StreamStage::Edges => {
                    while self.edges_done < self.m {
                        let du = match self.pending_du.take() {
                            Some(du) => du,
                            None => {
                                let Some(du) = try_uvarint(buf)? else {
                                    return Ok(());
                                };
                                du
                            }
                        };
                        let Some(dv) = try_uvarint(buf)? else {
                            // half an edge: remember du for the next chunk
                            self.pending_du = Some(du);
                            return Ok(());
                        };
                        let n = self.n;
                        let u = (self.prev_u as u64)
                            .checked_add(du)
                            .filter(|&u| u < n as u64)
                            .ok_or_else(|| protocol("edge endpoint out of range"))?
                            as u32;
                        let base = if self.edges_done == 0 || du > 0 {
                            u as u64
                        } else {
                            self.prev_v as u64
                        };
                        let v = base
                            .checked_add(dv)
                            .and_then(|x| x.checked_add(1))
                            .filter(|&v| v < n as u64)
                            .ok_or_else(|| protocol("edge endpoint out of range"))?
                            as u32;
                        self.builder
                            .as_mut()
                            .expect("builder exists in Edges stage")
                            .add_edge(u, v)
                            .map_err(|e| protocol(format!("bad edge list: {e}")))?;
                        self.prev_u = u;
                        self.prev_v = v;
                        self.edges_done += 1;
                    }
                    self.stage = StreamStage::Done;
                }
                StreamStage::Done => {
                    if buf.is_empty() {
                        return Ok(());
                    }
                    return Err(protocol(format!(
                        "{} trailing bytes after the edge list",
                        buf.len()
                    )));
                }
            }
        }
    }

    /// Completes the decode; the stream must have delivered the whole
    /// grammar, down to the last edge.
    pub fn finish(mut self) -> Result<Graph, WireError> {
        if self.stage != StreamStage::Done || !self.carry.is_empty() {
            return Err(protocol("truncated graph stream"));
        }
        Ok(self
            .builder
            .take()
            .expect("builder exists once the grammar completed")
            .build())
    }
}

fn encode_string(out: &mut Vec<u8>, s: &str) {
    dpc_runtime::put_string(out, s);
}

fn decode_string(buf: &mut &[u8]) -> Result<String, WireError> {
    // the announced length is bounded by the remaining frame bytes
    // inside get_string, and frames are already capped
    Ok(dpc_runtime::get_string(buf)?)
}

// ---------------------------------------------------------------------------
// Request extensions.

/// Extension tag carrying a scheme id (payload: one varint ≤ `u16::MAX`).
pub const EXT_SCHEME_ID: u64 = 1;

/// Upper bound on one extension payload.
const MAX_EXT_BYTES: usize = 1 << 16;

/// Appends the trailing extension block of a request. Extensions are
/// `(tag, length, payload)` triples after the legacy fields; decoders
/// skip unknown tags, so the block is the protocol's growth point.
/// The scheme id is only emitted when it is not the default
/// ([`SchemeId::PLANARITY`]) — planarity requests are byte-identical
/// to the pre-registry (v1) encoding.
fn encode_extensions(out: &mut Vec<u8>, scheme: SchemeId) {
    if scheme != SchemeId::PLANARITY {
        put_uvarint(out, EXT_SCHEME_ID);
        let mut payload = Vec::with_capacity(3);
        put_uvarint(&mut payload, scheme.0 as u64);
        put_uvarint(out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }
}

/// Decodes the trailing extension block, consuming the rest of `buf`.
/// Absent block (or absent scheme-id extension) means planarity.
/// Unknown extension tags are skipped; a duplicate or malformed
/// scheme-id extension is a protocol error. Note the id is *not*
/// checked against any registry here — routing a syntactically valid
/// but unregistered id is the server's job (it answers with a clean
/// `Error` response), not the codec's.
fn decode_extensions(buf: &mut &[u8]) -> Result<SchemeId, WireError> {
    let mut scheme: Option<SchemeId> = None;
    while !buf.is_empty() {
        let tag = get_uvarint(buf)?;
        let len = get_uvarint(buf)? as usize;
        if len > MAX_EXT_BYTES {
            return Err(protocol(format!("extension {tag} of {len} bytes")));
        }
        let mut payload = get_bytes(buf, len)?;
        if tag == EXT_SCHEME_ID {
            if scheme.is_some() {
                return Err(protocol("duplicate scheme-id extension"));
            }
            let id = get_uvarint(&mut payload)?;
            if id > u16::MAX as u64 || !payload.is_empty() {
                return Err(protocol(format!("malformed scheme id {id}")));
            }
            scheme = Some(SchemeId(id as u16));
        }
        // any other tag: skip via its length (forward compatibility)
    }
    Ok(scheme.unwrap_or(SchemeId::PLANARITY))
}

// ---------------------------------------------------------------------------
// Requests.

/// Per-request certify flags.
pub const CERTIFY_FLAG_BYPASS_CACHE: u64 = 1;
/// Certify flag: answer only if the certificate is already cached;
/// on a miss the server replies `Error(`[`NOT_CACHED`]`)` and never
/// runs the prover. This is the replica probe of a replicated read —
/// a `ClusterClient` walks the rendezvous ranking with it so a warm
/// rank-2 node can answer without the cold rank-1 node proving.
pub const CERTIFY_FLAG_CACHED_ONLY: u64 = 2;

/// Certify flag: answer with a [`Response::CertifiedSummary`]
/// (outcome only, no assignment) instead of a full `Certified`. This
/// is how fleet-distributed proving stays frame-bounded: a giant
/// graph's assignment would not fit one response frame, but its
/// verdict bitmap and fold totals always do. Summary mode also
/// unlocks component-split proving of disconnected graphs (the plain
/// path declines them). Mutually exclusive with
/// [`CERTIFY_FLAG_CACHED_ONLY`].
pub const CERTIFY_FLAG_SUMMARY: u64 = 4;

/// The exact `Error` payload a cached-only certify miss carries.
/// Clients match it verbatim to tell "cold replica, keep walking"
/// from a real failure.
pub const NOT_CACHED: &str = "not cached";

/// A client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run the scheme's prover (or serve it from cache) and return the
    /// certificate assignment plus the measured outcome.
    Certify {
        /// The network to certify.
        graph: Graph,
        /// Skip the cache entirely (used to measure cold latency).
        bypass_cache: bool,
        /// Only answer from cache; a miss is `Error(`[`NOT_CACHED`]`)`
        /// and never a prove (replica probes). Mutually exclusive
        /// with `bypass_cache`.
        cached_only: bool,
        /// Answer with the outcome summary only (no assignment), and
        /// prove disconnected graphs component by component instead
        /// of declining them (see [`CERTIFY_FLAG_SUMMARY`]).
        summary: bool,
        /// The registered scheme to run (default: planarity).
        scheme: SchemeId,
    },
    /// Centralized membership check. Under planarity this returns an
    /// embedding/witness summary; under any other scheme a generic
    /// in-class/out-of-class verdict.
    Check {
        /// The graph to test.
        graph: Graph,
        /// The registered scheme whose class is tested.
        scheme: SchemeId,
    },
    /// Generate a graph server-side from a named family.
    Gen {
        /// Family name (see [`crate::gen::FAMILIES`]).
        family: String,
        /// Approximate node count.
        n: u32,
        /// Generator seed.
        seed: u64,
        /// Routes the `"default"` family to the scheme's canonical
        /// yes-instance generator ([`crate::gen::default_family`]);
        /// concrete family names ignore it. Never validated against
        /// the server's registry, so generation works against
        /// registry-restricted servers.
        scheme: SchemeId,
    },
    /// Run the adversarial attack battery against the graph.
    SoundnessProbe {
        /// The (typically no-instance) network to attack.
        graph: Graph,
        /// Attack seed.
        seed: u64,
        /// The registered scheme to attack (must support probes).
        scheme: SchemeId,
    },
    /// Fetch server counters and latency quantiles.
    Stats,
    /// Fetch the retained slow-request log (stage breakdowns of
    /// requests that crossed the server's `--slow-ms` threshold).
    SlowLog,
    /// List the key digests of the server's certificate store
    /// (anti-entropy phase 1: "what do you have?").
    StoreList,
    /// Stream store records into the server's store, deduplicated by
    /// content key (anti-entropy phase 2, replica writes, and
    /// read-repair backfills).
    StorePush {
        /// The records to absorb, each CRC-checked on the wire.
        records: Vec<StoreRecord>,
    },
    /// Open a chunked graph upload session on this connection. The
    /// graph streamed through the session is certified in summary
    /// mode once `GraphChunkEnd` closes it. Answered with a
    /// [`Response::ChunkAck`].
    GraphChunkBegin {
        /// Client-chosen session id; `GraphChunk`/`GraphChunkEnd`
        /// frames on the same connection must echo it.
        session: u64,
        /// Skip the cache for the final certify.
        bypass_cache: bool,
        /// The registered scheme to run (default: planarity).
        scheme: SchemeId,
    },
    /// One CRC-checked slice of the streamed graph encoding.
    /// Answered with a [`Response::ChunkAck`].
    GraphChunk {
        /// Session id from `GraphChunkBegin`.
        session: u64,
        /// Zero-based chunk sequence number; chunks must arrive in
        /// order, without gaps or duplicates.
        seq: u64,
        /// The encoding slice (at most [`MAX_CHUNK_BYTES`]).
        payload: Vec<u8>,
    },
    /// Close a chunk session: the server checks the totals and the
    /// whole-payload CRC, finishes the incremental decode, and
    /// certifies the graph in summary mode. Answered with the
    /// certify's [`Response::CertifiedSummary`] / `Declined` /
    /// `Error`.
    GraphChunkEnd {
        /// Session id from `GraphChunkBegin`.
        session: u64,
        /// Number of `GraphChunk` frames the client sent.
        total_chunks: u64,
        /// Total payload bytes across all chunks.
        total_bytes: u64,
        /// CRC-32 of the whole reassembled payload.
        crc: u32,
    },
    /// Open an interactive (dMAM) session on this connection: the
    /// client plays Merlin and commits, the server plays Arthur.
    /// Answered with a [`Response::Challenge`] whose coin is a pure
    /// function of `seed`, so the whole transcript is reproducible
    /// from the seed logged with the session's trace.
    InteractiveBegin {
        /// Client-chosen session id; the `InteractiveRespond` frame
        /// on the same connection must echo it.
        session: u64,
        /// Session seed: Arthur's public coin is derived from it
        /// (`challenge_from_seed`), never drawn from server state.
        seed: u64,
        /// The network under interactive certification.
        graph: Graph,
        /// Merlin's commitment assignment (round 1 of the dMAM
        /// exchange).
        commit: Assignment,
        /// The registered interactive protocol to run (default:
        /// planarity).
        scheme: SchemeId,
    },
    /// Merlin's response to the challenge (round 3). Answered with
    /// the closing [`Response::Verdict`].
    InteractiveRespond {
        /// Session id from `InteractiveBegin`.
        session: u64,
        /// The response assignment, opened against the challenge.
        response: Assignment,
    },
    /// Run one randomized store-audit sweep now: sample stored
    /// certificates, re-verify a random vertex subset of each, and
    /// quarantine records whose bytes are CRC-valid but fail
    /// verification. Answered with a [`Response::AuditReport`].
    Audit {
        /// Records to sample in this sweep (0 means the server's
        /// default).
        samples: u64,
        /// Sampling seed, so a sweep is reproducible.
        seed: u64,
    },
}

impl Request {
    /// The scheme id the request addresses (`None` for the
    /// scheme-less kinds: Stats, SlowLog, StoreList, StorePush).
    pub fn scheme(&self) -> Option<SchemeId> {
        match self {
            Request::Certify { scheme, .. }
            | Request::Check { scheme, .. }
            | Request::Gen { scheme, .. }
            | Request::SoundnessProbe { scheme, .. }
            | Request::GraphChunkBegin { scheme, .. }
            | Request::InteractiveBegin { scheme, .. } => Some(*scheme),
            Request::Stats
            | Request::SlowLog
            | Request::StoreList
            | Request::StorePush { .. }
            | Request::GraphChunk { .. }
            | Request::GraphChunkEnd { .. }
            | Request::InteractiveRespond { .. }
            | Request::Audit { .. } => None,
        }
    }

    /// The request's wire tag — what a [`crate::metrics::Trace`]
    /// carries as its `kind` and slow-log entries echo back.
    pub fn kind_tag(&self) -> u8 {
        (match self {
            Request::Certify { .. } => REQ_CERTIFY,
            Request::Check { .. } => REQ_CHECK,
            Request::Gen { .. } => REQ_GEN,
            Request::SoundnessProbe { .. } => REQ_SOUNDNESS,
            Request::Stats => REQ_STATS,
            Request::SlowLog => REQ_SLOWLOG,
            Request::StoreList => REQ_STORELIST,
            Request::StorePush { .. } => REQ_STOREPUSH,
            Request::GraphChunkBegin { .. } => REQ_CHUNK_BEGIN,
            Request::GraphChunk { .. } => REQ_CHUNK,
            Request::GraphChunkEnd { .. } => REQ_CHUNK_END,
            Request::InteractiveBegin { .. } => REQ_INTERACTIVE_BEGIN,
            Request::InteractiveRespond { .. } => REQ_INTERACTIVE_RESPOND,
            Request::Audit { .. } => REQ_AUDIT,
        }) as u8
    }
}

pub(crate) const REQ_CERTIFY: u64 = 1;
const REQ_CHECK: u64 = 2;
const REQ_GEN: u64 = 3;
const REQ_SOUNDNESS: u64 = 4;
const REQ_STATS: u64 = 5;
const REQ_SLOWLOG: u64 = 6;
const REQ_STORELIST: u64 = 7;
const REQ_STOREPUSH: u64 = 8;
const REQ_CHUNK_BEGIN: u64 = 9;
const REQ_CHUNK: u64 = 10;
const REQ_CHUNK_END: u64 = 11;
const REQ_INTERACTIVE_BEGIN: u64 = 12;
const REQ_INTERACTIVE_RESPOND: u64 = 13;
const REQ_AUDIT: u64 = 14;

// Borrowing encoders: build a frame body straight from a `&Graph`,
// without constructing an owned `Request` (the client's hot path —
// certifying a 10k-node graph should not clone it first).

/// Frame body of a Certify request.
pub fn encode_certify_request(graph: &Graph, bypass_cache: bool, scheme: SchemeId) -> Vec<u8> {
    let flags = if bypass_cache {
        CERTIFY_FLAG_BYPASS_CACHE
    } else {
        0
    };
    certify_body(graph, flags, scheme)
}

/// Frame body of a cached-only Certify probe (see
/// [`CERTIFY_FLAG_CACHED_ONLY`]): a warm server answers from cache, a
/// cold one replies `Error(`[`NOT_CACHED`]`)` without proving.
pub fn encode_certify_probe_request(graph: &Graph, scheme: SchemeId) -> Vec<u8> {
    certify_body(graph, CERTIFY_FLAG_CACHED_ONLY, scheme)
}

/// Frame body of a summary Certify (see [`CERTIFY_FLAG_SUMMARY`]):
/// the answer carries the outcome fold but no assignment, and
/// disconnected graphs are proved component by component. This is
/// the frame fleet-distributed proving sends for each partition.
pub fn encode_certify_summary_request(
    graph: &Graph,
    bypass_cache: bool,
    scheme: SchemeId,
) -> Vec<u8> {
    let mut flags = CERTIFY_FLAG_SUMMARY;
    if bypass_cache {
        flags |= CERTIFY_FLAG_BYPASS_CACHE;
    }
    certify_body(graph, flags, scheme)
}

/// Frame body of a GraphChunkBegin request.
pub fn encode_chunk_begin_request(session: u64, bypass_cache: bool, scheme: SchemeId) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_CHUNK_BEGIN);
    put_uvarint(&mut out, session);
    put_uvarint(
        &mut out,
        if bypass_cache {
            CERTIFY_FLAG_BYPASS_CACHE
        } else {
            0
        },
    );
    encode_extensions(&mut out, scheme);
    out
}

/// Frame body of a GraphChunk request:
/// `session ‖ seq ‖ uvarint(len) ‖ payload ‖ crc32_le(payload)`.
pub fn encode_chunk_request(session: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_CHUNK_BYTES);
    let mut out = Vec::with_capacity(payload.len() + 32);
    put_uvarint(&mut out, REQ_CHUNK);
    put_uvarint(&mut out, session);
    put_uvarint(&mut out, seq);
    put_uvarint(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Frame body of a GraphChunkEnd request.
pub fn encode_chunk_end_request(
    session: u64,
    total_chunks: u64,
    total_bytes: u64,
    crc: u32,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_CHUNK_END);
    put_uvarint(&mut out, session);
    put_uvarint(&mut out, total_chunks);
    put_uvarint(&mut out, total_bytes);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Frame body of an InteractiveBegin request: Merlin's opening move
/// (session, seed, graph, commitment), built straight from borrows so
/// the commitment assignment is never cloned.
pub fn encode_interactive_begin_request(
    session: u64,
    seed: u64,
    graph: &Graph,
    commit: &Assignment,
    scheme: SchemeId,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(commit.byte_size() + 64);
    put_uvarint(&mut out, REQ_INTERACTIVE_BEGIN);
    put_uvarint(&mut out, session);
    put_uvarint(&mut out, seed);
    encode_graph(&mut out, graph);
    commit.encode_into(&mut out);
    encode_extensions(&mut out, scheme);
    out
}

/// Frame body of an InteractiveRespond request (round 3: Merlin
/// opens the committed structure against the challenge).
pub fn encode_interactive_respond_request(session: u64, response: &Assignment) -> Vec<u8> {
    let mut out = Vec::with_capacity(response.byte_size() + 16);
    put_uvarint(&mut out, REQ_INTERACTIVE_RESPOND);
    put_uvarint(&mut out, session);
    response.encode_into(&mut out);
    out
}

/// Frame body of an Audit request.
pub fn encode_audit_request(samples: u64, seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_AUDIT);
    put_uvarint(&mut out, samples);
    put_uvarint(&mut out, seed);
    out
}

fn certify_body(graph: &Graph, flags: u64, scheme: SchemeId) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_CERTIFY);
    put_uvarint(&mut out, flags);
    encode_graph(&mut out, graph);
    encode_extensions(&mut out, scheme);
    out
}

/// Frame body of a Check request.
pub fn encode_check_request(graph: &Graph, scheme: SchemeId) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_CHECK);
    encode_graph(&mut out, graph);
    encode_extensions(&mut out, scheme);
    out
}

/// Frame body of a Gen request.
pub fn encode_gen_request(family: &str, n: u32, seed: u64, scheme: SchemeId) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_GEN);
    encode_string(&mut out, family);
    put_uvarint(&mut out, n as u64);
    put_uvarint(&mut out, seed);
    encode_extensions(&mut out, scheme);
    out
}

/// Frame body of a SoundnessProbe request.
pub fn encode_soundness_request(graph: &Graph, seed: u64, scheme: SchemeId) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_SOUNDNESS);
    put_uvarint(&mut out, seed);
    encode_graph(&mut out, graph);
    encode_extensions(&mut out, scheme);
    out
}

/// Frame body of a Stats request.
pub fn encode_stats_request() -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_STATS);
    out
}

/// Frame body of a SlowLog request.
pub fn encode_slowlog_request() -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_SLOWLOG);
    out
}

/// Frame body of a StoreList request.
pub fn encode_store_list_request() -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_STORELIST);
    out
}

/// Frame body of a StorePush request: a record count, then each
/// record as `uvarint(body_len) ‖ body ‖ crc32_le(body)` where `body`
/// is [`StoreRecord::encode_body`]'s framing. The CRC guards the
/// certificate bytes in transit exactly like the segment files guard
/// them at rest.
pub fn encode_store_push_request(records: &[StoreRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, REQ_STOREPUSH);
    put_uvarint(&mut out, records.len() as u64);
    for record in records {
        let body = record.encode_body();
        put_uvarint(&mut out, body.len() as u64);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
    }
    out
}

impl Request {
    /// Encodes the request as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Certify {
                graph,
                bypass_cache,
                cached_only,
                summary,
                scheme,
            } => {
                let mut flags = 0;
                if *bypass_cache {
                    flags |= CERTIFY_FLAG_BYPASS_CACHE;
                }
                if *cached_only {
                    flags |= CERTIFY_FLAG_CACHED_ONLY;
                }
                if *summary {
                    flags |= CERTIFY_FLAG_SUMMARY;
                }
                certify_body(graph, flags, *scheme)
            }
            Request::Check { graph, scheme } => encode_check_request(graph, *scheme),
            Request::Gen {
                family,
                n,
                seed,
                scheme,
            } => encode_gen_request(family, *n, *seed, *scheme),
            Request::SoundnessProbe {
                graph,
                seed,
                scheme,
            } => encode_soundness_request(graph, *seed, *scheme),
            Request::Stats => encode_stats_request(),
            Request::SlowLog => encode_slowlog_request(),
            Request::StoreList => encode_store_list_request(),
            Request::StorePush { records } => encode_store_push_request(records),
            Request::GraphChunkBegin {
                session,
                bypass_cache,
                scheme,
            } => encode_chunk_begin_request(*session, *bypass_cache, *scheme),
            Request::GraphChunk {
                session,
                seq,
                payload,
            } => encode_chunk_request(*session, *seq, payload),
            Request::GraphChunkEnd {
                session,
                total_chunks,
                total_bytes,
                crc,
            } => encode_chunk_end_request(*session, *total_chunks, *total_bytes, *crc),
            Request::InteractiveBegin {
                session,
                seed,
                graph,
                commit,
                scheme,
            } => encode_interactive_begin_request(*session, *seed, graph, commit, *scheme),
            Request::InteractiveRespond { session, response } => {
                encode_interactive_respond_request(*session, response)
            }
            Request::Audit { samples, seed } => encode_audit_request(*samples, *seed),
        }
    }

    /// Decodes a frame body; the whole body must be consumed.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut buf = body;
        let req = match get_uvarint(&mut buf)? {
            REQ_CERTIFY => {
                let CertifyFlags {
                    bypass_cache,
                    cached_only,
                    summary,
                } = CertifyFlags::decode(&mut buf)?;
                Request::Certify {
                    bypass_cache,
                    cached_only,
                    summary,
                    graph: decode_graph(&mut buf)?,
                    scheme: decode_extensions(&mut buf)?,
                }
            }
            REQ_CHECK => Request::Check {
                graph: decode_graph(&mut buf)?,
                scheme: decode_extensions(&mut buf)?,
            },
            REQ_GEN => Request::Gen {
                family: decode_string(&mut buf)?,
                n: get_u32(&mut buf, "gen node count")?,
                seed: get_uvarint(&mut buf)?,
                scheme: decode_extensions(&mut buf)?,
            },
            REQ_SOUNDNESS => {
                let seed = get_uvarint(&mut buf)?;
                Request::SoundnessProbe {
                    seed,
                    graph: decode_graph(&mut buf)?,
                    scheme: decode_extensions(&mut buf)?,
                }
            }
            REQ_STATS => Request::Stats,
            REQ_SLOWLOG => Request::SlowLog,
            REQ_STORELIST => Request::StoreList,
            REQ_STOREPUSH => {
                let count = get_uvarint(&mut buf)?;
                // the smallest record is ~8 bytes (1-byte length, a
                // 3-byte body, 4 CRC bytes), so a hostile count is
                // rejected before any allocation
                if count > buf.len() as u64 / 8 {
                    return Err(protocol("store push longer than the frame"));
                }
                let mut records = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let len = get_uvarint(&mut buf)? as usize;
                    if len > buf.len() {
                        return Err(protocol("store record longer than the frame"));
                    }
                    let body = get_bytes(&mut buf, len)?;
                    let crc = u32::from_le_bytes(
                        get_bytes(&mut buf, 4)?
                            .try_into()
                            .expect("get_bytes returned 4 bytes"),
                    );
                    if crc32(body) != crc {
                        return Err(protocol("store record failed its CRC check"));
                    }
                    let record = StoreRecord::decode_body(body)
                        .map_err(|e| protocol(format!("bad store record: {e}")))?;
                    records.push(record);
                }
                Request::StorePush { records }
            }
            REQ_CHUNK_BEGIN => {
                let session = get_uvarint(&mut buf)?;
                let flags = get_uvarint(&mut buf)?;
                if flags & !CERTIFY_FLAG_BYPASS_CACHE != 0 {
                    return Err(protocol(format!("unknown chunk-begin flags {flags:#x}")));
                }
                Request::GraphChunkBegin {
                    session,
                    bypass_cache: flags & CERTIFY_FLAG_BYPASS_CACHE != 0,
                    scheme: decode_extensions(&mut buf)?,
                }
            }
            REQ_CHUNK => {
                let session = get_uvarint(&mut buf)?;
                let seq = get_uvarint(&mut buf)?;
                let len = get_uvarint(&mut buf)? as usize;
                if len > MAX_CHUNK_BYTES {
                    return Err(protocol(format!("chunk of {len} bytes exceeds the limit")));
                }
                if len > buf.len() {
                    return Err(protocol("chunk payload longer than the frame"));
                }
                let payload = get_bytes(&mut buf, len)?;
                let crc = u32::from_le_bytes(
                    get_bytes(&mut buf, 4)?
                        .try_into()
                        .expect("get_bytes returned 4 bytes"),
                );
                if crc32(payload) != crc {
                    return Err(protocol("graph chunk failed its CRC check"));
                }
                Request::GraphChunk {
                    session,
                    seq,
                    payload: payload.to_vec(),
                }
            }
            REQ_CHUNK_END => {
                let session = get_uvarint(&mut buf)?;
                let total_chunks = get_uvarint(&mut buf)?;
                let total_bytes = get_uvarint(&mut buf)?;
                let crc = u32::from_le_bytes(
                    get_bytes(&mut buf, 4)?
                        .try_into()
                        .expect("get_bytes returned 4 bytes"),
                );
                Request::GraphChunkEnd {
                    session,
                    total_chunks,
                    total_bytes,
                    crc,
                }
            }
            REQ_INTERACTIVE_BEGIN => {
                let session = get_uvarint(&mut buf)?;
                let seed = get_uvarint(&mut buf)?;
                let graph = decode_graph(&mut buf)?;
                let commit = Assignment::decode_from(&mut buf)?;
                if commit.certs.len() != graph.node_count() {
                    return Err(protocol(format!(
                        "commitment for {} nodes on a {}-node graph",
                        commit.certs.len(),
                        graph.node_count()
                    )));
                }
                Request::InteractiveBegin {
                    session,
                    seed,
                    graph,
                    commit,
                    scheme: decode_extensions(&mut buf)?,
                }
            }
            REQ_INTERACTIVE_RESPOND => Request::InteractiveRespond {
                session: get_uvarint(&mut buf)?,
                response: Assignment::decode_from(&mut buf)?,
            },
            REQ_AUDIT => Request::Audit {
                samples: get_uvarint(&mut buf)?,
                seed: get_uvarint(&mut buf)?,
            },
            k => return Err(protocol(format!("unknown request kind {k}"))),
        };
        if !buf.is_empty() {
            return Err(protocol(format!("{} trailing bytes", buf.len())));
        }
        Ok(req)
    }
}

/// The flags of a certify request, validated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertifyFlags {
    /// [`CERTIFY_FLAG_BYPASS_CACHE`].
    pub bypass_cache: bool,
    /// [`CERTIFY_FLAG_CACHED_ONLY`].
    pub cached_only: bool,
    /// [`CERTIFY_FLAG_SUMMARY`].
    pub summary: bool,
}

impl CertifyFlags {
    fn decode(buf: &mut &[u8]) -> Result<CertifyFlags, WireError> {
        let flags = get_uvarint(buf)?;
        let known = CERTIFY_FLAG_BYPASS_CACHE | CERTIFY_FLAG_CACHED_ONLY | CERTIFY_FLAG_SUMMARY;
        if flags & !known != 0 {
            return Err(protocol(format!("unknown certify flags {flags:#x}")));
        }
        if flags & CERTIFY_FLAG_CACHED_ONLY != 0
            && flags & (CERTIFY_FLAG_BYPASS_CACHE | CERTIFY_FLAG_SUMMARY) != 0
        {
            // "only the cache" contradicts both "skip the
            // cache" and the prove-components summary mode
            return Err(protocol("contradictory certify flags"));
        }
        Ok(CertifyFlags {
            bypass_cache: flags & CERTIFY_FLAG_BYPASS_CACHE != 0,
            cached_only: flags & CERTIFY_FLAG_CACHED_ONLY != 0,
            summary: flags & CERTIFY_FLAG_SUMMARY != 0,
        })
    }
}

/// A certify request body, validated but not decoded: the graph stays
/// as its wire bytes.
#[derive(Debug, Clone, Copy)]
pub struct CertifyFrame<'a> {
    /// The request's flags.
    pub flags: CertifyFlags,
    /// The scheme the request addresses.
    pub scheme: SchemeId,
    /// The graph's wire bytes: exactly what [`decode_graph`] consumes.
    pub graph: &'a [u8],
    /// The body after the graph (the extension block).
    pub extensions: &'a [u8],
}

/// A request body as [`skim_request`] leaves it.
#[derive(Debug)]
pub enum Skimmed<'a> {
    /// A certify, validated only.
    Certify(CertifyFrame<'a>),
    /// Any other kind, decoded.
    Request(Request),
}

/// Reads a request body without building a certify's graph: a certify
/// body is validated by the same scan [`decode_graph`] runs, every
/// other kind is decoded by [`Request::decode`]. It accepts exactly
/// the bodies `Request::decode` accepts, with the same error text.
/// This is the server's read path — a cache hit is probed on
/// [`CertifyFrame::graph`] and never decodes the graph.
pub fn skim_request(body: &[u8]) -> Result<Skimmed<'_>, WireError> {
    let mut buf = body;
    if get_uvarint(&mut buf)? != REQ_CERTIFY {
        return Request::decode(body).map(Skimmed::Request);
    }
    let flags = CertifyFlags::decode(&mut buf)?;
    let graph = skim_graph(&mut buf)?;
    let extensions = buf;
    // the extension block runs to the end of the body, so there is no
    // trailing-bytes case left to check
    let scheme = decode_extensions(&mut buf)?;
    Ok(Skimmed::Certify(CertifyFrame {
        flags,
        scheme,
        graph,
        extensions,
    }))
}

// ---------------------------------------------------------------------------
// Responses.

/// Verdict of a Check request.
///
/// Planarity checks (the scheme-0 default) return the rich
/// embedding/witness verdicts; every other registered scheme answers
/// with the generic membership pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckVerdict {
    /// Planar, with the certified embedding's face count and genus.
    Planar {
        /// Number of faces of the embedding.
        faces: u64,
        /// Euler genus (0 for a certified planar embedding).
        genus: i64,
    },
    /// Non-planar, with the Kuratowski witness summary.
    NonPlanar {
        /// True for a K5 subdivision, false for K3,3.
        k5: bool,
        /// Branch nodes of the subdivision.
        branch_nodes: Vec<u32>,
        /// Number of edges of the subdivision.
        witness_edges: u64,
    },
    /// In the class of the (non-planarity) scheme named here.
    Member {
        /// Scheme name, echoed by the server.
        scheme: String,
    },
    /// Outside the class of the scheme named here.
    NonMember {
        /// Scheme name, echoed by the server.
        scheme: String,
        /// The prover's refusal reason.
        reason: String,
    },
}

/// One attack row of a soundness probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoundnessLine {
    /// Attack name.
    pub attack: String,
    /// Rejecting nodes, or `None` if the attack was inapplicable.
    pub rejects: Option<u64>,
}

/// A server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// The request failed (malformed input, unknown family, ...).
    Error(String),
    /// Certificates for a yes-instance.
    Certified {
        /// True when served from the certificate cache.
        cached: bool,
        /// Measured verification outcome.
        outcome: Outcome,
        /// The certificate assignment itself.
        assignment: Assignment,
    },
    /// The honest prover declined: the instance is outside the class.
    Declined {
        /// True when the (negative) result was served from cache.
        cached: bool,
        /// The prover's reason.
        reason: String,
    },
    /// Planarity verdict.
    Checked(CheckVerdict),
    /// A generated graph.
    Generated(Graph),
    /// Soundness probe rows.
    Soundness(Vec<SoundnessLine>),
    /// Server counters (boxed: the snapshot dwarfs every other variant).
    Stats(Box<StatsSnapshot>),
    /// Retained slow-request entries, newest first.
    SlowLog(Vec<SlowLogEntry>),
    /// The content-key digests of the server's store (StoreList
    /// answer): 128-bit keys, one per retained record.
    StoreKeys(Vec<u128>),
    /// Outcome of a StorePush.
    StorePushed {
        /// Records newly absorbed into the store.
        merged: u64,
        /// Records already present (deduplicated by content key).
        duplicates: u64,
    },
    /// A summary-mode certify answer: the measured outcome without
    /// the assignment, so the frame stays small for giant graphs.
    CertifiedSummary {
        /// True when served from the certificate cache.
        cached: bool,
        /// Measured (possibly component-merged) verification outcome.
        outcome: Outcome,
    },
    /// Acknowledges a `GraphChunkBegin` or `GraphChunk` frame.
    ChunkAck {
        /// The session the ack belongs to.
        session: u64,
        /// Chunks received in the session so far (0 for the Begin ack).
        received: u64,
    },
    /// Arthur's public coin, answering an `InteractiveBegin`. The
    /// coin is `challenge_from_seed(seed)` — a pure function of the
    /// session seed, never server randomness — so the transcript is
    /// reproducible and byte-identical across front ends.
    Challenge {
        /// The session the challenge belongs to.
        session: u64,
        /// The public coin every node's verifier sees.
        challenge: u64,
    },
    /// The closing verdict of an interactive session, answering an
    /// `InteractiveRespond`.
    Verdict {
        /// The session the verdict closes.
        session: u64,
        /// The challenge the response was verified against (echoed).
        challenge: u64,
        /// True when every node accepted.
        accept: bool,
        /// Number of rejecting nodes.
        reject_count: u64,
        /// Nodes verified.
        nodes: u64,
        /// Largest per-node commitment, in bits.
        max_commit_bits: u64,
        /// Largest per-node response, in bits.
        max_response_bits: u64,
        /// The scheme's per-session soundness bound, in parts per
        /// million: a forged proof on this graph survives one
        /// challenge with probability at most `soundness_ppm / 1e6`.
        soundness_ppm: u64,
    },
    /// Outcome of one randomized store-audit sweep (Audit answer).
    AuditReport {
        /// Records sampled by the sweep.
        sampled: u64,
        /// Records that failed re-verification or the fingerprint
        /// cross-check.
        failed: u64,
        /// Records actually removed from the cache and store.
        quarantined: u64,
    },
}

const RESP_ERROR: u64 = 0;
const RESP_CERTIFIED: u64 = 1;
const RESP_DECLINED: u64 = 2;
const RESP_CHECKED: u64 = 3;
const RESP_GENERATED: u64 = 4;
const RESP_SOUNDNESS: u64 = 5;
const RESP_STATS: u64 = 6;
const RESP_SLOWLOG: u64 = 7;
const RESP_STOREKEYS: u64 = 8;
const RESP_STOREPUSHED: u64 = 9;
const RESP_CERTIFIED_SUMMARY: u64 = 10;
const RESP_CHUNK_ACK: u64 = 11;
const RESP_CHALLENGE: u64 = 12;
const RESP_VERDICT: u64 = 13;
const RESP_AUDIT_REPORT: u64 = 14;

/// Upper bound on slow-log rows accepted on decode (well above
/// [`crate::metrics::SLOW_LOG_CAP`], leaving room for future
/// fleet-side aggregation).
const MAX_SLOWLOG_ROWS: usize = 4096;

/// Encodes the cacheable suffix of a Certified response (outcome +
/// assignment). The cache stores exactly these bytes, so a hit is a
/// memcpy of a shared buffer, never a re-encode of the certificates.
pub fn encode_certified_suffix(outcome: &Outcome, assignment: &Assignment) -> Vec<u8> {
    let mut out = Vec::with_capacity(assignment.byte_size() + 64);
    outcome.encode_into(&mut out);
    assignment.encode_into(&mut out);
    out
}

/// Builds a full Certified frame body from a pre-encoded suffix.
pub fn certified_body_from_suffix(cached: bool, suffix: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(suffix.len() + 2);
    put_uvarint(&mut out, RESP_CERTIFIED);
    put_uvarint(&mut out, cached as u64);
    out.extend_from_slice(suffix);
    out
}

/// Encodes the cacheable suffix of a Declined response (the reason
/// string) — the negative-cache counterpart of
/// [`encode_certified_suffix`].
pub fn encode_declined_suffix(reason: &str) -> Vec<u8> {
    let mut out = Vec::new();
    encode_string(&mut out, reason);
    out
}

/// Builds a full Declined frame body from a pre-encoded suffix.
pub fn declined_body_from_suffix(cached: bool, suffix: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(suffix.len() + 2);
    put_uvarint(&mut out, RESP_DECLINED);
    put_uvarint(&mut out, cached as u64);
    out.extend_from_slice(suffix);
    out
}

/// Builds a CertifiedSummary frame body from a cached Certified
/// suffix (outcome ‖ assignment): the outcome prefix is re-framed,
/// the assignment bytes are dropped. This is how a summary-mode
/// cache hit answers without re-encoding certificates it will not
/// send.
pub fn summary_body_from_suffix(cached: bool, suffix: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut rest = suffix;
    let outcome = Outcome::decode_from(&mut rest)?;
    let mut out = Vec::new();
    put_uvarint(&mut out, RESP_CERTIFIED_SUMMARY);
    put_uvarint(&mut out, cached as u64);
    outcome.encode_into(&mut out);
    Ok(out)
}

impl Response {
    /// Encodes the response as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Error(msg) => {
                put_uvarint(&mut out, RESP_ERROR);
                encode_string(&mut out, msg);
            }
            Response::Certified {
                cached,
                outcome,
                assignment,
            } => {
                return certified_body_from_suffix(
                    *cached,
                    &encode_certified_suffix(outcome, assignment),
                );
            }
            Response::Declined { cached, reason } => {
                return declined_body_from_suffix(*cached, &encode_declined_suffix(reason));
            }
            Response::Checked(verdict) => {
                put_uvarint(&mut out, RESP_CHECKED);
                match verdict {
                    CheckVerdict::Planar { faces, genus } => {
                        put_uvarint(&mut out, 1);
                        put_uvarint(&mut out, *faces);
                        put_uvarint(&mut out, *genus as u64);
                    }
                    CheckVerdict::NonPlanar {
                        k5,
                        branch_nodes,
                        witness_edges,
                    } => {
                        put_uvarint(&mut out, 0);
                        put_uvarint(&mut out, *k5 as u64);
                        put_uvarint(&mut out, branch_nodes.len() as u64);
                        for &b in branch_nodes {
                            put_uvarint(&mut out, b as u64);
                        }
                        put_uvarint(&mut out, *witness_edges);
                    }
                    CheckVerdict::Member { scheme } => {
                        put_uvarint(&mut out, 2);
                        encode_string(&mut out, scheme);
                    }
                    CheckVerdict::NonMember { scheme, reason } => {
                        put_uvarint(&mut out, 3);
                        encode_string(&mut out, scheme);
                        encode_string(&mut out, reason);
                    }
                }
            }
            Response::Generated(g) => {
                put_uvarint(&mut out, RESP_GENERATED);
                encode_graph(&mut out, g);
            }
            Response::Soundness(rows) => {
                put_uvarint(&mut out, RESP_SOUNDNESS);
                put_uvarint(&mut out, rows.len() as u64);
                for row in rows {
                    encode_string(&mut out, &row.attack);
                    match row.rejects {
                        None => put_uvarint(&mut out, 0),
                        Some(r) => put_uvarint(&mut out, 1 + r),
                    }
                }
            }
            Response::Stats(snapshot) => {
                put_uvarint(&mut out, RESP_STATS);
                snapshot.encode_into(&mut out);
            }
            Response::SlowLog(entries) => {
                put_uvarint(&mut out, RESP_SLOWLOG);
                put_uvarint(&mut out, entries.len() as u64);
                for entry in entries {
                    entry.encode_into(&mut out);
                }
            }
            Response::StoreKeys(keys) => {
                put_uvarint(&mut out, RESP_STOREKEYS);
                put_uvarint(&mut out, keys.len() as u64);
                for key in keys {
                    out.extend_from_slice(&key.to_le_bytes());
                }
            }
            Response::StorePushed { merged, duplicates } => {
                put_uvarint(&mut out, RESP_STOREPUSHED);
                put_uvarint(&mut out, *merged);
                put_uvarint(&mut out, *duplicates);
            }
            Response::CertifiedSummary { cached, outcome } => {
                put_uvarint(&mut out, RESP_CERTIFIED_SUMMARY);
                put_uvarint(&mut out, *cached as u64);
                outcome.encode_into(&mut out);
            }
            Response::ChunkAck { session, received } => {
                put_uvarint(&mut out, RESP_CHUNK_ACK);
                put_uvarint(&mut out, *session);
                put_uvarint(&mut out, *received);
            }
            Response::Challenge { session, challenge } => {
                put_uvarint(&mut out, RESP_CHALLENGE);
                put_uvarint(&mut out, *session);
                put_uvarint(&mut out, *challenge);
            }
            Response::Verdict {
                session,
                challenge,
                accept,
                reject_count,
                nodes,
                max_commit_bits,
                max_response_bits,
                soundness_ppm,
            } => {
                put_uvarint(&mut out, RESP_VERDICT);
                put_uvarint(&mut out, *session);
                put_uvarint(&mut out, *challenge);
                put_uvarint(&mut out, *accept as u64);
                put_uvarint(&mut out, *reject_count);
                put_uvarint(&mut out, *nodes);
                put_uvarint(&mut out, *max_commit_bits);
                put_uvarint(&mut out, *max_response_bits);
                put_uvarint(&mut out, *soundness_ppm);
            }
            Response::AuditReport {
                sampled,
                failed,
                quarantined,
            } => {
                put_uvarint(&mut out, RESP_AUDIT_REPORT);
                put_uvarint(&mut out, *sampled);
                put_uvarint(&mut out, *failed);
                put_uvarint(&mut out, *quarantined);
            }
        }
        out
    }

    /// Decodes a frame body; the whole body must be consumed.
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let mut buf = body;
        let resp = match get_uvarint(&mut buf)? {
            RESP_ERROR => Response::Error(decode_string(&mut buf)?),
            RESP_CERTIFIED => {
                let cached = get_uvarint(&mut buf)? != 0;
                let outcome = Outcome::decode_from(&mut buf)?;
                let assignment = Assignment::decode_from(&mut buf)?;
                Response::Certified {
                    cached,
                    outcome,
                    assignment,
                }
            }
            RESP_DECLINED => Response::Declined {
                cached: get_uvarint(&mut buf)? != 0,
                reason: decode_string(&mut buf)?,
            },
            RESP_CHECKED => {
                let verdict = match get_uvarint(&mut buf)? {
                    1 => CheckVerdict::Planar {
                        faces: get_uvarint(&mut buf)?,
                        genus: get_uvarint(&mut buf)? as i64,
                    },
                    0 => {
                        let k5 = get_uvarint(&mut buf)? != 0;
                        let count = get_uvarint(&mut buf)? as usize;
                        if count > 6 {
                            return Err(protocol("too many branch nodes"));
                        }
                        let mut branch_nodes = Vec::with_capacity(count);
                        for _ in 0..count {
                            branch_nodes.push(get_u32(&mut buf, "branch node")?);
                        }
                        CheckVerdict::NonPlanar {
                            k5,
                            branch_nodes,
                            witness_edges: get_uvarint(&mut buf)?,
                        }
                    }
                    2 => CheckVerdict::Member {
                        scheme: decode_string(&mut buf)?,
                    },
                    3 => CheckVerdict::NonMember {
                        scheme: decode_string(&mut buf)?,
                        reason: decode_string(&mut buf)?,
                    },
                    v => return Err(protocol(format!("unknown check verdict {v}"))),
                };
                Response::Checked(verdict)
            }
            RESP_GENERATED => Response::Generated(decode_graph(&mut buf)?),
            RESP_SOUNDNESS => {
                let count = get_uvarint(&mut buf)? as usize;
                if count > 1024 {
                    return Err(protocol("too many soundness rows"));
                }
                let mut rows = Vec::with_capacity(count);
                for _ in 0..count {
                    let attack = decode_string(&mut buf)?;
                    let rejects = match get_uvarint(&mut buf)? {
                        0 => None,
                        r => Some(r - 1),
                    };
                    rows.push(SoundnessLine { attack, rejects });
                }
                Response::Soundness(rows)
            }
            RESP_STATS => Response::Stats(Box::new(StatsSnapshot::decode_from(&mut buf)?)),
            RESP_SLOWLOG => {
                let count = get_uvarint(&mut buf)? as usize;
                if count > MAX_SLOWLOG_ROWS {
                    return Err(protocol("too many slow-log rows"));
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(SlowLogEntry::decode_from(&mut buf)?);
                }
                Response::SlowLog(entries)
            }
            RESP_STOREKEYS => {
                let count = get_uvarint(&mut buf)?;
                // each key is exactly 16 bytes, so the count is
                // bounded by the remaining frame before allocating
                if count > buf.len() as u64 / 16 {
                    return Err(protocol("key list longer than the frame"));
                }
                let mut keys = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let raw = get_bytes(&mut buf, 16)?;
                    keys.push(u128::from_le_bytes(
                        raw.try_into().expect("get_bytes returned 16 bytes"),
                    ));
                }
                Response::StoreKeys(keys)
            }
            RESP_STOREPUSHED => Response::StorePushed {
                merged: get_uvarint(&mut buf)?,
                duplicates: get_uvarint(&mut buf)?,
            },
            RESP_CERTIFIED_SUMMARY => Response::CertifiedSummary {
                cached: get_uvarint(&mut buf)? != 0,
                outcome: Outcome::decode_from(&mut buf)?,
            },
            RESP_CHUNK_ACK => Response::ChunkAck {
                session: get_uvarint(&mut buf)?,
                received: get_uvarint(&mut buf)?,
            },
            RESP_CHALLENGE => Response::Challenge {
                session: get_uvarint(&mut buf)?,
                challenge: get_uvarint(&mut buf)?,
            },
            RESP_VERDICT => Response::Verdict {
                session: get_uvarint(&mut buf)?,
                challenge: get_uvarint(&mut buf)?,
                accept: get_uvarint(&mut buf)? != 0,
                reject_count: get_uvarint(&mut buf)?,
                nodes: get_uvarint(&mut buf)?,
                max_commit_bits: get_uvarint(&mut buf)?,
                max_response_bits: get_uvarint(&mut buf)?,
                soundness_ppm: get_uvarint(&mut buf)?,
            },
            RESP_AUDIT_REPORT => Response::AuditReport {
                sampled: get_uvarint(&mut buf)?,
                failed: get_uvarint(&mut buf)?,
                quarantined: get_uvarint(&mut buf)?,
            },
            k => return Err(protocol(format!("unknown response kind {k}"))),
        };
        if !buf.is_empty() {
            return Err(protocol(format!("{} trailing bytes", buf.len())));
        }
        Ok(resp)
    }
}

/// Structural graph equality (nodes, canonical edges, identifiers) —
/// what the wire codec preserves.
pub fn graphs_equal(a: &Graph, b: &Graph) -> bool {
    a.node_count() == b.node_count()
        && a.ids() == b.ids()
        && canon::canonical_edges(a) == canon::canonical_edges(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_graph::generators;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn graph_roundtrip_with_and_without_ids() {
        for g in [
            generators::grid(5, 7),
            generators::shuffle_ids(&generators::random_planar(40, 0.5, 3), 9),
            generators::path(1),
            generators::complete(5),
        ] {
            let mut out = Vec::new();
            encode_graph(&mut out, &g);
            let mut cursor = out.as_slice();
            let h = decode_graph(&mut cursor).unwrap();
            assert!(cursor.is_empty());
            assert!(graphs_equal(&g, &h));
        }
    }

    #[test]
    fn default_ids_are_not_transmitted() {
        let g = generators::grid(10, 10);
        let relabelled = generators::shuffle_ids(&g, 1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_graph(&mut a, &g);
        encode_graph(&mut b, &relabelled);
        assert!(a.len() < b.len(), "custom ids cost wire bytes");
    }

    #[test]
    fn malformed_graphs_rejected() {
        // edge endpoint out of range: n = 2, 1 edge with huge gap
        let mut out = Vec::new();
        put_uvarint(&mut out, 2); // n
        put_uvarint(&mut out, 0); // default ids
        put_uvarint(&mut out, 1); // m
        put_uvarint(&mut out, 0); // du
        put_uvarint(&mut out, 5); // dv -> v = 6 out of range
        assert!(decode_graph(&mut out.as_slice()).is_err());

        // duplicate ids
        let mut out = Vec::new();
        put_uvarint(&mut out, 2);
        put_uvarint(&mut out, 1); // custom ids
        put_uvarint(&mut out, 9);
        put_uvarint(&mut out, 9);
        put_uvarint(&mut out, 0);
        assert!(decode_graph(&mut out.as_slice()).is_err());

        // impossible edge count
        let mut out = Vec::new();
        put_uvarint(&mut out, 3);
        put_uvarint(&mut out, 0);
        put_uvarint(&mut out, 100);
        assert!(decode_graph(&mut out.as_slice()).is_err());
    }

    #[test]
    fn request_tags_are_stable() {
        let req = Request::Certify {
            graph: generators::cycle(4),
            bypass_cache: true,
            cached_only: false,
            summary: false,
            scheme: SchemeId::PLANARITY,
        };
        let body = req.encode();
        assert_eq!(body[0] as u64, REQ_CERTIFY);
        match Request::decode(&body).unwrap() {
            Request::Certify {
                bypass_cache: true, ..
            } => {}
            other => panic!("bad decode: {other:?}"),
        }
        assert!(Request::decode(&[42]).is_err(), "unknown kind");
        let mut trailing = Request::Stats.encode();
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn scheme_id_rides_the_extension_block() {
        let g = generators::cycle(6);
        // default scheme: byte-identical to the v1 encoding (no block)
        let v1 = encode_certify_request(&g, false, SchemeId::PLANARITY);
        let req = Request::decode(&v1).unwrap();
        assert_eq!(req.scheme(), Some(SchemeId::PLANARITY));
        // explicit scheme: a trailing block old planarity bytes lack
        let v2 = encode_certify_request(&g, false, SchemeId::BIPARTITE);
        assert_eq!(&v2[..v1.len()], &v1[..], "extension is strictly trailing");
        assert_eq!(
            Request::decode(&v2).unwrap().scheme(),
            Some(SchemeId::BIPARTITE)
        );
        // every graph-carrying kind round-trips its scheme
        for body in [
            encode_check_request(&g, SchemeId::TREE),
            encode_gen_request("grid", 9, 1, SchemeId::SPANNING_TREE),
            encode_soundness_request(&g, 7, SchemeId::MOD_COUNTER),
        ] {
            let req = Request::decode(&body).unwrap();
            assert_ne!(req.scheme(), Some(SchemeId::PLANARITY));
        }
    }

    #[test]
    fn unknown_extensions_are_skipped_malformed_rejected() {
        let g = generators::path(3);
        let mut body = encode_check_request(&g, SchemeId::PLANARITY);
        // unknown extension tag 99 with a 2-byte payload: skipped
        put_uvarint(&mut body, 99);
        put_uvarint(&mut body, 2);
        body.extend_from_slice(&[0xde, 0xad]);
        // followed by a scheme id, still honored
        put_uvarint(&mut body, EXT_SCHEME_ID);
        put_uvarint(&mut body, 1);
        put_uvarint(&mut body, SchemeId::BIPARTITE.0 as u64);
        assert_eq!(
            Request::decode(&body).unwrap().scheme(),
            Some(SchemeId::BIPARTITE)
        );

        // duplicate scheme-id extension: protocol error
        let mut dup = encode_check_request(&g, SchemeId::BIPARTITE);
        put_uvarint(&mut dup, EXT_SCHEME_ID);
        put_uvarint(&mut dup, 1);
        put_uvarint(&mut dup, 2);
        assert!(Request::decode(&dup).is_err());

        // out-of-range scheme id: protocol error
        let mut big = encode_check_request(&g, SchemeId::PLANARITY);
        put_uvarint(&mut big, EXT_SCHEME_ID);
        let mut payload = Vec::new();
        put_uvarint(&mut payload, u16::MAX as u64 + 1);
        put_uvarint(&mut big, payload.len() as u64);
        big.extend_from_slice(&payload);
        assert!(Request::decode(&big).is_err());

        // truncated extension: error, not a panic
        let mut cut = encode_check_request(&g, SchemeId::PLANARITY);
        put_uvarint(&mut cut, EXT_SCHEME_ID);
        put_uvarint(&mut cut, 5); // promises 5 payload bytes, has none
        assert!(Request::decode(&cut).is_err());
    }

    #[test]
    fn slowlog_frames_roundtrip() {
        let body = encode_slowlog_request();
        assert_eq!(body, vec![REQ_SLOWLOG as u8], "bare one-byte request");
        assert!(matches!(Request::decode(&body).unwrap(), Request::SlowLog));
        assert_eq!(Request::SlowLog.scheme(), None);
        assert_eq!(Request::SlowLog.kind_tag(), REQ_SLOWLOG as u8);

        let entries = vec![
            SlowLogEntry {
                trace_id: (3 << 32) | 7,
                kind: REQ_CERTIFY as u8,
                scheme: 2,
                age_us: 5_000_000,
                total_us: 61_000,
                read_decode_us: 14,
                queue_wait_us: 420,
                service_us: 59_000,
                reorder_wait_us: 66,
                write_flush_us: 1_500,
            },
            SlowLogEntry::default(),
        ];
        let resp = Response::SlowLog(entries.clone());
        match Response::decode(&resp.encode()).unwrap() {
            Response::SlowLog(back) => assert_eq!(back, entries),
            other => panic!("{other:?}"),
        }

        // hostile row count: rejected by the bound, not allocated
        let mut hostile = Vec::new();
        put_uvarint(&mut hostile, RESP_SLOWLOG);
        put_uvarint(&mut hostile, 1 << 30);
        assert!(Response::decode(&hostile).is_err());
    }

    #[test]
    fn cached_only_probe_frames() {
        let g = generators::cycle(5);
        let body = encode_certify_probe_request(&g, SchemeId::BIPARTITE);
        match Request::decode(&body).unwrap() {
            Request::Certify {
                bypass_cache: false,
                cached_only: true,
                scheme,
                ..
            } => assert_eq!(scheme, SchemeId::BIPARTITE),
            other => panic!("bad decode: {other:?}"),
        }
        // plain certify stays byte-identical to the pre-v6 encoding:
        // flags byte 0, no new fields
        let plain = encode_certify_request(&g, false, SchemeId::PLANARITY);
        assert_eq!(plain[1], 0, "flags byte");

        // bypass + cached-only contradict each other: rejected
        let mut both = Vec::new();
        put_uvarint(&mut both, REQ_CERTIFY);
        put_uvarint(
            &mut both,
            CERTIFY_FLAG_BYPASS_CACHE | CERTIFY_FLAG_CACHED_ONLY,
        );
        encode_graph(&mut both, &g);
        assert!(Request::decode(&both).is_err());
    }

    #[test]
    fn store_push_frames_roundtrip_and_reject_corruption() {
        use crate::store::RecordKind;

        let body = encode_store_list_request();
        assert_eq!(body, vec![REQ_STORELIST as u8], "bare one-byte request");
        assert!(matches!(
            Request::decode(&body).unwrap(),
            Request::StoreList
        ));
        assert_eq!(Request::StoreList.scheme(), None);

        let records = vec![
            StoreRecord {
                kind: RecordKind::Declined,
                keyed: vec![0x00],
                suffix: vec![0x02, b'n', b'o'],
            },
            StoreRecord {
                kind: RecordKind::Certified,
                keyed: vec![1, 2, 3, 4],
                suffix: vec![9; 40],
            },
        ];
        let body = encode_store_push_request(&records);
        match Request::decode(&body).unwrap() {
            Request::StorePush { records: back } => {
                assert_eq!(back.len(), 2);
                assert_eq!(back[0].keyed, records[0].keyed);
                assert_eq!(back[1].suffix, records[1].suffix);
                assert_eq!(back[0].key(), records[0].key());
            }
            other => panic!("bad decode: {other:?}"),
        }

        // flip one certificate byte: the CRC catches it
        let mut corrupt = body.clone();
        let last = corrupt.len() - 5; // inside record 2's body, before its CRC
        corrupt[last] ^= 0x01;
        assert!(Request::decode(&corrupt).is_err(), "corruption detected");

        // hostile record count: rejected by the bound, not allocated
        let mut hostile = Vec::new();
        put_uvarint(&mut hostile, REQ_STOREPUSH);
        put_uvarint(&mut hostile, 1 << 40);
        assert!(Request::decode(&hostile).is_err());
    }

    #[test]
    fn store_keys_and_pushed_responses_roundtrip() {
        let keys = vec![0u128, 1, u128::MAX, 0xdead_beef];
        match Response::decode(&Response::StoreKeys(keys.clone()).encode()).unwrap() {
            Response::StoreKeys(back) => assert_eq!(back, keys),
            other => panic!("{other:?}"),
        }
        match Response::decode(
            &Response::StorePushed {
                merged: 7,
                duplicates: 3,
            }
            .encode(),
        )
        .unwrap()
        {
            Response::StorePushed { merged, duplicates } => {
                assert_eq!((merged, duplicates), (7, 3));
            }
            other => panic!("{other:?}"),
        }

        // hostile key count: bounded by the remaining frame bytes
        let mut hostile = Vec::new();
        put_uvarint(&mut hostile, RESP_STOREKEYS);
        put_uvarint(&mut hostile, 1 << 40);
        assert!(Response::decode(&hostile).is_err());
    }

    #[test]
    fn summary_certify_frames() {
        let g = generators::grid(3, 4);
        let body = encode_certify_summary_request(&g, true, SchemeId::BIPARTITE);
        match Request::decode(&body).unwrap() {
            Request::Certify {
                bypass_cache: true,
                cached_only: false,
                summary: true,
                scheme,
                ..
            } => assert_eq!(scheme, SchemeId::BIPARTITE),
            other => panic!("bad decode: {other:?}"),
        }

        // summary + cached-only contradict each other: rejected
        let mut both = Vec::new();
        put_uvarint(&mut both, REQ_CERTIFY);
        put_uvarint(&mut both, CERTIFY_FLAG_SUMMARY | CERTIFY_FLAG_CACHED_ONLY);
        encode_graph(&mut both, &g);
        assert!(Request::decode(&both).is_err());

        // a summary response carries the outcome and nothing else
        let outcome = Outcome {
            verdicts: vec![true, true, false, true],
            rounds: 1,
            max_message_bits: 12,
            total_message_bits: 48,
            max_cert_bits: 9,
            total_cert_bits: 36,
            avg_cert_bits: 9.0,
        };
        let resp = Response::CertifiedSummary {
            cached: true,
            outcome: outcome.clone(),
        };
        match Response::decode(&resp.encode()).unwrap() {
            Response::CertifiedSummary { cached, outcome: o } => {
                assert!(cached);
                assert_eq!(o, outcome);
            }
            other => panic!("{other:?}"),
        }

        // summary_body_from_suffix drops the assignment bytes but
        // preserves the outcome exactly
        let assignment = Assignment::empty(4);
        let suffix = encode_certified_suffix(&outcome, &assignment);
        let body = summary_body_from_suffix(false, &suffix).unwrap();
        match Response::decode(&body).unwrap() {
            Response::CertifiedSummary {
                cached: false,
                outcome: o,
            } => assert_eq!(o, outcome),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chunk_frames_roundtrip_and_reject_corruption() {
        let begin = encode_chunk_begin_request(7, true, SchemeId::TREE);
        match Request::decode(&begin).unwrap() {
            Request::GraphChunkBegin {
                session: 7,
                bypass_cache: true,
                scheme,
            } => assert_eq!(scheme, SchemeId::TREE),
            other => panic!("bad decode: {other:?}"),
        }
        assert_eq!(Request::decode(&begin).unwrap().kind_tag(), 9);

        let chunk = encode_chunk_request(7, 3, b"edge bytes");
        match Request::decode(&chunk).unwrap() {
            Request::GraphChunk {
                session: 7,
                seq: 3,
                payload,
            } => assert_eq!(payload, b"edge bytes"),
            other => panic!("bad decode: {other:?}"),
        }

        // flip one payload byte: the CRC catches it
        let mut corrupt = chunk.clone();
        let idx = chunk.len() - 6; // inside the payload, before the CRC
        corrupt[idx] ^= 0x40;
        assert!(Request::decode(&corrupt).is_err(), "corruption detected");

        // hostile payload length: rejected before allocation
        let mut hostile = Vec::new();
        put_uvarint(&mut hostile, REQ_CHUNK);
        put_uvarint(&mut hostile, 7);
        put_uvarint(&mut hostile, 0);
        put_uvarint(&mut hostile, (MAX_CHUNK_BYTES as u64) + 1);
        assert!(Request::decode(&hostile).is_err());

        let end = encode_chunk_end_request(7, 4, 40_000, 0xdead_beef);
        match Request::decode(&end).unwrap() {
            Request::GraphChunkEnd {
                session: 7,
                total_chunks: 4,
                total_bytes: 40_000,
                crc: 0xdead_beef,
            } => {}
            other => panic!("bad decode: {other:?}"),
        }

        let ack = Response::ChunkAck {
            session: 7,
            received: 4,
        };
        match Response::decode(&ack.encode()).unwrap() {
            Response::ChunkAck { session, received } => assert_eq!((session, received), (7, 4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stream_decoder_matches_single_frame_decode() {
        let graphs = [
            generators::shuffle_ids(&generators::grid(9, 11), 5),
            generators::random_planar(60, 0.4, 2),
            generators::path(1),
            generators::grid(1, 1),
        ];
        for g in &graphs {
            let mut enc = Vec::new();
            encode_graph(&mut enc, g);
            // every chunk size, down to one byte at a time, lands on
            // the same graph and re-encodes byte-identically
            for chunk_size in [1usize, 2, 3, 7, enc.len().max(1)] {
                let mut dec = GraphStreamDecoder::new();
                for chunk in enc.chunks(chunk_size) {
                    dec.feed(chunk).unwrap();
                    assert!(dec.carry_len() < 10, "carry is a partial varint at most");
                }
                let h = dec.finish().unwrap();
                assert!(graphs_equal(g, &h));
                let mut re = Vec::new();
                encode_graph(&mut re, &h);
                assert_eq!(re, enc, "stream decode is canonical");
            }
        }
    }

    #[test]
    fn stream_decoder_rejects_malformed_streams() {
        let g = generators::grid(4, 4);
        let mut enc = Vec::new();
        encode_graph(&mut enc, &g);

        // truncated: grammar incomplete at finish
        let mut dec = GraphStreamDecoder::new();
        dec.feed(&enc[..enc.len() - 1]).unwrap();
        assert!(dec.finish().is_err());

        // trailing garbage after the last edge
        let mut dec = GraphStreamDecoder::new();
        let mut long = enc.clone();
        long.push(0x00);
        assert!(dec.feed(&long).is_err());

        // an unterminated varint can never complete
        let mut dec = GraphStreamDecoder::new();
        assert!(dec.feed(&[0x80; 16]).is_err());

        // node count beyond the stream cap
        let mut dec = GraphStreamDecoder::new();
        let mut big = Vec::new();
        put_uvarint(&mut big, MAX_STREAM_NODES + 1);
        assert!(dec.feed(&big).is_err());

        // duplicate ids, split across feeds
        let mut bad = Vec::new();
        put_uvarint(&mut bad, 2);
        put_uvarint(&mut bad, 1);
        put_uvarint(&mut bad, 9);
        put_uvarint(&mut bad, 9);
        let mut dec = GraphStreamDecoder::new();
        let (a, b) = bad.split_at(2);
        dec.feed(a).unwrap();
        assert!(dec.feed(b).is_err());
    }

    #[test]
    fn interactive_frames_roundtrip() {
        use dpc_runtime::Payload;

        let g = generators::cycle(4);
        let commit = Assignment {
            certs: vec![Payload::from_bytes(vec![0xab], 8); 4],
        };
        let begin = encode_interactive_begin_request(9, 77, &g, &commit, SchemeId::PLANARITY);
        assert_eq!(begin[0] as u64, REQ_INTERACTIVE_BEGIN);
        match Request::decode(&begin).unwrap() {
            Request::InteractiveBegin {
                session: 9,
                seed: 77,
                graph,
                commit: back,
                scheme: SchemeId::PLANARITY,
            } => {
                assert!(graphs_equal(&graph, &g));
                assert_eq!(back.certs.len(), commit.certs.len());
            }
            other => panic!("bad decode: {other:?}"),
        }
        assert_eq!(Request::decode(&begin).unwrap().kind_tag(), 12);
        assert_eq!(
            Request::decode(&begin).unwrap().scheme(),
            Some(SchemeId::PLANARITY)
        );

        // a commitment sized for the wrong graph is rejected
        let short = Assignment {
            certs: vec![Payload::from_bytes(vec![0x01], 8); 3],
        };
        let bad = encode_interactive_begin_request(9, 77, &g, &short, SchemeId::PLANARITY);
        assert!(Request::decode(&bad).is_err(), "commit/graph size mismatch");

        let respond = encode_interactive_respond_request(9, &commit);
        match Request::decode(&respond).unwrap() {
            Request::InteractiveRespond {
                session: 9,
                response,
            } => {
                assert_eq!(response.certs.len(), 4);
            }
            other => panic!("bad decode: {other:?}"),
        }
        assert_eq!(Request::decode(&respond).unwrap().scheme(), None);

        let challenge = Response::Challenge {
            session: 9,
            challenge: u64::MAX,
        };
        match Response::decode(&challenge.encode()).unwrap() {
            Response::Challenge { session, challenge } => {
                assert_eq!((session, challenge), (9, u64::MAX));
            }
            other => panic!("{other:?}"),
        }

        let verdict = Response::Verdict {
            session: 9,
            challenge: 42,
            accept: false,
            reject_count: 2,
            nodes: 4,
            max_commit_bits: 160,
            max_response_bits: 80,
            soundness_ppm: 500_000,
        };
        match Response::decode(&verdict.encode()).unwrap() {
            Response::Verdict {
                session: 9,
                challenge: 42,
                accept: false,
                reject_count: 2,
                nodes: 4,
                max_commit_bits: 160,
                max_response_bits: 80,
                soundness_ppm: 500_000,
            } => {}
            other => panic!("{other:?}"),
        }

        // trailing bytes after a verdict are rejected
        let mut trailing = verdict.encode();
        trailing.push(0);
        assert!(Response::decode(&trailing).is_err());
    }

    #[test]
    fn audit_frames_roundtrip() {
        let body = encode_audit_request(32, 1234);
        assert_eq!(body[0] as u64, REQ_AUDIT);
        match Request::decode(&body).unwrap() {
            Request::Audit {
                samples: 32,
                seed: 1234,
            } => {}
            other => panic!("bad decode: {other:?}"),
        }
        assert_eq!(Request::decode(&body).unwrap().kind_tag(), 14);
        assert_eq!(Request::decode(&body).unwrap().scheme(), None);

        let report = Response::AuditReport {
            sampled: 32,
            failed: 1,
            quarantined: 1,
        };
        match Response::decode(&report.encode()).unwrap() {
            Response::AuditReport {
                sampled: 32,
                failed: 1,
                quarantined: 1,
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn member_verdicts_roundtrip() {
        for verdict in [
            CheckVerdict::Member {
                scheme: "bipartite".into(),
            },
            CheckVerdict::NonMember {
                scheme: "tree".into(),
                reason: "instance is not in the class: trees".into(),
            },
        ] {
            let resp = Response::Checked(verdict.clone());
            match Response::decode(&resp.encode()).unwrap() {
                Response::Checked(back) => assert_eq!(back, verdict),
                other => panic!("{other:?}"),
            }
        }
    }
}
