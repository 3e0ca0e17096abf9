//! The traced run's span recorder and the in-process replay of the
//! server's layer calls.
//!
//! Spans are taken from outside each layer, by bracketing a call into
//! its public functions, and kept in memory until the run writes them
//! out as JSON. A span's self time is its duration minus its
//! children's durations.

use crate::alloc::{self, Allocs};
use dpc_core::harness::run_with_assignment;
use dpc_core::scheme::{Assignment, ProofLabelingScheme};
use dpc_core::schemes::planarity::PlanarityScheme;
use dpc_core::schemes::tree_base::build_tree_certs;
use dpc_graph::{canon, degeneracy, traversal, Graph};
use dpc_planar::{lr, tembed};
use dpc_runtime::{get_uvarint, put_uvarint, run_protocol, NodeCtx, Payload, Protocol, Step};
use dpc_service::cache::{CacheEntry, ProveResult};
use dpc_service::store::CertStore;
use dpc_service::wire::{self, Response};
use dpc_service::{CacheConfig, CertCache, SchemeId, SegmentConfig, SegmentStore};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
    pub allocs: Allocs,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Runs `f` as one span, counting the allocations it makes.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let before = alloc::current();
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        let allocs = before.since();
        let id = self.push(Span {
            name,
            req,
            parent,
            start,
            end,
            allocs,
        });
        (out, id)
    }

    /// Opens a span whose end is set by [`Recorder::close`].
    fn open(&mut self, name: &'static str, req: u64) -> usize {
        let now = Instant::now();
        self.push(Span {
            name,
            req,
            parent: None,
            start: now,
            end: now,
            allocs: Allocs::default(),
        })
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Per span name: every span's self time (ms) and allocations, in
    /// recording order.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<(f64, Allocs)>> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += crate::load::ms(s.end - s.start);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<(f64, Allocs)>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ms) {
            let self_ms = crate::load::ms(s.end - s.start) - child;
            out.entry(s.name).or_default().push((self_ms, s.allocs));
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document (times in microseconds
    /// from the recorder's creation).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"allocs\": {}, \"alloc_bytes\": {}}}{sep}",
                s.name,
                s.req,
                us(s.start),
                us(s.end),
                s.allocs.calls,
                s.allocs.bytes
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// One request replayed in-process: the graph, and whether the server
/// answered it from cache.
pub struct ReplayItem<'a> {
    pub req: u64,
    pub graph: &'a Graph,
    pub cached: bool,
}

/// Broadcasts every certificate and accepts: [`run_protocol`] with no
/// verifier work, i.e. the cost of delivery alone.
struct Delivery<'a> {
    assignment: &'a Assignment,
}

impl Protocol for Delivery<'_> {
    type State = Payload;

    fn init(&self, ctx: &NodeCtx) -> Payload {
        self.assignment.certs[ctx.node as usize].clone()
    }

    fn message(&self, state: &Payload, _round: usize) -> Payload {
        state.clone()
    }

    fn receive(&self, _: &mut Payload, _: &NodeCtx, inbox: &[Payload], _: usize) -> Step {
        Step::Output(black_box(inbox.len()) < usize::MAX)
    }
}

/// Replays the server's layer calls for each item, in order, under the
/// item's request id: decode → key → lookup, then on a miss
/// connectivity → prove (LR, BFS, T-embedding, tree certificates,
/// degeneracy) → verify (delivery) → suffix encode → cache insert →
/// store put, then body build and response decode.
///
/// The prover's and verifier's sub-layers run inside `prove` and
/// `run_with_assignment`, out of reach of an outside bracket, so each is
/// replayed beside its parent on the same input and recorded as its
/// child: the parent's self time is then the part no named sub-layer
/// accounts for (certificate build and bit encoding; the verifier
/// predicates).
///
/// Returns the total certificate bits of every replayed miss.
pub fn replay(
    rec: &mut Recorder,
    items: &[ReplayItem],
    store_dir: &Path,
) -> Result<Vec<usize>, String> {
    let mut cert_bits = Vec::new();
    let scheme = PlanarityScheme::new();
    let cache = CertCache::new(CacheConfig::default());
    let _ = std::fs::remove_dir_all(store_dir);
    let store = SegmentStore::open(SegmentConfig::new(store_dir))
        .map_err(|e| format!("replay store: {e}"))?;
    for item in items {
        let req = item.req;
        let body = wire::encode_certify_request(item.graph, false, SchemeId::PLANARITY);
        let root = rec.open("server.replay", req);
        let p = Some(root);
        let mut rest = &body[..];
        for _ in 0..2 {
            // request kind and flags precede the graph
            get_uvarint(&mut rest).map_err(|e| format!("request header: {e}"))?;
        }
        let (g, _) = rec.time("service.wire.decode_graph", req, p, || {
            wire::decode_graph(&mut rest)
        });
        let g = g.map_err(|e| format!("replay decode: {e}"))?;
        let (keyed, _) = rec.time("service.wire.encode_graph", req, p, || {
            let mut keyed = Vec::new();
            put_uvarint(&mut keyed, SchemeId::PLANARITY.0 as u64);
            wire::encode_graph(&mut keyed, &g);
            keyed
        });
        let (key, _) = rec.time("graph.canon.hash_bytes", req, p, || {
            canon::hash_bytes(&keyed)
        });
        let (hit, _) = rec.time("service.cache.lookup", req, p, || cache.lookup(key, &keyed));
        if hit.is_some() != item.cached {
            return Err(format!(
                "request {req}: the replay cache {} but the server answered cached = {}",
                if hit.is_some() { "hit" } else { "missed" },
                item.cached
            ));
        }
        let entry = match hit {
            Some(entry) => entry,
            None => {
                rec.time("graph.is_connected", req, p, || g.is_connected());
                let (assignment, prove) =
                    rec.time("core.planarity.prove", req, p, || scheme.prove(&g));
                let assignment = assignment.map_err(|e| format!("replay prove: {e}"))?;
                let prove = Some(prove);
                rec.time("graph.is_connected", req, prove, || g.is_connected());
                let (planarity, _) =
                    rec.time("planar.lr.planarity", req, prove, || lr::planarity(&g));
                let rot = planarity
                    .into_embedding()
                    .ok_or("replay: LR found the graph non-planar")?;
                let (tree, _) = rec.time("graph.bfs_spanning_tree", req, prove, || {
                    traversal::bfs_spanning_tree(&g, 0)
                });
                let (te, _) = rec.time("planar.tembed.t_embedding", req, prove, || {
                    tembed::t_embedding(&g, &rot, &tree)
                });
                te.map_err(|e| format!("replay T-embedding: {e:?}"))?;
                rec.time("core.tree_base.build_tree_certs", req, prove, || {
                    build_tree_certs(&g, &tree)
                });
                rec.time("graph.degeneracy", req, prove, || {
                    let order = degeneracy::degeneracy_order(&g);
                    degeneracy::assign_edges_by_degeneracy(&g, &order)
                });
                let (outcome, verify) = rec.time("core.harness.verify", req, p, || {
                    run_with_assignment(&scheme, &g, &assignment)
                });
                rec.time("runtime.sim.deliver", req, Some(verify), || {
                    run_protocol(
                        &Delivery {
                            assignment: &assignment,
                        },
                        &g,
                        1,
                    )
                });
                if !outcome.all_accept() {
                    return Err(format!("request {req}: the replayed verifier rejected"));
                }
                cert_bits.push(assignment.total_bits());
                let (suffix, _) = rec.time("service.wire.encode_certified_suffix", req, p, || {
                    wire::encode_certified_suffix(&outcome, &assignment)
                });
                let result = ProveResult::Certified {
                    assignment,
                    outcome,
                };
                let entry = Arc::new(CacheEntry::with_suffix(result, suffix, keyed));
                let (kept, _) = rec.time("service.cache.insert", req, p, || {
                    cache.insert(key, Arc::clone(&entry))
                });
                let (put, _) = rec.time("service.store.put", req, p, || store.put(&kept.record()));
                put.map_err(|e| format!("replay store put: {e}"))?;
                kept
            }
        };
        let (resp, _) = rec.time("service.wire.body_from_suffix", req, p, || {
            wire::certified_body_from_suffix(item.cached, &entry.suffix)
        });
        let (decoded, _) = rec.time("service.wire.response_decode", req, p, || {
            Response::decode(&resp)
        });
        decoded.map_err(|e| format!("replay response decode: {e}"))?;
        rec.close(root);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(store_dir);
    Ok(cert_bits)
}
