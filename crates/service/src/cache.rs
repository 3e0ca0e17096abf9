//! Sharded, content-addressed certificate cache with LRU eviction.
//!
//! Certificates are immutable once proved, so the cache is a pure
//! content-addressed store: canonical graph hash ([`dpc_graph::canon`])
//! → `Arc`-shared prove result. A hit hands out a reference-counted
//! handle to the same `Assignment` (whose payloads are themselves
//! `Arc<[u8]>`-backed) plus the pre-encoded wire suffix — no byte of
//! certificate is ever re-proved or re-encoded for a hit.
//!
//! Concurrency: the key space is striped over `N` independently locked
//! shards (selected by the low bits of the hash), so concurrent
//! lookups of different graphs do not contend. Eviction is LRU with a
//! byte budget per shard, implemented with a lazy recency queue:
//! every touch appends `(key, tick)` and stale queue entries (older
//! ticks than the slot's) are skipped on eviction and periodically
//! compacted, keeping both touch and eviction O(1) amortized.

use crate::wire;
use dpc_core::harness::Outcome;
use dpc_core::scheme::Assignment;
use dpc_graph::canon::GraphHash;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A cached prove result: either certificates or the prover's refusal.
#[derive(Debug)]
pub enum ProveResult {
    /// Yes-instance: the assignment and its measured outcome.
    Certified {
        /// The honest prover's certificates.
        assignment: Assignment,
        /// Verification outcome under that assignment.
        outcome: Outcome,
    },
    /// No-instance (or malformed network): the refusal, cached so
    /// repeated no-instance queries skip the planarity test too.
    Declined {
        /// The prover's reason.
        reason: String,
    },
}

/// An immutable cache entry: the result, its pre-encoded wire suffix
/// (what a Certified/Declined response body contains after the
/// `cached` flag), and the *keyed bytes* it was proved for — the
/// scheme id followed by the canonical wire encoding of the graph.
/// The keyed bytes are compared on every hit, so a 128-bit hash
/// collision (FNV-1a is not collision-resistant) can never serve one
/// graph's certificates for another — and, because the scheme id is
/// part of the bytes, a certificate proved under one scheme can never
/// answer a lookup under another.
#[derive(Debug)]
pub struct CacheEntry {
    /// The prove result.
    pub result: ProveResult,
    /// Pre-encoded response suffix; a hit memcpys this shared buffer.
    pub suffix: Vec<u8>,
    /// Keyed bytes: scheme id + canonical wire encoding of the proved
    /// graph (collision and cross-scheme guard).
    pub keyed: Vec<u8>,
}

impl CacheEntry {
    /// Builds an entry for the given keyed bytes (scheme id +
    /// canonically encoded graph), encoding the wire suffix once.
    pub fn new(result: ProveResult, keyed: Vec<u8>) -> Self {
        let suffix = match &result {
            ProveResult::Certified {
                assignment,
                outcome,
            } => wire::encode_certified_suffix(outcome, assignment),
            ProveResult::Declined { reason } => wire::encode_declined_suffix(reason),
        };
        CacheEntry {
            result,
            suffix,
            keyed,
        }
    }

    /// Builds an entry from an *already encoded* wire suffix (the
    /// warm-restart path: a [`crate::store::StoreRecord`] read back
    /// from disk reuses its stored suffix byte-for-byte, so a
    /// certificate served after a restart is provably the same bytes
    /// the prover produced before it). The caller is responsible for
    /// `suffix` actually being the encoding of `result`.
    pub fn with_suffix(result: ProveResult, suffix: Vec<u8>, keyed: Vec<u8>) -> Self {
        CacheEntry {
            result,
            suffix,
            keyed,
        }
    }

    /// Bytes charged against the shard budget: certificate payloads
    /// plus 56 B per certificate, the verdict vector, both encoded
    /// buffers, and fixed bookkeeping.
    ///
    /// The 56 B is what a certificate costs with its own `Arc<[u8]>`
    /// allocation: the 32 B `Payload` view, the `Arc` header and the
    /// allocator's rounding. For a packed assignment (the planarity
    /// prover's, and every decoded one) it is an upper bound: its
    /// certificates are views of one shared buffer. The charge stays
    /// as it is, because a smaller one admits more entries and raises
    /// the resident peak of a server filling its cache with misses.
    pub(crate) fn cost(&self) -> usize {
        let payload = match &self.result {
            ProveResult::Certified {
                assignment,
                outcome,
            } => assignment.byte_size() + assignment.certs.len() * 56 + outcome.verdicts.len(),
            // the reason lives (only) in the pre-encoded suffix
            ProveResult::Declined { .. } => 0,
        };
        payload + self.suffix.len() + self.keyed.len() + 96
    }
}

struct Slot {
    entry: Arc<CacheEntry>,
    cost: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u128, Slot>,
    /// Recency queue of `(key, tick)`; entries whose tick no longer
    /// matches the slot's `last_used` are stale and skipped.
    recency: VecDeque<(u128, u64)>,
    bytes: usize,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: u128) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.map.get_mut(&key) {
            slot.last_used = tick;
        }
        self.recency.push_back((key, tick));
        // compact when stale entries dominate the queue
        if self.recency.len() > 4 * self.map.len() + 16 {
            let map = &self.map;
            self.recency
                .retain(|&(k, t)| map.get(&k).is_some_and(|s| s.last_used == t));
        }
    }

    fn evict_to(&mut self, budget: usize, evictions: &AtomicU64) {
        while self.bytes > budget && self.map.len() > 1 {
            match self.recency.pop_front() {
                Some((key, tick)) => {
                    let live = self.map.get(&key).is_some_and(|s| s.last_used == tick);
                    if live {
                        let slot = self.map.remove(&key).expect("checked above");
                        self.bytes -= slot.cost;
                        evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }
}

/// Cache sizing.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Number of lock stripes (rounded up to a power of two).
    pub shards: usize,
    /// Total byte budget across all shards.
    pub byte_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            byte_budget: 256 << 20,
        }
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: u64,
    /// Bytes charged against the budget.
    pub bytes: u64,
}

/// The sharded certificate cache.
pub struct CertCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CertCache {
    /// An empty cache with the given sizing.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1).next_power_of_two();
        CertCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (config.byte_budget / shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: GraphHash) -> &Mutex<Shard> {
        &self.shards[key.low64() as usize & (self.shards.len() - 1)]
    }

    /// Looks up a prove result for the given key and keyed bytes
    /// (scheme id + canonical wire encoding), refreshing its recency.
    /// The stored bytes are compared, so a hash collision — or a
    /// lookup under a different scheme — reads as a miss rather than
    /// serving the wrong certificates. Counts a hit or a miss.
    pub fn lookup(&self, key: GraphHash, keyed: &[u8]) -> Option<Arc<CacheEntry>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.get(&key.0) {
            Some(slot) if slot.entry.keyed == keyed => {
                let entry = Arc::clone(&slot.entry);
                shard.touch(key.0);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a prove result, evicting LRU entries past the byte
    /// budget. If the key is already present with the same keyed bytes
    /// (two workers proved the same graph concurrently) the existing
    /// entry wins, so handles already given out stay canonical; on a
    /// hash collision (same key, different bytes) the incumbent also
    /// stays and the new entry is served uncached. The returned entry
    /// is the one to answer with.
    pub fn insert(&self, key: GraphHash, entry: Arc<CacheEntry>) -> Arc<CacheEntry> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if let Some(existing) = shard.map.get(&key.0) {
            return if existing.entry.keyed == entry.keyed {
                Arc::clone(&existing.entry)
            } else {
                entry // collision: serve fresh, keep the incumbent
            };
        }
        let cost = entry.cost();
        shard.map.insert(
            key.0,
            Slot {
                entry: Arc::clone(&entry),
                cost,
                last_used: 0,
            },
        );
        shard.bytes += cost;
        shard.touch(key.0);
        shard.evict_to(self.shard_budget, &self.evictions);
        entry
    }

    /// Removes an entry by key (the quarantine path of the store
    /// auditor). Stale recency-queue entries for the key are left
    /// behind; eviction and compaction already skip them. Returns
    /// true if an entry was removed.
    pub fn remove(&self, key: GraphHash) -> bool {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.remove(&key.0) {
            Some(slot) => {
                shard.bytes -= slot.cost;
                true
            }
            None => false,
        }
    }

    /// A snapshot of every live entry (the hot half of
    /// [`crate::store::CertStore::iter`]); the shard locks are taken
    /// one at a time, so the snapshot is per-shard consistent only.
    pub(crate) fn entries_snapshot(&self) -> Vec<Arc<CacheEntry>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            out.extend(shard.map.values().map(|slot| Arc::clone(&slot.entry)));
        }
        out
    }

    /// Counters plus live totals.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            entries += shard.map.len() as u64;
            bytes += shard.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::harness::certify_pls;
    use dpc_core::schemes::planarity::PlanarityScheme;
    use dpc_graph::canon::graph_hash;
    use dpc_graph::generators;

    fn entry_for(n: u32, seed: u64) -> (GraphHash, Arc<CacheEntry>) {
        let g = generators::stacked_triangulation(n, seed);
        let certified = certify_pls(&PlanarityScheme::new(), &g).unwrap();
        let mut bytes = Vec::new();
        wire::encode_graph(&mut bytes, &g);
        let entry = CacheEntry::new(
            ProveResult::Certified {
                assignment: certified.assignment,
                outcome: certified.outcome,
            },
            bytes,
        );
        (graph_hash(&g), Arc::new(entry))
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = CertCache::new(CacheConfig::default());
        let (key, entry) = entry_for(20, 1);
        cache.insert(key, Arc::clone(&entry));
        let hit = cache.lookup(key, &entry.keyed).expect("inserted");
        assert!(Arc::ptr_eq(&hit, &entry), "a hit is a handle clone");
        assert!(cache
            .lookup(graph_hash(&generators::cycle(9)), b"")
            .is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn duplicate_insert_keeps_the_first_entry() {
        let cache = CertCache::new(CacheConfig::default());
        let (key, first) = entry_for(20, 1);
        let (_, second) = entry_for(20, 1);
        cache.insert(key, Arc::clone(&first));
        let kept = cache.insert(key, second);
        assert!(Arc::ptr_eq(&kept, &first));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // single shard, budget for ~2 entries
        let (key_a, a) = entry_for(30, 1);
        let (key_b, b) = entry_for(30, 2);
        let (key_c, c) = entry_for(30, 3);
        let budget = a.cost() + b.cost() + c.cost() / 2;
        let cache = CertCache::new(CacheConfig {
            shards: 1,
            byte_budget: budget,
        });
        let (a_graph, b_graph, c_graph) = (a.keyed.clone(), b.keyed.clone(), c.keyed.clone());
        cache.insert(key_a, a);
        cache.insert(key_b, b);
        assert!(
            cache.lookup(key_a, &a_graph).is_some(),
            "refresh a: b is now LRU"
        );
        cache.insert(key_c, c);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(cache.lookup(key_b, &b_graph).is_none(), "b was evicted");
        assert!(cache.lookup(key_a, &a_graph).is_some());
        assert!(cache.lookup(key_c, &c_graph).is_some());
    }

    #[test]
    fn hash_collision_reads_as_a_miss_and_keeps_the_incumbent() {
        let cache = CertCache::new(CacheConfig::default());
        let (key, first) = entry_for(20, 1);
        let (_, other) = entry_for(25, 2);
        cache.insert(key, Arc::clone(&first));
        // simulate a colliding key: same hash, different graph bytes
        assert!(cache.lookup(key, &other.keyed).is_none());
        let served = cache.insert(key, Arc::clone(&other));
        assert!(Arc::ptr_eq(&served, &other), "collision served uncached");
        let kept = cache.lookup(key, &first.keyed).expect("incumbent intact");
        assert!(Arc::ptr_eq(&kept, &first));
    }

    #[test]
    fn scheme_prefix_isolates_identical_graphs() {
        // the server keys entries by (scheme id, graph): same graph,
        // different scheme prefix = different key AND different bytes,
        // so neither lookup can see the other's entry
        use dpc_graph::canon::hash_bytes;
        let cache = CertCache::new(CacheConfig::default());
        let g = generators::grid(4, 4);
        let mut graph_bytes = Vec::new();
        wire::encode_graph(&mut graph_bytes, &g);
        let keyed = |scheme: u64| {
            let mut b = Vec::new();
            dpc_runtime::put_uvarint(&mut b, scheme);
            b.extend_from_slice(&graph_bytes);
            b
        };
        let (ka, kb) = (hash_bytes(&keyed(0)), hash_bytes(&keyed(1)));
        assert_ne!(ka, kb);
        let entry = Arc::new(CacheEntry::new(
            ProveResult::Declined {
                reason: "scheme 0".into(),
            },
            keyed(0),
        ));
        cache.insert(ka, entry);
        assert!(cache.lookup(ka, &keyed(0)).is_some());
        assert!(cache.lookup(kb, &keyed(1)).is_none());
        // even a forced same-hash probe with the other scheme's bytes
        // misses on the byte guard
        assert!(cache.lookup(ka, &keyed(1)).is_none());
    }

    #[test]
    fn byte_budget_is_respected() {
        let (_, probe) = entry_for(25, 0);
        let per_entry = probe.cost();
        let cache = CertCache::new(CacheConfig {
            shards: 1,
            byte_budget: per_entry * 3,
        });
        for seed in 0..20u64 {
            let (key, entry) = entry_for(25, seed);
            cache.insert(key, entry);
        }
        let stats = cache.stats();
        assert!(
            stats.bytes <= per_entry as u64 * 4,
            "{} bytes exceeds ~3 entries of {per_entry}",
            stats.bytes
        );
        assert!(stats.evictions >= 16);
        assert!(stats.entries <= 4);
    }

    #[test]
    fn shards_spread_keys() {
        let cache = CertCache::new(CacheConfig {
            shards: 8,
            byte_budget: 1 << 30,
        });
        for seed in 0..32u64 {
            let (key, entry) = entry_for(15, seed);
            cache.insert(key, entry);
        }
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert!(populated >= 4, "only {populated}/8 shards populated");
    }

    #[test]
    fn recency_queue_compacts() {
        let cache = CertCache::new(CacheConfig {
            shards: 1,
            byte_budget: 1 << 30,
        });
        let (key, entry) = entry_for(15, 0);
        let graph = entry.keyed.clone();
        cache.insert(key, entry);
        for _ in 0..1000 {
            cache.lookup(key, &graph);
        }
        let shard = cache.shards[0].lock().unwrap();
        assert!(
            shard.recency.len() <= 4 * shard.map.len() + 17,
            "queue grew unboundedly: {}",
            shard.recency.len()
        );
    }
}
