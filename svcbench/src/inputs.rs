//! Seeded inputs of the three workloads. Everything here runs before a
//! timed window opens, so graph generation never counts against the
//! server.

use dpc_graph::{generators, Graph};
use dpc_service::wire;
use std::collections::HashSet;

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponential gap with the given rate (events per second), in
    /// seconds: the inter-arrival time of a Poisson process.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Node count of every cold-prove graph (grids come within 1% of it).
pub const COLD_NODES: u32 = 10_000;

/// A cold-prove input generator. Even positions are grids whose shape
/// is drawn (without repetition) from every `r × c` with
/// `r·c ≈ COLD_NODES`, odd positions are
/// `stacked_triangulation(COLD_NODES, seed + k)`. Grids keep max degree
/// 4 and m ≈ 2n; triangulations have hubs and m ≈ 3n. Varying the shape
/// (not the node ids) keeps every graph distinct at a constant size:
/// `generators::shuffle_ids` would build an n²-entry pool per graph.
pub struct ColdFamily {
    seed: u64,
    shapes: Vec<(u32, u32)>,
}

impl ColdFamily {
    pub fn new(seed: u64) -> ColdFamily {
        let mut shapes = Vec::new();
        for r in 50..=200u32 {
            let c = (COLD_NODES as f64 / r as f64).round() as u32;
            shapes.push((r, c));
            shapes.push((c, r));
        }
        shapes.sort_unstable();
        shapes.dedup();
        Rng::new(seed, 1).shuffle(&mut shapes);
        ColdFamily { seed, shapes }
    }

    /// How many distinct inputs the family holds.
    pub fn len(&self) -> usize {
        2 * self.shapes.len()
    }

    pub fn graph(&self, i: usize) -> Graph {
        if i.is_multiple_of(2) {
            let (r, c) = self.shapes[i / 2];
            generators::grid(r, c)
        } else {
            generators::stacked_triangulation(COLD_NODES, self.seed.wrapping_add((i / 2) as u64))
        }
    }
}

/// Small planar graphs of 16–64 nodes for small-open, each distinct
/// from every graph drawn before it from the same source.
pub struct SmallSource {
    rng: Rng,
    seen: HashSet<Vec<u8>>,
}

impl SmallSource {
    pub fn new(seed: u64) -> SmallSource {
        SmallSource {
            rng: Rng::new(seed, 2),
            seen: HashSet::new(),
        }
    }

    pub fn next_graph(&mut self) -> Graph {
        loop {
            let n = 16 + self.rng.below(49) as u32;
            let s = self.rng.next_u64();
            let g = if self.rng.below(2) == 0 {
                generators::stacked_triangulation(n, s)
            } else {
                let density = 0.3 + 0.4 * self.rng.unit();
                generators::random_planar(n, density, s)
            };
            let mut key = Vec::new();
            wire::encode_graph(&mut key, &g);
            if self.seen.insert(key) {
                return g;
            }
        }
    }
}
