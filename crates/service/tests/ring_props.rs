//! Property tests for the rendezvous-hashing ring: routing is a pure
//! function of (key, address set), removing a node remaps only that
//! node's keys, and keys spread close to uniformly.
//!
//! Keys are drawn the way real traffic produces them — the same
//! `uvarint(scheme id) + graph_hash` byte layout
//! [`dpc_service::cluster::graph_key`] emits — but over synthetic
//! random hashes, so a thousand keys cost nothing to generate.

use dpc_runtime::put_uvarint;
use dpc_service::cluster::Ring;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn node_addrs(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("10.1.{i}.7:4700")).collect()
}

/// Same-host nodes on adjacent ports (`127.0.0.1:4700..`): addresses
/// that differ only in their last digit, as a one-machine fleet has.
fn same_host_addrs(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("127.0.0.1:{}", 4700 + i)).collect()
}

/// A key shaped like the client's routing keys: a small scheme id
/// varint followed by 16 random bytes standing in for the canonical
/// graph hash.
fn synthetic_key(rng: &mut StdRng) -> Vec<u8> {
    let mut key = Vec::with_capacity(19);
    put_uvarint(&mut key, rng.gen_range(0u64..9));
    let hash: u128 = (rng.gen::<u64>() as u128) << 64 | rng.gen::<u64>() as u128;
    key.extend_from_slice(&hash.to_le_bytes());
    key
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same key always routes to the same node: rankings are
    /// deterministic, independent of the address list's order, and
    /// reproducible across freshly built rings.
    #[test]
    fn same_key_always_routes_to_the_same_node(seed in 0u64..1_000_000, n in 3usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let addrs = node_addrs(n);
        let ring = Ring::new(addrs.clone()).unwrap();
        let rebuilt = Ring::new(addrs.clone()).unwrap();
        let mut shuffled = addrs.clone();
        shuffled.reverse();
        let reordered = Ring::new(shuffled).unwrap();
        for _ in 0..200 {
            let key = synthetic_key(&mut rng);
            let rank = ring.rank(&key);
            prop_assert_eq!(&rank, &rebuilt.rank(&key), "rings are stateless");
            prop_assert_eq!(ring.owner(&key), rank[0]);
            prop_assert_eq!(
                &addrs[ring.owner(&key)],
                &reordered.addrs()[reordered.owner(&key)],
                "ownership is a property of the address, not its position"
            );
            // a ranking is a permutation of the node set
            let mut sorted = rank.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    /// Rendezvous stability: removing one node remaps exactly the
    /// keys that node owned — every other key keeps its owner. (This
    /// is the property that makes `dpc store merge` of a drained
    /// node's segments into a survivor sufficient: no third node's
    /// keys move.)
    #[test]
    fn removing_a_node_remaps_only_its_keys(seed in 0u64..1_000_000, n in 3usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(17));
        let addrs = node_addrs(n);
        let full = Ring::new(addrs.clone()).unwrap();
        let removed = rng.gen_range(0..n);
        let survivors: Vec<String> = addrs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != removed)
            .map(|(_, a)| a.clone())
            .collect();
        let shrunk = Ring::new(survivors).unwrap();
        let mut remapped = 0usize;
        const KEYS: usize = 300;
        for _ in 0..KEYS {
            let key = synthetic_key(&mut rng);
            let before = &addrs[full.owner(&key)];
            let after = &shrunk.addrs()[shrunk.owner(&key)];
            if *before == addrs[removed] {
                remapped += 1;
                prop_assert!(
                    after != &addrs[removed],
                    "the removed node cannot keep keys"
                );
                // and the new owner is the key's old rank-2 node
                let full_rank = full.rank(&key);
                prop_assert_eq!(
                    after,
                    &addrs[full_rank[1]],
                    "orphaned keys fall to their next-ranked node"
                );
            } else {
                prop_assert_eq!(before, after, "a surviving node's keys never move");
            }
        }
        // sanity: the removed node actually owned something
        prop_assert!(remapped > 0, "no key ever routed to node {removed}");
    }

    /// Replica placement (`--replication k` takes the top-k of the
    /// same ranking): the top-k set is deterministic and independent
    /// of the address list's order.
    #[test]
    fn top_k_placement_is_deterministic_and_order_independent(
        seed in 0u64..1_000_000,
        n in 3usize..=8,
        k in 2usize..=3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(71));
        let addrs = node_addrs(n);
        let ring = Ring::new(addrs.clone()).unwrap();
        let mut shuffled = addrs.clone();
        shuffled.reverse();
        let reordered = Ring::new(shuffled).unwrap();
        for _ in 0..200 {
            let key = synthetic_key(&mut rng);
            let top: Vec<&String> = ring.rank(&key)[..k].iter().map(|&i| &addrs[i]).collect();
            prop_assert_eq!(
                &top,
                &ring.rank(&key)[..k].iter().map(|&i| &addrs[i]).collect::<Vec<_>>(),
                "placement is a pure function of the key"
            );
            let top_reordered: Vec<&String> = reordered.rank(&key)[..k]
                .iter()
                .map(|&i| &reordered.addrs()[i])
                .collect();
            prop_assert_eq!(
                top, top_reordered,
                "the replica set is a property of the addresses, not their positions"
            );
        }
    }

    /// Replica stability under node loss: removing one node promotes
    /// exactly that node's replicas — each key it served replica-r
    /// for keeps its other replicas in rank order and gains exactly
    /// one new last-ranked replica — and a key whose whole top-k set
    /// survives keeps that set verbatim.
    #[test]
    fn removing_a_node_promotes_exactly_its_replicas(
        seed in 0u64..1_000_000,
        n in 3usize..=8,
        k in 2usize..=3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(113));
        let addrs = node_addrs(n);
        let full = Ring::new(addrs.clone()).unwrap();
        let removed = rng.gen_range(0..n);
        let survivors: Vec<String> = addrs
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != removed)
            .map(|(_, a)| a.clone())
            .collect();
        let shrunk = Ring::new(survivors).unwrap();
        let mut touched = 0usize;
        for _ in 0..300 {
            let key = synthetic_key(&mut rng);
            let before: Vec<&String> = full.rank(&key)[..k].iter().map(|&i| &addrs[i]).collect();
            let after: Vec<&String> = shrunk.rank(&key)[..k]
                .iter()
                .map(|&i| &shrunk.addrs()[i])
                .collect();
            if let Some(pos) = before.iter().position(|a| **a == addrs[removed]) {
                touched += 1;
                // the survivors of the old top-k keep their relative
                // order, shifted up past the hole...
                let kept: Vec<&String> = before
                    .iter()
                    .copied()
                    .filter(|a| **a != addrs[removed])
                    .collect();
                prop_assert_eq!(
                    &after[..k - 1],
                    kept.as_slice(),
                    "removing rank-{} promotes without reshuffling", pos + 1
                );
                // ...and exactly one new replica enters, at the tail —
                // the key's old rank-(k+1) node
                prop_assert_eq!(
                    after[k - 1],
                    &addrs[full.rank(&key)[k]],
                    "the promoted node is the old next-in-line"
                );
            } else {
                prop_assert_eq!(before, after, "an intact top-{k} set never remaps");
            }
        }
        prop_assert!(touched > 0, "node {removed} never appeared in a top-{k} set");
    }

    /// Load balance: over >= 1k random keys the busiest node stays
    /// within 2x of the uniform share, for every ring size 3..=8, on
    /// distinct hosts and on one host's adjacent ports.
    #[test]
    fn distribution_stays_within_2x_of_uniform(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(39));
        const KEYS: usize = 1024;
        let keys: Vec<Vec<u8>> = (0..KEYS).map(|_| synthetic_key(&mut rng)).collect();
        for n in 3usize..=8 {
            for addrs in [node_addrs(n), same_host_addrs(n)] {
                let ring = Ring::new(addrs.clone()).unwrap();
                let mut counts = vec![0usize; n];
                for key in &keys {
                    counts[ring.owner(key)] += 1;
                }
                let max = *counts.iter().max().unwrap();
                let bound = 2 * KEYS / n;
                prop_assert!(
                    max <= bound,
                    "{addrs:?}: busiest owns {max} of {KEYS} keys (bound {bound}): {counts:?}"
                );
                prop_assert!(
                    counts.iter().all(|&c| c > 0),
                    "{addrs:?}: some node owns nothing: {counts:?}"
                );
            }
        }
    }
}
