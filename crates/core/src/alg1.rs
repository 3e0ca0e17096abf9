//! Algorithm 1 of the paper: the path-outerplanarity verification
//! procedure executed at one spine node `x`.
//!
//! The spine is the witness ordering `1..=N`; every spine node carries an
//! interval label `I(x) = [a, b]` — the tightest chord strictly covering
//! `x` (or `[0, N+1]` if none). Two virtual nodes `0` and `N+1` with
//! `I = [−∞, +∞]` pad the ends, so every real node has a smaller and a
//! larger neighbor. This module is shared by the standalone
//! path-outerplanarity scheme (Lemma 2), where each spine node is a real
//! network node, and by the planarity scheme (Theorem 1), where node `x`
//! of `G` simulates the procedure at every copy `i ∈ f⁻¹(x)` of the
//! spine of `G_{T,f}`.

/// An interval label `[a, b]`. Sentinel `[-1, N+2]`-style values encode
/// the virtual `[−∞, +∞]`.
pub type Interval = (i64, i64);

/// The local view of one spine node, assembled by the caller from the
/// certificates heard in the communication round.
#[derive(Debug, Clone)]
pub struct SpineView {
    /// Position `x` of this node on the spine (`1..=N`).
    pub x: i64,
    /// The spine length `N` (paper's `n` in Lemma 2; `2n−1` in Thm 1).
    pub n: i64,
    /// This node's interval label `I(x)`.
    pub interval: Interval,
    /// All neighbors on the spine with their interval labels, including
    /// the virtual `0` / `N+1` where applicable. Need not be sorted.
    pub neighbors: Vec<(i64, Interval)>,
}

/// The virtual interval `[−∞, +∞]` of the two virtual end nodes,
/// represented with sentinels that strictly contain every real interval.
pub fn virtual_interval(n: i64) -> Interval {
    (-1, n + 2)
}

/// The default interval `[0, N+1]` of nodes covered by no chord.
pub fn default_interval(n: i64) -> Interval {
    (0, n + 1)
}

/// Runs Algorithm 1 at one spine node. Returns `true` iff every check
/// passes (the node accepts).
pub fn verify_spine_node(view: &SpineView) -> bool {
    let mut neighbors = view.neighbors.clone();
    neighbors.sort_unstable_by_key(|l| l.0);
    verify_spine_sorted(view.x, view.n, view.interval, &neighbors)
}

/// [`verify_spine_node`] on a neighbor list already sorted by position,
/// so a caller running Algorithm 1 at many nodes can keep the list in a
/// reused buffer.
pub fn verify_spine_sorted(
    x: i64,
    n: i64,
    interval: Interval,
    neighbors: &[(i64, Interval)],
) -> bool {
    debug_assert!(neighbors.windows(2).all(|w| w[0].0 <= w[1].0));
    if x < 1 || x > n {
        return false;
    }
    // line 1: split neighbors; `below` is walked descending
    // (x−_0 > x−_1 > ...) and `above` ascending (x+_0 < x+_1 < ...)
    let (below, above) = neighbors.split_at(neighbors.partition_point(|l| l.0 < x));
    if above.first().is_some_and(|l| l.0 == x) {
        return false; // self-loop on the spine: malformed
    }
    // duplicates mean two parallel spine edges: malformed
    if neighbors.windows(2).any(|w| w[0].0 == w[1].0) {
        return false;
    }
    // the virtual padding guarantees ℓ ≥ 0 and k ≥ 0: a smaller and a
    // larger neighbor must exist (the spine path plus virtual ends)
    if below.is_empty() || above.is_empty() {
        return false;
    }
    let below_at = |i: usize| below[below.len() - 1 - i];
    // line 3 (spine consistency): the immediate predecessor/successor on
    // the spine must be neighbors (x−_0 = x−1, x+_0 = x+1)
    if below_at(0).0 != x - 1 || above[0].0 != x + 1 {
        return false;
    }
    // line 4-5: I(x) = [a, b] with a < x < b, all neighbors within [a, b]
    let (a, b) = interval;
    if !(a < x && x < b) {
        return false;
    }
    if below[0].0 < a || above[above.len() - 1].0 > b {
        return false;
    }
    let k = above.len() - 1;
    let l = below.len() - 1;
    // lines 6-7: for i in 0..k-1 check I(x+_i) = [x, x+_{i+1}]
    for i in 0..k {
        if above[i].1 != (x, above[i + 1].0) {
            return false;
        }
    }
    // lines 8-9: for i in 0..l-1 check I(x−_i) = [x−_{i+1}, x]
    for i in 0..l {
        if below_at(i).1 != (below_at(i + 1).0, x) {
            return false;
        }
    }
    // lines 10-11: if x+_k < b then I(x+_k) = [a, b]
    if above[k].0 < b && above[k].1 != (a, b) {
        return false;
    }
    // lines 12-13: if x−_l > a then I(x−_l) = [a, b]
    if below_at(l).0 > a && below_at(l).1 != (a, b) {
        return false;
    }
    // lines 14-17: neighbors whose interval is anchored at x
    let adjacent = |p: i64| neighbors.binary_search_by_key(&p, |l| l.0).is_ok();
    for &(_, (c, d)) in neighbors {
        let other = if c == x {
            Some(d)
        } else if d == x {
            Some(c)
        } else {
            None
        };
        if let Some(o) = other {
            // line 16: the other endpoint of I(y) is adjacent to x
            if !adjacent(o) {
                return false;
            }
            // line 17: I(y) ⊊ I(x)
            let proper_subset = a <= c && d <= b && (c, d) != (a, b);
            if !proper_subset {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the views of a full spine instance and runs Algorithm 1 at
    /// every real node. `chords` are (a, b) pairs with b > a+1.
    fn run_all(n: i64, chords: &[(i64, i64)]) -> Vec<bool> {
        // compute I(x) by brute force: tightest chord strictly containing x
        let interval_of = |x: i64| -> Interval {
            let mut best = default_interval(n);
            for &(a, b) in chords {
                if a < x && x < b && (b - a) < (best.1 - best.0) {
                    best = (a, b);
                }
            }
            best
        };
        let neighbors_of = |x: i64| -> Vec<(i64, Interval)> {
            let mut nb = Vec::new();
            let mut push = |p: i64| {
                if p == 0 || p == n + 1 {
                    nb.push((p, virtual_interval(n)));
                } else {
                    nb.push((p, interval_of(p)));
                }
            };
            if x == 1 {
                push(0);
            }
            if x > 1 {
                push(x - 1);
            }
            if x < n {
                push(x + 1);
            }
            if x == n {
                push(n + 1);
            }
            for &(a, b) in chords {
                if a == x {
                    push(b);
                }
                if b == x {
                    push(a);
                }
            }
            nb
        };
        (1..=n)
            .map(|x| {
                verify_spine_node(&SpineView {
                    x,
                    n,
                    interval: interval_of(x),
                    neighbors: neighbors_of(x),
                })
            })
            .collect()
    }

    #[test]
    fn bare_path_accepts() {
        assert!(run_all(6, &[]).iter().all(|&b| b));
    }

    #[test]
    fn nested_chords_accept() {
        assert!(run_all(8, &[(1, 8), (2, 7), (3, 6), (3, 5)])
            .iter()
            .all(|&b| b));
    }

    #[test]
    fn disjoint_chords_accept() {
        assert!(run_all(9, &[(1, 4), (4, 7), (7, 9), (1, 9)])
            .iter()
            .all(|&b| b));
    }

    #[test]
    fn crossing_chords_reject_somewhere() {
        // (1,5) and (3,7) cross: not path-outerplanar
        let verdicts = run_all(8, &[(1, 5), (3, 7)]);
        assert!(
            verdicts.iter().any(|&b| !b),
            "soundness: some node must reject, got {verdicts:?}"
        );
    }

    #[test]
    fn many_crossings_reject() {
        let verdicts = run_all(10, &[(1, 6), (2, 8), (5, 10), (3, 9)]);
        assert!(verdicts.iter().any(|&b| !b));
    }

    #[test]
    fn wrong_interval_rejected() {
        // honest chords but a lying interval at node 3
        let n = 6;
        let chords = [(2i64, 5i64)];
        let mut views: Vec<SpineView> = (1..=n)
            .map(|x| {
                let interval = if 2 < x && x < 5 {
                    (2, 5)
                } else {
                    default_interval(n)
                };
                let mut neighbors = Vec::new();
                if x == 1 {
                    neighbors.push((0, virtual_interval(n)));
                }
                if x > 1 {
                    let p = x - 1;
                    let iv = if 2 < p && p < 5 {
                        (2, 5)
                    } else {
                        default_interval(n)
                    };
                    neighbors.push((p, iv));
                }
                if x < n {
                    let p = x + 1;
                    let iv = if 2 < p && p < 5 {
                        (2, 5)
                    } else {
                        default_interval(n)
                    };
                    neighbors.push((p, iv));
                }
                if x == n {
                    neighbors.push((n + 1, virtual_interval(n)));
                }
                for &(a, b) in &chords {
                    if a == x {
                        neighbors.push((b, default_interval(n)));
                    }
                    if b == x {
                        neighbors.push((a, default_interval(n)));
                    }
                }
                SpineView {
                    x,
                    n,
                    interval,
                    neighbors,
                }
            })
            .collect();
        assert!(
            views.iter().all(verify_spine_node_ref),
            "honest baseline accepts"
        );
        // now node 3 claims I(3) = [0, 7] although chord (2,5) covers it:
        views[2].interval = default_interval(n);
        // neighbor 4 sees node 3's (unchanged) interval, but node 3's own
        // checks of line 7 now fail against neighbor 4's interval
        assert!(!verify_spine_node(&views[2]));
    }

    fn verify_spine_node_ref(v: &SpineView) -> bool {
        verify_spine_node(v)
    }

    #[test]
    fn missing_spine_neighbor_rejected() {
        let n = 5;
        let v = SpineView {
            x: 3,
            n,
            interval: default_interval(n),
            neighbors: vec![(2, default_interval(n))], // no successor
        };
        assert!(!verify_spine_node(&v));
    }

    #[test]
    fn out_of_range_position_rejected() {
        let n = 5;
        let v = SpineView {
            x: 9,
            n,
            interval: default_interval(n),
            neighbors: vec![(8, default_interval(n)), (10, default_interval(n))],
        };
        assert!(!verify_spine_node(&v));
    }

    #[test]
    fn neighbor_outside_interval_rejected() {
        let n = 8;
        // x = 4 claims I = (3,5) but has neighbor 8
        let v = SpineView {
            x: 4,
            n,
            interval: (3, 5),
            neighbors: vec![
                (3, default_interval(n)),
                (5, default_interval(n)),
                (8, default_interval(n)),
            ],
        };
        assert!(!verify_spine_node(&v));
    }

    #[test]
    fn chord_sharing_endpoints_accept() {
        // chords (1,4), (4,8), (1,8): laminar with shared endpoints
        assert!(run_all(8, &[(1, 4), (4, 8), (1, 8)]).iter().all(|&b| b));
    }

    #[test]
    fn double_cover_same_interval_accepts() {
        // two disjoint chords under one big chord
        assert!(run_all(12, &[(1, 12), (2, 6), (6, 11), (3, 5), (7, 10)])
            .iter()
            .all(|&b| b));
    }
}
