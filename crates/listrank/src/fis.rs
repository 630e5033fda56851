//! Algorithm 3: list reduction by repeated fractional independent sets.
//!
//! Each iteration, every **live** node draws one random bit `b(v)`; the set
//! `{v : b(v) = 1 ∧ b(pred(v)) = 0 ∧ b(succ(v)) = 0}` is an independent set
//! containing an expected constant fraction of the live nodes, and is
//! spliced out with book-keeping that lets Phase III reinsert the nodes in
//! reverse order. The reduction stops when at most `n / log₂ n` nodes
//! remain.
//!
//! The randomness interface is core's [`BitProvider`] bit-budget
//! accounting: the on-demand implementation asks for exactly `live` bits
//! per iteration, the batch implementation provisions the worst case
//! (`n` bits) every iteration — the difference the paper's Figure 7
//! measures. The providers themselves live in `hprng_core::ondemand` and
//! are re-exported here; they run over any
//! [`OnDemandRng`](hprng_core::OnDemandRng) lane.

use crate::list::{LinkedList, NIL};
use rayon::prelude::*;

pub use hprng_core::ondemand::{BatchBits, BitProvider, OnDemandBits, TappedBits};

/// Record of one removed node, enough to restore it and its rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Removal {
    /// The removed node.
    pub node: u32,
    /// Its predecessor at removal time (`NIL` if it was the head).
    pub pred: u32,
    /// Its successor at removal time (`NIL` if it was the tail).
    pub succ: u32,
    /// Distance from `pred` to `node` at removal time (1 on the original
    /// list; grows as removed chains accumulate). For a removed head this
    /// is the distance from the *new* head... see `reinsert_ranks`.
    pub dist_from_pred: u32,
}

/// Result of the reduction phase.
pub struct Reduction {
    /// The reduced list structure (only `live` nodes are linked; removed
    /// nodes' pointers are stale).
    pub succ: Vec<u32>,
    /// Predecessors, same caveat.
    pub pred: Vec<u32>,
    /// Head of the reduced list.
    pub head: u32,
    /// `dist[i]` = current distance from live node `i` to `succ[i]` on the
    /// original list.
    pub dist: Vec<u32>,
    /// Live-node flags.
    pub live: Vec<bool>,
    /// Number of live nodes.
    pub live_count: usize,
    /// Removal log, in removal order.
    pub removals: Vec<Removal>,
    /// Iterations performed.
    pub iterations: usize,
    /// Random bits consumed (exactly: one per live node per iteration).
    pub bits_consumed: u64,
    /// Live-node count at the start of every iteration (the per-iteration
    /// randomness demand the Figure 7 model needs).
    pub live_history: Vec<usize>,
}

/// Reduces `list` until at most `target` nodes remain (Algorithm 3).
///
/// Head and tail nodes are never removed (they anchor the reduced list);
/// this costs nothing asymptotically and keeps the book-keeping simple.
///
/// # Panics
/// Panics if `target == 0`.
pub fn reduce_list(list: &LinkedList, target: usize, bits: &mut dyn BitProvider) -> Reduction {
    assert!(target > 0, "target must be positive");
    let n = list.len();
    let mut succ = list.succ.clone();
    let mut pred = list.pred.clone();
    let mut dist = vec![1u32; n];
    let mut live = vec![true; n];
    let mut live_nodes: Vec<u32> = (0..n as u32).collect();
    let mut removals = Vec::new();
    let mut coin = vec![0u8; n];
    let mut iterations = 0;
    let mut bits_consumed = 0u64;
    let head = list.head;

    let mut live_history = Vec::new();
    while live_nodes.len() > target {
        iterations += 1;
        let count = live_nodes.len();
        live_history.push(count);
        bits.provide(&mut coin[..count], count);
        bits_consumed += count as u64;

        // coin_of[node] lookup: scatter the per-live-node coins.
        // b(v) for the selection below; dead nodes keep 0 so that head/tail
        // boundaries (NIL neighbours) read as 0 too.
        let mut b = vec![0u8; n];
        for (k, &v) in live_nodes.iter().enumerate() {
            b[v as usize] = coin[k] & 1;
        }

        // Parallel selection of the FIS (never the head or the tail).
        let selected: Vec<u32> = live_nodes
            .par_iter()
            .copied()
            .filter(|&v| {
                let vi = v as usize;
                if b[vi] != 1 {
                    return false;
                }
                let p = pred[vi];
                let s = succ[vi];
                if p == NIL || s == NIL {
                    return false; // keep the anchors
                }
                b[p as usize] == 0 && b[s as usize] == 0
            })
            .collect();

        // Splice the independent set out. Nodes in an FIS are pairwise
        // non-adjacent, so each splice touches only live neighbours that
        // stay live this iteration.
        for &v in &selected {
            let vi = v as usize;
            let p = pred[vi];
            let s = succ[vi];
            removals.push(Removal {
                node: v,
                pred: p,
                succ: s,
                dist_from_pred: dist[p as usize],
            });
            succ[p as usize] = s;
            pred[s as usize] = p;
            dist[p as usize] += dist[vi];
            live[vi] = false;
        }
        live_nodes.retain(|&v| live[v as usize]);

        // Degenerate safety: if nothing was removed (possible but
        // exponentially unlikely with fair coins; routine with a broken
        // provider), avoid spinning forever.
        if selected.is_empty() && iterations > 64 * (usize::BITS as usize) {
            break;
        }
    }

    Reduction {
        succ,
        pred,
        head,
        dist,
        live_count: live_nodes.len(),
        live,
        removals,
        iterations,
        bits_consumed,
        live_history,
    }
}

/// Phase III: given ranks for every live node of `reduction`, reinsert the
/// removed nodes in reverse order, producing full ranks.
///
/// # Panics
/// Panics if a live node's rank is missing (internal inconsistency).
pub fn reinsert_ranks(reduction: &Reduction, ranks: &mut [u32]) {
    for r in reduction.removals.iter().rev() {
        let base = ranks[r.pred as usize];
        ranks[r.node as usize] = base + r.dist_from_pred;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::sequential_rank;
    use hprng_baselines::SplitMix64;
    use hprng_core::ScalarRng;

    fn target_for(n: usize) -> usize {
        (n as f64 / (n as f64).log2()).ceil() as usize
    }

    #[test]
    fn reduction_reaches_target() {
        let mut rng = SplitMix64::new(1);
        let list = LinkedList::random(10_000, &mut rng);
        let mut bits = OnDemandBits::new(ScalarRng::new(SplitMix64::new(2)));
        let red = reduce_list(&list, target_for(10_000), &mut bits);
        assert!(red.live_count <= target_for(10_000));
        assert_eq!(red.live_count + red.removals.len(), 10_000);
    }

    #[test]
    fn reduced_list_distances_are_consistent() {
        // Walking the reduced list and summing dist must give n−1 (head to
        // tail on the original list).
        let mut rng = SplitMix64::new(3);
        let list = LinkedList::random(5_000, &mut rng);
        let mut bits = OnDemandBits::new(ScalarRng::new(SplitMix64::new(4)));
        let red = reduce_list(&list, target_for(5_000), &mut bits);
        let mut cur = red.head;
        let mut total = 0u32;
        let mut hops = 0;
        while red.succ[cur as usize] != NIL {
            assert!(red.live[cur as usize]);
            total += red.dist[cur as usize];
            cur = red.succ[cur as usize];
            hops += 1;
        }
        assert_eq!(total, 4_999);
        assert_eq!(hops + 1, red.live_count);
    }

    #[test]
    fn reinsertion_recovers_sequential_ranks() {
        let mut rng = SplitMix64::new(5);
        let list = LinkedList::random(3_000, &mut rng);
        let expected = sequential_rank(&list);
        let mut bits = OnDemandBits::new(ScalarRng::new(SplitMix64::new(6)));
        let red = reduce_list(&list, target_for(3_000), &mut bits);
        // Rank the live chain by traversal (stand-in for Phase II).
        let mut ranks = vec![0u32; list.len()];
        let mut cur = red.head;
        let mut acc = 0u32;
        while cur != NIL {
            ranks[cur as usize] = acc;
            acc += red.dist[cur as usize];
            cur = red.succ[cur as usize];
        }
        reinsert_ranks(&red, &mut ranks);
        assert_eq!(ranks, expected);
    }

    #[test]
    fn on_demand_consumes_fewer_bits_than_batch() {
        let list = LinkedList::random(20_000, &mut SplitMix64::new(7));
        let t = target_for(20_000);
        let mut od = OnDemandBits::new(ScalarRng::new(SplitMix64::new(8)));
        let _ = reduce_list(&list, t, &mut od);
        let mut batch = BatchBits::new(ScalarRng::new(SplitMix64::new(8)), 20_000);
        let _ = reduce_list(&list, t, &mut batch);
        assert!(
            od.bits_produced() * 2 < batch.bits_produced(),
            "on-demand {} vs batch {}",
            od.bits_produced(),
            batch.bits_produced()
        );
    }

    #[test]
    fn selected_sets_are_independent() {
        // Every removal's pred/succ must never be another node removed in
        // the same iteration. We verify a weaker global invariant here: a
        // removal's recorded neighbours are live at removal time, which the
        // splice relies on. Full independence is implied by reinsertion
        // correctness (`reinsertion_recovers_sequential_ranks`).
        let list = LinkedList::random(2_000, &mut SplitMix64::new(9));
        let mut bits = OnDemandBits::new(ScalarRng::new(SplitMix64::new(10)));
        let red = reduce_list(&list, target_for(2_000), &mut bits);
        // Replay the removals forward over a fresh copy.
        let mut live = vec![true; list.len()];
        for r in &red.removals {
            assert!(live[r.node as usize], "node removed twice");
            assert!(r.pred == NIL || live[r.pred as usize], "dead predecessor");
            assert!(r.succ == NIL || live[r.succ as usize], "dead successor");
            live[r.node as usize] = false;
        }
    }

    #[test]
    fn small_lists_are_handled() {
        for n in [1usize, 2, 3] {
            let list = LinkedList::ordered(n);
            let mut bits = OnDemandBits::new(ScalarRng::new(SplitMix64::new(11)));
            let red = reduce_list(&list, 1, &mut bits);
            // Head and tail are anchored, so at most max(n, 2) nodes
            // remain and nothing panics.
            assert!(red.live_count >= 1.min(n));
        }
    }

    #[test]
    fn degenerate_coins_stop_at_the_one_valve_on_both_entry_points() {
        use crate::hybrid::rank_list_over;
        use crate::ondemand::rank_on_session;
        use hprng_core::{HprngError, OnDemandRng};
        use hprng_telemetry::Recorder;
        use rand_core::RngCore;

        /// Serves `u64::MAX` to every lane: every coin is 1, so no node is
        /// ever selected.
        struct Ones {
            lanes: usize,
        }
        impl OnDemandRng for Ones {
            fn label(&self) -> &'static str {
                "ones"
            }
            fn lanes(&self) -> usize {
                self.lanes
            }
            fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
                out.fill(u64::MAX);
                Ok(())
            }
            fn words_served(&self) -> u64 {
                0
            }
        }
        impl RngCore for Ones {
            fn next_u32(&mut self) -> u32 {
                u32::MAX
            }
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                dest.fill(u8::MAX);
            }
            fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand_core::Error> {
                dest.fill(u8::MAX);
                Ok(())
            }
        }

        let list = LinkedList::random(100, &mut SplitMix64::new(14));
        let expected = sequential_rank(&list);
        let (ranks, red) = rank_on_session(&list, &mut Ones { lanes: 100 });
        assert_eq!((red.iterations, red.live_count), (4097, 100));
        assert_eq!(ranks, expected);

        let mut bits = OnDemandBits::new(ScalarRng::new(Ones { lanes: 1 }));
        let (ranks, stats) = rank_list_over(&list, &mut bits, 15, &mut Recorder::new());
        assert_eq!((stats.iterations, stats.live_after_reduce), (4097, 100));
        assert_eq!(ranks, expected);
    }

    #[test]
    fn expected_fraction_removed_per_iteration() {
        // With fair coins, an interior node is selected with probability
        // 1/8; check the first iteration removes a sane fraction.
        let list = LinkedList::random(50_000, &mut SplitMix64::new(12));
        let mut bits = OnDemandBits::new(ScalarRng::new(SplitMix64::new(13)));
        // target = n−1 forces exactly one iteration… almost: use a high
        // target and inspect iteration count instead.
        let red = reduce_list(&list, 49_000, &mut bits);
        assert_eq!(red.iterations, 1);
        let removed = 50_000 - red.live_count;
        let frac = removed as f64 / 50_000.0;
        assert!((0.10..0.15).contains(&frac), "removed fraction {frac}");
    }
}
