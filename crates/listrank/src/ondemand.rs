//! Algorithm 3 over the unified on-demand contract.
//!
//! The host-side [`crate::fis`] module consumes packed coin *bits* from a
//! [`BitProvider`](crate::fis::BitProvider); this module is the device
//! discipline: every live node calls `GetNextRand()` on its own lane once
//! per iteration — [`OnDemandRng::try_next_batch_into`] with one slot per
//! live node — and uses the number's low bit as its coin. Routed through
//! a pipeline `Engine` session ([`hprng_core::HybridSession`] or
//! `Engine<CpuBackend>`), the FEED/TRANSFER/GENERATE stages hit the
//! backend's timeline exactly as the paper's Figure 7 experiment demands,
//! with no application-side gpu-sim orchestration.
//!
//! This path reproduces the retired `listrank::device` module's rank
//! results bit-for-bit: the numbers a session serves depend only on the
//! feed stream and the per-iteration batch sizes, which are identical, and
//! the selection/splice applied here is the same fractional-independent-set
//! step the device kernels computed.

use crate::fis::{Reduction, Removal};
use crate::list::{LinkedList, NIL};
use hprng_core::OnDemandRng;
use rayon::prelude::*;

/// Reduces `list` until at most `target` nodes remain, drawing one number
/// per live node per iteration from `rng` (the device discipline of
/// Algorithm 3: line 6 is a whole-batch `GetNextRand()` call).
///
/// The provider must have at least `list.len()` lanes — open an engine
/// session with one walk per node, as Algorithm 3 line 2 initializes the
/// expander graph for all threads.
///
/// # Panics
/// Panics if `target == 0`, the list is empty, or `rng` has fewer lanes
/// than the list has nodes.
pub fn reduce_on_session<R: OnDemandRng>(
    list: &LinkedList,
    target: usize,
    rng: &mut R,
) -> Reduction {
    assert!(target > 0, "target must be positive");
    let n = list.len();
    assert!(n > 0, "empty list");
    assert!(
        rng.lanes() >= n,
        "the session needs one lane per node ({} lanes < {n} nodes)",
        rng.lanes()
    );

    let mut succ = list.succ.clone();
    let mut pred = list.pred.clone();
    let mut dist = vec![1u32; n];
    let mut live = vec![true; n];
    let mut live_nodes: Vec<u32> = (0..n as u32).collect();
    let mut removals = Vec::new();
    let mut numbers = vec![0u64; n];
    let mut iterations = 0usize;
    let mut bits_consumed = 0u64;
    let mut live_history = Vec::new();
    let head = list.head;

    while live_nodes.len() > target {
        iterations += 1;
        let count = live_nodes.len();
        live_history.push(count);

        // Line 4/6: each live node calls GetNextRand() — one number from
        // each of the first `count` lanes.
        rng.try_next_batch_into(&mut numbers[..count])
            .expect("live count never exceeds the session lanes");
        bits_consumed += count as u64;

        // Coin per *node* (dead nodes read as 0, as do NIL boundaries).
        let mut coins = vec![0u8; n];
        for (k, &v) in live_nodes.iter().enumerate() {
            coins[v as usize] = (numbers[k] & 1) as u8;
        }

        // Selection (lines 7-9): b(u)=1 ∧ b(pred)=0 ∧ b(succ)=0, never the
        // anchors.
        let selected: Vec<u32> = live_nodes
            .par_iter()
            .copied()
            .filter(|&v| {
                let vi = v as usize;
                if coins[vi] != 1 {
                    return false;
                }
                let p = pred[vi];
                let s = succ[vi];
                if p == NIL || s == NIL {
                    return false;
                }
                coins[p as usize] == 0 && coins[s as usize] == 0
            })
            .collect();

        // Splice (line 10). FIS independence makes the writes disjoint: a
        // selected node's neighbours are unselected, so `dist[p]` read here
        // is what a barrier-separated kernel would have read too.
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

        if iterations > 64 * usize::BITS as usize {
            break; // degenerate randomness safety valve
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

/// Full session-routed ranking: [`reduce_on_session`] to `n / log₂ n`
/// nodes, a sequential sweep of the remnant (stand-in for Phase II, shared
/// with the host path), and reverse reinsertion. Returns the ranks and the
/// reduction for stats introspection; pipeline/timeline figures come from
/// the session itself after the call.
///
/// # Panics
/// As [`reduce_on_session`].
pub fn rank_on_session<R: OnDemandRng>(list: &LinkedList, rng: &mut R) -> (Vec<u32>, Reduction) {
    let n = list.len();
    let target = ((n as f64) / (n as f64).log2()).ceil() as usize;
    let red = reduce_on_session(list, target.max(1), rng);
    let mut ranks = vec![0u32; n];
    let mut cur = red.head;
    let mut acc = 0u32;
    while cur != NIL {
        ranks[cur as usize] = acc;
        acc += red.dist[cur as usize];
        cur = red.succ[cur as usize];
    }
    for r in red.removals.iter().rev() {
        ranks[r.node as usize] = ranks[r.pred as usize] + r.dist_from_pred;
    }
    (ranks, red)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::sequential_rank;
    use hprng_baselines::SplitMix64;
    use hprng_core::pipeline::{CpuBackend, Engine, GlibcFeed};
    use hprng_core::{HybridParams, HybridPrng};
    use hprng_gpu_sim::DeviceConfig;

    /// FNV-1a over the little-endian bytes, the repo's golden-hash idiom.
    fn fnv(data: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in data {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// The retired `listrank::device` path's outputs, captured before its
    /// removal: ranks hash, iterations, live remnant and feed words for
    /// `LinkedList::random(5_000, SplitMix64::new(1))` on a `test_tiny`
    /// device with master seed 2. The session-routed path must reproduce
    /// all of them exactly.
    const LEGACY_RANKS_FNV: u64 = 0xb448479fa8aa82e5;
    const LEGACY_ITERATIONS: usize = 19;
    const LEGACY_LIVE: usize = 384;
    const LEGACY_FEED_WORDS: u64 = 172_960;

    #[test]
    fn reproduces_the_legacy_device_path() {
        let list = LinkedList::random(5_000, &mut SplitMix64::new(1));
        let expected = sequential_rank(&list);
        let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), 2);
        let mut session = prng.try_session(5_000).unwrap();
        let (ranks, red) = rank_on_session(&list, &mut session);
        assert_eq!(ranks, expected);
        assert_eq!(fnv(ranks.iter().map(|&r| r as u64)), LEGACY_RANKS_FNV);
        assert_eq!(red.iterations, LEGACY_ITERATIONS);
        assert_eq!(red.live_count, LEGACY_LIVE);
        assert_eq!(session.stats().feed_words, LEGACY_FEED_WORDS);
    }

    #[test]
    fn cpu_backend_matches_the_device_backend_bit_for_bit() {
        // Both backends advance the same walks over the same feed stream,
        // so the session-routed ranking is backend-invariant.
        let list = LinkedList::random(5_000, &mut SplitMix64::new(1));
        let mut engine = Engine::new(
            CpuBackend::new(HybridParams::default()),
            Box::new(GlibcFeed::from_master_seed(2)),
        );
        engine.initialize(5_000).unwrap();
        let (ranks, red) = rank_on_session(&list, &mut engine);
        assert_eq!(fnv(ranks.iter().map(|&r| r as u64)), LEGACY_RANKS_FNV);
        assert_eq!(red.iterations, LEGACY_ITERATIONS);
        assert_eq!(red.live_count, LEGACY_LIVE);
        assert_eq!(engine.stats().feed_words, LEGACY_FEED_WORDS);
        assert_eq!(engine.words_served(), red.bits_consumed);
    }

    #[test]
    fn reduction_is_deterministic() {
        let list = LinkedList::random(2_000, &mut SplitMix64::new(3));
        let run = || {
            let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), 7);
            let mut session = prng.try_session(2_000).unwrap();
            let (ranks, _) = rank_on_session(&list, &mut session);
            (ranks, session.stats().sim_ns)
        };
        let (ra, ta) = run();
        let (rb, tb) = run();
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
    }

    #[test]
    fn timeline_shows_feed_and_generate_activity() {
        let list = LinkedList::random(4_000, &mut SplitMix64::new(5));
        let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), 6);
        let mut session = prng.try_session(4_000).unwrap();
        let (_, red) = rank_on_session(&list, &mut session);
        let stats = session.stats();
        assert!(stats.sim_ns > 0.0);
        assert!(stats.cpu_busy > 0.0);
        assert!(stats.gpu_busy > 0.0);
        assert!(stats.feed_words > 0);
        assert!(red.iterations > 1);
    }

    #[test]
    fn ordered_lists_work() {
        let list = LinkedList::ordered(1_000);
        let expected = sequential_rank(&list);
        let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), 9);
        let mut session = prng.try_session(1_000).unwrap();
        let (ranks, _) = rank_on_session(&list, &mut session);
        assert_eq!(ranks, expected);
    }

    #[test]
    #[should_panic(expected = "target must be positive")]
    fn zero_target_rejected() {
        let list = LinkedList::ordered(10);
        let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), 1);
        let mut session = prng.try_session(10).unwrap();
        reduce_on_session(&list, 0, &mut session);
    }

    #[test]
    #[should_panic(expected = "one lane per node")]
    fn undersized_sessions_are_rejected() {
        let list = LinkedList::ordered(100);
        let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), 1);
        let mut session = prng.try_session(10).unwrap();
        reduce_on_session(&list, 5, &mut session);
    }
}
