//! Algorithm 3 over the unified on-demand contract.
//!
//! The FIS round itself lives once, in [`crate::fis::reduce_list`]; this
//! module feeds it with the device discipline: every live node calls
//! `GetNextRand()` on its own lane once per round —
//! [`OnDemandRng::try_next_batch_into`] with one slot per live node — and
//! uses the number's low bit as its coin. Routed through a pipeline
//! `Engine` session ([`hprng_core::HybridSession`] or
//! `Engine<CpuBackend>`), the FEED/TRANSFER/GENERATE stages hit the
//! backend's timeline exactly as the paper's Figure 7 experiment demands,
//! with no application-side gpu-sim orchestration.
//!
//! This path reproduces the retired `listrank::device` module's rank
//! results bit-for-bit: the numbers a session serves depend only on the
//! feed stream and the per-round batch sizes, which are identical, and
//! the selection/splice is the same fractional-independent-set step the
//! device kernels computed.

use crate::fis::{reduce_list, reinsert_ranks, BitProvider, Reduction};
use crate::list::{LinkedList, NIL};
use hprng_core::OnDemandRng;

/// Coins from a multi-lane session: each round draws one number from each
/// of the first `count` lanes (live node `k` reads lane `k`) and keeps its
/// low bit.
struct LaneCoins<R> {
    rng: R,
    numbers: Vec<u64>,
    produced: u64,
}

impl<R: OnDemandRng> BitProvider for LaneCoins<R> {
    fn provide(&mut self, out: &mut [u8], count: usize) -> u64 {
        let numbers = &mut self.numbers[..count];
        self.rng
            .try_next_batch_into(numbers)
            .expect("live count never exceeds the session lanes");
        for (coin, &number) in out[..count].iter_mut().zip(numbers.iter()) {
            *coin = (number & 1) as u8;
        }
        self.produced += count as u64;
        count as u64
    }

    fn bits_produced(&self) -> u64 {
        self.produced
    }
}

/// Reduces `list` until at most `target` nodes remain, drawing one number
/// per live node per round from `rng` (the device discipline of
/// Algorithm 3: line 6 is a whole-batch `GetNextRand()` call).
///
/// The provider must have at least `list.len()` lanes — open an engine
/// session with one walk per node, as Algorithm 3 line 2 initializes the
/// expander graph for all threads.
///
/// # Panics
/// Panics if `target == 0` or `rng` has fewer lanes than the list has
/// nodes.
pub fn reduce_on_session<R: OnDemandRng>(
    list: &LinkedList,
    target: usize,
    rng: &mut R,
) -> Reduction {
    assert!(target > 0, "target must be positive");
    let n = list.len();
    assert!(
        rng.lanes() >= n,
        "the session needs one lane per node ({} lanes < {n} nodes)",
        rng.lanes()
    );
    let mut coins = LaneCoins {
        rng,
        numbers: vec![0; n],
        produced: 0,
    };
    reduce_list(list, target, &mut coins)
}

/// Full session-routed ranking: [`reduce_on_session`] to `n / log₂ n`
/// nodes, a sequential sweep of the remnant (stand-in for Phase II), and
/// [`reinsert_ranks`]. Returns the ranks and the reduction for stats
/// introspection; pipeline/timeline figures come from the session itself
/// after the call.
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
    reinsert_ranks(&red, &mut ranks);
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
