//! Property tests for the seed-derivation module and the coin-bit
//! repacker: the invariants every golden stream in the repo leans on.

use hprng_baselines::SplitMix64;
use hprng_core::ondemand::{BitProvider, OnDemandBits, TappedBits};
use hprng_core::seeding::{feed_seed, lane_seed, mix64};
use hprng_core::{ScalarRng, StreamState};
use hprng_expander::WalkState;
use hprng_telemetry::WordTap;
use proptest::prelude::*;

const STATE_LABELS: [&str; 4] = ["expander-walk", "gpu-sim", "cpu-threads", "pool-lane"];

/// Assembles a `StreamState` from raw proptest draws (the vendored
/// proptest has no `prop_map`, so composition happens in the test body).
fn build_state(
    label_idx: usize,
    ids: (u64, u64),
    lanes: usize,
    counters: (u64, u64, u64),
    walks: Vec<(u64, u64)>,
) -> StreamState {
    let (id, seed) = ids;
    let (session_words, feed_words, feed_chunks) = counters;
    StreamState {
        label: STATE_LABELS[label_idx].to_string(),
        id,
        seed,
        lanes,
        session_words,
        feed_words,
        feed_chunks,
        walks: walks
            .into_iter()
            .map(|(vertex, steps)| WalkState { vertex, steps })
            .collect(),
    }
}

struct Collect(Vec<u64>);

impl WordTap for Collect {
    fn observe(&mut self, words: &[u64]) {
        self.0.extend_from_slice(words);
    }
}

/// All 10k lane feed seeds (CPU-parallel workers and pool lanes alike)
/// under one master are pairwise distinct. The seeds are 32-bit, so 10k
/// draws sit near the birthday bound (~1% collision odds for a random
/// function); fixed masters keep the check deterministic — these exact
/// derivations are what the golden suites run on.
#[test]
fn worker_seeds_are_pairwise_distinct_across_10k_lanes() {
    for master in [0u64, 7, 42, 20120521] {
        let mut seeds: Vec<u32> = (0..10_000)
            .map(|t| feed_seed(lane_seed(master, t)))
            .collect();
        seeds.sort_unstable();
        let before = seeds.len();
        seeds.dedup();
        assert_eq!(seeds.len(), before, "collision under master {master}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Avalanche: flipping any single input bit of `mix64` flips close to
    /// half the output bits on average. A finalizer constant typo shows up
    /// here immediately (the historical duplication hazard the seeding
    /// module exists to prevent).
    #[test]
    fn mix64_avalanches_on_every_input_bit(seed in any::<u64>()) {
        let base = mix64(seed);
        let total: u32 = (0..64)
            .map(|bit| (mix64(seed ^ (1u64 << bit)) ^ base).count_ones())
            .sum();
        let mean = f64::from(total) / 64.0;
        // Per-flip popcount is Binomial(64, 1/2): mean 32, σ = 4; the mean
        // of 64 flips has σ = 0.5, so ±4 is an 8σ band.
        prop_assert!((28.0..=36.0).contains(&mean), "mean bit flips {mean}");
    }

    /// Lane seeding is injective in the lane index: xor with an odd
    /// multiple is a bijection, so no two on-demand lanes can ever share a
    /// master seed.
    #[test]
    fn lane_seeds_never_collide(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(lane_seed(seed, a), lane_seed(seed, b));
    }

    /// The tap-side repacker is chunking-invariant: however the `provide`
    /// calls split the coin stream, the words a tap observes are exactly
    /// the concatenated coins packed LSB-first (trailing partial word
    /// withheld).
    #[test]
    fn tapped_repacking_is_chunking_invariant(
        seed in any::<u64>(),
        counts in prop::collection::vec(1usize..97, 1..8),
    ) {
        let mut tap = Collect(Vec::new());
        let mut stream: Vec<u8> = Vec::new();
        {
            let inner = OnDemandBits::new(ScalarRng::new(SplitMix64::new(seed)));
            let mut tapped = TappedBits::new(Box::new(inner), &mut tap);
            let mut out = [0u8; 96];
            for &count in &counts {
                tapped.provide(&mut out[..count], count);
                stream.extend_from_slice(&out[..count]);
            }
        }
        let mut expected = Vec::new();
        for chunk in stream.chunks_exact(64) {
            let mut word = 0u64;
            for (i, &coin) in chunk.iter().enumerate() {
                word |= ((coin & 1) as u64) << i;
            }
            expected.push(word);
        }
        prop_assert_eq!(tap.0, expected);
    }

    /// Stream states survive the JSON round trip losslessly for arbitrary
    /// walk positions (full 64-bit labels), lane counts, and cursors — the
    /// persistence leg of the pool's checkpoint/failover mechanism. The
    /// telemetry JSON number is an f64, so this fails immediately if any
    /// u64 field ever rides as a number instead of a decimal string.
    #[test]
    fn stream_state_json_round_trip_is_lossless(
        label_idx in 0usize..4,
        ids in (any::<u64>(), any::<u64>()),
        lanes in 1usize..4097,
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
        walks in prop::collection::vec((any::<u64>(), any::<u64>()), 0..16),
    ) {
        let state = build_state(label_idx, ids, lanes, counters, walks);
        let text = state.to_json();
        let back = StreamState::from_json(&text).unwrap();
        prop_assert_eq!(back, state);
    }

    /// Serialization is canonical enough to re-serialize: parsing and
    /// re-emitting yields byte-identical JSON (BTreeMap key order), so
    /// snapshots can be diffed and content-addressed.
    #[test]
    fn stream_state_json_is_canonical(
        label_idx in 0usize..4,
        ids in (any::<u64>(), any::<u64>()),
        lanes in 1usize..4097,
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
        walks in prop::collection::vec((any::<u64>(), any::<u64>()), 0..16),
    ) {
        let state = build_state(label_idx, ids, lanes, counters, walks);
        let text = state.to_json();
        let again = StreamState::from_json(&text).unwrap().to_json();
        prop_assert_eq!(text, again);
    }
}
