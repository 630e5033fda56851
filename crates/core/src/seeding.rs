//! Unified seed derivation for every generator in the crate.
//!
//! Every glibc-fed generator derives its 32-bit glibc seed from a 64-bit
//! seed through one function, [`feed_seed`]: the hybrid pipeline's FEED
//! stage from its master seed, and every on-demand lane — an
//! [`crate::ExpanderWalkRng::from_seed_u64`] walk, a pool session, an
//! [`crate::ExpanderLanes`] lane — from its [`lane_seed`]. Historically each
//! caller had its own copy of the SplitMix64 finalizer, which is exactly
//! the kind of duplication that drifts: a constant typo in one copy
//! silently decorrelates nothing while appearing to work. This module is
//! the single source of truth; the exact output sequences are pinned by
//! tests because golden determinism suites depend on them.

use hprng_baselines::SplitMix64;

/// Golden-ratio increment of the SplitMix64 sequence (2^64 / φ).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the SplitMix64 stream seeded at `seed`: the canonical way to
/// turn an arbitrary user seed into a well-mixed 64-bit value.
#[inline]
pub fn mix64(seed: u64) -> u64 {
    SplitMix64::new(seed).next()
}

/// The 32-bit glibc `rand()` seed for a given 64-bit seed: the hybrid
/// pipeline's FEED stage under its master seed, and each on-demand lane
/// under its [`lane_seed`].
///
/// This is the truncation of [`mix64`], matching the original
/// `SplitSeed::mix` in the pre-refactor `hybrid.rs`.
#[inline]
pub fn feed_seed(seed: u64) -> u32 {
    mix64(seed) as u32
}

/// The 64-bit master seed of on-demand lane `index` under master `seed`.
///
/// This is the per-chunk derivation the photon-migration application has
/// always used (`seed ^ index · GOLDEN_GAMMA`); the result is fed to
/// [`feed_seed`], which mixes it again, so lanes are decorrelated even for
/// consecutive indices.
#[inline]
pub fn lane_seed(seed: u64, index: u64) -> u64 {
    seed ^ index.wrapping_mul(GOLDEN_GAMMA)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-refactor `SplitSeed::mix` from hybrid.rs, kept verbatim as
    /// the reference: the extraction must be bit-identical or every golden
    /// stream in the repo shifts.
    fn legacy_split_seed_mix(seed: u64) -> u32 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u32
    }

    #[test]
    fn feed_seed_matches_legacy_hybrid_derivation() {
        for seed in [0u64, 1, 42, 20120521, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            assert_eq!(feed_seed(seed), legacy_split_seed_mix(seed), "seed {seed}");
        }
    }

    #[test]
    fn expander_lanes_fill_serves_lane_t_in_chunk_t() {
        // The multicore variant's words: chunk `t` of `fill` is lane `t`.
        use crate::{ExpanderLanes, SplitOnDemand};
        for seed in [0u64, 5, 9, u64::MAX] {
            let lanes = ExpanderLanes::new(seed);
            let mut out = [0u64; 128];
            lanes.fill(&mut out, 8).unwrap();
            for (t, chunk) in out.chunks(16).enumerate() {
                let mut lane = lanes.lane(t as u64);
                for (i, &word) in chunk.iter().enumerate() {
                    assert_eq!(word, lane.get_next_rand(), "seed {seed} t {t} word {i}");
                }
            }
        }
    }

    #[test]
    fn worker_seeds_are_decorrelated() {
        let seeds: Vec<u32> = (0..64).map(|t| feed_seed(lane_seed(7, t))).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "collision in worker seeds");
    }
}
