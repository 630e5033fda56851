//! Absolute pins of scalar lane streams.
//!
//! A scalar lane, [`ExpanderWalkRng`], serves every pool `ExpanderWalk`
//! session and every photon chunk. Each pin is the FNV-1a hash of a lane's
//! first 4096 words and the 3-bit chunks they consumed (warm-up included),
//! so a change to the walk, the chunk reader or the FEED that moves a
//! single word or chunk fails here directly, rather than only through an
//! application's output or through another provider built from the same
//! code.

use hprng_baselines::GlibcRand;
use hprng_core::{ExpanderLanes, ExpanderWalkRng, RngBitSource, SplitOnDemand, WalkParams};

/// Words hashed per lane.
const WORDS: usize = 4096;

/// FNV-1a over the little-endian bytes of the lane's first [`WORDS`]
/// words, the repo's golden-hash idiom, and the chunks consumed after them.
fn fingerprint(mut lane: ExpanderWalkRng) -> (u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..WORDS {
        for b in lane.get_next_rand().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (h, lane.chunks_consumed())
}

#[test]
fn seeded_scalar_lanes_match_the_pins() {
    // (seed, (FNV-1a of the first 4096 words, chunks consumed)).
    for (seed, pin) in [
        (0, (0xd3e9_b542_7053_542d, 262_230)),
        (1, (0xc977_2d35_80b6_377d, 262_230)),
        (42, (0x1349_9f7f_25fd_570a, 262_230)),
        (u64::MAX, (0xb90d_4b1e_b88d_e264, 262_230)),
    ] {
        let got = fingerprint(ExpanderWalkRng::from_seed_u64(seed));
        assert_eq!(got, pin, "ExpanderWalkRng::from_seed_u64({seed})");
    }
}

#[test]
fn expander_lanes_match_the_pins() {
    let lanes = ExpanderLanes::new(7);
    // (lane id, (FNV-1a of the first 4096 words, chunks consumed)).
    for (t, pin) in [
        (0, (0x4adc_2229_7ed3_08dd, 262_230)),
        (1, (0x82e7_41c3_3764_3e2d, 262_230)),
        (1000, (0xc90a_3dac_7194_a655, 262_230)),
    ] {
        let got = fingerprint(lanes.lane(t));
        assert_eq!(got, pin, "ExpanderLanes::new(7).lane({t})");
    }
}

#[test]
fn custom_walk_shapes_match_the_pins() {
    // ((warmup_len, walk_len), (FNV-1a of the first 4096 words, chunks
    // consumed)), each over glibc `rand()` seeded with 7.
    for ((warmup_len, walk_len), pin) in [
        ((0, 22), (0x9a48_0320_275b_cc5d, 90_134)),
        ((5, 23), (0xbbfa_b07a_f523_65e4, 94_235)),
        ((64, 16), (0xd9e6_5ab8_6cb6_6e85, 65_622)),
    ] {
        let shape = WalkParams::builder()
            .warmup_len(warmup_len)
            .walk_len(walk_len)
            .build()
            .unwrap();
        let lane = ExpanderWalkRng::with_params(RngBitSource::new(GlibcRand::new(7)), shape);
        let got = fingerprint(lane);
        assert_eq!(got, pin, "walk shape ({warmup_len}, {walk_len})");
    }
}
