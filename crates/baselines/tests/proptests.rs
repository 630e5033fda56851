//! Cross-generator property tests: every baseline must honour the RngCore
//! contract and basic determinism/divergence properties.

use hprng_baselines::*;
use proptest::prelude::*;
use rand_core::{RngCore, SeedableRng};

/// Drives the shared properties for one generator type.
fn check_contract<R: RngCore + SeedableRng + Clone>(seed: u64) -> Result<(), TestCaseError> {
    let mut a = R::seed_from_u64(seed);
    let mut b = R::seed_from_u64(seed);

    // Determinism: same seed, same stream.
    for _ in 0..64 {
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    // Clone preserves the stream mid-flight.
    let mut c = a.clone();
    for _ in 0..64 {
        prop_assert_eq!(a.next_u64(), c.next_u64());
    }

    // fill_bytes fills every byte span without panicking, including empty
    // and non-multiple-of-8 lengths.
    for len in [0usize, 1, 3, 7, 8, 9, 31] {
        let mut buf = vec![0u8; len];
        a.fill_bytes(&mut buf);
    }
    Ok(())
}

/// glibc TYPE_3 drawn the way glibc draws it: a 31-word ring with a
/// front index `f` and a rear index `r`, both wrapped on every draw. This
/// is `GlibcRand`'s ring code from before the block form, kept verbatim as
/// the reference the block form must equal.
#[derive(Clone)]
struct RingGlibc {
    table: [u32; DEG],
    f: usize,
    r: usize,
}

const DEG: usize = 31;
const SEP: usize = 3;

impl RingGlibc {
    fn new(seed: u32) -> Self {
        // glibc maps seed 0 to 1.
        let seed = if seed == 0 { 1 } else { seed };
        let mut table = [0u32; DEG];
        table[0] = seed;
        // Lehmer LCG `16807 * s mod (2^31 - 1)` via Schrage's method, exactly
        // as glibc's __initstate_r does (including the negative-word fixup).
        for i in 1..DEG {
            let prev = table[i - 1] as i64;
            let hi = prev / 127_773;
            let lo = prev % 127_773;
            let mut word = 16_807 * lo - 2_836 * hi;
            if word < 0 {
                word += 2_147_483_647;
            }
            table[i] = word as u32;
        }
        let mut g = Self {
            table,
            f: SEP,
            r: 0,
        };
        for _ in 0..(DEG * 10) {
            g.next_rand();
        }
        g
    }

    fn next_rand(&mut self) -> u32 {
        let val = self.table[self.f].wrapping_add(self.table[self.r]);
        self.table[self.f] = val;
        self.f = if self.f + 1 >= DEG { 0 } else { self.f + 1 };
        self.r = if self.r + 1 >= DEG { 0 } else { self.r + 1 };
        val >> 1
    }

    fn next_u32(&mut self) -> u32 {
        let a = self.next_rand();
        let b = self.next_rand();
        ((a >> 15) << 16) | (b >> 15)
    }

    fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }
}

/// Makes one call of kind `op` (`next_rand`, `next_u32` or `next_u64`) on
/// both generators, checks they agree, and returns the draws it took.
fn same_call(block: &mut GlibcRand, ring: &mut RingGlibc, op: u8) -> Result<usize, TestCaseError> {
    match op {
        0 => {
            prop_assert_eq!(block.next_rand(), ring.next_rand());
            Ok(1)
        }
        1 => {
            prop_assert_eq!(block.next_u32(), ring.next_u32());
            Ok(2)
        }
        _ => {
            prop_assert_eq!(block.next_u64(), ring.next_u64());
            Ok(4)
        }
    }
}

proptest! {
    #[test]
    fn glibc_contract(seed in any::<u64>()) { check_contract::<GlibcRand>(seed)?; }

    #[test]
    fn lcg_contract(seed in any::<u64>()) { check_contract::<Lcg64>(seed)?; }

    #[test]
    fn mt32_contract(seed in any::<u64>()) { check_contract::<Mt19937>(seed)?; }

    #[test]
    fn mt64_contract(seed in any::<u64>()) { check_contract::<Mt19937_64>(seed)?; }

    #[test]
    fn xorwow_contract(seed in any::<u64>()) { check_contract::<Xorwow>(seed)?; }

    #[test]
    fn mwc_contract(seed in any::<u64>()) { check_contract::<Mwc64>(seed)?; }

    #[test]
    fn md5_contract(seed in any::<u64>()) { check_contract::<Md5Rand>(seed)?; }

    #[test]
    fn philox_contract(seed in any::<u64>()) { check_contract::<Philox4x32>(seed)?; }

    #[test]
    fn splitmix_contract(seed in any::<u64>()) { check_contract::<SplitMix64>(seed)?; }

    /// Two different seeds should (overwhelmingly) give different streams.
    #[test]
    fn seeds_diverge(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let mut ra = SplitMix64::seed_from_u64(a);
        let mut rb = SplitMix64::seed_from_u64(b);
        let same = (0..32).filter(|_| ra.next_u64() == rb.next_u64()).count();
        prop_assert!(same < 2);
    }

    /// MD5 digests are stable and sensitive to every byte.
    #[test]
    fn md5_avalanche(data in prop::collection::vec(any::<u8>(), 0..200), flip in any::<usize>()) {
        let base = md5_digest(&data);
        prop_assert_eq!(base, md5_digest(&data));
        if !data.is_empty() {
            let mut mutated = data.clone();
            let idx = flip % mutated.len();
            mutated[idx] ^= 1;
            prop_assert_ne!(base, md5_digest(&mutated));
        }
    }

    /// Philox skip-ahead: setting the counter to k blocks equals consuming
    /// 4k outputs.
    #[test]
    fn philox_skip_ahead(key in any::<u64>(), blocks in 0u32..64) {
        let mut streamed = Philox4x32::new(key);
        for _ in 0..(blocks as usize * 4) {
            streamed.next_u32();
        }
        let mut jumped = Philox4x32::new(key);
        jumped.set_counter([blocks, 0, 0, 0]);
        prop_assert_eq!(streamed.next_u32(), jumped.next_u32());
    }

    /// glibc outputs always fit in 31 bits (RAND_MAX).
    #[test]
    fn glibc_range(seed in any::<u32>()) {
        let mut g = GlibcRand::new(seed);
        for _ in 0..256 {
            prop_assert!(g.next_rand() <= 0x7fff_ffff);
        }
    }

    /// Block-generated glibc equals the per-draw ring form: for any seed,
    /// 0 included, over a mix of `next_rand`, `next_u32` and `next_u64`
    /// calls spanning at least three blocks. A clone taken mid-block
    /// continues the same stream.
    #[test]
    fn glibc_blocks_equal_the_ring_form(
        seed in any::<u32>(),
        zero_seed in 0u8..4,
        ops in prop::collection::vec(0u8..3, 93..160),
        cut in any::<usize>(),
    ) {
        let seed = if zero_seed == 0 { 0 } else { seed };
        let mut block = GlibcRand::new(seed);
        let mut ring = RingGlibc::new(seed);
        let cut = cut % ops.len();
        let mut draws = 0;
        for (i, &op) in ops.iter().enumerate() {
            if i == cut {
                if draws % DEG == 0 {
                    draws += same_call(&mut block, &mut ring, 0)?;
                }
                let (mut block_clone, mut ring_clone) = (block.clone(), ring.clone());
                for &op in &ops[i..] {
                    same_call(&mut block_clone, &mut ring_clone, op)?;
                }
            }
            draws += same_call(&mut block, &mut ring, op)?;
        }
        prop_assert!(draws >= 3 * DEG);
    }
}
