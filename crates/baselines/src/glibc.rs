//! A faithful reimplementation of glibc's `rand()`.
//!
//! The paper seeds its GPU walks with raw bits from `glibc rand()` (the
//! "LCG present in the glibc library", §III-B) and uses `rand()` as the
//! CPU-side comparison point in Table I, Table II and Figure 6. glibc's
//! default `rand()` is **not** actually a plain LCG: for the default 128-byte
//! state it is the TYPE_3 *additive feedback* generator
//!
//! ```text
//! r[i] = (r[i-3] + r[i-31]) mod 2^32,   output = r[i] >> 1
//! ```
//!
//! seeded from a Lehmer LCG and warmed up by discarding 310 outputs.
//! [`GlibcRand`] is that generator alone, bit-exact against glibc (see the
//! known-answer tests); it feeds every scalar walk lane, so its draw path
//! carries no other variant. The legacy TYPE_0 LCG, which only the
//! quality tables and a known-bad monitor reference stream run, is its own
//! type, [`GlibcLcg`].
//!
//! glibc draws TYPE_3 from a ring: each `rand()` adds two table entries
//! and wraps two ring indices. We generate it in blocks instead. The
//! 31-word lag table is kept in chronological order (`t[0]` oldest), so
//! one block step replaces all 31 values with the next 31 of the
//! sequence in place, without indices to wrap:
//!
//! ```text
//! t[i] += t[28 + i]   for i < 3        (lag 3 reaches back into the old block)
//! t[i] += t[i - 3]    for 3 <= i < 31  (lag 3 reaches a value just written)
//! ```
//!
//! and a draw is `t[pos] >> 1`. Right after seeding the table is glibc's
//! array rotated left by 3, because glibc overwrites `r[3], …, r[30], r[0],
//! r[1], r[2]` in that order. The 310-draw warm-up is exactly ten blocks,
//! after which the cursor sits at the end of the table, so the first draw
//! starts block eleven. Every draw equals glibc's.

use rand_core::{impls, Error, RngCore, SeedableRng};

const DEG: usize = 31;
const SEP: usize = 3;

/// glibc's `rand()`, bit-exact: the TYPE_3 additive feedback generator.
///
/// [`RngCore::next_u32`] composes two 31-bit draws (glibc outputs are in
/// `0..2^31`), which is how applications that need full words consume
/// `rand()` in practice; [`GlibcRand::next_rand`] exposes the raw 31-bit
/// sequence for known-answer comparisons.
#[derive(Clone, Debug)]
pub struct GlibcRand {
    /// Lag table in chronological order: `table[0]` is the oldest of the
    /// last 31 values, `table[30]` the newest.
    table: [u32; DEG],
    /// Index of the next draw in `table`; `DEG` once the block is spent.
    pos: usize,
}

impl GlibcRand {
    /// Equivalent of `srand(seed)`.
    pub fn new(seed: u32) -> Self {
        // glibc maps seed 0 to 1.
        let seed = if seed == 0 { 1 } else { seed };
        let mut state = [0u32; DEG];
        state[0] = seed;
        // Lehmer LCG `16807 * s mod (2^31 - 1)` via Schrage's method, exactly
        // as glibc's __initstate_r does (including the negative-word fixup).
        for i in 1..DEG {
            let prev = state[i - 1] as i64;
            let hi = prev / 127_773;
            let lo = prev % 127_773;
            let mut word = 16_807 * lo - 2_836 * hi;
            if word < 0 {
                word += 2_147_483_647;
            }
            state[i] = word as u32;
        }
        // glibc's first draw overwrites `state[SEP]`, so the chronological
        // table starts there.
        state.rotate_left(SEP);
        let mut g = Self {
            table: state,
            pos: DEG,
        };
        // glibc discards 310 draws: ten whole blocks. The cursor stays at
        // the end, so the first draw runs block eleven.
        for _ in 0..10 {
            g.next_block();
        }
        g
    }

    /// Replaces the 31 table values with the next 31 of the sequence
    /// (`r[i] = r[i-31] + r[i-3]`), oldest first (outlined: runs once per
    /// 31 draws, and keeps [`GlibcRand::next_rand`] small enough to
    /// inline).
    #[cold]
    fn next_block(&mut self) {
        let t = &mut self.table;
        for i in 0..SEP {
            t[i] = t[i].wrapping_add(t[DEG - SEP + i]);
        }
        for i in SEP..DEG {
            t[i] = t[i].wrapping_add(t[i - SEP]);
        }
    }

    /// One call to `rand()`: a value in `0 ..= RAND_MAX` (`2^31 - 1`).
    #[inline]
    pub fn next_rand(&mut self) -> u32 {
        if self.pos == DEG {
            self.next_block();
            self.pos = 0;
        }
        let val = self.table[self.pos];
        self.pos += 1;
        val >> 1
    }
}

impl RngCore for GlibcRand {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        // Two 31-bit draws: high 16 bits of each are the best bits glibc
        // offers.
        let a = self.next_rand();
        let b = self.next_rand();
        ((a >> 15) << 16) | (b >> 15)
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        impls::fill_bytes_via_next(self, dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for GlibcRand {
    type Seed = [u8; 4];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::new(u32::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::new(state as u32 ^ (state >> 32) as u32)
    }
}

/// glibc's legacy TYPE_0 `rand()`: the linear congruential generator
/// `state = state * 1103515245 + 12345 mod 2^31`, bit-exact.
///
/// glibc runs it only when `initstate` is given fewer than 32 bytes of
/// state. Its lowest bit alternates with period 2: the quality tables run
/// it as a comparison row, and the monitor packs its low bits into a
/// known-bad reference stream.
#[derive(Clone, Debug)]
pub struct GlibcLcg {
    state: u32,
}

impl GlibcLcg {
    /// Equivalent of `srand(seed)` for the TYPE_0 state (seed 0 becomes 1,
    /// as in glibc).
    pub fn new(seed: u32) -> Self {
        Self {
            state: if seed == 0 { 1 } else { seed },
        }
    }

    /// One call to `rand()`: a value in `0 ..= RAND_MAX` (`2^31 - 1`).
    #[inline]
    pub fn next_rand(&mut self) -> u32 {
        self.state = self.state.wrapping_mul(1_103_515_245).wrapping_add(12_345) & 0x7fff_ffff;
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_seed_1() {
        // The famous glibc sequence for srand(1) — verifiable with any Linux
        // C compiler: 1804289383, 846930886, 1681692777, 1714636915, ...
        let mut g = GlibcRand::new(1);
        let got: Vec<u32> = (0..8).map(|_| g.next_rand()).collect();
        assert_eq!(
            got,
            vec![
                1_804_289_383,
                846_930_886,
                1_681_692_777,
                1_714_636_915,
                1_957_747_793,
                424_238_335,
                719_885_386,
                1_649_760_492,
            ]
        );
    }

    #[test]
    fn known_answer_seed_42() {
        // glibc srand(42): 71876166, 708592740, 1483128881, ...
        let mut g = GlibcRand::new(42);
        assert_eq!(g.next_rand(), 71_876_166);
        assert_eq!(g.next_rand(), 708_592_740);
        assert_eq!(g.next_rand(), 1_483_128_881);
    }

    #[test]
    fn seed_zero_behaves_like_seed_one() {
        let mut a = GlibcRand::new(0);
        let mut b = GlibcRand::new(1);
        for _ in 0..16 {
            assert_eq!(a.next_rand(), b.next_rand());
        }
    }

    #[test]
    fn lcg_seed_zero_behaves_like_seed_one() {
        let mut a = GlibcLcg::new(0);
        let mut b = GlibcLcg::new(1);
        for _ in 0..16 {
            assert_eq!(a.next_rand(), b.next_rand());
        }
    }

    #[test]
    fn lcg_variant_known_answer() {
        // TYPE_0: seed 1 → first output 1103527590 (1*1103515245 + 12345).
        let mut g = GlibcLcg::new(1);
        assert_eq!(g.next_rand(), 1_103_527_590);
        // Second output: (1103527590 * 1103515245 + 12345) mod 2^31.
        assert_eq!(g.next_rand(), 377_401_575);
    }

    #[test]
    fn outputs_fit_in_31_bits() {
        let mut g = GlibcRand::new(7);
        for _ in 0..1000 {
            assert!(g.next_rand() <= 0x7fff_ffff);
        }
        let mut l = GlibcLcg::new(7);
        for _ in 0..1000 {
            assert!(l.next_rand() <= 0x7fff_ffff);
        }
    }

    #[test]
    fn lcg_low_bit_alternates() {
        // The classic TYPE_0 defect the paper alludes to when ranking
        // glibc's quality last: the LCG's lowest bit is periodic with a tiny
        // period (it alternates).
        let mut g = GlibcLcg::new(123);
        let bits: Vec<u32> = (0..16).map(|_| g.next_rand() & 1).collect();
        for w in bits.windows(2) {
            assert_ne!(w[0], w[1], "TYPE_0 low bit should alternate");
        }
    }

    #[test]
    fn rngcore_next_u32_uses_full_range_bits() {
        let mut g = GlibcRand::new(3);
        // Make sure high bits are populated (would all be 0 if we naively
        // returned 31-bit values).
        let any_high = (0..100).any(|_| g.next_u32() & 0x8000_0000 != 0);
        assert!(any_high);
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = GlibcRand::new(9);
        for _ in 0..37 {
            a.next_rand();
        }
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_rand(), b.next_rand());
        }
    }
}
