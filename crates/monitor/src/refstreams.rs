//! Known-bad reference streams for sentinel self-validation.
//!
//! A monitor that never fires is indistinguishable from one that cannot
//! fire, so both the test suite and the `repro monitor` CLI exercise the
//! sentinels against streams with *known* pathologies:
//!
//! * [`ConstantStream`] — the degenerate stream (a stuck generator or a
//!   zero-seeded state that never mixes). Monobit, byte entropy and the
//!   clash detector must all fire.
//! * [`GlibcLowBits`] — 64 successive low-order bits of glibc's TYPE_0
//!   LCG packed per word. The classic textbook pathology: the low bit of
//!   `state = state·1103515245 + 12345 mod 2³¹` alternates with period
//!   2, so words are `0xAAAA…`/`0x5555…` and the serial-correlation and
//!   runs sentinels must fire.
//!
//! Healthy counterparts for the same harness are `hprng-core`'s
//! expander-walk generator and `hprng-baselines`' MT19937-64, which must
//! stay silent.

use hprng_baselines::GlibcLcg;

/// A stream producing one fixed word forever.
#[derive(Clone, Debug)]
pub struct ConstantStream {
    word: u64,
}

impl ConstantStream {
    /// A stream stuck on `word`.
    pub fn new(word: u64) -> Self {
        Self { word }
    }

    /// The next (identical) word.
    pub fn next_word(&mut self) -> u64 {
        self.word
    }
}

/// 64 successive low-order bits of glibc's TYPE_0 LCG per output word,
/// LSB first.
#[derive(Clone, Debug)]
pub struct GlibcLowBits {
    rng: GlibcLcg,
}

impl GlibcLowBits {
    /// Seeds the underlying LCG.
    pub fn new(seed: u32) -> Self {
        Self {
            rng: GlibcLcg::new(seed),
        }
    }

    /// Packs the next 64 low bits into one word.
    pub fn next_word(&mut self) -> u64 {
        let mut w = 0u64;
        for i in 0..64 {
            w |= ((self.rng.next_rand() & 1) as u64) << i;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glibc_low_bits_alternate_with_period_two() {
        let mut s = GlibcLowBits::new(12345);
        let w = s.next_word();
        // The low bit of the TYPE_0 LCG alternates every draw, so packed
        // words are all-alternating bit patterns.
        assert!(
            w == 0xAAAA_AAAA_AAAA_AAAA || w == 0x5555_5555_5555_5555,
            "unexpected word {w:#018x}"
        );
        assert_eq!(s.next_word(), w, "pattern is stable across words");
    }

    #[test]
    fn constant_stream_is_constant() {
        let mut s = ConstantStream::new(7);
        assert_eq!(s.next_word(), 7);
        assert_eq!(s.next_word(), 7);
    }
}
