//! Adapters between [`rand_core::RngCore`] generators and the expander
//! crate's [`BitSource`] interface.
//!
//! The paper's design point is that the walk consumes *cheap, low-quality*
//! bits — glibc `rand()` on the CPU — and the expander walk amplifies their
//! quality (§IV-C "our technique can be seen as improving the quality of a
//! naive random number generator"). [`RngBitSource`] turns any `RngCore`
//! into the raw-bit FEED.

use hprng_expander::bits::BitSource;
use rand_core::RngCore;

/// Uses any [`RngCore`] as a raw-bit source.
#[derive(Clone, Debug)]
pub struct RngBitSource<R: RngCore> {
    rng: R,
}

impl<R: RngCore> RngBitSource<R> {
    /// Wraps `rng`.
    pub fn new(rng: R) -> Self {
        Self { rng }
    }

    /// Consumes the adapter, returning the generator.
    pub fn into_inner(self) -> R {
        self.rng
    }
}

impl<R: RngCore> BitSource for RngBitSource<R> {
    fn fill(&mut self, buf: &mut [u64]) {
        for slot in buf {
            *slot = self.rng.next_u64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprng_baselines::SplitMix64;

    #[test]
    fn rng_bitsource_matches_generator_stream() {
        let mut src = RngBitSource::new(SplitMix64::new(1));
        let mut buf = [0u64; 4];
        src.fill(&mut buf);
        let mut reference = SplitMix64::new(1);
        for &word in &buf {
            assert_eq!(word, reference.next());
        }
    }
}
