//! The FEED stage: pluggable producers of raw 64-bit words.
//!
//! The paper's FEED is glibc `rand()` on the CPU (§IV-A) — two 31-bit
//! draws plus a parity draw packed into each 64-bit word. [`BitFeed`]
//! abstracts that so the pipeline can run from any deterministic word
//! source: the classic [`GlibcFeed`], a [`SplitMixFeed`], or any
//! [`RngCore`] generator via [`RngFeed`].
//!
//! A feed is a *stream*, not a batch API: `fill` must behave as if the
//! words were drawn one at a time from a stateful sequence, so the stream
//! consumed is independent of how calls chunk it.

use crate::seeding;
use hprng_baselines::{GlibcRand, SplitMix64};
use rand_core::RngCore;

/// A deterministic producer of raw 64-bit words for the FEED stage.
///
/// `Send + 'static` because an engine owns its feed and engines move
/// between threads: the `hprng-pool` shard workers each own the engines
/// of their clients' sessions.
pub trait BitFeed: Send + 'static {
    /// Fills `buf` with the next `buf.len()` words of the stream.
    fn fill(&mut self, buf: &mut [u64]);

    /// Human-readable name for traces and benches.
    fn label(&self) -> &'static str {
        "bitfeed"
    }

    /// The 64-bit master seed this feed's stream is a pure function of,
    /// when the feed knows it (`None` otherwise). Engines put it in their
    /// [`crate::StreamState`] checkpoints, which then carry everything
    /// needed to rebuild the feed on restore.
    fn master_seed(&self) -> Option<u64> {
        None
    }
}

/// The paper's FEED: glibc `rand()`, two 31-bit values and a parity draw
/// per 64-bit word.
pub struct GlibcFeed {
    rng: GlibcRand,
    master_seed: Option<u64>,
}

impl GlibcFeed {
    /// A feed over an explicit 32-bit glibc seed.
    pub fn new(glibc_seed: u32) -> Self {
        Self {
            rng: GlibcRand::new(glibc_seed),
            master_seed: None,
        }
    }

    /// The hybrid pipeline's canonical derivation: the glibc seed is
    /// [`seeding::feed_seed`] of the 64-bit master seed.
    pub fn from_master_seed(seed: u64) -> Self {
        Self {
            rng: GlibcRand::new(seeding::feed_seed(seed)),
            master_seed: Some(seed),
        }
    }
}

impl BitFeed for GlibcFeed {
    fn fill(&mut self, buf: &mut [u64]) {
        for slot in buf.iter_mut() {
            // Two 31-bit rand() values and a parity draw give 64 bits; this
            // is the real data path (quality matters downstream), while the
            // simulated cost is the calibrated per-word constant.
            let hi = self.rng.next_rand() as u64;
            let lo = self.rng.next_rand() as u64;
            let top = self.rng.next_rand() as u64;
            *slot = (top & 0b11) << 62 | hi << 31 | lo;
        }
    }

    fn label(&self) -> &'static str {
        "glibc"
    }

    fn master_seed(&self) -> Option<u64> {
        self.master_seed
    }
}

/// A SplitMix64 feed: one mixer step per word. Faster and better
/// distributed than glibc — the ablation feed.
pub struct SplitMixFeed {
    rng: SplitMix64,
    seed: u64,
}

impl SplitMixFeed {
    /// A feed seeded directly with the 64-bit master seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            seed,
        }
    }
}

impl BitFeed for SplitMixFeed {
    fn fill(&mut self, buf: &mut [u64]) {
        for slot in buf.iter_mut() {
            *slot = self.rng.next();
        }
    }

    fn label(&self) -> &'static str {
        "splitmix64"
    }

    fn master_seed(&self) -> Option<u64> {
        Some(self.seed)
    }
}

/// Adapts any [`RngCore`] generator into a [`BitFeed`], one `next_u64` per
/// word.
pub struct RngFeed<R> {
    rng: R,
}

impl<R: RngCore + Send + 'static> RngFeed<R> {
    /// Wraps a generator.
    pub fn new(rng: R) -> Self {
        Self { rng }
    }
}

impl<R: RngCore + Send + 'static> BitFeed for RngFeed<R> {
    fn fill(&mut self, buf: &mut [u64]) {
        for slot in buf.iter_mut() {
            *slot = self.rng.next_u64();
        }
    }

    fn label(&self) -> &'static str {
        "rng-core"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glibc_feed_is_chunking_invariant() {
        // One fill of 64 vs many small fills: identical stream.
        let mut all = vec![0u64; 64];
        GlibcFeed::from_master_seed(42).fill(&mut all);
        let mut feed = GlibcFeed::from_master_seed(42);
        let mut pieces = Vec::new();
        for take in [1usize, 2, 5, 13, 43] {
            let mut chunk = vec![0u64; take];
            feed.fill(&mut chunk);
            pieces.extend_from_slice(&chunk);
        }
        assert_eq!(all, pieces);
    }

    #[test]
    fn glibc_feed_matches_legacy_session_packing() {
        // The packing must stay bit-identical to what HybridSession::feed
        // always did: (top & 0b11) << 62 | hi << 31 | lo.
        let mut rng = GlibcRand::new(seeding::feed_seed(7));
        let mut expected = vec![0u64; 16];
        for slot in expected.iter_mut() {
            let hi = rng.next_rand() as u64;
            let lo = rng.next_rand() as u64;
            let top = rng.next_rand() as u64;
            *slot = (top & 0b11) << 62 | hi << 31 | lo;
        }
        let mut got = vec![0u64; 16];
        GlibcFeed::from_master_seed(7).fill(&mut got);
        assert_eq!(expected, got);
    }

    #[test]
    fn rng_feed_wraps_any_rngcore() {
        let mut direct = SplitMix64::new(5);
        let mut feed = RngFeed::new(SplitMix64::new(5));
        let mut buf = vec![0u64; 8];
        feed.fill(&mut buf);
        for &w in &buf {
            assert_eq!(w, direct.next());
        }
        assert_eq!(feed.label(), "rng-core");
    }

    #[test]
    fn splitmix_feed_matches_reference_stream() {
        let mut feed = SplitMixFeed::new(0);
        let mut buf = vec![0u64; 2];
        feed.fill(&mut buf);
        assert_eq!(buf[0], 0xE220_A839_7B1D_CDAF);
        assert_eq!(buf[1], 0x6E78_9E6A_A1B9_65F4);
    }
}
