//! The FEED stage: pluggable producers of raw 64-bit words.
//!
//! The paper's FEED is glibc `rand()` on the CPU (§IV-A) — two 31-bit
//! draws plus a parity draw packed into each 64-bit word. [`BitFeed`]
//! abstracts that so the pipeline can run from any deterministic word
//! source; [`GlibcFeed`] is the paper's.
//!
//! A feed is a *stream*, not a batch API: `fill` must behave as if the
//! words were drawn one at a time from a stateful sequence, so the stream
//! consumed is independent of how calls chunk it.

use crate::seeding;
use hprng_baselines::GlibcRand;

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
}
