//! The on-demand randomness contract shared by every generator in the
//! workspace.
//!
//! The paper's Algorithm 2 exposes exactly one operation to consumers:
//! `GetNextRand()`, a call that returns the next pseudo random number for
//! the calling lane without knowing the total demand in advance.  This
//! module codifies that contract as the [`OnDemandRng`] trait so the
//! applications layer (Algorithm 3 list ranking, Algorithm 4 photon
//! migration) can be written once and run over any provider:
//!
//! | rung | provider | lanes |
//! |------|----------|-------|
//! | baselines | [`ScalarRng`] around any [`rand_core::RngCore`] | 1 |
//! | host walk | [`crate::ExpanderWalkRng`] | 1 |
//! | pipeline | [`crate::pipeline::Engine`] on either backend ([`crate::HybridSession`] on the device) | `threads` |
//!
//! Parallel consumers that seed one independent lane per work item (the
//! photon-migration pattern) use [`SplitOnDemand`] instead, which hands
//! out `Send` lanes keyed by an index. [`ExpanderLanes`] is the
//! workspace's lane family; its [`ExpanderLanes::fill`] is the multicore
//! CPU variant of §IV-A, one lane per rayon chunk.

use crate::error::HprngError;
use hprng_telemetry::WordTap;
use rand_core::RngCore;
use rayon::prelude::*;

mod bits;

pub use bits::{BatchBits, BitProvider, OnDemandBits, TappedBits};

/// Algorithm 2's `GetNextRand()` contract: serve pseudo random 64-bit
/// words to consumers whose demand is not known a priori.
///
/// A provider owns `lanes()` independent streams.  [`try_next_batch_into`]
/// draws the next number from each of the first `out.len()` lanes — the
/// device discipline where every live thread calls `GetNextRand()` once
/// per round — while [`get_next_rand`] is the scalar lane-0 view used by
/// sequential consumers.
///
/// Implementations must uphold the on-demand invariant that the stream a
/// consumer observes depends only on the provider's seed and the sequence
/// of requests, never on how requests are batched by the runtime
/// (worker count, shard count, prefetch block size).
///
/// [`try_next_batch_into`]: OnDemandRng::try_next_batch_into
/// [`get_next_rand`]: OnDemandRng::get_next_rand
pub trait OnDemandRng {
    /// Short human-readable provider name for reports and benches.
    fn label(&self) -> &'static str;

    /// Number of independent lanes this provider can serve per request.
    fn lanes(&self) -> usize;

    /// Draws the next number from each of the first `out.len()` lanes.
    ///
    /// Fails with [`HprngError::EmptyRequest`] when `out` is empty and
    /// [`HprngError::BatchTooLarge`] when `out.len() > self.lanes()`.
    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError>;

    /// The scalar `GetNextRand()`: the next number from lane 0.
    ///
    /// # Panics
    ///
    /// Panics if the provider has no lanes; every constructible provider
    /// in this workspace has at least one.
    fn get_next_rand(&mut self) -> u64 {
        let mut one = [0u64];
        self.try_next_batch_into(&mut one)
            .expect("GetNextRand() needs at least one lane");
        one[0]
    }

    /// Allocating convenience over [`OnDemandRng::try_next_batch_into`].
    fn try_next_batch(&mut self, count: usize) -> Result<Vec<u64>, HprngError> {
        let mut out = vec![0u64; count];
        self.try_next_batch_into(&mut out)?;
        Ok(out)
    }

    /// Total numbers handed to consumers so far.
    fn words_served(&self) -> u64;

    /// Raw 64-bit feed words consumed from the underlying bit source, if
    /// the provider accounts for them (`None` when it does not).
    ///
    /// For expander-walk providers this is the paper's consumption rate:
    /// `words_per_number()` raw words per served number after warmup.
    fn raw_words_consumed(&self) -> Option<u64> {
        None
    }

    /// Installs a [`WordTap`] observing every served batch, returning the
    /// tap back in `Err` when the provider has no tap point.
    fn set_tap(&mut self, tap: Box<dyn WordTap>) -> Result<(), Box<dyn WordTap>> {
        Err(tap)
    }

    /// Removes and returns the installed tap, if any.
    fn take_tap(&mut self) -> Option<Box<dyn WordTap>> {
        None
    }

    /// Captures this stream's resumable identity as a
    /// [`StreamState`](crate::StreamState).
    ///
    /// The default declines with [`HprngError::CheckpointUnsupported`];
    /// providers with a positional notion of state (the expander-walk
    /// generators, the pipeline engines, pool clients) override it. Being
    /// a trait method keeps it callable on `Box<dyn OnDemandRng>` — the
    /// shape pool shard workers hold sessions in.
    fn try_checkpoint(&mut self) -> Result<crate::StreamState, HprngError> {
        Err(HprngError::CheckpointUnsupported {
            label: self.label(),
        })
    }

    /// Fast-forwards this provider onto a checkpointed
    /// [`StreamState`](crate::StreamState).
    ///
    /// Restores never rewind: call this on a freshly built provider (same
    /// seed, same parameters) and it advances to the recorded position,
    /// after which the served words are bit-identical to the uninterrupted
    /// stream. The default declines with
    /// [`HprngError::CheckpointUnsupported`].
    fn try_restore(&mut self, state: &crate::StreamState) -> Result<(), HprngError> {
        let _ = state;
        Err(HprngError::CheckpointUnsupported {
            label: self.label(),
        })
    }
}

impl<T: OnDemandRng + ?Sized> OnDemandRng for &mut T {
    fn label(&self) -> &'static str {
        (**self).label()
    }

    fn lanes(&self) -> usize {
        (**self).lanes()
    }

    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        (**self).try_next_batch_into(out)
    }

    fn get_next_rand(&mut self) -> u64 {
        (**self).get_next_rand()
    }

    fn words_served(&self) -> u64 {
        (**self).words_served()
    }

    fn raw_words_consumed(&self) -> Option<u64> {
        (**self).raw_words_consumed()
    }

    fn set_tap(&mut self, tap: Box<dyn WordTap>) -> Result<(), Box<dyn WordTap>> {
        (**self).set_tap(tap)
    }

    fn take_tap(&mut self) -> Option<Box<dyn WordTap>> {
        (**self).take_tap()
    }

    fn try_checkpoint(&mut self) -> Result<crate::StreamState, HprngError> {
        (**self).try_checkpoint()
    }

    fn try_restore(&mut self, state: &crate::StreamState) -> Result<(), HprngError> {
        (**self).try_restore(state)
    }
}

/// Single-lane adapter lifting any [`rand_core::RngCore`] generator (the
/// `hprng-baselines` crate, vendored `rand` generators, test doubles)
/// onto the [`OnDemandRng`] contract.
///
/// The served stream is exactly the generator's `next_u64` stream, so
/// wrapping an existing baseline changes no bits.
#[derive(Clone, Debug)]
pub struct ScalarRng<R: RngCore> {
    rng: R,
    label: &'static str,
    served: u64,
}

impl<R: RngCore> ScalarRng<R> {
    /// Wraps `rng` as a one-lane on-demand provider.
    pub fn new(rng: R) -> Self {
        Self::labeled(rng, "scalar")
    }

    /// Wraps `rng` with a provider name for reports.
    pub fn labeled(rng: R, label: &'static str) -> Self {
        Self {
            rng,
            label,
            served: 0,
        }
    }

    /// The wrapped generator.
    pub fn inner(&self) -> &R {
        &self.rng
    }

    /// Unwraps back into the generator.
    pub fn into_inner(self) -> R {
        self.rng
    }
}

impl<R: RngCore> OnDemandRng for ScalarRng<R> {
    fn label(&self) -> &'static str {
        self.label
    }

    fn lanes(&self) -> usize {
        1
    }

    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        match out.len() {
            0 => Err(HprngError::EmptyRequest),
            1 => {
                out[0] = self.get_next_rand();
                Ok(())
            }
            requested => Err(HprngError::BatchTooLarge {
                requested,
                available: 1,
            }),
        }
    }

    fn get_next_rand(&mut self) -> u64 {
        self.served += 1;
        self.rng.next_u64()
    }

    fn words_served(&self) -> u64 {
        self.served
    }
}

/// A seed source that can split off independent [`OnDemandRng`] lanes on
/// demand, one per parallel work item.
///
/// This is the photon-migration provisioning pattern: the simulation
/// does not know how many numbers each photon needs, so instead of one
/// shared session it derives a private lane per chunk index and lets each
/// lane serve its consumer on demand.
pub trait SplitOnDemand {
    /// The lane type handed to each parallel consumer.
    type Lane: OnDemandRng + Send;

    /// Short human-readable provider name for reports and benches.
    fn label(&self) -> &'static str;

    /// Derives the independent lane for work item `index`.
    ///
    /// Lanes for distinct indices must be decorrelated; the same
    /// `(self, index)` pair must always yield the same stream.
    fn lane(&self, index: u64) -> Self::Lane;
}

/// The workspace's default lane splitter: one [`crate::ExpanderWalkRng`]
/// per index, seeded by [`crate::seeding::lane_seed`].
///
/// This reproduces the historical per-chunk seeding of the photon
/// migration application bit-for-bit.
#[derive(Clone, Copy, Debug)]
pub struct ExpanderLanes {
    seed: u64,
}

impl ExpanderLanes {
    /// A splitter deriving every lane from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The master seed lanes are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fills `out` from `lanes` walks in parallel: the "our generator on a
    /// multicore CPU" variant of §IV-A (Figure 6), where each core runs
    /// its own walk. `out` splits into contiguous chunks of
    /// `out.len().div_ceil(lanes)` words, chunk `t` holds the first words
    /// of [`lane(t)`](SplitOnDemand::lane), and rayon fills the chunks
    /// concurrently, so the result depends on `(seed, lanes, out.len())`
    /// alone. Pass `rayon::current_num_threads()` for one walk per CPU.
    ///
    /// Fails with [`HprngError::InvalidParam`] when `lanes` is zero.
    pub fn fill(&self, out: &mut [u64], lanes: usize) -> Result<(), HprngError> {
        if lanes == 0 {
            return Err(HprngError::InvalidParam {
                field: "lanes",
                reason: "must be positive (pass rayon::current_num_threads() for one walk per CPU)",
            });
        }
        if out.is_empty() {
            return Ok(());
        }
        let chunk = out.len().div_ceil(lanes);
        out.par_chunks_mut(chunk).enumerate().for_each(|(t, span)| {
            let mut lane = self.lane(t as u64);
            for slot in span {
                *slot = lane.get_next_rand();
            }
        });
        Ok(())
    }
}

impl SplitOnDemand for ExpanderLanes {
    type Lane = crate::ExpanderWalkRng;

    fn label(&self) -> &'static str {
        "expander-lanes"
    }

    fn lane(&self, index: u64) -> Self::Lane {
        crate::ExpanderWalkRng::from_seed_u64(crate::seeding::lane_seed(self.seed, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprng_baselines::SplitMix64;

    #[test]
    fn scalar_rng_serves_the_wrapped_stream() {
        let mut reference = SplitMix64::new(7);
        let mut wrapped = ScalarRng::new(SplitMix64::new(7));
        for _ in 0..32 {
            assert_eq!(wrapped.get_next_rand(), reference.next_u64());
        }
        assert_eq!(wrapped.words_served(), 32);
        assert_eq!(wrapped.lanes(), 1);
        assert_eq!(wrapped.raw_words_consumed(), None);
    }

    #[test]
    fn scalar_rng_validates_batch_shape() {
        let mut rng = ScalarRng::new(SplitMix64::new(1));
        assert_eq!(
            rng.try_next_batch_into(&mut []),
            Err(HprngError::EmptyRequest)
        );
        assert_eq!(
            rng.try_next_batch(2),
            Err(HprngError::BatchTooLarge {
                requested: 2,
                available: 1
            })
        );
        let batch = rng.try_next_batch(1).unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn mut_reference_blanket_delegates() {
        let mut rng = ScalarRng::new(SplitMix64::new(3));
        fn draw<T: OnDemandRng>(mut provider: T) -> u64 {
            provider.get_next_rand()
        }
        let via_ref = draw(&mut rng);
        assert_eq!(via_ref, SplitMix64::new(3).next_u64());
        assert_eq!(rng.words_served(), 1);
    }

    #[test]
    fn expander_lanes_match_the_historical_per_chunk_seeding() {
        let lanes = ExpanderLanes::new(99);
        for c in [0u64, 1, 7, 1024] {
            let mut lane = lanes.lane(c);
            let mut legacy = crate::ExpanderWalkRng::from_seed_u64(
                99 ^ c.wrapping_mul(crate::seeding::GOLDEN_GAMMA),
            );
            for _ in 0..16 {
                assert_eq!(
                    OnDemandRng::get_next_rand(&mut lane),
                    legacy.get_next_rand()
                );
            }
        }
    }

    #[test]
    fn fill_is_deterministic() {
        let lanes = ExpanderLanes::new(5);
        let (mut a, mut b) = (vec![0u64; 10_000], vec![0u64; 10_000]);
        lanes.fill(&mut a, 4).unwrap();
        lanes.fill(&mut b, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fill_rejects_zero_lanes() {
        let err = ExpanderLanes::new(1).fill(&mut [0u64; 4], 0).unwrap_err();
        assert!(matches!(
            err,
            HprngError::InvalidParam { field: "lanes", .. }
        ));
    }

    #[test]
    fn fill_handles_empty_and_shorter_than_lanes_outputs() {
        let lanes = ExpanderLanes::new(1);
        lanes.fill(&mut [], 8).unwrap();
        // Three words over eight lanes: one word from each of lanes 0..3.
        let mut out = [0u64; 3];
        lanes.fill(&mut out, 8).unwrap();
        for (t, &word) in out.iter().enumerate() {
            assert_eq!(word, lanes.lane(t as u64).get_next_rand(), "lane {t}");
        }
    }

    #[test]
    fn expander_lanes_are_decorrelated() {
        let lanes = ExpanderLanes::new(5);
        let mut l0 = lanes.lane(0);
        let mut l1 = lanes.lane(1);
        let same = (0..100)
            .filter(|_| l0.get_next_rand() == l1.get_next_rand())
            .count();
        assert!(same < 3, "{same} equal words in 100");
    }
}
