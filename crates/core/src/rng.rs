//! [`ExpanderWalkRng`] — the single-thread on-demand generator.

use crate::bitsource::RngBitSource;
use crate::params::WalkParams;
use hprng_baselines::{GlibcRand, SplitMix64};
use hprng_expander::bits::{BitSource, TriBitReader};
use hprng_expander::{Vertex, Walk};
use rand_core::{impls, Error, RngCore, SeedableRng};

/// An on-demand pseudo random number generator driven by random walks on
/// the `2^64`-label Gabber–Galil expander.
///
/// Construction performs Algorithm 1: the walk is dropped on a start vertex
/// drawn from the raw-bit source and warmed up for
/// [`WalkParams::warmup_len`] steps. Every call to
/// [`RngCore::next_u64`] then performs Algorithm 2: walk
/// [`WalkParams::walk_len`] edges and return the destination's 64-bit
/// label.
///
/// Each instance is an independent stream — the paper's thread-safety model
/// is "one walk per thread", which in Rust becomes "one `ExpanderWalkRng`
/// per thread" (the type is `Send`, so it moves into worker threads
/// freely).
pub struct ExpanderWalkRng<S: BitSource = RngBitSource<GlibcRand>> {
    walk: Walk,
    bits: TriBitReader<S>,
    params: WalkParams,
    generated: u64,
    /// The master seed the bit source was derived from, when known.
    /// Checkpoints require it: a restored stream rebuilds the source from
    /// this seed and fast-forwards to the checkpointed chunk cursor.
    seed: Option<u64>,
}

impl ExpanderWalkRng<RngBitSource<GlibcRand>> {
    /// The paper's configuration: raw bits from glibc `rand()` seeded by
    /// `seed`, warm-up and per-number walk lengths of 64.
    pub fn from_seed_u64(seed: u64) -> Self {
        // Decorrelate the 32-bit glibc seed from the raw u64.
        let glibc_seed = SplitMix64::new(seed).next() as u32;
        let mut rng = Self::with_params(
            RngBitSource::new(GlibcRand::new(glibc_seed)),
            WalkParams::default(),
        );
        rng.seed = Some(seed);
        rng
    }

    /// Rebuilds a generator from a checkpointed [`crate::StreamState`]
    /// captured by [`ExpanderWalkRng::checkpoint`] (or by a pool shard
    /// hosting one): reconstructs the paper's configuration from
    /// `state.seed` and fast-forwards to the checkpointed position in
    /// O(chunks) via [`TriBitReader::skip_chunks`] — the walk itself is
    /// never replayed.
    pub fn resume(state: &crate::StreamState) -> Result<Self, crate::HprngError> {
        let mut rng = Self::from_seed_u64(state.seed);
        rng.restore_from(state)?;
        Ok(rng)
    }
}

impl<S: BitSource> ExpanderWalkRng<S> {
    /// Builds a generator over an arbitrary raw-bit source (Algorithm 1).
    pub fn with_params(source: S, params: WalkParams) -> Self {
        let mut bits = TriBitReader::new(source);
        // Draw the 64-bit start label: the paper uses 64 CPU random bits per
        // thread to select the start vertex. 22 chunks = 66 bits, of which
        // we keep 64.
        let mut label = 0u64;
        for i in 0..21 {
            label |= (bits.next3() as u64) << (3 * i);
        }
        label |= ((bits.next3() as u64) & 0b1) << 63;
        let mut walk = Walk::new(Vertex::unpack(label), params.sampling, params.mode);
        walk.advance(params.warmup_len, &mut bits);
        Self {
            walk,
            bits,
            params,
            generated: 0,
            seed: None,
        }
    }

    /// Captures the stream's resumable identity: the walk position and
    /// step count plus the raw-chunk cursor. Fails with
    /// [`crate::HprngError::CheckpointUnsupported`] when the generator was
    /// built over an anonymous bit source (only
    /// [`ExpanderWalkRng::from_seed_u64`] records its seed).
    pub fn checkpoint(&self) -> Result<crate::StreamState, crate::HprngError> {
        let seed = self.seed.ok_or(crate::HprngError::CheckpointUnsupported {
            label: "expander-walk",
        })?;
        let chunks = self.bits.chunks_consumed();
        Ok(crate::StreamState {
            label: "expander-walk".to_string(),
            id: 0,
            seed,
            lanes: 1,
            session_words: self.generated,
            feed_words: chunks.div_ceil(hprng_expander::bits::CHUNKS_PER_WORD as u64),
            feed_chunks: chunks,
            walks: vec![self.walk.checkpoint()],
        })
    }

    /// Fast-forwards this generator onto `state`.
    ///
    /// Restores never rewind: the target chunk cursor must be at or past
    /// the current one (a freshly built generator over the same seed
    /// always qualifies). The raw-bit cursor is advanced with
    /// [`TriBitReader::skip_chunks`] and the walk position is installed
    /// directly, so the cost is O(chunks skipped), not O(walk steps).
    pub fn restore_from(&mut self, state: &crate::StreamState) -> Result<(), crate::HprngError> {
        if state.label != "expander-walk" {
            return Err(crate::HprngError::RestoreMismatch {
                field: "label",
                reason: "state was not captured from an expander-walk provider",
            });
        }
        if let Some(seed) = self.seed {
            if seed != state.seed {
                return Err(crate::HprngError::RestoreMismatch {
                    field: "seed",
                    reason: "state belongs to a different seed",
                });
            }
        }
        if state.lanes != 1 {
            return Err(crate::HprngError::RestoreMismatch {
                field: "lanes",
                reason: "expander-walk providers are single-lane",
            });
        }
        let walk = match state.walks.as_slice() {
            [walk] => *walk,
            _ => {
                return Err(crate::HprngError::RestoreMismatch {
                    field: "walks",
                    reason: "expected exactly one walk position",
                })
            }
        };
        let cursor = self.bits.chunks_consumed();
        if state.feed_chunks < cursor {
            return Err(crate::HprngError::RestoreMismatch {
                field: "feed_chunks",
                reason: "cannot rewind a live bit source; restore onto a fresh generator",
            });
        }
        self.bits.skip_chunks(state.feed_chunks - cursor);
        self.walk.restore(walk);
        self.generated = state.session_words;
        Ok(())
    }

    /// The walk parameters in use.
    pub fn params(&self) -> WalkParams {
        self.params
    }

    /// Numbers generated so far.
    pub fn numbers_generated(&self) -> u64 {
        self.generated
    }

    /// Raw 3-bit chunks consumed so far (warm-up included).
    pub fn chunks_consumed(&self) -> u64 {
        self.bits.chunks_consumed()
    }

    /// Algorithm 2: performs one walk of length `walk_len` and returns the
    /// destination label.
    #[inline]
    pub fn get_next_rand(&mut self) -> u64 {
        self.generated += 1;
        self.walk
            .advance(self.params.walk_len, &mut self.bits)
            .pack()
    }

    /// The current walk position without advancing (diagnostics).
    pub fn position(&self) -> Vertex {
        self.walk.position()
    }
}

impl<S: BitSource> RngCore for ExpanderWalkRng<S> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        // The x coordinate: the high word of the label.
        (self.get_next_rand() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.get_next_rand()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        impls::fill_bytes_via_next(self, dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<S: BitSource> crate::ondemand::OnDemandRng for ExpanderWalkRng<S> {
    fn label(&self) -> &'static str {
        "expander-walk"
    }

    fn lanes(&self) -> usize {
        1
    }

    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), crate::HprngError> {
        match out.len() {
            0 => Err(crate::HprngError::EmptyRequest),
            1 => {
                out[0] = self.get_next_rand();
                Ok(())
            }
            requested => Err(crate::HprngError::BatchTooLarge {
                requested,
                available: 1,
            }),
        }
    }

    fn get_next_rand(&mut self) -> u64 {
        ExpanderWalkRng::get_next_rand(self)
    }

    fn words_served(&self) -> u64 {
        self.generated
    }

    fn raw_words_consumed(&self) -> Option<u64> {
        Some(
            self.bits
                .chunks_consumed()
                .div_ceil(hprng_expander::bits::CHUNKS_PER_WORD as u64),
        )
    }

    fn try_checkpoint(&mut self) -> Result<crate::StreamState, crate::HprngError> {
        ExpanderWalkRng::checkpoint(self)
    }

    fn try_restore(&mut self, state: &crate::StreamState) -> Result<(), crate::HprngError> {
        self.restore_from(state)
    }
}

impl SeedableRng for ExpanderWalkRng<RngBitSource<GlibcRand>> {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::from_seed_u64(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        Self::from_seed_u64(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprng_baselines::SplitMix64;
    use hprng_expander::{NeighborSampling, WalkMode};

    #[test]
    fn deterministic_per_seed() {
        let mut a = ExpanderWalkRng::from_seed_u64(42);
        let mut b = ExpanderWalkRng::from_seed_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ExpanderWalkRng::from_seed_u64(1);
        let mut b = ExpanderWalkRng::from_seed_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn warmup_consumes_expected_chunks() {
        let rng = ExpanderWalkRng::from_seed_u64(9);
        // 22 chunks for the start label + 64 warm-up steps (mask policy:
        // exactly one chunk per step).
        assert_eq!(rng.chunks_consumed(), 22 + 64);
    }

    #[test]
    fn each_number_costs_walk_len_chunks() {
        let mut rng = ExpanderWalkRng::from_seed_u64(9);
        let before = rng.chunks_consumed();
        rng.next_u64();
        assert_eq!(rng.chunks_consumed() - before, 64);
        assert_eq!(rng.numbers_generated(), 1);
    }

    #[test]
    fn custom_walk_length_respected() {
        let params = WalkParams {
            walk_len: 16,
            warmup_len: 8,
            sampling: NeighborSampling::MaskWithSelfLoop,
            mode: WalkMode::Directed,
        };
        let mut rng = ExpanderWalkRng::with_params(RngBitSource::new(SplitMix64::new(5)), params);
        let before = rng.chunks_consumed();
        rng.next_u64();
        assert_eq!(rng.chunks_consumed() - before, 16);
    }

    #[test]
    fn output_is_current_walk_position() {
        let mut rng = ExpanderWalkRng::from_seed_u64(3);
        let out = rng.get_next_rand();
        assert_eq!(out, rng.position().pack());
    }

    #[test]
    fn next_u32_is_high_word() {
        let mut a = ExpanderWalkRng::from_seed_u64(11);
        let mut b = ExpanderWalkRng::from_seed_u64(11);
        assert_eq!(a.next_u32(), (b.next_u64() >> 32) as u32);
    }

    #[test]
    fn outputs_look_nondegenerate() {
        // Cheap smoke check: over 10k outputs, the four 16-bit fields should
        // each take many distinct values (the full batteries live in
        // hprng-stattests).
        let mut rng = ExpanderWalkRng::from_seed_u64(1234);
        let mut seen = [
            std::collections::HashSet::new(),
            Default::default(),
            Default::default(),
            Default::default(),
        ];
        for _ in 0..10_000 {
            let v = rng.next_u64();
            for (f, set) in seen.iter_mut().enumerate() {
                set.insert((v >> (16 * f)) as u16);
            }
        }
        for set in &seen {
            assert!(set.len() > 5_000, "field too concentrated: {}", set.len());
        }
    }

    #[test]
    fn seedable_rng_impl_matches_from_seed_u64() {
        let mut a: ExpanderWalkRng = SeedableRng::seed_from_u64(77);
        let mut b = ExpanderWalkRng::from_seed_u64(77);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        let mut original = ExpanderWalkRng::from_seed_u64(4242);
        for _ in 0..137 {
            original.get_next_rand();
        }
        let state = original.checkpoint().unwrap();
        assert_eq!(state.session_words, 137);
        let mut resumed = ExpanderWalkRng::resume(&state).unwrap();
        for i in 0..200 {
            assert_eq!(
                resumed.get_next_rand(),
                original.get_next_rand(),
                "word {i}"
            );
        }
        assert_eq!(resumed.numbers_generated(), original.numbers_generated());
        assert_eq!(resumed.chunks_consumed(), original.chunks_consumed());
    }

    #[test]
    fn checkpoint_survives_the_json_round_trip() {
        let mut original = ExpanderWalkRng::from_seed_u64(99);
        for _ in 0..10 {
            original.get_next_rand();
        }
        let json = original.checkpoint().unwrap().to_json();
        let state = crate::StreamState::from_json(&json).unwrap();
        let mut resumed = ExpanderWalkRng::resume(&state).unwrap();
        for _ in 0..50 {
            assert_eq!(resumed.get_next_rand(), original.get_next_rand());
        }
    }

    #[test]
    fn restore_rejects_foreign_and_rewound_states() {
        let mut a = ExpanderWalkRng::from_seed_u64(1);
        a.get_next_rand();
        let state = a.checkpoint().unwrap();

        // Wrong seed.
        let mut other = ExpanderWalkRng::from_seed_u64(2);
        assert_eq!(
            other.restore_from(&state),
            Err(crate::HprngError::RestoreMismatch {
                field: "seed",
                reason: "state belongs to a different seed",
            })
        );

        // Rewinding a generator that is already past the checkpoint.
        let mut ahead = ExpanderWalkRng::from_seed_u64(1);
        for _ in 0..5 {
            ahead.get_next_rand();
        }
        assert!(matches!(
            ahead.restore_from(&state),
            Err(crate::HprngError::RestoreMismatch {
                field: "feed_chunks",
                ..
            })
        ));
    }

    #[test]
    fn anonymous_sources_decline_checkpoints() {
        use crate::ondemand::OnDemandRng;
        let mut rng = ExpanderWalkRng::with_params(
            RngBitSource::new(SplitMix64::new(5)),
            WalkParams::default(),
        );
        assert_eq!(
            rng.try_checkpoint(),
            Err(crate::HprngError::CheckpointUnsupported {
                label: "expander-walk",
            })
        );
    }

    #[test]
    fn checkpoint_via_boxed_dyn_trait_object_works() {
        use crate::ondemand::OnDemandRng;
        let mut boxed: Box<dyn OnDemandRng + Send> = Box::new(ExpanderWalkRng::from_seed_u64(8));
        for _ in 0..3 {
            boxed.get_next_rand();
        }
        let state = boxed.try_checkpoint().unwrap();
        let mut resumed: Box<dyn OnDemandRng + Send> = Box::new(ExpanderWalkRng::from_seed_u64(8));
        resumed.try_restore(&state).unwrap();
        for _ in 0..20 {
            assert_eq!(resumed.get_next_rand(), boxed.get_next_rand());
        }
    }
}
