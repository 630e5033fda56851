//! The full hybrid pipeline: Algorithms 1 and 2 on the simulated device.
//!
//! Work-unit mapping (§IV-A): FEED (raw-bit production with glibc `rand()`)
//! runs on the CPU, GENERATE (walk advancement) runs on the GPU, and
//! TRANSFER ships bit batches over PCIe. The [`Engine`] fills each batch's
//! bits inline and advances the walks on the host; [`DeviceBackend`]
//! charges the stages to the simulated device from their counts. It
//! charges FEED to its own simulated CPU clock
//! ([`crate::pipeline::Backend::record_feed`]) and opens one
//! [`hprng_gpu_sim::Stream`] per call, whose transfer waits only for the
//! FEED it carries and whose kernel charge follows it. So on the simulated
//! timeline the CPU feeds iteration `k+1` while the GPU walks iteration
//! `k`. The [`PipelineStats`] and the device timeline reproduce Figure 4
//! (overlap and idle fractions) and Figure 5 (batch-size sweep).
//!
//! This module is the ergonomic front door: [`HybridPrng`] owns the device
//! and opens [`HybridSession`]s, each an [`Engine`] on the
//! [`DeviceBackend`]. The stage components themselves live in
//! [`crate::pipeline`].

use crate::error::HprngError;
use crate::params::HybridParams;
use crate::pipeline::{DeviceBackend, Engine, GlibcFeed};
use hprng_gpu_sim::{Device, DeviceConfig, Timeline};

pub use crate::pipeline::PipelineStats;

/// An initialized on-demand generation session (the expander graph `G` of
/// Algorithms 2 and 3, with one walk per device thread): the pipeline
/// [`Engine`] on the simulated-device backend.
pub type HybridSession<'a> = Engine<DeviceBackend<'a>>;

/// The hybrid generator. Owns a simulated device; create one per
/// experiment.
pub struct HybridPrng {
    device: Device,
    params: HybridParams,
    seed: u64,
}

impl HybridPrng {
    /// Brings up the generator on a device of the given configuration.
    pub fn new(config: DeviceConfig, params: HybridParams, seed: u64) -> Self {
        Self {
            device: Device::new(config),
            params,
            seed,
        }
    }

    /// The paper's platform: a simulated Tesla C1060 with default
    /// parameters.
    pub fn tesla(seed: u64) -> Self {
        Self::new(DeviceConfig::tesla_c1060(), HybridParams::default(), seed)
    }

    /// The device (for timeline inspection).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The pipeline parameters.
    pub fn params(&self) -> &HybridParams {
        &self.params
    }

    /// Opens an on-demand session with `threads` walks
    /// (Algorithm 1 runs here). The session then serves any number of
    /// [`Engine::try_next_batch`] calls — the quantity of randomness never
    /// has to be declared up front.
    ///
    /// Returns [`HprngError::EmptySession`] when `threads` is zero.
    pub fn try_session(&mut self, threads: usize) -> Result<HybridSession<'_>, HprngError> {
        let mut session = self.open();
        session.initialize(threads)?;
        Ok(session)
    }

    /// Reopens a session from a [`crate::StreamState`] checkpoint captured
    /// by [`Engine::checkpoint`]: Algorithm 1 re-runs, then the request
    /// history is replayed and verified so the resumed session's streams
    /// continue bit-identically from the checkpointed position.
    ///
    /// The prng's seed must match the one the state was captured under;
    /// mismatches fail with [`HprngError::RestoreMismatch`].
    pub fn try_resume_session(
        &mut self,
        state: &crate::StreamState,
    ) -> Result<HybridSession<'_>, HprngError> {
        let mut session = self.open();
        session.restore_from(state)?;
        Ok(session)
    }

    /// A fresh, uninitialized session on a reset device timeline.
    fn open(&mut self) -> HybridSession<'_> {
        self.device.reset_timeline();
        let backend = DeviceBackend::new(&self.device, self.params);
        Engine::new(backend, Box::new(GlibcFeed::from_master_seed(self.seed)))
    }

    /// Bulk generation (Figure 3's workload): produces exactly `n` numbers
    /// using `ceil(n / S)` threads generating `S` numbers each.
    ///
    /// Returns [`HprngError::EmptyRequest`] when `n` is zero.
    pub fn try_generate(&mut self, n: usize) -> Result<(Vec<u64>, PipelineStats), HprngError> {
        if n == 0 {
            return Err(HprngError::EmptyRequest);
        }
        let s = self.params.batch_size as usize;
        let threads = n.div_ceil(s);
        let mut session = self.try_session(threads)?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let take = (n - out.len()).min(threads);
            out.extend_from_slice(&session.try_next_batch(take)?);
        }
        let stats = session.stats();
        Ok((out, stats))
    }
}

impl<'a> Engine<DeviceBackend<'a>> {
    /// The device the session runs on — applications charge their own
    /// kernels here, through a [`hprng_gpu_sim::Stream`], so that their
    /// work shares the session's timeline (Algorithm 3 interleaves ranking
    /// kernels with GetNextRand batches).
    pub fn device(&self) -> &'a Device {
        self.backend().device()
    }

    /// The device timeline (Figure 4's raw material).
    pub fn timeline(&self) -> Timeline {
        self.device().timeline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprng_gpu_sim::{DeviceConfig, WorkUnit};

    fn tiny_prng(seed: u64) -> HybridPrng {
        HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), seed)
    }

    #[test]
    fn generates_requested_count() {
        let mut prng = tiny_prng(1);
        let (nums, stats) = prng.try_generate(1234).unwrap();
        assert_eq!(nums.len(), 1234);
        assert_eq!(stats.numbers, 1234);
        assert!(stats.sim_ns > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = tiny_prng(42).try_generate(500).unwrap();
        let (b, _) = tiny_prng(42).try_generate(500).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = tiny_prng(1).try_generate(500).unwrap();
        let (b, _) = tiny_prng(2).try_generate(500).unwrap();
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 5);
    }

    #[test]
    fn sim_time_is_deterministic() {
        let (_, s1) = tiny_prng(7).try_generate(1000).unwrap();
        let (_, s2) = tiny_prng(7).try_generate(1000).unwrap();
        assert_eq!(s1.sim_ns, s2.sim_ns);
        assert_eq!(s1.feed_words, s2.feed_words);
        assert_eq!(s1.iterations, s2.iterations);
    }

    #[test]
    fn on_demand_batches_can_vary() {
        let mut prng = tiny_prng(3);
        let mut session = prng.try_session(64).unwrap();
        let a = session.try_next_batch(64).unwrap();
        let b = session.try_next_batch(10).unwrap(); // demand not known a priori
        let c = session.try_next_batch(33).unwrap();
        assert_eq!(a.len(), 64);
        assert_eq!(b.len(), 10);
        assert_eq!(c.len(), 33);
        assert_eq!(session.stats().numbers, 107);
    }

    #[test]
    fn feed_volume_matches_demand() {
        // 64 threads × (1 start word + 4 warm-up words) init, plus one
        // batch of 64 numbers × 4 words each.
        let mut prng = tiny_prng(5);
        let mut session = prng.try_session(64).unwrap();
        session.try_next_batch(64).unwrap();
        let stats = session.stats();
        assert_eq!(stats.feed_words, 64 * 5 + 64 * 4);
    }

    #[test]
    fn pipeline_iterations_counted() {
        let mut prng = tiny_prng(5);
        let mut session = prng.try_session(16).unwrap();
        session.try_next_batch(16).unwrap();
        session.try_next_batch(16).unwrap();
        assert_eq!(session.stats().iterations, 3); // init + 2 batches
    }

    #[test]
    fn timeline_contains_all_three_work_units() {
        let mut prng = tiny_prng(5);
        let mut session = prng.try_session(32).unwrap();
        session.try_next_batch(32).unwrap();
        let tl = session.timeline();
        assert!(tl.unit_total_ns(WorkUnit::Feed) > 0.0);
        assert!(tl.unit_total_ns(WorkUnit::Transfer) > 0.0);
        assert!(tl.unit_total_ns(WorkUnit::Generate) > 0.0);
    }

    #[test]
    fn walk_states_advance_between_batches() {
        let mut prng = tiny_prng(5);
        let mut session = prng.try_session(8).unwrap();
        let a = session.try_next_batch(8).unwrap();
        let b = session.try_next_batch(8).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn busy_fractions_are_sane() {
        let mut prng = tiny_prng(9);
        let (_, stats) = prng.try_generate(2000).unwrap();
        assert!(stats.cpu_busy > 0.0 && stats.cpu_busy <= 1.0);
        assert!(stats.gpu_busy > 0.0 && stats.gpu_busy <= 1.0);
    }

    #[test]
    fn try_session_rejects_zero_threads() {
        let mut prng = tiny_prng(1);
        let err = prng.try_session(0).err().expect("zero threads must fail");
        assert_eq!(err, HprngError::EmptySession);
    }

    #[test]
    fn try_generate_rejects_zero_numbers() {
        let mut prng = tiny_prng(1);
        assert_eq!(prng.try_generate(0).unwrap_err(), HprngError::EmptyRequest);
    }

    #[test]
    fn try_next_batch_reports_oversized_batches() {
        let mut prng = tiny_prng(3);
        let mut session = prng.try_session(8).unwrap();
        assert_eq!(
            session.try_next_batch(9).unwrap_err(),
            HprngError::BatchTooLarge {
                requested: 9,
                available: 8
            }
        );
        assert_eq!(
            session.try_next_batch(0).unwrap_err(),
            HprngError::EmptyRequest
        );
        // The session stays usable after a rejected request.
        assert_eq!(session.try_next_batch(8).unwrap().len(), 8);
    }

    #[test]
    fn resumed_session_continues_bit_identically() {
        // Checkpoint after full-width batches, serialize through JSON,
        // resume on a *different* HybridPrng instance (same seed), and the
        // streams must continue identically — the facade-level guarantee
        // the pool's cross-shard migration is built on.
        let mut original_prng = tiny_prng(31);
        let mut session = original_prng.try_session(32).unwrap();
        for _ in 0..4 {
            session.try_next_batch(32).unwrap();
        }
        let json = session.checkpoint().unwrap().to_json();
        let state = crate::StreamState::from_json(&json).unwrap();

        let mut resumed_prng = tiny_prng(31);
        let mut resumed = resumed_prng.try_resume_session(&state).unwrap();
        for round in 0..3 {
            assert_eq!(
                resumed.try_next_batch(32).unwrap(),
                session.try_next_batch(32).unwrap(),
                "round {round} diverged after resume"
            );
        }
    }

    #[test]
    fn resume_rejects_a_mismatched_seed() {
        let mut prng = tiny_prng(1);
        let mut session = prng.try_session(8).unwrap();
        session.try_next_batch(8).unwrap();
        let state = session.checkpoint().unwrap();
        drop(session);
        let mut other = tiny_prng(2);
        assert!(matches!(
            other.try_resume_session(&state),
            Err(HprngError::RestoreMismatch { field: "seed", .. })
        ));
    }

    #[test]
    fn telemetry_counters_match_stats() {
        let mut prng = tiny_prng(5);
        let mut session = prng.try_session(32).unwrap();
        session.try_next_batch(32).unwrap();
        session.try_next_batch(7).unwrap();
        let stats = session.stats();
        let telemetry = session.take_telemetry();
        assert_eq!(telemetry.counter("iterations"), stats.iterations as f64);
        assert_eq!(telemetry.counter("feed_words"), stats.feed_words as f64);
        assert_eq!(telemetry.counter("numbers"), stats.numbers as f64);
        assert_eq!(
            telemetry.histogram("batch_latency_ns").unwrap().count(),
            2 // one sample per next_batch call, init excluded
        );
        assert_eq!(telemetry.gauge("cpu_busy"), Some(stats.cpu_busy));
        assert_eq!(telemetry.gauge("gpu_busy"), Some(stats.gpu_busy));
        // FEED and GENERATE host spans were recorded for init + 2 batches.
        use hprng_telemetry::Stage;
        let feeds = telemetry
            .spans()
            .iter()
            .filter(|s| s.stage == Stage::Feed)
            .count();
        let gens = telemetry
            .spans()
            .iter()
            .filter(|s| s.stage == Stage::Generate)
            .count();
        assert_eq!(feeds, 3);
        assert_eq!(gens, 3);
    }
}
