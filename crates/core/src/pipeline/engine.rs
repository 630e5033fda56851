//! The pipeline engine: FEED → TRANSFER → GENERATE orchestration.
//!
//! [`Engine`] drives one [`BitFeed`] into one [`Backend`]: the feed fills
//! each batch's raw words inline on the calling thread, and the backend's
//! GENERATE stage turns them into numbers. The paper overlaps FEED with
//! GENERATE (§IV-A, Figure 4); the device backend models that overlap on
//! its simulated timeline, charged from word counts alone
//! ([`Backend::record_feed`]).

use crate::error::HprngError;
use crate::params::PipelineMode;
use crate::pipeline::backend::{init_words_per_thread, Backend};
use crate::pipeline::feed::BitFeed;
use hprng_gpu_sim::Resource;
use hprng_telemetry::{Recorder, Stage, WordTap};
use std::time::Instant;

/// Summary of one pipeline run.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineStats {
    /// Numbers produced.
    pub numbers: usize,
    /// Simulated makespan in nanoseconds (0 for backends with no simulated
    /// clock, e.g. the CPU-threads backend).
    pub sim_ns: f64,
    /// Host wall-clock time in nanoseconds.
    pub wall_ns: f64,
    /// Raw 64-bit words the FEED stage produced.
    pub feed_words: u64,
    /// GENERATE kernel launches (pipeline iterations, init included).
    pub iterations: usize,
    /// Fraction of the simulated makespan the CPU was busy feeding.
    pub cpu_busy: f64,
    /// Fraction of the simulated makespan the GPU was busy walking.
    pub gpu_busy: f64,
    /// Simulated throughput in giganumbers per second.
    pub gnumbers_per_s: f64,
}

/// The stage-decoupled pipeline: one [`BitFeed`], one [`Backend`], and the
/// on-demand batch interface between them.
///
/// This is the workspace's one multi-lane walk session. On the
/// simulated-device backend it is [`crate::HybridSession`], the session
/// `HybridPrng` opens; the CPU-threads backend runs the identical engine,
/// which is what makes cross-backend golden tests meaningful.
pub struct Engine<B: Backend> {
    backend: B,
    feed: Box<dyn BitFeed>,
    iterations: usize,
    feed_words: u64,
    numbers: usize,
    wall_start: Instant,
    recorder: Recorder,
    tap: Option<Box<dyn WordTap>>,
}

impl<B: Backend> Engine<B> {
    /// An engine over `backend`, fed by `feed`.
    pub fn new(backend: B, feed: Box<dyn BitFeed>) -> Self {
        Self {
            backend,
            feed,
            iterations: 0,
            feed_words: 0,
            numbers: 0,
            wall_start: Instant::now(),
            recorder: Recorder::new(),
            tap: None,
        }
    }

    /// Compatibility shim for code written against the three-mode engine:
    /// FEED has one schedule, so `mode` is ignored. Use [`Engine::new`].
    pub fn with_mode(backend: B, feed: Box<dyn BitFeed>, _mode: PipelineMode) -> Self {
        Self::new(backend, feed)
    }

    /// The backend, for platform-specific introspection (e.g. the
    /// simulated device of a [`DeviceBackend`](crate::pipeline::DeviceBackend)).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Number of resident walks (0 before [`Engine::initialize`]).
    pub fn threads(&self) -> usize {
        self.backend.threads()
    }

    /// Attaches a streaming word tap (e.g. a quality monitor's sampling
    /// handle): every subsequent [`Engine::try_next_batch`] output is
    /// offered to it before being returned, timed as an `App`-stage
    /// `monitor_tap` span plus a `tap_words` counter. The span sits outside
    /// the GENERATE spans, so tap overhead is measurable and does not
    /// contaminate pipeline-stage timings.
    pub fn set_tap(&mut self, tap: Box<dyn WordTap>) {
        self.tap = Some(tap);
    }

    /// Detaches and returns the tap, if one was set.
    pub fn take_tap(&mut self) -> Option<Box<dyn WordTap>> {
        self.tap.take()
    }

    /// Pulls exactly `words` raw words from the feed and accounts them.
    fn take_words(&mut self, words: usize) -> Vec<u64> {
        let token = self.recorder.start_span(Stage::Feed, "feed");
        let mut buf = vec![0u64; words];
        self.feed.fill(&mut buf);
        self.recorder.finish_span(token);
        self.backend.record_feed(words);
        self.feed_words += words as u64;
        self.recorder.add("feed_words", words as f64);
        buf
    }

    /// Algorithm 1: installs `threads` walks, consuming
    /// `threads × init_words_per_thread` feed words.
    ///
    /// Returns [`HprngError::EmptySession`] when `threads` is zero.
    pub fn initialize(&mut self, threads: usize) -> Result<(), HprngError> {
        if threads == 0 {
            return Err(HprngError::EmptySession);
        }
        let words = threads * init_words_per_thread(self.backend.params());
        let bits = self.take_words(words);
        self.backend.initialize(threads, &bits, &mut self.recorder);
        self.iterations += 1;
        self.recorder.add("iterations", 1.0);
        Ok(())
    }

    /// Algorithm 2, vectorized: the first `count` walks each produce one
    /// number. `count` may vary per call — this is the on-demand interface.
    ///
    /// Returns [`HprngError::EmptyRequest`] when `count` is zero and
    /// [`HprngError::BatchTooLarge`] when it exceeds the resident walks.
    pub fn try_next_batch(&mut self, count: usize) -> Result<Vec<u64>, HprngError> {
        let mut out = vec![0u64; count];
        self.try_next_batch_into(&mut out)?;
        Ok(out)
    }

    /// [`Engine::try_next_batch`] into a caller-provided buffer: the first
    /// `out.len()` walks each produce one number. This is the engine's
    /// [`OnDemandRng`](crate::ondemand::OnDemandRng) entry point.
    pub fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        let count = out.len();
        if count == 0 {
            return Err(HprngError::EmptyRequest);
        }
        if count > self.backend.threads() {
            return Err(HprngError::BatchTooLarge {
                requested: count,
                available: self.backend.threads(),
            });
        }
        let batch_start_ns = self.recorder.now_ns();
        let words = count * self.backend.params().walk.words_per_number();
        let bits = self.take_words(words);
        self.backend.generate(count, &bits, out, &mut self.recorder);
        self.iterations += 1;
        self.numbers += count;
        self.recorder.add("iterations", 1.0);
        self.recorder.add("numbers", count as f64);
        let batch_ns = self.recorder.now_ns() - batch_start_ns;
        self.recorder.observe("batch_latency_ns", batch_ns);
        if let Some(tap) = self.tap.as_mut() {
            let tap_span = self.recorder.start_span(Stage::App, "monitor_tap");
            tap.observe(out);
            self.recorder.finish_span(tap_span);
            self.recorder.add("tap_words", out.len() as f64);
        }
        Ok(())
    }

    /// The engine's statistics so far. Backends without a simulated clock
    /// report zero `sim_ns`/busy fractions — wall time is their measure.
    pub fn stats(&self) -> PipelineStats {
        let (sim_ns, cpu_busy, gpu_busy) = match self.backend.timeline() {
            Some(tl) => (
                tl.makespan_ns(),
                tl.busy_fraction(Resource::Cpu),
                tl.busy_fraction(Resource::Gpu),
            ),
            None => (0.0, 0.0, 0.0),
        };
        PipelineStats {
            numbers: self.numbers,
            sim_ns,
            wall_ns: self.wall_start.elapsed().as_nanos() as f64,
            feed_words: self.feed_words,
            iterations: self.iterations,
            cpu_busy,
            gpu_busy,
            gnumbers_per_s: if sim_ns > 0.0 {
                self.numbers as f64 / sim_ns
            } else {
                0.0
            },
        }
    }

    /// The engine's telemetry so far: FEED/GENERATE/TRANSFER host spans,
    /// the `iterations`/`feed_words`/`numbers` counters, and the per-call
    /// `batch_latency_ns` histogram.
    pub fn telemetry(&self) -> &Recorder {
        &self.recorder
    }

    /// Takes the telemetry out of the engine: spans and counters, plus the
    /// stage-busy gauges (`cpu_busy`, `gpu_busy`, `sim_ns`,
    /// `gnumbers_per_s`) synced from the current [`PipelineStats`]. On the
    /// device backend, pair the result with [`Engine::timeline`] and
    /// `hprng_telemetry::chrome_trace` for a merged host + device trace.
    pub fn take_telemetry(&mut self) -> Recorder {
        let stats = self.stats();
        self.recorder.set_gauge("cpu_busy", stats.cpu_busy);
        self.recorder.set_gauge("gpu_busy", stats.gpu_busy);
        self.recorder.set_gauge("sim_ns", stats.sim_ns);
        self.recorder
            .set_gauge("gnumbers_per_s", stats.gnumbers_per_s);
        let epoch = self.recorder.epoch();
        std::mem::replace(&mut self.recorder, Recorder::with_epoch(epoch))
    }

    /// Captures the engine's resumable identity: the feed's master seed,
    /// the served/consumed counters, and the packed label of every
    /// resident walk.
    ///
    /// Fails with [`HprngError::CheckpointUnsupported`] when the feed did
    /// not expose a master seed (see [`BitFeed::master_seed`]) —
    /// without it a restore could not rebuild the raw-bit stream.
    pub fn checkpoint(&self) -> Result<crate::StreamState, HprngError> {
        let seed = self
            .feed
            .master_seed()
            .ok_or(HprngError::CheckpointUnsupported {
                label: self.backend.label(),
            })?;
        let walks = self
            .backend
            .walk_labels()
            .into_iter()
            // Backends rebuild each lane's Walk per batch, so step parity
            // restarts at zero every round; the packed vertex is the whole
            // per-lane state.
            .map(|vertex| hprng_expander::WalkState { vertex, steps: 0 })
            .collect();
        Ok(crate::StreamState {
            label: self.backend.label().to_string(),
            id: 0,
            seed,
            lanes: self.backend.threads(),
            session_words: self.numbers as u64,
            feed_words: self.feed_words,
            feed_chunks: 0,
            walks,
        })
    }

    /// Restores a freshly constructed engine onto `state` by replaying the
    /// request history as uniform full-lane-width rounds plus one
    /// remainder batch.
    ///
    /// That replay shape is exact for full-width consumers — the
    /// `hprng-pool` shard workers always refill whole lane-width rows —
    /// and for any engine whose batches never varied in size. Because a
    /// differently-batched history assigns feed words to lanes
    /// differently, the restore *verifies* the replayed walk labels (and
    /// feed cursor) against the checkpoint whenever the state carries
    /// them, and rejects the result with [`HprngError::RestoreMismatch`]
    /// instead of silently resuming a perturbed stream.
    ///
    /// The engine must be freshly constructed over a fresh feed with the
    /// same parameters: either uninitialized, or initialized to
    /// `state.lanes` walks with no numbers served yet (the
    /// [`crate::HybridSession`] shape).
    pub fn restore_from(&mut self, state: &crate::StreamState) -> Result<(), HprngError> {
        if self.numbers != 0 {
            return Err(HprngError::RestoreMismatch {
                field: "engine",
                reason: "restore needs a freshly constructed engine",
            });
        }
        match self.feed.master_seed() {
            Some(seed) if seed == state.seed => {}
            Some(_) => {
                return Err(HprngError::RestoreMismatch {
                    field: "seed",
                    reason: "state belongs to a different master seed",
                })
            }
            None => {
                return Err(HprngError::CheckpointUnsupported {
                    label: self.backend.label(),
                })
            }
        }
        if !state.walks.is_empty() && state.walks.len() != state.lanes {
            return Err(HprngError::RestoreMismatch {
                field: "walks",
                reason: "walk count disagrees with the lane count",
            });
        }
        match self.backend.threads() {
            0 => self.initialize(state.lanes)?,
            t if t == state.lanes => {}
            _ => {
                return Err(HprngError::RestoreMismatch {
                    field: "lanes",
                    reason: "engine was initialized with a different lane count",
                })
            }
        }
        let lanes = state.lanes;
        let total = state.session_words;
        let rounds = total / lanes as u64;
        let remainder = (total % lanes as u64) as usize;
        let mut scratch = vec![0u64; lanes];
        for _ in 0..rounds {
            self.try_next_batch_into(&mut scratch)?;
        }
        if remainder > 0 {
            self.try_next_batch_into(&mut scratch[..remainder])?;
        }
        if !state.walks.is_empty() {
            let replayed = self.backend.walk_labels();
            let matches = replayed.len() == state.walks.len()
                && replayed
                    .iter()
                    .zip(&state.walks)
                    .all(|(&vertex, walk)| vertex == walk.vertex);
            if !matches {
                return Err(HprngError::RestoreMismatch {
                    field: "walks",
                    reason: "replayed walk positions disagree with the checkpoint \
                             (parameters or request history differ)",
                });
            }
        }
        if state.feed_words != 0 && self.feed_words != state.feed_words {
            return Err(HprngError::RestoreMismatch {
                field: "feed_words",
                reason: "replayed feed cursor disagrees with the checkpoint",
            });
        }
        Ok(())
    }
}

impl<B: Backend> crate::ondemand::OnDemandRng for Engine<B> {
    fn label(&self) -> &'static str {
        self.backend.label()
    }

    fn lanes(&self) -> usize {
        self.backend.threads()
    }

    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        Engine::try_next_batch_into(self, out)
    }

    fn try_next_batch(&mut self, count: usize) -> Result<Vec<u64>, HprngError> {
        Engine::try_next_batch(self, count)
    }

    fn words_served(&self) -> u64 {
        self.numbers as u64
    }

    fn raw_words_consumed(&self) -> Option<u64> {
        Some(self.feed_words)
    }

    fn set_tap(&mut self, tap: Box<dyn WordTap>) -> Result<(), Box<dyn WordTap>> {
        Engine::set_tap(self, tap);
        Ok(())
    }

    fn take_tap(&mut self) -> Option<Box<dyn WordTap>> {
        Engine::take_tap(self)
    }

    fn try_checkpoint(&mut self) -> Result<crate::StreamState, HprngError> {
        Engine::checkpoint(self)
    }

    fn try_restore(&mut self, state: &crate::StreamState) -> Result<(), HprngError> {
        Engine::restore_from(self, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HybridParams;
    use crate::pipeline::backend::CpuBackend;
    use crate::pipeline::feed::GlibcFeed;

    fn engine(seed: u64) -> Engine<CpuBackend> {
        Engine::new(
            CpuBackend::new(HybridParams::default()),
            Box::new(GlibcFeed::from_master_seed(seed)),
        )
    }

    #[test]
    fn initialize_rejects_zero_threads() {
        let mut e = engine(1);
        assert_eq!(e.initialize(0).unwrap_err(), HprngError::EmptySession);
    }

    #[test]
    fn batch_validation_matches_session_semantics() {
        let mut e = engine(1);
        e.initialize(8).unwrap();
        assert_eq!(e.try_next_batch(0).unwrap_err(), HprngError::EmptyRequest);
        assert_eq!(
            e.try_next_batch(9).unwrap_err(),
            HprngError::BatchTooLarge {
                requested: 9,
                available: 8
            }
        );
        assert_eq!(e.try_next_batch(8).unwrap().len(), 8);
    }

    #[test]
    fn engine_restore_replays_to_a_bit_identical_stream() {
        // Full-width request history (the pool shard shape): replay is
        // exact and verification passes.
        let mut original = engine(77);
        original.initialize(16).unwrap();
        for _ in 0..9 {
            original.try_next_batch(16).unwrap();
        }
        let state = original.checkpoint().unwrap();
        assert_eq!(state.lanes, 16);
        assert_eq!(state.session_words, 9 * 16);

        let mut resumed = engine(77);
        resumed.restore_from(&state).unwrap();
        for round in 0..5 {
            assert_eq!(
                resumed.try_next_batch(16).unwrap(),
                original.try_next_batch(16).unwrap(),
                "round {round} diverged"
            );
        }
    }

    #[test]
    fn engine_restore_survives_the_json_round_trip() {
        let mut original = engine(5);
        original.initialize(8).unwrap();
        original.try_next_batch(8).unwrap();
        let json = original.checkpoint().unwrap().to_json();
        let state = crate::StreamState::from_json(&json).unwrap();
        let mut resumed = engine(5);
        resumed.restore_from(&state).unwrap();
        assert_eq!(
            resumed.try_next_batch(8).unwrap(),
            original.try_next_batch(8).unwrap()
        );
    }

    #[test]
    fn engine_restore_rejects_divergent_histories() {
        // Ragged request history: the full-width replay cannot reproduce
        // it, and the walk-label verification must catch that instead of
        // resuming a perturbed stream.
        let mut ragged = engine(3);
        ragged.initialize(8).unwrap();
        ragged.try_next_batch(3).unwrap();
        ragged.try_next_batch(8).unwrap();
        let state = ragged.checkpoint().unwrap();
        let mut resumed = engine(3);
        assert!(matches!(
            resumed.restore_from(&state),
            Err(HprngError::RestoreMismatch { field: "walks", .. })
        ));
    }

    #[test]
    fn engine_restore_rejects_wrong_seed_and_used_engines() {
        let mut original = engine(1);
        original.initialize(4).unwrap();
        original.try_next_batch(4).unwrap();
        let state = original.checkpoint().unwrap();

        let mut wrong_seed = engine(2);
        assert!(matches!(
            wrong_seed.restore_from(&state),
            Err(HprngError::RestoreMismatch { field: "seed", .. })
        ));

        let mut used = engine(1);
        used.initialize(4).unwrap();
        used.try_next_batch(4).unwrap();
        assert!(matches!(
            used.restore_from(&state),
            Err(HprngError::RestoreMismatch {
                field: "engine",
                ..
            })
        ));
    }
}
