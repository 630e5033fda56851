//! The pipeline engine: FEED → TRANSFER → GENERATE orchestration.
//!
//! [`Engine`] drives one [`BitFeed`] into the walks it owns: the feed
//! fills each batch's raw words inline on the calling thread, and the
//! engine's GENERATE stage advances one walk per number over them, eight
//! lanes at a time with [`advance_lanes`], on the backend's
//! [`Backend::workers`]. Its [`Backend`] accounts each stage from the
//! counts alone. The paper overlaps FEED with GENERATE (§IV-A, Figure 4);
//! the device backend models that overlap on its simulated timeline.

use crate::error::HprngError;
use crate::params::{HybridParams, PipelineMode};
use crate::pipeline::backend::{init_words_per_thread, Backend};
use crate::pipeline::feed::BitFeed;
use hprng_expander::{advance_lanes, KERNEL_LANES};
use hprng_gpu_sim::Resource;
use hprng_telemetry::{Recorder, Stage, WordTap};
use rayon::prelude::*;
use std::time::Instant;

/// Algorithm 1 for `threads` lanes: lane `t` starts on the vertex packed in
/// word 0 of its `init_words_per_thread` span and warms up over the rest.
fn init_labels(threads: usize, bits: &[u64], params: &HybridParams, workers: usize) -> Vec<u64> {
    let span = init_words_per_thread(params);
    let mut labels: Vec<u64> = bits.iter().step_by(span).take(threads).copied().collect();
    let warmup = bits.get(1..).unwrap_or_default();
    advance_spans(&mut labels, warmup, span, params.walk.warmup_len, workers);
    labels
}

/// Advances lane `t` from `labels[t]` by `len` steps over the words
/// `words[t * stride..]`. Each of the `workers` takes a run of whole
/// kernel groups, so only the last group is partial.
fn advance_spans(labels: &mut [u64], words: &[u64], stride: usize, len: u32, workers: usize) {
    let chunk = labels.len().div_ceil(KERNEL_LANES).div_ceil(workers).max(1) * KERNEL_LANES;
    labels
        .par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(c, labels)| {
            for (g, group) in labels.chunks_mut(KERNEL_LANES).enumerate() {
                let first = c * chunk + g * KERNEL_LANES;
                advance_lanes(group, &words[first * stride..], stride, len);
            }
        });
}

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

/// The stage-decoupled pipeline: one [`BitFeed`], the walks it drives,
/// one [`Backend`] that accounts them, and the on-demand batch interface.
///
/// This is the workspace's one multi-lane walk session. On the
/// simulated-device backend it is [`crate::HybridSession`], the session
/// `HybridPrng` opens; the CPU-threads backend runs the identical engine,
/// which is what makes cross-backend golden tests meaningful.
pub struct Engine<B: Backend> {
    backend: B,
    feed: Box<dyn BitFeed>,
    /// The packed vertex label of every resident walk.
    lanes: Vec<u64>,
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
            lanes: Vec::new(),
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
        self.lanes.len()
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
        let params = *self.backend.params();
        let words = threads * init_words_per_thread(&params);
        let bits = self.take_words(words);
        let span = self.recorder.start_span(Stage::Generate, "initialize");
        self.lanes = init_labels(threads, &bits, &params, self.backend.workers());
        self.recorder.finish_span(span);
        self.backend.record_initialize(threads, words);
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
        if count > self.lanes.len() {
            return Err(HprngError::BatchTooLarge {
                requested: count,
                available: self.lanes.len(),
            });
        }
        let batch_start_ns = self.recorder.now_ns();
        let walk = self.backend.params().walk;
        let stride = walk.words_per_number();
        let words = count * stride;
        let bits = self.take_words(words);
        let span = self.recorder.start_span(Stage::Generate, "next_batch");
        let lanes = &mut self.lanes[..count];
        advance_spans(lanes, &bits, stride, walk.walk_len, self.backend.workers());
        out.copy_from_slice(lanes);
        self.recorder.finish_span(span);
        self.backend
            .record_generate(count, words, &mut self.recorder);
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
            .lanes
            .iter()
            // The walk kernel counts step parity from zero in every batch,
            // so the packed vertex is the whole per-lane state.
            .map(|&vertex| hprng_expander::WalkState { vertex, steps: 0 })
            .collect();
        Ok(crate::StreamState {
            label: self.backend.label().to_string(),
            id: 0,
            seed,
            lanes: self.lanes.len(),
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
        match self.lanes.len() {
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
            let matches = self.lanes.len() == state.walks.len()
                && self
                    .lanes
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
        self.lanes.len()
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

    #[test]
    fn long_lived_engines_keep_a_bounded_span_log() {
        // Two spans per batch (FEED and GENERATE) plus two for Algorithm 1:
        // 200,002 spans, of which the recorder keeps its capacity.
        let mut e = engine(1);
        e.initialize(4).unwrap();
        let mut out = [0u64; 4];
        for _ in 0..100_000 {
            e.try_next_batch_into(&mut out).unwrap();
        }
        let telemetry = e.telemetry();
        assert_eq!(telemetry.spans().len(), 65_536);
        assert_eq!(telemetry.counter("spans_dropped"), 134_466.0);
    }
}
