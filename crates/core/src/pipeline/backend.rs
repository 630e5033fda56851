//! The GENERATE stage: pluggable walk-advancing backends.
//!
//! [`Backend`] abstracts where the expander walks live and what advances
//! them, so one [`Engine`](crate::pipeline::Engine) drives both platforms
//! the paper discusses:
//!
//! * [`DeviceBackend`] — the simulated GPU: walks are device-resident, and
//!   every operation (H2D transfer, GENERATE kernel launch, D2H copy-back)
//!   is accounted on the device's simulated [`Timeline`]. The labels are
//!   computed on the host with the kernel below; the simulated launch only
//!   charges each thread's costs and writes its label.
//! * [`CpuBackend`] — "our generator can also work on other multicore
//!   architectures" (§IV-A): walks advance on real host threads via rayon,
//!   with no simulated clock at all.
//!
//! Both advance their lanes through one lane loop over the same per-thread
//! bit spans, eight at a time with [`hprng_expander::advance_lanes`], so
//! for a fixed feed stream their outputs are bit-identical — a property
//! the cross-backend golden test pins.

use crate::params::HybridParams;
use hprng_expander::{advance_lanes, KERNEL_LANES};
use hprng_gpu_sim::{Device, DeviceBuffer, Op, Resource, Stream, Timeline, WorkUnit};
use hprng_telemetry::{Recorder, Stage};
use rayon::prelude::*;

/// Words of raw bits a thread consumes at initialization: one 64-bit word
/// for the start vertex ("we need 64 random bits for each thread", §III-B)
/// plus the warm-up walk's chunks.
pub fn init_words_per_thread(params: &HybridParams) -> usize {
    1 + (params.walk.warmup_len as usize).div_ceil(hprng_expander::bits::CHUNKS_PER_WORD)
}

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

/// Where the GENERATE stage runs.
///
/// A backend owns the per-thread walk states and the platform-specific cost
/// accounting. The [`Engine`](crate::pipeline::Engine) feeds it raw-bit
/// spans (already FED and TRANSFERred) and collects one number per walk.
/// Backends record their own GENERATE/TRANSFER spans into the recorder they
/// are handed, because only they know their internal phase structure.
pub trait Backend {
    /// Human-readable backend name for traces, stats, and benches.
    fn label(&self) -> &'static str;

    /// The pipeline parameters the backend was built with.
    fn params(&self) -> &HybridParams;

    /// Number of resident walks (0 before [`Backend::initialize`]).
    fn threads(&self) -> usize;

    /// Accounts a FEED of `words` raw 64-bit words on the backend's
    /// simulated clock, if it keeps one. Called by the engine each time it
    /// pulls words from the feed; the charge depends on the word count
    /// alone, so the simulated timeline is a pure function of the request
    /// history.
    fn record_feed(&mut self, words: usize);

    /// Algorithm 1: installs `threads` walks from
    /// `threads * init_words_per_thread` raw words.
    fn initialize(&mut self, threads: usize, bits: &[u64], recorder: &mut Recorder);

    /// Algorithm 2: advances the first `count` walks over
    /// `count * words_per_number` raw words, writing one number per walk
    /// into `out` (`out.len() == count`).
    fn generate(&mut self, count: usize, bits: &[u64], out: &mut [u64], recorder: &mut Recorder);

    /// The simulated timeline, for backends that model one.
    fn timeline(&self) -> Option<Timeline>;

    /// Packed labels of the resident walks, one per thread (empty when the
    /// backend cannot expose them). Checkpoints embed these so a
    /// replay-based restore can *verify* the replayed positions against
    /// the originals instead of trusting the request history blindly.
    fn walk_labels(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// The simulated-GPU backend: walks are device-resident on a borrowed
/// [`Device`], and every H2D transfer, GENERATE kernel and D2H copy-back
/// is accounted on the device's simulated [`Timeline`], with FEED
/// overlapped against the previous kernel (§IV-A, Figure 4).
pub struct DeviceBackend<'a> {
    device: &'a Device,
    params: HybridParams,
    /// Per-thread walk positions (packed vertex labels), device-resident.
    states: DeviceBuffer<u64>,
    /// Simulated time at which the CPU finishes its current FEED batch.
    cpu_cursor_ns: f64,
    /// FEED completion time of the bits the *next* kernel will consume.
    pending_feed_end_ns: f64,
}

impl<'a> DeviceBackend<'a> {
    /// Wraps a device. The caller decides when to reset the device
    /// timeline (sessions reset it at open).
    pub fn new(device: &'a Device, params: HybridParams) -> Self {
        Self {
            device,
            params,
            states: DeviceBuffer::zeroed(0),
            cpu_cursor_ns: 0.0,
            pending_feed_end_ns: 0.0,
        }
    }

    /// The underlying device (for timeline inspection and co-scheduled
    /// application kernels).
    pub fn device(&self) -> &'a Device {
        self.device
    }
}

impl Backend for DeviceBackend<'_> {
    fn label(&self) -> &'static str {
        "gpu-sim"
    }

    fn params(&self) -> &HybridParams {
        &self.params
    }

    fn threads(&self) -> usize {
        self.states.len()
    }

    fn record_feed(&mut self, words: usize) {
        let cost = &self.params.cost;
        let dur = words as f64 * cost.cpu_ns_per_word / cost.feed_workers.max(1) as f64;
        let start = self.cpu_cursor_ns;
        let end = start + dur;
        self.device
            .record(Resource::Cpu, WorkUnit::Feed, start, end);
        self.cpu_cursor_ns = end;
        self.pending_feed_end_ns = end;
    }

    fn initialize(&mut self, threads: usize, bits_host: &[u64], recorder: &mut Recorder) {
        let gen_span = recorder.start_span(Stage::Generate, "initialize");
        self.states = DeviceBuffer::zeroed(threads);
        let words_per_thread = init_words_per_thread(&self.params);

        let mut stream = Stream::new(self.device);
        let mut bits_dev = DeviceBuffer::zeroed(bits_host.len());
        stream.wait_until(self.pending_feed_end_ns);
        stream.h2d(bits_host, &mut bits_dev);
        stream.wait_until(stream.cursor_ns() + self.params.cost.kernel_launch_ns);

        let params = self.params;
        let labels = init_labels(threads, bits_host, &params, rayon::current_num_threads());
        stream.launch_map(
            WorkUnit::Generate,
            self.states.as_mut_slice(),
            |ctx, state| {
                *state = labels[ctx.global_id()];
                ctx.charge(
                    Op::Alu,
                    params.cost.walk_cycles_per_step * params.walk.warmup_len as u64,
                );
                ctx.charge(Op::Mem, words_per_thread as u64);
            },
        );
        recorder.finish_span(gen_span);
    }

    fn generate(
        &mut self,
        count: usize,
        bits_host: &[u64],
        out: &mut [u64],
        recorder: &mut Recorder,
    ) {
        let gen_span = recorder.start_span(Stage::Generate, "next_batch");
        let words_per_thread = self.params.walk.words_per_number();

        let mut stream = Stream::new(self.device);
        let mut bits_dev = DeviceBuffer::zeroed(bits_host.len());
        stream.wait_until(self.pending_feed_end_ns);
        stream.h2d(bits_host, &mut bits_dev);
        stream.wait_until(stream.cursor_ns() + self.params.cost.kernel_launch_ns);

        let params = self.params;
        let len = params.walk.walk_len;
        let states = &mut self.states.as_mut_slice()[..count];
        let workers = rayon::current_num_threads();
        advance_spans(states, bits_host, words_per_thread, len, workers);
        stream.launch_zip(WorkUnit::Generate, states, out, 1, |ctx, state, span| {
            span[0] = *state;
            ctx.charge(
                Op::Alu,
                params.cost.walk_cycles_per_step * params.walk.walk_len as u64,
            );
            ctx.charge(Op::Mem, words_per_thread as u64 + 1);
        });
        recorder.finish_span(gen_span);
        if self.params.copy_back {
            let copy_span = recorder.start_span(Stage::Transfer, "copy_back");
            let dev_out = DeviceBuffer::from_host(out.to_vec());
            let mut host_out = vec![0u64; count];
            stream.d2h(&dev_out, &mut host_out);
            recorder.finish_span(copy_span);
        }
    }

    fn timeline(&self) -> Option<Timeline> {
        Some(self.device.timeline())
    }

    fn walk_labels(&self) -> Vec<u64> {
        self.states.as_slice().to_vec()
    }
}

/// The real-threads multicore backend: walks advance in parallel on the
/// host via rayon, exactly as the paper's OpenMP port would. No simulated
/// clock — wall time is the measurement.
pub struct CpuBackend {
    params: HybridParams,
    states: Vec<u64>,
    workers: usize,
}

impl CpuBackend {
    /// A backend using one rayon worker per available CPU.
    pub fn new(params: HybridParams) -> Self {
        Self::with_workers(params, rayon::current_num_threads())
    }

    /// A backend with an explicit worker count (deterministic output does
    /// not depend on it; only wall time does).
    pub fn with_workers(params: HybridParams, workers: usize) -> Self {
        Self {
            params,
            states: Vec::new(),
            workers: workers.max(1),
        }
    }
}

impl Backend for CpuBackend {
    fn label(&self) -> &'static str {
        "cpu-threads"
    }

    fn params(&self) -> &HybridParams {
        &self.params
    }

    fn threads(&self) -> usize {
        self.states.len()
    }

    fn record_feed(&mut self, _words: usize) {}

    fn initialize(&mut self, threads: usize, bits: &[u64], recorder: &mut Recorder) {
        let gen_span = recorder.start_span(Stage::Generate, "initialize");
        self.states = init_labels(threads, bits, &self.params, self.workers);
        recorder.finish_span(gen_span);
    }

    fn generate(&mut self, count: usize, bits: &[u64], out: &mut [u64], recorder: &mut Recorder) {
        let gen_span = recorder.start_span(Stage::Generate, "next_batch");
        let walk = self.params.walk;
        let states = &mut self.states[..count];
        let stride = walk.words_per_number();
        advance_spans(states, bits, stride, walk.walk_len, self.workers);
        out.copy_from_slice(states);
        recorder.finish_span(gen_span);
    }

    fn timeline(&self) -> Option<Timeline> {
        None
    }

    fn walk_labels(&self) -> Vec<u64> {
        self.states.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::feed::{BitFeed, GlibcFeed};
    use hprng_gpu_sim::DeviceConfig;

    fn feed_words(seed: u64, words: usize) -> Vec<u64> {
        let mut buf = vec![0u64; words];
        GlibcFeed::from_master_seed(seed).fill(&mut buf);
        buf
    }

    #[test]
    fn cpu_and_device_backends_agree_bit_for_bit() {
        let params = HybridParams::default();
        let threads = 96;
        let init_words = threads * init_words_per_thread(&params);
        let batch_words = threads * params.walk.words_per_number();
        let bits = feed_words(11, init_words + 2 * batch_words);

        let device = Device::new(DeviceConfig::test_tiny());
        let mut rec = Recorder::new();
        let mut dev = DeviceBackend::new(&device, params);
        let mut cpu = CpuBackend::new(params);
        dev.initialize(threads, &bits[..init_words], &mut rec);
        cpu.initialize(threads, &bits[..init_words], &mut rec);

        let mut dev_out = vec![0u64; threads];
        let mut cpu_out = vec![0u64; threads];
        for k in 0..2 {
            let span = &bits[init_words + k * batch_words..init_words + (k + 1) * batch_words];
            dev.generate(threads, span, &mut dev_out, &mut rec);
            cpu.generate(threads, span, &mut cpu_out, &mut rec);
            assert_eq!(dev_out, cpu_out, "batch {k} diverged");
        }
    }

    #[test]
    fn cpu_backend_output_is_worker_count_invariant() {
        // At 61 lanes the worker chunks and the partial group of 8 fall on
        // other lanes than at 64; the 13-lane batch ends mid-group.
        let params = HybridParams::default();
        let per_number = params.walk.words_per_number();
        let mut rec = Recorder::new();
        for threads in [64usize, 61] {
            let init_words = threads * init_words_per_thread(&params);
            let bits = feed_words(3, init_words + (threads + 13) * per_number);
            let (full_bits, partial_bits) = bits[init_words..].split_at(threads * per_number);
            let mut reference: Option<Vec<u64>> = None;
            for workers in [1usize, 2, 3, 8] {
                let mut cpu = CpuBackend::with_workers(params, workers);
                cpu.initialize(threads, &bits[..init_words], &mut rec);
                let mut out = vec![0u64; threads + 13];
                let (full, partial) = out.split_at_mut(threads);
                cpu.generate(threads, full_bits, full, &mut rec);
                cpu.generate(13, partial_bits, partial, &mut rec);
                match &reference {
                    None => reference = Some(out),
                    Some(r) => assert_eq!(r, &out, "threads={threads} workers={workers}"),
                }
            }
        }
    }

    #[test]
    fn device_backend_has_timeline_cpu_does_not() {
        let device = Device::new(DeviceConfig::test_tiny());
        let dev = DeviceBackend::new(&device, HybridParams::default());
        assert!(dev.timeline().is_some());
        assert_eq!(dev.label(), "gpu-sim");
        let cpu = CpuBackend::new(HybridParams::default());
        assert!(cpu.timeline().is_none());
        assert_eq!(cpu.label(), "cpu-threads");
    }
}
