//! The platform under the GENERATE stage: what it costs, and on which
//! clock.
//!
//! [`Engine`](crate::pipeline::Engine) advances the walks itself, eight
//! lanes at a time with [`hprng_expander::advance_lanes`], on the
//! backend's [`Backend::workers`]. A [`Backend`] names the platform and
//! accounts the work, so one engine serves both platforms the paper
//! discusses:
//!
//! * [`DeviceBackend`] — the simulated GPU: every FEED, H2D transfer,
//!   GENERATE kernel and D2H copy-back is charged from its word and thread
//!   counts to the device's simulated [`Timeline`].
//! * [`CpuBackend`] — "our generator can also work on other multicore
//!   architectures" (§IV-A): walks advance on real host threads via rayon,
//!   with no simulated clock at all.
//!
//! The words are the engine's, so for a fixed feed stream both backends
//! serve the same numbers — a property the cross-backend golden test pins.

use crate::params::HybridParams;
use hprng_gpu_sim::{Device, Resource, Stream, Timeline, WorkUnit};
use hprng_telemetry::{Recorder, Stage};

/// Words of raw bits a thread consumes at initialization: one 64-bit word
/// for the start vertex ("we need 64 random bits for each thread", §III-B)
/// plus the warm-up walk's chunks.
pub fn init_words_per_thread(params: &HybridParams) -> usize {
    1 + (params.walk.warmup_len as usize).div_ceil(hprng_expander::bits::CHUNKS_PER_WORD)
}

/// Where the GENERATE stage runs, and what it costs there.
///
/// The [`Engine`](crate::pipeline::Engine) owns the walks and calls the
/// `record_*` hooks after each stage with the counts it just processed.
/// Every hook defaults to doing nothing, for backends whose only measure is
/// wall time.
pub trait Backend {
    /// Human-readable backend name for traces, stats, and benches.
    fn label(&self) -> &'static str;

    /// The pipeline parameters the backend was built with.
    fn params(&self) -> &HybridParams;

    /// Host threads the engine advances the walks on.
    fn workers(&self) -> usize;

    /// Accounts a FEED of `words` raw 64-bit words. Called by the engine
    /// each time it pulls words from the feed; the charge depends on the
    /// word count alone, so the simulated timeline is a pure function of
    /// the request history.
    fn record_feed(&mut self, _words: usize) {}

    /// Accounts Algorithm 1: `threads` walks installed from `words` raw
    /// words.
    fn record_initialize(&mut self, _threads: usize, _words: usize) {}

    /// Accounts one batch of Algorithm 2: the first `count` walks advanced
    /// over `words` raw words. Spans of work after GENERATE, such as a
    /// copy-back, go to `recorder`.
    fn record_generate(&mut self, _count: usize, _words: usize, _recorder: &mut Recorder) {}

    /// The simulated timeline, for backends that model one.
    fn timeline(&self) -> Option<Timeline> {
        None
    }
}

/// The simulated-GPU backend: every H2D transfer, GENERATE kernel and D2H
/// copy-back is charged to a borrowed [`Device`]'s simulated [`Timeline`],
/// with FEED overlapped against the previous kernel (§IV-A, Figure 4).
pub struct DeviceBackend<'a> {
    device: &'a Device,
    params: HybridParams,
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
            cpu_cursor_ns: 0.0,
            pending_feed_end_ns: 0.0,
        }
    }

    /// The underlying device (for timeline inspection and co-scheduled
    /// application kernels).
    pub fn device(&self) -> &'a Device {
        self.device
    }

    /// Charges one walk kernel on a fresh stream: it waits for the FEED
    /// that produced its `words` raw words, ships them over PCIe, pays the
    /// launch latency, and runs `threads` threads of `steps` walk steps
    /// and `loads` memory accesses each.
    fn charge_kernel(&self, words: usize, threads: usize, steps: u32, loads: usize) -> Stream<'a> {
        let cfg = self.device.config();
        let cost = &self.params.cost;
        let cycles = cfg.alu_cycles * cost.walk_cycles_per_step * steps as u64
            + cfg.mem_cycles * loads as u64;
        let mut stream = Stream::new(self.device);
        stream.wait_until(self.pending_feed_end_ns);
        stream.transfer(words * 8);
        stream.wait_until(stream.cursor_ns() + cost.kernel_launch_ns);
        stream.kernel(WorkUnit::Generate, threads, cycles);
        stream
    }
}

impl Backend for DeviceBackend<'_> {
    fn label(&self) -> &'static str {
        "gpu-sim"
    }

    fn params(&self) -> &HybridParams {
        &self.params
    }

    fn workers(&self) -> usize {
        rayon::current_num_threads()
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

    fn record_initialize(&mut self, threads: usize, words: usize) {
        let loads = init_words_per_thread(&self.params);
        self.charge_kernel(words, threads, self.params.walk.warmup_len, loads);
    }

    fn record_generate(&mut self, count: usize, words: usize, recorder: &mut Recorder) {
        let walk = self.params.walk;
        // Each thread loads its bits and stores its number.
        let loads = walk.words_per_number() + 1;
        let mut stream = self.charge_kernel(words, count, walk.walk_len, loads);
        if self.params.copy_back {
            let copy_span = recorder.start_span(Stage::Transfer, "copy_back");
            stream.transfer(count * 8);
            recorder.finish_span(copy_span);
        }
    }

    fn timeline(&self) -> Option<Timeline> {
        Some(self.device.timeline())
    }
}

/// The real-threads multicore backend: walks advance in parallel on the
/// host via rayon, exactly as the paper's OpenMP port would. No simulated
/// clock — wall time is the measurement.
pub struct CpuBackend {
    params: HybridParams,
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

    fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::engine::Engine;
    use crate::pipeline::feed::GlibcFeed;
    use hprng_gpu_sim::DeviceConfig;

    fn engine<B: Backend>(backend: B, seed: u64) -> Engine<B> {
        Engine::new(backend, Box::new(GlibcFeed::from_master_seed(seed)))
    }

    #[test]
    fn cpu_and_device_backends_agree_bit_for_bit() {
        let params = HybridParams::default();
        let threads = 96;
        let device = Device::new(DeviceConfig::test_tiny());
        let mut dev = engine(DeviceBackend::new(&device, params), 11);
        let mut cpu = engine(CpuBackend::new(params), 11);
        dev.initialize(threads).unwrap();
        cpu.initialize(threads).unwrap();
        for k in 0..2 {
            assert_eq!(
                dev.try_next_batch(threads).unwrap(),
                cpu.try_next_batch(threads).unwrap(),
                "batch {k} diverged"
            );
        }
    }

    #[test]
    fn cpu_backend_output_is_worker_count_invariant() {
        // At 61 lanes the worker chunks and the partial group of 8 fall on
        // other lanes than at 64; the 13-lane batch ends mid-group.
        let params = HybridParams::default();
        for threads in [64usize, 61] {
            let mut reference: Option<Vec<u64>> = None;
            for workers in [1usize, 2, 3, 8] {
                let mut cpu = engine(CpuBackend::with_workers(params, workers), 3);
                cpu.initialize(threads).unwrap();
                let mut out = cpu.try_next_batch(threads).unwrap();
                out.extend(cpu.try_next_batch(13).unwrap());
                match &reference {
                    None => reference = Some(out),
                    Some(r) => assert_eq!(r, &out, "threads={threads} workers={workers}"),
                }
            }
        }
    }

    #[test]
    fn device_backend_has_timeline_cpu_does_not() {
        let params = HybridParams::default();
        let device = Device::new(DeviceConfig::test_tiny());
        let mut dev = engine(DeviceBackend::new(&device, params), 1);
        let mut cpu = engine(CpuBackend::new(params), 1);
        dev.initialize(8).unwrap();
        cpu.initialize(8).unwrap();
        assert!(dev.backend().timeline().is_some());
        assert!(dev.stats().sim_ns > 0.0);
        assert_eq!(dev.backend().label(), "gpu-sim");
        assert!(cpu.backend().timeline().is_none());
        assert_eq!(cpu.stats().sim_ns, 0.0);
        assert_eq!(cpu.backend().label(), "cpu-threads");
    }
}
