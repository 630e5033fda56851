//! Shared simulated-device arithmetic and the extra baselines only the
//! harness needs (CUDPP's MD5 generator on the device, the buffered-MWC
//! photon supply cost).

use hprng_baselines::Md5Rand;
use hprng_core::CostModel;
use hprng_gpu_sim::{Device, DeviceConfig, Stream, WorkUnit};
use std::time::Instant;

/// Per-output cycle charge for CUDPP RAND's MD5 generator: one MD5
/// compression (~64 rounds of dependent ALU work) per four 32-bit outputs
/// plus the uncoalesced batch store. Calibrated — same policy as
/// `CostModel::mt_cycles_per_output` — to land between the Mersenne-Twister
/// sample and CURAND, which is where the paper's Table I ranks it
/// (speed rank 3 of 5).
pub const CUDPP_MD5_CYCLES_PER_OUTPUT: u64 = 3_730;

/// Per-random cycle charge of the *buffered* MWC supply in the original
/// photon-migration code: the MWC update itself is a handful of cycles, but
/// every number makes a global-memory round trip through the staging buffer
/// (store by the generator pass, load by the consumer). Fitted to Figure
/// 8's ≈20% end-to-end gap, same calibration policy as
/// [`CostModel::mt_cycles_per_output`].
pub const MWC_BUFFERED_CYCLES_PER_RANDOM: u64 = 1_930;

/// Per-interaction transport-kernel cycle charge (absorb + HG scatter +
/// direction rotation: a few dozen FLOPs, two transcendentals).
pub const PHOTON_INTERACTION_CYCLES: u64 = 180;

/// Per-clash serialization penalty: colliding weights serialize their
/// atomic accumulations (§VI-A).
pub const CLASH_PENALTY_CYCLES: u64 = 5_000;

/// Per-live-node cycle charge of one FIS iteration's kernel: a coin read,
/// two coalesced neighbour reads and a conditional splice. Kept lean —
/// the FIS kernel is bandwidth-bound streaming work, and Figure 7's 40%
/// claim requires the randomness supply (not the splice) to be a visible
/// fraction of the phase. Calibrated with the same policy as
/// `CostModel::mt_cycles_per_output`.
pub const LIST_OP_CYCLES: u64 = 12;

/// Per-64-bit-word cycle charge of generating Mersenne-Twister bits inside
/// the ranking kernel ("Pure GPU MT"): two 32-bit outputs with the state
/// array in global memory and no CPU offload. Calibrated — same policy as
/// `CostModel::mt_cycles_per_output` — so that the Pure-GPU curve sits
/// where Figure 7 measures it (clearly above both hybrid curves).
pub const MT_INKERNEL_CYCLES_PER_WORD: u64 = 1_000;

/// Converts a total per-lane cycle count into device nanoseconds assuming
/// perfect occupancy: every SM issues warps back to back.
pub fn device_ns_for_cycles(cfg: &DeviceConfig, total_lane_cycles: f64) -> f64 {
    let per_sm =
        total_lane_cycles * cfg.issue_factor() as f64 / (cfg.warp_size as f64 * cfg.num_sms as f64);
    per_sm / cfg.core_clock_ghz
}

/// Result of one simulated CUDPP run (mirrors
/// `hprng_core::DeviceSimResult`, kept separate to avoid growing the core
/// API for a harness-only baseline).
#[derive(Clone, Copy, Debug)]
pub struct CudppSimResult {
    /// Numbers generated.
    pub numbers: usize,
    /// Simulated nanoseconds.
    pub sim_ns: f64,
    /// Wall nanoseconds.
    pub wall_ns: f64,
}

/// Simulates CUDPP RAND: per-thread MD5 counter streams filling a device
/// batch (numbers are consumed from global memory, like the MT sample but
/// without the host copy — CUDPP's rand is a device-to-device primitive).
/// The kernel starts after the cost model's launch latency, as the MT and
/// CURAND comparators' do.
pub fn simulate_cudpp_md5(cfg: &DeviceConfig, cost: &CostModel, n: usize) -> CudppSimResult {
    assert!(n > 0, "cannot generate zero numbers");
    let wall = Instant::now();
    let device = Device::new(cfg.clone());
    let mut stream = Stream::new(&device);
    let threads = 8_192.min(n);
    let per_thread = n.div_ceil(threads);
    for t in 0..threads {
        let mut md5 = Md5Rand::with_stream(0xC0DD, t as u64);
        let mut acc = 0u32;
        for _ in 0..per_thread {
            acc ^= md5.next();
        }
        std::hint::black_box(acc);
    }
    stream.wait_until(cost.kernel_launch_ns);
    let cycles = cfg.alu_cycles * CUDPP_MD5_CYCLES_PER_OUTPUT * per_thread as u64;
    stream.kernel(WorkUnit::Generate, threads, cycles);
    CudppSimResult {
        numbers: n,
        sim_ns: stream.synchronize(),
        wall_ns: wall.elapsed().as_nanos() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_ns_scales_linearly() {
        let cfg = DeviceConfig::tesla_c1060();
        let a = device_ns_for_cycles(&cfg, 1e6);
        let b = device_ns_for_cycles(&cfg, 2e6);
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cudpp_sim_runs() {
        let cfg = DeviceConfig::tesla_c1060();
        let r = simulate_cudpp_md5(&cfg, &CostModel::default(), 100_000);
        assert!(r.sim_ns > 0.0);
        assert_eq!(r.numbers, 100_000);
    }

    #[test]
    fn cudpp_sim_matches_the_pin() {
        // Exact simulated nanoseconds (as `f64` bits) on both presets.
        let got: Vec<u64> = [DeviceConfig::tesla_c1060(), DeviceConfig::fermi_c2050()]
            .iter()
            .map(|cfg| {
                simulate_cudpp_md5(cfg, &CostModel::default(), 100_003)
                    .sim_ns
                    .to_bits()
            })
            .collect();
        assert_eq!(got, [0x4134_a8d8_71c7_1c72, 0x4128_a996_42c8_590c]);
    }

    #[test]
    fn cudpp_sim_charges_the_cost_models_launch_latency() {
        let base = CostModel::default();
        let mut slow = CostModel::default();
        slow.kernel_launch_ns += 3_000.0;
        for cfg in [DeviceConfig::tesla_c1060(), DeviceConfig::fermi_c2050()] {
            let before = simulate_cudpp_md5(&cfg, &base, 100_003).sim_ns;
            let after = simulate_cudpp_md5(&cfg, &slow, 100_003).sim_ns;
            assert!(
                (after - before - 3_000.0).abs() < 1e-6,
                "{}: launch latency moved sim_ns by {}",
                cfg.name,
                after - before
            );
        }
    }
}
