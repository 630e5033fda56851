//! Device-side simulations of the paper's GPU comparators.
//!
//! Figure 3 compares the hybrid generator against two library generators
//! *as the paper ran them*:
//!
//! * the CUDA SDK "Parallel Mersenne Twister" sample — batch generation to
//!   global memory with the sample's fixed launch geometry, followed by the
//!   sample's device→host copy of the whole batch;
//! * CURAND's device API (XORWOW) — per-thread on-demand state, numbers
//!   consumed in place.
//!
//! Both run the *real* algorithms over their per-thread states on the host,
//! so `wall_ns` times them, then charge the device model one kernel whose
//! per-output cycles come from [`CostModel`] (see its calibration note).

use crate::params::CostModel;
use hprng_baselines::{Mt19937, Xorwow};
use hprng_gpu_sim::{Device, DeviceConfig, Stream, WorkUnit};
use rand_core::SeedableRng;
use std::time::Instant;

/// Result of one simulated baseline run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceSimResult {
    /// Numbers generated.
    pub numbers: usize,
    /// Simulated end-to-end time in nanoseconds.
    pub sim_ns: f64,
    /// Host wall-clock time in nanoseconds.
    pub wall_ns: f64,
}

impl DeviceSimResult {
    /// Simulated throughput in giganumbers per second.
    pub fn gnumbers_per_s(&self) -> f64 {
        if self.sim_ns > 0.0 {
            self.numbers as f64 / self.sim_ns
        } else {
            0.0
        }
    }
}

/// The SDK sample's launch geometry: 32 blocks × 128 threads.
const MT_SAMPLE_THREADS: usize = 4096;

/// Simulates the CUDA SDK Mersenne-Twister sample producing `n` 32-bit
/// numbers: per-thread twisters fill a device batch, which is then copied
/// to the host (the sample always does; the paper timed the sample).
pub fn simulate_mt_batch(config: &DeviceConfig, cost: &CostModel, n: usize) -> DeviceSimResult {
    assert!(n > 0, "cannot generate zero numbers");
    let wall = Instant::now();
    let device = Device::new(config.clone());
    let mut stream = Stream::new(&device);

    let threads = MT_SAMPLE_THREADS.min(n);
    let per_thread = n.div_ceil(threads);
    let mut out = vec![0u32; threads * per_thread];
    for (t, span) in out.chunks_mut(per_thread).enumerate() {
        let mut mt = Mt19937::seed_from_u64(0x1234_5678 + t as u64);
        for slot in span {
            *slot = mt.next();
        }
    }
    std::hint::black_box(&out);

    stream.wait_until(cost.kernel_launch_ns);
    let cycles = config.alu_cycles * cost.mt_cycles_per_output * per_thread as u64;
    stream.kernel(WorkUnit::Generate, threads, cycles);
    // The sample's D2H copy of the full batch.
    stream.transfer(std::mem::size_of_val(&out[..]));

    DeviceSimResult {
        numbers: n,
        sim_ns: stream.synchronize(),
        wall_ns: wall.elapsed().as_nanos() as f64,
    }
}

/// Simulates CURAND's device API: one XORWOW state per thread, `s` numbers
/// drawn on demand per thread, consumed in registers (no batch store, no
/// copy-back) — the mode the paper compared against.
pub fn simulate_curand_device(
    config: &DeviceConfig,
    cost: &CostModel,
    n: usize,
    per_thread: usize,
) -> DeviceSimResult {
    assert!(n > 0, "cannot generate zero numbers");
    assert!(per_thread > 0, "per-thread batch must be positive");
    let wall = Instant::now();
    let device = Device::new(config.clone());
    let mut stream = Stream::new(&device);

    let threads = n.div_ceil(per_thread);
    for t in 0..threads {
        let mut xw = Xorwow::new(0x9e37_79b9 ^ t as u64);
        let mut acc = 0u32;
        for _ in 0..per_thread {
            acc ^= xw.next();
        }
        // Keep the value alive so the loop is not optimized away.
        std::hint::black_box(acc);
    }

    stream.wait_until(cost.kernel_launch_ns);
    let cycles = config.alu_cycles * cost.curand_cycles_per_output * per_thread as u64;
    stream.kernel(WorkUnit::Generate, threads, cycles);

    DeviceSimResult {
        numbers: n,
        sim_ns: stream.synchronize(),
        wall_ns: wall.elapsed().as_nanos() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HybridParams;
    use crate::HybridPrng;
    use hprng_gpu_sim::DeviceConfig;

    #[test]
    fn mt_batch_scales_linearly_in_n() {
        let cfg = DeviceConfig::tesla_c1060();
        let cost = CostModel::default();
        let small = simulate_mt_batch(&cfg, &cost, 100_000);
        let large = simulate_mt_batch(&cfg, &cost, 400_000);
        let ratio = large.sim_ns / small.sim_ns;
        assert!((3.0..5.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn curand_device_scales_linearly_in_n() {
        // Large sizes so warp-per-SM quantization noise is small.
        let cfg = DeviceConfig::tesla_c1060();
        let cost = CostModel::default();
        let small = simulate_curand_device(&cfg, &cost, 1_000_000, 100);
        let large = simulate_curand_device(&cfg, &cost, 4_000_000, 100);
        let ratio = large.sim_ns / small.sim_ns;
        assert!((3.0..5.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn baselines_match_the_pin() {
        // Exact simulated nanoseconds (as `f64` bits) of both comparators
        // on both presets, at a size with a ragged last warp and a round
        // one.
        let cost = CostModel::default();
        let mut got = Vec::new();
        for config in [DeviceConfig::tesla_c1060(), DeviceConfig::fermi_c2050()] {
            for n in [100_003, 400_000] {
                got.push(simulate_mt_batch(&config, &cost, n).sim_ns.to_bits());
                got.push(
                    simulate_curand_device(&config, &cost, n, 100)
                        .sim_ns
                        .to_bits(),
                );
            }
        }
        let pin = [
            0x4133_e0ef_e6b7_4f03,
            0x4141_f313_8194_8b10,
            0x4153_4aae_8b0f_cd6e,
            0x4156_6597_61f9_add4,
            0x4127_4f98_590b_2165,
            0x412e_7740_b216_42c9,
            0x4146_774a_42c8_590c,
            0x4146_be18_8590_b217,
        ];
        assert_eq!(got, pin);
    }

    #[test]
    fn paper_ordering_holds_at_scale() {
        // Figure 3's claim: the hybrid generator outperforms both the MT
        // sample and CURAND "by a factor of 2 in most cases".
        let cfg = DeviceConfig::tesla_c1060();
        let cost = CostModel::default();
        let n = 1_000_000;
        let mt = simulate_mt_batch(&cfg, &cost, n);
        let curand = simulate_curand_device(&cfg, &cost, n, 100);
        let mut hybrid = HybridPrng::new(cfg, HybridParams::default(), 1);
        let (_, hstats) = hybrid.try_generate(n).unwrap();
        assert!(
            hstats.sim_ns < mt.sim_ns,
            "hybrid {} vs MT {}",
            hstats.sim_ns,
            mt.sim_ns
        );
        assert!(
            hstats.sim_ns < curand.sim_ns,
            "hybrid {} vs CURAND {}",
            hstats.sim_ns,
            curand.sim_ns
        );
    }
}
