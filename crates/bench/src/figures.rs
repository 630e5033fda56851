//! Figures 3–8: the performance experiments.

use crate::simsupport::{
    device_ns_for_cycles, CLASH_PENALTY_CYCLES, MWC_BUFFERED_CYCLES_PER_RANDOM,
    PHOTON_INTERACTION_CYCLES,
};
use crate::{ms, print_table};
use hprng_core::{
    simulate_curand_device, simulate_mt_batch, CostModel, ExpanderLanes, HybridParams, HybridPrng,
    SplitOnDemand,
};
use hprng_gpu_sim::DeviceConfig;
use hprng_listrank::hybrid::{rank_list, RandomnessStrategy};
use hprng_listrank::LinkedList;
use hprng_montecarlo::{run_simulation, RandomSupply, SimConfig, Tissue};
use std::time::Instant;

/// One row of Figure 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Numbers generated.
    pub n: usize,
    /// Hybrid simulated ns.
    pub hybrid_ns: f64,
    /// Mersenne-Twister-sample simulated ns.
    pub mt_ns: f64,
    /// CURAND-device simulated ns.
    pub curand_ns: f64,
}

/// Figure 3: time to produce a stream of `n` numbers, per generator.
pub fn fig3(sizes: &[usize], seed: u64) -> Vec<Fig3Row> {
    let cfg = DeviceConfig::tesla_c1060();
    let cost = CostModel::default();
    sizes
        .iter()
        .map(|&n| {
            let mut hybrid = HybridPrng::new(cfg.clone(), HybridParams::default(), seed);
            let (_, stats) = hybrid.try_generate(n).expect("n > 0");
            let mt = simulate_mt_batch(&cfg, &cost, n);
            let curand = simulate_curand_device(&cfg, &cost, n, 100);
            Fig3Row {
                n,
                hybrid_ns: stats.sim_ns,
                mt_ns: mt.sim_ns,
                curand_ns: curand.sim_ns,
            }
        })
        .collect()
}

/// Prints Figure 3 in the paper's axes (size in M vs time in ms).
pub fn print_fig3(rows: &[Fig3Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.n as f64 / 1e6),
                ms(r.hybrid_ns),
                ms(r.mt_ns),
                ms(r.curand_ns),
                format!("{:.2}x", r.mt_ns / r.hybrid_ns),
                format!("{:.2}x", r.curand_ns / r.hybrid_ns),
            ]
        })
        .collect();
    print_table(
        "Figure 3: stream generation time (simulated device)",
        &[
            "size (M)",
            "Hybrid (ms)",
            "M.Twister (ms)",
            "CURAND (ms)",
            "MT/Hybrid",
            "CURAND/Hybrid",
        ],
        &table,
    );
}

/// Figure 4: the work-unit overlap at batch size 100.
pub fn fig4(seed: u64) -> String {
    let mut hybrid = HybridPrng::tesla(seed);
    let (_, stats) = hybrid.try_generate(1_000_000).expect("non-zero request");
    let timeline = hybrid.device().timeline();
    let mut out = String::new();
    out.push_str("\n=== Figure 4: overlapped execution of the work units ===\n");
    out.push_str(&timeline.render_ascii(100));
    out.push_str(&format!(
        "\nFEED total     {:>10.3} ms\nTRANSFER total {:>10.3} ms\nGENERATE total {:>10.3} ms\n",
        timeline.unit_total_ns(hprng_gpu_sim::WorkUnit::Feed) / 1e6,
        timeline.unit_total_ns(hprng_gpu_sim::WorkUnit::Transfer) / 1e6,
        timeline.unit_total_ns(hprng_gpu_sim::WorkUnit::Generate) / 1e6,
    ));
    out.push_str(&format!(
        "CPU busy {:.1}% (paper: \"almost never idle\")\nGPU busy {:.1}% / idle {:.1}% (paper: idle ≈ 20%)\n",
        stats.cpu_busy * 100.0,
        stats.gpu_busy * 100.0,
        (1.0 - stats.gpu_busy) * 100.0,
    ));
    out
}

/// One row of Figure 5.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Batch size S.
    pub batch: u32,
    /// Simulated end-to-end ns for the fixed stream size.
    pub sim_ns: f64,
    /// GPU busy fraction.
    pub gpu_busy: f64,
}

/// Figure 5: runtime vs batch size S at a fixed stream size.
pub fn fig5(n: usize, batches: &[u32], seed: u64) -> Vec<Fig5Row> {
    batches
        .iter()
        .map(|&s| {
            let mut hybrid = HybridPrng::new(
                DeviceConfig::tesla_c1060(),
                HybridParams::builder()
                    .batch_size(s)
                    .build()
                    .expect("batch sizes are positive"),
                seed,
            );
            let (_, stats) = hybrid.try_generate(n).expect("n > 0");
            Fig5Row {
                batch: s,
                sim_ns: stats.sim_ns,
                gpu_busy: stats.gpu_busy,
            }
        })
        .collect()
}

/// Prints Figure 5.
pub fn print_fig5(n: usize, rows: &[Fig5Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                ms(r.sim_ns),
                format!("{:.1}%", r.gpu_busy * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!("Figure 5: timing vs batch size (N = {} M)", n / 1_000_000),
        &["batch S", "time (ms)", "GPU busy"],
        &table,
    );
}

/// The paper's CPU: an Intel i7 980 — six cores. When the container
/// running this harness exposes fewer CPUs (this environment exposes one),
/// the multicore column is the measured single-walk time divided by this
/// core count, since the walks are embarrassingly parallel (disjoint
/// states, zero shared writes); with ≥ this many real CPUs the measured
/// parallel time is used directly.
pub const MODELED_CPU_CORES: usize = 6;

/// One row of Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// Numbers generated.
    pub n: usize,
    /// Expander generator on the (modeled) multicore CPU, ns.
    pub hybrid_cpu_ns: f64,
    /// glibc `rand()` with its real per-call lock, single stream, ns.
    pub glibc_ns: f64,
    /// Whether the multicore column was measured (true) or modeled from
    /// the single-thread measurement (false).
    pub measured_parallel: bool,
}

/// Figure 6: the generator on a multicore CPU vs glibc `rand()`. Both
/// sides produce `n` 64-bit numbers; glibc pays its genuine per-call lock
/// and cannot be parallelized (single hidden state — the paper's
/// "not scalable" row in Table I).
pub fn fig6(sizes: &[usize], seed: u64) -> Vec<Fig6Row> {
    let cores = rayon::current_num_threads();
    let measured_parallel = cores >= MODELED_CPU_CORES;
    let lanes = ExpanderLanes::new(seed);
    sizes
        .iter()
        .map(|&n| {
            let hybrid_cpu_ns = if measured_parallel {
                let t0 = Instant::now();
                let mut out = vec![0u64; n];
                lanes
                    .fill(&mut out, MODELED_CPU_CORES)
                    .expect("a positive core count");
                std::hint::black_box(&out);
                t0.elapsed().as_nanos() as f64
            } else {
                // Measure one walk; scale by the modeled core count.
                let mut rng = lanes.lane(0);
                let t0 = Instant::now();
                let mut acc = 0u64;
                for _ in 0..n {
                    acc ^= rng.get_next_rand();
                }
                std::hint::black_box(acc);
                t0.elapsed().as_nanos() as f64 / MODELED_CPU_CORES as f64
            };

            // glibc rand() with its real lock: four calls per 64-bit
            // number, one stream, one core — it cannot use more.
            let g = hprng_baselines::LockedGlibcRand::new(seed as u32);
            let t1 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..n {
                let hi =
                    ((g.next_rand() >> 15) as u64) << 48 | ((g.next_rand() >> 15) as u64) << 32;
                let lo = ((g.next_rand() >> 15) as u64) << 16 | (g.next_rand() >> 15) as u64;
                acc = acc.wrapping_add(hi | lo);
            }
            std::hint::black_box(acc);
            let glibc_ns = t1.elapsed().as_nanos() as f64;
            Fig6Row {
                n,
                hybrid_cpu_ns,
                glibc_ns,
                measured_parallel,
            }
        })
        .collect()
}

/// Prints Figure 6.
pub fn print_fig6(rows: &[Fig6Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.n as f64 / 1e6),
                ms(r.hybrid_cpu_ns),
                ms(r.glibc_ns),
                format!("{:.2}x", r.glibc_ns / r.hybrid_cpu_ns),
            ]
        })
        .collect();
    print_table(
        "Figure 6: CPU-only generator vs glibc rand() (64-bit numbers)",
        &["size (M)", "Hybrid-CPU (ms)", "rand() (ms)", "speedup"],
        &table,
    );
    if let Some(r) = rows.first() {
        if !r.measured_parallel {
            println!(
                "(multicore column modeled as single-walk wall / {MODELED_CPU_CORES} cores — this host exposes {} CPU(s))",
                rayon::current_num_threads()
            );
        }
    }
}

/// One row of Figure 7.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// List size.
    pub n: usize,
    /// Simulated Phase-I device ns per strategy.
    pub mt_ns: f64,
    /// Batch glibc (the hybrid baseline of \[3\]).
    pub glibc_ns: f64,
    /// On-demand expander (this paper).
    pub ondemand_ns: f64,
    /// Bits produced by the batch strategy.
    pub batch_bits: u64,
    /// Bits produced by the on-demand strategy.
    pub ondemand_bits: u64,
    /// Host wall time of the real on-demand run (sanity column).
    pub ondemand_wall_ns: f64,
}

/// Composes the simulated Phase-I time from a run's per-iteration live
/// counts under one of the three supply models. The FIS kernel itself is
/// identical across strategies; what differs is where the coin bits come
/// from:
///
/// * Pure GPU MT — bits generated inside the kernel, costing device time
///   serially (same engine as the splice kernel).
/// * Hybrid batch (glibc) — the CPU feeds `n` bits (the upper bound) every
///   iteration. Feed, PCIe transfer and kernel are pipelined on three
///   engines (§II's asynchronous streams), so the steady-state period of
///   an iteration is the **maximum** of the three, not their sum.
/// * Hybrid on-demand — identical pipeline, but only the live nodes' bits
///   are fed and shipped.
fn fig7_sim_ns(
    cfg: &hprng_gpu_sim::DeviceConfig,
    cost: &CostModel,
    live_history: &[usize],
    n: usize,
    strategy: RandomnessStrategy,
) -> f64 {
    use crate::simsupport::{LIST_OP_CYCLES, MT_INKERNEL_CYCLES_PER_WORD};
    let mut total = 0.0;
    for &live in live_history {
        let kernel_ns = device_ns_for_cycles(cfg, (live as u64 * LIST_OP_CYCLES) as f64);
        let words = |bits: usize| bits.div_ceil(64);
        total += match strategy {
            RandomnessStrategy::BatchMt => {
                kernel_ns
                    + device_ns_for_cycles(
                        cfg,
                        (words(n) as u64 * MT_INKERNEL_CYCLES_PER_WORD) as f64,
                    )
            }
            RandomnessStrategy::BatchGlibc | RandomnessStrategy::OnDemandExpander => {
                let w = if strategy == RandomnessStrategy::BatchGlibc {
                    words(n)
                } else {
                    words(live)
                };
                let feed_ns = w as f64 * cost.cpu_ns_per_word / cost.feed_workers.max(1) as f64;
                let transfer_ns = cfg.pcie.transfer_ns(w * 8);
                kernel_ns.max(feed_ns).max(transfer_ns)
            }
        };
    }
    total
}

/// Figure 7: list-ranking Phase I across strategies and sizes. The FIS
/// algorithm runs for real (ranks are verified against the sequential
/// baseline in tests); the reported times compose the measured
/// per-iteration live counts with the calibrated device model, the same
/// policy as Figures 3 and 8.
pub fn fig7(sizes: &[usize], seed: u64) -> Vec<Fig7Row> {
    let cfg = DeviceConfig::tesla_c1060();
    let cost = CostModel::default();
    sizes
        .iter()
        .map(|&n| {
            let list = LinkedList::random(n, &mut hprng_baselines::SplitMix64::new(seed));
            let (_, mt) = rank_list(&list, RandomnessStrategy::BatchMt, seed);
            let (_, glibc) = rank_list(&list, RandomnessStrategy::BatchGlibc, seed);
            let (_, od) = rank_list(&list, RandomnessStrategy::OnDemandExpander, seed);
            Fig7Row {
                n,
                mt_ns: fig7_sim_ns(
                    &cfg,
                    &cost,
                    &mt.live_history,
                    n,
                    RandomnessStrategy::BatchMt,
                ),
                glibc_ns: fig7_sim_ns(
                    &cfg,
                    &cost,
                    &glibc.live_history,
                    n,
                    RandomnessStrategy::BatchGlibc,
                ),
                ondemand_ns: fig7_sim_ns(
                    &cfg,
                    &cost,
                    &od.live_history,
                    n,
                    RandomnessStrategy::OnDemandExpander,
                ),
                batch_bits: glibc.bits_produced,
                ondemand_bits: od.bits_produced,
                ondemand_wall_ns: od.phase1_ns,
            }
        })
        .collect()
}

/// Prints Figure 7.
pub fn print_fig7(rows: &[Fig7Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.n as f64 / 1e6),
                ms(r.mt_ns),
                ms(r.glibc_ns),
                ms(r.ondemand_ns),
                format!("{:.0}%", 100.0 * (1.0 - r.ondemand_ns / r.glibc_ns)),
                format!("{:.1}x", r.batch_bits as f64 / r.ondemand_bits as f64),
                ms(r.ondemand_wall_ns),
            ]
        })
        .collect();
    print_table(
        "Figure 7: list ranking Phase I (simulated device; paper reports ~40% saving)",
        &[
            "size (M)",
            "PureGPU-MT (ms)",
            "Hybrid-glibc (ms)",
            "Hybrid-ourPRNG (ms)",
            "saving",
            "bit waste",
            "host wall (ms)",
        ],
        &table,
    );
}

/// One row of Figure 8.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Photons simulated.
    pub photons: u64,
    /// "Original" simulated device ns (buffered MWC).
    pub original_sim_ns: f64,
    /// Hybrid simulated device ns.
    pub hybrid_sim_ns: f64,
    /// Original wall ns (host execution).
    pub original_wall_ns: f64,
    /// Hybrid wall ns.
    pub hybrid_wall_ns: f64,
    /// Clashes under the 32-bit MWC tags.
    pub original_clashes: u64,
    /// Clashes under the hybrid 64-bit tags.
    pub hybrid_clashes: u64,
}

/// Figure 8: photon migration, Original (buffered MWC) vs Hybrid.
///
/// The physical transport runs for real (host wall times are reported);
/// the device times compose the measured work counters with the calibrated
/// per-operation costs, the same policy as Figure 3 (see
/// `CostModel`'s calibration note).
pub fn fig8(photon_counts: &[u64], seed: u64) -> Vec<Fig8Row> {
    let cfg = DeviceConfig::tesla_c1060();
    let cost = CostModel::default();
    let tissue = Tissue::three_layer();
    photon_counts
        .iter()
        .map(|&photons| {
            let orig = run_simulation(
                &tissue,
                photons,
                &SimConfig {
                    seed,
                    supply: RandomSupply::BufferedMwc { chunk: 4096 },
                    chunk_size: 4096,
                    grid: None,
                },
            );
            let hyb = run_simulation(
                &tissue,
                photons,
                &SimConfig {
                    seed,
                    supply: RandomSupply::InlineHybrid,
                    chunk_size: 4096,
                    grid: None,
                },
            );
            let interaction_cycles = |o: &hprng_montecarlo::SimOutput| {
                o.interactions as f64 * PHOTON_INTERACTION_CYCLES as f64
            };
            let original_sim_ns = device_ns_for_cycles(
                &cfg,
                interaction_cycles(&orig)
                    + orig.randoms_used as f64 * MWC_BUFFERED_CYCLES_PER_RANDOM as f64
                    + orig.clashes as f64 * CLASH_PENALTY_CYCLES as f64,
            );
            let hybrid_sim_ns = device_ns_for_cycles(
                &cfg,
                interaction_cycles(&hyb)
                    + hyb.randoms_used as f64 * (cost.walk_cycles_per_step * 64) as f64
                    + hyb.clashes as f64 * CLASH_PENALTY_CYCLES as f64,
            );
            Fig8Row {
                photons,
                original_sim_ns,
                hybrid_sim_ns,
                original_wall_ns: orig.wall_ns,
                hybrid_wall_ns: hyb.wall_ns,
                original_clashes: orig.clashes,
                hybrid_clashes: hyb.clashes,
            }
        })
        .collect()
}

/// Prints Figure 8.
pub fn print_fig8(rows: &[Fig8Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.photons as f64 / 1e6),
                ms(r.original_sim_ns),
                ms(r.hybrid_sim_ns),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - r.hybrid_sim_ns / r.original_sim_ns)
                ),
                r.original_clashes.to_string(),
                r.hybrid_clashes.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 8: photon migration (simulated device; paper reports ~20% speedup)",
        &[
            "photons (M)",
            "Original (ms)",
            "Hybrid (ms)",
            "speedup",
            "MWC clashes",
            "Hybrid clashes",
        ],
        &table,
    );
}

/// Figure 7 (device variant): Phase I routed through a pipeline session —
/// every live node draws `GetNextRand()` from its own lane, so the
/// FEED/TRANSFER/GENERATE timeline and the busy fractions are *emergent*,
/// with no closed-form supply model at all. The timeline covers the PRNG
/// pipeline (the paper's contended resource); the selection/splice kernels
/// run host-side.
pub fn fig7_device(sizes: &[usize], seed: u64) {
    use hprng_listrank::reduce_on_session;
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&n| {
            let list = LinkedList::random(n, &mut hprng_baselines::SplitMix64::new(seed));
            let target = ((n as f64) / (n as f64).log2()).ceil() as usize;
            let mut prng =
                HybridPrng::new(DeviceConfig::tesla_c1060(), HybridParams::default(), seed);
            let mut session = prng.try_session(n).expect("non-zero walk count");
            let red = reduce_on_session(&list, target, &mut session);
            let stats = session.stats();
            vec![
                format!("{:.2}", n as f64 / 1e6),
                ms(stats.sim_ns),
                red.iterations.to_string(),
                red.live_count.to_string(),
                format!("{:.0}%", stats.cpu_busy * 100.0),
                format!("{:.0}%", stats.gpu_busy * 100.0),
                stats.feed_words.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 7 (device-resident): on-demand Phase I, fully simulated",
        &[
            "size (M)",
            "phase I (ms)",
            "iters",
            "live left",
            "CPU busy",
            "GPU busy",
            "feed words",
        ],
        &rows,
    );
}

/// The headline number: simulated GNumbers/s of the hybrid generator.
pub fn headline(seed: u64) -> (f64, f64) {
    let mut hybrid = HybridPrng::tesla(seed);
    let (_, stats) = hybrid.try_generate(4_000_000).expect("non-zero request");
    (stats.gnumbers_per_s, stats.wall_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_hybrid_wins_by_about_two() {
        let rows = fig3(&[1_000_000], 1);
        let r = &rows[0];
        assert!(r.mt_ns > r.hybrid_ns, "MT should lose");
        assert!(r.curand_ns > r.hybrid_ns, "CURAND should lose");
        let ratio = r.mt_ns / r.hybrid_ns;
        assert!((1.3..4.0).contains(&ratio), "MT/Hybrid ratio {ratio}");
    }

    #[test]
    fn fig5_is_u_shaped() {
        let rows = fig5(1_000_000, &[1, 10, 100, 1000, 5000], 2);
        let t: Vec<f64> = rows.iter().map(|r| r.sim_ns).collect();
        // The optimum is at an interior batch size.
        let min_idx = t
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(min_idx > 0, "minimum at the smallest batch: {t:?}");
        assert!(min_idx < t.len() - 1, "minimum at the largest batch: {t:?}");
    }

    #[test]
    fn fig7_reproduces_the_paper_ordering() {
        let rows = fig7(&[1_000_000], 3);
        let r = &rows[0];
        // Paper: Pure-GPU-MT slowest, hybrid-glibc next, on-demand fastest
        // by roughly 40%.
        assert!(
            r.mt_ns > r.glibc_ns,
            "MT {} vs glibc {}",
            r.mt_ns,
            r.glibc_ns
        );
        assert!(
            r.ondemand_ns < r.glibc_ns,
            "on-demand {} vs batch {}",
            r.ondemand_ns,
            r.glibc_ns
        );
        let saving = 1.0 - r.ondemand_ns / r.glibc_ns;
        assert!((0.1..0.7).contains(&saving), "saving {saving}");
        assert!(r.batch_bits > 2 * r.ondemand_bits);
    }

    #[test]
    fn fig8_hybrid_is_faster_in_sim() {
        let rows = fig8(&[50_000], 4);
        let r = &rows[0];
        assert!(r.hybrid_sim_ns < r.original_sim_ns);
        let speedup = 1.0 - r.hybrid_sim_ns / r.original_sim_ns;
        assert!((0.05..0.6).contains(&speedup), "speedup {speedup}");
    }
}
