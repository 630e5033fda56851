//! Quickstart: draw pseudo random numbers from the expander-walk generator
//! three ways — single stream, multicore CPU, and the full simulated
//! hybrid pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hybrid_prng::prng::{ExpanderLanes, ExpanderWalkRng, HybridPrng};
use rand_core::RngCore;

fn main() {
    // 1. A single on-demand stream: one instance per thread is the
    //    thread-safety model (each owns an independent walk).
    let mut rng = ExpanderWalkRng::from_seed_u64(42);
    println!("single stream, on demand:");
    for i in 0..5 {
        println!("  #{i}: {:#018x}", rng.next_u64());
    }
    println!(
        "  ({} walk chunks consumed for {} numbers + warm-up)\n",
        rng.chunks_consumed(),
        rng.numbers_generated()
    );

    // 2. The multicore CPU variant (Figure 6's subject): one walk per CPU,
    //    each filling its own chunk of the output.
    let walks = rayon::current_num_threads();
    let mut batch = vec![0u64; 1_000_000];
    ExpanderLanes::new(42)
        .fill(&mut batch, walks)
        .expect("rayon runs at least one thread");
    println!(
        "CPU-parallel: generated {} numbers on {walks} walks; first = {:#018x}\n",
        batch.len(),
        batch[0]
    );

    // 3. The hybrid pipeline on the simulated Tesla C1060: FEED on the
    //    CPU, TRANSFER over PCIe, GENERATE on the device, overlapped.
    let mut hybrid = HybridPrng::tesla(42);
    let (numbers, stats) = hybrid.try_generate(1_000_000).expect("non-zero request");
    println!("hybrid pipeline: {} numbers", numbers.len());
    println!("  simulated time  : {:.3} ms", stats.sim_ns / 1e6);
    println!(
        "  simulated rate  : {:.3} GNumbers/s (paper: 0.07)",
        stats.gnumbers_per_s
    );
    println!("  CPU busy        : {:.1}%", stats.cpu_busy * 100.0);
    println!("  GPU busy        : {:.1}%", stats.gpu_busy * 100.0);
    println!("  FEED volume     : {} raw 64-bit words", stats.feed_words);
}
