//! Ablations of the design choices DESIGN.md calls out: walk length,
//! raw-bit source, and batch size (the last one is Figure 5 itself).

use crate::{ms, print_table};
use hprng_baselines::{GlibcRand, Lcg64, SplitMix64};
use hprng_core::{ExpanderWalkRng, RngBitSource, WalkParams};
use hprng_stattests::diehard::diehard_battery;
use rand_core::RngCore;
use std::time::Instant;

/// Walk-length ablation: quality (DIEHARD passes at the given scale) and
/// host throughput for l ∈ `lens`.
pub fn ablate_walk_len(lens: &[u32], scale: f64, seed: u64) {
    let battery = diehard_battery(scale);
    let rows: Vec<Vec<String>> = lens
        .iter()
        .map(|&l| {
            let params = WalkParams::builder().walk_len(l).build().unwrap();
            let mut rng = ExpanderWalkRng::with_params(
                RngBitSource::new(GlibcRand::new(seed as u32)),
                params,
            );
            let report = battery.run(&mut rng);

            // Throughput of 1M numbers on the host.
            let mut rng2 = ExpanderWalkRng::with_params(
                RngBitSource::new(GlibcRand::new(seed as u32)),
                params,
            );
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc ^= rng2.next_u64();
            }
            std::hint::black_box(acc);
            let wall = t0.elapsed().as_nanos() as f64;
            vec![
                l.to_string(),
                format!("{}/{}", report.passed, report.total),
                format!("{:.4}", report.ks_d),
                ms(wall),
            ]
        })
        .collect();
    print_table(
        "Ablation: walk length l (quality vs speed)",
        &["l", "DIEHARD", "KS D", "1M numbers (ms)"],
        &rows,
    );
}

/// Exposes an LCG's *entire* state as the output stream — low bits
/// included. This is the naive-generator quality floor: bit `i` of an LCG
/// state has period `2^(i+1)`, so the low half is catastrophically
/// non-random. The walk consumes such streams three bits at a time, making
/// this the honest "what does amplification buy" input.
struct RawLcgState(Lcg64);

impl RngCore for RawLcgState {
    fn next_u32(&mut self) -> u32 {
        self.0.next_state() as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_state()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        rand_core::impls::fill_bytes_via_next(self, dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand_core::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Raw glibc `rand()` words as an application would pack them (two calls
/// per 32-bit word, low 16 bits of the second call exposed).
struct RawGlibcWords(GlibcRand);

impl RngCore for RawGlibcWords {
    fn next_u32(&mut self) -> u32 {
        (self.0.next_rand() << 16) | (self.0.next_rand() & 0xFFFF)
    }
    fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        rand_core::impls::fill_bytes_via_next(self, dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand_core::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Bit-source ablation: how much the walk amplifies different raw sources
/// (§IV-C: "our technique can be seen as improving the quality of a naive
/// random number generator").
pub fn ablate_bit_source(scale: f64, seed: u64) {
    let battery = diehard_battery(scale);
    let mut rows = Vec::new();
    let mut run = |name: &str, rng: &mut dyn RngCore| {
        let report = battery.run(rng);
        rows.push(vec![
            name.to_string(),
            format!("{}/{}", report.passed, report.total),
            format!("{:.4}", report.ks_d),
        ]);
    };

    // Raw sources directly (full state / raw words — the streams the walk
    // actually consumes)…
    run(
        "glibc rand() raw",
        &mut RawGlibcWords(GlibcRand::new(seed as u32)),
    );
    run("LCG64 state raw", &mut RawLcgState(Lcg64::new(seed)));
    run("SplitMix64 raw", &mut SplitMix64::new(seed));
    // KISS: the classical *combination* approach to quality (three weak
    // streams XOR/added), the design the expander walk's *amplification*
    // competes with.
    run("KISS (combination)", &mut hprng_baselines::Kiss::new(seed));

    // …and the same sources feeding the expander walk.
    run(
        "walk ∘ glibc",
        &mut ExpanderWalkRng::with_params(
            RngBitSource::new(GlibcRand::new(seed as u32)),
            WalkParams::default(),
        ),
    );
    run(
        "walk ∘ LCG64 state",
        &mut ExpanderWalkRng::with_params(
            RngBitSource::new(RawLcgState(Lcg64::new(seed))),
            WalkParams::default(),
        ),
    );
    run(
        "walk ∘ SplitMix64",
        &mut ExpanderWalkRng::with_params(
            RngBitSource::new(SplitMix64::new(seed)),
            WalkParams::default(),
        ),
    );
    print_table(
        "Ablation: raw bit source vs expander-amplified (quality amplification, §IV-C)",
        &["generator", "DIEHARD", "KS D"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_run_at_tiny_scale() {
        // Smoke: the two ablations execute end to end.
        ablate_walk_len(&[8, 64], 0.05, 1);
        ablate_bit_source(0.05, 1);
    }
}
