//! The CPU-only variant of the generator (§IV-A, Figure 6).
//!
//! "Our hybrid generator can also work on other multicore architectures
//! with minor programmatic changes. … each core of the CPU runs threads
//! which perform random walks on the implicitly defined expander graph."
//! The paper implements this with OpenMP; we use rayon. Each worker owns an
//! independent [`ExpanderWalkRng`], so the construction is embarrassingly
//! parallel and thread-safe by design, unlike `glibc rand()`'s single
//! global state.

use crate::bitsource::RngBitSource;
use crate::error::HprngError;
use crate::params::WalkParams;
use crate::rng::ExpanderWalkRng;
use crate::seeding;
use hprng_baselines::GlibcRand;
use rayon::prelude::*;

/// A multicore CPU generator: `k` independent expander walks filling
/// disjoint output ranges in parallel.
#[derive(Clone, Debug)]
pub struct CpuParallelPrng {
    seed: u64,
    threads: usize,
    params: WalkParams,
}

impl CpuParallelPrng {
    /// Creates a generator with `threads` parallel walks. Zero is rejected
    /// through the same [`HprngError::InvalidParam`] path the parameter
    /// builders use; [`CpuParallelPrng::per_cpu`] asks for one walk per
    /// available CPU.
    pub fn try_new(seed: u64, threads: usize) -> Result<Self, HprngError> {
        Self::try_with_params(seed, threads, WalkParams::default())
    }

    /// [`CpuParallelPrng::try_new`] with explicit walk parameters.
    pub fn try_with_params(
        seed: u64,
        threads: usize,
        params: WalkParams,
    ) -> Result<Self, HprngError> {
        if threads == 0 {
            return Err(HprngError::InvalidParam {
                field: "threads",
                reason: "must be positive (use per_cpu() for one walk per available CPU)",
            });
        }
        Ok(Self {
            seed,
            threads,
            params,
        })
    }

    /// Creates a generator with one walk per available CPU.
    pub fn per_cpu(seed: u64) -> Self {
        Self::per_cpu_with_params(seed, WalkParams::default())
    }

    /// [`CpuParallelPrng::per_cpu`] with explicit walk parameters.
    pub fn per_cpu_with_params(seed: u64, params: WalkParams) -> Self {
        Self {
            seed,
            threads: rayon::current_num_threads(),
            params,
        }
    }

    /// Number of parallel walks.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fills `out` with pseudo random numbers, splitting the range evenly
    /// over the walks. Deterministic for a given `(seed, threads, params)`
    /// triple regardless of the rayon scheduling.
    pub fn fill(&self, out: &mut [u64]) {
        if out.is_empty() {
            return;
        }
        let chunk = out.len().div_ceil(self.threads);
        out.par_chunks_mut(chunk).enumerate().for_each(|(t, span)| {
            let mut rng = self.worker_rng(t as u64);
            for slot in span {
                *slot = rng.get_next_rand();
            }
        });
    }

    /// Generates `n` numbers into a fresh vector.
    pub fn generate(&self, n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        self.fill(&mut out);
        out
    }

    /// The generator used by worker `t` — exposed so tests and applications
    /// can reproduce a single worker's stream.
    pub fn worker_rng(&self, t: u64) -> ExpanderWalkRng<RngBitSource<GlibcRand>> {
        // Worker `t` is on-demand lane `t`: its glibc seed comes from the
        // crate-wide lane derivation, so workers are decorrelated even for
        // consecutive seeds.
        let glibc_seed = seeding::feed_seed(seeding::lane_seed(self.seed, t));
        ExpanderWalkRng::with_params(RngBitSource::new(GlibcRand::new(glibc_seed)), self.params)
    }
}

impl crate::ondemand::SplitOnDemand for CpuParallelPrng {
    type Lane = ExpanderWalkRng<RngBitSource<GlibcRand>>;

    fn label(&self) -> &'static str {
        "cpu-parallel"
    }

    fn lane(&self, index: u64) -> Self::Lane {
        self.worker_rng(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_thread_count() {
        let g = CpuParallelPrng::try_new(5, 4).unwrap();
        let a = g.generate(10_000);
        let b = g.generate(10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn workers_produce_disjoint_streams() {
        let g = CpuParallelPrng::try_new(5, 4).unwrap();
        let mut r0 = g.worker_rng(0);
        let mut r1 = g.worker_rng(1);
        let same = (0..100).filter(|_| r0.next_u64() == r1.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn first_chunk_matches_worker_zero() {
        let g = CpuParallelPrng::try_new(9, 4).unwrap();
        let out = g.generate(1000);
        let mut r0 = g.worker_rng(0);
        for &v in &out[..250] {
            assert_eq!(v, r0.next_u64());
        }
    }

    #[test]
    fn per_cpu_runs_one_walk_per_cpu() {
        let g = CpuParallelPrng::per_cpu(1);
        assert!(g.threads() >= 1);
        assert_eq!(g.threads(), rayon::current_num_threads());
        let explicit = CpuParallelPrng::try_new(1, g.threads()).unwrap();
        assert_eq!(g.generate(256), explicit.generate(256));
    }

    #[test]
    fn try_new_rejects_zero_threads() {
        let err = CpuParallelPrng::try_new(1, 0).unwrap_err();
        assert!(matches!(
            err,
            crate::HprngError::InvalidParam {
                field: "threads",
                ..
            }
        ));
        let g = CpuParallelPrng::try_new(1, 4).unwrap();
        assert_eq!(g.threads(), 4);
    }

    #[test]
    fn empty_and_tiny_outputs() {
        let g = CpuParallelPrng::try_new(1, 8).unwrap();
        let mut empty: [u64; 0] = [];
        g.fill(&mut empty);
        let out = g.generate(3); // fewer numbers than threads
        assert_eq!(out.len(), 3);
        assert!(out.iter().any(|&v| v != 0));
    }

    use rand_core::RngCore;
}
