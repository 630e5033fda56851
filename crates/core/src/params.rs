//! Tunable parameters of the generator and of the simulated pipeline.

use crate::error::HprngError;

/// Parameters of the random walk itself (Algorithms 1 and 2).
///
/// Construct with [`WalkParams::default`] (the paper's 64/64 walk) or the
/// validating [`WalkParams::builder`]; the struct is `#[non_exhaustive]`
/// so new knobs can be added without breaking downstream code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct WalkParams {
    /// Warm-up walk length performed at initialization (Algorithm 1; the
    /// paper uses 64).
    pub warmup_len: u32,
    /// Walk length per generated number (Algorithm 2's `l`; the paper
    /// uses 64). Every step reads one 3-bit chunk, so this is also the
    /// chunks per number. Shorter walks are faster but mix less — see the
    /// walk-length ablation bench.
    pub walk_len: u32,
}

impl Default for WalkParams {
    fn default() -> Self {
        Self {
            warmup_len: 64,
            walk_len: 64,
        }
    }
}

impl WalkParams {
    /// 64-bit words of raw bits a thread needs to produce one number
    /// (21 three-bit chunks fit in a word): an engine lane's span per
    /// number, exact because every step reads one chunk.
    #[inline]
    pub fn words_per_number(&self) -> usize {
        (self.walk_len as usize).div_ceil(hprng_expander::bits::CHUNKS_PER_WORD)
    }

    /// A fluent, validating builder seeded from the paper's defaults.
    ///
    /// ```
    /// use hprng_core::WalkParams;
    /// let params = WalkParams::builder().walk_len(16).build().unwrap();
    /// assert_eq!(params.walk_len, 16);
    /// assert_eq!(params.warmup_len, 64); // unset fields keep defaults
    /// ```
    pub fn builder() -> WalkParamsBuilder {
        WalkParamsBuilder {
            params: WalkParams::default(),
        }
    }
}

/// Fluent builder for [`WalkParams`] (see [`WalkParams::builder`]).
#[derive(Clone, Debug)]
pub struct WalkParamsBuilder {
    params: WalkParams,
}

impl WalkParamsBuilder {
    /// Sets the warm-up walk length (zero is allowed: no warm-up).
    pub fn warmup_len(mut self, warmup_len: u32) -> Self {
        self.params.warmup_len = warmup_len;
        self
    }

    /// Sets the walk length per generated number.
    pub fn walk_len(mut self, walk_len: u32) -> Self {
        self.params.walk_len = walk_len;
        self
    }

    /// Validates and produces the parameters.
    pub fn build(self) -> Result<WalkParams, HprngError> {
        if self.params.walk_len == 0 {
            return Err(HprngError::InvalidParam {
                field: "walk_len",
                reason: "must be positive (each number needs at least one step)",
            });
        }
        Ok(self.params)
    }
}

/// The calibrated instruction-cost constants of the simulated comparison.
///
/// **Calibration note.** The structural behaviour of the pipeline (what
/// overlaps what, when the GPU stalls on the CPU, how batch size shifts the
/// balance) is *simulated* from first principles. The per-output instruction
/// charges below, however, are *fitted* to the throughput ratios the paper
/// measured on its 2012 hardware/software stack (Figure 3: hybrid ≈ 2×
/// faster than the SDK Mersenne-Twister sample and CURAND's device API),
/// because the absolute microarchitectural cost of that library code is not
/// recoverable from the paper. The repro harness prints these constants next
/// to every derived figure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Simulated cycles charged per expander-walk step. The walk is a
    /// serial dependency chain (each step's address depends on the
    /// previous), so on the C1060's in-order 4-stage pipeline a step costs
    /// far more than its 2–3 wrapping adds; 24 cycles/step folds in the
    /// dependent-issue stalls and the amortized raw-bit fetch.
    pub walk_cycles_per_step: u64,
    /// Cycles per output of the SDK Mersenne-Twister sample. Dominated by
    /// dependent global-memory round-trips on the per-thread state array at
    /// the sample's fixed 4096-thread geometry — far too few warps per SM
    /// to hide the ~550-cycle memory latency.
    pub mt_cycles_per_output: u64,
    /// Cycles per output of CURAND's device-API XORWOW: per-call state
    /// load/store from local (off-chip on the C1060) memory plus API
    /// overhead.
    pub curand_cycles_per_output: u64,
    /// Fixed kernel-launch overhead in nanoseconds (CUDA-era launches cost
    /// 5–10 µs; this drives the large-batch side of Figure 5's U-shape).
    pub kernel_launch_ns: f64,
    /// Host nanoseconds to produce one 64-bit word of raw bits with glibc
    /// `rand()` (two-plus calls plus packing) on one FEED worker.
    pub cpu_ns_per_word: f64,
    /// Number of CPU FEED workers (the paper's i7 has 4 cores + SMT).
    pub feed_workers: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            walk_cycles_per_step: 24,
            mt_cycles_per_output: 3_200,
            curand_cycles_per_output: 3_800,
            kernel_launch_ns: 7_000.0,
            cpu_ns_per_word: 6.0,
            feed_workers: 4,
        }
    }
}

/// Compatibility shim for code written against the three-mode engine.
///
/// The engine has one FEED schedule: the feed fills each batch inline on
/// the calling thread. Nothing in the workspace reads this enum; it keeps
/// one value so that code naming `PipelineMode::Auto` or calling
/// [`Engine::with_mode`](crate::Engine::with_mode) still compiles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PipelineMode {
    /// The one FEED schedule.
    #[default]
    Auto,
}

impl PipelineMode {
    /// Returns `self`: there is nothing left to resolve.
    pub fn resolve(self) -> PipelineMode {
        self
    }
}

/// Parameters of the full hybrid pipeline.
///
/// Construct with [`HybridParams::default`] (the paper's configuration) or
/// the validating [`HybridParams::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream code.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub struct HybridParams {
    /// Walk configuration.
    pub walk: WalkParams,
    /// Batch size `S`: numbers generated per thread (Figure 5 sweeps this;
    /// the paper's optimum is ≈ 100).
    pub batch_size: u32,
    /// Cost-model calibration.
    pub cost: CostModel,
    /// Whether `generate` copies the results back to the host (off by
    /// default: the paper's applications consume the numbers on the device).
    pub copy_back: bool,
}

impl Default for HybridParams {
    fn default() -> Self {
        Self {
            walk: WalkParams::default(),
            batch_size: 100,
            cost: CostModel::default(),
            copy_back: false,
        }
    }
}

impl HybridParams {
    /// A fluent, validating builder seeded from the paper's defaults.
    ///
    /// ```
    /// use hprng_core::HybridParams;
    /// let params = HybridParams::builder()
    ///     .batch_size(64)
    ///     .copy_back(true)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(params.batch_size, 64);
    /// ```
    pub fn builder() -> HybridParamsBuilder {
        HybridParamsBuilder {
            params: HybridParams::default(),
        }
    }
}

/// Fluent builder for [`HybridParams`] (see [`HybridParams::builder`]).
#[derive(Clone, Debug)]
pub struct HybridParamsBuilder {
    params: HybridParams,
}

impl HybridParamsBuilder {
    /// Sets the walk configuration.
    pub fn walk(mut self, walk: WalkParams) -> Self {
        self.params.walk = walk;
        self
    }

    /// Sets the batch size `S` (numbers per thread per kernel launch).
    pub fn batch_size(mut self, batch_size: u32) -> Self {
        self.params.batch_size = batch_size;
        self
    }

    /// Sets the cost-model calibration.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.params.cost = cost;
        self
    }

    /// Sets whether `generate` copies results back to the host.
    pub fn copy_back(mut self, copy_back: bool) -> Self {
        self.params.copy_back = copy_back;
        self
    }

    /// Validates and produces the parameters.
    pub fn build(self) -> Result<HybridParams, HprngError> {
        if self.params.batch_size == 0 {
            return Err(HprngError::InvalidParam {
                field: "batch_size",
                reason: "must be positive",
            });
        }
        if self.params.walk.walk_len == 0 {
            return Err(HprngError::InvalidParam {
                field: "walk.walk_len",
                reason: "must be positive (each number needs at least one step)",
            });
        }
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let w = WalkParams::default();
        assert_eq!(w.warmup_len, 64);
        assert_eq!(w.walk_len, 64);
        let h = HybridParams::default();
        assert_eq!(h.batch_size, 100);
    }

    #[test]
    fn words_per_number_rounds_up() {
        let w = WalkParams::default();
        // 64 chunks at 21 per word → 4 words.
        assert_eq!(w.words_per_number(), 4);
        let short = WalkParams {
            walk_len: 21,
            ..WalkParams::default()
        };
        assert_eq!(short.words_per_number(), 1);
        let shorter = WalkParams {
            walk_len: 22,
            ..WalkParams::default()
        };
        assert_eq!(shorter.words_per_number(), 2);
    }

    #[test]
    fn builders_validate() {
        let err = WalkParams::builder().walk_len(0).build().unwrap_err();
        assert!(matches!(
            err,
            HprngError::InvalidParam {
                field: "walk_len",
                ..
            }
        ));
        let err = HybridParams::builder().batch_size(0).build().unwrap_err();
        assert!(matches!(
            err,
            HprngError::InvalidParam {
                field: "batch_size",
                ..
            }
        ));
        let params = HybridParams::builder()
            .walk(WalkParams::builder().walk_len(21).build().unwrap())
            .batch_size(7)
            .build()
            .unwrap();
        assert_eq!(params.walk.words_per_number(), 1);
        assert_eq!(params.batch_size, 7);
    }
}
