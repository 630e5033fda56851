//! Probability amplification by expander walks.
//!
//! §IV-C notes that the construction "has connections to other works on
//! expander graphs such as probability amplification" (Motwani & Raghavan,
//! ch. 6): to reduce the error of a randomized decision procedure that uses
//! an `r`-bit seed, one can evaluate it on the vertices visited by a short
//! expander walk instead of on independent seeds — majority voting then
//! drives the error down exponentially in the walk length while consuming
//! only `r + O(k)` random bits instead of `k·r`.
//!
//! This module packages that classical technique over the production
//! Gabber–Galil graph: [`ExpanderSampler`] turns one 64-bit seed plus a
//! trickle of 3-bit steps into a sequence of correlated-but-well-spread
//! 64-bit sample seeds, and [`amplify_majority`] runs the vote.

use crate::bits::{BitSource, TriBitReader};
use crate::walk::Walk;
use crate::zm::Vertex;

/// Yields sample seeds along an expander walk: the walk takes `spacing`
/// steps between consecutive samples (spacing > 1 decorrelates consecutive
/// samples further at a cost of `3·spacing` bits each).
pub struct ExpanderSampler<S: BitSource> {
    walk: Walk,
    bits: TriBitReader<S>,
    spacing: u32,
}

impl<S: BitSource> ExpanderSampler<S> {
    /// Starts a sampler at the vertex labelled by `seed`.
    ///
    /// # Panics
    /// Panics if `spacing == 0`.
    pub fn new(seed: u64, source: S, spacing: u32) -> Self {
        assert!(spacing > 0, "spacing must be positive");
        Self {
            walk: Walk::new(Vertex::unpack(seed)),
            bits: TriBitReader::new(source),
            spacing,
        }
    }

    /// The next sample seed (advances the walk by `spacing` edges).
    pub fn next_sample(&mut self) -> u64 {
        self.walk.advance(self.spacing, &mut self.bits).pack()
    }

    /// Raw random bits consumed so far — the quantity amplification saves.
    pub fn bits_consumed(&self) -> u64 {
        self.bits.bits_consumed()
    }
}

/// Runs `decide` on `k` walk samples and returns the majority verdict.
///
/// For a procedure whose *true* answer is the majority outcome over the
/// whole seed space (error density < 1/2), the verdict is wrong with
/// probability decaying exponentially in `k` by the expander Chernoff
/// bound — while consuming `64 + 3·spacing·k` random bits in total.
///
/// # Panics
/// Panics if `k == 0`.
pub fn amplify_majority<S: BitSource>(
    sampler: &mut ExpanderSampler<S>,
    k: usize,
    mut decide: impl FnMut(u64) -> bool,
) -> bool {
    assert!(k > 0, "need at least one sample");
    let mut yes = 0usize;
    for _ in 0..k {
        if decide(sampler.next_sample()) {
            yes += 1;
        }
    }
    2 * yes > k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::FnBitSource;

    /// A deterministic pseudo-random bit source for the walk steps.
    fn source(seed: u64) -> FnBitSource<impl FnMut() -> u64> {
        let mut state = seed;
        FnBitSource(move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        })
    }

    /// A "bad" seed set of density 1/8: a fixed 3-bit pattern in the middle
    /// of the label (mid bits avoid interacting with the neighbour maps'
    /// low-order increments).
    fn is_bad(seed: u64) -> bool {
        (seed >> 20) & 0b111 == 0b101
    }

    #[test]
    fn sampler_visits_bad_set_at_its_density() {
        let mut sampler = ExpanderSampler::new(0x1234_5678_9abc_def0, source(1), 4);
        let n = 40_000;
        let bad = (0..n).filter(|_| is_bad(sampler.next_sample())).count();
        let frac = bad as f64 / n as f64;
        assert!(
            (frac - 0.125).abs() < 0.02,
            "bad-set density along the walk: {frac}"
        );
    }

    #[test]
    fn majority_is_correct_when_error_density_is_low() {
        // decide() is "wrong" on the bad 1/8 of seeds: majority over even a
        // short walk should almost always be right.
        let trials = 200;
        let mut wrong = 0;
        for t in 0..trials {
            let mut sampler = ExpanderSampler::new(0xABCD ^ (t as u64) << 32, source(t as u64), 2);
            // decide returns true on good seeds.
            let verdict = amplify_majority(&mut sampler, 25, |s| !is_bad(s));
            if !verdict {
                wrong += 1;
            }
        }
        assert!(wrong <= 2, "{wrong}/{trials} majority failures");
    }

    #[test]
    fn longer_walks_do_not_increase_error() {
        let error_rate = |k: usize| {
            let trials = 150;
            (0..trials)
                .filter(|&t| {
                    let mut s =
                        ExpanderSampler::new(0x9999 ^ (t as u64) << 24, source(100 + t as u64), 2);
                    !amplify_majority(&mut s, k, |seed| !is_bad(seed))
                })
                .count()
        };
        let short = error_rate(3);
        let long = error_rate(31);
        assert!(
            long <= short.max(1),
            "short-walk errors {short}, long-walk errors {long}"
        );
    }

    #[test]
    fn bit_budget_is_linear_in_samples() {
        let mut sampler = ExpanderSampler::new(7, source(7), 4);
        for _ in 0..10 {
            sampler.next_sample();
        }
        // 10 samples × 4 steps × 3 bits.
        assert_eq!(sampler.bits_consumed(), 120);
        // Independent sampling would need 10 × 64 = 640 bits.
        assert!(sampler.bits_consumed() < 640);
    }

    #[test]
    #[should_panic(expected = "spacing must be positive")]
    fn zero_spacing_rejected() {
        let _ = ExpanderSampler::new(1, source(1), 0);
    }
}
