//! The three-phase hybrid list-ranking algorithm (§V) with pluggable
//! randomness strategies — the Figure 7 experiment.
//!
//! Phase I reduces the list to `n / log₂ n` nodes with the FIS procedure
//! (Algorithm 3), Phase II ranks the remnant with Helman–JáJà, Phase III
//! reinserts the removed nodes in reverse order. The three strategies are
//! the paper's three curves:
//!
//! * [`RandomnessStrategy::OnDemandExpander`] — "Hybrid Time (Our PRNG)":
//!   the expander-walk generator produces exactly one bit per live node per
//!   iteration.
//! * [`RandomnessStrategy::BatchGlibc`] — "Hybrid Time (glibc rand)": the
//!   baseline of \[3\], which must provision the upper bound (`n` bits) every
//!   iteration because the demand is unknown a priori.
//! * [`RandomnessStrategy::BatchMt`] — "Pure GPU MT": batch provisioning
//!   from a Mersenne-Twister stream.

use crate::fis::{reduce_list, reinsert_ranks, BatchBits, BitProvider, OnDemandBits, TappedBits};
use crate::helman_jaja::helman_jaja_engine;
use crate::list::{LinkedList, NIL};
use crate::sequential::sequential_rank;
use hprng_baselines::{GlibcRand, Mt19937_64};
use hprng_core::{ExpanderWalkRng, ScalarRng};
use hprng_telemetry::{Recorder, Stage, WordTap};
use rand_core::SeedableRng;
use std::time::Instant;

/// How Phase I's random bits are provisioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RandomnessStrategy {
    /// On-demand expander-walk generator (the paper's contribution).
    OnDemandExpander,
    /// Worst-case batches from glibc `rand()` (the baseline of \[3\]).
    BatchGlibc,
    /// Worst-case batches from MT19937-64 (the "Pure GPU MT" curve).
    BatchMt,
}

impl RandomnessStrategy {
    /// The curve label used in Figure 7.
    pub fn label(self) -> &'static str {
        match self {
            RandomnessStrategy::OnDemandExpander => "Hybrid (our PRNG)",
            RandomnessStrategy::BatchGlibc => "Hybrid (glibc rand)",
            RandomnessStrategy::BatchMt => "Pure GPU MT",
        }
    }
}

/// Instrumentation of one ranking run.
#[derive(Clone, Debug, PartialEq)]
pub struct RankStats {
    /// Wall time of Phase I (reduction), nanoseconds.
    pub phase1_ns: f64,
    /// Wall time of Phase II (Helman–JáJà on the remnant), nanoseconds.
    pub phase2_ns: f64,
    /// Wall time of Phase III (reinsertion), nanoseconds.
    pub phase3_ns: f64,
    /// FIS iterations performed.
    pub iterations: usize,
    /// Live nodes after Phase I.
    pub live_after_reduce: usize,
    /// Random bits actually consumed by the FIS selection.
    pub bits_consumed: u64,
    /// Random bits *produced* by the provider (≥ consumed; the gap is the
    /// batch strategies' waste).
    pub bits_produced: u64,
    /// Live-node count at the start of every FIS iteration.
    pub live_history: Vec<usize>,
}

impl RankStats {
    /// Total wall time across the three phases.
    pub fn total_ns(&self) -> f64 {
        self.phase1_ns + self.phase2_ns + self.phase3_ns
    }
}

/// Ranks `list` with the three-phase algorithm under the given randomness
/// strategy. Returns per-node distances from the head plus instrumentation.
pub fn rank_list(
    list: &LinkedList,
    strategy: RandomnessStrategy,
    seed: u64,
) -> (Vec<u32>, RankStats) {
    let mut recorder = Recorder::new();
    rank_list_with_telemetry(list, strategy, seed, &mut recorder)
}

/// [`rank_list`] with observability: each phase is recorded as a
/// [`Stage::App`] span, the per-round FIS live-set size lands in the
/// `fis_live` series (x = round index), and the bits the selection consumed
/// and the provider produced land in the `random_bits_consumed` /
/// `random_bits_produced` counters.
pub fn rank_list_with_telemetry(
    list: &LinkedList,
    strategy: RandomnessStrategy,
    seed: u64,
    recorder: &mut Recorder,
) -> (Vec<u32>, RankStats) {
    rank_list_impl(list, strategy, seed, recorder, None)
}

/// [`rank_list_with_telemetry`] with a quality tap on the FIS rounds: the
/// coin bits Phase I consumes are repacked into 64-bit words (LSB first,
/// carrying remainders across rounds so no padding biases the stream) and
/// offered to `tap`. This watches the randomness *at the point of use* —
/// after provider batching — which is exactly where correlated sub-streams
/// would corrupt the reduction.
pub fn rank_list_monitored(
    list: &LinkedList,
    strategy: RandomnessStrategy,
    seed: u64,
    recorder: &mut Recorder,
    tap: &mut dyn WordTap,
) -> (Vec<u32>, RankStats) {
    rank_list_impl(list, strategy, seed, recorder, Some(tap))
}

fn rank_list_impl(
    list: &LinkedList,
    strategy: RandomnessStrategy,
    seed: u64,
    recorder: &mut Recorder,
    tap: Option<&mut dyn WordTap>,
) -> (Vec<u32>, RankStats) {
    let n = list.len();
    if n < 64 {
        return rank_small(list);
    }

    let base: Box<dyn BitProvider> = match strategy {
        RandomnessStrategy::OnDemandExpander => {
            Box::new(OnDemandBits::new(ExpanderWalkRng::from_seed_u64(seed)))
        }
        RandomnessStrategy::BatchGlibc => Box::new(BatchBits::new(
            ScalarRng::new(GlibcRand::seed_from_u64(seed)),
            n,
        )),
        RandomnessStrategy::BatchMt => Box::new(BatchBits::new(
            ScalarRng::new(Mt19937_64::seed_from_u64(seed)),
            n,
        )),
    };
    let mut provider: Box<dyn BitProvider + '_> = match tap {
        Some(tap) => Box::new(TappedBits::new(base, tap)),
        None => base,
    };
    rank_list_over(list, provider.as_mut(), seed, recorder)
}

/// The n < 64 short-circuit: too small for the machinery to pay off; the
/// measured phases are what matters for benchmarks, so do it directly.
fn rank_small(list: &LinkedList) -> (Vec<u32>, RankStats) {
    let t0 = Instant::now();
    let ranks = sequential_rank(list);
    let stats = RankStats {
        phase1_ns: t0.elapsed().as_nanos() as f64,
        phase2_ns: 0.0,
        phase3_ns: 0.0,
        iterations: 0,
        live_after_reduce: list.len(),
        bits_consumed: 0,
        bits_produced: 0,
        live_history: Vec::new(),
    };
    (ranks, stats)
}

/// The three-phase algorithm over an arbitrary coin-bit provider: the
/// strategy enum is a thin front for this. To draw Phase I's coins on
/// demand from any [`OnDemandRng`](hprng_core::OnDemandRng) lane, wrap it
/// in [`OnDemandBits`]. `seed` feeds only Phase II's splitter selection;
/// Phase I's coins come entirely from `provider`.
pub fn rank_list_over(
    list: &LinkedList,
    provider: &mut dyn BitProvider,
    seed: u64,
    recorder: &mut Recorder,
) -> (Vec<u32>, RankStats) {
    let n = list.len();
    if n < 64 {
        return rank_small(list);
    }
    let target = ((n as f64) / (n as f64).log2()).ceil() as usize;

    // Phase I: FIS reduction.
    let t1 = Instant::now();
    let span = recorder.start_span(Stage::App, "phase1_fis_reduce");
    let red = reduce_list(list, target, provider);
    recorder.finish_span(span);
    let phase1_ns = t1.elapsed().as_nanos() as f64;
    for (round, &live) in red.live_history.iter().enumerate() {
        recorder.push_point("fis_live", round as f64, live as f64);
    }
    recorder.add("random_bits_consumed", red.bits_consumed as f64);

    // Phase II: Helman–JáJà over the live chain, weighted by the reduced
    // distances.
    let t2 = Instant::now();
    let span = recorder.start_span(Stage::App, "phase2_helman_jaja");
    let live_nodes: Vec<u32> = (0..n as u32).filter(|&v| red.live[v as usize]).collect();
    let sublists = 4 * rayon::current_num_threads();
    let mut splitter_rng = hprng_baselines::SplitMix64::new(seed ^ 0xFEED);
    let dist = &red.dist;
    let mut ranks = helman_jaja_engine(
        &red.succ,
        red.head,
        &live_nodes,
        |v| dist[v as usize],
        sublists,
        &mut splitter_rng,
    );
    recorder.finish_span(span);
    let phase2_ns = t2.elapsed().as_nanos() as f64;

    // Phase III: reinsertion in reverse removal order.
    let t3 = Instant::now();
    let span = recorder.start_span(Stage::App, "phase3_reinsert");
    reinsert_ranks(&red, &mut ranks);
    recorder.finish_span(span);
    let phase3_ns = t3.elapsed().as_nanos() as f64;
    recorder.add("random_bits_produced", provider.bits_produced() as f64);

    let stats = RankStats {
        phase1_ns,
        phase2_ns,
        phase3_ns,
        iterations: red.iterations,
        live_after_reduce: red.live_count,
        bits_consumed: red.bits_consumed,
        bits_produced: provider.bits_produced(),
        live_history: red.live_history,
    };
    (ranks, stats)
}

/// Convenience used by tests and examples: checks a ranking against the
/// sequential ground truth.
pub fn verify_ranks(list: &LinkedList, ranks: &[u32]) -> bool {
    if ranks.len() != list.len() {
        return false;
    }
    let mut cur = list.head;
    let mut r = 0u32;
    while cur != NIL {
        if ranks[cur as usize] != r {
            return false;
        }
        r += 1;
        cur = list.succ[cur as usize];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprng_baselines::SplitMix64;

    #[test]
    fn all_strategies_produce_correct_ranks() {
        let list = LinkedList::random(20_000, &mut SplitMix64::new(1));
        let expected = sequential_rank(&list);
        for strategy in [
            RandomnessStrategy::OnDemandExpander,
            RandomnessStrategy::BatchGlibc,
            RandomnessStrategy::BatchMt,
        ] {
            let (ranks, stats) = rank_list(&list, strategy, 42);
            assert_eq!(ranks, expected, "{:?}", strategy);
            assert!(stats.live_after_reduce <= 20_000 / 14); // n / log₂ n
            assert!(verify_ranks(&list, &ranks));
        }
    }

    #[test]
    fn ordered_lists_work_too() {
        let list = LinkedList::ordered(5_000);
        let (ranks, _) = rank_list(&list, RandomnessStrategy::OnDemandExpander, 7);
        assert!(verify_ranks(&list, &ranks));
    }

    #[test]
    fn tiny_lists_short_circuit() {
        let list = LinkedList::random(10, &mut SplitMix64::new(2));
        let (ranks, stats) = rank_list(&list, RandomnessStrategy::BatchGlibc, 3);
        assert!(verify_ranks(&list, &ranks));
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn on_demand_produces_fewer_bits() {
        let list = LinkedList::random(50_000, &mut SplitMix64::new(3));
        let (_, od) = rank_list(&list, RandomnessStrategy::OnDemandExpander, 9);
        let (_, batch) = rank_list(&list, RandomnessStrategy::BatchGlibc, 9);
        assert!(
            od.bits_produced * 2 < batch.bits_produced,
            "on-demand {} vs batch {}",
            od.bits_produced,
            batch.bits_produced
        );
        // Both consume the same order of bits (same algorithm, different
        // coins → slightly different iteration counts).
        assert!(od.bits_consumed > 0 && batch.bits_consumed > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let list = LinkedList::random(10_000, &mut SplitMix64::new(4));
        let (a, _) = rank_list(&list, RandomnessStrategy::OnDemandExpander, 5);
        let (b, _) = rank_list(&list, RandomnessStrategy::OnDemandExpander, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_mirrors_rank_stats() {
        let list = LinkedList::random(20_000, &mut SplitMix64::new(6));
        let mut recorder = Recorder::new();
        let (ranks, stats) = rank_list_with_telemetry(
            &list,
            RandomnessStrategy::OnDemandExpander,
            11,
            &mut recorder,
        );
        assert!(verify_ranks(&list, &ranks));
        // Per-round FIS size series matches the live history.
        let series = recorder.series("fis_live").unwrap();
        assert_eq!(series.len(), stats.live_history.len());
        for (i, &(x, y)) in series.iter().enumerate() {
            assert_eq!(x, i as f64);
            assert_eq!(y, stats.live_history[i] as f64);
        }
        assert_eq!(
            recorder.counter("random_bits_consumed"),
            stats.bits_consumed as f64
        );
        assert_eq!(
            recorder.counter("random_bits_produced"),
            stats.bits_produced as f64
        );
        // All three phases appear as App spans.
        let phases: Vec<&str> = recorder.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(phases.contains(&"phase1_fis_reduce"));
        assert!(phases.contains(&"phase2_helman_jaja"));
        assert!(phases.contains(&"phase3_reinsert"));
        assert!(recorder.spans().iter().all(|s| s.stage == Stage::App));
    }

    #[test]
    fn monitored_ranking_taps_exactly_the_consumed_coins() {
        struct CountingTap {
            words: u64,
        }
        impl WordTap for CountingTap {
            fn observe(&mut self, words: &[u64]) {
                self.words += words.len() as u64;
            }
        }
        let list = LinkedList::random(20_000, &mut SplitMix64::new(8));
        let mut recorder = Recorder::new();
        let mut tap = CountingTap { words: 0 };
        let (ranks, stats) = rank_list_monitored(
            &list,
            RandomnessStrategy::OnDemandExpander,
            11,
            &mut recorder,
            &mut tap,
        );
        assert!(verify_ranks(&list, &ranks));
        // One bit per live node per round, packed 64 to a word with the
        // remainder carried — the tap sees the consumed stream exactly.
        assert_eq!(tap.words, stats.bits_consumed / 64);
        // The tap is an observer: rankings are unchanged by monitoring.
        let (plain, _) = rank_list(&list, RandomnessStrategy::OnDemandExpander, 11);
        assert_eq!(ranks, plain);
    }

    #[test]
    fn verify_ranks_rejects_garbage() {
        let list = LinkedList::ordered(100);
        let mut ranks = sequential_rank(&list);
        assert!(verify_ranks(&list, &ranks));
        ranks[50] = 99;
        assert!(!verify_ranks(&list, &ranks));
        assert!(!verify_ranks(&list, &ranks[..50]));
    }
}
