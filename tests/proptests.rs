//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the generator, the applications and the device model.

use hybrid_prng::baselines::GlibcRand;
use hybrid_prng::baselines::SplitMix64;
use hybrid_prng::gpu::DeviceConfig;
use hybrid_prng::listrank::hybrid::{rank_list, RandomnessStrategy};
use hybrid_prng::listrank::{sequential_rank, wyllie_rank, LinkedList};
use hybrid_prng::montecarlo::{run_simulation, RandomSupply, SimConfig, Tissue};
use hybrid_prng::prng::RngBitSource;
use hybrid_prng::prng::{ExpanderWalkRng, HybridParams, HybridPrng, WalkParams};
use proptest::prelude::*;
use rand_core::RngCore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The three-phase ranking equals the sequential ground truth on
    /// arbitrary random lists under every strategy.
    #[test]
    fn ranking_is_correct_for_arbitrary_lists(
        n in 64usize..5_000,
        list_seed in any::<u64>(),
        rank_seed in any::<u64>(),
        strategy_idx in 0usize..3,
    ) {
        let strategy = [
            RandomnessStrategy::OnDemandExpander,
            RandomnessStrategy::BatchGlibc,
            RandomnessStrategy::BatchMt,
        ][strategy_idx];
        let list = LinkedList::random(n, &mut SplitMix64::new(list_seed));
        let expected = sequential_rank(&list);
        let (ranks, _) = rank_list(&list, strategy, rank_seed);
        prop_assert_eq!(ranks, expected);
    }

    /// Wyllie agrees with sequential on arbitrary lists.
    #[test]
    fn wyllie_is_correct_for_arbitrary_lists(n in 1usize..2_000, seed in any::<u64>()) {
        let list = LinkedList::random(n, &mut SplitMix64::new(seed));
        prop_assert_eq!(wyllie_rank(&list), sequential_rank(&list));
    }

    /// Photon migration conserves energy for arbitrary single-layer media.
    #[test]
    fn photon_energy_conserved(
        mua in 0.05f64..5.0,
        mus in 0.5f64..50.0,
        g in -0.5f64..0.95,
        thickness in 0.05f64..2.0,
        seed in any::<u64>(),
    ) {
        let tissue = Tissue::single_layer(mua, mus, g, thickness);
        let out = run_simulation(
            &tissue,
            2_000,
            &SimConfig { seed, supply: RandomSupply::InlineHybrid, chunk_size: 512, grid: None },
        );
        let balance = out.total_weight() / out.photons as f64;
        prop_assert!((balance - 1.0).abs() < 5e-3, "balance {}", balance);
    }

    /// The hybrid pipeline always returns exactly the requested count and a
    /// deterministic stream per seed, for arbitrary counts and batch sizes.
    #[test]
    fn pipeline_count_and_determinism(
        n in 1usize..3_000,
        batch in 1u32..300,
        seed in any::<u64>(),
    ) {
        let params = HybridParams::builder().batch_size(batch).build().unwrap();
        let mut a = HybridPrng::new(DeviceConfig::test_tiny(), params, seed);
        let mut b = HybridPrng::new(DeviceConfig::test_tiny(), params, seed);
        let (xa, sa) = a.try_generate(n).unwrap();
        let (xb, _) = b.try_generate(n).unwrap();
        prop_assert_eq!(xa.len(), n);
        prop_assert_eq!(xa, xb);
        prop_assert_eq!(sa.numbers, n);
    }

    /// The walk generator's outputs equal the pipeline's for one thread:
    /// same construction, same bits → structurally valid vertex labels
    /// (never stuck, never repeating short cycles).
    #[test]
    fn walk_outputs_have_no_short_cycles(seed in any::<u64>(), l in 4u32..128) {
        let params = WalkParams::builder().walk_len(l).build().unwrap();
        let mut rng = ExpanderWalkRng::with_params(
            RngBitSource::new(GlibcRand::new(seed as u32)),
            params,
        );
        let outs: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        // 64 outputs over 2^64 labels: any duplicate betrays a degenerate
        // walk (e.g. all-zero bits would self-loop forever).
        prop_assert!(sorted.len() >= outs.len() - 1, "walk revisits labels");
    }

    /// Bit accounting is exact: every generated number consumes exactly
    /// `walk_len` chunks, one per step.
    #[test]
    fn chunk_accounting_is_exact(seed in any::<u64>(), k in 1u64..200) {
        let mut rng = ExpanderWalkRng::from_seed_u64(seed);
        let warmup = rng.chunks_consumed();
        for _ in 0..k {
            rng.next_u64();
        }
        prop_assert_eq!(rng.chunks_consumed() - warmup, k * 64);
    }
}
