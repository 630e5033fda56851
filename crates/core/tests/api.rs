//! External API tests: exercises the crate exactly as a downstream
//! dependency does, including the `rand` ecosystem integration.

use hprng_core::dist;
use hprng_core::{
    CostModel, ExpanderLanes, ExpanderWalkRng, HybridParams, HybridPrng, RngBitSource, WalkParams,
};
use hprng_gpu_sim::DeviceConfig;
use rand::Rng;
use rand_core::{RngCore, SeedableRng};

#[test]
fn works_as_a_rand_ecosystem_generator() {
    // The whole point of RngCore: the expander generator drives `rand`
    // APIs directly.
    let mut rng = ExpanderWalkRng::from_seed_u64(1);
    let x: f64 = rng.gen();
    assert!((0.0..1.0).contains(&x));
    let y: u32 = rng.gen_range(10..20);
    assert!((10..20).contains(&y));
    let coin: bool = rng.gen();
    let _ = coin;
}

#[test]
fn seedable_rng_contract() {
    let mut a = ExpanderWalkRng::from_seed([9, 0, 0, 0, 0, 0, 0, 0]);
    let mut b = ExpanderWalkRng::seed_from_u64(9);
    assert_eq!(a.next_u64(), b.next_u64());
}

#[test]
fn custom_walk_parameters_flow_through() {
    let params = WalkParams::builder()
        .walk_len(32)
        .warmup_len(16)
        .build()
        .unwrap();
    let mut rng = ExpanderWalkRng::with_params(
        RngBitSource::new(hprng_baselines::SplitMix64::new(4)),
        params,
    );
    assert_eq!(rng.params().walk_len, 32);
    let before = rng.chunks_consumed();
    rng.next_u64();
    assert_eq!(rng.chunks_consumed() - before, 32);
}

#[test]
fn hybrid_configuration_surface() {
    // All knobs reachable and effective.
    let params = HybridParams::builder()
        .batch_size(64)
        .cost(CostModel {
            kernel_launch_ns: 1_000.0,
            ..CostModel::default()
        })
        .copy_back(true)
        .build()
        .unwrap();
    let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), params, 5);
    let (nums, stats) = prng.try_generate(500).unwrap();
    assert_eq!(nums.len(), 500);
    assert!(stats.sim_ns > 0.0);
    assert_eq!(prng.params().batch_size, 64);
}

#[test]
fn expander_lanes_fill_is_a_drop_in_bulk_source() {
    let mut nums = vec![0u64; 10_000];
    ExpanderLanes::new(11).fill(&mut nums, 2).unwrap();
    // Mean of uniform u64 ≈ 2^63.
    let mean = nums.iter().map(|&v| v as f64).sum::<f64>() / nums.len() as f64;
    let expect = (u64::MAX / 2) as f64;
    assert!(
        (mean / expect - 1.0).abs() < 0.05,
        "mean ratio {}",
        mean / expect
    );
}

#[test]
fn distributions_compose_with_the_generator() {
    let mut rng = ExpanderWalkRng::from_seed_u64(21);
    let n = 5_000;
    let exp_mean: f64 = (0..n)
        .map(|_| dist::exponential(&mut rng, 4.0))
        .sum::<f64>()
        / n as f64;
    assert!((exp_mean - 0.25).abs() < 0.03, "exp mean {exp_mean}");
    let normals: Vec<f64> = (0..n).map(|_| dist::standard_normal(&mut rng)).collect();
    let nm = normals.iter().sum::<f64>() / n as f64;
    assert!(nm.abs() < 0.1, "normal mean {nm}");
    let mut perm: Vec<u32> = (0..50).collect();
    dist::shuffle(&mut rng, &mut perm);
    let mut sorted = perm.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
}

#[test]
fn sessions_expose_the_device_for_co_scheduled_kernels() {
    use hprng_gpu_sim::{Op, WorkUnit};
    let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), 6);
    let mut session = prng.try_session(32).unwrap();
    let _nums = session.try_next_batch(32).unwrap();
    // An application kernel on the same device shares the timeline.
    let mut data = vec![0u32; 32];
    session
        .device()
        .launch_map(WorkUnit::Other, &mut data, |ctx, x| {
            ctx.charge(Op::Alu, 10);
            *x = ctx.global_id() as u32;
        });
    let makespan_after = session.timeline().makespan_ns();
    assert!(makespan_after > 0.0);
    assert_eq!(data[31], 31);
}
