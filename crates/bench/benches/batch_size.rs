//! Figure 5: pipeline cost vs batch size S (wall time of the simulated
//! pipeline; the simulated-time series is printed by `repro fig5`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hprng_core::{HybridParams, HybridPrng};
use hprng_gpu_sim::DeviceConfig;

fn bench_batch_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_size_sweep");
    group.sample_size(10);
    for s in [10u32, 100, 1000] {
        group.bench_function(BenchmarkId::from_parameter(s), |b| {
            b.iter(|| {
                let mut hybrid = HybridPrng::new(
                    DeviceConfig::tesla_c1060(),
                    HybridParams::builder().batch_size(s).build().unwrap(),
                    7,
                );
                hybrid.try_generate(200_000).unwrap().1.sim_ns
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_size);
criterion_main!(benches);
