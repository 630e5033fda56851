//! Figure 6: the CPU-only generator vs glibc rand() (wall clock).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hprng_baselines::GlibcRand;
use hprng_core::CpuParallelPrng;

fn bench_cpu_only(c: &mut Criterion) {
    const N: usize = 1_000_000;
    let mut group = c.benchmark_group("cpu_only_vs_glibc");
    group.throughput(Throughput::Elements(N as u64));
    group.sample_size(10);

    group.bench_function(BenchmarkId::from_parameter("hybrid-cpu-parallel"), |b| {
        let gen = CpuParallelPrng::per_cpu(1);
        let mut out = vec![0u64; N];
        b.iter(|| gen.fill(&mut out))
    });

    group.bench_function(BenchmarkId::from_parameter("glibc-rand-single"), |b| {
        let mut g = GlibcRand::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..N {
                acc = acc.wrapping_add(g.next_rand() as u64);
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cpu_only);
criterion_main!(benches);
