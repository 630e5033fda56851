//! Golden determinism suite for the pipeline engine.
//!
//! The contract under test: for a fixed `(seed, params, threads)`, every
//! engine configuration — device-sim vs CPU-threads backend, any batch
//! pattern — produces the *same* numbers. Absolute pins of the output
//! hash and the feed-word count make the suite fail if the FEED path
//! changes a single word.

use hprng_core::pipeline::{Backend, CpuBackend, DeviceBackend, Engine};
use hprng_core::{GlibcFeed, HybridParams, HybridPrng, OnDemandRng, WalkParams};
use hprng_gpu_sim::{Device, DeviceConfig};

fn engine<B: Backend>(backend: B, seed: u64) -> Engine<B> {
    Engine::new(backend, Box::new(GlibcFeed::from_master_seed(seed)))
}

/// Runs a batch pattern on an engine and returns the concatenated output.
fn run_pattern<B: Backend>(engine: &mut Engine<B>, pattern: &[usize]) -> Vec<u64> {
    let mut all = Vec::new();
    for &count in pattern {
        all.extend(engine.try_next_batch(count).unwrap());
    }
    all
}

/// FNV-1a over the little-endian bytes, the repo's golden-hash idiom.
fn fnv(data: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn cpu_backend_equals_device_backend() {
    // Same feed + same params ⇒ same numbers, regardless of which platform
    // advances the walks.
    let params = HybridParams::default();
    let device = Device::new(DeviceConfig::test_tiny());
    let mut dev = engine(DeviceBackend::new(&device, params), 21);
    let mut cpu = engine(CpuBackend::new(params), 21);
    dev.initialize(80).unwrap();
    cpu.initialize(80).unwrap();
    let pattern = [80usize, 40, 80, 7];
    assert_eq!(
        run_pattern(&mut dev, &pattern),
        run_pattern(&mut cpu, &pattern)
    );
}

#[test]
fn non_default_walk_params_match_the_pin_on_both_backends() {
    // warmup_len 0 (no warm-up span) and a walk length that does not fill
    // whole words exercise the span-slicing edge cases of both backends.
    fn fingerprint<B: Backend>(mut e: Engine<B>) -> (u64, u64) {
        e.initialize(33).unwrap();
        let out = run_pattern(&mut e, &[33, 5, 33]);
        // The session accounting every `OnDemandRng` consumer reads: the
        // 71 words served and the same feed words the stats pin.
        let label = e.backend().label();
        assert_eq!(e.words_served(), 71, "{label} words served");
        let feed_words = e.stats().feed_words;
        assert_eq!(
            e.raw_words_consumed(),
            Some(feed_words),
            "{label} raw words"
        );
        (fnv(&out), feed_words)
    }
    let short = WalkParams::builder()
        .warmup_len(0)
        .walk_len(22)
        .build()
        .unwrap();
    let params = HybridParams::builder().walk(short).build().unwrap();
    // (FNV-1a of the outputs, feed words).
    let pin = (0x2332_79f1_d703_9016, 175);
    let device = Device::new(DeviceConfig::test_tiny());
    let dev = fingerprint(engine(DeviceBackend::new(&device, params), 4));
    let cpu = fingerprint(engine(CpuBackend::new(params), 4));
    assert_eq!(dev, pin, "device backend");
    assert_eq!(cpu, pin, "cpu backend");
}

#[test]
fn facade_generate_matches_the_pin() {
    // The public bulk API, end to end: numbers and simulated accounting.
    let mut prng = HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), 17);
    let (nums, stats) = prng.try_generate(1777).unwrap();
    assert_eq!(stats.numbers, 1777);
    assert_eq!(fnv(&nums), 0x6331_0116_d005_967d);
    assert_eq!(stats.sim_ns, 628_143.0);
    assert_eq!(stats.feed_words, 7198);
    assert_eq!(stats.iterations, 100);
}
