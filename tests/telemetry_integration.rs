//! Acceptance tests for the observability layer and the Result-based API,
//! through the public facade.
//!
//! The load-bearing check: a Chrome trace exported from a hybrid session
//! must be *lossless* — re-deriving the FEED/TRANSFER/GENERATE busy
//! fractions from the trace file's spans must reproduce `PipelineStats`.

use hybrid_prng::gpu::Resource;
use hybrid_prng::telemetry::{busy_fractions, chrome_trace, json, write_chrome_trace};
use hybrid_prng::{
    DeviceConfig, HprngError, HybridParams, HybridPrng, Recorder, Stage, WalkParams,
};
use proptest::prelude::*;

fn tiny_prng(seed: u64) -> HybridPrng {
    HybridPrng::new(DeviceConfig::test_tiny(), HybridParams::default(), seed)
}

#[test]
fn exported_trace_reconstructs_pipeline_stats() {
    let mut prng = HybridPrng::tesla(17);
    let mut session = prng.try_session(2048).unwrap();
    for count in [2048usize, 512, 1024, 300] {
        session.try_next_batch(count).unwrap();
    }
    let stats = session.stats();
    let timeline = session.timeline();
    let recorder = session.take_telemetry();

    // Export to an actual file and read it back: the on-disk artifact is
    // what the acceptance criterion is about.
    let path = std::env::temp_dir().join("hprng_acceptance_trace.json");
    write_chrome_trace(&path, Some(&timeline), Some(&recorder)).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = json::parse(&text).expect("trace file must be valid JSON");
    let busy = busy_fractions(&parsed).expect("trace must contain device spans");

    // The busy fractions reconstructed from the trace file equal the ones
    // PipelineStats computed from the in-memory timeline.
    assert!(
        (busy.cpu - stats.cpu_busy).abs() < 1e-9,
        "cpu busy: trace {} vs stats {}",
        busy.cpu,
        stats.cpu_busy
    );
    assert!(
        (busy.gpu - stats.gpu_busy).abs() < 1e-9,
        "gpu busy: trace {} vs stats {}",
        busy.gpu,
        stats.gpu_busy
    );
    assert!((busy.makespan_ns - stats.sim_ns).abs() / stats.sim_ns < 1e-12);
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_span_names_match_work_unit_variants() {
    let mut prng = tiny_prng(5);
    let mut session = prng.try_session(64).unwrap();
    session.try_next_batch(64).unwrap();
    let doc = chrome_trace(Some(&session.timeline()), Some(session.telemetry()));
    let parsed = json::parse(&doc.to_json()).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    let device_names: Vec<&str> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(json::Value::as_str) == Some("X")
                && e.get("pid").and_then(json::Value::as_f64) == Some(0.0)
        })
        .filter_map(|e| e.get("name").and_then(json::Value::as_str))
        .collect();
    assert!(!device_names.is_empty());
    // Every simulated span is named after a WorkUnit Display variant.
    for name in &device_names {
        assert!(
            ["FEED", "TRANSFER", "GENERATE", "OTHER"].contains(name),
            "unexpected span name {name}"
        );
    }
    for expected in ["FEED", "TRANSFER", "GENERATE"] {
        assert!(device_names.contains(&expected), "missing {expected}");
    }
    // Timestamps are non-negative with non-negative durations and stay
    // within the timeline's makespan.
    let makespan_us = session.timeline().makespan_ns() / 1_000.0;
    for e in events {
        if e.get("ph").and_then(json::Value::as_str) != Some("X") {
            continue;
        }
        if e.get("pid").and_then(json::Value::as_f64) != Some(0.0) {
            continue;
        }
        let ts = e.get("ts").unwrap().as_f64().unwrap();
        let dur = e.get("dur").unwrap().as_f64().unwrap();
        assert!(ts >= 0.0 && dur >= 0.0);
        assert!(ts + dur <= makespan_us * (1.0 + 1e-12));
    }
}

#[test]
fn fallible_api_reports_misuse_as_errors() {
    let mut prng = tiny_prng(1);
    assert!(matches!(prng.try_session(0), Err(HprngError::EmptySession)));
    assert!(matches!(
        prng.try_generate(0),
        Err(HprngError::EmptyRequest)
    ));
    let mut session = prng.try_session(8).unwrap();
    assert!(matches!(
        session.try_next_batch(9),
        Err(HprngError::BatchTooLarge {
            requested: 9,
            available: 8
        })
    ));
    // Errors render human-readable messages.
    let msg = prng.try_generate(0).unwrap_err().to_string();
    assert!(msg.contains("zero"), "unhelpful message: {msg}");
}

#[test]
fn builders_compose_through_the_facade() {
    let walk = WalkParams::builder()
        .walk_len(21)
        .warmup_len(0)
        .build()
        .unwrap();
    let params = HybridParams::builder()
        .walk(walk)
        .batch_size(32)
        .build()
        .unwrap();
    let config = DeviceConfig::builder().num_sms(4).build().unwrap();
    let mut prng = HybridPrng::new(config, params, 9);
    let (nums, stats) = prng.try_generate(1_000).unwrap();
    assert_eq!(nums.len(), 1_000);
    assert!(stats.sim_ns > 0.0);
    assert!(WalkParams::builder().walk_len(0).build().is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Telemetry counters are not a parallel bookkeeping system that can
    /// drift: for any session shape they equal the PipelineStats fields.
    #[test]
    fn telemetry_counters_equal_pipeline_stats(
        seed in 0u64..1_000,
        threads in 1usize..200,
        batches in 1usize..6,
    ) {
        let mut prng = tiny_prng(seed);
        let mut session = prng.try_session(threads).unwrap();
        for i in 0..batches {
            // Vary the per-call count deterministically.
            let count = 1 + (seed as usize + i * 7) % threads;
            session.try_next_batch(count).unwrap();
        }
        let stats = session.stats();
        let telemetry = session.take_telemetry();
        prop_assert_eq!(telemetry.counter("iterations"), stats.iterations as f64);
        prop_assert_eq!(telemetry.counter("feed_words"), stats.feed_words as f64);
        prop_assert_eq!(telemetry.counter("numbers"), stats.numbers as f64);
        prop_assert_eq!(telemetry.gauge("cpu_busy"), Some(stats.cpu_busy));
        prop_assert_eq!(telemetry.gauge("gpu_busy"), Some(stats.gpu_busy));
        prop_assert_eq!(
            telemetry.histogram("batch_latency_ns").unwrap().count(),
            batches as u64
        );
        // One FEED span per kernel launch (init included).
        let feeds = telemetry.spans().iter().filter(|s| s.stage == Stage::Feed).count();
        prop_assert_eq!(feeds, stats.iterations);
    }

    /// The busy-fraction roundtrip holds for arbitrary session shapes, not
    /// just the hand-picked acceptance case.
    #[test]
    fn busy_fraction_roundtrip_holds_generally(
        seed in 0u64..1_000,
        threads in 1usize..150,
    ) {
        let mut prng = tiny_prng(seed);
        let mut session = prng.try_session(threads).unwrap();
        session.try_next_batch(threads).unwrap();
        let stats = session.stats();
        let doc = chrome_trace(Some(&session.timeline()), None);
        let parsed = json::parse(&doc.to_json()).unwrap();
        let busy = busy_fractions(&parsed).unwrap();
        prop_assert!((busy.cpu - stats.cpu_busy).abs() < 1e-9);
        prop_assert!((busy.gpu - stats.gpu_busy).abs() < 1e-9);
    }
}

#[test]
fn recorder_is_usable_standalone() {
    // The facade re-exports the Recorder for application code.
    let mut recorder = Recorder::new();
    let out = recorder.time(Stage::App, "user_phase", || 42);
    assert_eq!(out, 42);
    assert_eq!(recorder.spans().len(), 1);
    let _ = hybrid_prng::gpu::Timeline::default().busy_fraction(Resource::Cpu);
}
