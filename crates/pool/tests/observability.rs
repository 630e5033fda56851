//! Acceptance suite for pool request-path observability: a traced pool
//! run must export a Chrome trace holding both client request spans and
//! shard worker spans on one shared epoch, and a Prometheus snapshot
//! covering queue depth, the three phase histograms, and the word
//! counters per shard.

use std::time::{Duration, Instant};

use hprng_pool::{names, Pool};
use hprng_telemetry::{chrome_trace, prometheus, Stage};

#[test]
fn traced_run_exports_client_and_shard_spans_on_a_shared_epoch() {
    let pool = Pool::builder(42)
        .shards(2)
        .prefetch_words(32)
        .tracing(1) // sample every request so the assertion is deterministic
        .build()
        .unwrap();
    let mut a = pool.try_client_with_id(0).unwrap();
    let mut b = pool.try_client_with_id(1).unwrap();
    for _ in 0..4 {
        let mut buf = [0u64; 100]; // spans several refills at prefetch 32
        a.fill_words(&mut buf).unwrap();
        b.fill_words(&mut buf).unwrap();
    }
    let registry = pool.registry().expect("tracing was enabled");
    let snapshot = registry.snapshot();

    let client_spans: Vec<_> = snapshot
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::App && s.name.contains("fill#"))
        .collect();
    let shard_spans: Vec<_> = snapshot
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::Generate && s.name.contains("refill"))
        .collect();
    assert!(!client_spans.is_empty(), "no client request spans recorded");
    assert!(!shard_spans.is_empty(), "no shard worker spans recorded");
    assert!(
        client_spans.iter().any(|s| s.name.starts_with("c0 "))
            && client_spans.iter().any(|s| s.name.starts_with("c1 ")),
        "both clients must appear in the request spans"
    );
    assert!(
        shard_spans.iter().any(|s| s.name.starts_with("shard0 "))
            && shard_spans.iter().any(|s| s.name.starts_with("shard1 ")),
        "both shards must appear in the worker spans"
    );
    // Shared epoch: every span timestamp is non-negative nanoseconds
    // from the one registry epoch, and the worker's service span falls
    // within the wall-clock window covered by the run.
    for s in snapshot.spans() {
        assert!(s.start_ns >= 0.0 && s.end_ns >= s.start_ns, "span {s:?}");
        assert!(s.end_ns <= registry.now_ns(), "span after snapshot: {s:?}");
    }

    // The Chrome trace export covers both kinds on the host process.
    let trace = chrome_trace(None, Some(&snapshot)).to_json();
    assert!(trace.contains("fill#"), "client spans missing from trace");
    assert!(trace.contains("refill c"), "shard spans missing from trace");
}

#[test]
fn prometheus_snapshot_covers_queue_phase_and_outcome_instruments() {
    let shards = 2;
    let pool = Pool::builder(7)
        .shards(shards)
        .prefetch_words(64)
        .tracing(4)
        .build()
        .unwrap();
    let mut clients: Vec<_> = (0..4u64)
        .map(|id| pool.try_client_with_id(id).unwrap())
        .collect();
    for _ in 0..8 {
        for c in &mut clients {
            let mut buf = [0u64; 150];
            c.fill_words(&mut buf).unwrap();
        }
    }
    let text = prometheus::exposition(&pool.telemetry_snapshot());
    let exp = prometheus::parse_exposition(&text).expect("exposition parses");
    exp.validate_histograms().expect("histogram invariants");

    let metric = |raw: &str| prometheus::metric_name(raw);
    for shard in 0..shards {
        for gauge in [
            names::shard_queue_depth(shard),
            names::shard_queue_occupancy(shard),
        ] {
            assert!(
                exp.value(&metric(&gauge)).is_some(),
                "missing gauge {gauge}"
            );
        }
        for hist in [
            names::shard_enqueue_wait_ns(shard),
            names::shard_service_ns(shard),
            names::shard_refill_copy_ns(shard),
        ] {
            let count = exp.value(&format!("{}_count", metric(&hist)));
            assert!(count.is_some(), "missing histogram {hist}");
        }
        // A healthy blocking run serves words.
        assert!(exp.value(&metric(&names::shard_words(shard))).unwrap() > 0.0);
    }
    // Refills actually flowed through both phase histograms.
    let service_total: f64 = (0..shards)
        .map(|s| {
            exp.value(&format!("{}_count", metric(&names::shard_service_ns(s))))
                .unwrap()
        })
        .sum();
    assert!(
        service_total >= 8.0,
        "service histogram undercounts refills"
    );
    // The unified PoolStats names ride in the same snapshot.
    assert!(exp.value(&metric(names::POOL_WORDS)).unwrap() > 0.0);
    assert_eq!(exp.value(&metric(names::POOL_ERRORS)), Some(0.0));
    assert!(exp.value(&metric(names::POOL_SHARDS)).unwrap() == shards as f64);
}

#[test]
fn untraced_pools_expose_no_registry_but_still_export_stats() {
    let pool = Pool::builder(3).shards(1).build().unwrap();
    let mut client = pool.try_client().unwrap();
    let mut buf = [0u64; 64];
    client.fill_words(&mut buf).unwrap();
    assert!(pool.registry().is_none());
    let text = prometheus::exposition(&pool.telemetry_snapshot());
    let exp = prometheus::parse_exposition(&text).unwrap();
    assert!(
        exp.value(&prometheus::metric_name(names::POOL_WORDS))
            .unwrap()
            > 0.0
    );
}

#[test]
fn an_idle_shard_fills_one_spare_per_client_and_counts_it() {
    const BLOCK: usize = 64;
    let pool = Pool::builder(11)
        .shards(1)
        .prefetch_words(BLOCK)
        .tracing(64)
        .build()
        .unwrap();
    let registry = pool.registry().expect("tracing was enabled");
    let counter = |name: String| registry.snapshot().counter(&name);
    let mut client = pool.try_client().unwrap();
    let mut block = [0u64; BLOCK];
    // The second request sends the first drained block back, which
    // reserves the client's spare on the shard.
    client.fill_words(&mut block).unwrap();
    client.fill_words(&mut block).unwrap();

    // The client pauses; its shard, idle, fills the spare and then sleeps.
    let until = Instant::now() + Duration::from_secs(10);
    while counter(names::shard_ahead_words(0)) < BLOCK as f64 {
        assert!(Instant::now() < until, "the idle shard never filled ahead");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(counter(names::shard_ahead_words(0)), BLOCK as f64);
    assert_eq!(counter(names::shard_spare_refills(0)), 0.0);
    let delivered = counter(names::shard_words(0));

    // The next refill is answered with the spare; the one after it
    // delivers it.
    client.fill_words(&mut block).unwrap();
    client.fill_words(&mut block).unwrap();
    assert!(counter(names::shard_spare_refills(0)) >= 1.0);
    // Words filled ahead count as delivered only once they are.
    assert!(counter(names::shard_words(0)) >= delivered + BLOCK as f64);

    let text = prometheus::exposition(&pool.telemetry_snapshot());
    let exp = prometheus::parse_exposition(&text).expect("exposition parses");
    for name in [names::shard_ahead_words(0), names::shard_spare_refills(0)] {
        let metric = prometheus::metric_name(&name);
        assert!(exp.value(&metric).unwrap() > 0.0, "{metric} not exported");
    }
}
