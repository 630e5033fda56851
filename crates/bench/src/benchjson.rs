//! The budgets behind `repro bench`, and the document that records what
//! they measured.
//!
//! Four budgets gate the run: the sharded pool's speedup floor over a
//! shared-mutex engine, the cost of request-path tracing, the
//! checkpoint+restore round trip, and, against a baseline document, the
//! hybrid pipeline's host words/s. Each budget turns the numbers it
//! measured into a [`Verdict`]; [`bench_json`] runs them all and returns
//! the document with every verdict. Throughput and overlap figures of the
//! paper itself come from `repro table1`, `fig3`–`fig5` and `headline`.

use hprng_core::pipeline::{CpuBackend, Engine};
use hprng_core::{ExpanderWalkRng, GlibcFeed, HybridPrng};
use hprng_monitor::{MonitorConfig, MonitorHandle};
use hprng_telemetry::{json, Recorder, Stage};
use rand_core::RngCore;
use std::time::Instant;

/// The schema tag of the document [`bench_json`] writes. Version 1 files
/// (`BENCH_PR2.json` to `BENCH_PR9.json`) still serve as baselines: both
/// versions keep the rate at `hybrid.host_words_per_s`.
const SCHEMA: &str = "hprng-bench-v2";

/// The tracing budget: the median per-pair overhead, as a fraction of
/// untraced words/s.
const MAX_TRACING_OVERHEAD: f64 = 0.05;

/// The checkpoint budget: each path's p99 round trip, in nanoseconds.
const CHECKPOINT_BUDGET_NS: f64 = 1_000_000.0;

/// One budget's verdict: `Ok(summary)` when what it measured is within
/// its bound, `Err(reason)` on a miss.
pub type Verdict = Result<String, String>;

/// `Ok(summary)` when the bound `held`, otherwise `Err` naming the `miss`
/// before the summary.
fn verdict(held: bool, miss: &str, summary: String) -> Verdict {
    if held {
        Ok(summary)
    } else {
        Err(format!("{miss} — {summary}"))
    }
}

/// The pool budget: at `consumers` (twice the core count) the pool must
/// serve at least `shards / 2` times the shared-mutex engine's words/s.
fn pool_verdict(consumers: usize, shards: usize, pool_wps: f64, mutex_wps: f64) -> Verdict {
    let floor = shards as f64 / 2.0;
    verdict(
        pool_wps >= floor * mutex_wps,
        "pool throughput below its speedup floor",
        format!(
            "pool at {consumers} consumers: {pool_wps:.0} words/s vs shared-mutex \
             {mutex_wps:.0} ({:.2}x, floor {floor:.1}x)",
            pool_wps / mutex_wps.max(1e-12)
        ),
    )
}

/// The tracing budget: `overhead`, the median per-pair overhead of
/// tracing at 1-in-`sample_every`, is at most [`MAX_TRACING_OVERHEAD`].
/// `off_wps` and `on_wps` are the two sides' median words/s.
fn tracing_verdict(sample_every: u64, off_wps: f64, on_wps: f64, overhead: f64) -> Verdict {
    verdict(
        overhead <= MAX_TRACING_OVERHEAD,
        "tracing overhead beyond its budget",
        format!(
            "pool tracing at 1-in-{sample_every}: {on_wps:.0} words/s vs {off_wps:.0} untraced \
             ({:.1}% overhead, budget {:.0}%)",
            overhead * 100.0,
            MAX_TRACING_OVERHEAD * 100.0
        ),
    )
}

/// The checkpoint budget: every path's p99 round trip, given as
/// `(path, p99_ns)`, is at most [`CHECKPOINT_BUDGET_NS`].
fn checkpoint_verdict(p99_ns: &[(&str, f64)]) -> Verdict {
    let paths: Vec<String> = p99_ns
        .iter()
        .map(|(name, p99)| format!("{name} p99 {:.1}us", p99 / 1e3))
        .collect();
    verdict(
        p99_ns.iter().all(|&(_, p99)| p99 <= CHECKPOINT_BUDGET_NS),
        "checkpoint round trip beyond its budget",
        format!(
            "checkpoint+restore round trips ({}), budget {:.0} ms at p99",
            paths.join(", "),
            CHECKPOINT_BUDGET_NS / 1e6
        ),
    )
}

/// The baseline budget: the hybrid pipeline's host words/s may not drop
/// below the baseline's by more than `max_drop` (a fraction, e.g. `0.2`
/// for 20%).
pub fn compare_with_baseline(current: f64, baseline: f64, max_drop: f64) -> Verdict {
    verdict(
        current >= (1.0 - max_drop) * baseline,
        "regression beyond budget",
        format!(
            "hybrid host_words_per_s: current {current:.0}, baseline {baseline:.0} \
             ({:+.1}% vs baseline, budget -{:.0}%)",
            (current / baseline - 1.0) * 100.0,
            max_drop * 100.0
        ),
    )
}

/// Reads the hybrid host words/s out of a baseline bench document, of
/// either schema version. `Err` says why the text is not a usable
/// baseline: it is not JSON, or it holds no positive numeric
/// `hybrid.host_words_per_s`.
pub fn baseline_words_per_s(text: &str) -> Result<f64, String> {
    json::parse(text)
        .map_err(|e| e.to_string())?
        .get("hybrid")
        .and_then(|h| h.get("host_words_per_s"))
        .and_then(json::Value::as_f64)
        .filter(|wps| wps.is_finite() && *wps > 0.0)
        .ok_or_else(|| "holds no positive numeric hybrid.host_words_per_s".to_string())
}

/// Draws `words` numbers from a fresh [`HybridPrng::tesla`] session in
/// full batches, with the quality tap attached at 1-in-`sample_every`
/// when given. Returns the draws' wall time in seconds and the session's
/// telemetry.
fn hybrid_run(seed: u64, words: usize, sample_every: Option<u64>) -> (f64, Recorder) {
    let mut prng = HybridPrng::tesla(seed);
    let threads = prng.params().batch_size.max(1) as usize * 64;
    let mut session = prng
        .try_session(threads)
        .expect("threads is positive by construction");
    if let Some(every) = sample_every {
        let handle = MonitorHandle::new(MonitorConfig::sampling(every));
        session.set_tap(handle.tap());
    }
    let wall = Instant::now();
    let mut remaining = words.max(1);
    while remaining > 0 {
        let take = remaining.min(threads);
        session
            .try_next_batch(take)
            .expect("take is within the session's walks");
        remaining -= take;
    }
    (wall.elapsed().as_secs_f64(), session.take_telemetry())
}

/// Sums the GENERATE-stage span time of one session run, with the
/// quality tap attached at 1-in-`sample_every` when given.
///
/// This is the denominator of the monitor-overhead acceptance check: the
/// tap runs in its own `monitor_tap` span *after* each GENERATE span, so
/// any regression seen here is pipeline interference, not tap time.
pub fn generate_stage_ns(seed: u64, words: usize, sample_every: Option<u64>) -> f64 {
    let (_, recorder) = hybrid_run(seed, words, sample_every);
    recorder
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::Generate)
        .map(|s| s.duration_ns())
        .sum()
}

/// Measures GENERATE-stage time with the monitor off and on
/// (1-in-`sample_every` sampling): returns `(off_ns, on_ns)`, each the
/// minimum of two runs after a warm-up pass.
pub fn measure_monitor_overhead(seed: u64, words: usize, sample_every: u64) -> (f64, f64) {
    // Warm up caches and the allocator before timing anything.
    let _ = generate_stage_ns(seed, words / 4, None);
    let best = |every: Option<u64>| {
        (0..2)
            .map(|i| generate_stage_ns(seed.wrapping_add(i), words, every))
            .fold(f64::INFINITY, f64::min)
    };
    (best(None), best(Some(sample_every)))
}

/// Benchmarks the serving layer: a sharded [`hprng_pool::Pool`] (one
/// shard per available CPU) against a single shared-mutex engine, swept
/// over concurrent consumer counts from 1 to twice the core count. The
/// verdict gates the last row, at twice the core count: the pool must
/// serve at least `shards / 2` times the mutex rate there.
///
/// Both sides serve the same generator (an `Engine<CpuBackend>` with 64
/// walks per consumer stream) so the comparison isolates the serving
/// architecture: per-consumer mutex contention on one engine versus
/// sharded workers with double-buffered prefetch. The sweep self-scales
/// from `std::thread::available_parallelism`, so the document is
/// meaningful on any host.
pub fn pool_bench(seed: u64, words: usize) -> (json::Value, Verdict) {
    use hprng_pool::{Pool, SessionKind};
    use std::sync::Mutex;

    const LANES: usize = 64;
    let params = hprng_core::HybridParams::default();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let shards = cores;
    let words = words.max(50_000);

    // Each consumer locks the one engine per 64-word batch — the naive
    // many-consumers design the pool replaces.
    let mutex_words_per_s = |consumers: usize| -> f64 {
        let mut engine = Engine::new(
            CpuBackend::new(params),
            Box::new(GlibcFeed::from_master_seed(seed)),
        );
        engine.initialize(LANES).expect("LANES is positive");
        let shared = Mutex::new(engine);
        let per_consumer = words.div_ceil(consumers);
        let wall = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..consumers {
                scope.spawn(|| {
                    let mut out = [0u64; LANES];
                    let mut remaining = per_consumer;
                    while remaining > 0 {
                        let take = remaining.min(LANES);
                        shared
                            .lock()
                            .expect("engine mutex")
                            .try_next_batch_into(&mut out[..take])
                            .expect("take is within the engine's walks");
                        std::hint::black_box(&out);
                        remaining -= take;
                    }
                });
            }
        });
        (per_consumer * consumers) as f64 / wall.elapsed().as_secs_f64().max(1e-12)
    };

    let pool_words_per_s = |consumers: usize| -> f64 {
        let pool = Pool::builder(seed)
            .shards(shards)
            .session(SessionKind::CpuEngine {
                lanes: LANES,
                params,
            })
            .build()
            .expect("pool configuration is valid");
        let per_consumer = words.div_ceil(consumers);
        let mut clients: Vec<_> = (0..consumers as u64)
            .map(|id| pool.try_client_with_id(id).expect("healthy pool"))
            .collect();
        let wall = Instant::now();
        std::thread::scope(|scope| {
            for client in &mut clients {
                scope.spawn(move || {
                    let mut out = [0u64; LANES];
                    let mut remaining = per_consumer;
                    while remaining > 0 {
                        let take = remaining.min(LANES);
                        client
                            .fill_words(&mut out[..take])
                            .expect("healthy pool client");
                        std::hint::black_box(&out);
                        remaining -= take;
                    }
                });
            }
        });
        (per_consumer * consumers) as f64 / wall.elapsed().as_secs_f64().max(1e-12)
    };

    let mut sweep = Vec::new();
    let mut last = (0.0, 0.0);
    for consumers in 1..=(2 * cores) {
        last = (pool_words_per_s(consumers), mutex_words_per_s(consumers));
        let mut row = json::Value::object();
        row.set("consumers", consumers.into());
        row.set("pool_words_per_s", last.0.into());
        row.set("mutex_words_per_s", last.1.into());
        sweep.push(row);
    }

    let mut obj = json::Value::object();
    obj.set("cores", cores.into());
    obj.set("shards", shards.into());
    obj.set("session_lanes", LANES.into());
    obj.set("speedup_floor", (shards as f64 / 2.0).into());
    obj.set("sweep", json::Value::Array(sweep));
    (obj, pool_verdict(2 * cores, shards, last.0, last.1))
}

/// The `q`-quantile of `values`, interpolated between the two nearest
/// ranks.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Measures the cost of pool request-path tracing: the same single-shard
/// workload (one client pulling `words` words in 4096-word requests) with
/// tracing off versus tracing on at 1-in-`sample_every` sampling.
///
/// After a warm-up run, the runs come in pairs of one untraced and one
/// traced run, and the side that runs first alternates from pair to
/// pair, so a host whose speed drifts during the measurement moves both
/// sides alike. The gated overhead is the median of the per-pair
/// overheads `1 - on/off`, clamped at zero, and the verdict holds it to
/// 5%. The returned object carries both sides' median throughputs and
/// the gated overhead with the quartiles of the per-pair overheads.
pub fn pool_obs_bench(seed: u64, words: usize, sample_every: u64) -> (json::Value, Verdict) {
    use hprng_pool::Pool;

    const REQUEST: usize = 4096;
    const PAIRS: usize = 10;
    let words = words.max(1 << 20);
    let sample_every = sample_every.max(1);

    let run = |tracing: Option<u64>| -> f64 {
        let mut builder = Pool::builder(seed).shards(1).prefetch_words(REQUEST);
        if let Some(every) = tracing {
            builder = builder.tracing(every);
        }
        let pool = builder.build().expect("pool configuration is valid");
        let mut client = pool.try_client_with_id(0).expect("healthy pool");
        let mut out = [0u64; REQUEST];
        let wall = Instant::now();
        let mut remaining = words;
        while remaining > 0 {
            let take = remaining.min(REQUEST);
            client
                .fill_words(&mut out[..take])
                .expect("healthy pool client");
            std::hint::black_box(&out);
            remaining -= take;
        }
        words as f64 / wall.elapsed().as_secs_f64().max(1e-12)
    };

    // Warm up the allocator and thread spawn paths before timing.
    let _ = run(None);
    let (mut off, mut on) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            off.push(run(None));
            on.push(run(Some(sample_every)));
        } else {
            on.push(run(Some(sample_every)));
            off.push(run(None));
        }
    }
    let overheads: Vec<f64> = off
        .iter()
        .zip(&on)
        .map(|(off, on)| 1.0 - on / off.max(1e-12))
        .collect();
    let overhead = quantile(&overheads, 0.5).max(0.0);
    let (off, on) = (quantile(&off, 0.5), quantile(&on, 0.5));

    let mut obj = json::Value::object();
    obj.set("words", words.into());
    obj.set("sample_every", sample_every.into());
    obj.set("pairs", PAIRS.into());
    obj.set("off_words_per_s", off.into());
    obj.set("on_words_per_s", on.into());
    obj.set("overhead_fraction", overhead.into());
    obj.set("overhead_q1", quantile(&overheads, 0.25).into());
    obj.set("overhead_q3", quantile(&overheads, 0.75).into());
    obj.set("max_overhead", MAX_TRACING_OVERHEAD.into());
    (obj, tracing_verdict(sample_every, off, on, overhead))
}

/// Measures the checkpoint/restore round trip on both resumable paths:
/// the expander walk's rich state (checkpoint → JSON → parse → exact
/// [`ExpanderWalkRng::resume`]) and the pool failover path (a live
/// [`hprng_pool::PoolClient`]'s counters-only checkpoint re-admitted
/// through [`hprng_pool::Pool::try_client_resumed`] on a standby pool).
///
/// Failover re-runs this round trip on the request path — a client that
/// loses its shard checkpoints, reattaches, and serves its next word off
/// the resumed session — so the cost is gated, not just recorded: the
/// verdict holds each path's p99 (interpolated between ranks) to 1 ms.
pub fn checkpoint_bench(seed: u64, iters: usize) -> (json::Value, Verdict) {
    use hprng_core::StreamState;
    use hprng_pool::Pool;

    const POSITION: usize = 4096; // words served before the first checkpoint
    let iters = iters.clamp(16, 4096);

    let mut p99s = Vec::new();
    let mut rows = Vec::new();
    let mut row = |name: &'static str, samples: Vec<f64>| {
        let p99 = quantile(&samples, 0.99);
        p99s.push((name, p99));
        let mut obj = json::Value::object();
        obj.set("name", name.into());
        obj.set("iterations", samples.len().into());
        obj.set("p50_ns", quantile(&samples, 0.50).into());
        obj.set("p99_ns", p99.into());
        obj.set("max_ns", quantile(&samples, 1.0).into());
        rows.push(obj);
    };

    // Rich state: the expander walk's exact O(position) resume, through
    // the same dependency-free JSON the persistence path uses.
    let mut rng = ExpanderWalkRng::from_seed_u64(seed);
    for _ in 0..POSITION {
        rng.next_u64();
    }
    let mut expander_ns = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let state = rng.checkpoint().expect("expander walk has rich state");
        let text = state.to_json();
        let parsed = StreamState::from_json(&text).expect("state round-trips");
        std::hint::black_box(ExpanderWalkRng::resume(&parsed).expect("state resumes"));
        expander_ns.push(start.elapsed().as_nanos() as f64);
        rng.next_u64(); // walk the position forward between iterations
    }
    row("expander_rich_json", expander_ns);

    // The failover round trip: counters-only client checkpoint,
    // re-admission on a standby pool, shard-side session rebuild and
    // fast-forward, and the first word served off the resumed stream —
    // everything a client pays between losing its shard and producing
    // again. Small prefetch blocks keep the standby worker's per-lap
    // refill work from queueing up behind the measurement; serving the
    // word paces the loop so ring backpressure never bleeds one lap's
    // generation time into the next lap's sample.
    const WARMUP: usize = 16;
    let pool = Pool::builder(seed)
        .prefetch_words(64)
        .build()
        .expect("pool configuration");
    let standby = Pool::builder(seed)
        .prefetch_words(64)
        .build()
        .expect("pool configuration");
    let mut client = pool.try_client_with_id(7).expect("healthy pool");
    let mut out = [0u64; 64];
    client.fill_words(&mut out).expect("healthy pool client");
    let mut failover_ns = Vec::with_capacity(iters);
    let mut one = [0u64; 1];
    for lap in 0..iters + WARMUP {
        let start = Instant::now();
        let state = client.checkpoint();
        let mut resumed = standby
            .try_client_resumed(&state)
            .expect("standby admits the checkpoint");
        resumed.fill_words(&mut one).expect("resumed stream serves");
        std::hint::black_box(&one);
        if lap >= WARMUP {
            failover_ns.push(start.elapsed().as_nanos() as f64);
        }
        drop(resumed); // release the id on the standby for the next lap
    }
    row("pool_client_failover", failover_ns);
    pool.shutdown();
    standby.shutdown();

    let mut obj = json::Value::object();
    obj.set("budget_ns", CHECKPOINT_BUDGET_NS.into());
    obj.set("paths", json::Value::Array(rows));
    (obj, checkpoint_verdict(&p99s))
}

/// Runs every budget and returns the benchmark document with one verdict
/// per budget, in order: the pool speedup floor, the tracing overhead,
/// the checkpoint round trip and, when a `baseline` rate is given, the
/// hybrid host words/s drop of at most `max_drop`.
///
/// The hybrid pipeline draws `words` numbers, and the pool sweep and the
/// tracing pairs at least that many. The document is
/// `{schema, seed, words, hybrid: {host_words_per_s}, pool,
/// pool_observability, checkpoint}`, so it can serve as a later run's
/// baseline.
pub fn bench_json(
    seed: u64,
    words: usize,
    sample_every: u64,
    baseline: Option<f64>,
    max_drop: f64,
) -> (json::Value, Vec<Verdict>) {
    let words = words.max(1);
    let (secs, _) = hybrid_run(seed, words, None);
    let host_words_per_s = words as f64 / secs.max(1e-12);
    let (pool, floor) = pool_bench(seed, words);
    let (observability, overhead) = pool_obs_bench(seed, words, sample_every);
    let (checkpoint, round_trip) = checkpoint_bench(seed, 256);
    let mut verdicts = vec![floor, overhead, round_trip];
    if let Some(baseline) = baseline {
        verdicts.push(compare_with_baseline(host_words_per_s, baseline, max_drop));
    }

    let mut hybrid = json::Value::object();
    hybrid.set("host_words_per_s", host_words_per_s.into());
    let mut doc = json::Value::object();
    doc.set("schema", SCHEMA.into());
    doc.set("seed", seed.into());
    doc.set("words", words.into());
    doc.set("hybrid", hybrid);
    doc.set("pool", pool);
    doc.set("pool_observability", observability);
    doc.set("checkpoint", checkpoint);
    (doc, verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_has_every_section() {
        let (doc, verdicts) = bench_json(3, 50_000, 64, Some(1.0), 0.2);
        let parsed = json::parse(&doc.to_json()).expect("self-parseable");
        let json::Value::Object(sections) = &parsed else {
            panic!("the document is an object: {parsed:?}");
        };
        let keys: Vec<&str> = sections.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "checkpoint",
                "hybrid",
                "pool",
                "pool_observability",
                "schema",
                "seed",
                "words"
            ]
        );
        assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        let json::Value::Object(hybrid) = parsed.get("hybrid").unwrap() else {
            panic!("hybrid is an object");
        };
        assert_eq!(hybrid.keys().collect::<Vec<_>>(), ["host_words_per_s"]);
        // The document is a usable baseline for a later run.
        assert!(baseline_words_per_s(&doc.to_json()).unwrap() > 0.0);
        // Three budgets, plus the baseline comparison when given one.
        assert_eq!(verdicts.len(), 4);
        assert_eq!(bench_json(3, 50_000, 64, None, 0.2).1.len(), 3);
    }

    #[test]
    fn overhead_measurement_returns_positive_times() {
        let (off, on) = measure_monitor_overhead(5, 1 << 14, 64);
        assert!(off > 0.0 && on > 0.0);
    }

    #[test]
    fn pool_bench_reports_the_sweep_and_its_gate() {
        let (doc, verdict) = pool_bench(3, 50_000);
        let cores = doc.get("cores").and_then(|v| v.as_f64()).unwrap() as usize;
        assert!(cores >= 1);
        let sweep = doc.get("sweep").and_then(|s| s.as_array()).unwrap();
        assert_eq!(sweep.len(), 2 * cores);
        for row in sweep {
            for key in ["pool_words_per_s", "mutex_words_per_s"] {
                assert!(row.get(key).and_then(|v| v.as_f64()).unwrap() > 0.0);
            }
        }
        // The verdict reads the last row, at twice the core count.
        let summary = verdict.unwrap_or_else(|reason| reason);
        assert!(
            summary.contains(&format!("at {} consumers", 2 * cores)),
            "{summary}"
        );
    }

    #[test]
    fn checkpoint_bench_reports_both_paths_with_quantiles() {
        let (doc, _) = checkpoint_bench(3, 16);
        let paths = doc.get("paths").and_then(|p| p.as_array()).unwrap();
        assert_eq!(paths.len(), 2);
        for path in paths {
            let name = path.get("name").and_then(|v| v.as_str()).unwrap();
            let p50 = path.get("p50_ns").and_then(|v| v.as_f64()).unwrap();
            let p99 = path.get("p99_ns").and_then(|v| v.as_f64()).unwrap();
            let max = path.get("max_ns").and_then(|v| v.as_f64()).unwrap();
            assert!(p50 > 0.0, "{name} has zero p50");
            assert!(p99 >= p50, "{name} quantiles out of order");
            assert!(max >= p99, "{name} max below p99");
        }
    }

    #[test]
    fn pool_obs_bench_reports_both_sides_of_the_toggle() {
        let (doc, _) = pool_obs_bench(3, 1 << 20, 64);
        for key in ["off_words_per_s", "on_words_per_s"] {
            assert!(doc.get(key).and_then(|v| v.as_f64()).unwrap() > 0.0);
        }
        let num = |key: &str| doc.get(key).and_then(|v| v.as_f64()).unwrap();
        let overhead = num("overhead_fraction");
        assert!((0.0..=1.0).contains(&overhead), "overhead {overhead}");
        assert_eq!(num("pairs"), 10.0);
        let (q1, q3) = (num("overhead_q1"), num("overhead_q3"));
        // The median lies between the quartiles.
        assert!(
            q1 <= q3 && overhead <= q3.max(0.0),
            "{q1}..{q3}, {overhead}"
        );
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 0.5), 2.5);
        assert_eq!(quantile(&values, 0.25), 1.75);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn each_verdict_fails_just_past_its_bound_and_passes_just_within() {
        // (budget, just within its bound, just past it)
        let cases = [
            (
                "pool floor 1x",
                pool_verdict(4, 2, 1000.0, 1000.0),
                pool_verdict(4, 2, 999.9, 1000.0),
            ),
            (
                "pool floor 2x",
                pool_verdict(8, 4, 2000.0, 1000.0),
                pool_verdict(8, 4, 1999.9, 1000.0),
            ),
            (
                "tracing",
                tracing_verdict(64, 1000.0, 950.0, 0.05),
                tracing_verdict(64, 1000.0, 949.9, 0.0501),
            ),
            (
                "checkpoint",
                checkpoint_verdict(&[("a", 1e3), ("b", 1e6)]),
                checkpoint_verdict(&[("a", 1e3), ("b", 1e6 + 1.0)]),
            ),
            (
                "baseline",
                compare_with_baseline(95.0, 100.0, 0.05),
                compare_with_baseline(94.99, 100.0, 0.05),
            ),
        ];
        for (budget, within, past) in cases {
            if let Err(reason) = within {
                panic!("{budget} failed within its bound: {reason}");
            }
            let reason = past.expect_err(budget);
            assert!(
                reason.contains("below") || reason.contains("beyond"),
                "{budget}: {reason}"
            );
        }
    }

    #[test]
    fn baselines_must_hold_a_positive_rate() {
        let v1 = include_str!("../../../BENCH_PR8.json");
        assert!(baseline_words_per_s(v1).unwrap() > 0.0);
        for text in [
            "not json",
            "{}",
            r#"{"hybrid": {}}"#,
            r#"{"hybrid": {"host_words_per_s": "fast"}}"#,
            r#"{"hybrid": {"host_words_per_s": 0}}"#,
            r#"{"hybrid": {"host_words_per_s": -5}}"#,
            r#"{"hybrid": {"host_words_per_s": 1e400}}"#,
        ] {
            assert!(baseline_words_per_s(text).is_err(), "{text}");
        }
    }
}
