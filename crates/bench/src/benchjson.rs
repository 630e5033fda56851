//! Machine-readable benchmark export behind `repro bench --json-out`.
//!
//! Produces one JSON document with per-generator host throughput,
//! hybrid-pipeline batch-latency quantiles (from the telemetry
//! [`Histogram`](hprng_telemetry::Histogram)), simulated busy fractions,
//! and the measured monitor-tap overhead — the numbers regression
//! dashboards want without scraping the pretty-printed tables.

use hprng_baselines::{Kiss, Mt19937, Mt19937_64, Mwc64, SplitMix64, Xorwow};
use hprng_core::pipeline::{Backend, CpuBackend, DeviceBackend, Engine};
use hprng_core::{ExpanderLanes, ExpanderWalkRng, GlibcFeed, HybridPrng};
use hprng_gpu_sim::{Device, DeviceConfig};
use hprng_monitor::{MonitorConfig, MonitorHandle};
use hprng_telemetry::{busy_fractions, chrome_trace, json, Recorder, Stage};
use rand_core::RngCore;
use std::time::Instant;

fn words_per_s(mut next: impl FnMut() -> u64, words: usize) -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..words {
        acc = acc.wrapping_add(next());
    }
    let secs = start.elapsed().as_secs_f64().max(1e-12);
    // Keep the accumulator observable so the loop cannot be elided.
    std::hint::black_box(acc);
    words as f64 / secs
}

/// Sums the GENERATE-stage span time of one session run, with the
/// quality tap attached at 1-in-`sample_every` when given.
///
/// This is the denominator of the monitor-overhead acceptance check: the
/// tap runs in its own `monitor_tap` span *after* each GENERATE span, so
/// any regression seen here is pipeline interference, not tap time.
pub fn generate_stage_ns(seed: u64, words: usize, sample_every: Option<u64>) -> f64 {
    let mut prng = HybridPrng::tesla(seed);
    let threads = prng.params().batch_size.max(1) as usize * 64;
    let mut session = prng
        .try_session(threads)
        .expect("threads is positive by construction");
    if let Some(every) = sample_every {
        let handle = MonitorHandle::new(MonitorConfig::sampling(every));
        session.set_tap(handle.tap());
    }
    let mut remaining = words.max(1);
    while remaining > 0 {
        let take = remaining.min(threads);
        session
            .try_next_batch(take)
            .expect("take is within the session's walks");
        remaining -= take;
    }
    let recorder = session.take_telemetry();
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

/// Host words/s of one engine configuration over `words` numbers.
fn engine_words_per_s<B: Backend>(mut engine: Engine<B>, threads: usize, words: usize) -> f64 {
    engine
        .initialize(threads)
        .expect("threads is positive by construction");
    let wall = Instant::now();
    let mut remaining = words;
    while remaining > 0 {
        let take = remaining.min(threads);
        std::hint::black_box(
            engine
                .try_next_batch(take)
                .expect("take is within the engine's walks"),
        );
        remaining -= take;
    }
    words as f64 / wall.elapsed().as_secs_f64().max(1e-12)
}

/// Benchmarks the engine on both backends and reports host words/s for
/// each.
pub fn engine_bench(seed: u64, words: usize) -> json::Value {
    let params = hprng_core::HybridParams::default();
    let threads = params.batch_size.max(1) as usize * 64;
    let device = Device::new(DeviceConfig::tesla_c1060());
    let feed = || Box::new(GlibcFeed::from_master_seed(seed));
    let rates = [
        (
            "gpu-sim",
            engine_words_per_s(
                Engine::new(DeviceBackend::new(&device, params), feed()),
                threads,
                words,
            ),
        ),
        (
            "cpu-threads",
            engine_words_per_s(Engine::new(CpuBackend::new(params), feed()), threads, words),
        ),
    ];
    let mut backends = Vec::new();
    for (backend, wps) in rates {
        let mut entry = json::Value::object();
        entry.set("backend", json::Value::String(backend.to_string()));
        entry.set("words_per_s", json::Value::Number(wps));
        backends.push(entry);
    }
    let mut obj = json::Value::object();
    obj.set("backends", json::Value::Array(backends));
    obj
}

/// FNV-1a over little-endian words: the repo's golden-hash idiom, used to
/// assert the rank streams agree across the sweep.
fn fnv(data: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// One `apps.listrank` row: ranks `list` over `engine`, one lane per
/// node, timing the engine's initialization and the ranking.
fn listrank_row<B: Backend>(
    backend: &str,
    mut engine: Engine<B>,
    list: &hprng_listrank::LinkedList,
) -> json::Value {
    let wall = Instant::now();
    engine
        .initialize(list.len())
        .expect("the list is not empty");
    let (ranks, red) = hprng_listrank::rank_on_session(list, &mut engine);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let mut entry = json::Value::object();
    entry.set("app", json::Value::String("listrank".to_string()));
    entry.set("backend", json::Value::String(backend.to_string()));
    entry.set("wall_ms", json::Value::Number(wall_ms));
    entry.set("iterations", json::Value::Number(red.iterations as f64));
    entry.set(
        "feed_words",
        json::Value::Number(engine.stats().feed_words as f64),
    );
    entry.set(
        "ranks_fnv",
        json::Value::String(format!("{:#018x}", fnv(ranks.iter().map(|&r| r as u64)))),
    );
    entry
}

/// Benchmarks both applications over the unified on-demand contract:
/// list ranking on both engine backends (the ranks hash is reported so
/// regression dashboards can assert the backends agree bit for bit),
/// photon migration over [`ExpanderLanes`].
pub fn apps_bench(seed: u64) -> json::Value {
    use hprng_listrank::LinkedList;
    use hprng_montecarlo::{run_simulation_on, RandomSupply, SimConfig, Tissue};

    let n = 4_000;
    let list = LinkedList::random(n, &mut SplitMix64::new(seed));
    let params = hprng_core::HybridParams::default();
    let device = Device::new(DeviceConfig::tesla_c1060());
    let feed = || Box::new(GlibcFeed::from_master_seed(seed));
    let listrank_rows = vec![
        listrank_row(
            "gpu-sim",
            Engine::new(DeviceBackend::new(&device, params), feed()),
            &list,
        ),
        listrank_row(
            "cpu-threads",
            Engine::new(CpuBackend::new(params), feed()),
            &list,
        ),
    ];

    let tissue = Tissue::three_layer();
    let cfg = SimConfig {
        seed,
        supply: RandomSupply::InlineHybrid,
        chunk_size: 1024,
        grid: None,
    };
    let out = run_simulation_on(&tissue, 20_000, &cfg, &ExpanderLanes::new(seed));
    let mut montecarlo = json::Value::object();
    montecarlo.set("app", json::Value::String("montecarlo".to_string()));
    montecarlo.set("lanes", json::Value::String("expander-lanes".to_string()));
    montecarlo.set(
        "photons_per_s",
        json::Value::Number(out.photons as f64 / (out.wall_ns / 1e9).max(1e-12)),
    );
    montecarlo.set("randoms_used", json::Value::Number(out.randoms_used as f64));
    montecarlo.set("clashes", json::Value::Number(out.clashes as f64));

    let mut obj = json::Value::object();
    obj.set("listrank", json::Value::Array(listrank_rows));
    obj.set("montecarlo", json::Value::Array(vec![montecarlo]));
    obj
}

/// Benchmarks the serving layer: a sharded [`hprng_pool::Pool`] (one
/// shard per available CPU) against a single shared-mutex engine, swept
/// over concurrent consumer counts from 1 to twice the core count.
///
/// Both sides serve the same generator (an `Engine<CpuBackend>` with 64
/// walks per consumer stream) so the comparison isolates the serving
/// architecture: per-consumer mutex contention on one engine versus
/// sharded workers with double-buffered prefetch. The sweep self-scales
/// from `std::thread::available_parallelism`, so the document is
/// meaningful on any host.
pub fn pool_bench(seed: u64, words: usize) -> json::Value {
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

    let mut rows = Vec::new();
    let mut gate = json::Value::object();
    for consumers in 1..=(2 * cores) {
        let pool_wps = pool_words_per_s(consumers);
        let mutex_wps = mutex_words_per_s(consumers);
        let mut row = json::Value::object();
        row.set("consumers", json::Value::Number(consumers as f64));
        row.set("pool_words_per_s", json::Value::Number(pool_wps));
        row.set("mutex_words_per_s", json::Value::Number(mutex_wps));
        row.set(
            "speedup",
            json::Value::Number(pool_wps / mutex_wps.max(1e-12)),
        );
        if consumers == 2 * cores {
            // The acceptance floor: at 2× core-count consumers the pool
            // must reach at least shards/2 of the shared-engine rate.
            gate.set("consumers", json::Value::Number(consumers as f64));
            gate.set("pool_words_per_s", json::Value::Number(pool_wps));
            gate.set("baseline_words_per_s", json::Value::Number(mutex_wps));
            gate.set("speedup_floor", json::Value::Number(shards as f64 / 2.0));
            gate.set(
                "passed",
                json::Value::Bool(pool_wps >= (shards as f64 / 2.0) * mutex_wps),
            );
        }
        rows.push(row);
    }

    let mut obj = json::Value::object();
    obj.set("cores", json::Value::Number(cores as f64));
    obj.set("shards", json::Value::Number(shards as f64));
    obj.set("session_lanes", json::Value::Number(LANES as f64));
    obj.set("sweep", json::Value::Array(rows));
    obj.set("gate", gate);
    obj
}

/// Checks the pool throughput gate of a bench document (the `pool.gate`
/// object [`pool_bench`] writes): `Ok(summary)` when the pool met its
/// speedup floor at 2× core-count consumers, `Err(explanation)` when it
/// missed the floor or the document carries no well-formed gate.
///
/// `repro bench --pool` exits non-zero on `Err`, so the CI pool job
/// actually fails on a serving-layer regression instead of just
/// recording one.
pub fn pool_gate(doc: &json::Value) -> Result<String, String> {
    let gate = doc
        .get("pool")
        .and_then(|p| p.get("gate"))
        .ok_or("document has no pool.gate (was the sweep run with --pool?)")?;
    let num = |key: &str| -> Result<f64, String> {
        gate.get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("pool.gate has no numeric {key}"))
    };
    let consumers = num("consumers")?;
    let pool_wps = num("pool_words_per_s")?;
    let base_wps = num("baseline_words_per_s")?;
    let floor = num("speedup_floor")?;
    let passed = match gate.get("passed") {
        Some(json::Value::Bool(b)) => *b,
        _ => return Err("pool.gate has no boolean passed".to_string()),
    };
    let summary = format!(
        "pool at {consumers:.0} consumers: {pool_wps:.0} words/s vs shared-mutex {base_wps:.0} \
         ({:.2}x, floor {floor:.1}x)",
        pool_wps / base_wps.max(1e-12)
    );
    if passed {
        Ok(summary)
    } else {
        Err(format!(
            "pool throughput below its speedup floor — {summary}"
        ))
    }
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
/// overheads `1 - on/off`, clamped at zero, against the 5% budget the
/// observability acceptance criteria set. The returned object carries
/// both sides' median throughputs, the gated overhead with the quartiles
/// of the per-pair overheads, and a `passed` flag.
pub fn pool_obs_bench(seed: u64, words: usize, sample_every: u64) -> json::Value {
    use hprng_pool::Pool;

    const REQUEST: usize = 4096;
    const PAIRS: usize = 10;
    const MAX_OVERHEAD: f64 = 0.05;
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

    let mut obj = json::Value::object();
    obj.set("words", json::Value::Number(words as f64));
    obj.set("sample_every", json::Value::Number(sample_every as f64));
    obj.set("pairs", json::Value::Number(PAIRS as f64));
    obj.set("off_words_per_s", json::Value::Number(quantile(&off, 0.5)));
    obj.set("on_words_per_s", json::Value::Number(quantile(&on, 0.5)));
    obj.set("overhead_fraction", json::Value::Number(overhead));
    obj.set(
        "overhead_q1",
        json::Value::Number(quantile(&overheads, 0.25)),
    );
    obj.set(
        "overhead_q3",
        json::Value::Number(quantile(&overheads, 0.75)),
    );
    obj.set("max_overhead", json::Value::Number(MAX_OVERHEAD));
    obj.set("passed", json::Value::Bool(overhead <= MAX_OVERHEAD));
    obj
}

/// Measures the checkpoint/restore round trip on both resumable paths:
/// the expander walk's rich state (checkpoint → JSON → parse → exact
/// [`ExpanderWalkRng::resume`]) and the pool failover path (a live
/// [`hprng_pool::PoolClient`]'s counters-only checkpoint re-admitted
/// through [`hprng_pool::Pool::try_client_resumed`] on a standby pool).
///
/// Failover re-runs this round trip on the request path — a client that
/// loses its shard checkpoints, reattaches, and serves its next word off
/// the resumed session — so the cost is gated, not just recorded: each
/// path's p99 must come in under the 1 ms budget or [`checkpoint_gate`]
/// fails the run.
pub fn checkpoint_bench(seed: u64, iters: usize) -> json::Value {
    use hprng_core::StreamState;
    use hprng_pool::Pool;

    const BUDGET_NS: f64 = 1_000_000.0; // 1 ms per round trip, at p99
    const POSITION: usize = 4096; // words served before the first checkpoint
    let iters = iters.clamp(16, 4096);

    let quantile = |sorted: &[u64], q: f64| -> f64 {
        match sorted.len() {
            0 => 0.0,
            n => sorted[(((n - 1) as f64) * q).round() as usize] as f64,
        }
    };
    let mut passed = true;
    let mut rows = Vec::new();
    let mut row = |name: &str, mut samples: Vec<u64>| {
        samples.sort_unstable();
        let p99 = quantile(&samples, 0.99);
        passed &= p99 <= BUDGET_NS;
        let mut obj = json::Value::object();
        obj.set("name", json::Value::String(name.to_string()));
        obj.set("iterations", json::Value::Number(samples.len() as f64));
        obj.set("p50_ns", json::Value::Number(quantile(&samples, 0.50)));
        obj.set("p90_ns", json::Value::Number(quantile(&samples, 0.90)));
        obj.set("p99_ns", json::Value::Number(p99));
        obj.set(
            "max_ns",
            json::Value::Number(samples.last().copied().unwrap_or(0) as f64),
        );
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
        expander_ns.push(start.elapsed().as_nanos() as u64);
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
            failover_ns.push(start.elapsed().as_nanos() as u64);
        }
        drop(resumed); // release the id on the standby for the next lap
    }
    row("pool_client_failover", failover_ns);
    pool.shutdown();
    standby.shutdown();

    let mut obj = json::Value::object();
    obj.set("budget_ns", json::Value::Number(BUDGET_NS));
    obj.set("paths", json::Value::Array(rows));
    obj.set("passed", json::Value::Bool(passed));
    obj
}

/// Checks the checkpoint-cost gate of a bench document (the `checkpoint`
/// object [`checkpoint_bench`] writes): `Ok(summary)` when every
/// measured path's p99 round trip fit the 1 ms budget, `Err(explanation)`
/// on a miss or a document without the measurement.
pub fn checkpoint_gate(doc: &json::Value) -> Result<String, String> {
    let bench = doc
        .get("checkpoint")
        .ok_or("document has no checkpoint section (was the bench run with --pool?)")?;
    let budget = bench
        .get("budget_ns")
        .and_then(|v| v.as_f64())
        .ok_or("checkpoint has no numeric budget_ns")?;
    let paths = bench
        .get("paths")
        .and_then(|p| p.as_array())
        .filter(|p| !p.is_empty())
        .ok_or("checkpoint has no paths array")?;
    let passed = match bench.get("passed") {
        Some(json::Value::Bool(b)) => *b,
        _ => return Err("checkpoint has no boolean passed".to_string()),
    };
    let mut parts = Vec::new();
    for path in paths {
        let name = path
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("checkpoint path has no name")?;
        let p99 = path
            .get("p99_ns")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("checkpoint path {name} has no numeric p99_ns"))?;
        parts.push(format!("{name} p99 {:.1}us", p99 / 1e3));
    }
    let summary = format!(
        "checkpoint+restore round trips ({}) within the {:.0} ms budget",
        parts.join(", "),
        budget / 1e6
    );
    if passed {
        Ok(summary)
    } else {
        Err(format!(
            "checkpoint round trip beyond its budget — {summary}"
        ))
    }
}

/// Checks the tracing-overhead gate of a bench document (the
/// `pool_observability` object [`pool_obs_bench`] writes): `Ok(summary)`
/// when tracing at the default sampling cost less than its budget,
/// `Err(explanation)` on a miss or a document without the measurement.
pub fn pool_obs_gate(doc: &json::Value) -> Result<String, String> {
    let obs = doc
        .get("pool_observability")
        .ok_or("document has no pool_observability (was the sweep run with --pool?)")?;
    let num = |key: &str| -> Result<f64, String> {
        obs.get(key)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("pool_observability has no numeric {key}"))
    };
    let every = num("sample_every")?;
    let off = num("off_words_per_s")?;
    let on = num("on_words_per_s")?;
    let overhead = num("overhead_fraction")?;
    let budget = num("max_overhead")?;
    let passed = match obs.get("passed") {
        Some(json::Value::Bool(b)) => *b,
        _ => return Err("pool_observability has no boolean passed".to_string()),
    };
    let summary = format!(
        "pool tracing at 1-in-{every:.0}: {on:.0} words/s vs {off:.0} untraced \
         ({:.1}% overhead, budget {:.0}%)",
        overhead * 100.0,
        budget * 100.0
    );
    if passed {
        Ok(summary)
    } else {
        Err(format!("tracing overhead beyond its budget — {summary}"))
    }
}

/// Compares a current bench document against a baseline one: the hybrid
/// pipeline's `host_words_per_s` may not drop by more than `max_drop`
/// (a fraction, e.g. `0.2` for 20%).
///
/// Returns `Ok(summary)` when within budget and `Err(explanation)` on a
/// regression or on documents missing the metric.
pub fn compare_with_baseline(
    current: &json::Value,
    baseline: &json::Value,
    max_drop: f64,
) -> Result<String, String> {
    let metric = |doc: &json::Value, which: &str| -> Result<f64, String> {
        doc.get("hybrid")
            .and_then(|h| h.get("host_words_per_s"))
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{which} document has no hybrid.host_words_per_s"))
    };
    let cur = metric(current, "current")?;
    let base = metric(baseline, "baseline")?;
    if base <= 0.0 {
        return Err(format!("baseline hybrid.host_words_per_s is {base}"));
    }
    let drop = 1.0 - cur / base;
    let summary = format!(
        "hybrid host_words_per_s: current {cur:.0}, baseline {base:.0} ({:+.1}% vs baseline, budget -{:.0}%)",
        -drop * 100.0,
        max_drop * 100.0
    );
    if drop > max_drop {
        Err(format!("regression beyond budget — {summary}"))
    } else {
        Ok(summary)
    }
}

fn quantiles_json(recorder: &Recorder, name: &str) -> json::Value {
    let mut obj = json::Value::object();
    if let Some(h) = recorder.histogram(name) {
        obj.set("count", json::Value::Number(h.count() as f64));
        obj.set("mean_ns", json::Value::Number(h.mean_ns()));
        obj.set("min_ns", json::Value::Number(h.min_ns()));
        obj.set("max_ns", json::Value::Number(h.max_ns()));
        obj.set("p50_ns", json::Value::Number(h.quantile_ns(0.50)));
        obj.set("p90_ns", json::Value::Number(h.quantile_ns(0.90)));
        obj.set("p99_ns", json::Value::Number(h.quantile_ns(0.99)));
    }
    obj
}

/// Runs the benchmark suite and returns the JSON document.
pub fn bench_json(seed: u64, words: usize) -> json::Value {
    let words = words.max(1);

    // Host throughput of every sequential generator.
    let mut generators = Vec::new();
    let mut push = |name: &str, wps: f64| {
        let mut g = json::Value::object();
        g.set("name", json::Value::String(name.to_string()));
        g.set("words_per_s", json::Value::Number(wps));
        generators.push(g);
    };
    let mut expander = ExpanderWalkRng::from_seed_u64(seed);
    push("expander_walk", words_per_s(|| expander.next_u64(), words));
    let mut mt64 = Mt19937_64::new(seed);
    push("mt19937_64", words_per_s(|| mt64.next_u64(), words));
    let mut mt = Mt19937::new(seed as u32 | 1);
    push("mt19937", words_per_s(|| mt.next_u64(), words));
    let mut sm = SplitMix64::new(seed);
    push("splitmix64", words_per_s(|| sm.next_u64(), words));
    let mut mwc = Mwc64::new(seed);
    push("mwc64", words_per_s(|| mwc.next_u64(), words));
    let mut kiss = Kiss::new(seed);
    push("kiss", words_per_s(|| kiss.next_u64(), words));
    let mut xw = Xorwow::new(seed);
    push("xorwow", words_per_s(|| xw.next_u64(), words));
    let cpu = ExpanderLanes::new(seed);
    push("cpu_parallel", {
        let start = Instant::now();
        let mut produced = 0usize;
        while produced < words {
            let take = (words - produced).min(65_536);
            let mut out = vec![0u64; take];
            cpu.fill(&mut out, rayon::current_num_threads())
                .expect("rayon runs at least one thread");
            std::hint::black_box(out);
            produced += take;
        }
        words as f64 / start.elapsed().as_secs_f64().max(1e-12)
    });

    // Hybrid pipeline: host wall, simulated throughput, batch-latency
    // quantiles, busy fractions.
    let mut hybrid = HybridPrng::tesla(seed);
    let threads = hybrid.params().batch_size.max(1) as usize * 64;
    let mut session = hybrid
        .try_session(threads)
        .expect("threads is positive by construction");
    let wall = Instant::now();
    let mut remaining = words;
    while remaining > 0 {
        let take = remaining.min(threads);
        session
            .try_next_batch(take)
            .expect("take is within the session's walks");
        remaining -= take;
    }
    let host_secs = wall.elapsed().as_secs_f64().max(1e-12);
    let stats = session.stats();
    let timeline = session.timeline();
    let recorder = session.take_telemetry();

    let mut hybrid_obj = json::Value::object();
    hybrid_obj.set(
        "host_words_per_s",
        json::Value::Number(words as f64 / host_secs),
    );
    hybrid_obj.set(
        "sim_gnumbers_per_s",
        json::Value::Number(stats.gnumbers_per_s),
    );
    hybrid_obj.set(
        "batch_latency",
        quantiles_json(&recorder, "batch_latency_ns"),
    );
    let trace = chrome_trace(Some(&timeline), Some(&recorder));
    if let Ok(busy) = busy_fractions(&trace) {
        let mut b = json::Value::object();
        b.set("cpu", json::Value::Number(busy.cpu));
        b.set("gpu", json::Value::Number(busy.gpu));
        hybrid_obj.set("busy_fractions", b);
    }

    // Monitor-tap overhead at the default 1-in-64 sampling.
    let (off_ns, on_ns) = measure_monitor_overhead(seed, words.min(1 << 20), 64);
    let mut overhead = json::Value::object();
    overhead.set("sample_every", json::Value::Number(64.0));
    overhead.set("generate_ns_monitor_off", json::Value::Number(off_ns));
    overhead.set("generate_ns_monitor_on", json::Value::Number(on_ns));
    overhead.set(
        "generate_overhead_fraction",
        json::Value::Number((on_ns - off_ns).max(0.0) / off_ns.max(1.0)),
    );

    let mut doc = json::Value::object();
    doc.set("schema", json::Value::String("hprng-bench-v1".to_string()));
    doc.set("seed", json::Value::Number(seed as f64));
    doc.set("words", json::Value::Number(words as f64));
    doc.set("generators", json::Value::Array(generators));
    doc.set("hybrid", hybrid_obj);
    doc.set("engine", engine_bench(seed, words));
    doc.set("apps", apps_bench(seed));
    doc.set("monitor_overhead", overhead);
    doc
}

/// Runs [`bench_json`] and writes the document to `path`; returns the
/// serialized length in bytes.
pub fn write_bench_json(path: &std::path::Path, seed: u64, words: usize) -> std::io::Result<usize> {
    let text = bench_json(seed, words).to_json();
    std::fs::write(path, &text)?;
    Ok(text.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_has_every_section() {
        let doc = bench_json(3, 50_000);
        let text = doc.to_json();
        let parsed = json::parse(&text).expect("self-parseable");
        let gens = parsed.get("generators").and_then(|g| g.as_array()).unwrap();
        assert!(gens.len() >= 8);
        for g in gens {
            assert!(g.get("words_per_s").and_then(|v| v.as_f64()).unwrap() > 0.0);
        }
        let hybrid = parsed.get("hybrid").unwrap();
        assert!(
            hybrid
                .get("batch_latency")
                .and_then(|b| b.get("count"))
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
        let busy = hybrid.get("busy_fractions").unwrap();
        assert!(busy.get("cpu").and_then(|v| v.as_f64()).unwrap() > 0.0);
        let overhead = parsed.get("monitor_overhead").unwrap();
        assert!(
            overhead
                .get("generate_ns_monitor_off")
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn overhead_measurement_returns_positive_times() {
        let (off, on) = measure_monitor_overhead(5, 1 << 14, 64);
        assert!(off > 0.0 && on > 0.0);
    }

    #[test]
    fn engine_bench_covers_both_backends() {
        let doc = engine_bench(3, 20_000);
        let backends = doc.get("backends").and_then(|m| m.as_array()).unwrap();
        assert_eq!(backends.len(), 2);
        for entry in backends {
            assert!(
                entry.get("words_per_s").and_then(|v| v.as_f64()).unwrap() > 0.0,
                "zero throughput in {entry:?}"
            );
        }
    }

    #[test]
    fn apps_sweep_ranks_are_bit_identical_across_backends() {
        let doc = apps_bench(3);
        let rows = doc.get("listrank").and_then(|m| m.as_array()).unwrap();
        assert_eq!(rows.len(), 2); // one per backend
        let hashes: Vec<&str> = rows
            .iter()
            .map(|r| r.get("ranks_fnv").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert!(
            hashes.iter().all(|&h| h == hashes[0]),
            "rank hashes diverge across the sweep: {hashes:?}"
        );
        let mc = doc.get("montecarlo").and_then(|m| m.as_array()).unwrap();
        assert_eq!(mc.len(), 1);
        for row in mc {
            assert!(row.get("photons_per_s").and_then(|v| v.as_f64()).unwrap() > 0.0);
        }
    }

    #[test]
    fn pool_bench_reports_the_sweep_and_its_gate() {
        let doc = pool_bench(3, 50_000);
        let cores = doc.get("cores").and_then(|v| v.as_f64()).unwrap() as usize;
        assert!(cores >= 1);
        let sweep = doc.get("sweep").and_then(|s| s.as_array()).unwrap();
        assert_eq!(sweep.len(), 2 * cores);
        for row in sweep {
            assert!(
                row.get("pool_words_per_s")
                    .and_then(|v| v.as_f64())
                    .unwrap()
                    > 0.0
            );
            assert!(
                row.get("mutex_words_per_s")
                    .and_then(|v| v.as_f64())
                    .unwrap()
                    > 0.0
            );
        }
        let gate = doc.get("gate").unwrap();
        assert_eq!(
            gate.get("consumers").and_then(|v| v.as_f64()).unwrap(),
            (2 * cores) as f64
        );
        assert!(matches!(gate.get("passed"), Some(json::Value::Bool(_))));
    }

    #[test]
    fn pool_gate_enforces_the_passed_flag() {
        let doc = |passed: bool| {
            json::parse(&format!(
                r#"{{"pool": {{"gate": {{"consumers": 8, "pool_words_per_s": 4000.0,
                    "baseline_words_per_s": 1000.0, "speedup_floor": 2.0,
                    "passed": {passed}}}}}}}"#
            ))
            .unwrap()
        };
        let summary = pool_gate(&doc(true)).unwrap();
        assert!(summary.contains("8 consumers"), "{summary}");
        let reason = pool_gate(&doc(false)).unwrap_err();
        assert!(reason.contains("below its speedup floor"), "{reason}");
        // A document without the sweep (or with a mangled gate) is an
        // error, not a silent pass.
        assert!(pool_gate(&json::parse("{}").unwrap()).is_err());
        assert!(pool_gate(&json::parse(r#"{"pool": {"gate": {}}}"#).unwrap()).is_err());
    }

    #[test]
    fn checkpoint_bench_reports_both_paths_with_quantiles() {
        let doc = checkpoint_bench(3, 16);
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
        assert!(matches!(doc.get("passed"), Some(json::Value::Bool(_))));
    }

    #[test]
    fn checkpoint_gate_enforces_the_passed_flag() {
        let doc = |passed: bool| {
            json::parse(&format!(
                r#"{{"checkpoint": {{"budget_ns": 1000000.0, "passed": {passed},
                    "paths": [{{"name": "expander_rich_json", "iterations": 64,
                                "p50_ns": 1000.0, "p90_ns": 2000.0,
                                "p99_ns": 3000.0, "max_ns": 4000.0}}]}}}}"#
            ))
            .unwrap()
        };
        let summary = checkpoint_gate(&doc(true)).unwrap();
        assert!(summary.contains("expander_rich_json"), "{summary}");
        let reason = checkpoint_gate(&doc(false)).unwrap_err();
        assert!(reason.contains("beyond its budget"), "{reason}");
        // A document without the measurement (or with a mangled one) is
        // an error, not a silent pass.
        assert!(checkpoint_gate(&json::parse("{}").unwrap()).is_err());
        assert!(checkpoint_gate(&json::parse(r#"{"checkpoint": {}}"#).unwrap()).is_err());
        assert!(checkpoint_gate(
            &json::parse(r#"{"checkpoint": {"budget_ns": 1.0, "passed": true, "paths": []}}"#)
                .unwrap()
        )
        .is_err());
    }

    #[test]
    fn pool_obs_bench_reports_both_sides_of_the_toggle() {
        let doc = pool_obs_bench(3, 1 << 20, 64);
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
        assert!(matches!(doc.get("passed"), Some(json::Value::Bool(_))));
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
    fn pool_obs_gate_enforces_the_passed_flag() {
        let doc = |passed: bool| {
            json::parse(&format!(
                r#"{{"pool_observability": {{"words": 1048576, "sample_every": 64,
                    "off_words_per_s": 1000.0, "on_words_per_s": 990.0,
                    "overhead_fraction": 0.01, "max_overhead": 0.05,
                    "passed": {passed}}}}}"#
            ))
            .unwrap()
        };
        let summary = pool_obs_gate(&doc(true)).unwrap();
        assert!(summary.contains("1-in-64"), "{summary}");
        let reason = pool_obs_gate(&doc(false)).unwrap_err();
        assert!(reason.contains("beyond its budget"), "{reason}");
        // A document without the measurement (or with a mangled one) is
        // an error, not a silent pass.
        assert!(pool_obs_gate(&json::parse("{}").unwrap()).is_err());
        assert!(pool_obs_gate(&json::parse(r#"{"pool_observability": {}}"#).unwrap()).is_err());
    }

    #[test]
    fn baseline_comparison_flags_regressions_only() {
        let doc = |wps: f64| {
            json::parse(&format!(r#"{{"hybrid": {{"host_words_per_s": {wps}}}}}"#)).unwrap()
        };
        // Equal, faster, and a small drop all pass a 20% budget.
        assert!(compare_with_baseline(&doc(100.0), &doc(100.0), 0.2).is_ok());
        assert!(compare_with_baseline(&doc(150.0), &doc(100.0), 0.2).is_ok());
        assert!(compare_with_baseline(&doc(85.0), &doc(100.0), 0.2).is_ok());
        // A 30% drop fails it.
        assert!(compare_with_baseline(&doc(70.0), &doc(100.0), 0.2).is_err());
        // Malformed documents are an error, not a silent pass.
        let empty = json::parse("{}").unwrap();
        assert!(compare_with_baseline(&empty, &doc(100.0), 0.2).is_err());
        assert!(compare_with_baseline(&doc(100.0), &empty, 0.2).is_err());
    }
}
