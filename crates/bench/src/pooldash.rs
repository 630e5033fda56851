//! The `repro pool-dash` subcommand: a live terminal dashboard over a
//! traced sharded pool.
//!
//! Spins up a [`Pool`] with request-path tracing on, drives it with a
//! configurable client fleet, and redraws a per-shard table while the
//! run is in flight: queue depth and occupancy, service / enqueue-wait /
//! refill-copy latency quantiles, and the words each shard produced. The
//! final telemetry snapshot is returned so the caller can export it
//! (`--prom-out`, `--trace-out`) or assert on it.

use hprng_pool::{names, Pool};
use hprng_telemetry::Recorder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Words per `fill_words` request issued by each dashboard client.
const REQUEST: usize = 2048;

/// Configuration of one dashboard run.
#[derive(Clone, Copy, Debug)]
pub struct PoolDashConfig {
    /// Pool master seed.
    pub seed: u64,
    /// Serving shards.
    pub shards: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total word budget across all clients.
    pub words: u64,
    /// 1-in-N span sampling passed to [`hprng_pool::PoolBuilder::tracing`].
    pub sample_every: u64,
    /// Redraw a live dashboard while running (terminal use only).
    pub live: bool,
}

impl Default for PoolDashConfig {
    fn default() -> Self {
        Self {
            seed: 20120521,
            shards: 2,
            clients: 4,
            words: 1 << 22,
            sample_every: 64,
            live: false,
        }
    }
}

/// The outcome of a dashboard run.
#[derive(Debug)]
pub struct PoolDashReport {
    /// Final registry snapshot with the unified pool stats merged in —
    /// ready for the Prometheus or Chrome-trace exporters.
    pub snapshot: Recorder,
    /// Words actually served to the client fleet.
    pub words: u64,
    /// Aggregate serving rate over the whole run.
    pub words_per_s: f64,
}

/// Renders one dashboard frame from a telemetry snapshot.
///
/// Pure string construction — the tests assert on it without a terminal,
/// and the live loop prepends the ANSI clear-home itself.
pub fn render_frame(cfg: &PoolDashConfig, snap: &Recorder, served: u64, secs: f64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "repro pool-dash — {} shard(s) × {} client(s), spans 1-in-{}",
        cfg.shards.max(1),
        cfg.clients.max(1),
        cfg.sample_every.max(1)
    );
    let _ = writeln!(
        out,
        "  served {served} words in {secs:.2}s ({:.0} words/s) — errors {:.0}",
        served as f64 / secs.max(1e-9),
        snap.counter(names::POOL_ERRORS)
    );
    let _ = writeln!(
        out,
        "  {:>5} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "shard", "depth", "occ%", "svc p50", "svc p99", "wait p99", "copy p99", "words"
    );
    // A shard that traced no requests has missing or empty histograms;
    // its quantiles are undefined, shown as `-` rather than a NaN.
    let quant = |name: &str, q: f64| {
        snap.histogram(name)
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile_ns(q))
    };
    let us = |ns: Option<f64>| match ns {
        Some(ns) => format!("{:.1}µs", ns / 1_000.0),
        None => "-".to_string(),
    };
    for shard in 0..cfg.shards.max(1) {
        let depth = snap.gauge(&names::shard_queue_depth(shard)).unwrap_or(0.0);
        let occ = snap
            .gauge(&names::shard_queue_occupancy(shard))
            .unwrap_or(0.0)
            * 100.0;
        let service = names::shard_service_ns(shard);
        let wait = names::shard_enqueue_wait_ns(shard);
        let copy = names::shard_refill_copy_ns(shard);
        let _ = writeln!(
            out,
            "  {shard:>5} {depth:>6.0} {occ:>6.1} {:>10} {:>10} {:>10} {:>10} {:>10.0}",
            us(quant(&service, 0.50)),
            us(quant(&service, 0.99)),
            us(quant(&wait, 0.99)),
            us(quant(&copy, 0.99)),
            snap.counter(&names::shard_words(shard)),
        );
    }
    out
}

fn live_frame(cfg: &PoolDashConfig, snap: &Recorder, served: u64, secs: f64) {
    if cfg.live {
        // Clear + home, then the dashboard block.
        print!("\x1b[H\x1b[2J{}", render_frame(cfg, snap, served, secs));
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }
}

/// Drives a traced pool with the configured client fleet, redrawing the
/// dashboard while the run is live, and returns the final snapshot.
///
/// A healthy pool never fails a request, so a client error is a bug and
/// panics.
pub fn run_pool_dash(cfg: &PoolDashConfig) -> PoolDashReport {
    let shards = cfg.shards.max(1);
    let fleet = cfg.clients.max(1);
    let pool = Pool::builder(cfg.seed)
        .shards(shards)
        .tracing(cfg.sample_every.max(1))
        .build()
        .expect("pool configuration is valid");
    let clients: Vec<_> = (0..fleet as u64)
        .map(|id| pool.try_client_with_id(id).expect("healthy pool"))
        .collect();
    let per_client = cfg.words.max(1).div_ceil(fleet as u64);
    let served = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let wall = Instant::now();
    std::thread::scope(|scope| {
        let (served, finished) = (&served, &finished);
        for mut client in clients {
            scope.spawn(move || {
                let mut out = [0u64; REQUEST];
                let mut remaining = per_client;
                while remaining > 0 {
                    let take = remaining.min(REQUEST as u64) as usize;
                    client
                        .fill_words(&mut out[..take])
                        .expect("pool client failed");
                    std::hint::black_box(&out);
                    served.fetch_add(take as u64, Ordering::Relaxed);
                    remaining -= take as u64;
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        while cfg.live && finished.load(Ordering::Relaxed) < fleet as u64 {
            std::thread::sleep(Duration::from_millis(50));
            let snap = pool.telemetry_snapshot();
            live_frame(
                cfg,
                &snap,
                served.load(Ordering::Relaxed),
                wall.elapsed().as_secs_f64(),
            );
        }
    });
    let secs = wall.elapsed().as_secs_f64();
    let snapshot = pool.telemetry_snapshot();
    let words = served.load(Ordering::Relaxed);
    live_frame(cfg, &snapshot, words, secs);
    PoolDashReport {
        snapshot,
        words,
        words_per_s: words as f64 / secs.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PoolDashConfig {
        PoolDashConfig {
            seed: 7,
            shards: 2,
            clients: 2,
            words: 1 << 16,
            sample_every: 8,
            live: false,
        }
    }

    #[test]
    fn dash_run_serves_the_budget_and_snapshots_every_shard() {
        let cfg = quick();
        let report = run_pool_dash(&cfg);
        assert!(report.words >= cfg.words, "short-served: {}", report.words);
        assert!(report.words_per_s > 0.0);
        for shard in 0..cfg.shards {
            let service = report
                .snapshot
                .histogram(&names::shard_service_ns(shard))
                .expect("service histogram present");
            assert!(service.count() > 0, "shard {shard} served no refills");
            assert!(
                report.snapshot.counter(&names::shard_words(shard)) > 0.0,
                "shard {shard} words counter is flat"
            );
        }
        assert!(report.snapshot.counter(names::POOL_WORDS) >= cfg.words as f64);
    }

    #[test]
    fn frame_renders_every_shard_row_with_latencies() {
        let cfg = quick();
        let report = run_pool_dash(&cfg);
        let frame = render_frame(&cfg, &report.snapshot, report.words, 1.0);
        assert!(frame.contains("repro pool-dash"), "{frame}");
        assert!(frame.contains("svc p50"), "{frame}");
        assert!(frame.contains("µs"), "{frame}");
        // One header block plus one row per shard.
        assert_eq!(frame.lines().count(), 3 + cfg.shards, "{frame}");
    }

    #[test]
    fn frame_shows_dash_not_nan_for_untraced_shards() {
        // A snapshot with no request histograms at all — e.g. a shard
        // that never saw traffic — must render `-`, never `NaN`.
        let cfg = quick();
        let empty = Recorder::new();
        let frame = render_frame(&cfg, &empty, 0, 1.0);
        assert!(!frame.contains("NaN"), "{frame}");
        for line in frame.lines().skip(3) {
            assert!(line.contains('-'), "untraced shard row lacks `-`: {line}");
        }
        assert_eq!(frame.lines().count(), 3 + cfg.shards, "{frame}");
    }
}
