//! `serve_walk` and `serve_cheap`: closed-loop clients of a `Pool`.
//!
//! One driver thread round-robins over the clients; each request blocks
//! until its words arrive. A repetition builds a fresh pool, admits the
//! clients, runs the seed's fixed request schedule, and checks every
//! client's stream against its lane's reference generator.

use std::sync::Arc;
use std::time::Instant;

use hprng_baselines::SplitMix64;
use hprng_core::seeding::{lane_seed, GOLDEN_GAMMA};
use hprng_core::{ExpanderLanes, ScalarRng, SplitOnDemand};
use hprng_pool::{names, Pool, PoolClient, SessionKind};
use hprng_telemetry::{Recorder, Stage};

use crate::ledger::{ns_since, Ledger, TimedWalk, SPAN_CAP};
use crate::stats::StreamSum;
use crate::{Canaries, Layers, Phase};

/// Salt separating the request-size stream from every lane stream.
const SIZE_SALT: u64 = 0x5EED_0F51_235A_1E00;

/// The pool's span sampling in the traced run. Its refill-copy histogram
/// records only sampled requests, so the copy total is scaled by this.
const COPY_SAMPLE_EVERY: u64 = 64;

/// The pool and load shape of one serving workload.
pub struct Shape {
    /// `SplitMix64` sessions on one shard instead of expander walks.
    pub cheap: bool,
    pub shards: usize,
    pub clients: usize,
    pub max_words: usize,
    pub requests_per_rep: usize,
}

impl Shape {
    pub fn walk(nproc: usize) -> Self {
        Self {
            cheap: false,
            shards: nproc,
            clients: 16,
            max_words: 4096,
            requests_per_rep: 4_096,
        }
    }

    pub fn cheap() -> Self {
        Self {
            cheap: true,
            shards: 1,
            clients: 64,
            max_words: 64,
            requests_per_rep: 1 << 18,
        }
    }
}

/// Request sizes drawn log-uniformly from `1..=max_words`.
fn request_sizes(seed: u64, shape: &Shape) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ SIZE_SALT);
    let log_span = ((shape.max_words + 1) as f64).ln();
    (0..shape.requests_per_rep)
        .map(|_| {
            let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
            ((u * log_span).exp() as usize).clamp(1, shape.max_words)
        })
        .collect()
}

/// The client id whose lane seed under `pool_seed` is `seed` (the
/// inverse of [`lane_seed`]; the golden gamma is odd, so invertible).
fn client_of(pool_seed: u64, seed: u64) -> u64 {
    let mut inv = GOLDEN_GAMMA;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(GOLDEN_GAMMA.wrapping_mul(inv)));
    }
    (seed ^ pool_seed).wrapping_mul(inv)
}

fn build_pool(seed: u64, shape: &Shape, ledger: Option<&Arc<Ledger>>) -> Result<Pool, String> {
    let mut builder = Pool::builder(seed).shards(shape.shards);
    if shape.cheap {
        builder = builder.session(SessionKind::Custom {
            lanes: 1,
            factory: Arc::new(|s| Box::new(ScalarRng::new(SplitMix64::new(s)))),
        });
    } else if let Some(ledger) = ledger {
        // The default session, rebuilt around a timed walk.
        let ledger = Arc::clone(ledger);
        builder = builder.session(SessionKind::Custom {
            lanes: 1,
            factory: Arc::new(move |s| Box::new(TimedWalk::new(s, client_of(seed, s), &ledger))),
        });
    }
    if ledger.is_some() {
        builder = builder.tracing(COPY_SAMPLE_EVERY);
    }
    builder
        .build()
        .map_err(|e| format!("building the pool: {e}"))
}

/// The reference stream of client `id`: its lane of the pool seed.
fn reference_sum(seed: u64, cheap: bool, id: u64, words: u64) -> StreamSum {
    if cheap {
        let mut rng = SplitMix64::new(lane_seed(seed, id));
        sum_of(words, || rng.next())
    } else {
        let mut rng = ExpanderLanes::new(seed).lane(id);
        sum_of(words, || rng.get_next_rand())
    }
}

fn sum_of(words: u64, mut next: impl FnMut() -> u64) -> StreamSum {
    let mut sum = StreamSum::default();
    let mut buf = [0u64; 1024];
    let mut left = words as usize;
    while left > 0 {
        let n = left.min(buf.len());
        buf[..n].iter_mut().for_each(|w| *w = next());
        sum.add(&buf[..n]);
        left -= n;
    }
    sum
}

/// Client ids whose delivered stream differs from their reference,
/// checked on up to `threads` threads.
fn mismatched_clients(seed: u64, cheap: bool, sums: &[StreamSum], threads: usize) -> Vec<usize> {
    let threads = threads.clamp(1, sums.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..sums.len())
                        .step_by(threads)
                        .filter(|&c| reference_sum(seed, cheap, c as u64, sums[c].words) != sums[c])
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut bad: Vec<usize> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("a verification thread panicked"))
            .collect();
        bad.sort_unstable();
        bad
    })
}

/// Sum and count of one histogram across every shard.
fn shard_sum(snap: &Recorder, shards: usize, name: impl Fn(usize) -> String) -> (f64, u64) {
    (0..shards)
        .filter_map(|i| snap.histogram(&name(i)))
        .fold((0.0, 0), |(s, c), h| (s + h.sum_ns(), c + h.count()))
}

fn shard_count(snap: &Recorder, shards: usize, name: impl Fn(usize) -> String) -> f64 {
    (0..shards).map(|i| snap.counter(&name(i))).sum()
}

/// Runs repetitions for `seconds` (at least two).
pub fn run(
    seed: u64,
    shape: &Shape,
    seconds: f64,
    nproc: usize,
    ledger: Option<&Arc<Ledger>>,
    slow_ns: u64,
    canaries: &mut Canaries,
) -> Result<Phase, String> {
    let sizes = request_sizes(seed, shape);
    let mut buf = vec![0u64; shape.max_words];
    let mut phase = Phase::default();
    let mut layers = Layers::default();
    let mut kept_spans = 0usize;
    let begin = Instant::now();
    while phase.reps < 2 || begin.elapsed().as_secs_f64() < seconds {
        let rep_span = ledger.and_then(|l| {
            l.spans
                .open(Stage::App, format!("rep {}", phase.reps), None)
        });

        // Set-up: build, admit every client, and receive its first refill.
        let t0 = Instant::now();
        let pool = build_pool(seed, shape, ledger)?;
        let mut clients: Vec<PoolClient> = (0..shape.clients)
            .map(|_| pool.try_client())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("admitting a client: {e}"))?;
        let mut sums = vec![StreamSum::default(); shape.clients];
        for (sum, client) in sums.iter_mut().zip(clients.iter_mut()) {
            let word = client
                .try_next_u64()
                .map_err(|e| format!("first refill: {e}"))?;
            sum.add_one(word);
        }
        let setup_ns = ns_since(t0);

        // The timed closed loop.
        let mut busy_ns = 0u64;
        let mut failed = 0u64;
        let mut words = 0u64;
        let start = Instant::now();
        for (i, &n) in sizes.iter().enumerate() {
            let c = i % shape.clients;
            let out = &mut buf[..n];
            let t = Instant::now();
            let result = if n == 1 {
                clients[c].try_next_u64().map(|w| out[0] = w)
            } else {
                clients[c].fill_words(out)
            };
            let ns = ns_since(t);
            phase.latencies.record(ns);
            busy_ns += ns;
            match result {
                Ok(()) => {
                    sums[c].add(out);
                    words += n as u64;
                }
                Err(_) => failed += 1,
            }
            if let Some(l) = ledger {
                if kept_spans < SPAN_CAP / 2 || ns > slow_ns {
                    let at = l.spans.at(t);
                    l.spans.push(
                        Stage::App,
                        format!("request c{c} {n} words"),
                        at,
                        at + ns as f64,
                        rep_span,
                    );
                    kept_spans += 1;
                }
            }
        }
        let wall_ns = ns_since(start);

        // Drain: a checkpoint round-trip per shard queues behind every
        // refill already requested, so the counts below are final.
        for s in 0..shape.shards.min(shape.clients) {
            clients[s]
                .session_checkpoint()
                .map_err(|e| format!("draining shard {s}: {e}"))?;
        }
        let stats = pool.stats();
        let snap = pool.registry().map(|r| r.snapshot());
        drop(clients);
        pool.shutdown();
        if let Some(l) = ledger {
            l.spans.close(rep_span);
            if let Some(snap) = &snap {
                l.spans.absorb(snap, rep_span);
            }
        }

        // Output check: every client's stream is its lane's stream.
        let bad = mismatched_clients(seed, shape.cheap, &sums, nproc);
        for &c in &bad {
            // Count every timed request the mismatched client made.
            failed += (c..sizes.len()).step_by(shape.clients).count() as u64;
        }
        canaries.check(&[("pool.words", stats.words), ("pool.refills", stats.refills)]);
        if let (Some(l), false) = (ledger, shape.cheap) {
            canaries.check_walk(l);
        }

        phase.rep(setup_ns, wall_ns, words, sizes.len() as u64);
        phase.attempted += sizes.len() as u64;
        phase.failed += failed;

        if let Some(snap) = &snap {
            let n = shape.shards;
            let (service_ns, service_count) = shard_sum(snap, n, names::shard_service_ns);
            let (wait_ns, wait_count) = shard_sum(snap, n, names::shard_enqueue_wait_ns);
            let (copy_ns, _) = shard_sum(snap, n, names::shard_refill_copy_ns);
            layers.add("pool.refills", stats.refills as f64);
            layers.add("pool.words", stats.words as f64);
            layers.add("pool.errors", stats.errors as f64);
            layers.add("pool.service_s", service_ns / 1e9);
            layers.add("pool.service_count", service_count as f64);
            layers.add("pool.capacity_s", wall_ns as f64 * n as f64 / 1e9);
            layers.add("transport.ring_wait_s", wait_ns / 1e9);
            layers.add("transport.ring_wait_count", wait_count as f64);
            layers.add("client.requests", sizes.len() as f64);
            layers.add("client.busy_s", busy_ns as f64 / 1e9);
            layers.add("client.copy_s", copy_ns * COPY_SAMPLE_EVERY as f64 / 1e9);
            layers.add("client.replays", shard_count(snap, n, names::shard_replays));
            layers.add("client.stalls", shard_count(snap, n, names::shard_stalls));
            layers.add(
                "trace.residual_s",
                wall_ns.saturating_sub(busy_ns) as f64 / 1e9,
            );
        }
    }
    phase.layers = layers;
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_of_inverts_lane_seed() {
        for (pool, id) in [(0u64, 0u64), (42, 7), (u64::MAX, 123_456)] {
            assert_eq!(client_of(pool, lane_seed(pool, id)), id);
        }
    }

    #[test]
    fn sizes_are_log_uniform_within_bounds() {
        let shape = Shape::walk(2);
        let sizes = request_sizes(1, &shape);
        assert!(sizes.iter().all(|&n| (1..=4096).contains(&n)));
        let small = sizes.iter().filter(|&&n| n < 64).count() as f64;
        // log-uniform: half of the log range lies below 64.
        assert!((small / sizes.len() as f64 - 0.5).abs() < 0.05);
        assert_eq!(sizes, request_sizes(1, &shape));
    }
}
