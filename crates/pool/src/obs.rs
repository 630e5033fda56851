//! Request-path observability: the canonical pool metric names and the
//! per-shard instrument bundle behind [`crate::PoolBuilder::tracing`].
//!
//! One [`hprng_telemetry::Registry`] per pool, one [`ShardObs`] bundle
//! per shard. Clients and shard workers record through pre-registered
//! handles (relaxed atomics), so tracing adds no locks and no
//! allocation to the word-serving hot path; spans are sampled 1-in-N
//! (the same gate discipline as the quality monitor), so the only
//! allocating work — formatting a span name — happens on a small,
//! configurable fraction of requests.
//!
//! Queue depth and occupancy are transport-level instruments: each
//! shard's request ring is built with
//! [`hprng_transport::RingInstruments`] over the gauges registered
//! here, so the exported depth is exact (updated inside the ring lock on
//! every send and receive) rather than tracked by a racy external
//! counter.

use hprng_telemetry::{Counter, Gauge, HistogramHandle, Registry};
use hprng_transport::RingInstruments;

/// The canonical metric names of the pool, shared by
/// [`crate::PoolStats::export_into`] and the tracing registry so a
/// Prometheus scrape never sees two spellings of one quantity.
///
/// Counters follow the Prometheus `_total` convention; gauges and
/// histograms are bare. The exporter prefixes everything with
/// [`hprng_telemetry::prometheus::METRIC_PREFIX`], so e.g.
/// [`names::POOL_WORDS`] scrapes as `hprng_pool_words_total`.
pub mod names {
    /// Prefetch-block refills served, pool-wide (counter).
    pub const POOL_REFILLS: &str = "pool_refills_total";
    /// Words delivered in refill replies, pool-wide (counter).
    pub const POOL_WORDS: &str = "pool_words_total";
    /// Refills failed with a session error, pool-wide (counter).
    pub const POOL_ERRORS: &str = "pool_errors_total";
    /// Shard worker threads (gauge).
    pub const POOL_SHARDS: &str = "pool_shards";
    /// Currently attached client sessions (gauge).
    pub const POOL_CLIENTS: &str = "pool_clients";
    /// Shards whose worker died by panic (gauge).
    pub const POOL_POISONED_SHARDS: &str = "pool_poisoned_shards";
    /// Clients that automatically reattached to a healthy shard after
    /// their shard was poisoned (counter; see
    /// [`crate::PoolBuilder::failover`]).
    pub const POOL_FAILOVERS: &str = "pool_failovers_total";
    /// Clients moved between live shards by [`crate::Pool::rebalance`] /
    /// [`crate::PoolClient::migrate_to`] (counter).
    pub const POOL_MIGRATIONS: &str = "pool_migrations_total";

    /// Requests currently in shard `shard`'s request ring (gauge).
    pub fn shard_queue_depth(shard: usize) -> String {
        format!("pool_shard{shard}_queue_depth")
    }

    /// Queue depth over queue capacity for shard `shard` (gauge, 0..=1).
    pub fn shard_queue_occupancy(shard: usize) -> String {
        format!("pool_shard{shard}_queue_occupancy")
    }

    /// Time a refill request waited in shard `shard`'s queue before the
    /// worker dequeued it (log2 histogram, nanoseconds).
    pub fn shard_enqueue_wait_ns(shard: usize) -> String {
        format!("pool_shard{shard}_enqueue_wait_ns")
    }

    /// Time shard `shard`'s worker spent serving one refill: generating
    /// its block, or finishing and handing over the block it filled
    /// ahead (log2 histogram, nanoseconds).
    pub fn shard_service_ns(shard: usize) -> String {
        format!("pool_shard{shard}_service_ns")
    }

    /// Client-side time spent copying prefetched words out (whole
    /// request minus queue/refill waits; log2 histogram, nanoseconds).
    pub fn shard_refill_copy_ns(shard: usize) -> String {
        format!("pool_shard{shard}_refill_copy_ns")
    }

    /// A retired counter name: no pool instrument records it any more.
    pub fn shard_stalls(shard: usize) -> String {
        format!("pool_shard{shard}_stalls_total")
    }

    /// A retired counter name: no pool instrument records it any more.
    pub fn shard_replays(shard: usize) -> String {
        format!("pool_shard{shard}_replays_total")
    }

    /// Session-stream words shard `shard`'s worker delivered in refill
    /// replies (counter). Words filled ahead count once their block is
    /// delivered.
    pub fn shard_words(shard: usize) -> String {
        format!("pool_shard{shard}_words_total")
    }

    /// Words shard `shard`'s worker filled ahead of demand, in idle time,
    /// into its clients' spare blocks (counter). Those a detach,
    /// migration or shutdown drops before delivery are the waste of
    /// filling ahead.
    pub fn shard_ahead_words(shard: usize) -> String {
        format!("pool_shard{shard}_ahead_words_total")
    }

    /// Refills shard `shard`'s worker answered with a spare block it had
    /// filled ahead, wholly or in part (counter).
    pub fn shard_spare_refills(shard: usize) -> String {
        format!("pool_shard{shard}_spare_refills_total")
    }
}

/// Pool-wide tracing state: the shared registry plus one [`ShardObs`]
/// per shard. Present on a [`crate::Pool`] only when
/// [`crate::PoolBuilder::tracing`] was called.
pub(crate) struct PoolObs {
    pub registry: Registry,
    pub shards: Vec<std::sync::Arc<ShardObs>>,
}

impl PoolObs {
    pub fn new(shards: usize, sample_every: u64) -> Self {
        let registry = Registry::new();
        let shards = (0..shards)
            .map(|i| std::sync::Arc::new(ShardObs::new(&registry, i, sample_every)))
            .collect();
        Self { registry, shards }
    }
}

/// The per-shard instrument bundle. Handles are registered once at pool
/// construction; recording through them is wait-free.
pub(crate) struct ShardObs {
    registry: Registry,
    /// Span sampling gate: 1-in-`sample_every` requests / refills emit
    /// a span (histograms and counters always record — they are cheap).
    pub sample_every: u64,
    queue_depth: Gauge,
    queue_occupancy: Gauge,
    pub enqueue_wait_ns: HistogramHandle,
    pub service_ns: HistogramHandle,
    pub refill_copy_ns: HistogramHandle,
    pub words: Counter,
    pub ahead_words: Counter,
    pub spare_refills: Counter,
}

impl ShardObs {
    fn new(registry: &Registry, shard: usize, sample_every: u64) -> Self {
        Self {
            registry: registry.clone(),
            sample_every: sample_every.max(1),
            queue_depth: registry.gauge(&names::shard_queue_depth(shard)),
            queue_occupancy: registry.gauge(&names::shard_queue_occupancy(shard)),
            enqueue_wait_ns: registry.histogram(&names::shard_enqueue_wait_ns(shard)),
            service_ns: registry.histogram(&names::shard_service_ns(shard)),
            refill_copy_ns: registry.histogram(&names::shard_refill_copy_ns(shard)),
            words: registry.counter(&names::shard_words(shard)),
            ahead_words: registry.counter(&names::shard_ahead_words(shard)),
            spare_refills: registry.counter(&names::shard_spare_refills(shard)),
        }
    }

    /// Nanoseconds since the pool's tracing epoch.
    pub fn now_ns(&self) -> f64 {
        self.registry.now_ns()
    }

    /// Records a completed span on the pool's registry (shared epoch).
    pub fn record_span(&self, stage: hprng_telemetry::Stage, name: &str, start: f64, end: f64) {
        self.registry.record_span(stage, name, start, end);
    }

    /// The queue gauges, packaged for
    /// [`hprng_transport::ring::bounded_instrumented`] — the shard's
    /// request ring updates them exactly, under its own lock.
    pub fn ring_instruments(&self) -> RingInstruments {
        RingInstruments {
            depth: self.queue_depth.clone(),
            occupancy: self.queue_occupancy.clone(),
        }
    }
}
