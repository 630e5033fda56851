//! Pool construction: the builder, the backpressure policy, and the
//! per-client session recipe.

use std::sync::Arc;
use std::time::Duration;

use hprng_core::{
    CpuBackend, Engine, ExpanderWalkRng, GlibcFeed, HprngError, HybridParams, OnDemandRng,
};

use crate::pool::Pool;

/// Default per-client prefetch block, in words: 8 KiB, big enough to
/// amortize a shard round-trip, small enough that the two blocks a client
/// holds stay cache-friendly.
pub(crate) const DEFAULT_PREFETCH_WORDS: usize = 1024;

/// What a [`crate::PoolClient`] does when its shard cannot hand back a
/// refilled prefetch block immediately (the shard's request queue is
/// full, or the refill has not completed yet).
///
/// Both policies serve only the client's own lane stream; they differ in
/// how long a request may wait for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FullPolicy {
    /// Wait for the refill; latency absorbs the backpressure. The
    /// default.
    #[default]
    Block,
    /// Wait up to the given patience, then fail the request with the
    /// retryable [`HprngError::ShardStalled`]. The refill stays in flight
    /// and words a stall caught mid-request are staged client-side and
    /// re-served by the next request, so retrying resumes the stream
    /// without a gap. A caller that needs words during a stall serves
    /// them from its own fallback on `ShardStalled`.
    TryFor(Duration),
}

/// A user-supplied session recipe: maps a client's 64-bit lane seed to the
/// generator that serves its stream inside the shard worker.
pub type SessionFactory = Arc<dyn Fn(u64) -> Box<dyn OnDemandRng + Send> + Send + Sync>;

/// Which generator backs each client's private session.
///
/// Every client gets its **own** session, seeded from
/// [`hprng_core::seeding::lane_seed`]`(pool_seed, client_id)` — that is
/// what makes a client's stream bit-reproducible regardless of shard
/// count, shard assignment, or how concurrent clients interleave. Shards
/// are the serving substrate (worker threads hosting sessions), not the
/// randomness source.
#[derive(Clone)]
#[non_exhaustive]
pub enum SessionKind {
    /// One [`ExpanderWalkRng`] per client: the paper's host-side
    /// thread-safety model, and bit-identical to
    /// [`hprng_core::ExpanderLanes`]`::lane(client_id)`. One lane per
    /// client. This is the default.
    ExpanderWalk,
    /// One [`Engine`] on a [`CpuBackend`] per client (the §IV-A multicore
    /// variant): `lanes` walks fed by glibc `rand()` under the client's
    /// lane seed. It serves the words an engine on the simulated-device
    /// backend would: the two backends are pinned bit-identical.
    CpuEngine {
        /// Host walks per client session.
        lanes: usize,
        /// Pipeline parameters. The engine reads only their walk
        /// configuration (`params.walk`: warm-up and walk lengths).
        params: HybridParams,
    },
    /// Bring your own generator (used by the stress suite to inject
    /// panicking and slow sessions). `lanes` is the advertised per-client
    /// lane count; the factory receives the client's lane seed. The
    /// sessions the factory builds must report the same
    /// [`OnDemandRng::lanes`] — the shard rejects the attachment with
    /// [`HprngError::InvalidParam`] otherwise, since the client's buffer
    /// sizing and [`crate::PoolClient::lanes`] are derived from the
    /// advertised count.
    Custom {
        /// Advertised [`OnDemandRng::lanes`] of each client.
        lanes: usize,
        /// Builds the session from the client's lane seed.
        factory: SessionFactory,
    },
}

impl std::fmt::Debug for SessionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionKind::ExpanderWalk => f.write_str("ExpanderWalk"),
            SessionKind::CpuEngine { lanes, .. } => {
                f.debug_struct("CpuEngine").field("lanes", lanes).finish()
            }
            SessionKind::Custom { lanes, .. } => {
                f.debug_struct("Custom").field("lanes", lanes).finish()
            }
        }
    }
}

impl SessionKind {
    /// The advertised per-client lane count.
    pub(crate) fn lanes(&self) -> usize {
        match self {
            SessionKind::ExpanderWalk => 1,
            SessionKind::CpuEngine { lanes, .. } | SessionKind::Custom { lanes, .. } => *lanes,
        }
    }

    /// Builds one client session from its lane seed. Runs inside the shard
    /// worker thread.
    pub(crate) fn build(&self, seed: u64) -> Result<Box<dyn OnDemandRng + Send>, HprngError> {
        match self {
            SessionKind::ExpanderWalk => Ok(Box::new(ExpanderWalkRng::from_seed_u64(seed))),
            SessionKind::CpuEngine { lanes, params } => {
                let mut engine = Engine::new(
                    CpuBackend::new(*params),
                    Box::new(GlibcFeed::from_master_seed(seed)),
                );
                engine.initialize(*lanes)?;
                Ok(Box::new(engine))
            }
            SessionKind::Custom { factory, .. } => Ok(factory(seed)),
        }
    }
}

/// Builder for [`Pool`]. Start from [`Pool::builder`].
#[derive(Clone, Debug)]
pub struct PoolBuilder {
    pub(crate) seed: u64,
    pub(crate) shards: Option<usize>,
    pub(crate) kind: SessionKind,
    pub(crate) policy: FullPolicy,
    pub(crate) prefetch_words: usize,
    pub(crate) queue_depth: usize,
    pub(crate) trace_sample_every: Option<u64>,
    pub(crate) failover: bool,
}

impl PoolBuilder {
    /// A builder with the workspace defaults: one shard per available CPU,
    /// [`SessionKind::ExpanderWalk`] sessions, [`FullPolicy::Block`], a
    /// 1024-word prefetch and a 32-deep request queue.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            shards: None,
            kind: SessionKind::ExpanderWalk,
            policy: FullPolicy::Block,
            prefetch_words: DEFAULT_PREFETCH_WORDS,
            queue_depth: 32,
            trace_sample_every: None,
            failover: false,
        }
    }

    /// Number of shard worker threads. Defaults to
    /// `std::thread::available_parallelism()`. Shard count never changes
    /// any client's stream — only serving throughput.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// The per-client session recipe.
    pub fn session(mut self, kind: SessionKind) -> Self {
        self.kind = kind;
        self
    }

    /// The client-side backpressure policy.
    pub fn full_policy(mut self, policy: FullPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Words per prefetch buffer (each client keeps two in flight). The
    /// shard rounds this up to a multiple of the session's lane count so
    /// chunking never changes the stream.
    pub fn prefetch_words(mut self, words: usize) -> Self {
        self.prefetch_words = words;
        self
    }

    /// Bound of each shard's request queue (backpressure depth).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Enables automatic shard failover (off by default).
    ///
    /// When a client observes its shard poisoned (the worker thread died
    /// by panic), it checkpoints its stream from its own acked counters
    /// ([`hprng_core::StreamState::minimal`]), reattaches to the next
    /// healthy shard with that state, and resumes the *same* session
    /// stream bit-identically — the shard fast-forwards a fresh session
    /// past the words the client already consumed. Words sitting in
    /// undelivered prefetch blocks are regenerated, never skipped.
    ///
    /// Off by default because failover deliberately changes the failure
    /// contract: without it a poisoned shard permanently fails its
    /// clients ([`hprng_core::HprngError::ShardPoisoned`]), which
    /// existing deployments may rely on observing.
    pub fn failover(mut self, enabled: bool) -> Self {
        self.failover = enabled;
        self
    }

    /// Enables request-path observability: per-shard queue-depth and
    /// occupancy gauges, enqueue-wait / service / refill-copy latency
    /// histograms, stall / replay counters, and client +
    /// shard-worker spans on a shared epoch, all collected in a
    /// [`hprng_telemetry::Registry`] reachable via
    /// [`Pool::registry`] / [`Pool::telemetry_snapshot`].
    ///
    /// Histograms and counters record on every refill (a few relaxed
    /// atomics, never per word); spans are sampled 1-in-`sample_every`
    /// (clamped to at least 1). The `try_next_u64` buffer-hit fast
    /// path is untouched — tracing adds no allocation and no atomics
    /// there.
    pub fn tracing(mut self, sample_every: u64) -> Self {
        self.trace_sample_every = Some(sample_every.max(1));
        self
    }

    /// Validates the configuration and spawns the shard workers.
    ///
    /// Fails with [`HprngError::InvalidParam`] on a zero shard count,
    /// prefetch size, queue depth, or session lane count.
    pub fn build(self) -> Result<Pool, HprngError> {
        let shards = match self.shards {
            Some(0) => {
                return Err(HprngError::InvalidParam {
                    field: "shards",
                    reason: "a pool needs at least one shard",
                })
            }
            Some(n) => n,
            None => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        };
        if self.prefetch_words == 0 {
            return Err(HprngError::InvalidParam {
                field: "prefetch_words",
                reason: "clients prefetch at least one word",
            });
        }
        if self.queue_depth == 0 {
            return Err(HprngError::InvalidParam {
                field: "queue_depth",
                reason: "shard request queues need capacity",
            });
        }
        if self.kind.lanes() == 0 {
            return Err(HprngError::InvalidParam {
                field: "session.lanes",
                reason: "client sessions need at least one lane",
            });
        }
        Ok(Pool::spawn(self, shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_degenerate_shapes() {
        let err = |b: PoolBuilder| match b.build() {
            Err(HprngError::InvalidParam { field, .. }) => field,
            other => panic!("expected InvalidParam, got {other:?}"),
        };
        assert_eq!(err(PoolBuilder::new(1).shards(0)), "shards");
        assert_eq!(err(PoolBuilder::new(1).prefetch_words(0)), "prefetch_words");
        assert_eq!(err(PoolBuilder::new(1).queue_depth(0)), "queue_depth");
        assert_eq!(
            err(PoolBuilder::new(1).session(SessionKind::CpuEngine {
                lanes: 0,
                params: HybridParams::default(),
            })),
            "session.lanes"
        );
    }

    #[test]
    fn default_policy_blocks() {
        assert_eq!(FullPolicy::default(), FullPolicy::Block);
    }

    #[test]
    fn session_kind_debug_is_compact() {
        let kind = SessionKind::Custom {
            lanes: 3,
            factory: Arc::new(|seed| Box::new(ExpanderWalkRng::from_seed_u64(seed))),
        };
        assert_eq!(format!("{kind:?}"), "Custom { lanes: 3 }");
    }
}
