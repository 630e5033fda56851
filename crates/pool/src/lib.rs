//! The serving layer: a sharded on-demand randomness pool.
//!
//! The paper's generator is *on demand* — Algorithm 2's `GetNextRand()`
//! serves consumers whose total demand is unknown. This crate scales that
//! contract out to many concurrent consumers: a [`Pool`] owns N pipeline
//! shards (worker threads hosting per-client sessions) and hands out any
//! number of [`PoolClient`] handles, each a deterministic *lane* of the
//! pool seed.
//!
//! The load-bearing design decision: **shards serve, lanes seed**. A
//! client's stream is produced by its own private session, built from
//! [`hprng_core::seeding::lane_seed`]`(pool_seed, client_id)` inside
//! whatever shard the client lands on. A shared per-shard generator could
//! never be bit-reproducible — which words a client received would depend
//! on how requests interleave — so reproducibility is anchored in the
//! seed derivation and shards are pure serving capacity. Changing the
//! shard count changes throughput, never a single bit of any client's
//! stream.
//!
//! Flow control is explicit and built on the workspace transport layer
//! (`hprng-transport`): each shard's request queue is a bounded
//! [`hprng_transport::BlockRing`] (clients clone the sender), prefetch
//! blocks circulate through a per-shard [`hprng_transport::BlockPool`]
//! arena instead of the allocator, and [`FullPolicy`] picks what happens
//! when the shard falls behind: wait ([`FullPolicy::Block`]) or fail fast
//! with [`hprng_core::HprngError::ShardStalled`]
//! ([`FullPolicy::TryFor`]). Every word a client serves is its lane's
//! word under either policy. A worker panic poisons only its own shard
//! (the transport [`hprng_transport::PoisonGuard`] discipline, shared
//! with the pipeline ring); peers keep serving, and [`Pool::stats`]
//! reports the casualty.
//!
//! Because every client stream is a pure function of its lane seed, a
//! client's resumable identity is a tiny serializable
//! [`StreamState`]: [`PoolClient::checkpoint`] captures it from the
//! client's own acked counters, [`Pool::try_client_resumed`] re-admits it
//! on any pool with the same seed and session kind (any shard count), and
//! the stream continues bit-identically. The same mechanism powers
//! automatic failover off a poisoned shard ([`PoolBuilder::failover`]),
//! live migration between shards ([`Pool::rebalance`] /
//! [`PoolClient::migrate_to`]), and persistence through the
//! dependency-free telemetry JSON ([`StreamState::to_json`]).
//!
//! Request-path observability is built in: [`PoolBuilder::tracing`]
//! turns on per-shard queue-depth/occupancy gauges, enqueue-wait /
//! service / refill-copy latency histograms, stall/replay counters
//! (under the canonical [`names`]) and 1-in-N sampled client and
//! shard-worker spans on a shared epoch, all exported through
//! [`Pool::registry`] / [`Pool::telemetry_snapshot`] to the telemetry
//! crate's Prometheus and Chrome-trace exporters.
//!
//! ```
//! use hprng_pool::Pool;
//!
//! let pool = Pool::builder(42).shards(2).build().unwrap();
//! let mut a = pool.try_client().unwrap();
//! let mut b = pool.try_client().unwrap();
//! let (x, y) = (a.try_next_u64().unwrap(), b.try_next_u64().unwrap());
//! assert_ne!(x, y); // decorrelated lanes
//! pool.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

mod client;
mod config;
mod obs;
mod pool;
mod shard;

pub use client::PoolClient;
pub use config::{FullPolicy, PoolBuilder, SessionFactory, SessionKind};
pub use obs::names;
pub use pool::{Pool, PoolStats};

// The checkpoint value the pool's failover, migration, and persistence
// APIs speak, re-exported so pool users need not depend on `hprng-core`
// directly.
pub use hprng_core::StreamState;
