//! # hybrid-prng
//!
//! A production-quality Rust reproduction of Banerjee, Bahl & Kothapalli,
//! *An On-Demand Fast Parallel Pseudo Random Number Generator with
//! Applications* (IPDPS Workshops 2012).
//!
//! The paper builds an **on-demand, thread-safe, scalable** pseudo random
//! number generator by running independent random walks on a 7-regular
//! Gabber–Galil expander graph with `2^64` vertex labels, splitting the work
//! between a multicore CPU (raw-bit FEED) and a GPU (walk GENERATE) with
//! asynchronous PCIe transfers in between. This workspace reproduces the
//! whole system — with the GPU replaced by a calibrated software SIMT device
//! model — plus both applications and the full evaluation.
//!
//! This facade crate re-exports the public API of every workspace member so
//! that downstream users can depend on a single crate:
//!
//! * [`expander`] — Gabber–Galil graphs, walks, expansion/mixing analysis.
//! * [`baselines`] — glibc `rand()`, MT19937(-64), XORWOW, MWC, MD5-hash,
//!   LCG, Philox, SplitMix64.
//! * [`gpu`] — the simulated hybrid CPU+GPU platform.
//! * [`prng`] — [`prng::ExpanderWalkRng`], [`prng::HybridPrng`] and
//!   [`prng::ExpanderLanes`]: the paper's generator. The stage-decoupled
//!   engine lives in [`prng::pipeline`]: [`BitFeed`] feeders and the
//!   [`Backend`]s ([`DeviceBackend`], [`CpuBackend`]) unified under
//!   [`Engine`], which on the device backend is the [`HybridSession`].
//! * [`stattests`] — DIEHARD-style and Crush-style quality batteries.
//! * [`listrank`] — Application I: hybrid list ranking.
//! * [`montecarlo`] — Application II: photon migration.
//! * [`telemetry`] — pipeline observability: span/counter recorder, a
//!   Chrome-trace (Perfetto) exporter for the merged host + device chart,
//!   and a Prometheus text-exposition exporter.
//! * [`monitor`] — streaming quality sentinels (monobit, runs, serial
//!   correlation, byte entropy, inter-stream clash) attachable to a live
//!   session via [`HybridSession::set_tap`].
//! * [`pool`] — the serving layer: a sharded on-demand randomness
//!   [`Pool`] whose [`PoolClient`] handles hand bit-reproducible lanes to
//!   any number of concurrent consumers, with blocking backpressure.
//!
//! The most common types are also re-exported flat at the crate root:
//! [`ExpanderWalkRng`], [`HybridPrng`], [`HybridSession`], [`HprngError`],
//! the [`WalkParams`]/[`HybridParams`]/[`DeviceConfig`] builders, the
//! pool's [`Pool`]/[`PoolClient`]/[`SessionKind`], the
//! checkpoint value [`StreamState`], the telemetry [`Recorder`], and the
//! monitor's [`MonitorConfig`]/[`MonitorHandle`]/[`AlertSink`].
//! Applications that prefer a single import can
//! `use hybrid_prng::prelude::*;`.
//!
//! # One error type
//!
//! Workspace crates each keep their own narrow error enums
//! ([`HprngError`], [`ConfigError`], the telemetry JSON
//! [`telemetry::json::ParseError`]). The facade folds them into a single
//! [`enum@Error`] hierarchy with `From` impls in both directions of common
//! use, so application code can return [`Result`] from `main` and use `?`
//! across subsystem boundaries:
//!
//! ```
//! use hybrid_prng::prelude::*;
//!
//! fn sample() -> hybrid_prng::Result<u64> {
//!     let pool = Pool::builder(42).shards(2).build()?; // HprngError -> Error
//!     let mut client = pool.try_client()?;
//!     let mut word = [0u64; 1];
//!     client.try_next_batch_into(&mut word)?;
//!     Ok(word[0])
//! }
//! assert!(sample().is_ok());
//! ```
//!
//! # Quickstart
//!
//! ```
//! use hybrid_prng::ExpanderWalkRng;
//! use rand_core::RngCore;
//!
//! let mut rng = ExpanderWalkRng::from_seed_u64(42);
//! let sample: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
//! assert_eq!(sample.len(), 4);
//! ```
//!
//! # The on-demand `GetNextRand` contract
//!
//! The paper's interface (§III, Algorithm 2) is a single call the
//! application issues *whenever it discovers it needs more randomness* —
//! no total demand has to be declared up front. This workspace spells that
//! contract out as follows:
//!
//! 1. **Sessions own walks, calls consume steps.** Opening a session
//!    ([`HybridPrng::try_session`]) runs Algorithm 1: every device thread
//!    gets an independent walk position on the `2^64`-vertex Gabber–Galil
//!    expander, warmed up by `warmup_len` steps. The session then serves
//!    any number of [`HybridSession::try_next_batch`] calls; each call
//!    advances the first `count` walks by `walk_len` steps and returns one
//!    64-bit number per walk.
//! 2. **Batch size is per-call, not per-session.** `count` may vary
//!    call-to-call between 1 and the session's thread count — this is what
//!    "on demand" means, and what the batch baselines (which must
//!    provision the worst case) cannot do. List ranking (Algorithm 3)
//!    exploits exactly this: round `k` requests one bit per *live* node,
//!    and the live set shrinks geometrically.
//! 3. **Numbers are walk endpoints.** Each returned `u64` is the packed
//!    label of the vertex the walk reached; the next call continues from
//!    it. Streams from different threads are independent walks and never
//!    synchronize — the paper's thread-safety argument.
//! 4. **Feeding is pipelined, not blocking.** The CPU produces the raw
//!    3-bit steps for call `k+1` while the GPU walks call `k`; the session
//!    accounts both on the same [`gpu::Timeline`], which [`telemetry`]
//!    can export as a Chrome trace.
//! 5. **Misuse is an `Err`, not UB.** Zero threads, zero-count batches,
//!    and oversized batches return [`HprngError`] from the `try_*`
//!    methods.
//! 6. **One contract, many providers.** The [`OnDemandRng`] trait codifies
//!    the `GetNextRand()` interface — per-call batch sizing, lane count,
//!    word accounting, an optional quality tap — and is implemented by the
//!    pipeline [`Engine`] on both backends, a single [`ExpanderWalkRng`]
//!    walk, and (via [`ScalarRng`]) every baseline generator.
//!    [`SplitOnDemand`] families such as [`ExpanderLanes`] hand
//!    independent lanes to parallel consumers. Both
//!    applications ([`listrank::rank_on_session`],
//!    [`montecarlo::run_simulation_on`]) are generic over it.

#![forbid(unsafe_code)]
#![deny(deprecated)]

use std::fmt;

pub use hprng_baselines as baselines;
pub use hprng_core as prng;
pub use hprng_expander as expander;
pub use hprng_gpu_sim as gpu;
pub use hprng_listrank as listrank;
pub use hprng_monitor as monitor;
pub use hprng_montecarlo as montecarlo;
pub use hprng_pool as pool;
pub use hprng_stattests as stattests;
pub use hprng_telemetry as telemetry;
pub use hprng_transport as transport;

pub use hprng_core::{
    Backend, BitFeed, CpuBackend, DeviceBackend, Engine, ExpanderLanes, ExpanderWalkRng, GlibcFeed,
    HprngError, HybridParams, HybridParamsBuilder, HybridPrng, HybridSession, OnDemandRng,
    PipelineStats, ScalarRng, SplitOnDemand, StreamState, WalkParams, WalkParamsBuilder,
};
pub use hprng_gpu_sim::{ConfigError, DeviceConfig, DeviceConfigBuilder};
pub use hprng_monitor::{
    Alert, AlertSink, MonitorConfig, MonitorHandle, MonitorStatus, QualityMonitor,
};
pub use hprng_pool::{Pool, PoolBuilder, PoolClient, PoolStats, SessionKind};
pub use hprng_telemetry::{Counter, Gauge, HistogramHandle, Recorder, Registry, Stage, WordTap};

/// The facade-wide error hierarchy.
///
/// Every fallible path in the workspace surfaces here: generator and pool
/// misuse or failure ([`Error::Prng`]), rejected device descriptions
/// ([`Error::Config`]), and telemetry JSON ingestion
/// ([`Error::Telemetry`]). The enum is `#[non_exhaustive]` so new
/// subsystems can join the hierarchy without a major version bump; match
/// with a wildcard arm.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A generator, session, pipeline, or pool error ([`HprngError`]).
    Prng(HprngError),
    /// A rejected simulated-device configuration ([`ConfigError`]).
    Config(ConfigError),
    /// A telemetry JSON document failed to parse
    /// ([`telemetry::json::ParseError`]).
    Telemetry(hprng_telemetry::json::ParseError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Prng(e) => write!(f, "prng: {e}"),
            Error::Config(e) => write!(f, "device config: {e}"),
            Error::Telemetry(e) => write!(f, "telemetry: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Prng(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Telemetry(e) => Some(e),
        }
    }
}

impl From<HprngError> for Error {
    fn from(e: HprngError) -> Self {
        Error::Prng(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<hprng_telemetry::json::ParseError> for Error {
    fn from(e: hprng_telemetry::json::ParseError) -> Self {
        Error::Telemetry(e)
    }
}

/// Crate-wide result alias over the consolidated [`enum@Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// The blessed one-import surface: `use hybrid_prng::prelude::*;`.
///
/// Brings in the on-demand contract ([`OnDemandRng`], [`SplitOnDemand`]),
/// the generators and their builders, the serving pool, the quality
/// monitor, telemetry handles, and the consolidated error hierarchy. The
/// `rand_core` traits ride along so baseline adapters work out of the box.
pub mod prelude {
    pub use crate::{Error, Result};
    pub use hprng_core::{
        CpuBackend, DeviceBackend, Engine, ExpanderLanes, ExpanderWalkRng, GlibcFeed, HprngError,
        HybridParams, HybridPrng, HybridSession, OnDemandRng, ScalarRng, SplitOnDemand,
        StreamState, WalkParams,
    };
    pub use hprng_gpu_sim::DeviceConfig;
    pub use hprng_monitor::{AlertSink, MonitorConfig, MonitorHandle};
    pub use hprng_pool::{Pool, PoolBuilder, PoolClient, PoolStats, SessionKind};
    pub use hprng_telemetry::{Recorder, Registry, WordTap};
    pub use rand_core::{RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_subsystem_error_converts_into_the_facade_error() {
        let prng: Error = HprngError::EmptyRequest.into();
        assert_eq!(prng, Error::Prng(HprngError::EmptyRequest));

        let config: Error = DeviceConfig::builder()
            .num_sms(0)
            .build()
            .expect_err("zero SMs must be rejected")
            .into();
        assert!(matches!(config, Error::Config(_)));

        let parse: Error = telemetry::json::parse("{oops")
            .expect_err("malformed JSON must be rejected")
            .into();
        assert!(matches!(parse, Error::Telemetry(_)));
    }

    #[test]
    fn facade_errors_display_their_subsystem_and_chain_a_source() {
        use std::error::Error as _;
        let err = Error::from(HprngError::PoolShutdown);
        assert!(err.to_string().starts_with("prng: "));
        assert!(err.source().is_some());
    }

    #[test]
    fn question_mark_crosses_subsystem_boundaries() {
        fn build_and_draw() -> Result<u64> {
            let _config = DeviceConfig::builder().build()?;
            let pool = Pool::builder(7).shards(1).build()?;
            let mut client = pool.try_client()?;
            let mut word = [0u64; 1];
            client.try_next_batch_into(&mut word)?;
            Ok(word[0])
        }
        assert!(build_and_draw().is_ok());
    }

    #[test]
    fn prelude_glob_covers_the_quickstart_surface() {
        use crate::prelude::*;
        let mut rng = ExpanderWalkRng::from_seed_u64(9);
        let word = RngCore::next_u64(&mut rng);
        let pool = Pool::builder(9).shards(1).build().unwrap();
        let mut client = pool.try_client_with_id(0).unwrap();
        assert_eq!(client.try_next_batch(1).unwrap(), vec![word]);
    }
}
