//! The transport layer: how pre-generated random blocks move from
//! producers to consumers.
//!
//! The paper's on-demand contract lives or dies on how cheaply blocks of
//! pre-generated words travel from the thread that made them to the
//! thread that serves them. This crate is the one implementation of that
//! path, with one backpressure, shutdown, and poisoning protocol. The
//! sharded pool uses it for its shard request queues and reply rings;
//! each client's two prefetch blocks travel on them, out with a refill
//! request and back with its reply.
//!
//! * [`ring`] — [`BlockRing`]: a bounded blocking MPSC ring generalizing
//!   the paper's two-slot PCIe double buffer.
//!   Backpressure by blocking [`RingSender::send`] and
//!   [`RingReceiver::recv`] (plus a non-blocking
//!   [`RingReceiver::try_recv`] for a consumer with other work to do),
//!   clean shutdown on drop from either side,
//!   optional transport-level queue-depth instrumentation
//!   ([`RingInstruments`]).
//! * [`shutdown`] — the shutdown-flag-before-close protocol:
//!   [`ShutdownFlag`] is flipped *before* any queue closes so a
//!   disconnected peer can [`classify`](ShutdownFlag::classify_disconnect)
//!   the disconnect as an orderly [`Disconnect::Shutdown`] rather than a
//!   crash, and [`PoisonGuard`] marks a [`PoisonFlag`] if a worker
//!   unwinds — a dead worker is observable state, not a silent hang.
//! * `chaos` (feature `chaos`, off by default) — the deterministic
//!   fault-injection registry: the ring, shard-worker and claim-lock call
//!   sites consult a process-wide hook that can stall or panic at a named
//!   `FaultPoint`. Compiled out entirely without the feature.
//!
//! The sharded pool (`hprng-pool`) is a thin layer over these types; its
//! golden bit-identity suites prove the transport is invisible in the
//! served streams.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod ring;
pub mod shutdown;

pub use ring::{
    bounded, bounded_instrumented, BlockRing, RingInstruments, RingReceiver, RingSender, SendError,
};
pub use shutdown::{Disconnect, PoisonFlag, PoisonGuard, ShutdownFlag};
