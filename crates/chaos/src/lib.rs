//! Deterministic fault injection for the serving stack.
//!
//! The pool's contract — every client stream a pure, resumable function
//! of the seed — is only as credible as the failure interleavings it
//! has survived. The hand-written suites pin a handful of schedules
//! (one panic here, one stall there); this crate makes the space
//! *systematically explorable*:
//!
//! * [`FaultPlan`] — a complete fault schedule (pool shape + injected
//!   faults) derived from one u64 seed. Fully replayable: a failing
//!   schedule is reported as its seed, and [`FaultPlan::from_seed`]
//!   rebuilds the identical scenario.
//! * [`PlanHook`] — the [`hprng_transport::chaos::FaultHook`] that
//!   executes a plan through the injection sites compiled into
//!   `BlockRing`, the shard workers and the claimed-id lock (the `chaos`
//!   feature of `hprng-transport`/`hprng-pool`; zero-cost when off).
//! * [`run_schedule`] / [`run_soak`] — the soak harness: run the pool
//!   under a schedule (or a seeded batch of them) and assert the
//!   stack's core invariants after each one — bit-identity to the
//!   unfaulted golden stream, exact `words_served` accounting, no leaked
//!   client ids, no stranded ring peers.
//!
//! The `repro chaos` subcommand (in `hprng-bench`, behind its `chaos`
//! feature) is a thin CLI over [`run_soak`]; DESIGN.md §3.8.3 documents
//! the hook inventory and the plan grammar.
//!
//! Faults are injected through a process-global hook, so schedules must
//! run serially — [`run_soak`] does, and the test suites serialize on
//! `RUST_TEST_THREADS=1` (plus an internal mutex).

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

pub mod plan;
pub mod soak;

pub use plan::{FaultPlan, Periodic, PlanHook, WorkerPanic};
pub use soak::{run_schedule, run_soak, ScheduleFailure, SoakReport};

// The underlying registry, re-exported so harness users need not depend
// on `hprng-transport` directly to install custom hooks.
pub use hprng_transport::chaos::{install, FaultAction, FaultHook, FaultPoint, InstalledHook};
