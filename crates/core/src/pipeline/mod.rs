//! The stage-decoupled pipeline: FEED, TRANSFER, and GENERATE as
//! independent, swappable components.
//!
//! The paper's hybrid generator is a three-stage pipeline (§IV-A): the CPU
//! FEEDs raw random bits, the PCIe link TRANSFERs them in double-buffered
//! batches, and the GPU GENERATEs numbers by walking an expander graph.
//! This module makes each stage a first-class component:
//!
//! * [`BitFeed`] (with the paper's [`GlibcFeed`]) — who produces the raw
//!   words;
//! * [`Backend`] (with [`DeviceBackend`], [`CpuBackend`]) — where the
//!   walks advance and how the work is accounted;
//! * [`Engine`] — the orchestrator tying them together: it fills each
//!   batch's bits from the feed on the calling thread and hands them to
//!   the backend.
//!
//! `HybridPrng` remains the ergonomic front door: the `HybridSession` it
//! opens is `Engine<DeviceBackend>` itself.

pub mod backend;
pub mod engine;
pub mod feed;

pub use backend::{init_words_per_thread, Backend, CpuBackend, DeviceBackend};
pub use engine::{Engine, PipelineStats};
pub use feed::{BitFeed, GlibcFeed};
