//! The paper's contribution: an on-demand, thread-safe, scalable hybrid
//! CPU+GPU pseudo random number generator built from random walks on a
//! Gabber–Galil expander graph.
//!
//! Three entry points, in increasing order of machinery:
//!
//! * [`ExpanderWalkRng`] — a single-threaded, `RngCore`-compatible on-demand
//!   generator. One instance per thread gives the paper's thread-safety
//!   model on any host ("each thread performing the walk is essentially
//!   executing independent of other threads").
//! * [`ExpanderLanes`] — one such walk per lane index. Its
//!   [`ExpanderLanes::fill`] is the "our generator on a multicore CPU"
//!   variant of §IV-A/Figure 6: one walk per rayon chunk of the output.
//! * [`HybridPrng`] — the full pipeline of Algorithms 1 and 2 on the
//!   simulated device: CPU FEED workers produce raw bits with glibc
//!   `rand()`, asynchronous PCIe TRANSFERs ship them over, and the GENERATE
//!   kernel advances one walk per GPU thread. The [`HybridSession`] it
//!   opens is the pipeline [`Engine`] on the device backend, the one
//!   multi-lane walk session in this crate: it exposes the *on-demand*
//!   interface applications use when their randomness demand is not known
//!   in advance (Algorithm 3's list ranking).
//!
//! ```
//! use hprng_core::ExpanderWalkRng;
//! use rand_core::RngCore;
//!
//! let mut rng = ExpanderWalkRng::from_seed_u64(7);
//! let x = rng.next_u64(); // walks 64 expander edges, returns the vertex label
//! let y = rng.next_u64();
//! assert_ne!(x, y);
//! ```

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

mod bitsource;
mod device_baselines;
pub mod dist;
mod error;
mod hybrid;
pub mod ondemand;
mod params;
pub mod pipeline;
mod rng;
pub mod seeding;
pub mod state;

pub use bitsource::RngBitSource;
pub use device_baselines::{simulate_curand_device, simulate_mt_batch, DeviceSimResult};
pub use error::HprngError;
pub use hybrid::{HybridPrng, HybridSession, PipelineStats};
pub use ondemand::{ExpanderLanes, OnDemandRng, ScalarRng, SplitOnDemand};
pub use params::{
    CostModel, HybridParams, HybridParamsBuilder, PipelineMode, WalkParams, WalkParamsBuilder,
};
pub use pipeline::{Backend, BitFeed, CpuBackend, DeviceBackend, Engine, GlibcFeed};
pub use rng::ExpanderWalkRng;
pub use state::StreamState;
