//! A simulated-time model of the paper's Tesla C1060.
//!
//! The paper's system is a *hybrid* CPU+GPU pipeline: the CPU produces raw
//! random bits (FEED), ships them over PCIe (TRANSFER), and the GPU advances
//! thousands of independent expander walks (GENERATE), with all three work
//! units overlapped through CUDA streams. No GPU is available in this
//! reproduction environment, so this crate keeps the platform's time:
//!
//! * [`DeviceConfig`] — the machine description (SMs, warp size, clocks,
//!   PCIe link), with a [`DeviceConfig::tesla_c1060`] preset matching §II of
//!   the paper.
//! * [`Device`] — the simulated GPU's clocks: when its compute engine
//!   (the SMs) and its copy engine (the PCIe link) next fall free.
//! * [`Stream`] — CUDA-style ordered queues whose operations are charges:
//!   [`Stream::kernel`] costs a launch in closed form from its thread
//!   count and per-thread cycles, and [`Stream::transfer`] costs a PCIe
//!   copy that overlaps kernels on other streams.
//! * [`Timeline`] — a per-resource interval log from which Figure 4's
//!   overlap chart and the CPU/GPU idle fractions are regenerated.
//!
//! The device runs no code and holds no data. Callers compute on the host
//! (the walk's labels come from `hprng_expander::advance_lanes`) and
//! charge the device what the paper's kernel would have cost.
//!
//! ## Fidelity notes
//!
//! The timing model is first-order. Every thread of a launch costs the
//! same cycles, which the caller sums from the per-class costs
//! ([`DeviceConfig::alu_cycles`], [`DeviceConfig::mem_cycles`]). Warps go
//! round-robin to the SMs, and each SM runs its warps back to back with a
//! `warp_size / cores_per_sm` issue factor (4 on the C1060's quad-pumped
//! pipelines), so a launch lasts as long as its busiest SM. PCIe transfers
//! cost `latency + bytes / bandwidth`. There is no warp divergence, and
//! caches and memory coalescing are folded into the per-class costs. That
//! is deliberately coarse: the paper's claims this model must support are
//! about *overlap structure* (which work unit hides under which), not
//! absolute nanoseconds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

mod config;
mod device;
mod stream;
mod timeline;

pub use config::{ConfigError, DeviceConfig, DeviceConfigBuilder, PcieConfig};
pub use device::Device;
pub use stream::Stream;
pub use timeline::{Interval, Resource, Timeline, WorkUnit};
