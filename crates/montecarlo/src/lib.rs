//! Application II: Monte-Carlo photon migration through layered tissue
//! (§VI).
//!
//! A from-scratch MCML-style simulator (Wang–Jacques variance-reduction
//! model, the one Alerstam et al.'s CUDAMCML — the paper's reference
//! implementation \[1\] — parallelizes): photon packets take exponential
//! steps, deposit a fraction of their weight at every interaction, scatter
//! by Henyey–Greenstein, refract/reflect at layer boundaries by Fresnel's
//! equations, and die by Russian roulette. Outputs are diffuse reflectance,
//! transmittance and per-layer absorption.
//!
//! The paper's experiment (Figure 8) compares the original batch-random
//! design against the on-demand hybrid PRNG; [`sim::RandomSupply`] models
//! both provisioning styles, and the simulator reports the "weight clash"
//! count whose reduction the paper credits for part of the speedup.
//!
//! The transport kernel itself is generic over the unified on-demand
//! contract: [`run_simulation_on`] accepts any
//! [`SplitOnDemand`](hprng_core::SplitOnDemand) family and gives each
//! photon chunk its own `GetNextRand()` lane.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

pub mod photon;
pub mod sim;
mod tissue;

pub use sim::{
    run_simulation, run_simulation_monitored, run_simulation_on, run_simulation_with_telemetry,
    RandomSupply, ScoringGrid, SimConfig, SimOutput,
};
pub use tissue::{Layer, Tissue};
