//! Gabber–Galil expander graphs and random walks on them.
//!
//! This crate is the combinatorial substrate of the hybrid PRNG described in
//! Banerjee, Bahl & Kothapalli, *An On-Demand Fast Parallel Pseudo Random
//! Number Generator with Applications* (IPDPS Workshops 2012). The paper
//! generates 64-bit pseudo random numbers by performing random walks on a
//! 7-regular [Gabber–Galil expander] whose vertices are pairs
//! `(x, y) ∈ Z_m × Z_m` with `m = 2^32`, so every vertex label is exactly one
//! 64-bit machine word.
//!
//! [Gabber–Galil expander]: https://doi.org/10.1016/0022-0000(81)90040-4
//!
//! The crate provides:
//!
//! * [`Vertex`] — a packed 64-bit vertex label for the production graph
//!   (`m = 2^32`), and [`GenVertex`] for arbitrary moduli used in analysis.
//! * [`GabberGalil`] — the seven neighbour maps of the production graph,
//!   plus [`GabberGalilGeneric`] for any modulus.
//! * [`Walk`] — a stateful random-walk cursor that consumes 3-bit neighbour
//!   choices from a [`bits::TriBitReader`], the paper's `& 0b111` walk; it
//!   takes three steps per lookup in a compile-time table of composed step
//!   maps.
//! * [`advance_lanes`] — the multi-lane kernel: [`KERNEL_LANES`] walks
//!   advanced in lock-step over per-lane word spans, each bit-identical to
//!   [`Walk::advance`].
//! * [`analysis`] — exact edge expansion on tiny graphs, spectral gap
//!   estimation, and total-variation mixing curves, used to validate the
//!   construction against the paper's claims
//!   (`α(G) = (2 − √3)/2 ≈ 0.134`, rapid mixing).
//!
//! # Quick example
//!
//! ```
//! use hprng_expander::{Vertex, Walk};
//! use hprng_expander::bits::{SliceBitSource, TriBitReader};
//!
//! // Stand on vertex (1, 2) and take 64 steps driven by raw bits.
//! let start = Vertex::new(1, 2);
//! let mut walk = Walk::new(start);
//! let raw = [0x0123_4567_89ab_cdefu64, 0xfedc_ba98_7654_3210];
//! let mut bits = TriBitReader::new(SliceBitSource::new(&raw));
//! let label: u64 = walk.advance(64, &mut bits).pack();
//! assert_ne!(label, start.pack());
//! ```

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

pub mod amplify;
pub mod analysis;
pub mod bits;
pub mod families;
mod graph;
mod walk;
mod zm;

pub use graph::{GabberGalil, GabberGalilGeneric, DEGREE};
pub use walk::{advance_lanes, Walk, WalkState, KERNEL_LANES};
pub use zm::{GenVertex, Vertex};
