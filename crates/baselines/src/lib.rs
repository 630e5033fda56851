//! Baseline pseudo random number generators.
//!
//! Every generator the paper measures against — plus the ones its two
//! applications build on — re-implemented from scratch and exposed through
//! [`rand_core::RngCore`] / [`rand_core::SeedableRng`] so they compose with
//! the rest of the workspace (and the wider `rand` ecosystem):
//!
//! | Type | Paper role |
//! |------|-----------|
//! | [`GlibcRand`] | the CPU `rand()` (glibc's default TYPE_3 generator) used to seed the hybrid PRNG and as the Table I/II/Figure 6 baseline |
//! | [`GlibcLcg`] | glibc's legacy TYPE_0 LCG `rand()`, a Table II comparison row and a known-bad monitor stream |
//! | [`Lcg64`] | the "naive LCG" quality floor |
//! | [`Mt19937`], [`Mt19937_64`] | the CUDA-SDK Mersenne-Twister comparator (Figures 3 and 7) |
//! | [`Xorwow`] | CURAND's default device generator (Figures 3, Tables II/III) |
//! | [`Mwc64`] | the multiply-with-carry RNG of the original photon-migration code (Figure 8) |
//! | [`Md5Rand`] | CUDPP RAND's MD5-hash construction (Table II) |
//! | [`Philox4x32`] | a modern counter-based generator, used in ablations |
//! | [`SplitMix64`] | seed expansion for everything else |
//!
//! All implementations carry known-answer tests against published vectors
//! (glibc outputs, the canonical MT19937 sequences, RFC 1321 MD5 digests,
//! the Random123 Philox vectors, the public SplitMix64 sequence).

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

mod glibc;
mod kiss;
mod lcg;
mod locked;
mod md5;
mod mt;
mod mwc;
mod philox;
mod splitmix;
mod xorwow;

pub use glibc::{GlibcLcg, GlibcRand};
pub use kiss::Kiss;
pub use lcg::Lcg64;
pub use locked::LockedGlibcRand;
pub use md5::{md5_digest, Md5Rand};
pub use mt::{Mt19937, Mt19937_64};
pub use mwc::Mwc64;
pub use philox::Philox4x32;
pub use splitmix::SplitMix64;
pub use xorwow::Xorwow;
