//! Application I: parallel list ranking (§V).
//!
//! List ranking — computing every node's distance from the head of a linked
//! list — is the paper's showcase for the *on-demand* property of the
//! hybrid PRNG: the fractional-independent-set (FIS) reduction consumes one
//! random bit per **live** node per iteration, and the number of live nodes
//! is not known in advance. A generator that must pre-produce batches has to
//! provision for the upper bound every iteration; an on-demand generator
//! produces exactly what is consumed — the paper measures this as a 40%
//! Phase-I speedup (Figure 7).
//!
//! The crate provides:
//!
//! * [`LinkedList`] — successor/predecessor array representation with
//!   ordered and random workload builders (random lists are the hard case:
//!   "the most difficult to rank due to their irregular memory access
//!   patterns").
//! * [`sequential_rank`] — the ground truth.
//! * [`wyllie_rank`] — Wyllie's pointer-jumping algorithm.
//! * [`fis`] — Algorithm 3: the randomized FIS reduction with full
//!   book-keeping and bit accounting. [`fis::reduce_list`] is the one FIS
//!   round in the crate; every entry point below runs through it.
//! * [`helman_jaja_rank`] — the Helman–JáJà sublist algorithm used on the
//!   reduced list.
//! * [`hybrid`] — the three-phase algorithm of \[3\] with pluggable
//!   randomness strategies, reproducing Figure 7.
//! * [`ondemand`] — Algorithm 3 over any
//!   [`OnDemandRng`](hprng_core::OnDemandRng) session with one lane per
//!   node: each round, live node `k` takes its coin from lane `k`.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

pub mod fis;
mod helman_jaja;
pub mod hybrid;
mod list;
pub mod ondemand;
mod sequential;
mod wyllie;

pub use helman_jaja::helman_jaja_rank;
pub use list::{LinkedList, NIL};
pub use ondemand::{rank_on_session, reduce_on_session};
pub use sequential::sequential_rank;
pub use wyllie::wyllie_rank;
