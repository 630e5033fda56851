//! Property tests for the [`BlockPool`] arena's load-bearing invariants
//! under interleaved checkouts — the access pattern of a pool client
//! cycling its front/back prefetch buffers against the shard worker's
//! refill checkouts.
//!
//! The two promises the serving path depends on:
//!
//! * **no aliasing** — every outstanding checkout is an independent
//!   block; a write through one never appears through another, and a
//!   block given back never resurfaces while a copy is still out.
//! * **zeroed when promised** — `checkout_zeroed` hands back all-zero
//!   words of exactly the requested length no matter how dirty the
//!   recycled block was when it was given back.

use hprng_transport::BlockPool;
use proptest::prelude::*;

/// One step of an interleaved checkout/return schedule, decoded from a
/// drawn `(discriminant, payload)` pair (the vendored proptest stand-in
/// has no enum strategies).
#[derive(Clone, Debug)]
enum Op {
    /// Check a block out (plain), stamp every word with a unique tag.
    Checkout,
    /// Check a zeroed block of `len` words out, verify, then stamp it.
    CheckoutZeroed(usize),
    /// Give outstanding block `index % outstanding` back (dirty).
    GiveBack(usize),
    /// Re-verify the stamp of outstanding block `index % outstanding`.
    Probe(usize),
}

fn decode(step: (u8, usize)) -> Op {
    match step.0 {
        0 => Op::Checkout,
        1 => Op::CheckoutZeroed(step.1 % 95 + 1),
        2 => Op::GiveBack(step.1),
        _ => Op::Probe(step.1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drives an arbitrary interleaving of checkouts, returns, and
    /// probes against one arena, modelling each outstanding block by the
    /// unique tag stamped into it. Any aliasing (two live blocks backed
    /// by one buffer) or recycled dirt (a `checkout_zeroed` block
    /// carrying a previous tenant's words) trips a probe.
    #[test]
    fn interleaved_checkouts_never_alias_or_leak_dirty_words(
        block_words in 1usize..64,
        max_retained in 1usize..8,
        ops in prop::collection::vec((0u8..4, any::<usize>()), 1..80),
    ) {
        let arena = BlockPool::new(block_words, max_retained);
        // Outstanding checkouts, each with the tag stamped into it.
        let mut live: Vec<(u64, Vec<u64>)> = Vec::new();
        let mut next_tag: u64 = 1;
        for step in ops {
            match decode(step) {
                Op::Checkout => {
                    let mut block = arena.checkout();
                    prop_assert!(block.is_empty(), "plain checkout must start empty");
                    block.resize(block_words, next_tag);
                    live.push((next_tag, block));
                    next_tag += 1;
                }
                Op::CheckoutZeroed(len) => {
                    let mut block = arena.checkout_zeroed(len);
                    prop_assert_eq!(block.len(), len);
                    prop_assert!(
                        block.iter().all(|&w| w == 0),
                        "checkout_zeroed handed out a dirty block"
                    );
                    block.fill(next_tag);
                    live.push((next_tag, block));
                    next_tag += 1;
                }
                Op::GiveBack(index) => {
                    if !live.is_empty() {
                        let (_, block) = live.swap_remove(index % live.len());
                        arena.give_back(block);
                    }
                }
                Op::Probe(index) => {
                    if !live.is_empty() {
                        let (tag, block) = &live[index % live.len()];
                        prop_assert!(
                            block.iter().all(|w| w == tag),
                            "block tagged {} was clobbered — aliased storage",
                            tag
                        );
                    }
                }
            }
        }
        // Final sweep: every block still out retains its own tag.
        for (tag, block) in &live {
            prop_assert!(block.iter().all(|w| w == tag));
        }
        // Bounded retention held throughout: the free list never exceeds
        // the cap, and the books balance.
        let stats = arena.stats();
        prop_assert!(stats.free <= max_retained);
        prop_assert_eq!(stats.checkouts, next_tag - 1);
    }

    /// Give-back order is irrelevant: whatever sat in a block before it
    /// was returned, the next zeroed checkout of any length is clean.
    #[test]
    fn recycled_blocks_are_rezeroed_regardless_of_history(
        block_words in 1usize..64,
        dirt in proptest::collection::vec(1u64..u64::MAX, 1..64),
        len in 1usize..96,
    ) {
        let arena = BlockPool::new(block_words, 4);
        let mut block = arena.checkout();
        block.extend_from_slice(&dirt);
        arena.give_back(block);
        let clean = arena.checkout_zeroed(len);
        prop_assert_eq!(clean.len(), len);
        prop_assert!(clean.iter().all(|&w| w == 0));
    }
}
