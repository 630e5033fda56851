//! [`BlockPool`]: a recycled-buffer arena for `Vec<u64>` blocks.
//!
//! The serving path circulates block-sized `Vec<u64>` buffers: shard
//! workers fill prefetch buffers, and clients hold a front/back pair.
//! Allocating those on every hop puts the allocator on the
//! word-serving hot path. The arena removes it: blocks are checked out,
//! filled, consumed, and given back, so steady state recycles the same
//! few allocations forever.
//!
//! Contracts the proptest suite holds the arena to:
//!
//! * **No aliasing** — checkout transfers ownership (it is a move of a
//!   `Vec`); two outstanding checkouts never share storage, and a block
//!   given back can only be handed out again after it was returned.
//! * **Zero when promised** — [`BlockPool::checkout_zeroed`] returns a
//!   block of exactly the requested length, every word zero, regardless
//!   of what a previous user left in it ([`BlockPool::give_back`] clears
//!   before caching; `checkout_zeroed` re-zeroes defensively anyway).
//! * **Bounded retention** — the free list caps at `max_retained`
//!   blocks, and a returned block whose capacity ballooned past twice
//!   the nominal block size is shrunk before caching, so one peak-sized
//!   request cannot pin its peak capacity forever.
//!
//! The free list is a plain `Mutex<Vec<_>>`: checkout/return happen once
//! per *block* (thousands of words), not per word, so a mutex is far off
//! the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A recycled-buffer arena for block-sized `Vec<u64>` buffers (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct BlockPool {
    free: Mutex<Vec<Vec<u64>>>,
    /// Nominal words per block; returned blocks above twice this are
    /// shrunk before caching.
    block_words: usize,
    /// Free-list bound; returns beyond it drop the block instead.
    max_retained: usize,
    checkouts: AtomicU64,
    recycled: AtomicU64,
    discarded: AtomicU64,
}

/// Point-in-time arena counters (see [`BlockPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Blocks handed out (fresh or recycled).
    pub checkouts: u64,
    /// Checkouts served from the free list instead of the allocator.
    pub recycled: u64,
    /// Returned blocks dropped because the free list was full.
    pub discarded: u64,
    /// Blocks currently cached on the free list.
    pub free: usize,
}

impl BlockPool {
    /// An arena for blocks of nominally `block_words` words, retaining at
    /// most `max_retained` free blocks (both floored at 1 — a
    /// zero-retention arena would silently degrade to the allocator).
    pub fn new(block_words: usize, max_retained: usize) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            block_words: block_words.max(1),
            max_retained: max_retained.max(1),
            checkouts: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// Nominal words per block.
    pub fn block_words(&self) -> usize {
        self.block_words
    }

    /// Checks out an **empty** block (length 0), recycled when a free one
    /// is available. The caller owns it until [`BlockPool::give_back`].
    pub fn checkout(&self) -> Vec<u64> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        // Chaos Deny models an exhausted arena: skip the free list so the
        // checkout takes the allocator path, as if nothing were cached.
        #[cfg(feature = "chaos")]
        if crate::chaos::denies(crate::chaos::FaultPoint::ArenaCheckout) {
            return Vec::with_capacity(self.block_words);
        }
        let recycled = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        match recycled {
            Some(block) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                debug_assert!(block.is_empty(), "free-listed block was not cleared");
                block
            }
            None => Vec::with_capacity(self.block_words),
        }
    }

    /// Checks out a block of exactly `len` words, **every word zero** —
    /// the shape shard refills and the feed worker need before filling.
    pub fn checkout_zeroed(&self, len: usize) -> Vec<u64> {
        let mut block = self.checkout();
        // give_back cleared it, but re-assert the promise locally so it
        // does not depend on every return site behaving.
        block.clear();
        block.resize(len, 0);
        block
    }

    /// Returns a block to the arena. The block is cleared, shrunk if its
    /// capacity ballooned past twice the nominal block size, and cached
    /// unless the free list is already at `max_retained` (then dropped).
    pub fn give_back(&self, mut block: Vec<u64>) {
        // Chaos Deny collapses retention: the block is dropped (and
        // counted discarded) instead of cached, as if the list were full.
        #[cfg(feature = "chaos")]
        if crate::chaos::denies(crate::chaos::FaultPoint::ArenaGiveBack) {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        block.clear();
        if block.capacity() > self.block_words * 2 {
            block.shrink_to(self.block_words);
        }
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        if free.len() < self.max_retained {
            free.push(block);
        } else {
            drop(free);
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Point-in-time counters: recycling effectiveness and retention.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            free: self
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_recycles_instead_of_allocating() {
        let arena = BlockPool::new(64, 4);
        for _ in 0..10 {
            let block = arena.checkout_zeroed(64);
            arena.give_back(block);
        }
        let stats = arena.stats();
        assert_eq!(stats.checkouts, 10);
        assert_eq!(stats.recycled, 9); // only the first checkout allocated
        assert_eq!(stats.free, 1);
    }

    #[test]
    fn checkout_zeroed_scrubs_previous_contents() {
        let arena = BlockPool::new(8, 2);
        let mut dirty = arena.checkout_zeroed(8);
        dirty.iter_mut().for_each(|w| *w = u64::MAX);
        arena.give_back(dirty);
        let clean = arena.checkout_zeroed(8);
        assert_eq!(clean, vec![0u64; 8]);
    }

    #[test]
    fn oversized_returns_are_shrunk_to_the_nominal_block() {
        let arena = BlockPool::new(64, 2);
        let mut block = arena.checkout();
        block.resize(1024, 7); // a peak-sized request
        arena.give_back(block);
        let recycled = arena.checkout();
        assert!(
            recycled.capacity() <= 64 * 2,
            "peak capacity {} was retained",
            recycled.capacity()
        );
    }

    #[test]
    fn retention_is_bounded_and_overflow_is_counted() {
        let arena = BlockPool::new(16, 2);
        let blocks: Vec<_> = (0..5).map(|_| arena.checkout()).collect();
        for b in blocks {
            arena.give_back(b);
        }
        let stats = arena.stats();
        assert_eq!(stats.free, 2);
        assert_eq!(stats.discarded, 3);
    }

    #[test]
    fn concurrent_checkouts_never_alias() {
        let arena = BlockPool::new(32, 8);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let arena = &arena;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let mut block = arena.checkout_zeroed(32);
                        assert!(block.iter().all(|&w| w == 0));
                        block.iter_mut().for_each(|w| *w = t * 1000 + i);
                        // Ownership means nobody else can see our writes.
                        assert!(block.iter().all(|&w| w == t * 1000 + i));
                        arena.give_back(block);
                    }
                });
            }
        });
        assert_eq!(arena.stats().checkouts, 800);
    }
}
