//! The pool's steady state allocates nothing: once a client's two
//! prefetch blocks and its shard-side spare exist, each refill overwrites
//! the drained block the client sends with its request or swaps it for
//! the spare, and serving a word is a slice copy.
//!
//! One test in its own binary, because the counting global allocator
//! below sees every thread of the process, the shard workers included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hprng_baselines::SplitMix64;
use hprng_core::ScalarRng;
use hprng_pool::{names, Pool, SessionKind};

/// Allocations and reallocations made through [`Counting`].
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every `alloc` and `realloc`.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Words per prefetch block (the pool's default `prefetch_words`).
const BLOCK: usize = 1024;

#[test]
fn steady_state_serving_allocates_nothing() {
    let splitmix = SessionKind::Custom {
        lanes: 1,
        factory: Arc::new(|seed| Box::new(ScalarRng::new(SplitMix64::new(seed)))),
    };
    for (name, kind) in [
        ("expander walk", SessionKind::ExpanderWalk),
        ("splitmix", splitmix),
    ] {
        let pool = Pool::builder(42)
            .shards(1)
            .prefetch_words(BLOCK)
            .session(kind)
            .build()
            .unwrap();
        let mut client = pool.try_client().unwrap();
        let mut out = vec![0u64; BLOCK];
        // Warm-up: the two priming refills allocate the client's blocks,
        // and the first drained block reserves the walk shard's spare.
        for _ in 0..4 {
            client.fill_words(&mut out).unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..64 {
            client.fill_words(&mut out).unwrap();
        }
        for _ in 0..BLOCK {
            client.try_next_u64().unwrap();
        }
        let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(allocations, 0, "{name}: 65 blocks served with allocations");
        drop(client);
        pool.shutdown();
    }

    // A client that pauses between blocks: its shard, idle meanwhile,
    // fills the client's next block ahead and answers the next refill
    // with it, swapping in the drained block as the next spare. Tracing
    // counts both; sampling every `u64::MAX`-th refill records no span,
    // and the counter handles are taken before the window, so reading
    // them allocates nothing either.
    let pool = Pool::builder(42)
        .shards(1)
        .prefetch_words(BLOCK)
        .tracing(u64::MAX)
        .build()
        .unwrap();
    let registry = pool.registry().expect("tracing is on");
    let ahead_words = registry.counter(&names::shard_ahead_words(0));
    let spare_refills = registry.counter(&names::shard_spare_refills(0));
    let mut client = pool.try_client().unwrap();
    let mut out = vec![0u64; BLOCK];
    // From the second request on, each request sends a drained block
    // back; the first one reserves the spare. Each pause then lasts
    // until the shard has filled the whole spare ahead, one block more
    // per request.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut filled = 0;
    let mut pause = || {
        filled += BLOCK as u64;
        while ahead_words.get() < filled && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    // Warm-up: the priming refills allocate two blocks, and the first
    // drained block reserves the spare.
    client.fill_words(&mut out).unwrap();
    for _ in 0..3 {
        client.fill_words(&mut out).unwrap();
        pause();
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..16 {
        client.fill_words(&mut out).unwrap();
        pause();
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(allocations, 0, "pausing: 16 blocks served with allocations");
    assert!(
        Instant::now() < deadline,
        "pausing: the shard stopped filling ahead"
    );
    // Every refill after the first drained one found a full spare: two in
    // the warm-up, sixteen in the window.
    assert_eq!(spare_refills.get(), 18);
    drop(client);
    pool.shutdown();
}
