//! Work-conserving shards: while its request ring is empty, a shard
//! fills each client's next block ahead of demand, and the next refill is
//! answered with it. The clients here pause between requests, so their
//! shards fill ahead; every stream must still be its lane's stream, and
//! a `Custom` session must never be called ahead of demand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hprng_core::seeding::lane_seed;
use hprng_core::{
    CpuBackend, Engine, ExpanderLanes, ExpanderWalkRng, GlibcFeed, HprngError, HybridParams,
    OnDemandRng, SplitOnDemand,
};
use hprng_pool::{names, Pool, PoolClient, SessionKind, StreamState};

/// A pause between requests, which gives the shard idle time to fill
/// ahead (the tests that need a spare wait for one).
const PAUSE: Duration = Duration::from_millis(2);

/// Request sizes that cross block boundaries at varied offsets.
const SIZES: [usize; 5] = [7, 32, 1, 45, 13];

/// Draws `n` words in ragged requests, pausing before each.
fn drain_pausing(client: &mut PoolClient, n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    for &size in SIZES.iter().cycle() {
        if out.len() == n {
            break;
        }
        std::thread::sleep(PAUSE);
        out.extend(client.try_next_batch(size.min(n - out.len())).unwrap());
    }
    out
}

/// Asks for the session's own checkpoint until the shard's spare for
/// this client holds words: the produced position then leads the
/// client's consumption by more than its two prefetch blocks.
fn checkpoint_with_spare(client: &mut PoolClient, block: usize) -> StreamState {
    let until = Instant::now() + Duration::from_secs(10);
    loop {
        let state = client.session_checkpoint().unwrap();
        if state.session_words - client.words_served() > 2 * block as u64 {
            return state;
        }
        assert!(
            Instant::now() < until,
            "client {}: never filled ahead",
            client.id()
        );
        std::thread::sleep(PAUSE);
    }
}

/// Shuts `pool` down, so every queued refill has been served, and
/// returns how many refills its shards answered with a spare.
fn shut_down_counting_spare_refills(pool: Pool) -> f64 {
    let registry = pool.registry().expect("tracing is on");
    let shards = pool.shards();
    pool.shutdown();
    let snapshot = registry.snapshot();
    (0..shards)
        .map(|shard| snapshot.counter(&names::shard_spare_refills(shard)))
        .sum()
}

#[test]
fn pausing_walk_clients_serve_their_lanes_through_checkpoint_and_migration() {
    const SEED: u64 = 2024;
    const BLOCK: usize = 32;
    for shards in [1usize, 2] {
        let pool = Pool::builder(SEED)
            .shards(shards)
            .prefetch_words(BLOCK)
            .tracing(64)
            .build()
            .unwrap();
        for id in [0u64, 1, 3] {
            let mut client = pool.try_client_with_id(id).unwrap();
            let mut got = drain_pausing(&mut client, 100);

            // The produced position leads by at most three blocks: the
            // rest of the front, the block in flight, and the spare.
            let state = checkpoint_with_spare(&mut client, BLOCK);
            let lead = state.session_words - client.words_served();
            assert!(lead <= 3 * BLOCK as u64, "client {id}: lead {lead}");
            let produced = state.session_words as usize;
            let mut lane = ExpanderLanes::new(SEED).lane(id);
            let want: Vec<u64> = (0..produced + 16).map(|_| lane.get_next_rand()).collect();
            let mut resumed = ExpanderWalkRng::resume(&state).unwrap();
            let next: Vec<u64> = (0..16)
                .map(|_| OnDemandRng::get_next_rand(&mut resumed))
                .collect();
            assert_eq!(next, want[produced..], "client {id}: checkpoint position");

            // Crossing a block boundary sends a refill the spare answers;
            // then the client moves, and its spare is dropped.
            got.extend(drain_pausing(&mut client, 50));
            client.migrate_to((client.shard() + 1) % shards).unwrap();
            got.extend(drain_pausing(&mut client, 50));
            let mut lane = ExpanderLanes::new(SEED).lane(id);
            let want: Vec<u64> = (0..200).map(|_| lane.get_next_rand()).collect();
            assert_eq!(got, want, "client {id} on {shards} shard(s)");
        }
        assert!(shut_down_counting_spare_refills(pool) > 0.0);
    }
}

#[test]
fn pausing_cpu_engine_clients_match_a_dedicated_engine() {
    const SEED: u64 = 7;
    const LANES: usize = 4;
    let params = HybridParams::default();
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(100) // filled ahead in two pieces, 64 and 36 words
        .session(SessionKind::CpuEngine {
            lanes: LANES,
            params,
        })
        .tracing(64)
        .build()
        .unwrap();
    for id in [0u64, 1, 5] {
        let mut client = pool.try_client_with_id(id).unwrap();
        let mut got = drain_pausing(&mut client, 150);
        checkpoint_with_spare(&mut client, 100);
        got.extend(drain_pausing(&mut client, 250));

        let mut engine = Engine::new(
            CpuBackend::new(params),
            Box::new(GlibcFeed::from_master_seed(lane_seed(SEED, id))),
        );
        engine.initialize(LANES).unwrap();
        let mut want = Vec::new();
        while want.len() < 400 {
            want.extend_from_slice(&engine.try_next_batch(LANES).unwrap());
        }
        want.truncate(400);
        assert_eq!(got, want, "client {id} diverged from a dedicated engine");
    }
    assert!(shut_down_counting_spare_refills(pool) > 0.0);
}

/// A walk that counts the words it is asked for.
struct Counted {
    inner: ExpanderWalkRng,
    words: Arc<AtomicU64>,
}

impl OnDemandRng for Counted {
    fn label(&self) -> &'static str {
        "counted"
    }
    fn lanes(&self) -> usize {
        1
    }
    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        self.words.fetch_add(out.len() as u64, Ordering::SeqCst);
        self.inner.try_next_batch_into(out)
    }
    fn words_served(&self) -> u64 {
        self.inner.words_served()
    }
}

#[test]
fn custom_sessions_are_never_called_ahead_of_demand() {
    const BLOCK: usize = 32;
    let words = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&words);
    let pool = Pool::builder(5)
        .shards(1)
        .prefetch_words(BLOCK)
        .session(SessionKind::Custom {
            lanes: 1,
            factory: Arc::new(move |seed| {
                Box::new(Counted {
                    inner: ExpanderWalkRng::from_seed_u64(seed),
                    words: Arc::clone(&counter),
                })
            }),
        })
        .build()
        .unwrap();
    // Waits until the shard has served `refills` blocks, idles it, and
    // checks that it called the session for exactly those blocks.
    let settle = |refills: u64| {
        let until = Instant::now() + Duration::from_secs(10);
        while pool.stats().refills < refills {
            assert!(Instant::now() < until, "refill {refills} never served");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The shard is idle: give it every chance to call ahead.
        std::thread::sleep(10 * PAUSE);
        assert_eq!(pool.stats().refills, refills);
        assert_eq!(
            words.load(Ordering::SeqCst),
            refills * BLOCK as u64,
            "a Custom session was called ahead of demand"
        );
    };
    let mut client = pool.try_client().unwrap();
    // Admission alone fills the two primed blocks.
    settle(2);
    let mut block = [0u64; BLOCK];
    for drawn in 1..=6u64 {
        client.fill_words(&mut block).unwrap();
        // Two priming fills, then one refill per drained block.
        settle(drawn + 1);
    }
    drop(client);
    pool.shutdown();
}
