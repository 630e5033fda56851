//! Checkpoint, migration, and shard-failover suite: golden bit-identity
//! of resumed streams across shard counts, mid-fill migration, automatic
//! reattachment after a worker panic, and the id-claim lifecycle.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use hprng_core::seeding::lane_seed;
use hprng_core::{
    ExpanderLanes, ExpanderWalkRng, HprngError, HybridParams, OnDemandRng, SplitOnDemand,
};
use hprng_pool::{Pool, SessionKind, StreamState};

/// The single-lane reference stream for client `id` of a pool over `seed`
/// with [`SessionKind::ExpanderWalk`] sessions.
fn golden_expander(seed: u64, id: u64, n: usize) -> Vec<u64> {
    let mut lane = ExpanderWalkRng::from_seed_u64(lane_seed(seed, id));
    (0..n)
        .map(|_| OnDemandRng::get_next_rand(&mut lane))
        .collect()
}

/// Serves `n` words off `client` in deliberately ragged request sizes, so
/// checkpoints and failovers land mid-`fill_words`, mid-block, and
/// mid-round rather than on tidy boundaries.
fn drain_ragged(client: &mut hprng_pool::PoolClient, n: usize) -> Vec<u64> {
    let chunks = [1usize, 7, 13, 64, 3, 29];
    let mut out = Vec::with_capacity(n);
    let mut c = 0;
    while out.len() < n {
        let take = chunks[c % chunks.len()].min(n - out.len());
        c += 1;
        let mut buf = vec![0u64; take];
        client.fill_words(&mut buf).unwrap();
        out.extend_from_slice(&buf);
    }
    out
}

/// The golden acceptance path: a client checkpointed mid-fill, serialized
/// to JSON, and restored on a pool with a *different* shard count (so a
/// different shard) produces a bit-identical stream.
#[test]
fn checkpoint_json_restore_is_bit_identical_across_shard_counts_1_2_8() {
    const SEED: u64 = 42;
    const ID: u64 = 3;
    const CUT: usize = 137; // mid-block, mid-request
    const TAIL: usize = 300;
    let golden = golden_expander(SEED, ID, CUT + TAIL);
    for (shards_before, shards_after) in [(1usize, 2usize), (2, 8), (8, 1)] {
        let before = Pool::builder(SEED)
            .shards(shards_before)
            .prefetch_words(64)
            .build()
            .unwrap();
        let mut client = before.try_client_with_id(ID).unwrap();
        assert_eq!(drain_ragged(&mut client, CUT), &golden[..CUT]);
        let json = client.checkpoint().to_json();
        drop(client);
        before.shutdown();

        // A different process, a different pool shape: only the JSON and
        // the pool seed cross the boundary.
        let state = StreamState::from_json(&json).unwrap();
        let after = Pool::builder(SEED)
            .shards(shards_after)
            .prefetch_words(64)
            .build()
            .unwrap();
        let mut resumed = after.try_client_resumed(&state).unwrap();
        assert_eq!(resumed.words_served(), CUT as u64);
        assert_eq!(
            drain_ragged(&mut resumed, TAIL),
            &golden[CUT..],
            "resumed stream diverged moving {shards_before} -> {shards_after} shards"
        );
        drop(resumed);
        after.shutdown();
    }
}

/// Restoring onto an explicitly pinned shard — not the id's home shard —
/// serves the same stream: restores are shard-agnostic.
#[test]
fn resume_pinned_to_a_foreign_shard_serves_the_same_stream() {
    const SEED: u64 = 9;
    const ID: u64 = 3; // home shard 3 of 8
    let golden = golden_expander(SEED, ID, 200);
    let pool = Pool::builder(SEED)
        .shards(8)
        .prefetch_words(32)
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(ID).unwrap();
    assert_eq!(drain_ragged(&mut client, 90), &golden[..90]);
    let state = client.checkpoint();
    drop(client);
    let mut resumed = pool.try_client_resumed_on(&state, 5).unwrap();
    assert_eq!(resumed.shard(), 5);
    assert_eq!(drain_ragged(&mut resumed, 110), &golden[90..]);
    drop(resumed);
    pool.shutdown();
}

/// A resumed client whose home shard is poisoned lands on the next
/// healthy shard of the ring and serves its stream from there.
#[test]
fn resume_routes_around_a_poisoned_home_shard() {
    const SEED: u64 = 9;
    const ID: u64 = 1; // home shard 1 of 3
    const VICTIM: u64 = 4; // also homes on shard 1, and kills it
    let golden = golden_expander(SEED, ID, 200);
    let pool = Pool::builder(SEED)
        .shards(3)
        .prefetch_words(16)
        .session(panic_once_kind(SEED, VICTIM, 0))
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(ID).unwrap();
    assert_eq!(drain_ragged(&mut client, 90), &golden[..90]);
    let state = client.checkpoint();
    drop(client);

    // The victim's first priming fill panics and poisons shard 1.
    let _victim = pool.try_client_with_id(VICTIM).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while pool.stats().poisoned_shards != [1] {
        assert!(std::time::Instant::now() < deadline, "shard 1 never died");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut resumed = pool.try_client_resumed(&state).unwrap();
    assert_eq!(resumed.shard(), 2);
    assert_eq!(drain_ragged(&mut resumed, 110), &golden[90..]);
    drop(resumed);
    pool.shutdown();
}

/// Engine-backed sessions resume too, including the sub-round remainder:
/// 137 is not a multiple of 4 lanes, so the shard fast-forwards whole
/// rounds and the client skips the remainder from its first block.
#[test]
fn engine_sessions_resume_mid_round_with_the_client_side_skip() {
    const SEED: u64 = 7;
    const LANES: usize = 4;
    const CUT: usize = 137; // 137 % 4 == 1: exercises resume_skip
    const TAIL: usize = 200;
    let kind = || SessionKind::CpuEngine {
        lanes: LANES,
        params: HybridParams::default(),
    };
    // Reference: an unmigrated client serving the whole stream.
    let reference_pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(16)
        .session(kind())
        .build()
        .unwrap();
    let mut reference = reference_pool.try_client_with_id(1).unwrap();
    let golden = drain_ragged(&mut reference, CUT + TAIL);
    drop(reference);
    reference_pool.shutdown();

    let before = Pool::builder(SEED)
        .shards(3)
        .prefetch_words(16)
        .session(kind())
        .build()
        .unwrap();
    let mut client = before.try_client_with_id(1).unwrap();
    assert_eq!(drain_ragged(&mut client, CUT), &golden[..CUT]);
    let json = client.checkpoint().to_json();
    drop(client);
    before.shutdown();

    let after = Pool::builder(SEED)
        .shards(1)
        .prefetch_words(16)
        .session(kind())
        .build()
        .unwrap();
    let state = StreamState::from_json(&json).unwrap();
    let mut resumed = after.try_client_resumed(&state).unwrap();
    assert_eq!(drain_ragged(&mut resumed, TAIL), &golden[CUT..]);
    drop(resumed);
    after.shutdown();
}

/// The client-side `resume_skip` remainder, swept across every residue
/// of the lane width and both sides of the lane- and block-aligned
/// cuts. The shard fast-forwards whole rounds only; the client must
/// skip `session_words % lanes` words of its first block — a cut that
/// is 0 mod lanes must skip nothing, and an off-by-one in either
/// direction shifts the whole resumed stream.
#[test]
fn resume_skip_is_exact_for_every_cut_around_lane_and_block_boundaries() {
    const SEED: u64 = 7;
    const LANES: usize = 4;
    const TAIL: usize = 50;
    let kind = || SessionKind::CpuEngine {
        lanes: LANES,
        params: HybridParams::default(),
    };
    let reference_pool = Pool::builder(SEED)
        .shards(1)
        .prefetch_words(16)
        .session(kind())
        .build()
        .unwrap();
    let mut reference = reference_pool.try_client_with_id(1).unwrap();
    let golden = drain_ragged(&mut reference, 67 + TAIL);
    drop(reference);
    reference_pool.shutdown();

    // 15..17 straddle the first 16-word prefetch block; 64..67 cover
    // every `cut % 4` residue while straddling a four-block boundary.
    for cut in [15usize, 16, 17, 64, 65, 66, 67] {
        let before = Pool::builder(SEED)
            .shards(1)
            .prefetch_words(16)
            .session(kind())
            .build()
            .unwrap();
        let mut client = before.try_client_with_id(1).unwrap();
        assert_eq!(drain_ragged(&mut client, cut), &golden[..cut]);
        let json = client.checkpoint().to_json();
        drop(client);
        before.shutdown();

        let after = Pool::builder(SEED)
            .shards(2)
            .prefetch_words(16)
            .session(kind())
            .build()
            .unwrap();
        let state = StreamState::from_json(&json).unwrap();
        let mut resumed = after.try_client_resumed(&state).unwrap();
        assert_eq!(
            drain_ragged(&mut resumed, TAIL),
            &golden[cut..cut + TAIL],
            "resumed stream diverged for cut {cut} (cut % lanes = {})",
            cut % LANES
        );
        drop(resumed);
        after.shutdown();
    }
}

/// A pure-function session whose word at stream index `i` is
/// `mix(seed, i)`, with an O(1) `try_restore` — the only way to place a
/// checkpoint beyond 2^32 words without hours of replay.
fn counting_kind(lanes: usize) -> SessionKind {
    fn mix(seed: u64, i: u64) -> u64 {
        (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
    SessionKind::Custom {
        lanes,
        factory: Arc::new(move |seed| {
            struct Counting {
                seed: u64,
                lanes: usize,
                produced: u64,
            }
            impl OnDemandRng for Counting {
                fn label(&self) -> &'static str {
                    "counting"
                }
                fn lanes(&self) -> usize {
                    self.lanes
                }
                fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
                    for word in out.iter_mut() {
                        *word = mix(self.seed, self.produced);
                        self.produced += 1;
                    }
                    Ok(())
                }
                fn words_served(&self) -> u64 {
                    self.produced
                }
                fn try_restore(&mut self, state: &StreamState) -> Result<(), HprngError> {
                    if state.seed != self.seed {
                        return Err(HprngError::RestoreMismatch {
                            field: "seed",
                            reason: "counting session restored with a foreign seed",
                        });
                    }
                    self.produced = state.session_words;
                    Ok(())
                }
            }
            Box::new(Counting {
                seed,
                lanes,
                produced: 0,
            })
        }),
    }
}

/// The `resume_skip` cast path at a checkpoint beyond u32::MAX words:
/// `session_words % lanes` is computed in u64 and only then narrowed, so
/// a (1 << 32) + 5 cut over 4 lanes must skip exactly one word — a
/// 32-bit-sized truncation anywhere in the chain would misplace the
/// resumed stream by a block or serve it from word zero.
#[test]
fn resume_skip_survives_checkpoints_beyond_u32_words() {
    const SEED: u64 = 13;
    const ID: u64 = 1;
    const LANES: usize = 4;
    const CUT: u64 = (1u64 << 32) + 5; // % 4 == 1
    let mix = |i: u64| (lane_seed(SEED, ID) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(16)
        .session(counting_kind(LANES))
        .build()
        .unwrap();
    let state = StreamState::minimal("counting", ID, lane_seed(SEED, ID), LANES, CUT);
    let mut resumed = pool.try_client_resumed(&state).unwrap();
    assert_eq!(resumed.words_served(), CUT);
    let mut got = vec![0u64; 40];
    resumed.fill_words(&mut got).unwrap();
    let want: Vec<u64> = (0..40).map(|j| mix(CUT + j)).collect();
    assert_eq!(got, want, "resumed stream misplaced after a 2^32+5 cut");
    assert_eq!(resumed.words_served(), CUT + 40);
    drop(resumed);
    pool.shutdown();
}

/// Live migration mid-fill: a rebalanced client continues bit-identically
/// against an unmigrated twin, and the move shows up in the stats.
#[test]
fn rebalance_migrates_mid_fill_without_perturbing_the_stream() {
    const SEED: u64 = 21;
    const ID: u64 = 1; // home shard 1 of 4; rebalance sends it to shard 0
    let golden = golden_expander(SEED, ID, 400);
    let pool = Pool::builder(SEED)
        .shards(4)
        .prefetch_words(32)
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(ID).unwrap();
    assert_eq!(drain_ragged(&mut client, 37), &golden[..37]);
    assert_eq!(client.shard(), 1);

    let moved = pool.rebalance([&mut client]).unwrap();
    assert_eq!(moved, 1);
    assert_eq!(client.shard(), 0);
    assert_eq!(drain_ragged(&mut client, 363), &golden[37..]);

    let stats = pool.stats();
    assert_eq!(stats.migrations, 1);
    assert_eq!(stats.failovers, 0);
    // Rebalancing a client already in place is a no-op.
    let moved = pool.rebalance([&mut client]).unwrap();
    assert_eq!(moved, 0);
    assert_eq!(pool.stats().migrations, 1);
    drop(client);
    pool.shutdown();
}

/// Explicit migration hopping across every shard of the pool, each hop
/// mid-stream, still golden end to end.
#[test]
fn migrate_to_every_shard_in_turn_stays_golden() {
    const SEED: u64 = 5;
    const ID: u64 = 0;
    let golden = golden_expander(SEED, ID, 4 * 64);
    let pool = Pool::builder(SEED)
        .shards(4)
        .prefetch_words(16)
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(ID).unwrap();
    let mut out = Vec::new();
    for target in [1usize, 2, 3, 0] {
        out.extend_from_slice(&drain_ragged(&mut client, 64));
        client.migrate_to(target).unwrap();
        assert_eq!(client.shard(), target);
    }
    assert_eq!(out, golden);
    assert_eq!(pool.stats().migrations, 4);
    drop(client);
    pool.shutdown();
}

/// A session whose first build over the victim's lane seed panics after
/// `fuse` more batches — exactly once pool-wide, so the session rebuilt
/// during failover serves cleanly. The countdown is shared: it keeps
/// falling below zero afterwards, which disarms every later build.
fn panic_once_kind(pool_seed: u64, victim: u64, fuse: i64) -> SessionKind {
    let countdown = Arc::new(AtomicI64::new(fuse));
    SessionKind::Custom {
        lanes: 1,
        factory: Arc::new(move |seed| {
            struct PanicOnce {
                inner: ExpanderWalkRng,
                countdown: Option<Arc<AtomicI64>>,
            }
            impl OnDemandRng for PanicOnce {
                fn label(&self) -> &'static str {
                    "panic-once"
                }
                fn lanes(&self) -> usize {
                    1
                }
                fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
                    if let Some(countdown) = &self.countdown {
                        if countdown.fetch_sub(1, Ordering::SeqCst) == 0 {
                            panic!("injected one-shot worker failure");
                        }
                    }
                    self.inner.try_next_batch_into(out)
                }
                fn words_served(&self) -> u64 {
                    self.inner.words_served()
                }
            }
            let armed = seed == lane_seed(pool_seed, victim);
            Box::new(PanicOnce {
                inner: ExpanderWalkRng::from_seed_u64(seed),
                countdown: armed.then(|| Arc::clone(&countdown)),
            })
        }),
    }
}

/// The headline failover guarantee: after a worker panic the affected
/// client automatically reattaches to a healthy shard and its stream
/// continues bit-identically — pure golden output, no gap, no repeats.
#[test]
fn failover_after_a_worker_panic_resumes_the_stream_bit_identically() {
    const SEED: u64 = 1;
    const VICTIM: u64 = 1; // home shard 1 of 2
    const WORDS: usize = 500;
    let golden = golden_expander(SEED, VICTIM, WORDS);
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(8)
        // The fuse is counted in full-width batches: 8-word blocks at one
        // lane are 8 batches each, so the worker dies refilling the third
        // block — after the client has consumed words from the first two.
        .session(panic_once_kind(SEED, VICTIM, 20))
        .failover(true)
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(VICTIM).unwrap();
    assert_eq!(client.shard(), 1);
    assert_eq!(drain_ragged(&mut client, WORDS), golden);
    assert_eq!(
        client.shard(),
        0,
        "client should have moved to the healthy shard"
    );
    assert_eq!(client.words_served(), WORDS as u64);

    let stats = pool.stats();
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.poisoned_shards, vec![1]);
    drop(client);
    pool.shutdown();
}

/// Without the opt-in, the pre-failover contract is unchanged: the
/// poisoned shard permanently fails its client.
#[test]
fn failover_stays_opt_in() {
    const SEED: u64 = 1;
    const VICTIM: u64 = 1;
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(8)
        .session(panic_once_kind(SEED, VICTIM, 0))
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(VICTIM).unwrap();
    let mut buf = [0u64; 64];
    let err = loop {
        if let Err(e) = client.fill_words(&mut buf) {
            break e;
        }
    };
    assert!(matches!(err, HprngError::ShardPoisoned { shard: 1 }));
    assert_eq!(pool.stats().failovers, 0);
    drop(client);
    pool.shutdown();
}

/// A request that fails mid-copy consumes nothing: the client's
/// checkpoint stays at the last completed request, so a client resumed
/// from it re-serves the words the failed request had already copied.
#[test]
fn a_failed_request_leaves_the_checkpoint_at_the_last_completed_one() {
    const SEED: u64 = 1;
    const VICTIM: u64 = 1; // home shard 1 of 2
    const DONE: usize = 5;
    let golden = golden_expander(SEED, VICTIM, DONE + 64);
    // Admission primes two 8-word blocks (16 one-word batches); the fuse
    // lets exactly those through, so the refill asked for once the first
    // block drains kills the worker.
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(8)
        .session(panic_once_kind(SEED, VICTIM, 16))
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(VICTIM).unwrap();
    let mut done = [0u64; DONE];
    client.fill_words(&mut done).unwrap();
    assert_eq!(done, golden[..DONE]);
    // Copies the rest of the first block and all of the second, then
    // finds the shard dead.
    let mut buf = [0u64; 64];
    assert!(matches!(
        client.fill_words(&mut buf),
        Err(HprngError::ShardPoisoned { shard: 1 })
    ));
    let state = client.checkpoint();
    assert_eq!(state.session_words, DONE as u64);
    drop(client);
    pool.shutdown();

    let healthy = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(8)
        .build()
        .unwrap();
    let mut resumed = healthy.try_client_resumed(&state).unwrap();
    assert_eq!(drain_ragged(&mut resumed, 64), &golden[DONE..]);
    drop(resumed);
    healthy.shutdown();
}

/// The worker-side checkpoint protocol: `Request::Checkpoint` answers
/// with the session's rich state at its *produced* position, which — fed
/// through JSON and a standalone [`ExpanderWalkRng::resume`] — continues
/// the very same lane stream.
#[test]
fn session_checkpoint_round_trips_the_produced_position() {
    const SEED: u64 = 33;
    const ID: u64 = 2;
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(32)
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(ID).unwrap();
    let mut buf = [0u64; 40];
    client.fill_words(&mut buf).unwrap();

    let state = client.session_checkpoint().unwrap();
    assert_eq!(state.id, ID);
    assert_eq!(state.seed, lane_seed(SEED, ID));
    // The session leads the consumer by the in-flight prefetch.
    let produced = state.session_words;
    assert!(produced >= client.words_served());

    // The produced position continues the pure lane stream exactly.
    let golden = golden_expander(SEED, ID, produced as usize + 50);
    let json = state.to_json();
    let mut resumed = ExpanderWalkRng::resume(&StreamState::from_json(&json).unwrap()).unwrap();
    let next: Vec<u64> = (0..50)
        .map(|_| OnDemandRng::get_next_rand(&mut resumed))
        .collect();
    assert_eq!(next, &golden[produced as usize..]);
    drop(client);
    pool.shutdown();
}

/// A checkpoint in the version-1 format, which carried two more word
/// counters, is refused when parsed, so it never reaches resume
/// admission.
#[test]
fn version_1_checkpoints_are_refused() {
    // What `PoolClient::checkpoint().to_json()` wrote in version 1 for
    // lane 0 of a pool over seed 4, after 16 words.
    const V1: &str = r#"{"degraded_words":"0","feed_chunks":"0","feed_words":"0","format":"hprng-stream-state","id":"0","label":"pool","lanes":1,"seed":"4","session_words":"16","version":1,"walks":[],"words_served":"16"}"#;
    assert!(matches!(
        StreamState::from_json(V1),
        Err(HprngError::RestoreMismatch {
            field: "version",
            ..
        })
    ));
}

/// Resume admission rejects states that do not belong to this pool.
#[test]
fn resume_rejects_foreign_and_inconsistent_states() {
    let pool = Pool::builder(4).shards(2).build().unwrap();
    let mut client = pool.try_client_with_id(0).unwrap();
    let mut buf = [0u64; 16];
    client.fill_words(&mut buf).unwrap();
    let good = client.checkpoint();
    drop(client);

    // Wrong pool seed: the lane-seed derivation no longer matches.
    let other = Pool::builder(5).shards(2).build().unwrap();
    assert!(matches!(
        other.try_client_resumed(&good),
        Err(HprngError::RestoreMismatch { field: "seed", .. })
    ));
    other.shutdown();

    // Wrong lane count for the session kind.
    let mut wrong_lanes = good.clone();
    wrong_lanes.lanes = 3;
    assert!(matches!(
        pool.try_client_resumed(&wrong_lanes),
        Err(HprngError::RestoreMismatch { field: "lanes", .. })
    ));

    // No such shard.
    assert!(matches!(
        pool.try_client_resumed_on(&good, 9),
        Err(HprngError::InvalidParam { field: "shard", .. })
    ));
    pool.shutdown();
}

/// Dropping a client releases its claimed id: explicitly claimed then
/// dropped ids return to the auto-assignment space, while ids with any
/// live holder stay skipped.
#[test]
fn dropped_clients_release_their_ids_for_reuse() {
    let pool = Pool::builder(8).shards(1).build().unwrap();
    let c0 = pool.try_client_with_id(0).unwrap();
    let c1 = pool.try_client_with_id(1).unwrap();
    let c2 = pool.try_client_with_id(2).unwrap();
    let c2_twin = pool.try_client_with_id(2).unwrap(); // two live holders
    drop(c0);
    drop(c1);
    drop(c2);
    // 0 and 1 were released; 2 still has a live holder (the twin), so the
    // auto-assigner hands out 0, 1, then skips 2 for 3.
    let a = pool.try_client().unwrap();
    let b = pool.try_client().unwrap();
    let c = pool.try_client().unwrap();
    assert_eq!((a.id(), b.id(), c.id()), (0, 1, 3));
    // Releasing the last holder frees the id for explicit reuse and for
    // the auto-assigner alike.
    drop(c2_twin);
    let d = pool.try_client_with_id(2).unwrap();
    assert_eq!(d.id(), 2);
    drop((a, b, c, d));
    pool.shutdown();
}

/// Two live clients on one id each hold their own session: sessions are
/// keyed by attachment, never by id, so the second admission neither
/// takes over nor detaches the first client's session.
#[test]
fn two_live_clients_on_one_id_each_serve_the_lane() {
    const SEED: u64 = 42;
    const ID: u64 = 5;
    let mut lane = ExpanderLanes::new(SEED).lane(ID);
    let golden: Vec<u64> = (0..600).map(|_| lane.get_next_rand()).collect();
    for shards in [1usize, 2] {
        let pool = Pool::builder(SEED)
            .shards(shards)
            .prefetch_words(64)
            .build()
            .unwrap();
        let mut first = pool.try_client_with_id(ID).unwrap();
        let mut second = pool.try_client_with_id(ID).unwrap();
        assert_eq!(drain_ragged(&mut first, 300), &golden[..300]);
        assert_eq!(drain_ragged(&mut second, 300), &golden[..300]);
        assert_eq!(pool.stats().clients, 2, "{shards} shard(s)");

        drop(first);
        assert_eq!(drain_ragged(&mut second, 300), &golden[300..]);
        drop(second);
        assert_eq!(pool.live_claims(), 0);
        pool.shutdown();
    }
}
