//! Stress and correctness suite for the sharded pool: golden bit-identity
//! against single-lane references, shutdown under load, poisoned-shard
//! isolation, and failover of blocked clients.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hprng_core::seeding::lane_seed;
use hprng_core::{
    CpuBackend, Engine, ExpanderLanes, ExpanderWalkRng, GlibcFeed, HprngError, HybridParams,
    OnDemandRng,
};
use hprng_pool::{Pool, SessionKind};

/// The single-lane reference stream for client `id` of a pool over `seed`
/// with [`SessionKind::ExpanderWalk`] sessions.
fn golden_expander(seed: u64, id: u64, n: usize) -> Vec<u64> {
    let mut lane = ExpanderWalkRng::from_seed_u64(lane_seed(seed, id));
    (0..n)
        .map(|_| OnDemandRng::get_next_rand(&mut lane))
        .collect()
}

#[test]
fn client_streams_match_single_lane_goldens_for_shard_counts_1_2_8() {
    const SEED: u64 = 42;
    const CLIENTS: u64 = 6;
    const WORDS: usize = 700; // spans several refills at prefetch 128
    for shards in [1usize, 2, 8] {
        let pool = Pool::builder(SEED)
            .shards(shards)
            .prefetch_words(128)
            .build()
            .unwrap();
        // Interleave draws across clients in uneven chunk sizes to stress
        // the claim that interleaving and chunking change nothing.
        let mut clients: Vec<_> = (0..CLIENTS)
            .map(|id| pool.try_client_with_id(id).unwrap())
            .collect();
        let mut streams = vec![Vec::new(); CLIENTS as usize];
        let chunks = [1usize, 7, 13, 64, 3, 129, 50];
        let mut c = 0;
        while streams.iter().any(|s| s.len() < WORDS) {
            for (i, client) in clients.iter_mut().enumerate() {
                if streams[i].len() >= WORDS {
                    continue;
                }
                let take = chunks[c % chunks.len()].min(WORDS - streams[i].len());
                c += 1;
                let mut buf = vec![0u64; take];
                client.fill_words(&mut buf).unwrap();
                streams[i].extend_from_slice(&buf);
            }
        }
        for (id, stream) in streams.iter().enumerate() {
            assert_eq!(
                *stream,
                golden_expander(SEED, id as u64, WORDS),
                "client {id} diverged from its golden under {shards} shard(s)"
            );
        }
    }
}

#[test]
fn cpu_engine_clients_match_a_dedicated_engine() {
    const SEED: u64 = 7;
    const LANES: usize = 4;
    let params = HybridParams::default();
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(8) // rounds to 8 = 2 full-width batches
        .session(SessionKind::CpuEngine {
            lanes: LANES,
            params,
        })
        .build()
        .unwrap();
    for id in [0u64, 1, 5] {
        let mut client = pool.try_client_with_id(id).unwrap();
        assert_eq!(client.lanes(), LANES);
        let mut got = vec![0u64; 100];
        client.fill_words(&mut got).unwrap();

        let mut engine = Engine::new(
            CpuBackend::new(params),
            Box::new(GlibcFeed::from_master_seed(lane_seed(SEED, id))),
        );
        engine.initialize(LANES).unwrap();
        let mut want = Vec::new();
        while want.len() < 100 {
            want.extend_from_slice(&engine.try_next_batch(LANES).unwrap());
        }
        want.truncate(100);
        assert_eq!(got, want, "client {id} diverged from a dedicated engine");
    }
}

#[test]
fn pool_lanes_drive_photon_migration_bit_identically_to_expander_lanes() {
    use hprng_montecarlo::{run_simulation_on, RandomSupply, SimConfig, Tissue};
    let tissue = Tissue::three_layer();
    let cfg = SimConfig {
        seed: 11,
        supply: RandomSupply::InlineHybrid,
        chunk_size: 512,
        grid: None,
    };
    let reference = run_simulation_on(&tissue, 4_000, &cfg, &ExpanderLanes::new(cfg.seed));
    for shards in [1usize, 3] {
        let pool = Pool::builder(cfg.seed).shards(shards).build().unwrap();
        let routed = run_simulation_on(&tissue, 4_000, &cfg, &pool);
        assert_eq!(
            reference.diffuse_reflectance.to_bits(),
            routed.diffuse_reflectance.to_bits(),
            "{shards} shard(s)"
        );
        assert_eq!(reference.interactions, routed.interactions);
        assert_eq!(reference.randoms_used, routed.randoms_used);
    }
}

#[test]
fn pool_serves_list_ranking_sessions() {
    use hprng_listrank::{rank_on_session, sequential_rank, LinkedList};
    let list = LinkedList::random(512, &mut hprng_baselines::SplitMix64::new(9));
    let sequential = sequential_rank(&list);
    let pool = Pool::builder(5)
        .shards(2)
        .session(SessionKind::CpuEngine {
            lanes: 512,
            params: HybridParams::default(),
        })
        .build()
        .unwrap();
    let mut client = pool.try_client().unwrap();
    let (ranks, _) = rank_on_session(&list, &mut client);
    assert_eq!(ranks, sequential);
}

#[test]
fn threaded_clients_keep_their_goldens_under_contention() {
    const SEED: u64 = 99;
    const THREADS: u64 = 8;
    const WORDS: usize = 400;
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(64)
        .build()
        .unwrap();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for id in 0..THREADS {
            let client = pool.try_client_with_id(id).unwrap();
            joins.push(scope.spawn(move || {
                let mut client = client;
                let mut got = vec![0u64; WORDS];
                client.fill_words(&mut got).unwrap();
                (id, got)
            }));
        }
        for join in joins {
            let (id, got) = join.join().unwrap();
            assert_eq!(got, golden_expander(SEED, id, WORDS), "client {id}");
        }
    });
}

#[test]
fn shutdown_under_load_fails_clients_with_pool_shutdown() {
    let pool = Pool::builder(1)
        .shards(2)
        .prefetch_words(32)
        .build()
        .unwrap();
    let words_before_shutdown = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for id in 0..4u64 {
            let client = pool.try_client_with_id(id).unwrap();
            let counter = Arc::clone(&words_before_shutdown);
            joins.push(scope.spawn(move || {
                let mut client = client;
                loop {
                    match client.try_next_u64() {
                        Ok(_) => {
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => return e,
                    }
                }
            }));
        }
        // Let the clients drain a few buffers, then pull the plug.
        std::thread::sleep(Duration::from_millis(20));
        pool.shutdown();
        for join in joins {
            assert_eq!(join.join().unwrap(), HprngError::PoolShutdown);
        }
    });
    assert!(words_before_shutdown.load(Ordering::Relaxed) > 0);
}

/// A session that panics after serving `fuse` batches — the poisoning
/// probe.
fn panicking_kind(fuse: u64, victim: u64) -> SessionKind {
    SessionKind::Custom {
        lanes: 1,
        factory: Arc::new(move |seed| {
            struct Fused {
                inner: ExpanderWalkRng,
                victim: bool,
                remaining: u64,
            }
            impl OnDemandRng for Fused {
                fn label(&self) -> &'static str {
                    "fused"
                }
                fn lanes(&self) -> usize {
                    1
                }
                fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
                    if self.victim {
                        if self.remaining == 0 {
                            panic!("injected session failure");
                        }
                        self.remaining -= 1;
                    }
                    self.inner.try_next_batch_into(out)
                }
                fn words_served(&self) -> u64 {
                    self.inner.words_served()
                }
            }
            // `seed` is the lane seed; recover the victim id by checking
            // against every candidate lane derivation.
            let is_victim = seed == lane_seed(1, victim);
            Box::new(Fused {
                inner: ExpanderWalkRng::from_seed_u64(seed),
                victim: is_victim,
                remaining: fuse,
            })
        }),
    }
}

#[test]
fn poisoned_shard_isolates_failure_to_its_own_clients() {
    // Pool seed 1, two shards: ids 1 and 3 land on shard 1; id 3's
    // session panics on its first refill, killing shard 1's worker.
    let pool = Pool::builder(1)
        .shards(2)
        .prefetch_words(8)
        .session(panicking_kind(0, 3))
        .build()
        .unwrap();
    let mut healthy = pool.try_client_with_id(0).unwrap();
    let mut casualty = pool.try_client_with_id(3).unwrap();
    let mut neighbour = pool.try_client_with_id(1).unwrap();

    let err = loop {
        match casualty.try_next_u64() {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    assert_eq!(err, HprngError::ShardPoisoned { shard: 1 });
    // The neighbour shares the dead shard: it may drain prefetched words
    // but must eventually see the poisoning too.
    let err = loop {
        match neighbour.try_next_u64() {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    assert_eq!(err, HprngError::ShardPoisoned { shard: 1 });
    // Shard 0 is unaffected and still serves golden words.
    let mut got = vec![0u64; 100];
    healthy.fill_words(&mut got).unwrap();
    assert_eq!(got, golden_expander(1, 0, 100));
    // Wait for the worker's poison flag (set on unwind) to be visible.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pool.stats().poisoned_shards.is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pool.stats().poisoned_shards, vec![1]);
}

#[test]
fn poisoned_pool_rejects_new_admissions_to_the_dead_shard() {
    let pool = Pool::builder(1)
        .shards(2)
        .prefetch_words(8)
        .session(panicking_kind(0, 3))
        .build()
        .unwrap();
    let mut casualty = pool.try_client_with_id(3).unwrap();
    while casualty.try_next_u64().is_ok() {}
    // Give the worker thread time to fully unwind and drop its receiver.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match pool.try_client_with_id(5) {
            Err(HprngError::ShardPoisoned { shard: 1 }) => break,
            Err(other) => panic!("unexpected admission error {other:?}"),
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(_) => panic!("dead shard kept admitting clients"),
        }
    }
    // The healthy shard still admits.
    assert!(pool.try_client_with_id(4).is_ok());
}

/// Like [`panicking_kind`], but the fuse burns at most once per pool:
/// the first victim session to reach it panics (killing its shard), and
/// every later session for the same lane — e.g. the one built after a
/// failover reattach — serves normally. `fuse` counts batches served
/// before the panic (a refill of a `block_words`-word block over a
/// single-lane session is `block_words` batches).
fn one_shot_panicking_kind(
    fuse: u64,
    victim: u64,
    armed: Arc<std::sync::atomic::AtomicBool>,
) -> SessionKind {
    SessionKind::Custom {
        lanes: 1,
        factory: Arc::new(move |seed| {
            struct Fused {
                inner: ExpanderWalkRng,
                armed: Option<Arc<std::sync::atomic::AtomicBool>>,
                remaining: u64,
            }
            impl OnDemandRng for Fused {
                fn label(&self) -> &'static str {
                    "fused-once"
                }
                fn lanes(&self) -> usize {
                    1
                }
                fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
                    if let Some(armed) = &self.armed {
                        if self.remaining == 0 && armed.swap(false, Ordering::SeqCst) {
                            panic!("injected session failure");
                        }
                        self.remaining = self.remaining.saturating_sub(1);
                    }
                    self.inner.try_next_batch_into(out)
                }
                fn words_served(&self) -> u64 {
                    self.inner.words_served()
                }
            }
            let is_victim = seed == lane_seed(1, victim);
            Box::new(Fused {
                inner: ExpanderWalkRng::from_seed_u64(seed),
                armed: is_victim.then(|| Arc::clone(&armed)),
                remaining: fuse,
            })
        }),
    }
}

/// Spin until the pool reports exactly `shards` poisoned, or panic after
/// five seconds.
fn wait_for_poison(pool: &Pool, shards: &[usize]) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pool.stats().poisoned_shards != shards {
        assert!(
            std::time::Instant::now() < deadline,
            "poison flag never became visible; stats: {:?}",
            pool.stats()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn lane_creation_routes_around_a_poisoned_home_shard_under_failover() {
    use hprng_core::SplitOnDemand;
    // Pool seed 1, two shards: ids 1 and 3 home on shard 1. Admitting the
    // victim (id 3) kills shard 1's worker on its first refill; the fuse
    // is one-shot, so the shard the victim later fails over to survives.
    let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let pool = Pool::builder(1)
        .shards(2)
        .prefetch_words(8)
        .session(one_shot_panicking_kind(0, 3, armed))
        .failover(true)
        .build()
        .unwrap();
    let _casualty = pool.try_client_with_id(3).unwrap();
    wait_for_poison(&pool, &[1]);
    // The regression: `lane()` trusted admission to be infallible, but
    // id 1's home shard is dead — with failover enabled the split must
    // route to the healthy shard instead of panicking.
    let mut lane = SplitOnDemand::lane(&pool, 1);
    let mut got = vec![0u64; 64];
    lane.fill_words(&mut got).unwrap();
    assert_eq!(
        got,
        golden_expander(1, 1, 64),
        "failed-over lane diverged from its golden"
    );
}

#[test]
fn blocking_clients_fail_over_when_the_shard_dies_with_a_refill_owed() {
    // The victim's shard serves one complete refill (a 4-word block is 4
    // single-lane batches; the fuse allows exactly that many) and dies on
    // the second — both are primed at admission, so by the time the
    // client has drained the buffered block the worker is gone and a
    // replacement refill is owed. The regression: the Block policy's
    // owed-refill send hit the dead ring and permanently failed the
    // client without attempting failover (the receive path, which does
    // fail over, was never reached).
    let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let pool = Pool::builder(1)
        .shards(2)
        .prefetch_words(4)
        .session(one_shot_panicking_kind(4, 3, armed))
        .failover(true)
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(3).unwrap();
    wait_for_poison(&pool, &[1]);
    let mut got = vec![0u64; 400];
    client
        .fill_words(&mut got)
        .expect("failover must rescue a blocking client from a dead shard");
    assert_eq!(
        got,
        golden_expander(1, 3, 400),
        "failed-over stream diverged from its golden"
    );
}

#[test]
fn custom_sessions_with_mismatched_lanes_are_rejected() {
    // The factory advertises 4 lanes but builds single-lane sessions; the
    // shard must reject the attachment instead of desyncing buffer sizing
    // from the advertised PoolClient::lanes().
    let pool = Pool::builder(1)
        .shards(1)
        .session(SessionKind::Custom {
            lanes: 4,
            factory: Arc::new(|seed| Box::new(ExpanderWalkRng::from_seed_u64(seed))),
        })
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(0).unwrap();
    assert!(matches!(
        client.try_next_u64(),
        Err(HprngError::InvalidParam {
            field: "session.lanes",
            ..
        })
    ));
    // The rejection is per-client and recoverable shard-side: an honest
    // factory on the same pool would still attach (the shard lives on).
    assert!(pool.stats().poisoned_shards.is_empty());
}

#[test]
fn auto_assigned_ids_skip_explicitly_claimed_lanes() {
    use hprng_core::SplitOnDemand;
    let pool = Pool::builder(3).shards(2).build().unwrap();
    let one = pool.try_client_with_id(1).unwrap();
    let two = SplitOnDemand::lane(&pool, 2);
    let autos: Vec<u64> = (0..3).map(|_| pool.try_client().unwrap().id()).collect();
    assert_eq!(one.id(), 1);
    assert_eq!(two.id(), 2);
    // The auto counter walks 0, 1, 2, 3, … but 1 and 2 are claimed: the
    // auto clients must land on 0, 3, 4 — no silent lane duplication.
    assert_eq!(autos, vec![0, 3, 4]);
}

#[test]
fn session_errors_kill_the_client_but_not_the_shard() {
    // Lane 0's session fails every refill with a recoverable error (not a
    // panic); the client dies sticky, the shard keeps serving peers.
    const BROKEN: HprngError = HprngError::InvalidParam {
        field: "broken",
        reason: "this session fails every refill",
    };
    let pool = Pool::builder(1)
        .shards(1)
        .session(SessionKind::Custom {
            lanes: 1,
            factory: Arc::new(|seed| {
                struct Broken;
                impl OnDemandRng for Broken {
                    fn label(&self) -> &'static str {
                        "broken"
                    }
                    fn lanes(&self) -> usize {
                        1
                    }
                    fn try_next_batch_into(&mut self, _: &mut [u64]) -> Result<(), HprngError> {
                        Err(BROKEN)
                    }
                    fn words_served(&self) -> u64 {
                        0
                    }
                }
                if seed == lane_seed(1, 0) {
                    Box::new(Broken)
                } else {
                    Box::new(ExpanderWalkRng::from_seed_u64(seed))
                }
            }),
        })
        .build()
        .unwrap();
    let mut client = pool.try_client_with_id(0).unwrap();
    assert_eq!(client.try_next_u64(), Err(BROKEN));
    // The failure is sticky: the client is dead, the shard is not.
    assert_eq!(client.try_next_u64(), Err(BROKEN));
    let mut peer = pool.try_client_with_id(7).unwrap();
    assert_eq!(peer.try_next_u64().unwrap(), golden_expander(1, 7, 1)[0]);
    assert!(pool.stats().errors >= 1);
}

#[test]
fn empty_requests_are_rejected_and_oversized_ones_are_not() {
    let pool = Pool::builder(2).shards(1).build().unwrap();
    let mut client = pool.try_client().unwrap();
    assert_eq!(
        client.try_next_batch_into(&mut []),
        Err(HprngError::EmptyRequest)
    );
    // lanes() == 1, yet a 300-word request re-chunks fine: the pool's
    // documented deviation from raw sessions.
    assert_eq!(client.lanes(), 1);
    let batch = client.try_next_batch(300).unwrap();
    assert_eq!(batch, golden_expander(2, 0, 300));
}

#[test]
fn taps_observe_every_served_word() {
    struct Collect(Arc<AtomicU64>);
    impl hprng_telemetry::WordTap for Collect {
        fn observe(&mut self, words: &[u64]) {
            self.0.fetch_add(words.len() as u64, Ordering::Relaxed);
        }
    }
    let seen = Arc::new(AtomicU64::new(0));
    let pool = Pool::builder(4).shards(1).build().unwrap();
    let mut client = pool.try_client().unwrap();
    assert!(client.set_tap(Box::new(Collect(Arc::clone(&seen)))).is_ok());
    client.try_next_batch(37).unwrap();
    let _ = client.try_next_u64().unwrap();
    assert_eq!(seen.load(Ordering::Relaxed), 38);
    assert_eq!(client.words_served(), 38);
    assert!(client.take_tap().is_some());
    let _ = client.try_next_u64().unwrap();
    assert_eq!(seen.load(Ordering::Relaxed), 38, "tap detached");
}

#[test]
fn monitor_tap_rides_a_pool_client() {
    use hprng_monitor::{MonitorConfig, MonitorHandle};
    let monitor = MonitorHandle::new(MonitorConfig::default());
    let pool = Pool::builder(6).shards(1).build().unwrap();
    let mut client = pool.try_client().unwrap();
    assert!(client.set_tap(monitor.tap()).is_ok());
    client.try_next_batch(4096).unwrap();
    assert_eq!(monitor.status().words_seen, 4096);
}

#[test]
fn stats_track_clients_refills_and_words() {
    let pool = Pool::builder(9)
        .shards(2)
        .prefetch_words(16)
        .build()
        .unwrap();
    let mut a = pool.try_client().unwrap();
    let _b = pool.try_client().unwrap();
    a.try_next_batch(100).unwrap();
    // Admission is asynchronous; wait for the workers to process it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pool.stats().clients < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = pool.stats();
    assert_eq!(stats.shards, 2);
    assert_eq!(stats.clients, 2);
    assert!(stats.refills >= 2, "both initial buffers were filled");
    assert!(stats.words >= 100);
    assert!(stats.poisoned_shards.is_empty());
    let mut recorder = hprng_telemetry::Recorder::new();
    stats.export_into(&mut recorder);
    assert_eq!(recorder.gauge(hprng_pool::names::POOL_SHARDS), Some(2.0));
    assert_eq!(
        recorder.counter(hprng_pool::names::POOL_WORDS),
        stats.words as f64
    );
}

#[test]
fn dropped_clients_detach_their_sessions() {
    let pool = Pool::builder(9).shards(1).build().unwrap();
    let client = pool.try_client().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pool.stats().clients < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(client);
    while pool.stats().clients > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pool.stats().clients, 0);
}
