//! The chaos harness's own suite: the panic-during-claim regression the
//! harness surfaced, a worker killed inside an admission's priming fill,
//! determinism of schedule replay, and a fixed-seed soak smoke run.
//!
//! The fault hook is process-global, so every test here serializes on
//! one mutex (CI additionally runs the suite with `RUST_TEST_THREADS=1`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use hprng_chaos::{
    install, run_schedule, run_soak, FaultAction, FaultHook, FaultPlan, FaultPoint, PlanHook,
    WorkerPanic,
};
use hprng_core::{ExpanderLanes, OnDemandRng, SplitOnDemand};
use hprng_pool::Pool;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Panics at the first [`FaultPoint::ClaimLock`] firing, then proceeds.
struct PanicOnFirstClaim(AtomicBool);

impl FaultHook for PanicOnFirstClaim {
    fn decide(&self, point: FaultPoint) -> FaultAction {
        if matches!(point, FaultPoint::ClaimLock) && self.0.swap(false, Ordering::SeqCst) {
            FaultAction::Panic
        } else {
            FaultAction::Proceed
        }
    }
}

/// Satellite regression: a panic while holding the claimed-id lock used
/// to poison it permanently — every later admission then panicked in
/// `PoolShared::claim`'s `.expect()`. The fixed pool recovers the map
/// (its state is a plain refcount set, structurally valid after any
/// panic) and keeps admitting.
#[test]
fn claimed_id_map_survives_a_panic_during_claim() {
    let _serial = serial();
    let pool = Pool::builder(7).shards(1).build().expect("pool builds");
    let guard = install(Arc::new(PanicOnFirstClaim(AtomicBool::new(true))));
    let unwound = catch_unwind(AssertUnwindSafe(|| pool.try_client_with_id(3))).is_err();
    assert!(unwound, "injected claim panic did not fire");
    drop(guard);

    let mut auto = pool
        .try_client()
        .expect("admission works after a poisoned claim lock");
    let mut explicit = pool
        .try_client_with_id(3)
        .expect("the id whose claim panicked is not stuck either");
    assert!(auto.try_next_u64().is_ok());
    assert!(explicit.try_next_u64().is_ok());
    drop(auto);
    drop(explicit);
    assert_eq!(pool.live_claims(), 0, "panicked claim leaked a refcount");
    pool.shutdown();
}

/// An admission's priming fills are served like refills: the first
/// `ShardRefill` a shard fires is the first fill of the first `Attach`
/// it takes. Killing the worker there leaves the client attached to a
/// dead shard before it has drawn a word; on a failover pool it
/// reattaches to the other shard and serves its whole stream.
#[test]
fn a_worker_killed_inside_an_attachs_priming_fill_fails_over() {
    let _serial = serial();
    const SEED: u64 = 42;
    const ID: u64 = 1; // home shard 1 of 2
    let mut plan = FaultPlan::from_seed(1);
    plan.shards = 2;
    plan.worker_panic = Some(WorkerPanic {
        shard: 1,
        at_refill: 1,
    });
    plan.refill_stall = None;
    plan.ring_send_stall = None;
    plan.ring_recv_stall = None;
    let pool = Pool::builder(SEED)
        .shards(2)
        .prefetch_words(32)
        .failover(true)
        .build()
        .expect("pool builds");
    let guard = install(Arc::new(PlanHook::new(plan)));
    let mut client = pool
        .try_client_with_id(ID)
        .expect("shard 1 takes the attach");
    assert_eq!(client.shard(), 1);
    let words = client
        .try_next_batch(300)
        .expect("failover rescues the client");
    drop(guard);

    let mut lane = ExpanderLanes::new(SEED).lane(ID);
    let golden: Vec<u64> = (0..300).map(|_| lane.get_next_rand()).collect();
    assert_eq!(words, golden);
    assert_eq!(client.shard(), 0);
    let stats = pool.stats();
    assert_eq!(stats.failovers, 1);
    assert_eq!(stats.poisoned_shards, vec![1]);
    drop(client);
    assert_eq!(pool.live_claims(), 0);
    pool.shutdown();
}

/// The replay contract: one seed, one schedule — identical plan, and a
/// schedule that passes keeps passing when replayed by seed.
#[test]
fn schedules_replay_deterministically_by_seed() {
    let _serial = serial();
    for seed in [3u64, 0x5EED, u64::MAX / 7] {
        assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
    }
    let seed = 0x0DD5_EED5u64;
    let first = run_schedule(seed);
    let second = run_schedule(seed);
    assert_eq!(first.is_ok(), second.is_ok(), "{first:?} vs {second:?}");
}

/// The fixed-seed smoke batch the CI job also runs: every schedule must
/// hold every invariant.
#[test]
fn fixed_seed_soak_is_green() {
    let _serial = serial();
    let report = run_soak(42, 8, |_| {});
    assert_eq!(report.schedules, 8);
    assert!(
        report.is_green(),
        "failing schedules (replay by seed): {:#?}",
        report.failures
    );
}
