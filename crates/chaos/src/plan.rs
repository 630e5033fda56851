//! [`FaultPlan`]: a seeded, fully replayable fault schedule, and
//! [`PlanHook`], the [`FaultHook`] that fires it.
//!
//! A plan is a pure function of one u64 seed: the pool shape it runs
//! against (shards, clients, prefetch, queue depth, failover)
//! *and* the faults it injects are all derived from a single
//! `SplitMix64` walk over the seed. Reporting a failing schedule
//! therefore only takes printing its seed — `FaultPlan::from_seed`
//! rebuilds the identical scenario anywhere.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use hprng_baselines::SplitMix64;
use hprng_transport::chaos::{FaultAction, FaultHook, FaultPoint};

/// Kill one shard worker mid-refill: the `at_refill`-th
/// [`FaultPoint::ShardRefill`] fired on `shard` panics (once).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The victim shard.
    pub shard: usize,
    /// Which of its refills dies (1-based; admission prefetches count).
    pub at_refill: u64,
}

/// A periodic stall: every `every`-th firing of a point sleeps `stall`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Periodic {
    /// Fire period (the 1-based occurrence count modulo this is zero).
    pub every: u64,
    /// How long the stalled call sleeps.
    pub stall: Duration,
}

/// One deterministic fault schedule: the pool it runs against and the
/// faults injected into it, all derived from [`FaultPlan::from_seed`].
///
/// The grammar of its `Display` form (documented in DESIGN.md §3.8.3):
///
/// ```text
/// plan{seed=0x2a shards=2 clients=3 prefetch=8 depth=2
///      failover=on words=256
///      faults=[panic(shard1@r4) stall(refill%5=1ms) stall(send%7=1ms)
///              slow-consumer corrupt claim-panic]}
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed everything below derives from.
    pub seed: u64,
    /// Seed of the pool under test (derived, distinct from `seed`).
    pub pool_seed: u64,
    /// Shard workers of the pool under test.
    pub shards: usize,
    /// Concurrent clients the schedule drains.
    pub clients: usize,
    /// Pool prefetch words per block.
    pub prefetch_words: usize,
    /// Pool request-queue depth.
    pub queue_depth: usize,
    /// Whether the pool routes around poisoned shards.
    pub failover: bool,
    /// Words each client drains.
    pub words_per_client: usize,
    /// Kill a shard worker at a specific refill.
    pub worker_panic: Option<WorkerPanic>,
    /// Stall every N-th refill (any shard).
    pub refill_stall: Option<Periodic>,
    /// Stall every N-th ring send.
    pub ring_send_stall: Option<Periodic>,
    /// Stall every N-th ring receive.
    pub ring_recv_stall: Option<Periodic>,
    /// Consumer-side sleep between drain chunks (a slow consumer is a
    /// schedule behaviour, not a hook — the harness sleeps).
    pub slow_consumer: Option<Duration>,
    /// Probe checkpoint-JSON corruption: flip one byte of a serialized
    /// [`hprng_core::StreamState`] and push it back through restore.
    pub corrupt_checkpoint: bool,
    /// Probe a panic inside the claimed-id critical section.
    pub claim_panic: bool,
}

impl FaultPlan {
    /// Derives the complete schedule from `seed`. Pure and total: the
    /// same seed always yields the same plan, and every u64 yields some
    /// valid plan.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut pick = move |n: u64| rng.next() % n;
        let shards = 1 + pick(3) as usize;
        let clients = 1 + pick(4) as usize;
        let prefetch_words = [4usize, 8, 32][pick(3) as usize];
        let queue_depth = [1usize, 2, 8][pick(3) as usize];
        // Retired picks: a three-way backpressure-policy choice, plus a
        // patience when it drew 1. Every pool now blocks, but the picks
        // are still drawn so every older seed derives its other faults
        // unchanged.
        if pick(3) == 1 {
            pick(3);
        }
        let failover = pick(2) == 1;
        let words_per_client = 96 + pick(289) as usize; // 96..=384
        let worker_panic = (pick(2) == 1).then(|| WorkerPanic {
            shard: pick(shards as u64) as usize,
            at_refill: 1 + pick(8),
        });
        let mut periodic = |chance_in_4: u64, min_every: u64, max_ms: u64| {
            (pick(4) < chance_in_4).then(|| Periodic {
                every: min_every + pick(5),
                stall: Duration::from_millis(1 + pick(max_ms)),
            })
        };
        let refill_stall = periodic(1, 3, 2);
        let ring_send_stall = periodic(1, 5, 1);
        let ring_recv_stall = periodic(1, 5, 1);
        // Retired picks: two one-in-four block-arena faults. The pool
        // keeps no arena, but the picks are still drawn so every older
        // seed derives its other faults unchanged.
        pick(4);
        pick(4);
        let slow_consumer = (pick(4) == 0).then(|| Duration::from_millis(1));
        let corrupt_checkpoint = pick(2) == 1;
        let claim_panic = pick(2) == 1;
        Self {
            seed,
            pool_seed: SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15).next(),
            shards,
            clients,
            prefetch_words,
            queue_depth,
            failover,
            words_per_client,
            worker_panic,
            refill_stall,
            ring_send_stall,
            ring_recv_stall,
            slow_consumer,
            corrupt_checkpoint,
            claim_panic,
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan{{seed={:#x} shards={} clients={} prefetch={} depth={} failover={} words={} \
             faults=[",
            self.seed,
            self.shards,
            self.clients,
            self.prefetch_words,
            self.queue_depth,
            if self.failover { "on" } else { "off" },
            self.words_per_client
        )?;
        let mut sep = "";
        let mut item = |f: &mut fmt::Formatter<'_>, text: String| {
            let r = write!(f, "{sep}{text}");
            sep = " ";
            r
        };
        if let Some(p) = self.worker_panic {
            item(f, format!("panic(shard{}@r{})", p.shard, p.at_refill))?;
        }
        for (name, stall) in [
            ("refill", self.refill_stall),
            ("send", self.ring_send_stall),
            ("recv", self.ring_recv_stall),
        ] {
            if let Some(p) = stall {
                item(
                    f,
                    format!("stall({name}%{}={}ms)", p.every, p.stall.as_millis()),
                )?;
            }
        }
        if self.slow_consumer.is_some() {
            item(f, "slow-consumer".into())?;
        }
        if self.corrupt_checkpoint {
            item(f, "corrupt".into())?;
        }
        if self.claim_panic {
            item(f, "claim-panic".into())?;
        }
        write!(f, "]}}")
    }
}

/// The [`FaultHook`] that executes a [`FaultPlan`]: per-point occurrence
/// counters decide which firing stalls or panics, so the schedule is a
/// function of the plan and the pool's request history, never of wall
/// clock.
#[derive(Debug)]
pub struct PlanHook {
    plan: FaultPlan,
    /// Refills served per shard (the worker-panic and refill-stall
    /// triggers count these).
    refills: Vec<AtomicU64>,
    ring_sends: AtomicU64,
    ring_recvs: AtomicU64,
    /// The worker panic fires exactly once even if the count is re-hit
    /// (a replayed refill after failover lands on a fresh counter path).
    panic_pending: AtomicBool,
    /// The claim-panic probe is explicitly armed by the harness around a
    /// `catch_unwind` — firing it during an ordinary admission would
    /// panic the harness thread itself. One firing per arming.
    claim_armed: AtomicBool,
}

impl PlanHook {
    /// A hook executing `plan` from zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            refills: (0..plan.shards).map(|_| AtomicU64::new(0)).collect(),
            ring_sends: AtomicU64::new(0),
            ring_recvs: AtomicU64::new(0),
            panic_pending: AtomicBool::new(plan.worker_panic.is_some()),
            claim_armed: AtomicBool::new(false),
            plan,
        }
    }

    /// The plan this hook executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Arms the one-shot [`FaultPoint::ClaimLock`] panic; the next claim
    /// fired on any thread panics inside the critical section.
    pub fn arm_claim_panic(&self) {
        self.claim_armed.store(true, Ordering::SeqCst);
    }

    /// Whether the armed claim panic has not fired yet.
    pub fn claim_panic_armed(&self) -> bool {
        self.claim_armed.load(Ordering::SeqCst)
    }

    /// Disarms a still-pending claim panic — for when the probe armed
    /// it but admission never reached the claimed-id lock.
    pub fn disarm_claim_panic(&self) {
        self.claim_armed.store(false, Ordering::SeqCst);
    }

    fn periodic(spec: Option<Periodic>, count: u64) -> FaultAction {
        match spec {
            Some(p) if count.is_multiple_of(p.every) => FaultAction::Stall(p.stall),
            _ => FaultAction::Proceed,
        }
    }
}

impl FaultHook for PlanHook {
    fn decide(&self, point: FaultPoint) -> FaultAction {
        match point {
            FaultPoint::ShardRefill { shard } => {
                let count = match self.refills.get(shard) {
                    Some(counter) => counter.fetch_add(1, Ordering::Relaxed) + 1,
                    None => return FaultAction::Proceed,
                };
                if let Some(p) = self.plan.worker_panic {
                    if p.shard == shard
                        && count == p.at_refill
                        && self.panic_pending.swap(false, Ordering::SeqCst)
                    {
                        return FaultAction::Panic;
                    }
                }
                Self::periodic(self.plan.refill_stall, count)
            }
            FaultPoint::RingSend => Self::periodic(
                self.plan.ring_send_stall,
                self.ring_sends.fetch_add(1, Ordering::Relaxed) + 1,
            ),
            FaultPoint::RingRecv => Self::periodic(
                self.plan.ring_recv_stall,
                self.ring_recvs.fetch_add(1, Ordering::Relaxed) + 1,
            ),
            FaultPoint::ClaimLock if self.claim_armed.swap(false, Ordering::SeqCst) => {
                FaultAction::Panic
            }
            _ => FaultAction::Proceed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_their_seed() {
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a, b);
            assert_eq!(a.to_string(), b.to_string());
        }
        assert_ne!(FaultPlan::from_seed(1), FaultPlan::from_seed(2));
    }

    #[test]
    fn older_seeds_derive_their_original_plans() {
        // The soak seed that found the dead-shard refill bug; its plan
        // must replay unchanged.
        assert_eq!(
            FaultPlan::from_seed(6349198060258255764).to_string(),
            "plan{seed=0x581ce1ff0e4ae394 shards=2 clients=1 prefetch=32 depth=8 \
             failover=on words=355 \
             faults=[panic(shard0@r5) stall(recv%9=1ms) corrupt claim-panic]}"
        );
    }

    #[test]
    fn seeds_0_to_512_derive_their_pinned_plans() {
        // FNV-1a over every rendered plan, newline-terminated. Pinned from
        // the plans as they rendered while the retired picks still chose a
        // backpressure policy and two block-arena faults, with their
        // ` policy=…`, ` exhaust` and ` no-retain` tokens stripped:
        // retiring them moved no other fault of any seed.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..512u64 {
            let plan = FaultPlan::from_seed(seed).to_string();
            for byte in plan.bytes().chain(std::iter::once(b'\n')) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0xf303_fbf3_1f84_620d);
    }

    #[test]
    fn every_seed_yields_a_buildable_shape() {
        for seed in 0..512u64 {
            let plan = FaultPlan::from_seed(seed);
            assert!((1..=3).contains(&plan.shards), "{plan}");
            assert!((1..=4).contains(&plan.clients), "{plan}");
            assert!(plan.prefetch_words > 0 && plan.queue_depth > 0, "{plan}");
            assert!((96..=384).contains(&plan.words_per_client), "{plan}");
            if let Some(p) = plan.worker_panic {
                assert!(p.shard < plan.shards, "{plan}");
                assert!(p.at_refill >= 1, "{plan}");
            }
        }
    }

    #[test]
    fn worker_panic_fires_exactly_once_at_its_refill() {
        let mut plan = FaultPlan::from_seed(7);
        plan.worker_panic = Some(WorkerPanic {
            shard: 0,
            at_refill: 3,
        });
        plan.refill_stall = None;
        let hook = PlanHook::new(plan);
        let fire = |hook: &PlanHook| hook.decide(FaultPoint::ShardRefill { shard: 0 });
        assert_eq!(fire(&hook), FaultAction::Proceed);
        assert_eq!(fire(&hook), FaultAction::Proceed);
        assert_eq!(fire(&hook), FaultAction::Panic);
        assert_eq!(fire(&hook), FaultAction::Proceed); // one-shot
    }

    #[test]
    fn claim_panic_fires_only_while_armed() {
        let mut plan = FaultPlan::from_seed(9);
        plan.claim_panic = true;
        let hook = PlanHook::new(plan);
        assert_eq!(hook.decide(FaultPoint::ClaimLock), FaultAction::Proceed);
        hook.arm_claim_panic();
        assert_eq!(hook.decide(FaultPoint::ClaimLock), FaultAction::Panic);
        assert!(!hook.claim_panic_armed());
        assert_eq!(hook.decide(FaultPoint::ClaimLock), FaultAction::Proceed);
    }
}
