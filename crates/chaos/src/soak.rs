//! The soak runner: executes [`FaultPlan`] schedules against a live
//! pool and asserts the serving stack's core invariants after each one.
//!
//! Invariants checked per schedule (conditioned on what the plan could
//! legitimately cause):
//!
//! 1. **Bit-identity** — every client's served words are an exact
//!    prefix of the unfaulted golden stream of its lane seed, and a
//!    client on a failover-enabled multi-shard pool must have produced
//!    the *complete* golden stream despite any injected worker panic.
//! 2. **Accounting** — every client's `words_served()` equals the words
//!    it actually delivered: failed requests count nothing.
//! 3. **No id leaks** — once every client handle is dropped,
//!    [`Pool::live_claims`] is zero.
//! 4. **No stranded peers** — `Pool::shutdown` completes within a
//!    watchdog deadline; a ring peer left blocked forever fails the
//!    schedule instead of hanging the harness.
//! 5. **Errors are honest** — the only errors a schedule may surface
//!    are the ones its plan can cause (`ShardPoisoned` when a worker
//!    panic was scheduled and failover could not absorb it).
//!
//! Every failure is reported with the schedule's seed;
//! [`run_schedule`] with that seed replays the identical scenario.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Once};
use std::time::Duration;

use hprng_baselines::SplitMix64;
use hprng_core::{seeding, ExpanderWalkRng, HprngError, OnDemandRng, StreamState};
use hprng_pool::{Pool, PoolClient};
use hprng_transport::chaos;

use crate::plan::{FaultPlan, PlanHook};

/// How long [`run_schedule`] waits for `Pool::shutdown` before declaring
/// ring peers stranded.
const SHUTDOWN_PATIENCE: Duration = Duration::from_secs(10);

/// The ragged chunk cycle all drains use (mirrors the failover suite's
/// `drain_ragged`), so requests cross block boundaries in varied ways.
const CHUNKS: [usize; 6] = [1, 7, 13, 64, 3, 29];

/// One schedule that did not hold the invariants.
#[derive(Clone, Debug)]
pub struct ScheduleFailure {
    /// Replay seed: `run_schedule(seed)` reproduces the scenario.
    pub seed: u64,
    /// The rendered [`FaultPlan`] grammar for the report.
    pub plan: String,
    /// Which invariant broke, and how.
    pub reason: String,
}

/// The outcome of a [`run_soak`] batch.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    /// Schedules executed.
    pub schedules: usize,
    /// Schedules that broke an invariant (empty means green).
    pub failures: Vec<ScheduleFailure>,
}

impl SoakReport {
    /// Whether every schedule held every invariant.
    pub fn is_green(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The unfaulted stream of lane `id` under `pool_seed` — what the
/// default pool session serves, computed without any pool.
fn golden_stream(pool_seed: u64, id: u64, words: usize) -> Vec<u64> {
    let mut rng = ExpanderWalkRng::from_seed_u64(seeding::lane_seed(pool_seed, id));
    (0..words).map(|_| rng.get_next_rand()).collect()
}

/// Silences the default printed backtrace for *injected* panics (their
/// payload starts with `chaos:`) so a green soak does not spray worker
/// panics over the report; every other panic still reaches the previous
/// hook. Installed once per process, delegating wrapper left in place.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|message| message.starts_with("chaos:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Whether `error` is one the plan could legitimately cause.
fn error_is_scheduled(plan: &FaultPlan, error: &HprngError) -> bool {
    matches!(error, HprngError::ShardPoisoned { .. }) && plan.worker_panic.is_some()
}

struct Lane {
    id: u64,
    client: Option<PoolClient>,
    collected: Vec<u64>,
    error: Option<HprngError>,
}

/// Runs the complete schedule derived from `seed` and checks every
/// invariant, reporting the first violation as `Err`. Deterministic in
/// everything except timing-dependent *which-path* choices (where a
/// stall lands) — the invariants hold on every path, which is the
/// point.
pub fn run_schedule(seed: u64) -> Result<(), String> {
    let plan = FaultPlan::from_seed(seed);
    quiet_injected_panics();
    let fail = |reason: String| -> Result<(), String> { Err(format!("{plan}: {reason}")) };

    // Golden streams carry slack past the drain target so the
    // checkpoint-continuation probe can compare beyond it.
    let golden: Vec<Vec<u64>> = (0..plan.clients as u64)
        .map(|id| golden_stream(plan.pool_seed, id, plan.words_per_client + 160))
        .collect();

    let pool = match Pool::builder(plan.pool_seed)
        .shards(plan.shards)
        .prefetch_words(plan.prefetch_words)
        .queue_depth(plan.queue_depth)
        .failover(plan.failover)
        .build()
    {
        Ok(pool) => pool,
        Err(e) => return fail(format!("pool build failed: {e}")),
    };
    let hook = Arc::new(PlanHook::new(plan));
    let guard = chaos::install(Arc::clone(&hook) as Arc<dyn chaos::FaultHook>);

    // Whether `e` is a fault the plan scheduled that may end a client: a
    // scheduled worker panic may already have landed, in which case a
    // poisoned-shard error is legitimate — but only when failover had
    // nowhere left to route (a multi-shard failover pool must always
    // find a healthy shard).
    let plan_may_end =
        |e: &HprngError| error_is_scheduled(&plan, e) && !(plan.failover && plan.shards >= 2);
    let mut lanes: Vec<Lane> = Vec::with_capacity(plan.clients);
    for id in 0..plan.clients as u64 {
        let (client, error) = match pool.try_client_with_id(id) {
            Ok(client) => (Some(client), None),
            Err(e) if plan_may_end(&e) => (None, Some(e)),
            Err(e) => return fail(format!("admission of client {id} failed: {e}")),
        };
        lanes.push(Lane {
            id,
            client,
            collected: Vec::new(),
            error,
        });
    }

    // Interleaved ragged drains: round-robin over the clients, cycling
    // chunk sizes, so shard queues see genuinely mixed request streams.
    let mut chunk_cursor = 0usize;
    loop {
        let mut progressed = false;
        for lane in &mut lanes {
            let Some(client) = lane.client.as_mut() else {
                continue;
            };
            if lane.error.is_some() || lane.collected.len() >= plan.words_per_client {
                continue;
            }
            let want = CHUNKS[chunk_cursor % CHUNKS.len()]
                .min(plan.words_per_client - lane.collected.len());
            chunk_cursor += 1;
            match client.try_next_batch(want) {
                Ok(words) => lane.collected.extend_from_slice(&words),
                Err(e) => lane.error = Some(e),
            }
            progressed = true;
            if let Some(pause) = plan.slow_consumer {
                // A slow consumer only needs to exist, not persist: a
                // few paced chunks exercise the worker running ahead.
                if chunk_cursor <= 8 {
                    std::thread::sleep(pause);
                }
            }
        }
        if !progressed {
            break;
        }
    }

    // Per-client invariants.
    for lane in &lanes {
        let Some(client) = lane.client.as_ref() else {
            continue;
        };
        let golden = &golden[lane.id as usize];
        if client.words_served() != lane.collected.len() as u64 {
            return fail(format!(
                "client {}: accounting broke: {} served but {} delivered",
                lane.id,
                client.words_served(),
                lane.collected.len()
            ));
        }
        if let Some(error) = &lane.error {
            if !error_is_scheduled(&plan, error) {
                return fail(format!("client {}: unscheduled error: {error}", lane.id));
            }
            if plan.failover && plan.shards >= 2 {
                return fail(format!(
                    "client {}: failed with {error} although failover had {} shards to route to",
                    lane.id, plan.shards
                ));
            }
        } else if lane.collected.len() != plan.words_per_client {
            return fail(format!(
                "client {}: drained {} of {} words without an error",
                lane.id,
                lane.collected.len(),
                plan.words_per_client
            ));
        }
        if lane.collected != golden[..lane.collected.len()] {
            let at = lane
                .collected
                .iter()
                .zip(golden)
                .position(|(a, b)| a != b)
                .unwrap_or(lane.collected.len());
            return fail(format!(
                "client {}: stream diverged from golden at word {at}",
                lane.id
            ));
        }
    }

    // Checkpoint corruption probe: flip one byte of a serialized
    // checkpoint and push it back through parse + resume. Every stage
    // may refuse; none may panic; and if the state survives intact, the
    // resumed stream must continue on golden. The probe's client shares
    // the lane of a client that is still alive, which must then go on
    // serving its own stream.
    if plan.corrupt_checkpoint {
        if let Some(lane) = lanes
            .iter_mut()
            .find(|l| l.client.is_some() && l.error.is_none())
        {
            let client = lane.client.as_mut().expect("lane has a client");
            let state = client.checkpoint();
            let mut bytes = state.to_json().into_bytes();
            let at = (SplitMix64::new(seed ^ 0xC0_44_0F_7E_D0_57_A7_E5).next() % bytes.len() as u64)
                as usize;
            bytes[at] ^= 0x01; // ASCII-safe: JSON stays valid UTF-8
            let corrupted = String::from_utf8(bytes).expect("ASCII xor 0x01 stays UTF-8");
            if let Err(reason) =
                corruption_probe(&plan, &pool, &state, &corrupted, &golden, lane.id)
            {
                return fail(reason);
            }
            let start = lane.collected.len();
            match client.try_next_batch(32) {
                Ok(words) if words == golden[lane.id as usize][start..start + 32] => {}
                Ok(_) => {
                    return fail(format!(
                        "client {}: diverged from golden after the corruption probe",
                        lane.id
                    ))
                }
                Err(e) if plan_may_end(&e) => {}
                Err(e) => {
                    return fail(format!(
                        "client {}: failed after the corruption probe: {e}",
                        lane.id
                    ))
                }
            }
        }
    }

    // Claim-panic probe: a panic inside the claimed-id critical section
    // must poison only that one admission, never the map.
    if plan.claim_panic {
        let probe_id = plan.clients as u64 + 7;
        hook.arm_claim_panic();
        // Admission claims the id before it routes, so the armed panic
        // fires even when every shard is dead.
        match catch_unwind(AssertUnwindSafe(|| pool.try_client_with_id(probe_id))) {
            Err(_) => {}
            Ok(Ok(_)) => {
                hook.disarm_claim_panic();
                return fail("armed claim panic did not fire during admission".to_string());
            }
            Ok(Err(e)) => {
                hook.disarm_claim_panic();
                return fail(format!(
                    "armed claim panic did not fire; admission refused with: {e}"
                ));
            }
        }
        match catch_unwind(AssertUnwindSafe(|| pool.try_client_with_id(probe_id))) {
            Err(payload) => {
                return fail(format!(
                    "admission panicked after claimed-id lock poison: {}",
                    panic_message(payload)
                ));
            }
            Ok(Ok(client)) => drop(client),
            // A refusal (the probe lane's shard may genuinely be
            // dead) is fine — the lock recovered, which is what the
            // probe tests.
            Ok(Err(e)) if error_is_scheduled(&plan, &e) => {}
            Ok(Err(e)) => {
                return fail(format!("post-poison admission refused unexpectedly: {e}"));
            }
        }
    }

    // Id-leak invariant: dropping every handle releases every claim.
    drop(lanes);
    let live = pool.live_claims();
    if live != 0 {
        return fail(format!(
            "{live} client ids leaked after every handle dropped"
        ));
    }

    // Stranded-peer invariant: shutdown must complete. The hook is
    // uninstalled first so injected stalls cannot slow the teardown the
    // watchdog times.
    drop(guard);
    let (done_tx, done_rx) = mpsc::channel();
    let teardown = std::thread::spawn(move || {
        pool.shutdown();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(SHUTDOWN_PATIENCE) {
        Ok(()) => {
            let _ = teardown.join();
            Ok(())
        }
        // The teardown thread is deliberately leaked: it is blocked on
        // the stranded peer this failure reports.
        Err(_) => fail("stranded ring peers: pool shutdown did not complete".to_string()),
    }
}

/// The corruption probe's accept/refuse/continue logic, factored out so
/// `run_schedule` stays readable. `Err` carries the invariant breach.
fn corruption_probe(
    plan: &FaultPlan,
    pool: &Pool,
    original: &StreamState,
    corrupted: &str,
    golden: &[Vec<u64>],
    lane_id: u64,
) -> Result<(), String> {
    let parsed = match StreamState::from_json(corrupted) {
        // A detected corruption is the good outcome.
        Err(_) => return Ok(()),
        Ok(parsed) => parsed,
    };
    let mut resumed = match pool.try_client_resumed(&parsed) {
        // Rejected by the pool's validation — also a good outcome.
        Err(_) => return Ok(()),
        Ok(client) => client,
    };
    // Accepted. The pool validated seed and lanes, so a flip it let
    // through either hit the resume point or a field that does not steer
    // the stream (e.g. the label). If the counters really are intact,
    // the continuation must be bit-golden.
    let counters_intact = parsed.session_words == original.session_words
        && parsed.seed == original.seed
        && parsed.id == original.id
        && parsed.lanes == original.lanes;
    let continuation = match resumed.try_next_batch(32) {
        Ok(words) => words,
        Err(e) if error_is_scheduled(plan, &e) => return Ok(()),
        Err(e) => return Err(format!("resumed-from-corruption client failed: {e}")),
    };
    if counters_intact {
        let start = original.session_words as usize;
        let expected = &golden[lane_id as usize][start..start + 32];
        if continuation != expected {
            return Err(format!(
                "accepted corrupted checkpoint diverged from golden at resume offset {start}"
            ));
        }
    }
    Ok(())
}

/// Runs `schedules` schedules with seeds derived from `master_seed`
/// (one `SplitMix64` draw each), reporting every failing schedule by
/// its replayable seed. `progress` receives one line per schedule.
///
/// Schedules run strictly serially — the fault hook is process-global.
pub fn run_soak(master_seed: u64, schedules: usize, mut progress: impl FnMut(&str)) -> SoakReport {
    let mut rng = SplitMix64::new(master_seed);
    let mut report = SoakReport {
        schedules,
        ..SoakReport::default()
    };
    for index in 0..schedules {
        let seed = rng.next();
        let plan = FaultPlan::from_seed(seed);
        progress(&format!("[{:>3}/{schedules}] {plan}", index + 1));
        let outcome = catch_unwind(AssertUnwindSafe(|| run_schedule(seed)));
        let failure = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(reason)) => Some(reason),
            Err(payload) => Some(format!("harness panicked: {}", panic_message(payload))),
        };
        if let Some(reason) = failure {
            progress(&format!("    FAILED (replay with seed {seed}): {reason}"));
            report.failures.push(ScheduleFailure {
                seed,
                plan: plan.to_string(),
                reason,
            });
        }
    }
    report
}
