//! Deterministic fault-injection hooks (the `chaos` feature).
//!
//! The transport layer is where every serving-path failure ultimately
//! manifests — a ring that stalls, a worker that dies mid-refill. This
//! module is the registry those injection sites consult: a single
//! process-wide [`FaultHook`] decides, per [`FaultPoint`], whether the
//! site proceeds normally, stalls, or panics. The `hprng-chaos` crate
//! installs hooks driven by a seeded, replayable `FaultPlan`; production
//! builds compile the whole module (and every call site) out — the
//! feature is off by default, and CI builds the workspace without it to
//! prove the hooks vanish.
//!
//! Layering note: the pool-level points ([`FaultPoint::ShardRefill`],
//! [`FaultPoint::ClaimLock`]) live in this enum too, because the
//! registry must sit *below* every crate that fires faults —
//! `hprng-pool` depends on `hprng-transport`, never the other way
//! around. The enum is `#[non_exhaustive]`: new injection sites are a
//! compatible addition.
//!
//! Cost discipline: with the feature compiled in but no hook installed,
//! every site pays one relaxed atomic load — and every site is on a
//! per-block (thousands of words) path, never a per-word one. With the
//! feature off there is no cost at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// An injection site on the serving path. The full hook inventory; see
/// DESIGN.md §3.8.3 for where each one sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultPoint {
    /// Entry of [`crate::RingSender::send`], before the ring lock is
    /// taken. Stalling here models a slow producer-side hand-off.
    RingSend,
    /// Entry of [`crate::RingReceiver::recv`], before the ring lock is
    /// taken, and [`crate::RingReceiver::try_recv`] once it has dequeued
    /// a block (never on an empty poll). Stalling here models a slow
    /// consumer.
    RingRecv,
    /// A pool shard worker about to serve one `Refill` request.
    /// [`FaultAction::Panic`] kills the worker mid-serve (the poisoning
    /// path); [`FaultAction::Stall`] models a slow session.
    ShardRefill {
        /// Which shard's worker is serving.
        shard: usize,
    },
    /// Inside the pool's claimed-id critical section, with the lock
    /// held. [`FaultAction::Panic`] poisons the `std` mutex — the
    /// scenario the admission path must recover from.
    ClaimLock,
}

/// What an injection site should do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// No fault: behave exactly as without the hook.
    #[default]
    Proceed,
    /// Sleep for the duration, then proceed. Models stalls and slow
    /// peers; never changes any stream, only its timing.
    Stall(Duration),
    /// Panic at the site (`panic!`), unwinding whatever thread fired the
    /// point — a worker panic poisons its shard, a claim panic poisons
    /// the claimed-id mutex.
    Panic,
}

/// A fault decision source, installed process-wide with [`install`].
/// Implementations must be cheap and lock-free on the
/// [`FaultAction::Proceed`] path — they run inside the serving stack.
pub trait FaultHook: Send + Sync {
    /// Decides what the site at `point` does for this occurrence.
    fn decide(&self, point: FaultPoint) -> FaultAction;
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static HOOK: Mutex<Option<Arc<dyn FaultHook>>> = Mutex::new(None);

/// The hook registry is process-global; the crate's tests that install
/// a hook serialize on this lock.
#[cfg(test)]
pub(crate) static SERIAL: Mutex<()> = Mutex::new(());

/// Uninstalls the hook when dropped, so a panicking test cannot leak its
/// faults into the next schedule.
#[derive(Debug)]
#[must_use = "the hook is uninstalled when this guard drops"]
pub struct InstalledHook(());

impl Drop for InstalledHook {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *HOOK.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Installs `hook` as the process-wide fault source until the returned
/// guard drops. One hook at a time: installing replaces any previous
/// hook, so chaos schedules must run serially (the soak harness and the
/// CI job both serialize on `RUST_TEST_THREADS=1`).
pub fn install(hook: Arc<dyn FaultHook>) -> InstalledHook {
    *HOOK.lock().unwrap_or_else(PoisonError::into_inner) = Some(hook);
    ACTIVE.store(true, Ordering::SeqCst);
    InstalledHook(())
}

/// The decision for `point`: [`FaultAction::Proceed`] when no hook is
/// installed (one relaxed load), the hook's verdict otherwise.
pub fn decide(point: FaultPoint) -> FaultAction {
    if !ACTIVE.load(Ordering::Relaxed) {
        return FaultAction::Proceed;
    }
    let hook = HOOK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map(Arc::clone);
    match hook {
        Some(hook) => hook.decide(point),
        None => FaultAction::Proceed,
    }
}

/// Fires `point` and performs the side-effecting actions inline: stall
/// sleeps, panic unwinds. Returns normally on [`FaultAction::Proceed`].
pub fn act(point: FaultPoint) {
    match decide(point) {
        FaultAction::Stall(d) => std::thread::sleep(d),
        FaultAction::Panic => panic!("chaos: injected fault at {point:?}"),
        FaultAction::Proceed => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    const STALL: FaultAction = FaultAction::Stall(Duration::from_nanos(1));

    struct StallSends(AtomicU64);
    impl FaultHook for StallSends {
        fn decide(&self, point: FaultPoint) -> FaultAction {
            self.0.fetch_add(1, Ordering::Relaxed);
            match point {
                FaultPoint::RingSend => STALL,
                _ => FaultAction::Proceed,
            }
        }
    }

    #[test]
    fn no_hook_means_proceed_everywhere() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(decide(FaultPoint::RingSend), FaultAction::Proceed);
        assert_eq!(decide(FaultPoint::ClaimLock), FaultAction::Proceed);
    }

    #[test]
    fn install_routes_decisions_and_uninstalls_on_drop() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let hook = Arc::new(StallSends(AtomicU64::new(0)));
        let guard = install(Arc::clone(&hook) as Arc<dyn FaultHook>);
        assert_eq!(decide(FaultPoint::RingSend), STALL);
        assert_eq!(decide(FaultPoint::RingRecv), FaultAction::Proceed);
        assert!(hook.0.load(Ordering::Relaxed) >= 2);
        drop(guard);
        assert_eq!(
            decide(FaultPoint::RingSend),
            FaultAction::Proceed,
            "hook leaked past drop"
        );
    }

    #[test]
    fn injected_panic_unwinds_at_the_site() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        struct PanicOnClaim;
        impl FaultHook for PanicOnClaim {
            fn decide(&self, point: FaultPoint) -> FaultAction {
                match point {
                    FaultPoint::ClaimLock => FaultAction::Panic,
                    _ => FaultAction::Proceed,
                }
            }
        }
        let guard = install(Arc::new(PanicOnClaim));
        let unwound = std::panic::catch_unwind(|| act(FaultPoint::ClaimLock)).is_err();
        drop(guard);
        assert!(unwound, "Panic action did not unwind");
    }
}
