//! [`BlockRing`]: the bounded blocking block ring.
//!
//! The paper overlaps FEED and GENERATE by double-buffering bit batches
//! over PCIe (§IV-A, Figure 4): while the device walks iteration `k`, the
//! host fills the other buffer with the bits for `k+1`. A two-slot ring
//! (`bounded(2)`, each pool client's reply ring) is exactly that pair;
//! deeper rings generalize it to producers allowed to run `capacity` blocks
//! ahead, and cloning the sender generalizes SPSC to MPSC (the pool's
//! many-clients-one-shard request queues). The protocol:
//!
//! * **backpressure**: [`RingSender::send`] blocks while every slot is
//!   occupied, so producers can run at most `capacity` blocks ahead
//!   (bounded memory, just like the real double buffer).
//!   [`RingReceiver::recv`] blocks while the ring is empty;
//!   [`RingReceiver::try_recv`] returns at once, for a consumer that has
//!   other work to do while nothing is queued (a pool shard filling its
//!   clients' next blocks ahead of demand).
//! * **clean shutdown**: dropping either half wakes the other. A producer
//!   whose consumer went away gets its value back as [`SendError`]; a
//!   consumer whose producers all exited (including by panic, which
//!   unwinds through the senders' `Drop`) drains the remaining slots and
//!   then sees end-of-stream.
//! * **observability**: a ring built with [`bounded_instrumented`]
//!   updates its queue-depth and occupancy gauges inside the ring lock,
//!   so the exported depth is exact — no racy external inflight counter.
//!
//! Built on `std::sync::{Mutex, Condvar}` only — the crate forbids unsafe
//! code, and a small blocking queue has no throughput to win from
//! lock-free cleverness: the payload is a multi-kilobyte block of words,
//! not a pointer.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use hprng_telemetry::Gauge;

/// The value a [`RingSender::send`] could not deliver because the
/// consumer was dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Transport-level queue instruments: exact depth and occupancy gauges
/// updated inside the ring lock on every send and receive.
///
/// Handles come from a [`hprng_telemetry::Registry`]; updating them is a
/// relaxed atomic store, so instrumentation adds no locks beyond the one
/// the ring already holds.
#[derive(Clone, Debug)]
pub struct RingInstruments {
    /// Blocks currently queued.
    pub depth: Gauge,
    /// Depth over capacity, in `0..=1`.
    pub occupancy: Gauge,
}

impl RingInstruments {
    fn set(&self, depth: usize, capacity: usize) {
        self.depth.set(depth as f64);
        self.occupancy.set(depth as f64 / capacity.max(1) as f64);
    }
}

/// The shared state of one ring: the slot queue, peer liveness, and the
/// optional instruments. Users hold [`RingSender`]/[`RingReceiver`]
/// halves, never a `BlockRing` directly.
#[derive(Debug)]
pub struct BlockRing<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when a slot frees up or the consumer goes away.
    not_full: Condvar,
    /// Signalled when a slot fills up or the last producer goes away.
    not_empty: Condvar,
    instruments: Option<RingInstruments>,
}

#[derive(Debug)]
struct Inner<T> {
    slots: VecDeque<T>,
    capacity: usize,
    /// Live [`RingSender`] clones. End-of-stream once zero *and* drained.
    producers: usize,
    consumer_alive: bool,
}

fn lock<T>(ring: &BlockRing<T>) -> MutexGuard<'_, Inner<T>> {
    // A poisoned lock means a peer panicked while holding it; the queue
    // state is still structurally valid (VecDeque operations are
    // panic-safe), so shutdown can proceed.
    ring.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> BlockRing<T> {
    fn new(capacity: usize, instruments: Option<RingInstruments>) -> Arc<Self> {
        assert!(capacity > 0, "ring capacity must be positive");
        if let Some(i) = &instruments {
            i.set(0, capacity);
        }
        Arc::new(Self {
            inner: Mutex::new(Inner {
                slots: VecDeque::with_capacity(capacity),
                capacity,
                producers: 1,
                consumer_alive: true,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            instruments,
        })
    }

    fn record_depth(&self, inner: &Inner<T>) {
        if let Some(i) = &self.instruments {
            i.set(inner.slots.len(), inner.capacity);
        }
    }
}

/// Producer half of a ring. Cloning adds a producer (MPSC); the stream
/// ends once every clone is dropped and the slots are drained.
pub struct RingSender<T> {
    ring: Arc<BlockRing<T>>,
}

/// Consumer half of a ring. Single-owner: the serving thread.
pub struct RingReceiver<T> {
    ring: Arc<BlockRing<T>>,
}

/// Creates a ring with an explicit slot count (tests use 1 to force
/// immediate backpressure; the pool uses its queue depth).
///
/// # Panics
/// Panics if `capacity` is zero — a rendezvous channel cannot model a
/// double buffer.
pub fn bounded<T>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    halves(BlockRing::new(capacity, None))
}

/// [`bounded`], with queue-depth/occupancy gauges updated inside the
/// ring lock (both initialized to zero here, so an idle ring is already
/// visible on a scrape).
pub fn bounded_instrumented<T>(
    capacity: usize,
    instruments: RingInstruments,
) -> (RingSender<T>, RingReceiver<T>) {
    halves(BlockRing::new(capacity, Some(instruments)))
}

fn halves<T>(ring: Arc<BlockRing<T>>) -> (RingSender<T>, RingReceiver<T>) {
    (
        RingSender {
            ring: Arc::clone(&ring),
        },
        RingReceiver { ring },
    )
}

impl<T> RingSender<T> {
    /// Delivers one block, blocking while every slot is occupied
    /// (backpressure). Returns the block if the consumer is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        #[cfg(feature = "chaos")]
        crate::chaos::act(crate::chaos::FaultPoint::RingSend);
        let mut inner = lock(&self.ring);
        while inner.slots.len() == inner.capacity && inner.consumer_alive {
            inner = self
                .ring
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if !inner.consumer_alive {
            return Err(SendError(value));
        }
        inner.slots.push_back(value);
        self.ring.record_depth(&inner);
        drop(inner);
        self.ring.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for RingSender<T> {
    fn clone(&self) -> Self {
        lock(&self.ring).producers += 1;
        Self {
            ring: Arc::clone(&self.ring),
        }
    }
}

impl<T> RingReceiver<T> {
    /// Takes the oldest block, blocking while the ring is empty and any
    /// producer is alive. `None` means every producer is gone *and* every
    /// in-flight block has been drained — the clean end-of-stream.
    pub fn recv(&self) -> Option<T> {
        #[cfg(feature = "chaos")]
        crate::chaos::act(crate::chaos::FaultPoint::RingRecv);
        let mut inner = lock(&self.ring);
        while inner.slots.is_empty() && inner.producers > 0 {
            inner = self
                .ring
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.take(&mut inner)
    }

    /// Takes the oldest block if one is queued right now, without
    /// blocking. `None` means the ring is empty at this instant; a
    /// [`RingReceiver::recv`] then waits for the next block or reports
    /// the end of the stream.
    ///
    /// The chaos hook fires only when a block is dequeued, after the
    /// ring lock is released: a consumer that polls an idle ring between
    /// other work counts one `FaultPoint::RingRecv` occurrence per block
    /// received, as a consumer that only blocks in `recv` does.
    pub fn try_recv(&self) -> Option<T> {
        let value = self.take(&mut lock(&self.ring));
        #[cfg(feature = "chaos")]
        if value.is_some() {
            crate::chaos::act(crate::chaos::FaultPoint::RingRecv);
        }
        value
    }

    fn take(&self, inner: &mut Inner<T>) -> Option<T> {
        let value = inner.slots.pop_front();
        if value.is_some() {
            self.ring.record_depth(inner);
            self.ring.not_full.notify_one();
        }
        value
    }

    /// Blocks currently queued, for tests and introspection.
    pub fn len(&self) -> usize {
        lock(&self.ring).slots.len()
    }

    /// Whether no block is currently queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.ring);
        inner.producers = inner.producers.saturating_sub(1);
        let last = inner.producers == 0;
        drop(inner);
        if last {
            self.ring.not_empty.notify_all();
        }
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.ring);
        inner.consumer_alive = false;
        // Destroy queued blocks with the consumer (`sync_channel`
        // semantics). Queued values may themselves hold senders of other
        // rings — the pool's `Attach { reply }` requests do — and those
        // peers must see end-of-stream now, not when the last sender of
        // *this* ring (held indefinitely by the pool) finally drops.
        let drained: Vec<T> = inner.slots.drain(..).collect();
        self.ring.record_depth(&inner);
        drop(inner);
        drop(drained);
        self.ring.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn delivers_in_order() {
        let (tx, rx) = bounded(2);
        let producer = thread::spawn(move || {
            for i in 0..100u64 {
                tx.send(i).unwrap();
            }
        });
        for i in 0..100u64 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.recv(), None); // producer dropped after the loop
        producer.join().unwrap();
    }

    #[test]
    fn producer_blocks_on_full_ring() {
        let (tx, rx) = bounded::<u64>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let progressed = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&progressed);
        let producer = thread::spawn(move || {
            tx.send(3).unwrap(); // must block until a recv frees a slot
            flag.store(1, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(
            progressed.load(Ordering::SeqCst),
            0,
            "send did not backpressure on a full ring"
        );
        assert_eq!(rx.recv(), Some(1));
        producer.join().unwrap();
        assert_eq!(progressed.load(Ordering::SeqCst), 1);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
    }

    #[test]
    fn dropping_receiver_unblocks_producer_with_its_value() {
        let (tx, rx) = bounded::<u64>(1);
        tx.send(7).unwrap();
        let producer = thread::spawn(move || tx.send(8)); // blocked: full
        thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(producer.join().unwrap(), Err(SendError(8)));
    }

    #[test]
    fn dropping_every_sender_clone_drains_then_ends_stream() {
        let (tx, rx) = bounded::<u64>(2);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        tx2.send(2).unwrap();
        assert_eq!(rx.recv(), Some(1));
        drop(tx2);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert_eq!(rx.recv(), None); // stays closed
    }

    #[test]
    fn mpsc_senders_interleave_without_loss() {
        let (tx, rx) = bounded::<u64>(4);
        let handles: Vec<_> = (0..4u64)
            .map(|k| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..50u64 {
                        tx.send(k * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 200);
        // Per-producer order is preserved even though streams interleave.
        for k in 0..4u64 {
            let lane: Vec<u64> = got.iter().copied().filter(|v| v / 1000 == k).collect();
            assert_eq!(lane, (0..50).map(|i| k * 1000 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn producer_panic_ends_stream_cleanly() {
        let (tx, rx) = bounded::<u64>(2);
        let producer = thread::spawn(move || {
            tx.send(1).unwrap();
            panic!("feeder died");
        });
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None); // sender dropped during unwind
        assert!(producer.join().is_err());
    }

    #[test]
    fn dropping_receiver_destroys_queued_values() {
        // A queued value holding a sender of a second ring must die with
        // the consumer — otherwise a consumer of the second ring would
        // wait forever on a producer buried in a dead queue.
        let (tx, rx) = bounded::<RingSender<u64>>(2);
        let (inner_tx, inner_rx) = bounded::<u64>(2);
        assert!(tx.send(inner_tx).is_ok());
        drop(rx); // never dequeued — the queued sender must drop here
        assert_eq!(
            inner_rx.recv(),
            None,
            "queued sender leaked past receiver drop"
        );
        drop(tx);
    }

    #[test]
    fn instrumented_ring_tracks_exact_depth() {
        let registry = hprng_telemetry::Registry::new();
        let depth = registry.gauge("ring_depth");
        let occupancy = registry.gauge("ring_occupancy");
        let (tx, rx) = bounded_instrumented::<u64>(
            4,
            RingInstruments {
                depth: depth.clone(),
                occupancy: occupancy.clone(),
            },
        );
        assert_eq!(depth.get(), 0.0);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(depth.get(), 2.0);
        assert_eq!(occupancy.get(), 0.5);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(depth.get(), 1.0);
        assert_eq!(occupancy.get(), 0.25);
    }

    #[test]
    fn try_recv_returns_none_at_once_on_an_empty_ring() {
        let (tx, rx) = bounded::<u64>(2);
        assert_eq!(rx.try_recv(), None); // a live producer: still no wait
        tx.send(5).unwrap();
        assert_eq!(rx.try_recv(), Some(5));
        assert_eq!(rx.try_recv(), None);
        drop(tx);
        assert_eq!(rx.try_recv(), None); // ended: no wait either
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn try_recv_keeps_order_mixed_with_recv() {
        let (tx, rx) = bounded::<u64>(8);
        for i in 0..6u64 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.try_recv(), Some(0));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
        assert_eq!(rx.recv(), Some(4));
        tx.send(6).unwrap();
        assert_eq!(rx.try_recv(), Some(5));
        assert_eq!(rx.recv(), Some(6));
        assert_eq!(rx.try_recv(), None);
        assert!(rx.is_empty());
    }

    #[test]
    fn try_recv_frees_a_slot_for_a_blocked_producer() {
        let (tx, rx) = bounded::<u64>(1);
        tx.send(1).unwrap();
        let producer = thread::spawn(move || tx.send(2)); // blocked: full
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(producer.join().unwrap(), Ok(()));
        assert_eq!(rx.try_recv(), Some(2));
    }

    /// An idle poll is not a receive: the `RingRecv` hook fires once per
    /// dequeued block, whichever call dequeues it.
    #[cfg(feature = "chaos")]
    #[test]
    fn an_empty_poll_fires_no_ring_recv_hook() {
        use crate::chaos::{self, FaultAction, FaultHook, FaultPoint};
        use std::sync::PoisonError;

        /// Counts `RingRecv` firings on one thread, so rings that other
        /// tests drive concurrently do not reach the count.
        struct CountRecvs(thread::ThreadId, AtomicUsize);
        impl FaultHook for CountRecvs {
            fn decide(&self, point: FaultPoint) -> FaultAction {
                if point == FaultPoint::RingRecv && thread::current().id() == self.0 {
                    self.1.fetch_add(1, Ordering::SeqCst);
                }
                FaultAction::Proceed
            }
        }

        let _serial = chaos::SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let hook = Arc::new(CountRecvs(thread::current().id(), AtomicUsize::new(0)));
        let _installed = chaos::install(Arc::clone(&hook) as Arc<dyn FaultHook>);
        let fired = || hook.1.load(Ordering::SeqCst);
        let (tx, rx) = bounded::<u64>(4);
        for _ in 0..3 {
            assert_eq!(rx.try_recv(), None);
        }
        assert_eq!(fired(), 0, "an empty poll fired the hook");
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Some(1));
        assert_eq!(fired(), 1);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(fired(), 2);
        assert_eq!(rx.try_recv(), None);
        assert_eq!(fired(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = bounded::<u64>(0);
    }
}
