//! Stress tests for the block ring's shutdown and backpressure behaviour
//! under racing threads.
//!
//! The unit tests in `ring` pin the protocol; these tests hammer the
//! edges: many rapid create/teardown cycles, shutdown while the producer
//! is blocked mid-send, and panicking producers. Failures here look like
//! hangs, so everything is kept small enough that a deadlock trips the
//! test harness timeout rather than burning CI minutes. CI runs this
//! suite with `RUST_TEST_THREADS=1` so a hang is attributable to one
//! scenario.

use hprng_transport::bounded;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn rapid_create_send_drop_cycles() {
    // Teardown while the producer is in every possible state: filling,
    // blocked on a full ring, or already exited.
    for cycle in 0..200 {
        let (tx, rx) = bounded::<Vec<u64>>(2);
        let producer = thread::spawn(move || {
            let mut sent = 0usize;
            while tx.send(vec![sent as u64; 64]).is_ok() {
                sent += 1;
            }
            sent
        });
        // Consume a cycle-dependent number of blocks, then drop.
        for i in 0..(cycle % 7) {
            let block = rx.recv().expect("producer is still alive");
            assert_eq!(block[0], i as u64, "out-of-order block");
        }
        drop(rx);
        let sent = producer.join().unwrap();
        assert!(sent >= cycle % 7, "producer exited before demand was met");
    }
}

#[test]
fn backpressure_bounds_producer_lead() {
    // The producer can never be more than capacity blocks ahead of the
    // consumer — that is the double buffer's memory bound.
    let (tx, rx) = bounded::<u64>(2);
    let produced = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&produced);
    let producer = thread::spawn(move || {
        for i in 0..1000u64 {
            if tx.send(i).is_err() {
                return;
            }
            counter.fetch_add(1, Ordering::SeqCst);
        }
    });
    for consumed in 0..1000usize {
        assert_eq!(rx.recv(), Some(consumed as u64));
        let ahead = produced.load(Ordering::SeqCst).saturating_sub(consumed);
        // consumed items + 2 in-flight slots + 1 send already past the
        // ring but not yet counted.
        assert!(ahead <= 4, "producer ran {ahead} ahead at {consumed}");
    }
    producer.join().unwrap();
}

#[test]
fn many_rings_shut_down_in_parallel() {
    // Cross-ring interference check: nothing in the ring is global.
    let handles: Vec<_> = (0..16)
        .map(|k| {
            thread::spawn(move || {
                let (tx, rx) = bounded::<u64>(2);
                let producer = thread::spawn(move || {
                    let mut i = 0u64;
                    while tx.send(i).is_ok() {
                        i += 1;
                    }
                });
                for expect in 0..(50 + k) {
                    assert_eq!(rx.recv(), Some(expect as u64));
                }
                drop(rx);
                producer.join().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn panicking_producer_surfaces_as_end_of_stream_not_hang() {
    for _ in 0..50 {
        let (tx, rx) = bounded::<u64>(2);
        let producer = thread::spawn(move || {
            tx.send(1).unwrap();
            panic!("simulated feeder crash");
        });
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), None, "panic must close the stream");
        assert!(producer.join().is_err());
    }
}

#[test]
fn queued_blocks_die_with_the_receiver_under_load() {
    // Request-queue semantics the pool depends on: values sitting in a
    // dead consumer's queue are destroyed at receiver drop, even while
    // other producers are still racing to send.
    for _ in 0..100 {
        let (tx, rx) = bounded::<Vec<u64>>(4);
        let senders: Vec<_> = (0..3)
            .map(|_| {
                let tx = tx.clone();
                thread::spawn(move || while tx.send(vec![0u64; 16]).is_ok() {})
            })
            .collect();
        let _ = rx.recv();
        drop(rx);
        for s in senders {
            s.join().unwrap();
        }
        drop(tx);
    }
}
