//! Surviving shard failure: photon migration through a deliberately
//! poisoned shard.
//!
//! The simulation below runs twice on the same pool seed. The first run
//! is healthy and produces the reference physics. In the second run one
//! shard worker is rigged to panic mid-simulation — with failover opted
//! in, every client the dead shard was serving checkpoints itself from
//! its own acked counters, reattaches to the surviving shard, and
//! resumes its lane bit-identically. The physics cannot tell the
//! difference.
//!
//! The same `StreamState` that powers the in-process failover also
//! round-trips through JSON, so the example finishes by carrying one
//! lane across a pool teardown.
//!
//! ```text
//! cargo run --release --example pool_failover
//! ```

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use hybrid_prng::montecarlo::{run_simulation_on, RandomSupply, SimConfig, SimOutput, Tissue};
use hybrid_prng::prelude::*;
use hybrid_prng::prng::seeding::lane_seed;

const SEED: u64 = 2012;
const PHOTONS: u64 = 20_000;
const SHARDS: usize = 2;

/// An `ExpanderWalk`-equivalent session kind whose victim lane panics its
/// shard worker after a pool-wide fuse of full-width batches — the same
/// injection discipline the failover test suite uses. Every other lane is
/// a plain [`ExpanderWalkRng`], so streams match the default kind bit for
/// bit.
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
                fn try_next_batch_into(
                    &mut self,
                    out: &mut [u64],
                ) -> std::result::Result<(), HprngError> {
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

fn simulate(pool: &Pool) -> SimOutput {
    let tissue = Tissue::three_layer();
    let cfg = SimConfig {
        seed: SEED,
        supply: RandomSupply::InlineHybrid,
        chunk_size: 1024,
        grid: None,
    };
    run_simulation_on(&tissue, PHOTONS, &cfg, pool)
}

fn main() -> hybrid_prng::Result<()> {
    // Reference run: a healthy pool, default expander-walk sessions.
    let healthy = Pool::builder(SEED).shards(SHARDS).build()?;
    let reference = simulate(&healthy);
    healthy.shutdown();
    println!(
        "healthy pool     : {} photons, reflectance {:.6}, transmittance {:.6}",
        reference.photons,
        reference.diffuse_reflectance / reference.photons as f64,
        reference.transmittance / reference.photons as f64,
    );

    // Failure run: lane 1's shard worker is rigged to die partway through
    // its serving — taking shard 1, and every odd lane it hosts, with it.
    // The fuse is counted in full-width batches, so the panic lands in
    // the middle of a prefetch refill, not on a tidy boundary.
    println!("(the worker panic printed below is the injected failure — expected)");
    let rigged = Pool::builder(SEED)
        .shards(SHARDS)
        .session(panic_once_kind(SEED, 1, 5_000))
        .failover(true)
        .build()?;
    let survived = simulate(&rigged);
    let stats = rigged.stats();
    println!(
        "poisoned shard   : {} photons, reflectance {:.6}, transmittance {:.6}",
        survived.photons,
        survived.diffuse_reflectance / survived.photons as f64,
        survived.transmittance / survived.photons as f64,
    );
    println!(
        "  poisoned shards {:?}, automatic failovers {}",
        stats.poisoned_shards, stats.failovers
    );
    assert_eq!(stats.poisoned_shards, vec![1], "the rigged shard must die");
    assert!(stats.failovers >= 1, "at least one client must fail over");

    // The acceptance: a worker died mid-simulation and the physics is
    // still bit-identical, because every migrated lane resumed exactly
    // where its checkpoint left off.
    assert_eq!(survived.diffuse_reflectance, reference.diffuse_reflectance);
    assert_eq!(survived.transmittance, reference.transmittance);
    assert_eq!(survived.randoms_used, reference.randoms_used);
    println!("  physics is bit-identical to the healthy run ✓");

    // The same state, across a process boundary: checkpoint one lane to
    // JSON, tear the pool down, and resume it on a fresh pool — the
    // stream picks up where it stopped.
    let pool = Pool::builder(SEED).shards(SHARDS).build()?;
    let mut lane = pool.try_client_with_id(1)?;
    let before: Vec<u64> = lane.try_next_batch(100)?;
    let json = lane.checkpoint().to_json();
    drop(lane);
    pool.shutdown();

    let replacement = Pool::builder(SEED).shards(1).build()?;
    let mut resumed = replacement.try_client_resumed(&StreamState::from_json(&json)?)?;
    assert_eq!(resumed.words_served(), 100);
    let after = resumed.try_next_batch(1)?[0];
    println!(
        "checkpoint JSON  : lane 1 served {} words, resumed on a {}-shard pool at word 101 \
         ({:#018x} follows {:#018x}) ✓",
        before.len(),
        replacement.shards(),
        after,
        before[99],
    );
    drop(resumed);
    replacement.shutdown();
    Ok(())
}
