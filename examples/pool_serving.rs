//! The serving layer: one sharded pool feeding many concurrent
//! consumers, then driving both applications — bit-reproducibly,
//! whatever the shard count.
//!
//! ```text
//! cargo run --release --example pool_serving [-- <clients>]
//! ```

use hybrid_prng::listrank::{rank_on_session, sequential_rank, LinkedList};
use hybrid_prng::montecarlo::{run_simulation_on, RandomSupply, SimConfig, Tissue};
use hybrid_prng::prelude::*;
use hybrid_prng::prng::HybridParams;
use std::thread;

fn main() -> hybrid_prng::Result<()> {
    let clients: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    let seed = 2012;

    // Many consumers, few serving threads. Each client's stream is a
    // pure function of (pool_seed, client_id): the pool below serves
    // `clients` concurrent threads from a handful of shards, and the
    // single-shard pool afterwards replays client 0's words exactly.
    let shards = thread::available_parallelism().map_or(2, |n| n.get());
    let pool = Pool::builder(seed).shards(shards).build()?;
    println!("serving {clients} clients from {} shards…", pool.shards());

    let firsts: Vec<(u64, u64)> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let mut client = pool.try_client().expect("pool is live");
                s.spawn(move || {
                    let words = client.try_next_batch(4096).expect("shard is healthy");
                    (client.id(), words[0])
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = pool.stats();
    println!(
        "  served {} words over {} refills ({} clients)",
        stats.words, stats.refills, stats.clients
    );

    let replay = Pool::builder(seed).shards(1).build()?;
    let first = firsts.iter().find(|(id, _)| *id == 0).unwrap().1;
    assert_eq!(
        replay.try_client_with_id(0)?.try_next_batch(1)?[0],
        first,
        "client 0 must replay bit-identically on a 1-shard pool"
    );
    println!("  client 0 replays bit-identically on a 1-shard pool ✓");

    // Application I: a pool client is a full on-demand session, so the
    // FIS-based ranker runs on it unchanged (one lane per node).
    let n = 2_048;
    let list = LinkedList::random(n, &mut hybrid_prng::baselines::SplitMix64::new(7));
    let rank_pool = Pool::builder(seed)
        .shards(2)
        .session(SessionKind::CpuEngine {
            lanes: n,
            params: HybridParams::default(),
        })
        .build()?;
    let mut session = rank_pool.try_client()?;
    let (ranks, reduction) = rank_on_session(&list, &mut session);
    assert_eq!(ranks, sequential_rank(&list));
    println!(
        "\nlist ranking on a pool client: {n} nodes ranked, \
         {} FIS iterations ✓",
        reduction.iterations
    );

    // Application II: the pool is a SplitOnDemand family — photon chunk
    // c draws from lane c, exactly like ExpanderLanes, so the physics
    // matches the inline-hybrid supply bit for bit.
    let tissue = Tissue::three_layer();
    let cfg = SimConfig {
        seed,
        supply: RandomSupply::InlineHybrid,
        chunk_size: 1024,
        grid: None,
    };
    let photon_pool = Pool::builder(seed).shards(shards).build()?;
    let out = run_simulation_on(&tissue, 20_000, &cfg, &photon_pool);
    let n = out.photons as f64;
    println!("\nphoton migration on pool lanes —");
    println!(
        "  diffuse reflectance  : {:.4}",
        out.diffuse_reflectance / n
    );
    println!("  transmittance        : {:.4}", out.transmittance / n);
    println!("  energy balance       : {:.6}", out.total_weight() / n);

    // Observability rides the usual rails: export the pool counters
    // into a telemetry Recorder alongside everything else.
    let mut recorder = Recorder::new();
    photon_pool.stats().export_into(&mut recorder);
    println!(
        "\npool_words_total counter after the simulation: {}",
        recorder.counter(hybrid_prng::pool::names::POOL_WORDS)
    );
    Ok(())
}
