//! `photon`: Algorithm 4 through `run_simulation_on` over expander lanes.
//!
//! A repetition transports the same photons through the three-layer
//! tissue; every chunk of 1024 photons draws from a fresh lane, one
//! scalar `GetNextRand()` at a time between float physics.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use hprng_core::{ExpanderLanes, HprngError, OnDemandRng, SplitOnDemand};
use hprng_montecarlo::{run_simulation_on, SimConfig, SimOutput, Tissue};
use hprng_telemetry::Stage;

use crate::ledger::{ns_since, Ledger, TimedLanes};
use crate::stats::median;
use crate::{Canaries, Layers, Phase};

/// Photons per repetition: eight chunks of 1024.
const PHOTONS: u64 = 8 * CHUNK as u64;
const CHUNK: usize = 1024;
/// Set-up samples per repetition; the phase reports their median.
const SETUP_SAMPLES: usize = 64;

/// Roulette re-weights survivors by ten instead of conserving weight, so
/// the budget balances only statistically: a photon whose weight `w`
/// reaches roulette ends up with a net error of about `3w` (`w` under
/// 1e-4), which over 8192 photons leaves a relative gap of a few parts in
/// a million. This bound is some thirty times that spread.
const BALANCE_TOLERANCE: f64 = 1e-4;

/// Relative gap between the accounted weight and the photon count.
fn imbalance(out: &SimOutput) -> f64 {
    let photons = out.photons as f64;
    ((out.total_weight() - photons) / photons).abs()
}

/// Chunks finished so far: the worker that ran each and its lifetime.
type Finished = Arc<Mutex<Vec<(ThreadId, u64)>>>;

/// Lanes that report how long their chunk took once it is done. One
/// request of this workload is one chunk: from `SplitOnDemand::lane`,
/// including the lane's warm-up, to the lane's drop after its last photon.
struct ChunkLanes<S> {
    inner: S,
    finished: Finished,
}

struct ChunkLane<L> {
    lane: L,
    born: Instant,
    finished: Finished,
}

impl<S: SplitOnDemand> SplitOnDemand for ChunkLanes<S> {
    type Lane = ChunkLane<S::Lane>;

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn lane(&self, index: u64) -> Self::Lane {
        let born = Instant::now();
        ChunkLane {
            lane: self.inner.lane(index),
            born,
            finished: Arc::clone(&self.finished),
        }
    }
}

impl<L: OnDemandRng> OnDemandRng for ChunkLane<L> {
    fn label(&self) -> &'static str {
        self.lane.label()
    }

    fn lanes(&self) -> usize {
        self.lane.lanes()
    }

    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        self.lane.try_next_batch_into(out)
    }

    #[inline]
    fn get_next_rand(&mut self) -> u64 {
        self.lane.get_next_rand()
    }

    fn words_served(&self) -> u64 {
        self.lane.words_served()
    }

    fn raw_words_consumed(&self) -> Option<u64> {
        self.lane.raw_words_consumed()
    }
}

impl<L> Drop for ChunkLane<L> {
    fn drop(&mut self) {
        let life = ns_since(self.born);
        if let Ok(mut finished) = self.finished.lock() {
            finished.push((std::thread::current().id(), life));
        }
    }
}

/// Runs repetitions for `seconds` (at least two).
pub fn run(
    seed: u64,
    seconds: f64,
    ledger: Option<&Arc<Ledger>>,
    canaries: &mut Canaries,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut layers = Layers::default();
    let config = SimConfig {
        seed,
        chunk_size: CHUNK,
        ..SimConfig::default()
    };
    let mut last = None;
    let begin = Instant::now();
    while phase.reps < 2 || begin.elapsed().as_secs_f64() < seconds {
        let rep_span = ledger.and_then(|l| {
            l.spans
                .open(Stage::App, format!("rep {}", phase.reps), None)
        });

        // Set-up: the tissue, the lanes, and the first lane's Algorithm 1
        // warm-up -- the point at which a photon can draw.
        let mut samples = Vec::with_capacity(SETUP_SAMPLES);
        let mut tissue = None;
        for _ in 0..SETUP_SAMPLES {
            let t0 = Instant::now();
            let built = Tissue::three_layer();
            let lanes = ExpanderLanes::new(seed);
            black_box(lanes.lane(0));
            samples.push(ns_since(t0) as f64);
            tissue = Some(built);
        }
        let setup_ns = median(&samples) as u64;
        let tissue = tissue.expect("at least one set-up sample");

        // The timed simulation.
        let finished = Finished::default();
        let start = Instant::now();
        let out = match ledger {
            Some(l) => {
                let sim_span = l
                    .spans
                    .open(Stage::App, "run_simulation_on".into(), rep_span);
                l.set_lane_parent(sim_span);
                let lanes = ChunkLanes {
                    inner: TimedLanes {
                        seed,
                        ledger: Arc::clone(l),
                    },
                    finished: Arc::clone(&finished),
                };
                let out = run_simulation_on(&tissue, PHOTONS, &config, &lanes);
                l.spans.close(sim_span);
                out
            }
            None => {
                let lanes = ChunkLanes {
                    inner: ExpanderLanes::new(seed),
                    finished: Arc::clone(&finished),
                };
                run_simulation_on(&tissue, PHOTONS, &config, &lanes)
            }
        };
        let wall_ns = ns_since(start);
        let chunks = std::mem::take(&mut *finished.lock().expect("chunk log poisoned"));
        for &(_, ns) in &chunks {
            phase.latencies.record(ns);
        }

        phase.rep(setup_ns, wall_ns, out.randoms_used, out.photons);
        phase.attempted += 1;
        if out.photons != PHOTONS || imbalance(&out) > BALANCE_TOLERANCE {
            phase.failed += 1;
        }
        canaries.check(&[
            ("montecarlo.draws", out.randoms_used),
            ("montecarlo.interactions", out.interactions),
            ("montecarlo.weight_bits", out.total_weight().to_bits()),
        ]);

        if let Some(l) = ledger {
            canaries.check_walk(l);
            l.spans.close(rep_span);
            let mut per_worker: HashMap<ThreadId, u64> = HashMap::new();
            for &(worker, ns) in &chunks {
                *per_worker.entry(worker).or_insert(0) += ns;
            }
            let critical_ns = per_worker.values().copied().max().unwrap_or(0);
            layers.add("montecarlo.draws", out.randoms_used as f64);
            layers.add("montecarlo.interactions", out.interactions as f64);
            layers.add(
                "montecarlo.life_s",
                chunks.iter().map(|&(_, ns)| ns).sum::<u64>() as f64 / 1e9,
            );
            // Wall time outside the busiest worker's lanes: spawning and
            // joining workers, merging chunk results, the clash sort.
            layers.add(
                "trace.residual_s",
                (wall_ns as f64 - critical_ns as f64) / 1e9,
            );
        }
        last = Some(out);
    }
    phase.layers = layers;
    if let Some(out) = &last {
        println!(
            "weight imbalance = {} (tolerance {BALANCE_TOLERANCE})",
            imbalance(out)
        );
    }
    Ok(phase)
}
