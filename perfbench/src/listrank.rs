//! `listrank`: Algorithm 3 through `rank_on_session` on a multi-lane
//! `Engine<CpuBackend>`, one lane per node.
//!
//! A repetition builds the engine and runs Algorithm 1 for every lane
//! (the set-up), then ranks the seed's list and checks the ranks against
//! the sequential walk of the list.

use std::sync::Arc;
use std::time::Instant;

use hprng_baselines::SplitMix64;
use hprng_core::pipeline::{BitFeed, GlibcFeed};
use hprng_core::{CpuBackend, Engine, HprngError, HybridParams, OnDemandRng, PipelineMode};
use hprng_listrank::{rank_on_session, sequential_rank, LinkedList};
use hprng_telemetry::Stage;

use crate::ledger::{ns_since, Ledger, TimedFeed};
use crate::stats::Latencies;
use crate::{Canaries, Layers, Phase};

/// List length: about 10^6 nodes, one engine lane each.
const NODES: usize = 1 << 20;

/// Salt separating the list shuffle from the engine's feed seed.
const LIST_SALT: u64 = 0x115_7BA2_C0FF_EE00;

/// The seed's list and its reference ranks.
pub struct Input {
    list: LinkedList,
    expected: Vec<u32>,
}

impl Input {
    pub fn new(seed: u64) -> Self {
        let list = LinkedList::random(NODES, &mut SplitMix64::new(seed ^ LIST_SALT));
        let expected = sequential_rank(&list);
        Self { list, expected }
    }
}

/// The resolved FEED scheduling of an engine built the way this
/// workload builds it.
pub fn resolved_mode() -> PipelineMode {
    PipelineMode::Auto.resolve()
}

/// Totals of the GENERATE stage as the application calls it.
#[derive(Default)]
struct EngineTally {
    batches: u64,
    words: u64,
    ns: u64,
}

/// The engine as `rank_on_session` sees it. Each batch is one request:
/// Algorithm 3's per-iteration `GetNextRand()` for every live node. Two
/// clock reads per batch cost nothing next to the batch; spans are kept
/// only in the traced phase.
struct BatchTimer<'a> {
    engine: &'a mut Engine<CpuBackend>,
    tally: &'a mut EngineTally,
    latencies: &'a mut Latencies,
    ledger: Option<&'a Ledger>,
    parent: Option<usize>,
}

impl OnDemandRng for BatchTimer<'_> {
    fn label(&self) -> &'static str {
        OnDemandRng::label(&*self.engine)
    }

    fn lanes(&self) -> usize {
        OnDemandRng::lanes(&*self.engine)
    }

    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        let t = Instant::now();
        let result = self.engine.try_next_batch_into(out);
        let ns = ns_since(t);
        self.latencies.record(ns);
        self.tally.batches += 1;
        self.tally.words += out.len() as u64;
        self.tally.ns += ns;
        if let Some(l) = self.ledger {
            let start = l.spans.at(t);
            l.spans.push(
                Stage::Generate,
                format!("engine batch {}", out.len()),
                start,
                start + ns as f64,
                self.parent,
            );
        }
        result
    }

    fn words_served(&self) -> u64 {
        OnDemandRng::words_served(&*self.engine)
    }

    fn raw_words_consumed(&self) -> Option<u64> {
        OnDemandRng::raw_words_consumed(&*self.engine)
    }
}

/// Runs repetitions for `seconds` (at least two).
pub fn run(
    seed: u64,
    input: &Input,
    seconds: f64,
    ledger: Option<&Arc<Ledger>>,
    canaries: &mut Canaries,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut layers = Layers::default();
    let begin = Instant::now();
    while phase.reps < 2 || begin.elapsed().as_secs_f64() < seconds {
        let rep_span = ledger.and_then(|l| {
            l.spans
                .open(Stage::App, format!("rep {}", phase.reps), None)
        });

        // Set-up: the engine, and Algorithm 1 for one walk per node.
        let t0 = Instant::now();
        let feed = GlibcFeed::from_master_seed(seed);
        let feed: Box<dyn BitFeed> = match ledger {
            Some(l) => Box::new(TimedFeed::new(feed, l)),
            None => Box::new(feed),
        };
        let mut engine = Engine::with_mode(
            CpuBackend::new(HybridParams::default()),
            feed,
            PipelineMode::Auto,
        );
        let t_init = Instant::now();
        engine
            .initialize(NODES)
            .map_err(|e| format!("initializing {NODES} lanes: {e}"))?;
        let init_ns = ns_since(t_init);
        let setup_ns = ns_since(t0);

        // The timed ranking.
        let rank_span =
            ledger.and_then(|l| l.spans.open(Stage::App, "rank_on_session".into(), rep_span));
        let mut tally = EngineTally::default();
        let start = Instant::now();
        let (ranks, reduction) = rank_on_session(
            &input.list,
            &mut BatchTimer {
                engine: &mut engine,
                tally: &mut tally,
                latencies: &mut phase.latencies,
                ledger: ledger.map(Arc::as_ref),
                parent: rank_span,
            },
        );
        let wall_ns = ns_since(start);

        phase.rep(setup_ns, wall_ns, reduction.bits_consumed, NODES as u64);
        phase.attempted += 1;
        if ranks != input.expected {
            phase.failed += 1;
        }
        canaries.check(&[
            ("listrank.iterations", reduction.iterations as u64),
            ("listrank.draws", reduction.bits_consumed),
        ]);

        if let Some(l) = ledger {
            l.spans.close(rank_span);
            // The engine's own spans: FEED (inline) or the ring pull
            // (concurrent) is the feed time on its blocking path.
            let telemetry = engine.telemetry();
            let window = start
                .saturating_duration_since(telemetry.epoch())
                .as_nanos() as f64;
            let (mut feed_ns, mut generate_ns) = (0.0, 0.0);
            for s in telemetry.spans().iter().filter(|s| s.start_ns >= window) {
                match s.stage {
                    Stage::Feed | Stage::Transfer => feed_ns += s.duration_ns(),
                    Stage::Generate => generate_ns += s.duration_ns(),
                    Stage::App => {}
                }
            }
            l.spans.absorb(telemetry, rep_span);
            layers.add("engine.batches", tally.batches as f64);
            layers.add("engine.words", tally.words as f64);
            layers.add("engine.busy_s", tally.ns as f64 / 1e9);
            layers.add("engine.init_s", init_ns as f64 / 1e9);
            layers.add("engine.feed_s", feed_ns / 1e9);
            layers.add("listrank.iterations", reduction.iterations as f64);
            layers.add("listrank.draws", reduction.bits_consumed as f64);
            layers.add("listrank.wall_s", wall_ns as f64 / 1e9);
            // Engine time its own FEED/ring and GENERATE spans leave
            // unexplained (buffers, bookkeeping, the timing wrapper).
            layers.add(
                "trace.residual_s",
                (tally.ns as f64 - feed_ns - generate_ns) / 1e9,
            );
        }
        // Joins the FEED producer, which settles the feed totals.
        drop(engine);
        if let Some(l) = ledger {
            l.spans.close(rep_span);
        }
    }
    phase.layers = layers;
    Ok(phase)
}
