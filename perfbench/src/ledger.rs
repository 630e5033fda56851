//! The traced run's instruments: timing wrappers around the public
//! interfaces between layers, their cross-thread totals, and an
//! in-memory span log written out as a Chrome trace when the run ends.
//!
//! Every wrapper keeps its counts locally while it lives and adds them to
//! the shared [`Ledger`] once, when dropped, so a timed call touches no
//! shared state beyond its own two clock reads.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hprng_baselines::{GlibcRand, SplitMix64};
use hprng_core::pipeline::{BitFeed, GlibcFeed};
use hprng_core::{
    ExpanderWalkRng, HprngError, OnDemandRng, RngBitSource, SplitOnDemand, WalkParams,
};
use hprng_expander::bits::BitSource;
use hprng_telemetry::{Recorder, Stage};

/// Spans kept per run; later ones are counted, not stored.
pub const SPAN_CAP: usize = 50_000;

/// Nanoseconds elapsed since `t`.
#[inline]
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Cross-thread totals of the layers whose work runs off the driver
/// thread (shard workers, rayon workers, the FEED producer).
///
/// Every atomic is `Relaxed`: the totals are read only after the threads
/// that wrote them were joined, and `lane_parent` is stored before the
/// workers that read it are spawned.
pub struct Ledger {
    pub feed_words: AtomicU64,
    pub feed_ns: AtomicU64,
    pub walk_lanes: AtomicU64,
    pub walk_words: AtomicU64,
    pub walk_ns: AtomicU64,
    /// FEED time spent inside timed walk calls (the rest is lane set-up).
    pub walk_feed_ns: AtomicU64,
    pub walk_raw_words: AtomicU64,
    pub walk_setup_ns: AtomicU64,
    /// The span new lane spans hang under (`u64::MAX`: none).
    lane_parent: AtomicU64,
    pub spans: Spans,
}

impl Ledger {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            feed_words: AtomicU64::new(0),
            feed_ns: AtomicU64::new(0),
            walk_lanes: AtomicU64::new(0),
            walk_words: AtomicU64::new(0),
            walk_ns: AtomicU64::new(0),
            walk_feed_ns: AtomicU64::new(0),
            walk_raw_words: AtomicU64::new(0),
            walk_setup_ns: AtomicU64::new(0),
            lane_parent: AtomicU64::new(u64::MAX),
            spans: Spans::new(),
        })
    }

    pub fn set_lane_parent(&self, parent: Option<usize>) {
        self.lane_parent
            .store(parent.map_or(u64::MAX, |p| p as u64), Relaxed);
    }

    fn lane_parent(&self) -> Option<usize> {
        match self.lane_parent.load(Relaxed) {
            u64::MAX => None,
            p => Some(p as usize),
        }
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Relaxed)
    }
}

/// One span: a named interval on the run's clock with the span that
/// caused it.
struct Span {
    stage: Stage,
    name: String,
    start_ns: f64,
    end_ns: f64,
    parent: Option<usize>,
}

/// The in-memory span log of one run.
pub struct Spans {
    epoch: Instant,
    buf: Mutex<(Vec<Span>, u64)>,
}

impl Spans {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            buf: Mutex::new((Vec::new(), 0)),
        }
    }

    fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    /// Nanoseconds on this log's clock of an instant.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_nanos() as f64
    }

    /// Records a finished span; returns its id, or `None` once full.
    pub fn push(
        &self,
        stage: Stage,
        name: String,
        start_ns: f64,
        end_ns: f64,
        parent: Option<usize>,
    ) -> Option<usize> {
        let mut buf = self.buf.lock().expect("span log poisoned");
        if buf.0.len() >= SPAN_CAP {
            buf.1 += 1;
            return None;
        }
        buf.0.push(Span {
            stage,
            name,
            start_ns,
            end_ns,
            parent,
        });
        Some(buf.0.len() - 1)
    }

    /// Opens a span that children can name as their parent before it
    /// ends; finish it with [`Spans::close`].
    pub fn open(&self, stage: Stage, name: String, parent: Option<usize>) -> Option<usize> {
        let now = self.now_ns();
        self.push(stage, name, now, now, parent)
    }

    pub fn close(&self, id: Option<usize>) {
        let now = self.now_ns();
        if let Some(id) = id {
            self.buf.lock().expect("span log poisoned").0[id].end_ns = now;
        }
    }

    /// Copies a program recorder's spans (pool registry, engine
    /// telemetry) onto this clock under `parent`.
    pub fn absorb(&self, recorder: &Recorder, parent: Option<usize>) {
        let shift = recorder
            .epoch()
            .saturating_duration_since(self.epoch)
            .as_nanos() as f64;
        for s in recorder.spans() {
            self.push(
                s.stage,
                s.name.clone(),
                s.start_ns + shift,
                s.end_ns + shift,
                parent,
            );
        }
    }

    /// Writes every span in Chrome-trace form; each name carries its own
    /// id and its parent's, so the tree survives the export.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let buf = self.buf.lock().expect("span log poisoned");
        let mut recorder = Recorder::with_epoch(self.epoch);
        for (id, s) in buf.0.iter().enumerate() {
            let name = match s.parent {
                Some(p) => format!("{} #{id} < {} #{p}", s.name, buf.0[p].name),
                None => format!("{} #{id}", s.name),
            };
            recorder.record_span(s.stage, &name, s.start_ns, s.end_ns);
        }
        recorder.add("spans_dropped", buf.1 as f64);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(
            path,
            hprng_telemetry::chrome_trace(None, Some(&recorder)).to_json(),
        )
    }
}

/// The FEED under a walk lane: glibc `rand()` words, timed per refill of
/// the lane's 3-bit chunk reader.
struct TimedSource {
    inner: RngBitSource<GlibcRand>,
    tally: Arc<FeedTally>,
}

/// One lane's FEED counts, shared between its source and its wrapper.
#[derive(Default)]
struct FeedTally {
    words: AtomicU64,
    ns: AtomicU64,
}

impl BitSource for TimedSource {
    fn fill(&mut self, buf: &mut [u64]) {
        let t = Instant::now();
        self.inner.fill(buf);
        self.tally.ns.fetch_add(ns_since(t), Relaxed);
        self.tally.words.fetch_add(buf.len() as u64, Relaxed);
    }
}

/// One walk lane, timed per `GetNextRand()` call. Built exactly like
/// [`ExpanderWalkRng::from_seed_u64`], so its stream is the lane's own.
pub struct TimedWalk {
    rng: ExpanderWalkRng<TimedSource>,
    feed: Arc<FeedTally>,
    setup_feed_ns: u64,
    setup_ns: u64,
    born: Instant,
    words: u64,
    ns: u64,
    index: u64,
    ledger: Arc<Ledger>,
}

impl TimedWalk {
    pub fn new(lane_seed: u64, index: u64, ledger: &Arc<Ledger>) -> Self {
        let born = Instant::now();
        let feed = Arc::new(FeedTally::default());
        // The glibc seed derivation of `ExpanderWalkRng::from_seed_u64`.
        let glibc_seed = SplitMix64::new(lane_seed).next() as u32;
        let source = TimedSource {
            inner: RngBitSource::new(GlibcRand::new(glibc_seed)),
            tally: Arc::clone(&feed),
        };
        let rng = ExpanderWalkRng::with_params(source, WalkParams::default());
        let setup_feed_ns = feed.ns.load(Relaxed);
        Self {
            rng,
            feed,
            setup_feed_ns,
            setup_ns: ns_since(born),
            born,
            words: 0,
            ns: 0,
            index,
            ledger: Arc::clone(ledger),
        }
    }
}

impl OnDemandRng for TimedWalk {
    fn label(&self) -> &'static str {
        "expander-walk"
    }

    fn lanes(&self) -> usize {
        1
    }

    fn try_next_batch_into(&mut self, out: &mut [u64]) -> Result<(), HprngError> {
        let t = Instant::now();
        let result = OnDemandRng::try_next_batch_into(&mut self.rng, out);
        self.ns += ns_since(t);
        if result.is_ok() {
            self.words += out.len() as u64;
        }
        result
    }

    fn get_next_rand(&mut self) -> u64 {
        let t = Instant::now();
        let word = self.rng.get_next_rand();
        self.ns += ns_since(t);
        self.words += 1;
        word
    }

    fn words_served(&self) -> u64 {
        self.rng.numbers_generated()
    }

    fn raw_words_consumed(&self) -> Option<u64> {
        OnDemandRng::raw_words_consumed(&self.rng)
    }
}

impl Drop for TimedWalk {
    fn drop(&mut self) {
        let l = &self.ledger;
        let feed_ns = self.feed.ns.load(Relaxed);
        l.walk_lanes.fetch_add(1, Relaxed);
        l.walk_words.fetch_add(self.words, Relaxed);
        l.walk_ns.fetch_add(self.ns, Relaxed);
        l.walk_feed_ns
            .fetch_add(feed_ns - self.setup_feed_ns, Relaxed);
        l.walk_raw_words
            .fetch_add(self.raw_words_consumed().unwrap_or(0), Relaxed);
        l.walk_setup_ns.fetch_add(self.setup_ns, Relaxed);
        l.feed_words
            .fetch_add(self.feed.words.load(Relaxed), Relaxed);
        l.feed_ns.fetch_add(feed_ns, Relaxed);
        let life = ns_since(self.born);
        let start = l.spans.at(self.born);
        l.spans.push(
            Stage::Generate,
            format!("lane {} ({} words)", self.index, self.words),
            start,
            start + life as f64,
            l.lane_parent(),
        );
    }
}

/// [`hprng_core::ExpanderLanes`] with every lane a [`TimedWalk`].
pub struct TimedLanes {
    pub seed: u64,
    pub ledger: Arc<Ledger>,
}

impl SplitOnDemand for TimedLanes {
    type Lane = TimedWalk;

    fn label(&self) -> &'static str {
        "expander-lanes"
    }

    fn lane(&self, index: u64) -> TimedWalk {
        TimedWalk::new(
            hprng_core::seeding::lane_seed(self.seed, index),
            index,
            &self.ledger,
        )
    }
}

/// The engine's FEED, timed per fill on whichever thread runs it.
pub struct TimedFeed {
    inner: GlibcFeed,
    words: u64,
    ns: u64,
    ledger: Arc<Ledger>,
}

impl TimedFeed {
    pub fn new(inner: GlibcFeed, ledger: &Arc<Ledger>) -> Self {
        Self {
            inner,
            words: 0,
            ns: 0,
            ledger: Arc::clone(ledger),
        }
    }
}

impl BitFeed for TimedFeed {
    fn fill(&mut self, buf: &mut [u64]) {
        let t = Instant::now();
        self.inner.fill(buf);
        self.ns += ns_since(t);
        self.words += buf.len() as u64;
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn master_seed(&self) -> Option<u64> {
        self.inner.master_seed()
    }
}

impl Drop for TimedFeed {
    fn drop(&mut self) {
        self.ledger.feed_words.fetch_add(self.words, Relaxed);
        self.ledger.feed_ns.fetch_add(self.ns, Relaxed);
    }
}
