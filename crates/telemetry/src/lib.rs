//! Pipeline observability for the hybrid PRNG.
//!
//! The paper's central artifact is a *pipeline*: the CPU FEEDs raw random
//! bits, the PCIe link TRANSFERs them, and the GPU GENERATEs numbers by
//! walking an expander graph (Figures 4 and 5 of Banerjee, Bahl &
//! Kothapalli, IPDPS Workshops 2012). Arguing about that pipeline means
//! measuring it, so this crate provides:
//!
//! * [`Recorder`] — a lightweight, dependency-free span/counter sink.
//!   Components record stage-labeled host spans ([`Stage::Feed`],
//!   [`Stage::Transfer`], [`Stage::Generate`], [`Stage::App`]), named
//!   counters, log-bucketed latency [`Histogram`]s, and (x, y) series.
//! * [`chrome_trace`] — a Chrome-trace (Perfetto JSON) exporter that merges
//!   a simulated [`Timeline`] with a recorder's
//!   host spans and counters into one `chrome://tracing`-loadable file.
//! * [`busy_fractions`] — the inverse direction: reconstructs per-resource
//!   busy fractions from an exported trace, used by tests to prove the
//!   export is lossless with respect to `PipelineStats`.
//! * [`json`] — the minimal JSON writer/parser both of the above use.
//! * [`Registry`] — the thread-safe sibling of [`Recorder`]: shared
//!   counter/gauge/histogram handles plus a bounded span buffer, with a
//!   [`Registry::snapshot`] that materializes everything into a
//!   `Recorder` so both exporters above cover concurrent subsystems
//!   (the sharded pool's shard workers and clients) with no new code.
//!
//! The crate deliberately has no external dependencies and no global
//! state: a `Recorder` is a plain value you thread to where the
//! measurements happen.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

pub mod json;
pub mod prometheus;
pub mod registry;

pub use registry::{Counter, Gauge, HistogramHandle, Registry};

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use hprng_gpu_sim::{Resource, Timeline, WorkUnit};
use json::Value;

/// Pipeline stage labels for host-side spans.
///
/// The first three mirror the simulated [`WorkUnit`] classes and render
/// with identical names ("FEED", "TRANSFER", "GENERATE") so that host and
/// simulated-device rows in a merged trace line up visually; [`Stage::App`]
/// covers application phases (list ranking rounds, Monte-Carlo batches)
/// that have no device-side counterpart.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// CPU-side raw-bit production.
    Feed,
    /// Host↔device data movement.
    Transfer,
    /// Random-number generation proper.
    Generate,
    /// Application work built on top of the generator.
    App,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Feed, Stage::Transfer, Stage::Generate, Stage::App];

    /// The stage corresponding to a simulated work unit, if any
    /// (`WorkUnit::Other` has no stage).
    pub fn from_work_unit(unit: WorkUnit) -> Option<Stage> {
        match unit {
            WorkUnit::Feed => Some(Stage::Feed),
            WorkUnit::Transfer => Some(Stage::Transfer),
            WorkUnit::Generate => Some(Stage::Generate),
            WorkUnit::Other => None,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Feed => write!(f, "FEED"),
            Stage::Transfer => write!(f, "TRANSFER"),
            Stage::Generate => write!(f, "GENERATE"),
            Stage::App => write!(f, "APP"),
        }
    }
}

/// A streaming observer of generated 64-bit words.
///
/// Producers (a `HybridSession`, the list-ranking coin provider, the
/// photon-migration loop) call [`WordTap::observe`] with each batch they
/// emit; the index of a word within the slice identifies the producing
/// lane/stream, which clash detectors may use. Implementations own their
/// sampling policy — producers hand over every batch and the tap decides
/// what to keep, so a 1-in-N sampling tap costs the producer one virtual
/// call plus whatever the tap samples.
///
/// The trait lives here, at the bottom of the crate graph, so `core`,
/// `listrank` and `montecarlo` can accept taps without depending on the
/// monitor crate that implements them.
pub trait WordTap: Send {
    /// Observes one batch of generated words.
    fn observe(&mut self, words: &[u64]);
}

/// One completed host-side span, in nanoseconds relative to the
/// recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct HostSpan {
    /// Pipeline stage this span belongs to.
    pub stage: Stage,
    /// Human-readable label (shown in the trace viewer).
    pub name: String,
    /// Start, ns since [`Recorder::epoch`].
    pub start_ns: f64,
    /// End, ns since [`Recorder::epoch`].
    pub end_ns: f64,
}

impl HostSpan {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// A fixed-memory latency histogram with logarithmic buckets.
///
/// Buckets are powers of two of nanoseconds: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` ns, so the full range 1 ns – ~584 years fits in 64
/// buckets with ~2× relative resolution — plenty for batch latencies.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0.0,
            min_ns: 0.0,
            max_ns: 0.0,
        }
    }

    /// Records one sample (negative samples clamp to zero).
    pub fn record(&mut self, ns: f64) {
        let ns = ns.max(0.0);
        let idx = if ns < 1.0 {
            0
        } else {
            (ns.log2() as usize).min(63)
        };
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, or 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64
        }
    }

    /// Smallest sample, or 0 when empty.
    pub fn min_ns(&self) -> f64 {
        self.min_ns
    }

    /// Largest sample, or 0 when empty.
    pub fn max_ns(&self) -> f64 {
        self.max_ns
    }

    /// Raw bucket occupancy: `bucket_counts()[i]` samples fell in
    /// `[2^i, 2^(i+1))` ns. Exposed for exporters (Prometheus `_bucket`
    /// lines) that need the full distribution, not just summary quantiles.
    pub fn bucket_counts(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Upper edge of bucket `i` in nanoseconds (`2^(i+1)`).
    pub fn bucket_upper_ns(i: usize) -> f64 {
        2f64.powi(i as i32 + 1)
    }

    /// Sum of all recorded samples in nanoseconds.
    pub fn sum_ns(&self) -> f64 {
        self.sum_ns
    }

    /// Merges another histogram into this one: buckets add, counts and
    /// sums add, and min/max extend to cover both inputs. This is the
    /// primitive behind [`Recorder::absorb`] and the registry snapshot —
    /// multi-shard merges go through it, so it is proven (by property
    /// tests) associative and commutative: merge order never changes the
    /// result.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        if other.count > 0 {
            self.min_ns = if self.count == 0 {
                other.min_ns
            } else {
                self.min_ns.min(other.min_ns)
            };
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Rebuilds a histogram from raw parts (the registry snapshot path:
    /// atomic cells are read bucket-wise and reassembled here). `count`
    /// is derived from the buckets so the Prometheus invariant
    /// `+Inf bucket == _count` holds even for a mid-flight snapshot.
    pub(crate) fn from_raw(buckets: [u64; 64], sum_ns: f64, min_ns: f64, max_ns: f64) -> Self {
        let count = buckets.iter().sum();
        Self {
            buckets,
            count,
            sum_ns,
            min_ns: if count == 0 { 0.0 } else { min_ns },
            max_ns: if count == 0 { 0.0 } else { max_ns },
        }
    }

    /// Approximate quantile (`q` in [0, 1]) from the bucket boundaries.
    /// Accurate to the ~2× bucket resolution; exact min/max at the ends.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min_ns;
        }
        if q >= 1.0 {
            return self.max_ns;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Upper edge of the bucket, clamped to the observed range.
                return (2f64.powi(i as i32 + 1)).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// The span/counter sink.
///
/// Everything is plain data: spans are a `Vec`, counters and series are
/// ordered maps, and time is measured from a per-recorder epoch so merged
/// traces from one recorder share one clock. Cloning is cheap enough for
/// tests; production code moves recorders around.
///
/// Spans follow the [`Registry`] rule: once
/// [`registry::DEFAULT_SPAN_CAPACITY`] spans are stored, later ones are
/// counted in the `spans_dropped` counter instead, so a long-lived
/// recorder (a pipeline engine's) stays bounded.
#[derive(Clone, Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<HostSpan>,
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder whose clock starts now.
    pub fn new() -> Self {
        Self::with_epoch(Instant::now())
    }

    /// A fresh recorder measuring time from an explicit epoch.
    ///
    /// Recorders whose spans will be merged with [`Recorder::absorb`] (a
    /// pipeline engine's successive telemetry snapshots, or recorders kept
    /// on different threads) should share an epoch so that their spans
    /// land on one consistent clock.
    pub fn with_epoch(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }

    /// The instant all span timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds elapsed since the epoch.
    pub fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    /// Records a completed span with explicit relative timestamps.
    /// Spans with `end_ns < start_ns` are clamped to zero length. Past
    /// [`registry::DEFAULT_SPAN_CAPACITY`] stored spans, the span is
    /// counted in `spans_dropped` instead.
    pub fn record_span(&mut self, stage: Stage, name: &str, start_ns: f64, end_ns: f64) {
        if self.spans.len() >= registry::DEFAULT_SPAN_CAPACITY {
            self.add("spans_dropped", 1.0);
            return;
        }
        self.spans.push(HostSpan {
            stage,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Starts a wall-clock span; call [`Recorder::finish_span`] with the
    /// returned token to record it.
    pub fn start_span(&self, stage: Stage, name: &str) -> SpanToken {
        SpanToken {
            stage,
            name: name.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Completes a span started with [`Recorder::start_span`].
    pub fn finish_span(&mut self, token: SpanToken) {
        let end_ns = self.now_ns();
        self.record_span(token.stage, &token.name, token.start_ns, end_ns);
    }

    /// Times a closure as a span and returns its result.
    pub fn time<T>(&mut self, stage: Stage, name: &str, f: impl FnOnce() -> T) -> T {
        let token = self.start_span(stage, name);
        let out = f();
        self.finish_span(token);
        out
    }

    /// All recorded spans, in completion order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Adds `delta` to a monotonically accumulating counter.
    pub fn add(&mut self, name: &str, delta: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// All counters.
    pub fn counters(&self) -> &BTreeMap<String, f64> {
        &self.counters
    }

    /// Sets a gauge to an absolute value (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Records one latency sample into the named histogram.
    pub fn observe(&mut self, name: &str, ns: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(ns);
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Appends an (x, y) point to the named series (e.g. per-round FIS
    /// size, x = round index).
    pub fn push_point(&mut self, name: &str, x: f64, y: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .push((x, y));
    }

    /// The named series, if non-empty.
    pub fn series(&self, name: &str) -> Option<&[(f64, f64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// All series.
    pub fn all_series(&self) -> &BTreeMap<String, Vec<(f64, f64)>> {
        &self.series
    }

    /// Merges another recorder's data into this one: spans keep their own
    /// relative timestamps (up to the span capacity; the rest count in
    /// `spans_dropped`), counters add, series concatenate, histograms
    /// merge bucket-wise, and `other`'s gauges win on name collisions.
    pub fn absorb(&mut self, mut other: Recorder) {
        let room = registry::DEFAULT_SPAN_CAPACITY.saturating_sub(self.spans.len());
        if other.spans.len() > room {
            let dropped = other.spans.len() - room;
            other.spans.truncate(room);
            self.add("spans_dropped", dropped as f64);
        }
        self.spans.extend(other.spans);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0.0) += v;
        }
        self.gauges.extend(other.gauges);
        for (k, s) in other.series {
            self.series.entry(k).or_default().extend(s);
        }
        for (k, h) in other.histograms {
            match self.histograms.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge(&h);
                }
            }
        }
    }

    /// Merges a pre-built histogram into the named slot (the registry
    /// snapshot path; equivalent to absorbing a recorder holding only
    /// this histogram).
    pub fn merge_histogram(&mut self, name: &str, h: Histogram) {
        match self.histograms.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(h);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().merge(&h);
            }
        }
    }

    /// Renders counters, gauges, histogram summaries, and series as one
    /// JSON object — the payload behind `repro`'s metrics output and the
    /// bench JSON emission.
    pub fn metrics_json(&self) -> Value {
        let mut root = Value::object();
        let mut counters = Value::object();
        for (k, v) in &self.counters {
            counters.set(k, Value::from(*v));
        }
        root.set("counters", counters);
        let mut gauges = Value::object();
        for (k, v) in &self.gauges {
            gauges.set(k, Value::from(*v));
        }
        root.set("gauges", gauges);
        let mut histograms = Value::object();
        for (k, h) in &self.histograms {
            let mut summary = Value::object();
            summary.set("count", Value::from(h.count()));
            summary.set("mean_ns", Value::from(h.mean_ns()));
            summary.set("min_ns", Value::from(h.min_ns()));
            summary.set("max_ns", Value::from(h.max_ns()));
            summary.set("p50_ns", Value::from(h.quantile_ns(0.5)));
            summary.set("p99_ns", Value::from(h.quantile_ns(0.99)));
            histograms.set(k, summary);
        }
        root.set("histograms", histograms);
        let mut series = Value::object();
        for (k, points) in &self.series {
            let items = points
                .iter()
                .map(|(x, y)| Value::Array(vec![Value::from(*x), Value::from(*y)]))
                .collect();
            series.set(k, Value::Array(items));
        }
        root.set("series", series);
        root
    }
}

/// Token for an in-flight span (see [`Recorder::start_span`]).
#[derive(Clone, Debug)]
pub struct SpanToken {
    stage: Stage,
    name: String,
    start_ns: f64,
}

/// Process id used for simulated-device rows in exported traces.
pub const TRACE_PID_DEVICE: u64 = 0;
/// Process id used for host wall-clock rows in exported traces.
pub const TRACE_PID_HOST: u64 = 1;

fn resource_tid(resource: Resource) -> u64 {
    match resource {
        Resource::Cpu => 0,
        Resource::PcieLink => 1,
        Resource::Gpu => 2,
    }
}

fn stage_tid(stage: Stage) -> u64 {
    match stage {
        Stage::Feed => 0,
        Stage::Transfer => 1,
        Stage::Generate => 2,
        Stage::App => 3,
    }
}

fn metadata_event(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Value {
    let mut ev = Value::object();
    ev.set("name", Value::from(name));
    ev.set("ph", Value::from("M"));
    ev.set("pid", Value::from(pid));
    if let Some(tid) = tid {
        ev.set("tid", Value::from(tid));
    }
    let mut args = Value::object();
    args.set("name", Value::from(value));
    ev.set("args", args);
    ev
}

fn duration_event(name: &str, cat: &str, pid: u64, tid: u64, start_ns: f64, end_ns: f64) -> Value {
    let mut ev = Value::object();
    ev.set("name", Value::from(name));
    ev.set("cat", Value::from(cat));
    ev.set("ph", Value::from("X"));
    ev.set("ts", Value::from(start_ns / 1_000.0));
    ev.set("dur", Value::from((end_ns - start_ns) / 1_000.0));
    ev.set("pid", Value::from(pid));
    ev.set("tid", Value::from(tid));
    ev
}

/// Builds a Chrome-trace (Perfetto-loadable) JSON document merging a
/// simulated [`Timeline`] with a [`Recorder`]'s host spans and counters.
///
/// Layout: process 0 carries the simulated device with one thread row per
/// [`Resource`] (CPU, PCIe, GPU); process 1 carries host wall-clock spans
/// with one thread row per [`Stage`]. Interval names are the `Display`
/// forms of [`WorkUnit`] ("FEED", "TRANSFER", "GENERATE", "OTHER"), so a
/// viewer shows the same labels as `Timeline::render_ascii`. Counters and
/// series become `ph: "C"` counter events; either input may be `None`.
///
/// Timestamps follow the trace-event spec: microseconds, `ph: "X"`
/// complete events with `dur`.
pub fn chrome_trace(timeline: Option<&Timeline>, recorder: Option<&Recorder>) -> Value {
    let mut events: Vec<Value> = Vec::new();

    events.push(metadata_event(
        "process_name",
        TRACE_PID_DEVICE,
        None,
        "simulated device (hprng-gpu-sim)",
    ));
    events.push(metadata_event("process_name", TRACE_PID_HOST, None, "host"));
    for resource in Resource::ALL {
        events.push(metadata_event(
            "thread_name",
            TRACE_PID_DEVICE,
            Some(resource_tid(resource)),
            &resource.to_string(),
        ));
    }
    for stage in Stage::ALL {
        events.push(metadata_event(
            "thread_name",
            TRACE_PID_HOST,
            Some(stage_tid(stage)),
            &format!("host {stage}"),
        ));
    }

    if let Some(timeline) = timeline {
        for interval in timeline.intervals() {
            events.push(duration_event(
                &interval.unit.to_string(),
                "sim",
                TRACE_PID_DEVICE,
                resource_tid(interval.resource),
                interval.start_ns,
                interval.end_ns,
            ));
        }
    }

    if let Some(recorder) = recorder {
        for span in recorder.spans() {
            events.push(duration_event(
                &span.name,
                "host",
                TRACE_PID_HOST,
                stage_tid(span.stage),
                span.start_ns,
                span.end_ns,
            ));
        }
        let end_ts = recorder
            .spans()
            .iter()
            .map(|s| s.end_ns)
            .fold(0.0, f64::max)
            / 1_000.0;
        for (name, value) in recorder.counters() {
            let mut ev = Value::object();
            ev.set("name", Value::from(name.as_str()));
            ev.set("ph", Value::from("C"));
            ev.set("ts", Value::from(end_ts));
            ev.set("pid", Value::from(TRACE_PID_HOST));
            let mut args = Value::object();
            args.set("value", Value::from(*value));
            ev.set("args", args);
            events.push(ev);
        }
        for (name, points) in recorder.all_series() {
            for (x, y) in points {
                let mut ev = Value::object();
                ev.set("name", Value::from(name.as_str()));
                ev.set("ph", Value::from("C"));
                ev.set("ts", Value::from(*x));
                ev.set("pid", Value::from(TRACE_PID_HOST));
                let mut args = Value::object();
                args.set("value", Value::from(*y));
                ev.set("args", args);
                events.push(ev);
            }
        }
    }

    let mut root = Value::object();
    root.set("traceEvents", Value::Array(events));
    root.set("displayTimeUnit", Value::from("ns"));
    root
}

/// Serializes [`chrome_trace`] output and writes it to `path`.
pub fn write_chrome_trace(
    path: &std::path::Path,
    timeline: Option<&Timeline>,
    recorder: Option<&Recorder>,
) -> std::io::Result<()> {
    let doc = chrome_trace(timeline, recorder);
    std::fs::write(path, doc.to_json())
}

/// Per-resource busy fractions reconstructed from an exported trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceBusy {
    /// Busy fraction of the simulated CPU row.
    pub cpu: f64,
    /// Busy fraction of the simulated PCIe row.
    pub pcie: f64,
    /// Busy fraction of the simulated GPU row.
    pub gpu: f64,
    /// Reconstructed makespan, nanoseconds.
    pub makespan_ns: f64,
}

/// Recomputes the simulated device's busy fractions from a parsed
/// Chrome-trace document, mirroring `Timeline::busy_fraction` semantics
/// (overlap-merged busy time over the latest interval end).
///
/// This is the acceptance check that the export is lossless: fractions
/// derived from the trace file must match `PipelineStats` to rounding.
pub fn busy_fractions(trace: &Value) -> Result<TraceBusy, json::ParseError> {
    let bad = |msg: &str| json::ParseError {
        at: 0,
        msg: msg.to_string(),
    };
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing traceEvents array"))?;
    // tid -> intervals in ns
    let mut rows: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut makespan_ns = 0.0f64;
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let pid = ev
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("X event without pid"))? as u64;
        if pid != TRACE_PID_DEVICE {
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("X event without tid"))? as u64;
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("X event without ts"))?;
        let dur = ev
            .get("dur")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("X event without dur"))?;
        let start_ns = ts * 1_000.0;
        let end_ns = (ts + dur) * 1_000.0;
        rows.entry(tid).or_default().push((start_ns, end_ns));
        makespan_ns = makespan_ns.max(end_ns);
    }
    let busy_of = |tid: u64| -> f64 {
        let Some(spans) = rows.get(&tid) else {
            return 0.0;
        };
        let mut spans = spans.clone();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut busy = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in spans {
            match cur {
                None => cur = Some((s, e)),
                Some((cs, ce)) => {
                    if s <= ce {
                        cur = Some((cs, ce.max(e)));
                    } else {
                        busy += ce - cs;
                        cur = Some((s, e));
                    }
                }
            }
        }
        if let Some((cs, ce)) = cur {
            busy += ce - cs;
        }
        busy
    };
    let frac = |tid: u64| {
        if makespan_ns == 0.0 {
            0.0
        } else {
            busy_of(tid) / makespan_ns
        }
    };
    Ok(TraceBusy {
        cpu: frac(resource_tid(Resource::Cpu)),
        pcie: frac(resource_tid(Resource::PcieLink)),
        gpu: frac(resource_tid(Resource::Gpu)),
        makespan_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_work_unit_display() {
        for unit in [WorkUnit::Feed, WorkUnit::Transfer, WorkUnit::Generate] {
            let stage = Stage::from_work_unit(unit).unwrap();
            assert_eq!(stage.to_string(), unit.to_string());
        }
        assert!(Stage::from_work_unit(WorkUnit::Other).is_none());
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        for ns in [100.0, 200.0, 400.0, 800.0] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean_ns(), 375.0);
        assert_eq!(h.min_ns(), 100.0);
        assert_eq!(h.max_ns(), 800.0);
        assert!(h.quantile_ns(0.5) >= 100.0 && h.quantile_ns(0.5) <= 800.0);
        assert_eq!(h.quantile_ns(1.0), 800.0);
    }

    #[test]
    fn histogram_quantiles_on_empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile_ns(q), 0.0);
        }
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0.0);
        assert_eq!(h.max_ns(), 0.0);
        assert_eq!(h.sum_ns(), 0.0);
        assert!(h.bucket_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn histogram_quantile_extremes_are_exact_min_max() {
        let mut h = Histogram::new();
        for ns in [3.0, 900.0, 17.0, 65_000.0] {
            h.record(ns);
        }
        // q=0 and q=1 return the exact observed extremes, not bucket
        // edges; out-of-range q clamps.
        assert_eq!(h.quantile_ns(0.0), 3.0);
        assert_eq!(h.quantile_ns(1.0), 65_000.0);
        assert_eq!(h.quantile_ns(-0.5), 3.0);
        assert_eq!(h.quantile_ns(2.0), 65_000.0);
        // Interior quantiles stay within the observed range.
        let p50 = h.quantile_ns(0.5);
        assert!((3.0..=65_000.0).contains(&p50));
    }

    #[test]
    fn histogram_single_sample_quantiles() {
        let mut h = Histogram::new();
        h.record(1_000.0);
        assert_eq!(h.count(), 1);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 1_000.0, "q={q}");
        }
        assert_eq!(h.mean_ns(), 1_000.0);
    }

    #[test]
    fn histogram_negative_and_subnanosecond_samples_clamp_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(-5.0);
        h.record(0.25);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.min_ns(), 0.0);
    }

    #[test]
    fn metrics_json_full_roundtrip() {
        // Every section of the metrics document survives
        // serialize → parse with values intact.
        let mut r = Recorder::new();
        r.add("iterations", 3.0);
        r.set_gauge("gpu_busy", 0.25);
        r.observe("lat", 100.0);
        r.observe("lat", 700.0);
        r.push_point("live", 0.0, 10.0);
        r.push_point("live", 1.0, 4.0);
        let parsed = json::parse(&r.metrics_json().to_json()).unwrap();
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("gpu_busy"))
                .and_then(Value::as_f64),
            Some(0.25)
        );
        let hist = parsed.get("histograms").and_then(|h| h.get("lat")).unwrap();
        assert_eq!(hist.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(hist.get("mean_ns").and_then(Value::as_f64), Some(400.0));
        assert_eq!(hist.get("min_ns").and_then(Value::as_f64), Some(100.0));
        assert_eq!(hist.get("max_ns").and_then(Value::as_f64), Some(700.0));
        let series = parsed
            .get("series")
            .and_then(|s| s.get("live"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[1].as_array().unwrap()[1].as_f64(), Some(4.0));
    }

    #[test]
    fn recorder_counters_and_series() {
        let mut r = Recorder::new();
        r.add("feed_words", 10.0);
        r.add("feed_words", 5.0);
        assert_eq!(r.counter("feed_words"), 15.0);
        r.set_gauge("gnumbers_per_s", 1.5);
        assert_eq!(r.gauge("gnumbers_per_s"), Some(1.5));
        r.push_point("fis_live", 0.0, 100.0);
        r.push_point("fis_live", 1.0, 37.0);
        assert_eq!(r.series("fis_live").unwrap().len(), 2);
    }

    #[test]
    fn recorder_absorb_merges() {
        let mut a = Recorder::new();
        a.add("n", 1.0);
        a.observe("lat", 100.0);
        let mut b = Recorder::new();
        b.add("n", 2.0);
        b.observe("lat", 300.0);
        b.record_span(Stage::App, "phase", 0.0, 10.0);
        a.absorb(b);
        assert_eq!(a.counter("n"), 3.0);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert_eq!(a.spans().len(), 1);
    }

    #[test]
    fn recorder_spans_stop_at_the_registry_capacity() {
        let cap = registry::DEFAULT_SPAN_CAPACITY;
        let mut a = Recorder::new();
        for i in 0..cap + 3 {
            a.record_span(Stage::Feed, "feed", i as f64, i as f64 + 1.0);
        }
        assert_eq!(a.spans().len(), cap);
        assert_eq!(a.counter("spans_dropped"), 3.0);

        // Absorbing keeps what fits and counts the rest, on top of the
        // other recorder's own drops.
        let mut b = Recorder::new();
        for i in 0..cap - 2 {
            b.record_span(Stage::App, "app", i as f64, i as f64);
        }
        let mut c = Recorder::new();
        for i in 0..5 {
            c.record_span(Stage::App, "app", i as f64, i as f64);
        }
        c.add("spans_dropped", 7.0);
        b.absorb(c);
        assert_eq!(b.spans().len(), cap);
        assert_eq!(b.counter("spans_dropped"), 10.0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_monotonic_spans() {
        let mut timeline = Timeline::default();
        timeline.record(Resource::Cpu, WorkUnit::Feed, 0.0, 50.0);
        timeline.record(Resource::PcieLink, WorkUnit::Transfer, 50.0, 70.0);
        timeline.record(Resource::Gpu, WorkUnit::Generate, 70.0, 170.0);
        let mut rec = Recorder::new();
        rec.record_span(Stage::App, "batch", 0.0, 200.0);
        rec.add("numbers", 128.0);

        let doc = chrome_trace(Some(&timeline), Some(&rec));
        let text = doc.to_json();
        let parsed = json::parse(&text).expect("exporter must emit valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();

        let mut seen_units = Vec::new();
        for ev in events {
            if ev.get("ph").and_then(Value::as_str) == Some("X") {
                let ts = ev.get("ts").unwrap().as_f64().unwrap();
                let dur = ev.get("dur").unwrap().as_f64().unwrap();
                assert!(ts >= 0.0 && dur >= 0.0, "non-monotonic span");
                seen_units.push(ev.get("name").unwrap().as_str().unwrap().to_string());
            }
        }
        // Stage names in the trace match the WorkUnit display variants.
        for expected in ["FEED", "TRANSFER", "GENERATE"] {
            assert!(
                seen_units.iter().any(|n| n == expected),
                "missing {expected}"
            );
        }
    }

    #[test]
    fn busy_fractions_roundtrip_matches_timeline() {
        let mut timeline = Timeline::default();
        // Overlapping CPU intervals exercise the merge logic.
        timeline.record(Resource::Cpu, WorkUnit::Feed, 0.0, 60.0);
        timeline.record(Resource::Cpu, WorkUnit::Feed, 40.0, 100.0);
        timeline.record(Resource::PcieLink, WorkUnit::Transfer, 100.0, 130.0);
        timeline.record(Resource::Gpu, WorkUnit::Generate, 130.0, 400.0);
        let doc = chrome_trace(Some(&timeline), None);
        let parsed = json::parse(&doc.to_json()).unwrap();
        let busy = busy_fractions(&parsed).unwrap();
        assert!((busy.cpu - timeline.busy_fraction(Resource::Cpu)).abs() < 1e-9);
        assert!((busy.pcie - timeline.busy_fraction(Resource::PcieLink)).abs() < 1e-9);
        assert!((busy.gpu - timeline.busy_fraction(Resource::Gpu)).abs() < 1e-9);
        assert!((busy.makespan_ns - timeline.makespan_ns()).abs() < 1e-6);
    }

    #[test]
    fn metrics_json_roundtrips_through_parser() {
        let mut r = Recorder::new();
        r.add("iterations", 7.0);
        r.observe("batch_latency_ns", 1_234.0);
        r.push_point("fis_live", 0.0, 9.0);
        r.set_gauge("cpu_busy", 0.93);
        let doc = r.metrics_json();
        let parsed = json::parse(&doc.to_json()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("iterations"))
                .and_then(Value::as_f64),
            Some(7.0)
        );
        assert_eq!(
            parsed
                .get("histograms")
                .and_then(|h| h.get("batch_latency_ns"))
                .and_then(|h| h.get("count"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
    }
}
