//! Streaming quality sentinels for the hybrid PRNG pipeline.
//!
//! The paper argues its expander-walk generator is fast *and*
//! statistically sound, but the `stattests` batteries only judge quality
//! offline, after the fact. Production use (ROADMAP north star) needs the
//! inverse: continuous, low-overhead monitoring at the point of use, the
//! failure mode highlighted by Shoverand's manycore-misuse taxonomy and
//! the MT-initialization literature — bad seeding and correlated
//! sub-streams that one-shot batteries never see.
//!
//! This crate provides:
//!
//! * [`sentinels`] — O(1)-state streaming versions of the bit-level
//!   tests (monobit, runs, serial correlation at lags 1..=8, 8-bit byte
//!   entropy), each with windowed *and* cumulative z-scores/p-values,
//!   sharing `hprng-stattests`' special-function kernels.
//! * [`clash::InterStreamClash`] — a sliding-window cross-lane duplicate
//!   detector generalizing the paper's Monte-Carlo "weight clash" count.
//! * [`QualityMonitor`] — the sentinels behind a configurable 1-in-N
//!   sampling policy, drift thresholds, and an [`AlertSink`].
//! * [`MonitorHandle`] — a clonable `Arc<Mutex<…>>` wrapper implementing
//!   [`WordTap`], so a `HybridSession` (or the list-ranking/Monte-Carlo
//!   loops) owns one tap while the caller keeps a handle to poll status,
//!   drain alerts, and export gauges/series into a
//!   [`Recorder`].
//! * [`refstreams`] — known-bad reference streams (constant, glibc-LCG
//!   low bits) used for sentinel self-validation.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

pub mod clash;
pub mod refstreams;
pub mod sentinels;

use std::fmt;
use std::sync::{Arc, Mutex};

use clash::InterStreamClash;
use hprng_telemetry::{Recorder, WordTap};
use sentinels::{ByteEntropy, Monobit, Runs, Score, SerialCorrelation};

/// Sampling, windowing and alerting policy for a [`QualityMonitor`].
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Keep 1 word in `sample_every` (1 = inspect everything). The
    /// overhead model is linear: tap cost ≈ sampled words × ~30 ns.
    pub sample_every: u64,
    /// Sampled words per evaluation window. Windows are where alerts
    /// fire: small windows react fast, large windows resolve small
    /// biases.
    pub window_words: u64,
    /// Alert when a sentinel's |z| reaches this. The default 6σ
    /// (p ≈ 2·10⁻⁹) keeps the false-positive rate negligible even after
    /// thousands of windows × sentinels.
    pub z_threshold: f64,
    /// Alert when a sentinel's p-value falls to or below this
    /// (equivalent tail bound for the chi-square-shaped sentinels).
    pub p_threshold: f64,
    /// Alert when cross-lane clashes exceed this count. For independent
    /// 64-bit streams the expectation is ≈ 0, so small values are safe.
    pub max_clashes: u64,
    /// Sliding-window size (distinct words) of the clash detector.
    pub clash_window: usize,
    /// Alerts retained for [`MonitorHandle::drain_alerts`]; the total
    /// count keeps incrementing past this.
    pub max_alerts: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            sample_every: 64,
            window_words: 1024,
            z_threshold: 6.0,
            p_threshold: 1e-9,
            max_clashes: 4,
            clash_window: 8192,
            max_alerts: 256,
        }
    }
}

impl MonitorConfig {
    /// A config sampling 1 word in `n`.
    pub fn sampling(n: u64) -> Self {
        Self {
            sample_every: n.max(1),
            ..Self::default()
        }
    }
}

/// Whether an alert came from a window or from the cumulative history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// The just-closed evaluation window.
    Window,
    /// Everything since the monitor attached.
    Cumulative,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Window => write!(f, "window"),
            Scope::Cumulative => write!(f, "cumulative"),
        }
    }
}

/// One threshold crossing.
#[derive(Clone, Debug)]
pub struct Alert {
    /// Which sentinel fired (`"monobit"`, `"runs"`, `"serial_lag3"`,
    /// `"byte_entropy"`, `"clash"`).
    pub sentinel: String,
    /// Window or cumulative statistics.
    pub scope: Scope,
    /// The offending z-score.
    pub z: f64,
    /// Its p-value.
    pub p: f64,
    /// Evaluation-window index at which the alert fired.
    pub window: u64,
    /// Human-readable one-liner.
    pub message: String,
}

/// Where alerts go, besides being retained for
/// [`MonitorHandle::drain_alerts`].
pub enum AlertSink {
    /// Retain only (the default).
    Collect,
    /// Write each alert to stderr.
    Log,
    /// Invoke a callback per alert.
    Callback(Box<dyn FnMut(&Alert) + Send>),
    /// Panic on the first alert — for pipelines where bad randomness
    /// must abort the computation rather than taint results.
    FailFast,
}

impl fmt::Debug for AlertSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertSink::Collect => write!(f, "Collect"),
            AlertSink::Log => write!(f, "Log"),
            AlertSink::Callback(_) => write!(f, "Callback(..)"),
            AlertSink::FailFast => write!(f, "FailFast"),
        }
    }
}

/// Per-sentinel snapshot inside a [`MonitorStatus`].
#[derive(Clone, Copy, Debug)]
pub struct SentinelStatus {
    /// Sentinel name.
    pub name: &'static str,
    /// Score since attach.
    pub cumulative: Score,
    /// Score over the current (possibly partial) window.
    pub window: Score,
}

/// A point-in-time snapshot of everything the monitor knows.
#[derive(Clone, Debug)]
pub struct MonitorStatus {
    /// Words offered to the tap (sampled or not).
    pub words_seen: u64,
    /// Words actually inspected.
    pub words_sampled: u64,
    /// Completed evaluation windows.
    pub windows: u64,
    /// One entry per bit-level sentinel.
    pub sentinels: Vec<SentinelStatus>,
    /// Worst serial-correlation lag (1..=8) backing the `serial` entry.
    pub worst_serial_lag: usize,
    /// Cumulative empirical byte entropy, bits/byte (ideal: 8.0).
    pub entropy_bits: f64,
    /// Cross-lane clashes observed.
    pub clashes: u64,
    /// Total alerts fired since attach.
    pub alerts: u64,
}

impl MonitorStatus {
    /// True when no alert has fired.
    pub fn healthy(&self) -> bool {
        self.alerts == 0
    }

    /// The largest cumulative |z| across sentinels.
    pub fn worst_z(&self) -> f64 {
        self.sentinels
            .iter()
            .map(|s| s.cumulative.z.abs())
            .fold(0.0, f64::max)
    }

    /// Renders a fixed-width terminal dashboard block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "words seen {:>12}   sampled {:>10}   windows {:>5}   clashes {:>4}   alerts {:>4}\n",
            self.words_seen, self.words_sampled, self.windows, self.clashes, self.alerts
        ));
        out.push_str(&format!("entropy {:.4} bits/byte\n", self.entropy_bits));
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>12} {:>12}\n",
            "sentinel", "cum z", "cum p", "win z", "win p"
        ));
        for s in &self.sentinels {
            out.push_str(&format!(
                "{:<14} {:>12.3} {:>12.3e} {:>12.3} {:>12.3e}\n",
                s.name, s.cumulative.z, s.cumulative.p, s.window.z, s.window.p
            ));
        }
        out
    }
}

/// One record per completed window, kept for series export.
#[derive(Clone, Copy, Debug)]
struct WindowRecord {
    worst_z: f64,
    clashes: u64,
    alerts: u64,
}

/// The streaming sentinels behind a sampling policy.
///
/// Not usually used directly: wrap it in a [`MonitorHandle`] to get a
/// [`WordTap`] plus a query handle. Direct use is for single-threaded
/// callers that own both the stream and the monitor.
#[derive(Debug)]
pub struct QualityMonitor {
    cfg: MonitorConfig,
    sink: AlertSink,
    monobit: Monobit,
    runs: Runs,
    serial: SerialCorrelation,
    entropy: ByteEntropy,
    clash: InterStreamClash,
    clashes_reported: u64,
    words_seen: u64,
    words_sampled: u64,
    win_sampled: u64,
    window_index: u64,
    alerts: Vec<Alert>,
    total_alerts: u64,
    history: Vec<WindowRecord>,
}

impl QualityMonitor {
    /// A monitor with the given policy and the default `Collect` sink.
    pub fn new(cfg: MonitorConfig) -> Self {
        Self::with_sink(cfg, AlertSink::Collect)
    }

    /// A monitor routing alerts to `sink`.
    pub fn with_sink(cfg: MonitorConfig, sink: AlertSink) -> Self {
        let clash = InterStreamClash::new(cfg.clash_window);
        Self {
            cfg,
            sink,
            monobit: Monobit::default(),
            runs: Runs::default(),
            serial: SerialCorrelation::default(),
            entropy: ByteEntropy::default(),
            clash,
            clashes_reported: 0,
            words_seen: 0,
            words_sampled: 0,
            win_sampled: 0,
            window_index: 0,
            alerts: Vec::new(),
            total_alerts: 0,
            history: Vec::new(),
        }
    }

    /// Observes a batch; the index of a word in `words` is its lane.
    pub fn observe(&mut self, words: &[u64]) {
        let every = self.cfg.sample_every.max(1);
        for (i, &w) in words.iter().enumerate() {
            let idx = self.words_seen + i as u64;
            if !idx.is_multiple_of(every) {
                continue;
            }
            self.monobit.push_word(w);
            self.runs.push_word(w);
            self.serial.push_word(w);
            self.entropy.push_word(w);
            self.clash.observe(i as u32, w);
            self.words_sampled += 1;
            self.win_sampled += 1;
            if self.win_sampled >= self.cfg.window_words {
                self.close_window();
            }
        }
        self.words_seen += words.len() as u64;
    }

    /// Forces an evaluation of the current partial window plus the
    /// cumulative statistics — call at end-of-run so short streams
    /// (smaller than one window) still get judged.
    pub fn check_now(&mut self) {
        if self.win_sampled > 0 {
            self.close_window();
        } else {
            self.evaluate(true);
        }
    }

    fn close_window(&mut self) {
        self.evaluate(false);
        self.monobit.reset_window();
        self.runs.reset_window();
        self.serial.reset_window();
        self.entropy.reset_window();
        self.win_sampled = 0;
        self.window_index += 1;
    }

    /// Evaluates all sentinels; `cumulative_only` skips window scores
    /// (used when no window data exists).
    fn evaluate(&mut self, cumulative_only: bool) {
        let (worst_lag, serial_cum) = self.serial.cumulative();
        let (win_lag, serial_win) = self.serial.window();
        let checks: Vec<(String, Scope, Score)> = {
            let mut v = Vec::with_capacity(8);
            v.push((
                "monobit".to_string(),
                Scope::Cumulative,
                self.monobit.cumulative(),
            ));
            v.push((
                "runs".to_string(),
                Scope::Cumulative,
                self.runs.cumulative(),
            ));
            v.push((
                format!("serial_lag{worst_lag}"),
                Scope::Cumulative,
                serial_cum,
            ));
            v.push((
                "byte_entropy".to_string(),
                Scope::Cumulative,
                self.entropy.cumulative(),
            ));
            if !cumulative_only {
                v.push(("monobit".to_string(), Scope::Window, self.monobit.window()));
                v.push(("runs".to_string(), Scope::Window, self.runs.window()));
                v.push((format!("serial_lag{win_lag}"), Scope::Window, serial_win));
                v.push((
                    "byte_entropy".to_string(),
                    Scope::Window,
                    self.entropy.window(),
                ));
            }
            v
        };
        let mut worst_z = 0.0f64;
        for (name, scope, score) in checks {
            worst_z = worst_z.max(score.z.abs());
            if score.n > 0
                && (score.z.abs() >= self.cfg.z_threshold || score.p <= self.cfg.p_threshold)
            {
                let alert = Alert {
                    message: format!(
                        "{name} {scope} drift: z={:.2} p={:.3e} over n={}",
                        score.z, score.p, score.n
                    ),
                    sentinel: name,
                    scope,
                    z: score.z,
                    p: score.p,
                    window: self.window_index,
                };
                self.emit(alert);
            }
        }
        let clashes = self.clash.clashes();
        if clashes > self.cfg.max_clashes && clashes > self.clashes_reported {
            self.clashes_reported = clashes;
            let detail = self
                .clash
                .last_clash()
                .map(|(w, a, b)| format!(" (e.g. {w:#018x} on lanes {a} and {b})"))
                .unwrap_or_default();
            let alert = Alert {
                sentinel: "clash".to_string(),
                scope: Scope::Cumulative,
                z: clashes as f64,
                p: 0.0,
                window: self.window_index,
                message: format!(
                    "{clashes} cross-lane clashes over {} sampled words{detail}",
                    self.words_sampled
                ),
            };
            self.emit(alert);
        }
        self.history.push(WindowRecord {
            worst_z,
            clashes,
            alerts: self.total_alerts,
        });
    }

    fn emit(&mut self, alert: Alert) {
        self.total_alerts += 1;
        match &mut self.sink {
            AlertSink::Collect => {}
            AlertSink::Log => eprintln!("[hprng-monitor] ALERT {}", alert.message),
            AlertSink::Callback(f) => f(&alert),
            AlertSink::FailFast => panic!("hprng-monitor fail-fast alert: {}", alert.message),
        }
        if self.alerts.len() < self.cfg.max_alerts {
            self.alerts.push(alert);
        }
    }

    /// Snapshot of the current state (does not fire alerts).
    pub fn status(&self) -> MonitorStatus {
        let (worst_lag, serial_cum) = self.serial.cumulative();
        let (_, serial_win) = self.serial.window();
        MonitorStatus {
            words_seen: self.words_seen,
            words_sampled: self.words_sampled,
            windows: self.window_index,
            sentinels: vec![
                SentinelStatus {
                    name: "monobit",
                    cumulative: self.monobit.cumulative(),
                    window: self.monobit.window(),
                },
                SentinelStatus {
                    name: "runs",
                    cumulative: self.runs.cumulative(),
                    window: self.runs.window(),
                },
                SentinelStatus {
                    name: "serial",
                    cumulative: serial_cum,
                    window: serial_win,
                },
                SentinelStatus {
                    name: "byte_entropy",
                    cumulative: self.entropy.cumulative(),
                    window: self.entropy.window(),
                },
            ],
            worst_serial_lag: worst_lag,
            entropy_bits: self.entropy.entropy_bits(),
            clashes: self.clash.clashes(),
            alerts: self.total_alerts,
        }
    }

    /// Removes and returns retained alerts.
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }

    /// Total alerts fired (including any past the retention cap).
    pub fn alert_count(&self) -> u64 {
        self.total_alerts
    }

    /// Exports the monitor's state into a [`Recorder`]: one
    /// `monitor_*` gauge per headline figure plus per-window series
    /// (`monitor_worst_z`, `monitor_clashes`, `monitor_alerts`) so
    /// quality history lands on the same timeline as the pipeline spans.
    /// Intended to be called once, at end-of-run or per scrape into a
    /// fresh recorder.
    pub fn export_to(&self, recorder: &mut Recorder) {
        let status = self.status();
        recorder.set_gauge("monitor_words_seen", status.words_seen as f64);
        recorder.set_gauge("monitor_words_sampled", status.words_sampled as f64);
        recorder.set_gauge("monitor_windows", status.windows as f64);
        recorder.set_gauge("monitor_clashes", status.clashes as f64);
        recorder.set_gauge("monitor_alerts", status.alerts as f64);
        recorder.set_gauge("monitor_entropy_bits", status.entropy_bits);
        for s in &status.sentinels {
            recorder.set_gauge(&format!("monitor_{}_z", s.name), s.cumulative.z);
            recorder.set_gauge(&format!("monitor_{}_p", s.name), s.cumulative.p);
        }
        for (i, rec) in self.history.iter().enumerate() {
            let x = i as f64;
            recorder.push_point("monitor_worst_z", x, rec.worst_z);
            recorder.push_point("monitor_clashes", x, rec.clashes as f64);
            recorder.push_point("monitor_alerts", x, rec.alerts as f64);
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }
}

/// Clonable handle to a shared [`QualityMonitor`].
///
/// The handle itself implements [`WordTap`], so one clone can be boxed
/// into a session (`session.set_tap(Box::new(handle.clone()))`) while
/// the caller keeps another to poll [`MonitorHandle::status`] or drain
/// alerts concurrently.
#[derive(Clone, Debug)]
pub struct MonitorHandle(Arc<Mutex<QualityMonitor>>);

impl MonitorHandle {
    /// A shared monitor with the default `Collect` sink.
    pub fn new(cfg: MonitorConfig) -> Self {
        Self(Arc::new(Mutex::new(QualityMonitor::new(cfg))))
    }

    /// A shared monitor routing alerts to `sink`.
    pub fn with_sink(cfg: MonitorConfig, sink: AlertSink) -> Self {
        Self(Arc::new(Mutex::new(QualityMonitor::with_sink(cfg, sink))))
    }

    /// A boxed tap clone, ready for `HybridSession::set_tap`.
    pub fn tap(&self) -> Box<dyn WordTap> {
        Box::new(self.clone())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QualityMonitor> {
        // A sentinel panicking through the lock (FailFast) must not turn
        // every later status query into a second panic.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// See [`QualityMonitor::status`].
    pub fn status(&self) -> MonitorStatus {
        self.lock().status()
    }

    /// See [`QualityMonitor::check_now`].
    pub fn check_now(&self) {
        self.lock().check_now();
    }

    /// See [`QualityMonitor::drain_alerts`].
    pub fn drain_alerts(&self) -> Vec<Alert> {
        self.lock().drain_alerts()
    }

    /// See [`QualityMonitor::alert_count`].
    pub fn alert_count(&self) -> u64 {
        self.lock().alert_count()
    }

    /// See [`QualityMonitor::export_to`].
    pub fn export_to(&self, recorder: &mut Recorder) {
        self.lock().export_to(recorder);
    }
}

impl WordTap for MonitorHandle {
    fn observe(&mut self, words: &[u64]) {
        self.lock().observe(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprng_baselines::{Mt19937_64, SplitMix64};
    use rand_core::RngCore;

    fn feed_rng(
        monitor: &mut QualityMonitor,
        rng: &mut impl RngCore,
        batches: usize,
        lanes: usize,
    ) {
        for _ in 0..batches {
            let words: Vec<u64> = (0..lanes).map(|_| rng.next_u64()).collect();
            monitor.observe(&words);
        }
    }

    fn smoke_config() -> MonitorConfig {
        MonitorConfig {
            sample_every: 4,
            window_words: 512,
            ..MonitorConfig::default()
        }
    }

    #[test]
    fn healthy_generator_raises_no_alerts() {
        let mut m = QualityMonitor::new(smoke_config());
        let mut rng = SplitMix64::new(42);
        feed_rng(&mut m, &mut rng, 200, 256);
        m.check_now();
        assert_eq!(m.alert_count(), 0, "alerts: {:?}", m.drain_alerts());
        let status = m.status();
        assert!(status.healthy());
        assert!(status.entropy_bits > 7.9);
        assert_eq!(status.words_seen, 200 * 256);
        assert_eq!(status.words_sampled, 200 * 256 / 4);
    }

    #[test]
    fn mt19937_raises_no_alerts() {
        let mut m = QualityMonitor::new(smoke_config());
        let mut rng = Mt19937_64::new(5489);
        feed_rng(&mut m, &mut rng, 200, 256);
        m.check_now();
        assert_eq!(m.alert_count(), 0, "alerts: {:?}", m.drain_alerts());
    }

    #[test]
    fn constant_stream_trips_alerts_fast() {
        let mut m = QualityMonitor::new(smoke_config());
        let words = vec![0xDEAD_BEEF_DEAD_BEEFu64; 256];
        for _ in 0..40 {
            m.observe(&words);
        }
        m.check_now();
        assert!(m.alert_count() > 0);
        let alerts = m.drain_alerts();
        // Entropy collapses and every lane clashes with lane 0.
        assert!(alerts.iter().any(|a| a.sentinel == "byte_entropy"));
        assert!(alerts.iter().any(|a| a.sentinel == "clash"));
    }

    #[test]
    fn sub_window_stream_is_judged_by_check_now() {
        let mut m = QualityMonitor::new(MonitorConfig {
            sample_every: 1,
            ..MonitorConfig::default()
        });
        // Far less than one window of data.
        m.observe(&vec![u64::MAX; 300]);
        assert_eq!(m.alert_count(), 0, "no alert before evaluation");
        m.check_now();
        assert!(m.alert_count() > 0, "check_now must evaluate partials");
    }

    #[test]
    fn sampling_skips_words_deterministically() {
        let mut m = QualityMonitor::new(MonitorConfig::sampling(8));
        m.observe(&[1u64; 20]);
        m.observe(&[2u64; 20]);
        // Global indices 0,8,16,24,32 → 5 samples over 40 words.
        assert_eq!(m.status().words_sampled, 5);
        assert_eq!(m.status().words_seen, 40);
    }

    #[test]
    fn callback_sink_sees_every_alert() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let sink = AlertSink::Callback(Box::new(move |a: &Alert| {
            seen2.lock().unwrap().push(a.sentinel.clone());
        }));
        let mut m = QualityMonitor::with_sink(smoke_config(), sink);
        m.observe(&vec![0u64; 4096]);
        m.check_now();
        let names = seen.lock().unwrap();
        assert!(!names.is_empty());
        assert!(names.iter().any(|n| n == "monobit"));
    }

    #[test]
    #[should_panic(expected = "fail-fast alert")]
    fn fail_fast_sink_panics() {
        let mut m = QualityMonitor::with_sink(smoke_config(), AlertSink::FailFast);
        m.observe(&vec![0u64; 8192]);
        m.check_now();
    }

    #[test]
    fn handle_is_shared_between_tap_and_caller() {
        let handle = MonitorHandle::new(smoke_config());
        let mut tap = handle.tap();
        let mut rng = SplitMix64::new(9);
        let words: Vec<u64> = (0..4096).map(|_| rng.next()).collect();
        tap.observe(&words);
        // The caller's clone sees what the boxed tap absorbed.
        assert_eq!(handle.status().words_seen, 4096);
        handle.check_now();
        assert_eq!(handle.alert_count(), 0);
    }

    #[test]
    fn export_populates_gauges_and_series() {
        let handle = MonitorHandle::new(MonitorConfig {
            sample_every: 1,
            window_words: 256,
            ..MonitorConfig::default()
        });
        let mut tap = handle.tap();
        let mut rng = SplitMix64::new(3);
        for _ in 0..8 {
            let words: Vec<u64> = (0..256).map(|_| rng.next()).collect();
            tap.observe(&words);
        }
        let mut rec = Recorder::new();
        handle.export_to(&mut rec);
        assert_eq!(rec.gauge("monitor_words_seen"), Some(2048.0));
        assert!(rec.gauge("monitor_monobit_z").is_some());
        assert!(rec.gauge("monitor_entropy_bits").unwrap() > 7.0);
        assert_eq!(rec.series("monitor_worst_z").unwrap().len(), 8);
    }

    #[test]
    fn status_render_is_a_table() {
        let mut m = QualityMonitor::new(MonitorConfig::sampling(1));
        let mut rng = SplitMix64::new(1);
        feed_rng(&mut m, &mut rng, 8, 512);
        let text = m.status().render();
        for needle in ["monobit", "runs", "serial", "byte_entropy", "entropy"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
