//! One benchmark for the serving pool and both applications.
//!
//! ```text
//! perfbench --workload <serve_walk|serve_cheap|listrank|photon>
//!           --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrument in the
//! program. `--trace 1` first repeats that untraced measurement for half
//! the time, then runs the same workload with timing wrappers around the
//! calls between layers and prints the per-layer ledger, writing the
//! traced spans to `.bench_out/` as a Chrome trace. Human-readable lines
//! come first; the last line of standard output is one JSON object.
//! Metric definitions are in `README.md` beside this package.

mod ledger;
mod listrank;
mod photon;
mod serve;
mod stats;

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::sync::Arc;

use ledger::Ledger;
use stats::{median, Latencies};

const USAGE: &str = "usage: perfbench --workload <serve_walk|serve_cheap|listrank|photon> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// The end-to-end metrics, printed with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("words_per_s", "words/s"),
    ("items_per_s", "1/s"),
    ("request_p50_us", "us"),
    ("request_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, printed by the traced run. Layers a workload
/// bypasses read zero.
const PER_LAYER: [(&str, &str); 37] = [
    ("feed.words", "count"),
    ("feed.busy_s", "s"),
    ("feed.ns_per_word", "ns/word"),
    ("walk.words", "count"),
    ("walk.busy_s", "s"),
    ("walk.ns_per_word", "ns/word"),
    ("walk.ns_per_step", "ns/step"),
    ("walk.raw_words_per_word", "words/word"),
    ("walk.lane_setup_us", "us"),
    ("engine.batches", "count"),
    ("engine.words", "count"),
    ("engine.busy_s", "s"),
    ("engine.ns_per_word", "ns/word"),
    ("engine.init_s", "s"),
    ("engine.self_s", "s"),
    ("listrank.iterations", "count"),
    ("listrank.draws", "count"),
    ("listrank.self_s", "s"),
    ("montecarlo.draws", "count"),
    ("montecarlo.interactions", "count"),
    ("montecarlo.self_s", "s"),
    ("pool.refills", "count"),
    ("pool.words", "count"),
    ("pool.errors", "count"),
    ("pool.service_s", "s"),
    ("pool.service_mean_us", "us"),
    ("pool.busy_frac", "fraction"),
    ("transport.ring_wait_s", "s"),
    ("transport.ring_wait_mean_us", "us"),
    ("client.requests", "count"),
    ("client.busy_s", "s"),
    ("client.copy_s", "s"),
    ("client.wait_s", "s"),
    ("client.replays", "count"),
    ("client.stalls", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.residual_s", "s"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ServeWalk,
    ServeCheap,
    Listrank,
    Photon,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Self::ServeWalk => "serve_walk",
            Self::ServeCheap => "serve_cheap",
            Self::Listrank => "listrank",
            Self::Photon => "photon",
        }
    }

    fn parse(name: &str) -> Result<Self, String> {
        [
            Self::ServeWalk,
            Self::ServeCheap,
            Self::Listrank,
            Self::Photon,
        ]
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name:?}"))
    }

    /// What one item of `items_per_s` is.
    fn item(self) -> &'static str {
        match self {
            Self::ServeWalk | Self::ServeCheap => "requests",
            Self::Listrank => "nodes",
            Self::Photon => "photons",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds {seconds} is outside (0, 120]"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one phase (untraced or traced) of a workload measured.
pub struct Phase {
    pub reps: u64,
    /// One set-up time per repetition.
    pub setup_ns: Vec<u64>,
    /// Per repetition: random words the caller consumed, and requests,
    /// list nodes or photons completed, each per second of its timed part.
    words_per_s: Vec<f64>,
    items_per_s: Vec<f64>,
    pub latencies: Latencies,
    pub attempted: u64,
    pub failed: u64,
    /// Traced phases only: the layer totals over all repetitions.
    pub layers: Layers,
}

impl Default for Phase {
    fn default() -> Self {
        Self {
            reps: 0,
            setup_ns: Vec::new(),
            words_per_s: Vec::new(),
            items_per_s: Vec::new(),
            latencies: Latencies::new(),
            attempted: 0,
            failed: 0,
            layers: Layers::default(),
        }
    }
}

impl Phase {
    /// Records one finished repetition's set-up and timed part.
    pub fn rep(&mut self, setup_ns: u64, wall_ns: u64, words: u64, items: u64) {
        let wall_s = wall_ns as f64 / 1e9;
        self.reps += 1;
        self.setup_ns.push(setup_ns);
        self.words_per_s.push(words as f64 / wall_s);
        self.items_per_s.push(items as f64 / wall_s);
    }

    /// Median over repetitions, so a burst of interference from other
    /// processes moves one repetition, not the result.
    fn items_per_s(&self) -> f64 {
        median(&self.items_per_s)
    }
}

/// Counts that must repeat exactly in every repetition at one seed,
/// traced or not. A later change may rest a count claim on them only if
/// they do, so any difference fails the run.
#[derive(Default)]
pub struct Canaries {
    first: BTreeMap<&'static str, u64>,
    broken: BTreeSet<&'static str>,
    walk_seen: (u64, u64),
}

impl Canaries {
    pub fn check(&mut self, counts: &[(&'static str, u64)]) {
        for &(name, value) in counts {
            match self.first.get(name) {
                None => {
                    self.first.insert(name, value);
                }
                Some(&first) if first != value => {
                    self.broken.insert(name);
                }
                Some(_) => {}
            }
        }
    }

    /// Checks the walk lanes' raw-words and words counts since the
    /// previous call.
    pub fn check_walk(&mut self, ledger: &Ledger) {
        let raw = Ledger::get(&ledger.walk_raw_words);
        let words = Ledger::get(&ledger.walk_words);
        let (raw0, words0) = self.walk_seen;
        self.check(&[
            ("walk.raw_words", raw - raw0),
            ("walk.words", words - words0),
        ]);
        self.walk_seen = (raw, words);
    }
}

/// Per-layer totals of a traced phase, by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds the totals the cross-thread wrappers left in `ledger`.
    fn add_ledger(&mut self, ledger: &Ledger) {
        let get = |c| Ledger::get(c) as f64;
        self.add("feed.words", get(&ledger.feed_words));
        self.add("feed.busy_s", get(&ledger.feed_ns) / 1e9);
        self.add("walk.lanes", get(&ledger.walk_lanes));
        self.add("walk.words", get(&ledger.walk_words));
        self.add("walk.busy_s", get(&ledger.walk_ns) / 1e9);
        self.add("walk.feed_s", get(&ledger.walk_feed_ns) / 1e9);
        self.add("walk.raw_words", get(&ledger.walk_raw_words));
        self.add("walk.setup_s", get(&ledger.walk_setup_ns) / 1e9);
    }

    /// One per-layer metric: a total per repetition, or a ratio of the
    /// phase's totals.
    fn value(&self, name: &str, reps: u64) -> f64 {
        let g = |name| self.get(name);
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let per_rep = |total: f64| total / reps.max(1) as f64;
        match name {
            "feed.ns_per_word" => ratio(g("feed.busy_s") * 1e9, g("feed.words")),
            "walk.ns_per_word" => ratio(g("walk.busy_s") * 1e9, g("walk.words")),
            "walk.ns_per_step" => {
                let steps = g("walk.words") * hprng_core::WalkParams::default().walk_len as f64;
                ratio((g("walk.busy_s") - g("walk.feed_s")) * 1e9, steps)
            }
            "walk.raw_words_per_word" => ratio(g("walk.raw_words"), g("walk.words")),
            "walk.lane_setup_us" => ratio(g("walk.setup_s") * 1e6, g("walk.lanes")),
            "engine.ns_per_word" => ratio(g("engine.busy_s") * 1e9, g("engine.words")),
            "engine.self_s" => per_rep(g("engine.busy_s") - g("engine.feed_s")),
            "listrank.self_s" => per_rep(g("listrank.wall_s") - g("engine.busy_s")),
            // Only photon runs its walks inside chunk lanes.
            "montecarlo.self_s" => match g("montecarlo.life_s") {
                life if life > 0.0 => per_rep(life - g("walk.busy_s")),
                _ => 0.0,
            },
            "pool.service_mean_us" => ratio(g("pool.service_s") * 1e6, g("pool.service_count")),
            "pool.busy_frac" => ratio(g("pool.service_s"), g("pool.capacity_s")),
            "transport.ring_wait_mean_us" => ratio(
                g("transport.ring_wait_s") * 1e6,
                g("transport.ring_wait_count"),
            ),
            "client.wait_s" => per_rep(g("client.busy_s") - g("client.copy_s")),
            total => per_rep(g(total)),
        }
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Runs one phase of the workload.
fn phase(
    args: &Args,
    input: Option<&listrank::Input>,
    seconds: f64,
    nproc: usize,
    ledger: Option<&Arc<Ledger>>,
    slow_ns: u64,
    canaries: &mut Canaries,
) -> Result<Phase, String> {
    let seed = args.seed;
    match args.workload {
        Workload::ServeWalk => {
            let shape = serve::Shape::walk(nproc);
            serve::run(seed, &shape, seconds, nproc, ledger, slow_ns, canaries)
        }
        Workload::ServeCheap => {
            let shape = serve::Shape::cheap();
            serve::run(seed, &shape, seconds, nproc, ledger, slow_ns, canaries)
        }
        Workload::Listrank => {
            let input = input.expect("listrank input is built before its phases");
            listrank::run(seed, input, seconds, ledger, canaries)
        }
        Workload::Photon => photon::run(seed, seconds, ledger, canaries),
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = match args.workload {
        Workload::ServeWalk => nproc,
        Workload::ServeCheap => 1,
        Workload::Listrank | Workload::Photon => 0,
    };
    println!(
        "env nproc={nproc} shards={shards} pipeline_mode={:?} profile={}",
        listrank::resolved_mode(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let input = (args.workload == Workload::Listrank).then(|| listrank::Input::new(args.seed));
    let mut canaries = Canaries::default();
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain = phase(
        args,
        input.as_ref(),
        untraced_seconds,
        nproc,
        None,
        0,
        &mut canaries,
    )?;

    let attempted;
    let failed;
    let mut metrics = Vec::new();
    if args.trace {
        let ledger = Ledger::new();
        let slow_ns = plain.latencies.percentile_ns(0.99).unwrap_or(0);
        let mut traced = phase(
            args,
            input.as_ref(),
            args.seconds / 2.0,
            nproc,
            Some(&ledger),
            slow_ns,
            &mut canaries,
        )?;
        traced.layers.add_ledger(&ledger);
        let overhead = 1.0 - traced.items_per_s() / plain.items_per_s();
        for (name, unit) in PER_LAYER {
            let value = match name {
                "trace.overhead_frac" => overhead,
                _ => traced.layers.value(name, traced.reps),
            };
            metrics.push((name, value, unit));
        }
        let path = std::path::PathBuf::from(format!(
            ".bench_out/trace-{}-{}.json",
            args.workload.name(),
            args.seed
        ));
        ledger
            .spans
            .write_chrome_trace(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace {}", path.display());
        println!("traced reps {}", traced.reps);
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
    } else {
        let setup: Vec<f64> = plain.setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        let samples = plain.latencies.count();
        let p50 = plain.latencies.percentile_ns(0.5).unwrap_or(0) as f64 / 1e3;
        let p99 = plain.latencies.percentile_ns(0.99).unwrap_or(0) as f64 / 1e3;
        let values = [
            median(&setup),
            median(&plain.words_per_s),
            plain.items_per_s(),
            p50,
            p99,
            stats::peak_rss_mib()?,
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
        let item = args.workload.item();
        println!(
            "{item}_per_s = {} {item}/s (items_per_s)",
            plain.items_per_s()
        );
        println!(
            "request samples = {samples}, set-up samples = {}",
            setup.len()
        );
        let quantiles: Vec<String> = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| {
                format!(
                    "p{}={}us",
                    q * 100.0,
                    plain.latencies.percentile_ns(q).unwrap_or(0) as f64 / 1e3
                )
            })
            .collect();
        println!("request quantiles {}", quantiles.join(" "));
        attempted = plain.attempted;
        failed = plain.failed;
    }
    println!("reps {}", plain.reps);
    println!(
        "error_rate = {} fraction ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    for name in &canaries.broken {
        println!("canary {name} did not repeat across repetitions");
    }
    for &(name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value})"));
        }
        println!("{name} = {value} {unit}");
    }
    Ok(Report {
        correct: failed == 0 && canaries.broken.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
