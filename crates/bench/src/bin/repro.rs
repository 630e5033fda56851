//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all [--scale S] [--quick]     run everything
//! repro table1                        property comparison (speed rank measured)
//! repro table2 [--scale S]            DIEHARD-style battery per generator
//! repro table3 [--scale S]            Crush-style batteries per generator
//! repro fig3 [--sizes a,b,c]          stream generation time sweep
//! repro fig4                          work-unit overlap chart
//! repro fig5 [--n N]                  batch-size sweep
//! repro fig6 [--sizes a,b,c]          CPU-only vs glibc rand()
//! repro fig7 [--sizes a,b,c]          list-ranking Phase I
//! repro fig8 [--photons a,b,c]        photon migration
//! repro headline                      GNumbers/s
//! repro ablate-walk-len | ablate-bit-source
//! repro trace                         instrumented run only
//! repro bench [--json-out <path>]     run the gated budgets and write
//!                                     their document; exit 1 if the pool
//!                                     misses its speedup floor, tracing
//!                                     costs more than 5% words/s, or a
//!                                     checkpoint+restore round trip's
//!                                     p99 exceeds 1 ms
//!             [--baseline <path>]     also fail if hybrid words/s drops
//!             [--max-drop <frac>]     below a prior bench JSON's by more
//!                                     than the fraction in [0, 1)
//!                                     (default 0.2)
//! repro monitor [--generator hybrid|pool|mt|glibc-low|constant]
//!               [--words W] [--sample-every N] [--prom-out <path>]
//!               [--assert-clean | --assert-alerts]
//!                                     streaming quality sentinels
//! repro pool-dash [--shards S] [--clients C] [--words W]
//!                 [--sample-every N]
//!                 [--prom-out <path>] [--trace-out <path>]
//!                 [--metrics-out <path>]
//!                                     live per-shard dashboard over a
//!                                     traced pool: queue depth, phase
//!                                     latency quantiles, words per
//!                                     shard; exports the final snapshot
//! repro chaos [--schedules N] [--seed S] [--replay SEED]
//!                                     deterministic fault-injection
//!                                     soak over the sharded pool
//!                                     (requires the `chaos` feature);
//!                                     failing schedules print their
//!                                     replay seed, exit 1 on any
//!                                     failure
//!
//! Global flags: `--trace-out <path>` writes a merged Chrome-trace
//! (Perfetto) JSON of an instrumented run; `--metrics-out <path>` writes
//! the telemetry counters/histograms as JSON (`-` prints to stdout).
//!
//! An unknown command or flag, or a flag value that is missing or does
//! not parse, prints what was wrong to stderr and exits 2.
//! ```

use hprng_bench::monitor_cmd::{MonitorGenerator, MonitorRunConfig};
use hprng_bench::{ablations, benchjson, figures, monitor_cmd, pooldash, tables, trace};

/// Every subcommand `main` dispatches; `ablate` runs both ablations.
const COMMANDS: &[&str] = &[
    "all",
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig7-device",
    "fig8",
    "headline",
    "ablate",
    "ablate-walk-len",
    "ablate-bit-source",
    "bench",
    "monitor",
    "pool-dash",
    "chaos",
    "trace",
];

struct Args {
    cmd: String,
    scale: f64,
    sizes: Option<Vec<usize>>,
    photons: Option<Vec<u64>>,
    n: usize,
    seed: u64,
    trace_out: Option<std::path::PathBuf>,
    metrics_out: Option<String>,
    json_out: Option<std::path::PathBuf>,
    generator: String,
    words: u64,
    sample_every: u64,
    assert_clean: bool,
    assert_alerts: bool,
    prom_out: Option<std::path::PathBuf>,
    /// The `--baseline` document's hybrid host words/s.
    baseline: Option<f64>,
    max_drop: f64,
    shards: usize,
    clients: usize,
    schedules: usize,
    replay: Option<u64>,
}

/// A comma-separated flag value, such as `--sizes 1000,2000`.
struct List<T>(Vec<T>);

impl<T: std::str::FromStr> std::str::FromStr for List<T> {
    type Err = T::Err;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.split(',')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map(List)
    }
}

/// Parses `argv[*i]`, the value of the flag at `argv[*i - 1]`, and steps
/// past it. A missing or malformed value names the flag and what it
/// `takes` on stderr and exits 2.
fn flag_value<T: std::str::FromStr>(argv: &[String], i: &mut usize, takes: &str) -> T {
    let flag = &argv[*i - 1];
    let Some(value) = argv.get(*i) else {
        eprintln!("{flag} takes {takes}");
        std::process::exit(2);
    };
    *i += 1;
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes {takes}, not {value:?}");
        std::process::exit(2);
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        cmd: "all".to_string(),
        scale: 0.25,
        sizes: None,
        photons: None,
        n: 1_000_000,
        seed: 20120521, // the paper's IPDPSW year+month+day
        trace_out: None,
        metrics_out: None,
        json_out: None,
        generator: "hybrid".to_string(),
        words: 1 << 20,
        sample_every: 64,
        assert_clean: false,
        assert_alerts: false,
        prom_out: None,
        baseline: None,
        max_drop: 0.2,
        shards: 2,
        clients: 4,
        schedules: 64,
        replay: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    if let Some(first) = argv.first() {
        if !first.starts_with("--") {
            if !COMMANDS.contains(&first.as_str()) {
                eprintln!("unknown command {first}; commands: {}", COMMANDS.join(", "));
                std::process::exit(2);
            }
            args.cmd = first.clone();
            i = 1;
        }
    }
    while i < argv.len() {
        let flag = &argv[i];
        i += 1;
        match flag.as_str() {
            "--scale" => args.scale = flag_value(&argv, &mut i, "a float"),
            "--quick" => args.scale = 0.05,
            "--full" => args.scale = 1.0,
            "--sizes" => {
                let List(sizes) = flag_value(&argv, &mut i, "comma-separated integers");
                args.sizes = Some(sizes);
            }
            "--photons" => {
                let List(photons) = flag_value(&argv, &mut i, "comma-separated integers");
                args.photons = Some(photons);
            }
            "--n" => args.n = flag_value(&argv, &mut i, "an integer"),
            "--seed" => args.seed = flag_value(&argv, &mut i, "an integer"),
            "--trace-out" => args.trace_out = Some(flag_value(&argv, &mut i, "a path")),
            "--metrics-out" => {
                args.metrics_out = Some(flag_value(&argv, &mut i, "a path (or - for stdout)"))
            }
            "--json-out" => args.json_out = Some(flag_value(&argv, &mut i, "a path")),
            "--generator" => {
                args.generator = flag_value(&argv, &mut i, "hybrid|mt|glibc-low|constant")
            }
            "--words" => args.words = flag_value(&argv, &mut i, "an integer"),
            "--sample-every" => args.sample_every = flag_value(&argv, &mut i, "an integer"),
            "--assert-clean" => args.assert_clean = true,
            "--assert-alerts" => args.assert_alerts = true,
            "--prom-out" => args.prom_out = Some(flag_value(&argv, &mut i, "a path")),
            "--baseline" => {
                let path: std::path::PathBuf = flag_value(&argv, &mut i, "a path");
                let read = std::fs::read_to_string(&path).map_err(|e| e.to_string());
                match read.and_then(|text| benchjson::baseline_words_per_s(&text)) {
                    Ok(words_per_s) => args.baseline = Some(words_per_s),
                    Err(reason) => {
                        eprintln!("--baseline {}: {reason}", path.display());
                        std::process::exit(2);
                    }
                }
            }
            "--max-drop" => {
                args.max_drop = flag_value(&argv, &mut i, "a fraction in [0, 1)");
                if !(0.0..1.0).contains(&args.max_drop) {
                    eprintln!(
                        "--max-drop takes a fraction in [0, 1), not {}",
                        args.max_drop
                    );
                    std::process::exit(2);
                }
            }
            "--shards" => args.shards = flag_value(&argv, &mut i, "an integer"),
            "--clients" => args.clients = flag_value(&argv, &mut i, "an integer"),
            "--schedules" => args.schedules = flag_value(&argv, &mut i, "an integer"),
            "--replay" => args.replay = Some(flag_value(&argv, &mut i, "a schedule seed (u64)")),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let default_sizes = vec![1_000_000usize, 2_000_000, 4_000_000, 8_000_000];
    let list_sizes = vec![500_000usize, 1_000_000, 2_000_000, 4_000_000];
    let photon_counts = vec![50_000u64, 100_000, 200_000, 400_000];

    let run = |name: &str| args.cmd == name || args.cmd == "all";

    if run("table1") {
        tables::table1(args.seed);
    }
    if run("fig3") {
        let sizes = args.sizes.clone().unwrap_or_else(|| default_sizes.clone());
        figures::print_fig3(&figures::fig3(&sizes, args.seed));
    }
    if run("fig4") {
        print!("{}", figures::fig4(args.seed));
    }
    if run("fig5") {
        let batches = [1u32, 10, 50, 100, 200, 500, 1000, 2000, 5000];
        figures::print_fig5(args.n, &figures::fig5(args.n, &batches, args.seed));
    }
    if run("fig6") {
        let sizes = args
            .sizes
            .clone()
            .unwrap_or_else(|| vec![1_000_000, 2_000_000, 4_000_000]);
        figures::print_fig6(&figures::fig6(&sizes, args.seed));
    }
    if run("table2") {
        let rows = tables::table2(args.scale, args.seed);
        tables::print_table2(&rows);
        println!(
            "(battery scale {}; paper runs the full-size DIEHARD)",
            args.scale
        );
    }
    if run("table3") {
        let rows = tables::table3(args.scale.min(0.5), args.seed);
        tables::print_table3(&rows);
    }
    if run("fig7") {
        let sizes = args.sizes.clone().unwrap_or_else(|| list_sizes.clone());
        figures::print_fig7(&figures::fig7(&sizes, args.seed));
    }
    if run("fig7-device") {
        let sizes = args
            .sizes
            .clone()
            .unwrap_or_else(|| vec![100_000, 200_000, 400_000]);
        figures::fig7_device(&sizes, args.seed);
    }
    if run("fig8") {
        let photons = args
            .photons
            .clone()
            .unwrap_or_else(|| photon_counts.clone());
        figures::print_fig8(&figures::fig8(&photons, args.seed));
    }
    if run("headline") {
        let (gn, wall) = figures::headline(args.seed);
        println!(
            "\n=== Headline ===\nsimulated throughput: {gn:.3} GNumbers/s (paper: 0.07)\nhost wall time for 4M numbers: {:.1} ms",
            wall / 1e6
        );
    }
    if run("ablate-walk-len") || args.cmd == "ablate" {
        ablations::ablate_walk_len(&[8, 16, 32, 64, 128], args.scale, args.seed);
    }
    if run("ablate-bit-source") || args.cmd == "ablate" {
        ablations::ablate_bit_source(args.scale, args.seed);
    }

    // The gated budgets (not part of `all`: they are a regression check,
    // not a paper artefact). Every verdict prints; any miss fails the run.
    if args.cmd == "bench" {
        let (doc, verdicts) = benchjson::bench_json(
            args.seed,
            args.n.max(50_000),
            args.sample_every,
            args.baseline,
            args.max_drop,
        );
        let text = doc.to_json();
        match &args.json_out {
            Some(path) => {
                std::fs::write(path, &text).expect("writing benchmark JSON");
                println!(
                    "wrote benchmark JSON ({} bytes) to {}",
                    text.len(),
                    path.display()
                );
            }
            None => println!("{text}"),
        }
        let mut missed = false;
        for verdict in verdicts {
            match verdict {
                Ok(summary) => println!("OK: {summary}"),
                Err(reason) => {
                    eprintln!("FAIL: {reason}");
                    missed = true;
                }
            }
        }
        if missed {
            std::process::exit(1);
        }
    }

    // Streaming quality sentinels over a live generator.
    if args.cmd == "monitor" {
        use std::io::IsTerminal;
        let generator = MonitorGenerator::parse(&args.generator).unwrap_or_else(|| {
            eprintln!(
                "unknown --generator {} (expected hybrid|pool|mt|glibc-low|constant)",
                args.generator
            );
            std::process::exit(2);
        });
        let cfg = MonitorRunConfig {
            generator,
            words: args.words,
            sample_every: args.sample_every,
            seed: args.seed,
            live: std::io::stdout().is_terminal(),
        };
        let report = monitor_cmd::run_monitor(&cfg);
        if !cfg.live {
            println!(
                "repro monitor — {} (1-in-{} sampling)\n{}",
                generator.label(),
                cfg.sample_every,
                report.status.render()
            );
        }
        for alert in &report.alerts {
            println!("ALERT [window {}] {}", alert.window, alert.message);
        }
        if let Some(path) = &args.prom_out {
            let bytes = hprng_telemetry::prometheus::write_prometheus(path, &report.recorder)
                .expect("writing Prometheus exposition");
            println!(
                "wrote Prometheus exposition ({bytes} bytes) to {}",
                path.display()
            );
        }
        if args.assert_clean && !report.status.healthy() {
            eprintln!(
                "FAIL: expected a clean stream but {} alert(s) fired",
                report.status.alerts
            );
            std::process::exit(1);
        }
        if args.assert_alerts && report.status.healthy() {
            eprintln!("FAIL: expected alerts but the sentinels stayed silent");
            std::process::exit(1);
        }
        if args.assert_clean || args.assert_alerts {
            println!(
                "OK: {} behaved as expected ({} alerts)",
                generator.label(),
                report.status.alerts
            );
        }
    }

    // Live serving-layer dashboard over a traced pool.
    if args.cmd == "pool-dash" {
        use std::io::IsTerminal;
        let cfg = pooldash::PoolDashConfig {
            seed: args.seed,
            shards: args.shards,
            clients: args.clients,
            words: args.words,
            sample_every: args.sample_every,
            live: std::io::stdout().is_terminal(),
        };
        let report = pooldash::run_pool_dash(&cfg);
        if !cfg.live {
            let secs = report.words as f64 / report.words_per_s.max(1e-9);
            print!(
                "{}",
                pooldash::render_frame(&cfg, &report.snapshot, report.words, secs)
            );
        }
        if let Some(path) = &args.prom_out {
            let bytes = hprng_telemetry::prometheus::write_prometheus(path, &report.snapshot)
                .expect("writing Prometheus exposition");
            println!(
                "wrote Prometheus exposition ({bytes} bytes) to {}",
                path.display()
            );
        }
        if let Some(path) = &args.trace_out {
            hprng_telemetry::write_chrome_trace(path, None, Some(&report.snapshot))
                .expect("writing trace file");
            println!(
                "wrote Chrome trace to {} — open in Perfetto or chrome://tracing",
                path.display()
            );
        }
        let metrics = || report.snapshot.metrics_json().to_json();
        match args.metrics_out.as_deref() {
            Some("-") => println!("{}", metrics()),
            Some(path) => {
                std::fs::write(path, metrics()).expect("writing metrics file");
                println!("wrote metrics JSON to {path}");
            }
            None => {}
        }
    }

    // Deterministic fault-injection soak (the `chaos` feature).
    if args.cmd == "chaos" {
        #[cfg(feature = "chaos")]
        {
            let code = hprng_bench::chaos_cmd::run_chaos(&hprng_bench::chaos_cmd::ChaosRunConfig {
                seed: args.seed,
                schedules: args.schedules,
                replay: args.replay,
            });
            std::process::exit(code);
        }
        #[cfg(not(feature = "chaos"))]
        {
            let _ = (args.schedules, args.replay);
            eprintln!(
                "`repro chaos` needs the fault-injection hooks compiled in; \
                 rebuild with `cargo run -p hprng-bench --features chaos --bin repro -- chaos`"
            );
            std::process::exit(2);
        }
    }

    // Observability: an instrumented run feeding the Chrome-trace and
    // metrics exports. Triggered by the `trace` subcommand or by either
    // flag alongside any other command — except `pool-dash`, which
    // consumes `--trace-out`/`--metrics-out` for its own snapshot.
    if args.cmd != "pool-dash"
        && (args.cmd == "trace" || args.trace_out.is_some() || args.metrics_out.is_some())
    {
        let run = trace::trace_run(args.n.min(1_000_000), args.seed);
        if let Some(path) = &args.trace_out {
            let bytes = trace::write_trace(&run, path).expect("writing trace file");
            println!(
                "wrote Chrome trace ({bytes} bytes) to {} — open in Perfetto or chrome://tracing",
                path.display()
            );
        }
        let metrics = trace::metrics_report(&run).to_json();
        match args.metrics_out.as_deref() {
            Some("-") => println!("{metrics}"),
            Some(path) => {
                std::fs::write(path, &metrics).expect("writing metrics file");
                println!("wrote metrics JSON to {path}");
            }
            None if args.cmd == "trace" => println!("{metrics}"),
            None => {}
        }
    }
}
