//! The transport loop and the parallel simulation driver.

use crate::photon::{
    fresnel_reflectance, henyey_greenstein_cos, spin, Photon, ROULETTE_CHANCE, ROULETTE_THRESHOLD,
};
use crate::tissue::Tissue;
use hprng_baselines::Mwc64;
use hprng_core::seeding;
use hprng_core::{ExpanderLanes, ExpanderWalkRng, OnDemandRng, SplitOnDemand};
use rayon::prelude::*;
use std::time::Instant;

/// How the uniform variates reach the transport kernel — the Figure 8
/// comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RandomSupply {
    /// The original CUDAMCML design \[1\]: a 32-bit multiply-with-carry
    /// generator whose outputs are staged through a memory buffer
    /// ("Original" in Figure 8). The buffer models the extra global-memory
    /// round trip the paper eliminates.
    BufferedMwc {
        /// Numbers produced per refill.
        chunk: usize,
    },
    /// The hybrid PRNG consumed on demand, no staging ("HybridResult").
    InlineHybrid,
}

impl RandomSupply {
    /// The curve label used in Figure 8.
    pub fn label(self) -> &'static str {
        match self {
            RandomSupply::BufferedMwc { .. } => "Original (buffered MWC)",
            RandomSupply::InlineHybrid => "Hybrid PRNG",
        }
    }
}

/// A uniform-variate source with the supply policy applied: either a
/// buffered MWC stage (the original CUDAMCML design) or any on-demand lane
/// serving the `GetNextRand()` contract.
enum Source<R> {
    Buffered {
        rng: Mwc64,
        buf: Vec<f64>,
        /// Bit tags of the produced numbers (for clash accounting).
        tags: Vec<u64>,
        pos: usize,
        refills: u64,
    },
    Inline {
        rng: R,
    },
}

impl<R: OnDemandRng> Source<R> {
    fn buffered(seed: u64, chunk: usize) -> Self {
        Source::Buffered {
            rng: Mwc64::new(seed),
            buf: vec![0.0; chunk],
            tags: vec![0; chunk],
            pos: chunk,
            refills: 0,
        }
    }

    /// Next uniform in [0, 1) plus its raw bit tag.
    #[inline]
    fn next(&mut self) -> (f64, u64) {
        match self {
            Source::Buffered {
                rng,
                buf,
                tags,
                pos,
                refills,
            } => {
                if *pos == buf.len() {
                    // Batch refill: the staging step of the original design.
                    for (slot, tag) in buf.iter_mut().zip(tags.iter_mut()) {
                        let v = rng.next() as u64;
                        *tag = v;
                        *slot = v as f64 / (1u64 << 32) as f64;
                    }
                    *refills += 1;
                    *pos = 0;
                }
                let out = (buf[*pos], tags[*pos]);
                *pos += 1;
                out
            }
            Source::Inline { rng } => {
                let v = rng.get_next_rand();
                ((v >> 11) as f64 * (1.0 / (1u64 << 53) as f64), v)
            }
        }
    }
}

/// Spatially-resolved scoring grid (MCML's `Rd(r)` and `A(z)` outputs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoringGrid {
    /// Number of radial bins for diffuse reflectance (plus one overflow).
    pub nr: usize,
    /// Radial bin width (cm).
    pub dr: f64,
    /// Number of depth bins for absorption (plus one overflow).
    pub nz: usize,
    /// Depth bin width (cm).
    pub dz: f64,
}

impl Default for ScoringGrid {
    fn default() -> Self {
        Self {
            nr: 50,
            dr: 0.01,
            nz: 40,
            dz: 0.01,
        }
    }
}

/// Simulation configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Master seed.
    pub seed: u64,
    /// Random supply policy.
    pub supply: RandomSupply,
    /// Photons per parallel work chunk (fixed so results are deterministic
    /// regardless of thread count).
    pub chunk_size: usize,
    /// Spatially-resolved scoring (None disables the grids).
    pub grid: Option<ScoringGrid>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            supply: RandomSupply::InlineHybrid,
            chunk_size: 4096,
            grid: None,
        }
    }
}

/// Aggregated simulation results and work counters.
#[derive(Clone, Debug, Default)]
pub struct SimOutput {
    /// Photons simulated.
    pub photons: u64,
    /// Specular reflectance (weight reflected at launch).
    pub specular: f64,
    /// Diffuse reflectance (weight escaping through the top).
    pub diffuse_reflectance: f64,
    /// Transmittance (weight escaping through the bottom).
    pub transmittance: f64,
    /// Absorbed weight per layer.
    pub absorbed: Vec<f64>,
    /// Weight lost to roulette kills (statistical, approaches 0 relative).
    pub roulette_loss: f64,
    /// Total photon–tissue interactions (absorb+scatter events).
    pub interactions: u64,
    /// Total uniform variates consumed.
    pub randoms_used: u64,
    /// Buffer refills performed (buffered supply only).
    pub refills: u64,
    /// Weight clashes: photon pairs whose launch tags collided (the
    /// paper's atomic-serialization metric, §VI-A).
    pub clashes: u64,
    /// Radially-resolved diffuse reflectance, `nr` bins plus one overflow
    /// (empty unless a [`ScoringGrid`] is configured).
    pub rd_radial: Vec<f64>,
    /// Depth-resolved absorbed weight, `nz` bins plus one overflow (empty
    /// unless a [`ScoringGrid`] is configured).
    pub abs_depth: Vec<f64>,
    /// Wall-clock time, nanoseconds.
    pub wall_ns: f64,
}

impl SimOutput {
    /// Total accounted weight (must ≈ photons × 1.0).
    pub fn total_weight(&self) -> f64 {
        self.specular
            + self.diffuse_reflectance
            + self.transmittance
            + self.absorbed.iter().sum::<f64>()
            + self.roulette_loss
    }

    fn merge(mut self, other: SimOutput) -> SimOutput {
        self.photons += other.photons;
        self.specular += other.specular;
        self.diffuse_reflectance += other.diffuse_reflectance;
        self.transmittance += other.transmittance;
        for (a, b) in self.absorbed.iter_mut().zip(&other.absorbed) {
            *a += b;
        }
        if self.rd_radial.len() < other.rd_radial.len() {
            self.rd_radial.resize(other.rd_radial.len(), 0.0);
        }
        for (a, b) in self.rd_radial.iter_mut().zip(&other.rd_radial) {
            *a += b;
        }
        if self.abs_depth.len() < other.abs_depth.len() {
            self.abs_depth.resize(other.abs_depth.len(), 0.0);
        }
        for (a, b) in self.abs_depth.iter_mut().zip(&other.abs_depth) {
            *a += b;
        }
        self.roulette_loss += other.roulette_loss;
        self.interactions += other.interactions;
        self.randoms_used += other.randoms_used;
        self.refills += other.refills;
        self.wall_ns = self.wall_ns.max(other.wall_ns);
        self
    }
}

/// Transports one photon; accumulates into `out`, returns its launch tag.
fn trace_photon<R: OnDemandRng>(
    tissue: &Tissue,
    grid: Option<&ScoringGrid>,
    out: &mut SimOutput,
    src: &mut Source<R>,
) -> u64 {
    let n0 = tissue.layers[0].n;
    let specular = fresnel_reflectance(tissue.n_above, n0, 1.0);
    let mut p = Photon::pencil_beam(1.0 - specular);
    out.specular += specular;

    // Launch tag: the random initial-weight draw of the paper's design,
    // used for clash accounting (see module docs).
    let (_, tag) = src.next();
    out.randoms_used += 1;

    let mut randoms = 0u64;
    let mut interactions = 0u64;
    'life: loop {
        // Dimensionless step length.
        let (xi, _) = src.next();
        randoms += 1;
        let mut s_left = -(1.0 - xi).ln(); // ξ ∈ [0,1) → avoid ln(0)

        // Propagate, crossing boundaries as needed.
        loop {
            let layer = &tissue.layers[p.layer];
            let mu_t = layer.mut_total();
            let s = s_left / mu_t;
            let dist_boundary = if p.uz > 0.0 {
                (tissue.z_bottom(p.layer) - p.z) / p.uz
            } else if p.uz < 0.0 {
                (tissue.z_top(p.layer) - p.z) / p.uz
            } else {
                f64::INFINITY
            };
            if dist_boundary <= s {
                // Hit the boundary.
                p.advance(dist_boundary);
                s_left -= dist_boundary * mu_t;
                let going_down = p.uz > 0.0;
                let (n1, n2, escaping) = if going_down {
                    if p.layer + 1 < tissue.layers.len() {
                        (layer.n, tissue.layers[p.layer + 1].n, false)
                    } else {
                        (layer.n, tissue.n_below, true)
                    }
                } else if p.layer > 0 {
                    (layer.n, tissue.layers[p.layer - 1].n, false)
                } else {
                    (layer.n, tissue.n_above, true)
                };
                let cos_i = p.uz.abs();
                let r = fresnel_reflectance(n1, n2, cos_i);
                let (xi, _) = src.next();
                randoms += 1;
                if xi < r {
                    // Internal reflection.
                    p.uz = -p.uz;
                } else if escaping {
                    if going_down {
                        out.transmittance += p.weight;
                    } else {
                        out.diffuse_reflectance += p.weight;
                        if let Some(g) = grid {
                            let r = (p.x * p.x + p.y * p.y).sqrt();
                            let bin = ((r / g.dr) as usize).min(g.nr);
                            out.rd_radial[bin] += p.weight;
                        }
                    }
                    break 'life;
                } else {
                    // Refract into the neighbour layer.
                    let ratio = n1 / n2;
                    let sin_i = (1.0 - cos_i * cos_i).max(0.0).sqrt();
                    let sin_t = (ratio * sin_i).min(1.0);
                    let cos_t = (1.0 - sin_t * sin_t).sqrt();
                    if sin_i > 1e-12 {
                        p.ux *= ratio;
                        p.uy *= ratio;
                    }
                    p.uz = cos_t * p.uz.signum();
                    // Renormalize against drift.
                    let norm = (p.ux * p.ux + p.uy * p.uy + p.uz * p.uz).sqrt();
                    p.ux /= norm;
                    p.uy /= norm;
                    p.uz /= norm;
                    p.layer = if going_down { p.layer + 1 } else { p.layer - 1 };
                }
            } else {
                p.advance(s);
                break;
            }
        }

        // Interaction: absorb…
        let layer = &tissue.layers[p.layer];
        let dw = p.weight * layer.mua / layer.mut_total();
        out.absorbed[p.layer] += dw;
        if let Some(g) = grid {
            let bin = ((p.z / g.dz) as usize).min(g.nz);
            out.abs_depth[bin] += dw;
        }
        p.weight -= dw;
        interactions += 1;

        // …and scatter.
        let (xi1, _) = src.next();
        let (xi2, _) = src.next();
        randoms += 2;
        let cos_theta = henyey_greenstein_cos(layer.g, xi1);
        let psi = 2.0 * std::f64::consts::PI * xi2;
        let (ux, uy, uz) = spin(p.ux, p.uy, p.uz, cos_theta, psi);
        p.ux = ux;
        p.uy = uy;
        p.uz = uz;

        // Roulette.
        if p.weight < ROULETTE_THRESHOLD {
            let (xi, _) = src.next();
            randoms += 1;
            if xi < ROULETTE_CHANCE {
                p.weight /= ROULETTE_CHANCE;
            } else {
                out.roulette_loss += p.weight;
                break 'life;
            }
        }
    }
    out.randoms_used += randoms;
    out.interactions += interactions;
    tag
}

/// Runs the full simulation: `photons` packets through `tissue` under
/// `config`, in parallel, deterministically for a fixed
/// `(seed, chunk_size)`.
///
/// # Panics
/// Panics if `photons == 0`.
pub fn run_simulation(tissue: &Tissue, photons: u64, config: &SimConfig) -> SimOutput {
    let mut recorder = hprng_telemetry::Recorder::new();
    run_simulation_with_telemetry(tissue, photons, config, &mut recorder)
}

/// [`run_simulation`] with observability: the whole run is an
/// [`hprng_telemetry::Stage::App`] span, photon count / weight clashes /
/// randoms drawn land in counters, and the achieved photon rate lands in
/// the `photons_per_s` gauge.
///
/// # Panics
/// Panics if `photons == 0`.
pub fn run_simulation_with_telemetry(
    tissue: &Tissue,
    photons: u64,
    config: &SimConfig,
    recorder: &mut hprng_telemetry::Recorder,
) -> SimOutput {
    run_simulation_impl(tissue, photons, config, recorder, None)
}

/// [`run_simulation_with_telemetry`] with a quality tap: every photon
/// launch tag is forwarded to `tap` (in launch order, before the clash
/// sort) so a streaming sentinel can judge the variates the transport
/// kernel actually consumed. The tap runs inside its own
/// [`hprng_telemetry::Stage::App`] span named `monitor_tap`, so its cost
/// is visible and separable in the trace.
///
/// # Panics
/// Panics if `photons == 0`.
pub fn run_simulation_monitored(
    tissue: &Tissue,
    photons: u64,
    config: &SimConfig,
    recorder: &mut hprng_telemetry::Recorder,
    tap: &mut dyn hprng_telemetry::WordTap,
) -> SimOutput {
    run_simulation_impl(tissue, photons, config, recorder, Some(tap))
}

/// Runs the simulation over any splittable on-demand provider: chunk `c`
/// draws every variate from `lanes.lane(c)` via `GetNextRand()`, with no
/// staging buffer — Algorithm 4's discipline for an arbitrary generator
/// family.
///
/// `config.chunk_size` and `config.grid` apply as in [`run_simulation`];
/// `config.seed` and `config.supply` are **ignored** (the provider already
/// fixes both the seeding and the supply policy). In particular,
/// `run_simulation_on(t, n, cfg, &ExpanderLanes::new(cfg.seed))` is
/// bit-identical to `run_simulation(t, n, cfg)` with `InlineHybrid` supply.
///
/// # Panics
/// Panics if `photons == 0`.
pub fn run_simulation_on<S: SplitOnDemand + Sync>(
    tissue: &Tissue,
    photons: u64,
    config: &SimConfig,
    lanes: &S,
) -> SimOutput {
    let mut recorder = hprng_telemetry::Recorder::new();
    run_simulation_core(tissue, photons, config, &mut recorder, None, |c| {
        Source::Inline { rng: lanes.lane(c) }
    })
}

/// Routes the legacy [`RandomSupply`] policy onto the on-demand core:
/// `InlineHybrid` is [`ExpanderLanes`] (chunk `c`'s lane seed is
/// `seeding::lane_seed(config.seed, c)`, the derivation this module always
/// used), `BufferedMwc` stages an MWC stream through a buffer per chunk.
fn run_simulation_impl(
    tissue: &Tissue,
    photons: u64,
    config: &SimConfig,
    recorder: &mut hprng_telemetry::Recorder,
    tap: Option<&mut dyn hprng_telemetry::WordTap>,
) -> SimOutput {
    match config.supply {
        RandomSupply::BufferedMwc { chunk } => {
            run_simulation_core::<ExpanderWalkRng, _>(tissue, photons, config, recorder, tap, |c| {
                Source::buffered(seeding::lane_seed(config.seed, c), chunk)
            })
        }
        RandomSupply::InlineHybrid => {
            let lanes = ExpanderLanes::new(config.seed);
            run_simulation_core(tissue, photons, config, recorder, tap, |c| Source::Inline {
                rng: lanes.lane(c),
            })
        }
    }
}

/// The parallel driver, generic over the per-chunk variate source: chunk
/// `c` transports its photons through `make_source(c)`, so any
/// [`SplitOnDemand`] family (or the buffered baseline) plugs in without
/// touching the transport kernel.
fn run_simulation_core<R, F>(
    tissue: &Tissue,
    photons: u64,
    config: &SimConfig,
    recorder: &mut hprng_telemetry::Recorder,
    tap: Option<&mut dyn hprng_telemetry::WordTap>,
    make_source: F,
) -> SimOutput
where
    R: OnDemandRng,
    F: Fn(u64) -> Source<R> + Sync,
{
    assert!(photons > 0, "need at least one photon");
    let span = recorder.start_span(hprng_telemetry::Stage::App, "montecarlo");
    let wall = Instant::now();
    let chunk = config.chunk_size.max(1) as u64;
    let chunks = photons.div_ceil(chunk);

    let (partial, mut tags): (SimOutput, Vec<u64>) = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let mut out = SimOutput {
                absorbed: vec![0.0; tissue.layers.len()],
                rd_radial: config.grid.map(|g| vec![0.0; g.nr + 1]).unwrap_or_default(),
                abs_depth: config.grid.map(|g| vec![0.0; g.nz + 1]).unwrap_or_default(),
                ..SimOutput::default()
            };
            let mut src = make_source(c);
            let count = chunk.min(photons - c * chunk);
            let mut tags = Vec::with_capacity(count as usize);
            for _ in 0..count {
                tags.push(trace_photon(
                    tissue,
                    config.grid.as_ref(),
                    &mut out,
                    &mut src,
                ));
            }
            out.photons = count;
            if let Source::Buffered { refills, .. } = src {
                out.refills = refills;
            }
            (out, tags)
        })
        .reduce(
            || {
                (
                    SimOutput {
                        absorbed: vec![0.0; tissue.layers.len()],
                        ..SimOutput::default()
                    },
                    Vec::new(),
                )
            },
            |(a, mut ta), (b, tb)| {
                ta.extend_from_slice(&tb);
                (a.merge(b), ta)
            },
        );

    // Quality tap: hand the launch tags over in launch order, before the
    // clash sort destroys the sequence structure.
    if let Some(tap) = tap {
        let tap_span = recorder.start_span(hprng_telemetry::Stage::App, "monitor_tap");
        tap.observe(&tags);
        recorder.finish_span(tap_span);
        recorder.add("tap_words", tags.len() as f64);
    }

    // Clash accounting over the launch tags.
    tags.sort_unstable();
    let clashes = tags.windows(2).filter(|w| w[0] == w[1]).count() as u64;

    let mut out = partial;
    out.clashes = clashes;
    out.wall_ns = wall.elapsed().as_nanos() as f64;
    recorder.finish_span(span);
    recorder.add("photons", out.photons as f64);
    recorder.add("weight_clashes", out.clashes as f64);
    recorder.add("randoms_used", out.randoms_used as f64);
    recorder.add("refills", out.refills as f64);
    if out.wall_ns > 0.0 {
        recorder.set_gauge("photons_per_s", out.photons as f64 / (out.wall_ns / 1e9));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(supply: RandomSupply) -> SimConfig {
        SimConfig {
            seed: 99,
            supply,
            chunk_size: 1024,
            grid: None,
        }
    }

    #[test]
    fn energy_is_conserved() {
        let tissue = Tissue::three_layer();
        let out = run_simulation(&tissue, 20_000, &quick_config(RandomSupply::InlineHybrid));
        // Roulette is unbiased but not weight-preserving per run (survivors
        // are re-weighted ×10), so the budget balances only statistically.
        let total = out.total_weight() / out.photons as f64;
        assert!((total - 1.0).abs() < 1e-3, "total weight {total}");
    }

    #[test]
    fn deterministic_per_seed_and_chunking() {
        let tissue = Tissue::three_layer();
        let cfg = quick_config(RandomSupply::InlineHybrid);
        let a = run_simulation(&tissue, 10_000, &cfg);
        let b = run_simulation(&tissue, 10_000, &cfg);
        assert_eq!(a.diffuse_reflectance, b.diffuse_reflectance);
        assert_eq!(a.interactions, b.interactions);
    }

    #[test]
    fn telemetry_mirrors_sim_output() {
        let tissue = Tissue::three_layer();
        let mut recorder = hprng_telemetry::Recorder::new();
        let out = run_simulation_with_telemetry(
            &tissue,
            10_000,
            &quick_config(RandomSupply::InlineHybrid),
            &mut recorder,
        );
        assert_eq!(recorder.counter("photons"), out.photons as f64);
        assert_eq!(recorder.counter("weight_clashes"), out.clashes as f64);
        assert_eq!(recorder.counter("randoms_used"), out.randoms_used as f64);
        assert!(recorder.gauge("photons_per_s").unwrap() > 0.0);
        assert_eq!(recorder.spans().len(), 1);
        assert_eq!(recorder.spans()[0].name, "montecarlo");
    }

    #[test]
    fn supplies_agree_on_physics() {
        // Different generators, same model: the physical outputs must agree
        // statistically (1% of total weight).
        let tissue = Tissue::three_layer();
        let n = 50_000;
        let a = run_simulation(&tissue, n, &quick_config(RandomSupply::InlineHybrid));
        let b = run_simulation(
            &tissue,
            n,
            &quick_config(RandomSupply::BufferedMwc { chunk: 4096 }),
        );
        let nf = n as f64;
        assert!(
            (a.diffuse_reflectance - b.diffuse_reflectance).abs() / nf < 0.01,
            "Rd: {} vs {}",
            a.diffuse_reflectance / nf,
            b.diffuse_reflectance / nf
        );
        assert!((a.transmittance - b.transmittance).abs() / nf < 0.01);
    }

    #[test]
    fn absorbing_tissue_absorbs_more() {
        let thin = Tissue::single_layer(0.1, 10.0, 0.5, 1.0);
        let thick = Tissue::single_layer(5.0, 10.0, 0.5, 1.0);
        let cfg = quick_config(RandomSupply::InlineHybrid);
        let a = run_simulation(&thin, 20_000, &cfg);
        let b = run_simulation(&thick, 20_000, &cfg);
        let abs_a: f64 = a.absorbed.iter().sum::<f64>() / a.photons as f64;
        let abs_b: f64 = b.absorbed.iter().sum::<f64>() / b.photons as f64;
        assert!(abs_b > abs_a * 1.5, "absorption {abs_a} vs {abs_b}");
    }

    #[test]
    fn transparent_thin_layer_transmits_most() {
        // Nearly no absorption, forward scattering, thin layer: most weight
        // exits the bottom.
        let tissue = Tissue::single_layer(0.01, 1.0, 0.9, 0.1);
        let out = run_simulation(&tissue, 20_000, &quick_config(RandomSupply::InlineHybrid));
        let t = out.transmittance / out.photons as f64;
        assert!(t > 0.8, "transmittance {t}");
    }

    #[test]
    fn buffered_supply_counts_refills() {
        let tissue = Tissue::three_layer();
        let out = run_simulation(
            &tissue,
            5_000,
            &quick_config(RandomSupply::BufferedMwc { chunk: 1000 }),
        );
        assert!(out.refills > 0);
        assert!(out.randoms_used > 0);
    }

    #[test]
    fn mwc_tags_clash_more_than_hybrid_tags() {
        // 32-bit tags collide at birthday rate; 64-bit tags essentially
        // never do. This is the paper's "weight clash" claim.
        let tissue = Tissue::single_layer(1.0, 1.0, 0.0, 0.1);
        let n = 300_000;
        let mwc = run_simulation(
            &tissue,
            n,
            &quick_config(RandomSupply::BufferedMwc { chunk: 4096 }),
        );
        let hybrid = run_simulation(&tissue, n, &quick_config(RandomSupply::InlineHybrid));
        assert!(
            mwc.clashes > hybrid.clashes,
            "mwc {} vs hybrid {}",
            mwc.clashes,
            hybrid.clashes
        );
        assert_eq!(hybrid.clashes, 0);
    }

    #[test]
    #[should_panic(expected = "at least one photon")]
    fn zero_photons_rejected() {
        let tissue = Tissue::three_layer();
        run_simulation(&tissue, 0, &SimConfig::default());
    }

    #[test]
    fn scoring_grids_partition_the_totals() {
        let tissue = Tissue::three_layer();
        let cfg = SimConfig {
            grid: Some(ScoringGrid::default()),
            ..quick_config(RandomSupply::InlineHybrid)
        };
        let out = run_simulation(&tissue, 10_000, &cfg);
        let rd_sum: f64 = out.rd_radial.iter().sum();
        assert!(
            (rd_sum - out.diffuse_reflectance).abs() < 1e-9,
            "Rd(r) bins {} vs total {}",
            rd_sum,
            out.diffuse_reflectance
        );
        let abs_sum: f64 = out.abs_depth.iter().sum();
        let abs_total: f64 = out.absorbed.iter().sum();
        assert!((abs_sum - abs_total).abs() < 1e-9);
        assert_eq!(out.rd_radial.len(), 51);
        assert_eq!(out.abs_depth.len(), 41);
    }

    #[test]
    fn reflectance_decays_with_radius() {
        // A pencil beam's diffuse reflectance peaks near the entry point.
        let tissue = Tissue::three_layer();
        let cfg = SimConfig {
            grid: Some(ScoringGrid::default()),
            ..quick_config(RandomSupply::InlineHybrid)
        };
        let out = run_simulation(&tissue, 30_000, &cfg);
        let first: f64 = out.rd_radial[..5].iter().sum();
        let far: f64 = out.rd_radial[30..35].iter().sum();
        assert!(first > far, "near {first} vs far {far}");
    }

    #[test]
    fn absorption_decays_with_depth_in_absorbing_medium() {
        let tissue = Tissue::single_layer(5.0, 50.0, 0.8, 0.4);
        let cfg = SimConfig {
            grid: Some(ScoringGrid::default()),
            ..quick_config(RandomSupply::InlineHybrid)
        };
        let out = run_simulation(&tissue, 20_000, &cfg);
        let shallow: f64 = out.abs_depth[..10].iter().sum();
        let deep: f64 = out.abs_depth[30..40].iter().sum();
        assert!(shallow > 2.0 * deep, "shallow {shallow} vs deep {deep}");
    }

    #[test]
    fn monitored_run_taps_every_launch_tag() {
        struct CollectTap(Vec<u64>);
        impl hprng_telemetry::WordTap for CollectTap {
            fn observe(&mut self, words: &[u64]) {
                self.0.extend_from_slice(words);
            }
        }
        let tissue = Tissue::three_layer();
        let cfg = quick_config(RandomSupply::InlineHybrid);
        let mut recorder = hprng_telemetry::Recorder::new();
        let mut tap = CollectTap(Vec::new());
        let out = run_simulation_monitored(&tissue, 5_000, &cfg, &mut recorder, &mut tap);
        // One launch tag per photon, and the physics is untouched.
        assert_eq!(tap.0.len() as u64, out.photons);
        let plain = run_simulation(&tissue, 5_000, &cfg);
        assert_eq!(out.diffuse_reflectance, plain.diffuse_reflectance);
        assert_eq!(out.interactions, plain.interactions);
        // The tap cost is accounted in its own span and counter.
        assert!(recorder.spans().iter().any(|s| s.name == "monitor_tap"));
        assert_eq!(recorder.counter("tap_words"), out.photons as f64);
    }

    #[test]
    fn inline_hybrid_goldens_survive_the_on_demand_refactor() {
        // Captured from the pre-refactor implementation (Source over a
        // concrete ExpanderWalkRng, per-chunk seed `seed ^ c·γ`): the
        // ExpanderLanes-routed path must reproduce every bit.
        let tissue = Tissue::three_layer();
        let out = run_simulation(&tissue, 10_000, &quick_config(RandomSupply::InlineHybrid));
        assert_eq!(out.diffuse_reflectance.to_bits(), 0x40a2ab18d4057116);
        assert_eq!(out.transmittance.to_bits(), 0x408cd59e61726ebf);
        assert_eq!(out.interactions, 616_634);
        assert_eq!(out.randoms_used, 1_929_650);
        assert_eq!(out.clashes, 0);
    }

    #[test]
    fn expander_lanes_session_matches_the_legacy_inline_path() {
        let tissue = Tissue::three_layer();
        let cfg = quick_config(RandomSupply::InlineHybrid);
        let legacy = run_simulation(&tissue, 10_000, &cfg);
        let routed = run_simulation_on(&tissue, 10_000, &cfg, &ExpanderLanes::new(cfg.seed));
        assert_eq!(
            legacy.diffuse_reflectance.to_bits(),
            routed.diffuse_reflectance.to_bits()
        );
        assert_eq!(
            legacy.transmittance.to_bits(),
            routed.transmittance.to_bits()
        );
        assert_eq!(legacy.interactions, routed.interactions);
        assert_eq!(legacy.randoms_used, routed.randoms_used);
        assert_eq!(legacy.clashes, routed.clashes);
        assert_eq!(
            legacy.roulette_loss.to_bits(),
            routed.roulette_loss.to_bits()
        );
    }

    #[test]
    fn no_grid_means_empty_bins() {
        let tissue = Tissue::three_layer();
        let out = run_simulation(&tissue, 1_000, &quick_config(RandomSupply::InlineHybrid));
        assert!(out.rd_radial.is_empty());
        assert!(out.abs_depth.is_empty());
    }
}
