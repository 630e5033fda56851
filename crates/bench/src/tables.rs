//! Tables I, II and III: the property comparison and the quality results.

use crate::print_table;
use crate::simsupport::simulate_cudpp_md5;
use hprng_baselines::{GlibcLcg, GlibcRand, Md5Rand, Mt19937_64, Xorwow};
use hprng_core::{
    simulate_curand_device, simulate_mt_batch, CostModel, ExpanderWalkRng, HybridParams, HybridPrng,
};
use hprng_gpu_sim::DeviceConfig;
use hprng_stattests::crush::{crush_battery, CrushLevel};
use hprng_stattests::diehard::diehard_battery;
use hprng_stattests::BatteryReport;
use rand_core::RngCore;

/// The five generators of Table I/II with their paper names.
pub const GENERATORS: [&str; 5] = [
    "glibc rand()",
    "CURAND",
    "CUDPP",
    "M.Twister",
    "Hybrid PRNG",
];

/// How an application consuming `rand()` typically builds 32-bit words:
/// two calls, one for each half. This exposes the generator's real low
/// bits to the battery — the stream quality Table II is about — instead of
/// the flattering high-bit composition `GlibcRand`'s `RngCore` uses for
/// general-purpose work. It wraps either glibc generator as its
/// `rand()` call.
struct RawGlibc<R: FnMut() -> u32>(R);

impl<R: FnMut() -> u32> RngCore for RawGlibc<R> {
    fn next_u32(&mut self) -> u32 {
        ((self.0)() << 16) | ((self.0)() & 0xFFFF)
    }
    fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        rand_core::impls::fill_bytes_via_next(self, dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand_core::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Builds generator `name` seeded with `seed`.
pub fn make_generator(name: &str, seed: u64) -> Box<dyn RngCore> {
    match name {
        "glibc rand()" => {
            let mut g = GlibcRand::new(seed as u32);
            Box::new(RawGlibc(move || g.next_rand()))
        }
        "glibc LCG (TYPE_0)" => {
            let mut g = GlibcLcg::new(seed as u32);
            Box::new(RawGlibc(move || g.next_rand()))
        }
        "CURAND" => Box::new(Xorwow::new(seed)),
        "CUDPP" => Box::new(Md5Rand::new(seed)),
        "M.Twister" => Box::new(Mt19937_64::new(seed)),
        "Hybrid PRNG" => Box::new(ExpanderWalkRng::from_seed_u64(seed)),
        other => panic!("unknown generator {other}"),
    }
}

/// Table I: property comparison. The qualitative columns restate the
/// designs; the speed rank is *measured* on the simulated platform
/// (1 = fastest to produce a fixed stream).
pub fn table1(seed: u64) {
    let cfg = DeviceConfig::tesla_c1060();
    let cost = CostModel::default();
    let n = 1_000_000;

    // Measured times, one per generator, in its paper-mode.
    let glibc_ns = {
        // Single-threaded host rand() with its real per-call lock, four
        // calls per 64-bit number — measured, not modeled.
        let g = hprng_baselines::LockedGlibcRand::new(seed as u32);
        let t = std::time::Instant::now();
        let mut acc = 0u64;
        for _ in 0..n {
            for _ in 0..4 {
                acc = acc.wrapping_add(g.next_rand() as u64);
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as f64
    };
    let curand_ns = simulate_curand_device(&cfg, &cost, n, 100).sim_ns;
    let cudpp_ns = simulate_cudpp_md5(&cfg, &cost, n).sim_ns;
    let mt_ns = simulate_mt_batch(&cfg, &cost, n).sim_ns;
    let hybrid_ns = {
        let mut h = HybridPrng::new(cfg, HybridParams::default(), seed);
        h.try_generate(n).expect("n > 0").1.sim_ns
    };

    let mut times = [
        ("glibc rand()", glibc_ns),
        ("CURAND", curand_ns),
        ("CUDPP", cudpp_ns),
        ("M.Twister", mt_ns),
        ("Hybrid PRNG", hybrid_ns),
    ];
    times.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"));
    let rank_of = |name: &str| times.iter().position(|(n, _)| *n == name).unwrap() + 1;

    let qual = |name: &str| -> [&'static str; 4] {
        match name {
            // [on-demand, scalable, high-speed supply, quality]
            "glibc rand()" => ["yes", "no", "no", "low"],
            "CURAND" => ["yes", "yes", "yes", "medium"],
            "CUDPP" => ["no", "no", "yes", "high"],
            "M.Twister" => ["no", "yes", "yes", "high"],
            "Hybrid PRNG" => ["yes", "yes", "yes", "high"],
            _ => unreachable!(),
        }
    };

    let rows: Vec<Vec<String>> = GENERATORS
        .iter()
        .map(|g| {
            let q = qual(g);
            vec![
                g.to_string(),
                q[0].into(),
                q[1].into(),
                q[2].into(),
                q[3].into(),
                rank_of(g).to_string(),
                format!("{:.2}", times.iter().find(|(n, _)| n == g).unwrap().1 / 1e6),
            ]
        })
        .collect();
    print_table(
        "Table I: comparison of properties (speed rank measured, 1 = fastest)",
        &[
            "PRNG",
            "on-demand",
            "scalable",
            "high speed",
            "quality",
            "speed rank",
            "1M time (ms)",
        ],
        &rows,
    );
}

/// Table II rows: DIEHARD score + KS D per generator.
pub fn table2(scale: f64, seed: u64) -> Vec<(String, BatteryReport)> {
    let battery = diehard_battery(scale);
    // The paper's Table II order, plus the TYPE_0 LCG row (the "LCG present
    // in the glibc library" §III-B refers to; its low-bit structure is the
    // classical DIEHARD casualty).
    let order = [
        "Hybrid PRNG",
        "CUDPP",
        "M.Twister",
        "CURAND",
        "glibc rand()",
        "glibc LCG (TYPE_0)",
    ];
    order
        .iter()
        .map(|name| {
            let mut rng = make_generator(name, seed);
            (name.to_string(), battery.run(rng.as_mut()))
        })
        .collect()
}

/// Prints Table II.
pub fn print_table2(rows: &[(String, BatteryReport)]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, rep)| {
            vec![
                name.clone(),
                format!("{}/{}", rep.passed, rep.total),
                format!("{:.4}", rep.ks_d),
                format!("{:.3}", rep.ks_p),
            ]
        })
        .collect();
    print_table(
        "Table II: DIEHARD-style battery + KS uniformity of p-values",
        &["PRNG", "tests passed", "KS D", "KS p"],
        &table,
    );
}

/// Table III rows: the three Crush-style batteries per generator.
pub fn table3(scale: f64, seed: u64) -> Vec<(String, Vec<(String, BatteryReport)>)> {
    let order = ["CURAND", "M.Twister", "Hybrid PRNG"];
    order
        .iter()
        .map(|name| {
            let per_level: Vec<(String, BatteryReport)> =
                [CrushLevel::Small, CrushLevel::Medium, CrushLevel::Big]
                    .into_iter()
                    .map(|level| {
                        let battery = crush_battery(level, scale);
                        let mut rng = make_generator(name, seed);
                        (level.name().to_string(), battery.run(rng.as_mut()))
                    })
                    .collect();
            (name.to_string(), per_level)
        })
        .collect()
}

/// Prints Table III.
pub fn print_table3(rows: &[(String, Vec<(String, BatteryReport)>)]) {
    let mut table = Vec::new();
    for (name, levels) in rows {
        for (level, rep) in levels {
            table.push(vec![
                name.clone(),
                level.clone(),
                format!("{}/{}", rep.passed, rep.total),
            ]);
        }
    }
    print_table(
        "Table III: TestU01-style batteries",
        &["PRNG", "battery", "tests passed"],
        &table,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_named_generators_construct() {
        for g in GENERATORS {
            let mut rng = make_generator(g, 42);
            let _ = rng.next_u64();
        }
    }

    #[test]
    #[should_panic(expected = "unknown generator")]
    fn unknown_generator_panics() {
        let _ = make_generator("nonsense", 1);
    }

    #[test]
    fn table2_hybrid_passes_like_the_paper() {
        // At a reduced scale the Hybrid PRNG should pass ~all DIEHARD-style
        // tests (paper: 15/15) and glibc should do worst.
        let rows = table2(0.05, 20120521);
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| r.passed)
                .unwrap()
        };
        assert!(
            get("Hybrid PRNG") >= 13,
            "hybrid passed {}",
            get("Hybrid PRNG")
        );
        assert!(get("M.Twister") >= 13);
    }
}
