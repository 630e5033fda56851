//! Property tests for the device model's scheduling invariants.

use hprng_gpu_sim::{Device, DeviceConfig, Resource, Stream, WorkUnit};
use proptest::prelude::*;

fn tiny() -> Device {
    Device::new(DeviceConfig::test_tiny())
}

/// The per-warp scheduler `Stream::kernel` replaced, kept as the
/// reference its closed form must equal: warp `w` goes to SM
/// `w % num_sms`, each warp costs `cycles` at the issue factor, and the
/// busiest SM sets the duration.
fn round_robin_ns(cfg: &DeviceConfig, threads: usize, cycles: u64) -> f64 {
    let mut sm_busy = vec![0u64; cfg.num_sms];
    for w in 0..threads.div_ceil(cfg.warp_size) {
        sm_busy[w % cfg.num_sms] += cycles * cfg.issue_factor();
    }
    cfg.cycles_to_ns(sm_busy.into_iter().max().unwrap_or(0))
}

/// One of the three presets (`pick` 0–2) or a builder config of the given
/// shape (`pick` 3).
fn config(pick: usize, shape: (usize, usize, usize, f64)) -> DeviceConfig {
    let (num_sms, warp_size, cores_per_sm, ghz) = shape;
    match pick {
        0 => DeviceConfig::tesla_c1060(),
        1 => DeviceConfig::fermi_c2050(),
        2 => DeviceConfig::test_tiny(),
        _ => DeviceConfig::builder()
            .num_sms(num_sms)
            .warp_size(warp_size)
            .cores_per_sm(cores_per_sm)
            .core_clock_ghz(ghz)
            .build()
            .unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Simulated kernel time is monotone in the charged work.
    #[test]
    fn sim_time_monotone_in_work(threads in 1usize..200, light in 1u64..500, extra in 1u64..500) {
        let dev = tiny();
        let mut stream = Stream::new(&dev);
        let a = stream.kernel(WorkUnit::Other, threads, light);
        let b = stream.kernel(WorkUnit::Other, threads, light + extra);
        prop_assert!(b > a);
    }

    /// Timeline intervals never run backwards and the busy fraction stays
    /// in [0, 1] no matter the op sequence.
    #[test]
    fn timeline_wellformed(ops in prop::collection::vec((1usize..2000, any::<bool>()), 1..12)) {
        let dev = tiny();
        let mut stream = Stream::new(&dev);
        for (size, is_copy) in ops {
            if is_copy {
                stream.transfer(size);
            } else {
                stream.kernel(WorkUnit::Generate, 8, size as u64);
            }
        }
        let tl = dev.timeline();
        for iv in tl.intervals() {
            prop_assert!(iv.end_ns >= iv.start_ns);
        }
        for res in Resource::ALL {
            let f = tl.busy_fraction(res);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        }
        // Stream cursor equals the last op's end.
        let last_end = tl.intervals().iter().map(|iv| iv.end_ns).fold(0.0, f64::max);
        prop_assert!((stream.synchronize() - last_end).abs() < 1e-9);
    }

    /// The GPU engine never double-books: kernel intervals on one device
    /// are pairwise disjoint even across streams.
    #[test]
    fn kernels_never_overlap(kernels in prop::collection::vec(1u64..1000, 2..8)) {
        let dev = tiny();
        // Alternate between two streams.
        let mut s1 = Stream::new(&dev);
        let mut s2 = Stream::new(&dev);
        for (i, &work) in kernels.iter().enumerate() {
            let s = if i % 2 == 0 { &mut s1 } else { &mut s2 };
            s.kernel(WorkUnit::Generate, 8, work);
        }
        let tl = dev.timeline();
        let mut gpu: Vec<(f64, f64)> = tl
            .intervals()
            .iter()
            .filter(|iv| iv.resource == Resource::Gpu)
            .map(|iv| (iv.start_ns, iv.end_ns))
            .collect();
        gpu.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in gpu.windows(2) {
            prop_assert!(w[1].0 >= w[0].1 - 1e-9, "overlap: {:?}", w);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Stream::kernel`'s closed form is the round-robin scheduler, to the
    /// bit, on the presets and on arbitrary device shapes.
    #[test]
    fn kernel_charge_equals_the_round_robin_scheduler(
        pick in 0usize..4,
        shape in (1usize..64, 1usize..65, 1usize..65, 0.1f64..3.0),
        threads in 0usize..20_001,
        cycles in 0u64..1_000_001,
    ) {
        let cfg = config(pick, shape);
        let reference = round_robin_ns(&cfg, threads, cycles);
        let dev = Device::new(cfg);
        let charged = Stream::new(&dev).kernel(WorkUnit::Other, threads, cycles);
        prop_assert_eq!(
            charged.to_bits(),
            reference.to_bits(),
            "{} threads of {} cycles: {} ns charged, {} ns scheduled",
            threads,
            cycles,
            charged,
            reference
        );
    }
}
