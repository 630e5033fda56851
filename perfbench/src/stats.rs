//! Exact sample statistics, stream fingerprints and process memory.

use std::hint::black_box;

/// Samples below this many nanoseconds are counted in one-nanosecond
/// bins; larger ones are kept verbatim. Both forms are lossless, so every
/// percentile is exact.
const DIRECT_NS: usize = 1 << 16;

/// Every latency sample of a run, in whole nanoseconds.
pub struct Latencies {
    bins: Vec<u32>,
    direct: u64,
    overflow: Vec<u64>,
}

impl Latencies {
    pub fn new() -> Self {
        // Touch every bin now, so how far the samples spread does not
        // change the process's resident memory.
        let bins = (0..DIRECT_NS).map(|_| black_box(0)).collect();
        Self {
            bins,
            direct: 0,
            overflow: Vec::new(),
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.bins.get_mut(ns as usize) {
            Some(bin) => {
                *bin += 1;
                self.direct += 1;
            }
            None => self.overflow.push(ns),
        }
    }

    pub fn count(&self) -> u64 {
        self.direct + self.overflow.len() as u64
    }

    /// The nearest-rank percentile: the smallest sample with at least
    /// `q` of all samples at or below it. `None` without samples.
    pub fn percentile_ns(&mut self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank <= self.direct {
            let mut seen = 0u64;
            for (ns, &c) in self.bins.iter().enumerate() {
                seen += c as u64;
                if seen >= rank {
                    return Some(ns as u64);
                }
            }
        }
        self.overflow.sort_unstable();
        Some(self.overflow[(rank - self.direct - 1) as usize])
    }
}

/// The median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// An order-sensitive fingerprint of a word stream (Fletcher's sums over
/// 64-bit words plus the length): two streams that differ in any word,
/// in order, or in length almost surely differ here. Cheap enough to run
/// on the driver thread between requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamSum {
    pub words: u64,
    s1: u64,
    s2: u64,
}

impl StreamSum {
    #[inline]
    pub fn add(&mut self, words: &[u64]) {
        let (mut s1, mut s2) = (self.s1, self.s2);
        for &w in words {
            s1 = s1.wrapping_add(w);
            s2 = s2.wrapping_add(s1);
        }
        self.s1 = s1;
        self.s2 = s2;
        self.words += words.len() as u64;
    }

    #[inline]
    pub fn add_one(&mut self, word: u64) {
        self.add(std::slice::from_ref(&word));
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_exact() {
        let mut l = Latencies::new();
        for ns in [5u64, 1, 3, 2, 4, 10_000_000, 7] {
            l.record(ns);
        }
        assert_eq!(l.count(), 7);
        assert_eq!(l.percentile_ns(0.5), Some(4));
        assert_eq!(l.percentile_ns(0.99), Some(10_000_000));
        assert_eq!(l.percentile_ns(0.0), Some(1));
    }

    #[test]
    fn stream_sum_is_order_sensitive_and_chunking_invariant() {
        let mut a = StreamSum::default();
        a.add(&[1, 2, 3]);
        let mut b = StreamSum::default();
        b.add(&[1]);
        b.add(&[2, 3]);
        assert_eq!(a, b);
        let mut c = StreamSum::default();
        c.add(&[2, 1, 3]);
        assert_ne!(a, c);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
