//! Bit-budget accounting: coin-bit provisioning over any [`OnDemandRng`].
//!
//! Algorithm 3 consumes *bits*, not words — one coin per live node per
//! round — and the paper's Figure 7 experiment is precisely the gap
//! between provisioning exactly those bits ([`OnDemandBits`]) and
//! provisioning the worst case every round ([`BatchBits`]).  The
//! providers here keep that accounting next to the `GetNextRand()`
//! contract so every application shares one notion of "bits produced vs
//! bits consumed".

use super::OnDemandRng;
use hprng_telemetry::WordTap;

/// Supplies one random bit per live node, once per iteration.
pub trait BitProvider {
    /// Fills `out[..count]` with fresh random bits (0/1 in the low bit).
    /// `count` is the number of live nodes; implementations are free to
    /// produce *more* than requested (batch provisioning) but must report
    /// what they actually produced via the return value.
    fn provide(&mut self, out: &mut [u8], count: usize) -> u64;

    /// Total bits produced over the provider's lifetime.
    fn bits_produced(&self) -> u64;
}

/// On-demand provisioning: produce exactly the bits the iteration needs
/// (the hybrid PRNG's mode of use, Algorithm 3 line 6).
pub struct OnDemandBits<R: OnDemandRng> {
    rng: R,
    produced: u64,
}

impl<R: OnDemandRng> OnDemandBits<R> {
    /// Wraps a generator's lane 0 as a bit source.
    pub fn new(rng: R) -> Self {
        Self { rng, produced: 0 }
    }

    /// The wrapped provider (for consumption accounting).
    pub fn source(&self) -> &R {
        &self.rng
    }
}

impl<R: OnDemandRng> BitProvider for OnDemandBits<R> {
    fn provide(&mut self, out: &mut [u8], count: usize) -> u64 {
        let words = count.div_ceil(64);
        for w in 0..words {
            let bits = self.rng.get_next_rand();
            let base = w * 64;
            for j in 0..64.min(count - base) {
                out[base + j] = (bits >> j & 1) as u8;
            }
        }
        self.produced += (words * 64) as u64;
        (words * 64) as u64
    }

    fn bits_produced(&self) -> u64 {
        self.produced
    }
}

/// Batch provisioning: always produce bits for the worst-case count (the
/// strategy of the hybrid baseline [3], which pre-computes "an upper bound
/// on the number of nodes remaining in the list at each iteration").
pub struct BatchBits<R: OnDemandRng> {
    rng: R,
    /// The fixed worst-case count provisioned every iteration.
    pub upper_bound: usize,
    produced: u64,
}

impl<R: OnDemandRng> BatchBits<R> {
    /// Provisions `upper_bound` bits per iteration regardless of demand.
    pub fn new(rng: R, upper_bound: usize) -> Self {
        Self {
            rng,
            upper_bound,
            produced: 0,
        }
    }

    /// The wrapped provider (for consumption accounting).
    pub fn source(&self) -> &R {
        &self.rng
    }
}

impl<R: OnDemandRng> BitProvider for BatchBits<R> {
    fn provide(&mut self, out: &mut [u8], count: usize) -> u64 {
        // Generate the full worst-case batch…
        let words = self.upper_bound.max(count).div_ceil(64);
        let mut consumed = 0usize;
        for _ in 0..words {
            let bits = self.rng.get_next_rand();
            if consumed < count {
                for j in 0..64.min(count - consumed) {
                    out[consumed + j] = (bits >> j & 1) as u8;
                }
                consumed += 64.min(count - consumed);
            }
            // …the rest is generated and thrown away, as the batch model
            // must.
        }
        self.produced += (words * 64) as u64;
        (words * 64) as u64
    }

    fn bits_produced(&self) -> u64 {
        self.produced
    }
}

/// Repacks the coin bits flowing through a [`BitProvider`] into 64-bit
/// words for a [`WordTap`], LSB first, carrying remainders across rounds
/// so no padding biases the stream.
///
/// This watches the randomness *at the point of use* — after provider
/// batching — which is exactly where correlated sub-streams would corrupt
/// a consumer. The repacking is chunking-invariant: the word sequence a
/// tap observes depends only on the concatenated coin stream, never on
/// how `provide` calls split it.
pub struct TappedBits<'a> {
    inner: Box<dyn BitProvider + 'a>,
    tap: &'a mut dyn WordTap,
    acc: u64,
    acc_bits: u32,
    words: Vec<u64>,
}

impl<'a> TappedBits<'a> {
    /// Interposes `tap` on the coin stream of `inner`.
    pub fn new(inner: Box<dyn BitProvider + 'a>, tap: &'a mut dyn WordTap) -> Self {
        Self {
            inner,
            tap,
            acc: 0,
            acc_bits: 0,
            words: Vec::new(),
        }
    }
}

impl BitProvider for TappedBits<'_> {
    fn provide(&mut self, out: &mut [u8], count: usize) -> u64 {
        let produced = self.inner.provide(out, count);
        self.words.clear();
        for &coin in &out[..count] {
            self.acc |= ((coin & 1) as u64) << self.acc_bits;
            self.acc_bits += 1;
            if self.acc_bits == 64 {
                self.words.push(self.acc);
                self.acc = 0;
                self.acc_bits = 0;
            }
        }
        if !self.words.is_empty() {
            self.tap.observe(&self.words);
        }
        produced
    }

    fn bits_produced(&self) -> u64 {
        self.inner.bits_produced()
    }
}

#[cfg(test)]
mod tests {
    use super::super::ScalarRng;
    use super::*;
    use hprng_baselines::SplitMix64;
    use rand_core::RngCore;

    #[test]
    fn on_demand_bits_scatter_the_word_stream() {
        let mut bits = OnDemandBits::new(ScalarRng::new(SplitMix64::new(1)));
        let mut out = vec![0u8; 100];
        let produced = bits.provide(&mut out, 100);
        assert_eq!(produced, 128); // two words rounded up
        assert_eq!(bits.bits_produced(), 128);
        let mut reference = SplitMix64::new(1);
        let w0 = reference.next_u64();
        let w1 = reference.next_u64();
        for (j, &bit) in out[..64].iter().enumerate() {
            assert_eq!(bit, (w0 >> j & 1) as u8);
        }
        for (j, &bit) in out[64..].iter().enumerate() {
            assert_eq!(bit, (w1 >> j & 1) as u8);
        }
        assert_eq!(bits.source().words_served(), 2);
    }

    #[test]
    fn batch_bits_overprovision_to_the_upper_bound() {
        let mut bits = BatchBits::new(ScalarRng::new(SplitMix64::new(2)), 1000);
        let mut out = vec![0u8; 10];
        let produced = bits.provide(&mut out, 10);
        assert_eq!(produced, 1024); // ceil(1000/64) words, all burned
        assert_eq!(bits.source().words_served(), 16);
    }

    #[test]
    fn tapped_bits_carry_remainders_across_rounds() {
        struct Collect(Vec<u64>);
        impl WordTap for Collect {
            fn observe(&mut self, words: &[u64]) {
                self.0.extend_from_slice(words);
            }
        }
        let mut tap = Collect(Vec::new());
        let mut out = vec![0u8; 48];
        let (first, second) = {
            let inner = OnDemandBits::new(ScalarRng::new(SplitMix64::new(3)));
            let mut tapped = TappedBits::new(Box::new(inner), &mut tap);
            // Two 48-bit rounds: the tap should see one full word after the
            // second round (96 bits → 1 word + 32-bit remainder).
            tapped.provide(&mut out, 48);
            let first: Vec<u8> = out[..48].to_vec();
            tapped.provide(&mut out, 48);
            (first, out[..48].to_vec())
        };
        assert_eq!(tap.0.len(), 1);
        let mut expect = 0u64;
        for (i, &coin) in first.iter().chain(second.iter().take(16)).enumerate() {
            expect |= ((coin & 1) as u64) << i;
        }
        assert_eq!(tap.0[0], expect);
    }
}
