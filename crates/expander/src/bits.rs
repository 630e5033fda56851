//! Raw-bit plumbing: sources of random bits and the 3-bit chunk reader that
//! drives walk steps.
//!
//! In the paper the CPU produces a stream of raw random bits (`bin`) with
//! `glibc rand()` and ships it to the GPU; each walk step consumes three of
//! those bits to pick one of the seven neighbours (`b(u) = bin(t) & 0b111`).
//! This module provides the equivalent machinery:
//!
//! * [`BitSource`] — anything that can refill a buffer of raw 64-bit words.
//! * [`TriBitReader`] — slices a `BitSource` into consecutive 3-bit chunks,
//!   one at a time ([`TriBitReader::next3`]) or as a run of up to 21 from
//!   one word ([`TriBitReader::next_run`]). The walk's fast path keeps a
//!   run in a register and takes its chunks three at a time, as the nine
//!   bits that index its table of three-step maps, so the reader's fields
//!   are loaded and stored once per run rather than once per step.
//! * [`SliceBitSource`] — a source backed by a fixed slice (cycling), used in
//!   tests and for replaying recorded bit streams.

/// A producer of raw random 64-bit words.
///
/// Implementations are expected to be cheap: a scalar walk's
/// [`TriBitReader`] calls [`BitSource::fill`] inline, on the walking
/// thread, whenever its buffer runs dry. The multi-lane pipeline engines
/// in `hprng-core` do not use this trait; each fills its own FEED buffer
/// inline, batch by batch.
pub trait BitSource {
    /// Fills `buf` entirely with raw random words.
    fn fill(&mut self, buf: &mut [u64]);
}

impl<T: BitSource + ?Sized> BitSource for &mut T {
    fn fill(&mut self, buf: &mut [u64]) {
        (**self).fill(buf)
    }
}

impl<T: BitSource + ?Sized> BitSource for Box<T> {
    fn fill(&mut self, buf: &mut [u64]) {
        (**self).fill(buf)
    }
}

/// A [`BitSource`] that replays a fixed slice of words, cycling when it runs
/// out.
///
/// # Panics
/// Constructing it from an empty slice panics: a cycling source needs at
/// least one word.
#[derive(Clone, Debug)]
pub struct SliceBitSource<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> SliceBitSource<'a> {
    /// Creates a cycling source over `words`.
    pub fn new(words: &'a [u64]) -> Self {
        assert!(!words.is_empty(), "SliceBitSource needs at least one word");
        Self { words, pos: 0 }
    }
}

impl BitSource for SliceBitSource<'_> {
    fn fill(&mut self, buf: &mut [u64]) {
        for slot in buf {
            *slot = self.words[self.pos];
            self.pos = (self.pos + 1) % self.words.len();
        }
    }
}

/// A [`BitSource`] driven by a closure. Handy for tests and for adapting
/// foreign generators without a newtype.
pub struct FnBitSource<F: FnMut() -> u64>(pub F);

impl<F: FnMut() -> u64> BitSource for FnBitSource<F> {
    fn fill(&mut self, buf: &mut [u64]) {
        for slot in buf {
            *slot = (self.0)();
        }
    }
}

/// Number of whole 3-bit chunks extracted from one 64-bit word.
///
/// `64 = 21 * 3 + 1`; the leftover top bit is discarded, exactly like the
/// paper's index arithmetic `bin(t) & (0b111 << 3i)` discards whatever does
/// not fit.
pub const CHUNKS_PER_WORD: usize = 21;

/// Reads consecutive 3-bit chunks out of a [`BitSource`].
///
/// The reader owns a small refill buffer so that sources are polled in
/// batches rather than per chunk.
#[derive(Debug)]
pub struct TriBitReader<S: BitSource> {
    source: S,
    buf: Vec<u64>,
    /// Index of the word currently being consumed.
    word_idx: usize,
    /// Shift register holding the not-yet-consumed chunks of the current
    /// word (low 3 bits are the next chunk).
    current: u64,
    /// Chunks left in `current`.
    chunks_left: u32,
    /// Total chunks handed out, for accounting (the FEED/TRANSFER budget in
    /// the pipeline is expressed in raw bits).
    consumed: u64,
}

/// Default refill batch, in words: 256 words = 2 KiB of raw bits. This is
/// the scalar walk's own granularity; a pipeline engine batch is instead
/// `count × words_per_number` words, sized by the request.
const DEFAULT_BUF_WORDS: usize = 256;

impl<S: BitSource> TriBitReader<S> {
    /// Creates a reader with the default refill batch size.
    pub fn new(source: S) -> Self {
        Self::with_buffer(source, DEFAULT_BUF_WORDS)
    }

    /// Creates a reader refilling `buf_words` words at a time.
    ///
    /// # Panics
    /// Panics if `buf_words == 0`.
    pub fn with_buffer(source: S, buf_words: usize) -> Self {
        assert!(buf_words > 0, "buffer must hold at least one word");
        Self {
            source,
            buf: vec![0; buf_words],
            // Positioned at the end so the first `next3` triggers a refill.
            word_idx: buf_words,
            current: 0,
            chunks_left: 0,
            consumed: 0,
        }
    }

    /// Returns the next 3-bit chunk, in `0..8`.
    #[inline]
    pub fn next3(&mut self) -> u8 {
        if self.chunks_left == 0 {
            self.reload();
        }
        let chunk = (self.current & 0b111) as u8;
        self.current >>= 3;
        self.chunks_left -= 1;
        self.consumed += 1;
        chunk
    }

    /// Hands out the next run of up to `max` chunks at once: returns the
    /// shift register, low chunk first, and the run length
    /// `n = min(max, chunks left in the current word)`, and advances the
    /// cursor past those `n` chunks.
    ///
    /// A run never crosses a word, so its `n` chunks are the low `3n` bits
    /// of the register and the word's dropped top bit is never among them;
    /// the bits above the run belong to later chunks and must be ignored.
    /// The current word is reloaded first if it is spent, so `n` is zero
    /// only when `max` is. A caller that steps from a local copy of the
    /// register keeps the reader's fields out of its per-chunk loop.
    #[inline]
    pub fn next_run(&mut self, max: u32) -> (u64, u32) {
        if self.chunks_left == 0 {
            self.reload();
        }
        let run = self.current;
        let n = max.min(self.chunks_left);
        // `n <= 21`, so the shift stays below 64.
        self.current >>= 3 * n;
        self.chunks_left -= n;
        self.consumed += u64::from(n);
        (run, n)
    }

    /// Loads the next word into the shift register, refilling the buffer
    /// from the source when it is exhausted (outlined: runs once per 21
    /// chunks).
    #[cold]
    fn reload(&mut self) {
        if self.word_idx == self.buf.len() {
            self.source.fill(&mut self.buf);
            self.word_idx = 0;
        }
        self.current = self.buf[self.word_idx];
        self.word_idx += 1;
        self.chunks_left = CHUNKS_PER_WORD as u32;
    }

    /// Advances the cursor past the next `n` chunks without yielding them.
    ///
    /// This is the restore fast path for checkpointed walk generators: a
    /// resumed stream rebuilds its bit source from the seed and skips to
    /// the checkpointed [`TriBitReader::chunks_consumed`] cursor. Whole
    /// words are skipped without shifting chunks out one by one, so the
    /// cost is one source word per 21 chunks plus a small remainder.
    pub fn skip_chunks(&mut self, n: u64) {
        let mut remaining = n;
        // Drain whatever is left in the shift register first.
        while remaining > 0 && self.chunks_left > 0 {
            self.current >>= 3;
            self.chunks_left -= 1;
            self.consumed += 1;
            remaining -= 1;
        }
        // Skip whole words: load them (refilling the buffer as needed) and
        // discard all 21 chunks at once.
        while remaining >= CHUNKS_PER_WORD as u64 {
            if self.word_idx == self.buf.len() {
                self.source.fill(&mut self.buf);
                self.word_idx = 0;
            }
            self.word_idx += 1;
            self.consumed += CHUNKS_PER_WORD as u64;
            remaining -= CHUNKS_PER_WORD as u64;
        }
        // The remainder positions the register mid-word.
        for _ in 0..remaining {
            self.next3();
        }
    }

    /// Total number of 3-bit chunks handed out so far.
    #[inline]
    pub fn chunks_consumed(&self) -> u64 {
        self.consumed
    }

    /// Total raw bits consumed so far (3 per chunk, plus the discarded top
    /// bit of every exhausted word is *not* counted — this reports useful
    /// bits).
    #[inline]
    pub fn bits_consumed(&self) -> u64 {
        self.consumed * 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_cycles() {
        let words = [1u64, 2, 3];
        let mut s = SliceBitSource::new(&words);
        let mut buf = [0u64; 7];
        s.fill(&mut buf);
        assert_eq!(buf, [1, 2, 3, 1, 2, 3, 1]);
        let mut buf2 = [0u64; 2];
        s.fill(&mut buf2);
        assert_eq!(buf2, [2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn slice_source_rejects_empty() {
        let _ = SliceBitSource::new(&[]);
    }

    #[test]
    fn tribit_reader_extracts_low_chunks_first() {
        // Word = 0b..._110_101_100_011_010_001 → chunks 1,2,3,4,5,6 from the
        // low end.
        let word = 0b110_101_100_011_010_001u64;
        let words = [word];
        let mut r = TriBitReader::new(SliceBitSource::new(&words));
        let got: Vec<u8> = (0..6).map(|_| r.next3()).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn tribit_reader_consumes_21_chunks_per_word() {
        // Two distinct words; chunk 22 must come from the second word.
        let words = [0u64, 0b111u64];
        let mut r = TriBitReader::new(SliceBitSource::new(&words));
        for _ in 0..CHUNKS_PER_WORD {
            assert_eq!(r.next3(), 0);
        }
        assert_eq!(r.next3(), 0b111);
        assert_eq!(r.chunks_consumed(), 22);
        assert_eq!(r.bits_consumed(), 66);
    }

    #[test]
    fn tribit_reader_discards_top_bit() {
        // Only the single top bit set: all 21 chunks must be zero (bit 63 is
        // the leftover).
        let words = [1u64 << 63];
        let mut r = TriBitReader::new(SliceBitSource::new(&words));
        for _ in 0..CHUNKS_PER_WORD {
            assert_eq!(r.next3(), 0);
        }
    }

    #[test]
    fn next_run_stops_at_the_word_boundary() {
        // Chunk 20 of the first word is 0b101; its top bit is set.
        let words = [0b010_001u64 | (0b1101 << 60), 0b111];
        let mut r = TriBitReader::new(SliceBitSource::new(&words));
        let (run, n) = r.next_run(2);
        assert_eq!((run & 0b111_111, n), (0b010_001, 2));
        // 19 chunks are left in the first word, whatever the request.
        let (run, n) = r.next_run(64);
        assert_eq!(((run >> 54) & 0b111, n), (0b101, 19));
        assert_eq!(r.chunks_consumed(), 21);
        // The next run starts on the second word, not on the top bit.
        assert_eq!(r.next_run(1), (0b111, 1));
        assert_eq!(r.next3(), 0);
        assert_eq!(r.chunks_consumed(), 23);
    }

    #[test]
    fn skip_chunks_lands_on_the_same_cursor_as_reading() {
        let words: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for skip in [0u64, 1, 5, 20, 21, 22, 41, 42, 100, 419, 420, 421, 1000] {
            let mut read = TriBitReader::new(SliceBitSource::new(&words));
            for _ in 0..skip {
                read.next3();
            }
            let mut skipped = TriBitReader::new(SliceBitSource::new(&words));
            skipped.skip_chunks(skip);
            assert_eq!(skipped.chunks_consumed(), skip);
            for i in 0..50 {
                assert_eq!(read.next3(), skipped.next3(), "skip {skip}, chunk {i}");
            }
        }
    }

    #[test]
    fn skip_chunks_works_mid_register() {
        let words: Vec<u64> = (0..8u64).map(|i| !i).collect();
        let mut read = TriBitReader::new(SliceBitSource::new(&words));
        let mut skipped = TriBitReader::new(SliceBitSource::new(&words));
        // Consume 3 chunks on both, then skip across a word boundary.
        for _ in 0..3 {
            read.next3();
            skipped.next3();
        }
        for _ in 0..45 {
            read.next3();
        }
        skipped.skip_chunks(45);
        assert_eq!(read.chunks_consumed(), skipped.chunks_consumed());
        for _ in 0..30 {
            assert_eq!(read.next3(), skipped.next3());
        }
    }

    #[test]
    fn fn_source_works() {
        let mut counter = 0u64;
        let mut src = FnBitSource(move || {
            counter += 1;
            counter
        });
        let mut buf = [0u64; 3];
        src.fill(&mut buf);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn small_refill_buffer_is_supported() {
        let words = [0xffff_ffff_ffff_ffffu64];
        let mut r = TriBitReader::with_buffer(SliceBitSource::new(&words), 1);
        for _ in 0..100 {
            assert_eq!(r.next3(), 0b111);
        }
    }
}
