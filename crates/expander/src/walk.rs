//! Random-walk cursors over the production Gabber–Galil graph.
//!
//! A [`Walk`] holds the current vertex and advances one edge per 3-bit
//! chunk of raw bits: the paper's Algorithm 2, `b(u) = bin(t) & 0b111`
//! followed by `u = f(u, b(u))`. Chunks `0..=6` take the forward
//! neighbour map `f(u, k)`, and chunk 7, which the mask can yield but the
//! degree-7 graph has no edge for, stays put. So every step reads exactly
//! one chunk, and the walk is a lazy walk on the 7-out-regular directed
//! graph of the forward maps.

use crate::bits::{BitSource, TriBitReader, CHUNKS_PER_WORD};
use crate::graph::GabberGalil;
use crate::zm::Vertex;

/// The resumable identity of a [`Walk`]: the vertex it stands on and the
/// number of steps taken.
///
/// This is the paper's whole per-stream state — a walk is a pure function
/// of `(position, future bits)`, so capturing the position and later
/// replaying it onto a fresh walk resumes the trajectory bit-identically.
/// The higher layers (`hprng_core::StreamState`) embed this to checkpoint
/// whole generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkState {
    /// The packed 64-bit label of the current vertex
    /// ([`Vertex::pack`]).
    pub vertex: u64,
    /// Steps taken since construction, self-loops included: a step count
    /// that [`Walk::restore`] carries over and that no step reads.
    pub steps: u64,
}

/// A stateful random-walk cursor.
#[derive(Clone, Debug)]
pub struct Walk {
    graph: GabberGalil,
    pos: Vertex,
    /// Steps taken since construction, self-loops included.
    steps: u64,
}

impl Walk {
    /// Creates a walk standing on `start`.
    pub fn new(start: Vertex) -> Self {
        Self {
            graph: GabberGalil,
            pos: start,
            steps: 0,
        }
    }

    /// The vertex the walk currently stands on.
    #[inline]
    pub fn position(&self) -> Vertex {
        self.pos
    }

    /// Number of steps taken since construction (self-loops count).
    #[inline]
    pub fn steps_taken(&self) -> u64 {
        self.steps
    }

    /// Captures the walk's resumable identity: current vertex plus step
    /// count.
    #[inline]
    pub fn checkpoint(&self) -> WalkState {
        WalkState {
            vertex: self.pos.pack(),
            steps: self.steps,
        }
    }

    /// Repositions the walk onto a checkpointed `state`, vertex and step
    /// count both. A fresh [`Walk::new`] on the same vertex takes the same
    /// future steps; only its step count starts again from zero.
    #[inline]
    pub fn restore(&mut self, state: WalkState) {
        self.pos = Vertex::unpack(state.vertex);
        self.steps = state.steps;
    }

    /// Advances `len` steps, one 3-bit chunk each, and returns the
    /// destination (the paper's inner loop of Algorithms 1 and 2).
    ///
    /// This is the innermost loop of the entire generator. It takes chunks
    /// a run at a time ([`TriBitReader::next_run`], up to 21 from one
    /// word) and steps through each run from a register. Every three
    /// chunks of a run index a compile-time table of 512 three-step maps,
    /// each an affine map `x' = a·x + b·y + e`, `y' = c·x + d·y + f` read
    /// off [`GabberGalil::step_masked`], so the vertex's chain costs one
    /// multiply and two adds per three steps; the zero to two chunks a run
    /// has left over take one `step_masked` each. A run never crosses a
    /// word, so no group reads a word's dropped top bit. It reads exactly
    /// `len` chunks, the ones `len` calls of [`TriBitReader::next3`] would
    /// return, and lands where `len` calls of `step_masked` on them would.
    pub fn advance<S: BitSource>(&mut self, len: u32, bits: &mut TriBitReader<S>) -> Vertex {
        let g = self.graph;
        let mut pos = self.pos;
        let mut left = len;
        while left > 0 {
            let (mut run, n) = bits.next_run(left);
            for _ in 0..n / 3 {
                pos = g.step3(pos, run);
                run >>= 9;
            }
            for _ in 0..n % 3 {
                pos = g.step_masked(pos, (run & 0b111) as u8);
                run >>= 3;
            }
            left -= n;
        }
        self.pos = pos;
        self.steps += len as u64;
        pos
    }
}

/// Walks advanced together by [`advance_lanes`].
pub const KERNEL_LANES: usize = 8;

/// Advances up to [`KERNEL_LANES`] walks in lock-step: the paper's
/// Algorithm 2 with one walk per device thread, on the host.
///
/// Lane `i` stands on the packed label `labels[i]` and reads its 3-bit
/// chunks from `words[i * stride..]`, as a [`TriBitReader`] would: 21
/// chunks per word, low chunk first, top bit dropped. It takes `len`
/// steps; the chunks its last word has left over are dropped. Each lane's
/// new label equals that of `Walk::new(start).advance(len, ..)` over the
/// lane's own words.
///
/// A single walk is a chain of dependent steps. The kernel keeps eight of
/// them as structure-of-arrays (`x` and `y` as `[u32; 8]`, one chunk
/// register per lane, reloaded every 21 steps), so their steps overlap.
/// Lanes past `labels.len()` step on zero chunks, which stay put, and are
/// discarded.
///
/// # Panics
/// Panics if `labels` holds more than [`KERNEL_LANES`] labels, if `stride`
/// is shorter than the `len.div_ceil(21)` words a lane reads, or if
/// `words` ends before the last lane's words do.
pub fn advance_lanes(labels: &mut [u64], words: &[u64], stride: usize, len: u32) {
    let lanes = labels.len();
    assert!(
        lanes <= KERNEL_LANES,
        "advance_lanes takes at most {KERNEL_LANES} lanes, got {lanes}"
    );
    let span = (len as usize).div_ceil(CHUNKS_PER_WORD);
    if lanes == 0 || span == 0 {
        return;
    }
    assert!(
        stride >= span,
        "stride {stride} is shorter than a lane's {span} words"
    );
    assert!(
        words.len() >= (lanes - 1) * stride + span,
        "{lanes} lanes of {span} words at stride {stride} need more than {} words",
        words.len()
    );
    // The labels move in and out as one full group, and every word is
    // loaded for all eight lanes, so no lane has a branch of its own. With
    // a per-lane early exit the compiler kept the lanes in scalar
    // registers, 2–3× slower per step than the vector code it emits for
    // this form.
    let mut group = [0u64; KERNEL_LANES];
    group[..lanes].copy_from_slice(labels);
    let mut x = group.map(|label| Vertex::unpack(label).x);
    let mut y = group.map(|label| Vertex::unpack(label).y);
    let mut step = 0;
    for w in 0..span {
        let mut chunks: [u64; KERNEL_LANES] =
            std::array::from_fn(|i| if i < lanes { words[i * stride + w] } else { 0 });
        let end = len.min(step + CHUNKS_PER_WORD as u32);
        (step..end).for_each(|_| step_lanes(&mut x, &mut y, &mut chunks));
        step = end;
    }
    let group: [u64; KERNEL_LANES] = std::array::from_fn(|i| Vertex::new(x[i], y[i]).pack());
    labels.copy_from_slice(&group[..lanes]);
}

/// One [`GabberGalil::step_masked`] step of every lane: chunk `c` in
/// `1..=3` moves `y` by `2x + c - 1`, `c` in `4..=6` moves `x` by
/// `2y + c - 4`, and `0` or `7` stays. Branch-free, so the lanes share one
/// instruction stream.
#[inline(always)]
fn step_lanes(
    x: &mut [u32; KERNEL_LANES],
    y: &mut [u32; KERNEL_LANES],
    chunks: &mut [u64; KERNEL_LANES],
) {
    for ((x, y), chunk) in x.iter_mut().zip(y.iter_mut()).zip(chunks.iter_mut()) {
        let c = (*chunk & 0b111) as u32;
        *chunk >>= 3;
        let dy = x.wrapping_mul(2).wrapping_add(c.wrapping_sub(1));
        let dx = y.wrapping_mul(2).wrapping_add(c.wrapping_sub(4));
        let (ny, nx) = (y.wrapping_add(dy), x.wrapping_add(dx));
        let mask_y = 0u32.wrapping_sub(u32::from(c.wrapping_sub(1) < 3));
        let mask_x = 0u32.wrapping_sub(u32::from(c.wrapping_sub(4) < 3));
        *x = (*x & !mask_x) | (nx & mask_x);
        *y = (*y & !mask_y) | (ny & mask_y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::SliceBitSource;

    fn reader(words: &[u64]) -> TriBitReader<SliceBitSource<'_>> {
        TriBitReader::new(SliceBitSource::new(words))
    }

    #[test]
    fn walk_is_deterministic_given_bits() {
        let words = [0xdead_beef_cafe_f00du64, 0x1234_5678_9abc_def0];
        let mut a = Walk::new(Vertex::new(7, 9));
        let mut b = Walk::new(Vertex::new(7, 9));
        let mut ra = reader(&words);
        let mut rb = reader(&words);
        for len in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            assert_eq!(a.advance(len, &mut ra), b.advance(len, &mut rb));
        }
    }

    #[test]
    fn self_loop_choice_keeps_position_but_counts_step() {
        // Every chunk of an all-ones word is 7, the self-loop.
        let words = [u64::MAX];
        let mut w = Walk::new(Vertex::new(1, 1));
        let len = 50;
        assert_eq!(w.advance(len, &mut reader(&words)), Vertex::new(1, 1));
        assert_eq!(w.steps_taken(), len as u64);
    }

    #[test]
    fn advance_takes_requested_number_of_steps() {
        let words = [0x0123_4567_89ab_cdefu64];
        let mut w = Walk::new(Vertex::new(0, 0));
        let mut r = reader(&words);
        w.advance(64, &mut r);
        assert_eq!(w.steps_taken(), 64);
    }

    #[test]
    fn checkpoint_restore_resumes_the_trajectory_bit_identically() {
        let words = [0x0f1e_2d3c_4b5a_6978u64, 0x8796_a5b4_c3d2_e1f0];
        let mut original = Walk::new(Vertex::new(3, 5));
        let mut r = reader(&words);
        original.advance(7, &mut r);
        let state = original.checkpoint();
        assert_eq!(state.steps, 7);
        // Restore onto a fresh walk, feed it the same remaining bits, and
        // require identical futures.
        let mut resumed = Walk::new(Vertex::new(0, 0));
        resumed.restore(state);
        let mut r2 = reader(&words);
        r2.skip_chunks(7); // the bits the original consumed
        for _ in 0..40 {
            assert_eq!(original.advance(1, &mut r), resumed.advance(1, &mut r2));
        }
        assert_eq!(resumed.steps_taken(), original.steps_taken());
    }

    #[test]
    fn restore_keeps_the_step_count() {
        let words = [0o43u64]; // chunks 3, then 4
        let mut w = Walk::new(Vertex::new(1, 2));
        w.advance(2, &mut reader(&words));
        let state = w.checkpoint();
        let mut other = Walk::new(Vertex::new(0, 0));
        other.restore(state);
        assert_eq!(other.position(), w.position());
        assert_eq!(other.steps_taken(), 2);
    }

    #[test]
    fn walks_from_different_starts_diverge() {
        // Same bit stream, different start: positions should differ (the
        // neighbour maps are bijections, so equal positions would imply equal
        // starts).
        let words = [0x5555_aaaa_5555_aaaau64];
        let mut a = Walk::new(Vertex::new(0, 1));
        let mut b = Walk::new(Vertex::new(1, 0));
        let mut ra = reader(&words);
        let mut rb = reader(&words);
        for _ in 0..50 {
            a.advance(1, &mut ra);
            b.advance(1, &mut rb);
            assert_ne!(a.position(), b.position());
        }
    }
}
