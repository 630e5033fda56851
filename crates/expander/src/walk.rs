//! Random-walk cursors over the production Gabber–Galil graph.
//!
//! A [`Walk`] holds the current vertex and advances one edge per 3-bit
//! neighbour choice. Two policy knobs reflect choices the paper leaves
//! implicit:
//!
//! * **Neighbour sampling** ([`NeighborSampling`]) — three raw bits yield a
//!   value in `0..8`, but the graph has only seven neighbours. The paper's
//!   pseudocode masks with `0b111` and calls `f(u, b(u))` directly, which is
//!   only well defined if index 7 means *something*. We support both
//!   readings: [`NeighborSampling::MaskWithSelfLoop`] treats 7 as "stay put"
//!   (an eighth self-loop, making the walk lazy — laziness is in fact
//!   *required* for convergence on the bipartite double cover), and
//!   [`NeighborSampling::Rejection`] redraws until the value is `< 7`,
//!   giving exactly uniform neighbour choices at the cost of a variable
//!   number of bits.
//! * **Walk mode** ([`WalkMode`]) — the paper's pseudocode applies the
//!   forward neighbour map at every step (`Directed`), which walks the
//!   7-out-regular functional graph. `Bipartite` alternates forward and
//!   inverse maps, which is the walk on the undirected bipartite
//!   Gabber–Galil graph the expansion theorem is actually stated for. Both
//!   mix rapidly; `Directed` matches the published implementation and is the
//!   default.

use crate::bits::{BitSource, TriBitReader, CHUNKS_PER_WORD};
use crate::graph::{GabberGalil, DEGREE};
use crate::zm::Vertex;

/// How a 3-bit value in `0..8` is mapped onto the seven neighbours.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NeighborSampling {
    /// Value 7 is interpreted as a self-loop (lazy walk). Constant one chunk
    /// per step — this is what the paper's `& 0b111` mask does in practice.
    #[default]
    MaskWithSelfLoop,
    /// Values ≥ 7 are rejected and a fresh chunk is drawn, so each of the
    /// seven neighbours is chosen with probability exactly 1/7.
    Rejection,
}

/// Which edge relation each step uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WalkMode {
    /// Apply the forward neighbour map at every step (the paper's
    /// pseudocode).
    #[default]
    Directed,
    /// Alternate forward and inverse maps, walking the undirected bipartite
    /// graph: even steps go left→right, odd steps right→left.
    Bipartite,
}

/// The resumable identity of a [`Walk`]: the vertex it stands on and the
/// number of steps taken.
///
/// This is the paper's whole per-stream state — a walk is a pure function
/// of `(position, steps, future bits)`, so capturing these two words and
/// later replaying them onto a walk over the same graph policies resumes
/// the trajectory bit-identically. The higher layers
/// (`hprng_core::StreamState`) embed this to checkpoint whole generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkState {
    /// The packed 64-bit label of the current vertex
    /// ([`Vertex::pack`]).
    pub vertex: u64,
    /// Steps taken since construction (self-loops count; selects the edge
    /// direction parity in [`WalkMode::Bipartite`]).
    pub steps: u64,
}

/// A stateful random-walk cursor.
#[derive(Clone, Debug)]
pub struct Walk {
    graph: GabberGalil,
    pos: Vertex,
    sampling: NeighborSampling,
    mode: WalkMode,
    /// Parity of the number of steps taken; selects the edge direction in
    /// `Bipartite` mode.
    steps: u64,
}

impl Walk {
    /// Creates a walk standing on `start`.
    pub fn new(start: Vertex, sampling: NeighborSampling, mode: WalkMode) -> Self {
        Self {
            graph: GabberGalil,
            pos: start,
            sampling,
            mode,
            steps: 0,
        }
    }

    /// Creates a walk with the paper's default policies
    /// (mask-with-self-loop, directed).
    pub fn paper_default(start: Vertex) -> Self {
        Self::new(start, NeighborSampling::default(), WalkMode::default())
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

    /// Repositions the walk (used when re-seeding a thread slot).
    pub fn teleport(&mut self, v: Vertex) {
        self.pos = v;
        self.steps = 0;
    }

    /// Captures the walk's resumable identity: current vertex plus step
    /// count. Policies (sampling, mode) are construction parameters, not
    /// state — the caller re-supplies them on restore.
    #[inline]
    pub fn checkpoint(&self) -> WalkState {
        WalkState {
            vertex: self.pos.pack(),
            steps: self.steps,
        }
    }

    /// Repositions the walk onto a checkpointed `state`. Unlike
    /// [`Walk::teleport`] the step count is restored too, so bipartite
    /// direction parity resumes where the checkpoint left it.
    #[inline]
    pub fn restore(&mut self, state: WalkState) {
        self.pos = Vertex::unpack(state.vertex);
        self.steps = state.steps;
    }

    /// Advances one step using an explicit neighbour choice in `0..8`.
    ///
    /// Returns the new position. Choice 7 behaves according to the sampling
    /// policy: self-loop under `MaskWithSelfLoop`; under `Rejection` it is
    /// ignored (no step is taken) and the caller is expected to redraw —
    /// [`Walk::step_with`] does this automatically.
    #[inline]
    pub fn step_choice(&mut self, choice: u8) -> Vertex {
        debug_assert!(choice < 8, "choice must be a 3-bit value");
        if choice >= DEGREE {
            match self.sampling {
                NeighborSampling::MaskWithSelfLoop => {
                    // Lazy step: stay put but count the step.
                    self.steps += 1;
                }
                NeighborSampling::Rejection => {
                    // Rejected draw: position and step count are unchanged.
                }
            }
            return self.pos;
        }
        self.pos = match self.mode {
            WalkMode::Directed => self.graph.neighbor(self.pos, choice),
            WalkMode::Bipartite => {
                if self.steps.is_multiple_of(2) {
                    self.graph.neighbor(self.pos, choice)
                } else {
                    self.graph.inv_neighbor(self.pos, choice)
                }
            }
        };
        self.steps += 1;
        self.pos
    }

    /// Advances exactly one step, drawing 3-bit chunks from `bits`
    /// (redrawing on rejection when the policy demands it).
    #[inline]
    pub fn step_with<S: BitSource>(&mut self, bits: &mut TriBitReader<S>) -> Vertex {
        loop {
            let before = self.steps;
            let pos = self.step_choice(bits.next3());
            if self.steps != before {
                return pos;
            }
            // Only the Rejection policy leaves the step count unchanged.
        }
    }

    /// Advances `len` steps and returns the destination (the paper's inner
    /// loop of Algorithms 1 and 2).
    ///
    /// The default policy pair (mask-with-self-loop, directed) takes a
    /// branch-lean fast path — this is the innermost loop of the entire
    /// generator. It takes chunks a run at a time
    /// ([`TriBitReader::next_run`], up to 21 from one word) and steps
    /// through each run from a register. Every three chunks of a run index
    /// a compile-time table of 512 three-step maps, each an affine map
    /// `x' = a·x + b·y + e`, `y' = c·x + d·y + f` read off
    /// [`GabberGalil::step_masked`], so the vertex's chain costs one
    /// multiply and two adds per three steps; the zero to two chunks a run
    /// has left over take one `step_masked` each. A run never crosses a
    /// word, so no group reads a word's dropped top bit. It reads exactly
    /// the chunks `len` calls of [`Walk::step_with`] would, and lands on
    /// the same vertex.
    pub fn advance<S: BitSource>(&mut self, len: u32, bits: &mut TriBitReader<S>) -> Vertex {
        if self.sampling == NeighborSampling::MaskWithSelfLoop && self.mode == WalkMode::Directed {
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
            return pos;
        }
        for _ in 0..len {
            self.step_with(bits);
        }
        self.pos
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
/// mask-with-self-loop steps; the chunks its last word has left over are
/// dropped. Each lane's new label equals that of
/// `Walk::new(start, NeighborSampling::MaskWithSelfLoop, mode).advance(len, ..)`
/// over the lane's own words: in [`WalkMode::Bipartite`] the step parity
/// counts from 0 within the call, and self-loops count as steps.
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
pub fn advance_lanes(labels: &mut [u64], words: &[u64], stride: usize, len: u32, mode: WalkMode) {
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
    let (mut x, mut y) = ([0u32; KERNEL_LANES], [0u32; KERNEL_LANES]);
    for (i, &label) in labels.iter().enumerate() {
        let v = Vertex::unpack(label);
        (x[i], y[i]) = (v.x, v.y);
    }
    let mut chunks = [0u64; KERNEL_LANES];
    let mut step = 0;
    for w in 0..span {
        for (i, c) in chunks[..lanes].iter_mut().enumerate() {
            *c = words[i * stride + w];
        }
        let end = len.min(step + CHUNKS_PER_WORD as u32);
        match mode {
            WalkMode::Directed => {
                (step..end).for_each(|_| step_lanes::<false>(&mut x, &mut y, &mut chunks))
            }
            WalkMode::Bipartite => (step..end).for_each(|s| {
                if s % 2 == 0 {
                    step_lanes::<false>(&mut x, &mut y, &mut chunks)
                } else {
                    step_lanes::<true>(&mut x, &mut y, &mut chunks)
                }
            }),
        }
        step = end;
    }
    for (i, label) in labels.iter_mut().enumerate() {
        *label = Vertex::new(x[i], y[i]).pack();
    }
}

/// One mask-with-self-loop step of every lane, forward
/// ([`GabberGalil::step_masked`]) or, with `INVERSE`, backward along the
/// same edge class: chunk `c` in `1..=3` moves `y` by `2x + c - 1`, `c` in
/// `4..=6` moves `x` by `2y + c - 4`, and `0` or `7` stays. Branch-free, so
/// the lanes share one instruction stream.
#[inline(always)]
fn step_lanes<const INVERSE: bool>(
    x: &mut [u32; KERNEL_LANES],
    y: &mut [u32; KERNEL_LANES],
    chunks: &mut [u64; KERNEL_LANES],
) {
    for ((x, y), chunk) in x.iter_mut().zip(y.iter_mut()).zip(chunks.iter_mut()) {
        let c = (*chunk & 0b111) as u32;
        *chunk >>= 3;
        let dy = x.wrapping_mul(2).wrapping_add(c.wrapping_sub(1));
        let dx = y.wrapping_mul(2).wrapping_add(c.wrapping_sub(4));
        let (ny, nx) = if INVERSE {
            (y.wrapping_sub(dy), x.wrapping_sub(dx))
        } else {
            (y.wrapping_add(dy), x.wrapping_add(dx))
        };
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
        let mut a = Walk::paper_default(Vertex::new(7, 9));
        let mut b = Walk::paper_default(Vertex::new(7, 9));
        let mut ra = reader(&words);
        let mut rb = reader(&words);
        for _ in 0..200 {
            assert_eq!(a.step_with(&mut ra), b.step_with(&mut rb));
        }
    }

    #[test]
    fn self_loop_choice_keeps_position_but_counts_step() {
        let mut w = Walk::new(
            Vertex::new(1, 1),
            NeighborSampling::MaskWithSelfLoop,
            WalkMode::Directed,
        );
        let p = w.step_choice(7);
        assert_eq!(p, Vertex::new(1, 1));
        assert_eq!(w.steps_taken(), 1);
    }

    #[test]
    fn rejection_redraws_on_seven() {
        // All-ones words always produce chunk 7; a walk with rejection would
        // spin forever, so feed one word of sevens followed by a word whose
        // first chunk is 1.
        let words = [0xffff_ffff_ffff_ffffu64, 0x1u64];
        let mut w = Walk::new(
            Vertex::new(2, 3),
            NeighborSampling::Rejection,
            WalkMode::Directed,
        );
        let mut r = reader(&words);
        let p = w.step_with(&mut r);
        // Chunk 1 → neighbour 1 = (x, 2x+y) = (2, 7).
        assert_eq!(p, Vertex::new(2, 7));
        assert_eq!(w.steps_taken(), 1);
        // 21 rejected chunks + 1 accepted.
        assert_eq!(r.chunks_consumed(), 22);
    }

    #[test]
    fn bipartite_mode_alternates_direction() {
        let mut w = Walk::new(
            Vertex::new(5, 6),
            NeighborSampling::MaskWithSelfLoop,
            WalkMode::Bipartite,
        );
        // Forward step with k=1: (5, 16).
        assert_eq!(w.step_choice(1), Vertex::new(5, 16));
        // Backward step with k=1 must invert a forward-1 edge: the vertex u
        // with neighbor(u,1) = (5,16) is (5, 6).
        assert_eq!(w.step_choice(1), Vertex::new(5, 6));
    }

    #[test]
    fn directed_mode_never_inverts() {
        let mut w = Walk::new(
            Vertex::new(5, 6),
            NeighborSampling::MaskWithSelfLoop,
            WalkMode::Directed,
        );
        assert_eq!(w.step_choice(1), Vertex::new(5, 16));
        assert_eq!(w.step_choice(1), Vertex::new(5, 26));
    }

    #[test]
    fn advance_takes_requested_number_of_steps() {
        let words = [0x0123_4567_89ab_cdefu64];
        let mut w = Walk::paper_default(Vertex::new(0, 0));
        let mut r = reader(&words);
        w.advance(64, &mut r);
        assert_eq!(w.steps_taken(), 64);
    }

    #[test]
    fn teleport_resets_state() {
        let mut w = Walk::paper_default(Vertex::new(0, 0));
        w.step_choice(1);
        w.teleport(Vertex::new(9, 9));
        assert_eq!(w.position(), Vertex::new(9, 9));
        assert_eq!(w.steps_taken(), 0);
    }

    #[test]
    fn checkpoint_restore_resumes_the_trajectory_bit_identically() {
        let words = [0x0f1e_2d3c_4b5a_6978u64, 0x8796_a5b4_c3d2_e1f0];
        for mode in [WalkMode::Directed, WalkMode::Bipartite] {
            let mut original =
                Walk::new(Vertex::new(3, 5), NeighborSampling::MaskWithSelfLoop, mode);
            let mut r = reader(&words);
            // Odd step count so bipartite parity is mid-cycle at the cut.
            for _ in 0..7 {
                original.step_with(&mut r);
            }
            let state = original.checkpoint();
            assert_eq!(state.steps, 7);
            // Restore onto a fresh walk with the same policies, feed it the
            // same remaining bits, and require identical futures.
            let mut resumed =
                Walk::new(Vertex::new(0, 0), NeighborSampling::MaskWithSelfLoop, mode);
            resumed.restore(state);
            let mut r2 = reader(&words);
            for _ in 0..7 {
                r2.next3(); // burn the bits the original consumed
            }
            for _ in 0..40 {
                assert_eq!(original.step_with(&mut r), resumed.step_with(&mut r2));
            }
        }
    }

    #[test]
    fn restore_differs_from_teleport_by_keeping_steps() {
        let mut w = Walk::paper_default(Vertex::new(1, 2));
        w.step_choice(3);
        w.step_choice(4);
        let state = w.checkpoint();
        let mut other = Walk::paper_default(Vertex::new(0, 0));
        other.restore(state);
        assert_eq!(other.position(), w.position());
        assert_eq!(other.steps_taken(), 2);
        other.teleport(Vertex::unpack(state.vertex));
        assert_eq!(other.steps_taken(), 0);
    }

    #[test]
    fn walks_from_different_starts_diverge() {
        // Same bit stream, different start: positions should differ (the
        // neighbour maps are bijections, so equal positions would imply equal
        // starts).
        let words = [0x5555_aaaa_5555_aaaau64];
        let mut a = Walk::paper_default(Vertex::new(0, 1));
        let mut b = Walk::paper_default(Vertex::new(1, 0));
        let mut ra = reader(&words);
        let mut rb = reader(&words);
        for _ in 0..50 {
            a.step_with(&mut ra);
            b.step_with(&mut rb);
            assert_ne!(a.position(), b.position());
        }
    }
}
