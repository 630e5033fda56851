//! Property-based tests for the expander substrate.

use hprng_expander::bits::{SliceBitSource, TriBitReader, CHUNKS_PER_WORD};
use hprng_expander::{
    advance_lanes, GabberGalil, GabberGalilGeneric, GenVertex, Vertex, Walk, KERNEL_LANES,
};
use proptest::prelude::*;

proptest! {
    /// pack/unpack is a bijection on all 64-bit labels.
    #[test]
    fn pack_unpack_bijection(label in any::<u64>()) {
        prop_assert_eq!(Vertex::unpack(label).pack(), label);
    }

    /// Distinct vertices stay distinct under every neighbour map
    /// (injectivity, hence bijectivity on the finite set).
    #[test]
    fn production_maps_injective(a in any::<u64>(), b in any::<u64>(), k in 0u8..7) {
        prop_assume!(a != b);
        let g = GabberGalil;
        let va = Vertex::unpack(a);
        let vb = Vertex::unpack(b);
        prop_assert_ne!(g.neighbor(va, k), g.neighbor(vb, k));
    }

    /// Generic maps are bijections for arbitrary small moduli.
    #[test]
    fn generic_maps_bijective(m in 1u64..12, k in 0u8..7) {
        let g = GabberGalilGeneric::new(m);
        let mut seen = vec![false; g.side_len()];
        for idx in 0..g.side_len() {
            let v = GenVertex::from_index(idx, m);
            let w = g.neighbor(v, k).index(m);
            prop_assert!(!seen[w]);
            seen[w] = true;
        }
    }

    /// A walk is a pure function of (start, bits): replaying the same
    /// inputs gives the same trajectory.
    #[test]
    fn walk_replay_deterministic(
        start in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 1..8),
        steps in 1usize..200,
    ) {
        let run = |_: ()| {
            let mut w = Walk::new(Vertex::unpack(start));
            let mut r = TriBitReader::new(SliceBitSource::new(&words));
            let mut traj = Vec::with_capacity(steps);
            for _ in 0..steps {
                traj.push(w.advance(1, &mut r).pack());
            }
            traj
        };
        prop_assert_eq!(run(()), run(()));
    }

    /// The branch-free fast-path step agrees with the reference neighbour
    /// map on every vertex and chunk.
    #[test]
    fn step_masked_equals_neighbor(label in any::<u64>(), chunk in 0u8..8) {
        let g = GabberGalil;
        let v = Vertex::unpack(label);
        let expect = if chunk < 7 { g.neighbor(v, chunk) } else { v };
        prop_assert_eq!(g.step_masked(v, chunk), expect);
    }

    /// `Walk::advance` takes each whole group of three chunks through one
    /// table lookup. The group at the start of a word must equal three
    /// `step_masked` steps, low chunk first, whatever the word's later
    /// chunks hold.
    #[test]
    fn step_table_equals_three_masked_steps(
        label in any::<u64>(),
        index in 0u64..512,
        later in any::<u64>(),
    ) {
        let g = GabberGalil;
        let start = Vertex::unpack(label);
        let words = [index | later << 9];
        let mut walk = Walk::new(start);
        walk.advance(3, &mut TriBitReader::new(SliceBitSource::new(&words)));
        let expect = (0..3).fold(start, |v, k| g.step_masked(v, ((index >> (3 * k)) & 7) as u8));
        prop_assert_eq!(walk.position(), expect);
    }

    /// The runs and table lookups of `Walk::advance` equal one
    /// `step_masked(next3())` per step. Small refill buffers land reloads
    /// inside runs, and chunks read before the walk start its runs
    /// mid-word.
    #[test]
    fn advance_runs_equal_per_step_reference(
        start in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 1..7),
        buf_words in 1usize..5,
        before in 0usize..46,
        len in 0u32..201,
    ) {
        let mut fast_bits = TriBitReader::with_buffer(SliceBitSource::new(&words), buf_words);
        let mut slow_bits = TriBitReader::with_buffer(SliceBitSource::new(&words), buf_words);
        for _ in 0..before {
            fast_bits.next3();
            slow_bits.next3();
        }
        let mut fast = Walk::new(Vertex::unpack(start));
        fast.advance(len, &mut fast_bits);
        let (mut slow, mut slow_steps) = (Vertex::unpack(start), 0u64);
        for _ in 0..len {
            slow = GabberGalil.step_masked(slow, slow_bits.next3());
            slow_steps += 1;
        }
        prop_assert_eq!(fast.position(), slow);
        prop_assert_eq!(fast.steps_taken(), slow_steps);
        prop_assert_eq!(fast_bits.chunks_consumed(), slow_bits.chunks_consumed());
        let fast_next: Vec<u8> = (0..5).map(|_| fast_bits.next3()).collect();
        let slow_next: Vec<u8> = (0..5).map(|_| slow_bits.next3()).collect();
        prop_assert_eq!(fast_next, slow_next);
    }

    /// The multi-lane kernel equals one `Walk::advance` per lane over that
    /// lane's words. Each lane's span has one extra word of garbage, which a
    /// kernel that reads past its lane's chunks would pick up.
    #[test]
    fn advance_lanes_equals_walk_advance(
        labels in prop::collection::vec(any::<u64>(), 1..KERNEL_LANES + 1),
        words in prop::collection::vec(any::<u64>(), KERNEL_LANES * 8..KERNEL_LANES * 8 + 1),
        len in 0u32..131,
    ) {
        let span = (len as usize).div_ceil(CHUNKS_PER_WORD);
        let stride = span + 1;
        let expect: Vec<u64> = labels
            .iter()
            .enumerate()
            .map(|(i, &label)| {
                // The reference reads only the lane's own words, cycling.
                let own = &words[i * stride..i * stride + span.max(1)];
                let mut reader = TriBitReader::new(SliceBitSource::new(own));
                Walk::new(Vertex::unpack(label)).advance(len, &mut reader).pack()
            })
            .collect();
        let mut got = labels.clone();
        advance_lanes(&mut got, &words[..labels.len() * stride], stride, len);
        prop_assert_eq!(got, expect);
    }
}
