//! The Gabber–Galil neighbour maps.
//!
//! For a modulus `m`, the Gabber–Galil construction connects a vertex
//! `(x, y) ∈ Z_m × Z_m` on the left side of a bipartite graph to the seven
//! vertices
//!
//! ```text
//! k = 0: (x,        y)
//! k = 1: (x,        2x + y)
//! k = 2: (x,        2x + y + 1)
//! k = 3: (x,        2x + y + 2)
//! k = 4: (x + 2y,   y)
//! k = 5: (x + 2y+1, y)
//! k = 6: (x + 2y+2, y)
//! ```
//!
//! on the right side, all arithmetic modulo `m` (this is the exact neighbour
//! list quoted in §III-A of the paper). Each map is a *bijection* of
//! `Z_m × Z_m`, so interpreting the maps as out-edges yields a 7-out-regular,
//! 7-in-regular directed graph on `m²` vertices whose underlying undirected
//! bipartite double cover is the classical Gabber–Galil expander with edge
//! expansion `α(G) = (2 − √3)/2`.

use crate::zm::{GenVertex, Vertex};

/// Degree of the Gabber–Galil graph: every vertex has exactly seven
/// neighbours.
pub const DEGREE: u8 = 7;

/// The production Gabber–Galil graph with modulus `m = 2^32`
/// (`n = 2^64` labels per side, the paper's "`n = 2^65` node" bipartite
/// graph).
///
/// The type is a zero-sized witness: all state lives in the walk cursors.
/// Arithmetic is wrapping `u32` arithmetic, which *is* arithmetic modulo
/// `2^32`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GabberGalil;

impl GabberGalil {
    /// Returns the `k`-th neighbour of `v` (the paper's `f(u, k)`).
    ///
    /// The seven maps fall into three shapes, which keeps the hot path a
    /// 3-way branch instead of an 8-way jump table (walk steps are the
    /// innermost loop of the whole system).
    ///
    /// # Panics
    /// Panics if `k >= 7`.
    #[inline]
    pub fn neighbor(self, v: Vertex, k: u8) -> Vertex {
        let Vertex { x, y } = v;
        match k {
            0 => v,
            1..=3 => Vertex::new(
                x,
                x.wrapping_mul(2).wrapping_add(y).wrapping_add(k as u32 - 1),
            ),
            4..=6 => Vertex::new(
                x.wrapping_add(y.wrapping_mul(2)).wrapping_add(k as u32 - 4),
                y,
            ),
            _ => panic!("Gabber-Galil vertex degree is 7, got neighbour index {k}"),
        }
    }

    /// One walk step: maps a raw 3-bit chunk to the next vertex, as the
    /// paper's `& 0b111` mask reads it (`0..=6` → neighbour, `7` → stay).
    /// Never panics.
    ///
    /// Branch-free: the chunk value is uniformly random, so any branch on
    /// it mispredicts ~60% of the time and dominates the step cost. Each
    /// coordinate adds its masked increment instead:
    /// `x += mask_x & (2y + c − 4)` and `y += mask_y & (2x + c − 1)`. At
    /// most one mask is set, so both increments read the old vertex. On a
    /// scalar lane this measured 20–30% less time per step than computing
    /// both candidate vertices and selecting one. The 8-lane kernel
    /// ([`crate::advance_lanes`]) keeps the select form: over its vector
    /// lanes the masked adds measured up to twice as slow.
    ///
    /// It is `const` because it also defines the scalar walk's table of
    /// three-step maps, which is evaluated from it at compile time:
    /// [`crate::Walk::advance`] takes three steps per table lookup and
    /// calls this only for the zero to two chunks a run has left over.
    #[inline(always)]
    pub const fn step_masked(self, v: Vertex, chunk: u8) -> Vertex {
        let c = chunk as u32;
        let Vertex { x, y } = v;
        // Class selectors: c ∈ 1..=3 moves y, c ∈ 4..=6 moves x,
        // c ∈ {0, 7} keeps the vertex.
        let mask_y = 0u32.wrapping_sub((c.wrapping_sub(1) < 3) as u32);
        let mask_x = 0u32.wrapping_sub((c.wrapping_sub(4) < 3) as u32);
        let dx = y.wrapping_mul(2).wrapping_add(c.wrapping_sub(4));
        let dy = x.wrapping_mul(2).wrapping_add(c.wrapping_sub(1));
        Vertex::new(x.wrapping_add(dx & mask_x), y.wrapping_add(dy & mask_y))
    }

    /// Three [`GabberGalil::step_masked`] steps in one table lookup: the
    /// steps driven by chunks `chunks & 7`, `(chunks >> 3) & 7` and
    /// `(chunks >> 6) & 7`, low chunk first. Bits above the ninth are
    /// ignored.
    #[inline(always)]
    pub(crate) fn step3(self, v: Vertex, chunks: u64) -> Vertex {
        // The mask keeps the index below the table length, so the
        // lookup carries no bounds check.
        STEP3[(chunks & 0x1ff) as usize].apply(v)
    }
}

/// Three walk steps composed into one affine map of `(x, y)` over
/// `Z/2^32`: `x' = a·x + b·y + e` and `y' = c·x + d·y + f`.
///
/// Every walk step is such a map (a shear plus a constant, or the
/// identity), so any three compose into one. On a scalar lane the
/// composed map puts one multiply and two adds on the vertex's dependency
/// chain per three steps, where three masked steps put three shift-add,
/// mask and add sequences on it.
#[derive(Clone, Copy)]
struct StepMap {
    a: u32,
    b: u32,
    c: u32,
    d: u32,
    e: u32,
    f: u32,
}

impl StepMap {
    /// The three steps driven by the chunks of `index`, low chunk first.
    ///
    /// An affine map is fixed by its values at `(0, 0)`, `(1, 0)` and
    /// `(0, 1)`: those give the constants and the two columns. So the
    /// map is read off three runs of [`GabberGalil::step_masked`] itself,
    /// and the table cannot drift from the step it replaces.
    const fn of_chunks(index: usize) -> Self {
        let o = three_steps(Vertex::new(0, 0), index);
        let ex = three_steps(Vertex::new(1, 0), index);
        let ey = three_steps(Vertex::new(0, 1), index);
        Self {
            a: ex.x.wrapping_sub(o.x),
            b: ey.x.wrapping_sub(o.x),
            c: ex.y.wrapping_sub(o.y),
            d: ey.y.wrapping_sub(o.y),
            e: o.x,
            f: o.y,
        }
    }

    /// The map's image of `v`, with wrapping arithmetic.
    #[inline(always)]
    fn apply(self, v: Vertex) -> Vertex {
        Vertex::new(
            self.a
                .wrapping_mul(v.x)
                .wrapping_add(self.b.wrapping_mul(v.y))
                .wrapping_add(self.e),
            self.c
                .wrapping_mul(v.x)
                .wrapping_add(self.d.wrapping_mul(v.y))
                .wrapping_add(self.f),
        )
    }
}

/// Three [`GabberGalil::step_masked`] steps from `v`, driven by the low
/// nine bits of `index`, low chunk first.
const fn three_steps(v: Vertex, index: usize) -> Vertex {
    let g = GabberGalil;
    let v = g.step_masked(v, (index & 7) as u8);
    let v = g.step_masked(v, ((index >> 3) & 7) as u8);
    g.step_masked(v, ((index >> 6) & 7) as u8)
}

/// Every run of three chunks as one [`StepMap`] (512 entries, 12 KiB):
/// entry `i` is the steps driven by chunks `i & 7`, then `(i >> 3) & 7`,
/// then `i >> 6`, the order in which the chunk reader hands them out.
/// Evaluated at compile time.
static STEP3: [StepMap; 512] = {
    let mut table = [StepMap::of_chunks(0); 512];
    let mut i = 0;
    while i < table.len() {
        table[i] = StepMap::of_chunks(i);
        i += 1;
    }
    table
};

/// A Gabber–Galil graph with an arbitrary modulus `m`, used for analysis on
/// graphs small enough to enumerate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GabberGalilGeneric {
    m: u64,
}

impl GabberGalilGeneric {
    /// Creates a graph over `Z_m × Z_m`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: u64) -> Self {
        assert!(m > 0, "modulus must be positive");
        Self { m }
    }

    /// The modulus `m`.
    #[inline]
    pub fn modulus(self) -> u64 {
        self.m
    }

    /// Number of vertices per bipartition side, `m²`.
    #[inline]
    pub fn side_len(self) -> usize {
        (self.m * self.m) as usize
    }

    /// Returns the `k`-th neighbour of `v`.
    ///
    /// # Panics
    /// Panics if `k >= 7`.
    #[inline]
    pub fn neighbor(self, v: GenVertex, k: u8) -> GenVertex {
        let m = self.m;
        let GenVertex { x, y } = v;
        let add = |a: u64, b: u64| (a + b) % m;
        match k {
            0 => v,
            1 => GenVertex {
                x,
                y: add(2 * x % m, y),
            },
            2 => GenVertex {
                x,
                y: add(add(2 * x % m, y), 1),
            },
            3 => GenVertex {
                x,
                y: add(add(2 * x % m, y), 2),
            },
            4 => GenVertex {
                x: add(x, 2 * y % m),
                y,
            },
            5 => GenVertex {
                x: add(add(x, 2 * y % m), 1),
                y,
            },
            6 => GenVertex {
                x: add(add(x, 2 * y % m), 2),
                y,
            },
            _ => panic!("Gabber-Galil vertex degree is 7, got neighbour index {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_neighbors_match_definition() {
        let g = GabberGalil;
        let v = Vertex::new(3, 5);
        assert_eq!(g.neighbor(v, 0), Vertex::new(3, 5));
        assert_eq!(g.neighbor(v, 1), Vertex::new(3, 11));
        assert_eq!(g.neighbor(v, 2), Vertex::new(3, 12));
        assert_eq!(g.neighbor(v, 3), Vertex::new(3, 13));
        assert_eq!(g.neighbor(v, 4), Vertex::new(13, 5));
        assert_eq!(g.neighbor(v, 5), Vertex::new(14, 5));
        assert_eq!(g.neighbor(v, 6), Vertex::new(15, 5));
    }

    #[test]
    fn production_neighbors_wrap() {
        let g = GabberGalil;
        let v = Vertex::new(u32::MAX, u32::MAX);
        // 2x + y = 2(2^32-1) + (2^32-1) = 3*2^32 - 3 ≡ -3 mod 2^32
        assert_eq!(g.neighbor(v, 1), Vertex::new(u32::MAX, u32::MAX - 2));
        assert_eq!(g.neighbor(v, 4), Vertex::new(u32::MAX - 2, u32::MAX));
    }

    #[test]
    fn generic_matches_production_for_pow2_modulus() {
        // With m = 2^16 the generic graph must agree with the production maps
        // applied to 16-bit truncated coordinates.
        let m = 1u64 << 16;
        let gg = GabberGalilGeneric::new(m);
        let prod = GabberGalil;
        for &(x, y) in &[(0u32, 0u32), (1, 2), (65535, 65535), (12345, 54321)] {
            let gv = GenVertex {
                x: x as u64,
                y: y as u64,
            };
            for k in 0..DEGREE {
                let a = gg.neighbor(gv, k);
                let b = prod.neighbor(Vertex::new(x, y), k);
                assert_eq!(a.x as u32, b.x & 0xffff, "k={k}");
                assert_eq!(a.y as u32, b.y & 0xffff, "k={k}");
            }
        }
    }

    #[test]
    fn generic_each_map_is_a_bijection() {
        let m = 5;
        let g = GabberGalilGeneric::new(m);
        for k in 0..DEGREE {
            let mut seen = vec![false; g.side_len()];
            for idx in 0..g.side_len() {
                let v = GenVertex::from_index(idx, m);
                let w = g.neighbor(v, k);
                let widx = w.index(m);
                assert!(!seen[widx], "map {k} is not injective");
                seen[widx] = true;
            }
            assert!(seen.iter().all(|&s| s), "map {k} is not surjective");
        }
    }

    #[test]
    #[should_panic(expected = "degree is 7")]
    fn neighbor_index_out_of_range_panics() {
        GabberGalil.neighbor(Vertex::new(0, 0), 7);
    }

    #[test]
    fn step_masked_matches_neighbor_for_all_chunks() {
        let g = GabberGalil;
        let vs = [
            Vertex::new(0, 0),
            Vertex::new(1, 2),
            Vertex::new(u32::MAX, u32::MAX),
            Vertex::new(0x8000_0000, 0x7fff_ffff),
            Vertex::new(0xdead_beef, 0x1234_5678),
        ];
        for v in vs {
            for k in 0..DEGREE {
                assert_eq!(g.step_masked(v, k), g.neighbor(v, k), "k={k} v={v:?}");
            }
            assert_eq!(g.step_masked(v, 7), v, "chunk 7 must self-loop");
        }
    }

    #[test]
    fn step_table_equals_three_masked_steps() {
        let g = GabberGalil;
        let vs = [
            Vertex::new(0, 0),
            Vertex::new(1, 1),
            Vertex::new(u32::MAX, u32::MAX),
            Vertex::new(0x8000_0000, 0x7fff_ffff),
            Vertex::new(0xdead_beef, 0x1234_5678),
            Vertex::new(0x9e37_79b9, 0x7f4a_7c15),
            Vertex::new(0x0bad_cafe, 0xf00d_0001),
        ];
        for (i, map) in STEP3.iter().enumerate() {
            for v in vs {
                let want = (0..3).fold(v, |w, k| g.step_masked(w, ((i >> (3 * k)) & 7) as u8));
                assert_eq!(map.apply(v), want, "entry {i} at {v:?}");
                // Bits above the ninth belong to later chunks.
                assert_eq!(g.step3(v, i as u64 | 0xbeef << 9), want, "step3 {i}");
            }
        }
    }
}
