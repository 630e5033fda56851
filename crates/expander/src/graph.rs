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

    /// The walk-step fast path: maps a raw 3-bit chunk to the next vertex
    /// under the mask-with-self-loop policy (`0..=6` → neighbour, `7` →
    /// stay). Never panics.
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
    #[inline(always)]
    pub fn step_masked(self, v: Vertex, chunk: u8) -> Vertex {
        let c = chunk as u32;
        let Vertex { x, y } = v;
        // Class selectors: c ∈ 1..=3 moves y, c ∈ 4..=6 moves x,
        // c ∈ {0, 7} keeps the vertex.
        let mask_y = 0u32.wrapping_sub(u32::from(c.wrapping_sub(1) < 3));
        let mask_x = 0u32.wrapping_sub(u32::from(c.wrapping_sub(4) < 3));
        let dx = y.wrapping_mul(2).wrapping_add(c.wrapping_sub(4));
        let dy = x.wrapping_mul(2).wrapping_add(c.wrapping_sub(1));
        Vertex::new(x.wrapping_add(dx & mask_x), y.wrapping_add(dy & mask_y))
    }

    /// Returns the unique `u` with `neighbor(u, k) == v` — the reverse edge
    /// used when walking from the right side of the bipartite graph back to
    /// the left.
    ///
    /// # Panics
    /// Panics if `k >= 7`.
    #[inline]
    pub fn inv_neighbor(self, v: Vertex, k: u8) -> Vertex {
        let Vertex { x, y } = v;
        match k {
            0 => v,
            1 => Vertex::new(x, y.wrapping_sub(x.wrapping_mul(2))),
            2 => Vertex::new(x, y.wrapping_sub(x.wrapping_mul(2)).wrapping_sub(1)),
            3 => Vertex::new(x, y.wrapping_sub(x.wrapping_mul(2)).wrapping_sub(2)),
            4 => Vertex::new(x.wrapping_sub(y.wrapping_mul(2)), y),
            5 => Vertex::new(x.wrapping_sub(y.wrapping_mul(2)).wrapping_sub(1), y),
            6 => Vertex::new(x.wrapping_sub(y.wrapping_mul(2)).wrapping_sub(2), y),
            _ => panic!("Gabber-Galil vertex degree is 7, got neighbour index {k}"),
        }
    }
}

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

    /// Returns the unique `u` with `neighbor(u, k) == v`.
    ///
    /// # Panics
    /// Panics if `k >= 7`.
    #[inline]
    pub fn inv_neighbor(self, v: GenVertex, k: u8) -> GenVertex {
        let m = self.m;
        let GenVertex { x, y } = v;
        let sub = |a: u64, b: u64| (a + m - b % m) % m;
        match k {
            0 => v,
            1 => GenVertex {
                x,
                y: sub(y, 2 * x % m),
            },
            2 => GenVertex {
                x,
                y: sub(sub(y, 2 * x % m), 1),
            },
            3 => GenVertex {
                x,
                y: sub(sub(y, 2 * x % m), 2),
            },
            4 => GenVertex {
                x: sub(x, 2 * y % m),
                y,
            },
            5 => GenVertex {
                x: sub(sub(x, 2 * y % m), 1),
                y,
            },
            6 => GenVertex {
                x: sub(sub(x, 2 * y % m), 2),
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
    fn production_inverse_inverts_all_maps() {
        let g = GabberGalil;
        let vs = [
            Vertex::new(0, 0),
            Vertex::new(1, 2),
            Vertex::new(u32::MAX, 17),
            Vertex::new(0x8000_0000, 0x7fff_ffff),
        ];
        for v in vs {
            for k in 0..DEGREE {
                assert_eq!(g.inv_neighbor(g.neighbor(v, k), k), v, "k={k} v={v:?}");
                assert_eq!(g.neighbor(g.inv_neighbor(v, k), k), v, "k={k} v={v:?}");
            }
        }
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
    fn generic_inverse_inverts_all_maps() {
        let m = 9;
        let g = GabberGalilGeneric::new(m);
        for idx in 0..g.side_len() {
            let v = GenVertex::from_index(idx, m);
            for k in 0..DEGREE {
                assert_eq!(g.inv_neighbor(g.neighbor(v, k), k), v);
            }
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
}
