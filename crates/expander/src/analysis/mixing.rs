//! Total-variation mixing curves for walks on small instances.
//!
//! `mixing_curve` starts a walk distribution as a point mass, evolves it
//! with the *exact* transition operator of the walk the PRNG actually
//! performs (directed functional walk with the 1/8 self-loop of the
//! paper's `& 0b111` mask), and records the total-variation distance to
//! the uniform distribution after every step. The paper's warm-up length of
//! 64 corresponds to the point where these curves flatten at ≈ 0 for every
//! start vertex.

use crate::graph::{GabberGalilGeneric, DEGREE};
use crate::zm::GenVertex;

/// Total-variation distance `½ Σ |p_i − q_i|` between two distributions.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions must have equal support");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// One step of the directed lazy walk: each vertex sends 1/8 of its mass to
/// each of its 7 out-neighbours and keeps 1/8 (the masked value 7 →
/// self-loop).
fn step_directed_lazy(g: GabberGalilGeneric, dist: &[f64], out: &mut [f64]) {
    let m = g.modulus();
    for o in out.iter_mut() {
        *o = 0.0;
    }
    for (idx, &mass) in dist.iter().enumerate() {
        if mass == 0.0 {
            continue;
        }
        let v = GenVertex::from_index(idx, m);
        let share = mass / 8.0;
        out[idx] += share; // self-loop
        for k in 0..DEGREE {
            out[g.neighbor(v, k).index(m)] += share;
        }
    }
}

/// Evolves a point mass at `start` for `steps` steps of the directed lazy
/// walk and returns the TV distance to uniform after each step
/// (`result[t]` = distance after `t + 1` steps).
pub fn mixing_curve(g: GabberGalilGeneric, start: GenVertex, steps: usize) -> Vec<f64> {
    let n = g.side_len();
    let uniform = vec![1.0 / n as f64; n];
    let mut dist = vec![0.0; n];
    dist[start.index(g.modulus())] = 1.0;
    let mut scratch = vec![0.0; n];
    let mut curve = Vec::with_capacity(steps);
    for _ in 0..steps {
        step_directed_lazy(g, &dist, &mut scratch);
        std::mem::swap(&mut dist, &mut scratch);
        curve.push(tv_distance(&dist, &uniform));
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tv_distance_basics() {
        assert_eq!(tv_distance(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(tv_distance(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert!((tv_distance(&[0.5, 0.5], &[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal support")]
    fn tv_distance_length_mismatch_panics() {
        let _ = tv_distance(&[1.0], &[0.5, 0.5]);
    }

    #[test]
    fn directed_lazy_step_preserves_mass() {
        let g = GabberGalilGeneric::new(5);
        let n = g.side_len();
        let mut dist = vec![0.0; n];
        dist[7] = 1.0;
        let mut out = vec![0.0; n];
        step_directed_lazy(g, &dist, &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixing_curve_is_eventually_small() {
        // m = 8 → 64 vertices. After 64 lazy steps the walk must be very
        // close to uniform (the paper uses warm-up length 64 on a vastly
        // larger graph precisely because expander mixing is logarithmic).
        let g = GabberGalilGeneric::new(8);
        let curve = mixing_curve(g, GenVertex::new(0, 0, 8), 64);
        let last = *curve.last().unwrap();
        assert!(last < 1e-3, "walk did not mix: TV after 64 steps = {last}");
    }

    #[test]
    fn mixing_curve_is_monotone_decreasing_overall() {
        // TV to stationarity is non-increasing for lazy chains.
        let g = GabberGalilGeneric::new(6);
        let curve = mixing_curve(g, GenVertex::new(1, 2, 6), 32);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "TV increased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn mixing_independent_of_start_vertex_eventually() {
        let g = GabberGalilGeneric::new(7);
        let a = mixing_curve(g, GenVertex::new(0, 0, 7), 48);
        let b = mixing_curve(g, GenVertex::new(3, 5, 7), 48);
        assert!((a.last().unwrap() - b.last().unwrap()).abs() < 1e-6);
    }
}
