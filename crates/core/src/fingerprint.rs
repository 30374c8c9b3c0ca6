//! Stable cost-matrix fingerprints for plan caching.
//!
//! The plan server caches schedules keyed by the cost matrix that
//! produced them. [`CommMatrix::fingerprint`] is that key: a 64-bit
//! FNV-1a hash ([`Fnv1a`], re-exported from `adaptcomm-obs`) over cells
//! quantized on a fine grid (`2⁻²⁰` of the matrix scale), so the key is
//! stable across platforms and float formatting. Bit-identical matrices
//! — and matrices differing only by float noise far below scheduling
//! relevance — collide, while any real perturbation produces a
//! different key. An exact-key hit replays the cached plan verbatim.
//!
//! No 64-bit key can be sensitive to structure and invariant under
//! arbitrary ±ε jitter at once (some cell always sits on a quantization
//! boundary), so near matches are not keyed at all: the cache nominates
//! its most recent entries at the same `P` and confirms each with
//! [`CommMatrix::max_rel_deviation`] before replanning from it.

use crate::matrix::CommMatrix;
pub use adaptcomm_obs::Fnv1a;

/// Fine quantum for the exact key: `2⁻²⁰` (~1e-6) of the matrix scale.
const EXACT_GRID: f64 = 1_048_576.0;

/// The quantization scale: the matrix's max cost snapped to the nearest
/// power of two (so ±ε perturbations keep the same scale unless the max
/// sits within ε of a power-of-two midpoint).
fn scale_of(m: &CommMatrix) -> f64 {
    let max = m.max_cost().as_ms();
    if max <= 0.0 {
        1.0
    } else {
        // exp2(round(log2 max)): boundaries at √2·2^k.
        max.log2().round().exp2()
    }
}

impl CommMatrix {
    /// A stable 64-bit FNV-1a fingerprint over finely quantized cells —
    /// the plan cache's **exact key**. See the [module docs](self) for
    /// the two-level keying scheme.
    pub fn fingerprint(&self) -> u64 {
        let scale = scale_of(self);
        let quantum = scale / EXACT_GRID;
        let mut h = Fnv1a::new();
        h.write_u64(self.len() as u64);
        for src in 0..self.len() {
            for &cell in self.row(src) {
                // Cells are finite and non-negative by construction.
                h.write_u64((cell / quantum).round() as u64);
            }
        }
        h.finish()
    }

    /// The largest per-cell relative deviation between two matrices,
    /// with each cell's deviation measured against the larger of the
    /// two magnitudes (cells below `1e-9` of the scale compare equal).
    /// `None` if the dimensions differ. This is the confirmation step
    /// behind a near-match nomination: a candidate is only replanned
    /// from when the true deviation is within the cache's tolerance.
    pub fn max_rel_deviation(&self, other: &CommMatrix) -> Option<f64> {
        if self.len() != other.len() {
            return None;
        }
        let floor = scale_of(self).max(scale_of(other)) * 1e-9;
        let mut worst = 0.0f64;
        for src in 0..self.len() {
            for (a, b) in self.row(src).iter().zip(other.row(src)) {
                let denom = a.abs().max(b.abs());
                if denom > floor {
                    worst = worst.max((a - b).abs() / denom);
                }
            }
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(p: usize, f: impl FnMut(usize, usize) -> f64) -> CommMatrix {
        CommMatrix::from_fn(p, f)
    }

    fn base(p: usize) -> CommMatrix {
        // Cells a quarter apart on a log grid.
        matrix(p, |s, d| {
            if s == d {
                0.0
            } else {
                10.0 * 1.25f64.powi(((s * 13 + d * 7) % 11) as i32) * 1.2285
            }
        })
    }

    #[test]
    fn identical_matrices_collide() {
        let a = base(8);
        let b = base(8);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn float_noise_collides_on_the_exact_key() {
        let a = base(8);
        // Noise at 1e-12 relative — far below the 2⁻²⁰ exact grid.
        let b = matrix(8, |s, d| a.cost(s, d).as_ms() * (1.0 + 1e-12));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn perturbations_move_the_exact_key() {
        let a = base(8);
        // ±ε = ±0.5 % per cell, deterministic signs: real jitter, not
        // float noise. The exact key must move; the deviation measures it.
        let b = matrix(8, |s, d| {
            let sign = if (s * 5 + d * 3) % 2 == 0 { 1.0 } else { -1.0 };
            a.cost(s, d).as_ms() * (1.0 + sign * 0.005)
        });
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "ε-jitter must move the exact key"
        );
        assert!(a.max_rel_deviation(&b).unwrap() < 0.006);
    }

    #[test]
    fn structurally_different_matrices_do_not_collide() {
        let a = base(8);
        let transposed = matrix(8, |s, d| a.cost(d, s).as_ms());
        let scaled = matrix(8, |s, d| a.cost(s, d).as_ms() * 3.0);
        let bigger = base(9);
        for other in [&transposed, &scaled] {
            assert_ne!(a.fingerprint(), other.fingerprint());
        }
        assert_ne!(a.fingerprint(), bigger.fingerprint());
        assert!(a.max_rel_deviation(&transposed).unwrap() > 0.10);
        assert!(a.max_rel_deviation(&bigger).is_none());
    }

    #[test]
    fn fingerprints_are_stable_constants() {
        // Frozen values: the cache key must never drift across
        // refactors, or every deployed cache silently empties.
        let m = CommMatrix::from_rows(&[vec![0.0, 10.0], vec![20.0, 0.0]]);
        assert_eq!(m.fingerprint(), 0xa002_763f_2e8a_41d9);
        let again = CommMatrix::from_rows(&[vec![0.0, 10.0], vec![20.0, 0.0]]);
        assert_eq!(m.fingerprint(), again.fingerprint());
    }

    #[test]
    fn zero_matrix_is_hashable() {
        let z = matrix(4, |_, _| 0.0);
        assert_eq!(z.fingerprint(), matrix(4, |_, _| 0.0).fingerprint());
        assert_eq!(z.max_rel_deviation(&z), Some(0.0));
    }
}
