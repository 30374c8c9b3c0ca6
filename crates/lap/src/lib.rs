//! Dense linear assignment problem (LAP) solvers.
//!
//! The matching-based scheduling algorithm of the paper computes a series
//! of maximum-weight complete matchings in a bipartite graph — "this is
//! identical to the linear assignment problem" (§4.3). The paper used Roy
//! Jonker's public-domain LAP code; this crate is a from-scratch Rust
//! replacement offering:
//!
//! * [`jv`] — the Jonker–Volgenant `O(n³)` algorithm (column reduction,
//!   reduction transfer, augmenting row reduction, shortest augmenting
//!   paths), the production solver;
//! * [`hungarian`] — a compact Kuhn–Munkres implementation with dual
//!   potentials, used as an independent cross-check;
//! * [`brute`] — exhaustive permutation search for tiny instances, the
//!   test oracle.
//!
//! All solvers minimize by default; [`solve_max`] maximizes via the
//! standard affine cost transformation (every complete assignment sums
//! exactly `n` entries, so subtracting each entry from a constant
//! preserves the argmax).

//!
//! # Example
//!
//! ```
//! use adaptcomm_lap::{solve_min, solve_max, DenseCost};
//!
//! let costs = DenseCost::from_rows(&[
//!     vec![4.0, 1.0, 3.0],
//!     vec![2.0, 0.0, 5.0],
//!     vec![3.0, 2.0, 2.0],
//! ]);
//! let min = solve_min(&costs);
//! assert_eq!(min.cost, 5.0);           // 1 + 2 + 2
//! assert!(min.is_permutation());
//! assert_eq!(solve_max(&costs).cost, 11.0); // 4 + 5 + 2
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops mirror the published pseudocode of the ported
// algorithms; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod brute;
pub mod hungarian;
pub mod jv;
pub mod matrix;

pub use jv::{Duals, SolveStats};

pub use matrix::DenseCost;

/// A complete assignment of rows to columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `row_to_col[i]` = column assigned to row `i`.
    pub row_to_col: Vec<usize>,
    /// Total cost of the assignment under the *original* (untransformed)
    /// cost matrix.
    pub cost: f64,
}

impl Assignment {
    /// Builds an assignment from a row→column permutation, recomputing
    /// its cost from `costs`.
    pub fn from_permutation(costs: &DenseCost, row_to_col: Vec<usize>) -> Self {
        let cost = row_to_col
            .iter()
            .enumerate()
            .map(|(i, &j)| costs.at(i, j))
            .sum();
        Assignment { row_to_col, cost }
    }

    /// True if `row_to_col` is a permutation of `0..n`.
    pub fn is_permutation(&self) -> bool {
        let n = self.row_to_col.len();
        let mut seen = vec![false; n];
        self.row_to_col.iter().all(|&j| {
            if j < n && !seen[j] {
                seen[j] = true;
                true
            } else {
                false
            }
        })
    }
}

/// The max↔min complement: every entry subtracted from the matrix
/// maximum. Every complete assignment sums exactly `n` entries, so
/// minimizing the complement maximizes the original (and vice versa).
pub fn complement(costs: &DenseCost) -> DenseCost {
    let hi = costs.entries().fold(f64::NEG_INFINITY, f64::max);
    DenseCost::from_fn(costs.dim(), |i, j| hi - costs.at(i, j))
}

/// Solves the minimum-cost LAP with the production (JV) solver.
pub fn solve_min(costs: &DenseCost) -> Assignment {
    jv::solve(costs)
}

/// Like [`solve_min`], but reuses the dual potentials and scratch
/// buffers in `duals` across successive solves of same-dimension
/// instances (the matching scheduler's round loop). The first call — or
/// any call after a dimension change — runs cold and initialises
/// `duals`; later calls skip the reduction phases entirely.
pub fn solve_min_warm(costs: &DenseCost, duals: &mut Duals) -> Assignment {
    jv::solve_warm(costs, duals)
}

/// [`solve_min_warm`], sharding the cold solve's phase-1 column scans
/// across `threads` workers. Bit-identical at any thread count —
/// per-column minima are computed independently with the serial
/// tie-break and applied in the serial order (see [`jv::solve_warm_par`]);
/// sharded scans are counted in [`SolveStats::worker_scans`]. Warm
/// rounds are inherently sequential (each augmentation reads the
/// potentials the previous one wrote), so `threads` only accelerates the
/// cold solve that initialises `duals`.
pub fn solve_min_warm_par(costs: &DenseCost, duals: &mut Duals, threads: usize) -> Assignment {
    jv::solve_warm_par(costs, duals, threads)
}

/// Solves the maximum-weight LAP by cost complementation.
pub fn solve_max(costs: &DenseCost) -> Assignment {
    let a = solve_min(&complement(costs));
    Assignment::from_permutation(costs, a.row_to_col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_helpers() {
        let c = DenseCost::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let a = Assignment::from_permutation(&c, vec![1, 0]);
        assert_eq!(a.cost, 5.0);
        assert!(a.is_permutation());
        let bad = Assignment {
            row_to_col: vec![0, 0],
            cost: 0.0,
        };
        assert!(!bad.is_permutation());
    }

    #[test]
    fn min_and_max_on_simple_matrix() {
        let c = DenseCost::from_rows(&[
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ]);
        let mn = solve_min(&c);
        assert!(mn.is_permutation());
        assert_eq!(mn.cost, 5.0); // 1 + 2 + 2
        let mx = solve_max(&c);
        assert!(mx.is_permutation());
        assert_eq!(mx.cost, 4.0 + 5.0 + 2.0); // 4 + 5 + 2
    }

    #[test]
    fn empty_instance() {
        let c = DenseCost::from_rows(&[]);
        assert_eq!(solve_max(&c).row_to_col.len(), 0);
        assert_eq!(solve_min(&c).cost, 0.0);
    }

    #[test]
    fn singleton_instance() {
        let c = DenseCost::from_rows(&[vec![7.0]]);
        assert_eq!(solve_min(&c).cost, 7.0);
        assert_eq!(solve_max(&c).cost, 7.0);
        assert_eq!(solve_min(&c).row_to_col, vec![0]);
    }
}
