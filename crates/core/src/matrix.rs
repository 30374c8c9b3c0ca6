//! The communication matrix: predicted cost of every pairwise transfer.
//!
//! The paper's `TOT_EXCH` formulation uses a matrix **C** where `C_{i,j}`
//! is the time of the event *from `P_j` to `P_i`* (receivers index rows).
//! That orientation invites off-by-transposition bugs, so [`CommMatrix`]
//! stores costs sender-major, read as [`CommMatrix::cost`] `(src, dst)`;
//! [`CommMatrix::from_paper_c`] takes a table in the paper's `(i, j)`.

use adaptcomm_model::cost::CostModel;
use adaptcomm_model::units::{Bytes, Millis};
use std::fmt;

/// A dense `P×P` matrix of predicted transfer times.
///
/// `cost(src, dst)` is the time for the message from `src` to `dst`.
/// Diagonal entries are local copies — normally zero (§4.2), though the
/// type permits non-zero diagonals because the paper's Theorem-2
/// tightness instance uses them.
#[derive(Debug, Clone, PartialEq)]
pub struct CommMatrix {
    p: usize,
    /// Row-major over senders: `costs[src * p + dst]`, in milliseconds.
    costs: Vec<f64>,
}

impl CommMatrix {
    /// Builds a matrix from sender-major rows: `rows[src][dst]`.
    ///
    /// A zero-row input yields the degenerate `0×0` matrix: no
    /// processors, no events, lower bound zero. Every entry must be
    /// finite and non-negative — NaN/∞ costs are rejected here so the
    /// schedulers never see them.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let p = rows.len();
        let mut costs = Vec::with_capacity(p * p);
        for (src, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                p,
                "row {src} has length {}, expected {p}",
                row.len()
            );
            costs.extend_from_slice(row);
        }
        Self::from_flat(p, costs)
    }

    /// Builds a `p × p` matrix from its row-major cells
    /// (`costs[src * p + dst]`), taking the storage as is. Same entry
    /// rules as [`CommMatrix::from_rows`].
    pub fn from_flat(p: usize, costs: Vec<f64>) -> Self {
        assert_eq!(costs.len(), p * p, "a {p}×{p} matrix needs {} cells", p * p);
        for (i, &v) in costs.iter().enumerate() {
            assert!(
                v.is_finite() && v >= 0.0,
                "cost[{}][{}] = {v} must be finite and non-negative",
                i / p,
                i % p
            );
        }
        CommMatrix { p, costs }
    }

    /// Builds a matrix from the paper's orientation: `c[i][j]` is the time
    /// of the event from `P_j` to `P_i`.
    pub fn from_paper_c(c: &[Vec<f64>]) -> Self {
        let p = c.len();
        let transposed: Vec<Vec<f64>> = (0..p)
            .map(|src| (0..p).map(|dst| c[dst][src]).collect())
            .collect();
        Self::from_rows(&transposed)
    }

    /// Builds a matrix from a function of `(src, dst)`.
    pub fn from_fn(p: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let rows: Vec<Vec<f64>> = (0..p)
            .map(|src| (0..p).map(|dst| f(src, dst)).collect())
            .collect();
        Self::from_rows(&rows)
    }

    /// Builds the total-exchange matrix for message sizes `sizes[src][dst]`
    /// under a network cost model. Diagonal entries are zero.
    pub fn from_model<M: CostModel>(model: &M, sizes: &[Vec<Bytes>]) -> Self {
        let p = model.len();
        assert_eq!(sizes.len(), p, "message-size matrix does not match model");
        Self::from_fn(p, |src, dst| {
            if src == dst {
                0.0
            } else {
                model.message_time(src, dst, sizes[src][dst]).as_ms()
            }
        })
    }

    /// Builds the matrix for a *uniform* message size under a cost model
    /// (the paper's 1 kB / 1 MB workloads).
    pub fn uniform_message<M: CostModel>(model: &M, size: Bytes) -> Self {
        let p = model.len();
        Self::from_fn(p, |src, dst| {
            if src == dst {
                0.0
            } else {
                model.message_time(src, dst, size).as_ms()
            }
        })
    }

    /// Number of processors `P`.
    #[inline]
    pub fn len(&self) -> usize {
        self.p
    }

    /// True if the matrix covers zero processors (the degenerate `P = 0`
    /// exchange: nothing to send, nothing to receive).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.p == 0
    }

    /// The predicted time of the transfer from `src` to `dst`.
    #[inline]
    pub fn cost(&self, src: usize, dst: usize) -> Millis {
        Millis::new(self.costs[src * self.p + dst])
    }

    /// One sender's full outgoing-cost row as a raw millisecond slice:
    /// `row(src)[dst]` equals `cost(src, dst).as_ms()`. Scheduler inner
    /// loops use this to hoist the row indexing (and its bounds check)
    /// out of their per-destination scans.
    #[inline]
    pub fn row(&self, src: usize) -> &[f64] {
        &self.costs[src * self.p..(src + 1) * self.p]
    }

    /// Overwrites one entry.
    pub fn set_cost(&mut self, src: usize, dst: usize, v: Millis) {
        assert!(
            v.as_ms().is_finite() && v.as_ms() >= 0.0,
            "cost must be finite and non-negative"
        );
        self.costs[src * self.p + dst] = v.as_ms();
    }

    /// Total send time of a processor: `Σ_dst cost(src, dst)`.
    pub fn send_total(&self, src: usize) -> Millis {
        Millis::new(self.costs[src * self.p..(src + 1) * self.p].iter().sum())
    }

    /// Total receive time of a processor: `Σ_src cost(src, dst)`.
    pub fn recv_total(&self, dst: usize) -> Millis {
        Millis::new((0..self.p).map(|src| self.costs[src * self.p + dst]).sum())
    }

    /// The paper's lower bound `t_lb`: no schedule can complete before the
    /// largest per-processor send or receive total.
    pub fn lower_bound(&self) -> Millis {
        let mut lb = 0.0f64;
        for k in 0..self.p {
            lb = lb.max(self.send_total(k).as_ms());
            lb = lb.max(self.recv_total(k).as_ms());
        }
        Millis::new(lb)
    }

    /// Iterates over all off-diagonal `(src, dst, cost)` triples.
    pub fn events(&self) -> impl Iterator<Item = (usize, usize, Millis)> + '_ {
        (0..self.p).flat_map(move |src| {
            (0..self.p)
                .filter(move |&dst| dst != src)
                .map(move |dst| (src, dst, self.cost(src, dst)))
        })
    }

    /// Largest single transfer cost in the matrix.
    pub fn max_cost(&self) -> Millis {
        Millis::new(self.costs.iter().copied().fold(0.0, f64::max))
    }

    /// Sum of all entries (total communication volume in time units).
    pub fn total_cost(&self) -> Millis {
        Millis::new(self.costs.iter().sum())
    }
}

impl fmt::Display for CommMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CommMatrix (sender-major, ms), P = {}:", self.p)?;
        for src in 0..self.p {
            for dst in 0..self.p {
                write!(f, "{:9.2} ", self.cost(src, dst).as_ms())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_model::params::NetParams;
    use adaptcomm_model::units::Bandwidth;

    fn sample() -> CommMatrix {
        CommMatrix::from_rows(&[
            vec![0.0, 1.0, 2.0],
            vec![3.0, 0.0, 4.0],
            vec![5.0, 6.0, 0.0],
        ])
    }

    #[test]
    fn orientation_of_paper_c() {
        let m = sample();
        // cost(src=1, dst=2) = 4.0; paper C_{i=2, j=1} is the same event.
        assert_eq!(m.cost(1, 2).as_ms(), 4.0);
        // The paper's table is the transpose: receivers index its rows.
        let c: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..3).map(|j| m.cost(j, i).as_ms()).collect())
            .collect();
        assert_eq!(c[2][1], 4.0);
        assert_eq!(CommMatrix::from_paper_c(&c), m);
    }

    #[test]
    fn totals_and_lower_bound() {
        let m = sample();
        assert_eq!(m.send_total(2).as_ms(), 11.0);
        assert_eq!(m.recv_total(0).as_ms(), 8.0);
        assert_eq!(m.recv_total(2).as_ms(), 6.0);
        // Send totals: 3, 7, 11. Recv totals: 8, 7, 6. Max = 11.
        assert_eq!(m.lower_bound().as_ms(), 11.0);
    }

    #[test]
    fn events_skip_diagonal() {
        let m = sample();
        let evs: Vec<_> = m.events().collect();
        assert_eq!(evs.len(), 6);
        assert!(evs.iter().all(|&(s, d, _)| s != d));
        let total: f64 = evs.iter().map(|&(_, _, c)| c.as_ms()).sum();
        assert_eq!(total, 21.0);
        assert_eq!(m.total_cost().as_ms(), 21.0);
        assert_eq!(m.max_cost().as_ms(), 6.0);
    }

    #[test]
    fn from_model_applies_cost_formula() {
        let net = NetParams::uniform(3, Millis::new(10.0), Bandwidth::from_kbps(1_000.0));
        let m = CommMatrix::uniform_message(&net, Bytes::KB);
        // 10 ms startup + 8 ms transfer.
        for (_, _, c) in m.events() {
            assert!((c.as_ms() - 18.0).abs() < 1e-9);
        }
        assert_eq!(m.cost(1, 1).as_ms(), 0.0);
    }

    #[test]
    fn from_model_with_per_pair_sizes() {
        let net = NetParams::uniform(2, Millis::new(1.0), Bandwidth::from_kbps(8_000.0));
        let sizes = vec![
            vec![Bytes::ZERO, Bytes::from_kb(2)],
            vec![Bytes::KB, Bytes::ZERO],
        ];
        let m = CommMatrix::from_model(&net, &sizes);
        assert!((m.cost(0, 1).as_ms() - 3.0).abs() < 1e-9); // 1 + 16000/8000
        assert!((m.cost(1, 0).as_ms() - 2.0).abs() < 1e-9); // 1 + 8000/8000
    }

    #[test]
    fn row_slice_matches_cost() {
        let m = sample();
        for src in 0..3 {
            let row = m.row(src);
            assert_eq!(row.len(), 3);
            for dst in 0..3 {
                assert_eq!(row[dst], m.cost(src, dst).as_ms());
            }
        }
        assert!(CommMatrix::from_rows(&[]).is_empty());
    }

    #[test]
    fn set_cost_roundtrip() {
        let mut m = sample();
        m.set_cost(0, 2, Millis::new(9.0));
        assert_eq!(m.cost(0, 2).as_ms(), 9.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_cost_rejected() {
        let _ = CommMatrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_cost_rejected() {
        let _ = CommMatrix::from_rows(&[vec![0.0, f64::NAN], vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_cost_rejected() {
        let _ = CommMatrix::from_rows(&[vec![0.0, f64::INFINITY], vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn set_cost_rejects_non_finite() {
        let mut m = sample();
        m.set_cost(0, 1, Millis::new(f64::NAN));
    }

    #[test]
    fn zero_processor_matrix_is_constructible() {
        let m = CommMatrix::from_rows(&[]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.lower_bound().as_ms(), 0.0);
        assert_eq!(m.events().count(), 0);
        assert_eq!(m.total_cost().as_ms(), 0.0);
        assert_eq!(CommMatrix::from_fn(0, |_, _| 1.0), m);
    }

    #[test]
    fn display_contains_dimensions() {
        assert!(format!("{}", sample()).contains("P = 3"));
    }
}
