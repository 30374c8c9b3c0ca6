//! Dense square cost matrices for assignment problems.

use std::fmt;

const DEAD: u32 = u32::MAX;

/// Compacted live-cell layout: per row, the column ids and costs of the
/// cells not yet deleted, stored contiguously so a row scan walks two
/// dense streams instead of striding a sentinel-laden `n`-length row.
/// The matching scheduler deletes one cell per row per round, so by
/// mid-construction half of every row is sentinels; the compacted view
/// halves the average scan and shrinks late-round scans to a handful of
/// cells. Order within a row is scan history (swap-remove), which is
/// fine because every consumer selects by `(value, column id)` — an
/// order-independent criterion.
#[derive(Debug, Clone, PartialEq)]
struct LiveCells {
    /// Column ids, rows at `i*n ..`, live prefix of length `len[i]`.
    cols: Vec<u32>,
    /// Costs parallel to `cols`.
    vals: Vec<f64>,
    /// Live cells remaining in each row.
    len: Vec<u32>,
    /// Position of column `j` within row `i`'s prefix (`DEAD` if
    /// deleted), so deletion and cost updates are `O(1)`.
    pos: Vec<u32>,
}

/// A dense, row-major `n×n` cost matrix of finite `f64` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseCost {
    n: usize,
    data: Vec<f64>,
    /// Live-cell compaction, enabled by callers that delete cells
    /// (`None` until [`DenseCost::enable_live_tracking`]).
    live: Option<LiveCells>,
}

impl DenseCost {
    /// Builds a matrix from a slice of rows. Every row must have the same
    /// length as the number of rows, and every entry must be finite.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                n,
                "row {i} has length {}, expected {n}",
                row.len()
            );
            for (j, &v) in row.iter().enumerate() {
                assert!(v.is_finite(), "cost[{i}][{j}] = {v} is not finite");
                data.push(v);
            }
        }
        DenseCost {
            n,
            data,
            live: None,
        }
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let v = f(i, j);
                assert!(v.is_finite(), "cost[{i}][{j}] = {v} is not finite");
                data.push(v);
            }
        }
        DenseCost {
            n,
            data,
            live: None,
        }
    }

    /// Builds a matrix from a flat row-major slice of length `n·n`.
    pub fn from_flat(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "flat data length mismatch");
        assert!(data.iter().all(|v| v.is_finite()), "non-finite entry");
        DenseCost {
            n,
            data,
            live: None,
        }
    }

    /// The dimension `n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The entry at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    /// Mutable access to the entry at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f64) {
        assert!(v.is_finite(), "cost[{row}][{col}] = {v} is not finite");
        self.data[row * self.n + col] = v;
        if let Some(live) = &mut self.live {
            let p = live.pos[row * self.n + col];
            if p != DEAD {
                live.vals[row * self.n + p as usize] = v;
            }
        }
    }

    /// One full row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.n..(row + 1) * self.n]
    }

    /// Builds the compacted live-cell view (all cells live). From then
    /// on, [`DenseCost::delete`] removes cells from it and solvers scan
    /// [`DenseCost::live_row`] instead of the full row. See
    /// [`LiveCells`] for the layout.
    pub fn enable_live_tracking(&mut self) {
        let n = self.n;
        let mut cols = Vec::with_capacity(n * n);
        let mut pos = Vec::with_capacity(n * n);
        for _ in 0..n {
            cols.extend(0..n as u32);
            pos.extend(0..n as u32);
        }
        self.live = Some(LiveCells {
            cols,
            vals: self.data.clone(),
            len: vec![n as u32; n],
            pos,
        });
    }

    /// Deletes cell `(row, col)`: writes the sentinel into the dense
    /// data (so random access still sees a finite, strictly dominated
    /// cost) and, when live tracking is on, swap-removes the cell from
    /// the row's compacted view. Deleting an already-deleted cell only
    /// rewrites the sentinel.
    pub fn delete(&mut self, row: usize, col: usize, sentinel: f64) {
        assert!(sentinel.is_finite(), "sentinel must be finite");
        self.data[row * self.n + col] = sentinel;
        let n = self.n;
        if let Some(live) = &mut self.live {
            let p = live.pos[row * n + col];
            if p == DEAD {
                return;
            }
            let base = row * n;
            let last = live.len[row] as usize - 1;
            let p = p as usize;
            let moved = live.cols[base + last];
            live.cols[base + p] = moved;
            live.vals[base + p] = live.vals[base + last];
            live.pos[base + moved as usize] = p as u32;
            live.pos[base + col] = DEAD;
            live.len[row] = last as u32;
        }
    }

    /// The live cells of `row` as `(column ids, costs)` — `None` when
    /// live tracking is off. Order is arbitrary (swap-remove history);
    /// consumers must select by `(value, id)`.
    #[inline]
    pub fn live_row(&self, row: usize) -> Option<(&[u32], &[f64])> {
        self.live.as_ref().map(|live| {
            let base = row * self.n;
            let len = live.len[row] as usize;
            (&live.cols[base..base + len], &live.vals[base..base + len])
        })
    }

    /// Iterator over all entries in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = f64> + '_ {
        self.data.iter().copied()
    }
}

impl fmt::Display for DenseCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{:10.3} ", self.at(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        let a = DenseCost::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = DenseCost::from_fn(2, |i, j| (i * 2 + j + 1) as f64);
        let c = DenseCost::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.dim(), 2);
        assert_eq!(a.at(1, 0), 3.0);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.entries().sum::<f64>(), 10.0);
    }

    #[test]
    fn set_updates_entry() {
        let mut m = DenseCost::from_fn(3, |_, _| 0.0);
        m.set(2, 1, 9.5);
        assert_eq!(m.at(2, 1), 9.5);
        assert_eq!(m.at(1, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_nan() {
        let _ = DenseCost::from_rows(&[vec![f64::NAN]]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn rejects_ragged_rows() {
        let _ = DenseCost::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn display_renders() {
        let m = DenseCost::from_fn(2, |i, j| (i + j) as f64);
        assert!(format!("{m}").contains("1.000"));
    }

    /// Sorted `(col, val)` pairs of a live row, for order-independent
    /// comparison (the compacted order is swap-remove history).
    fn sorted_live(m: &DenseCost, row: usize) -> Vec<(u32, f64)> {
        let (cols, vals) = m.live_row(row).unwrap();
        let mut cells: Vec<_> = cols.iter().copied().zip(vals.iter().copied()).collect();
        cells.sort_by_key(|c| c.0);
        cells
    }

    #[test]
    fn live_tracking_mirrors_deletions_and_updates() {
        let mut m = DenseCost::from_fn(4, |i, j| (i * 4 + j) as f64);
        assert!(m.live_row(0).is_none());
        m.enable_live_tracking();
        assert_eq!(
            sorted_live(&m, 1),
            vec![(0, 4.0), (1, 5.0), (2, 6.0), (3, 7.0)]
        );

        // Deletion removes the cell from the live view and writes the
        // sentinel into the dense data.
        m.delete(1, 2, 99.0);
        assert_eq!(m.at(1, 2), 99.0);
        assert_eq!(sorted_live(&m, 1), vec![(0, 4.0), (1, 5.0), (3, 7.0)]);
        // Other rows are untouched.
        assert_eq!(sorted_live(&m, 2).len(), 4);

        // Re-deleting only rewrites the sentinel.
        m.delete(1, 2, 120.0);
        assert_eq!(m.at(1, 2), 120.0);
        assert_eq!(sorted_live(&m, 1).len(), 3);

        // `set` on a live cell patches the live view too.
        m.set(1, 3, 70.0);
        assert_eq!(sorted_live(&m, 1), vec![(0, 4.0), (1, 5.0), (3, 70.0)]);
        // `set` on a deleted cell only touches the dense data.
        m.set(1, 2, 6.5);
        assert_eq!(m.at(1, 2), 6.5);
        assert_eq!(sorted_live(&m, 1).len(), 3);
    }

    #[test]
    fn live_row_drains_to_empty() {
        let mut m = DenseCost::from_fn(3, |i, j| (i + j) as f64);
        m.enable_live_tracking();
        for j in 0..3 {
            m.delete(0, j, 50.0);
        }
        let (cols, vals) = m.live_row(0).unwrap();
        assert!(cols.is_empty() && vals.is_empty());
        assert_eq!(sorted_live(&m, 1).len(), 3);
    }
}
