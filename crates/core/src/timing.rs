//! Timing diagrams (§3.3) with an ASCII renderer.
//!
//! "The diagram consists of P columns, one per processor. The vertical
//! axis represents time. The communication events in column *i* represent
//! the messages sent from processor P_i. The rectangle labeled *j* in
//! column *i* represents the message sent from P_i to P_j. The height of
//! the rectangle denotes the time for the communication event." The
//! renderer reproduces the figures of the paper (3–8) in text form.

use crate::matrix::CommMatrix;
use crate::schedule::Schedule;
use adaptcomm_model::units::Millis;
use std::fmt::Write as _;

/// One rectangle in a timing diagram column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Destination label shown in the rectangle.
    pub dst: usize,
    /// Top edge (start time).
    pub start: Millis,
    /// Bottom edge (finish time).
    pub finish: Millis,
}

/// A send-side timing diagram: per-sender columns of time-positioned
/// blocks.
#[derive(Debug, Clone)]
pub struct TimingDiagram {
    columns: Vec<Vec<Block>>,
    horizon: Millis,
}

impl TimingDiagram {
    /// Diagram of a concrete schedule (Figures 4, 6, 7, 8).
    pub fn of_schedule(schedule: &Schedule) -> Self {
        let p = schedule.processors();
        let mut columns = vec![Vec::with_capacity(p.saturating_sub(1)); p];
        for e in schedule.events() {
            columns[e.src].push(Block {
                dst: e.dst,
                start: e.start,
                finish: e.finish,
            });
        }
        for col in &mut columns {
            col.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
        }
        TimingDiagram {
            columns,
            horizon: schedule.completion_time(),
        }
    }

    /// Diagram of the *unscheduled* problem (Figure 3): each sender's
    /// events stacked in increasing destination order from time zero.
    pub fn unscheduled(matrix: &CommMatrix) -> Self {
        let p = matrix.len();
        let mut columns = Vec::with_capacity(p);
        let mut horizon = Millis::ZERO;
        for src in 0..p {
            let mut col = Vec::with_capacity(p.saturating_sub(1));
            let mut t = Millis::ZERO;
            for dst in 0..p {
                if dst == src {
                    continue;
                }
                let d = matrix.cost(src, dst);
                col.push(Block {
                    dst,
                    start: t,
                    finish: t + d,
                });
                t += d;
            }
            horizon = horizon.max(t);
            columns.push(col);
        }
        TimingDiagram { columns, horizon }
    }

    /// Number of processor columns.
    pub fn processors(&self) -> usize {
        self.columns.len()
    }

    /// The blocks of one column.
    pub fn column(&self, src: usize) -> &[Block] {
        &self.columns[src]
    }

    /// Latest finish time across all columns.
    pub fn horizon(&self) -> Millis {
        self.horizon
    }

    /// Renders the diagram as ASCII art with `rows` time rows.
    ///
    /// Each column is 6 characters wide. A block shows `|` walls with its
    /// destination number centered; idle time is blank. A time scale runs
    /// down the left margin.
    pub fn render(&self, rows: usize) -> String {
        assert!(rows >= 1, "need at least one row");
        let p = self.columns.len();
        let horizon = self.horizon.as_ms().max(1e-12);
        let scale = horizon / rows as f64;
        let mut out = String::new();

        // Header.
        let _ = write!(out, "{:>10} ", "time(ms)");
        for src in 0..p {
            let _ = write!(out, " P{src:<4}");
        }
        out.push('\n');

        // Precompute per-column row occupancy: which block covers a row.
        // A block covers rows floor(start/scale) .. ceil(finish/scale).
        for r in 0..rows {
            let t0 = r as f64 * scale;
            let t1 = t0 + scale;
            let mid = (t0 + t1) / 2.0;
            let _ = write!(out, "{:>10.1} ", t0);
            for col in &self.columns {
                let block = col
                    .iter()
                    .find(|b| b.start.as_ms() < t1 - 1e-12 && b.finish.as_ms() > t0 + 1e-12);
                match block {
                    Some(b) => {
                        // Show the label on the row containing the block
                        // midpoint, walls elsewhere.
                        let b_mid = (b.start.as_ms() + b.finish.as_ms()) / 2.0;
                        if (b_mid >= t0 && b_mid < t1)
                            || (mid >= b.start.as_ms()
                                && mid < b.finish.as_ms()
                                && (b.finish.as_ms() - b.start.as_ms()) < scale)
                        {
                            let _ = write!(out, " |{:^3}|", b.dst);
                        } else {
                            let _ = write!(out, " |   |");
                        }
                    }
                    None => {
                        let _ = write!(out, "      ");
                    }
                }
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{:>10.1} (completion)", horizon);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Baseline, OpenShop, Scheduler};

    fn matrix() -> CommMatrix {
        CommMatrix::from_rows(&[
            vec![0.0, 2.0, 8.0],
            vec![4.0, 0.0, 2.0],
            vec![6.0, 1.0, 0.0],
        ])
    }

    #[test]
    fn unscheduled_diagram_stacks_events() {
        let d = TimingDiagram::unscheduled(&matrix());
        assert_eq!(d.processors(), 3);
        // Column 0: to P1 (0-2) then to P2 (2-10).
        assert_eq!(
            d.column(0)[0],
            Block {
                dst: 1,
                start: Millis::ZERO,
                finish: Millis::new(2.0)
            }
        );
        assert_eq!(d.column(0)[1].dst, 2);
        assert_eq!(d.column(0)[1].finish.as_ms(), 10.0);
        assert_eq!(d.horizon().as_ms(), 10.0);
    }

    #[test]
    fn schedule_diagram_reflects_start_times() {
        let s = OpenShop.schedule(&matrix());
        let d = TimingDiagram::of_schedule(&s);
        assert_eq!(d.horizon(), s.completion_time());
        // Blocks per column = events per sender.
        for src in 0..3 {
            assert_eq!(d.column(src).len(), 2);
            // Sorted by start.
            assert!(d.column(src)[0].start.as_ms() <= d.column(src)[1].start.as_ms());
        }
    }

    #[test]
    fn render_contains_labels_and_scale() {
        let s = Baseline.schedule(&matrix());
        let d = TimingDiagram::of_schedule(&s);
        let art = d.render(20);
        assert!(art.contains("P0"));
        assert!(art.contains("P2"));
        assert!(art.contains("(completion)"));
        // All three destination labels appear somewhere.
        assert!(art.contains("| 0 |") || art.contains("|0  |") || art.contains("| 0|"));
        assert!(art.lines().count() >= 21);
    }

    #[test]
    fn render_single_row_does_not_panic() {
        let d = TimingDiagram::unscheduled(&matrix());
        let art = d.render(1);
        assert!(art.contains("time(ms)"));
    }

    #[test]
    fn zero_horizon_renders() {
        let m = CommMatrix::from_fn(2, |_, _| 0.0);
        let s = Baseline.schedule(&m);
        let art = TimingDiagram::of_schedule(&s).render(3);
        assert!(art.contains("completion"));
    }
}
