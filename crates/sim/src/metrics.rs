//! Per-run metrics: busy/idle accounting and lower-bound ratios.

use crate::executor::TransferRecord;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_model::units::Millis;

/// Aggregated metrics over a set of transfer records.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Number of processors.
    pub processors: usize,
    /// Completion time (last finish).
    pub makespan: Millis,
    /// Per-processor total send-port busy time.
    pub send_busy: Vec<Millis>,
    /// Per-processor total receive-port busy time.
    pub recv_busy: Vec<Millis>,
    /// Average utilization of the busier port per processor, in `[0, 1]`.
    pub mean_utilization: f64,
}

impl SimMetrics {
    /// Computes metrics from transfer records.
    pub fn from_records(p: usize, records: &[TransferRecord]) -> Self {
        let mut send_busy = vec![Millis::ZERO; p];
        let mut recv_busy = vec![Millis::ZERO; p];
        let mut makespan = Millis::ZERO;
        for r in records {
            let dur = r.finish - r.start;
            send_busy[r.src] += dur;
            recv_busy[r.dst] += dur;
            makespan = makespan.max(r.finish);
        }
        let mean_utilization = if makespan.as_ms() > 0.0 {
            let total: f64 = (0..p)
                .map(|k| send_busy[k].max(recv_busy[k]).as_ms() / makespan.as_ms())
                .sum();
            total / p as f64
        } else {
            0.0
        };
        SimMetrics {
            processors: p,
            makespan,
            send_busy,
            recv_busy,
            mean_utilization,
        }
    }

    /// Ratio of makespan to the lower bound of `matrix` (≥ 1).
    pub fn lb_ratio(&self, matrix: &CommMatrix) -> f64 {
        let lb = matrix.lower_bound().as_ms();
        if lb == 0.0 {
            1.0
        } else {
            self.makespan.as_ms() / lb
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_model::units::Bytes;

    fn rec(src: usize, dst: usize, start: f64, dur: f64) -> TransferRecord {
        TransferRecord {
            src,
            dst,
            bytes: Bytes::KB,
            start: Millis::new(start),
            finish: Millis::new(start + dur),
        }
    }

    #[test]
    fn busy_accounting() {
        let records = vec![
            rec(0, 1, 0.0, 4.0),
            rec(0, 2, 4.0, 6.0),
            rec(1, 2, 0.0, 3.0),
        ];
        let m = SimMetrics::from_records(3, &records);
        assert_eq!(m.makespan.as_ms(), 10.0);
        assert_eq!(m.send_busy[0].as_ms(), 10.0);
        assert_eq!(m.send_busy[1].as_ms(), 3.0);
        assert_eq!(m.recv_busy[2].as_ms(), 9.0);
        // Utilizations: P0 max(10,0)/10=1, P1 max(3,4)/10=0.4, P2 0.9.
        assert!((m.mean_utilization - (1.0 + 0.4 + 0.9) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_records() {
        let m = SimMetrics::from_records(2, &[]);
        assert_eq!(m.makespan.as_ms(), 0.0);
        assert_eq!(m.mean_utilization, 0.0);
    }

    #[test]
    fn lb_ratio_uses_matrix() {
        let records = vec![rec(0, 1, 0.0, 5.0), rec(1, 0, 0.0, 5.0)];
        let m = SimMetrics::from_records(2, &records);
        let c = CommMatrix::from_rows(&[vec![0.0, 5.0], vec![5.0, 0.0]]);
        assert!((m.lb_ratio(&c) - 1.0).abs() < 1e-12);
    }
}
