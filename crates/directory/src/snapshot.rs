//! Immutable, time-stamped network performance snapshots.

use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::Millis;
use std::sync::Arc;

/// One directory observation: the full per-pair performance table at a
/// point in (simulated) time.
///
/// Snapshots are cheap to clone (`Arc` inside) so schedulers can hold on
/// to the exact table they planned against while the directory moves on.
#[derive(Debug, Clone)]
pub struct DirectorySnapshot {
    params: Arc<NetParams>,
    taken_at: Millis,
    sequence: u64,
}

impl DirectorySnapshot {
    /// Wraps a parameter table observed at `taken_at` with a publisher
    /// sequence number.
    pub fn new(params: NetParams, taken_at: Millis, sequence: u64) -> Self {
        DirectorySnapshot {
            params: Arc::new(params),
            taken_at,
            sequence,
        }
    }

    /// The performance table.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// When the snapshot was taken (simulated clock).
    pub fn taken_at(&self) -> Millis {
        self.taken_at
    }

    /// Monotonic publish sequence number.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Convenience passthrough: the estimate for one directed pair.
    pub fn estimate(&self, src: usize, dst: usize) -> LinkEstimate {
        self.params.estimate(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_model::units::Bandwidth;

    fn snap(t: f64, seq: u64) -> DirectorySnapshot {
        let p = NetParams::uniform(3, Millis::new(5.0), Bandwidth::from_kbps(100.0));
        DirectorySnapshot::new(p, Millis::new(t), seq)
    }

    #[test]
    fn accessors() {
        let s = snap(10.0, 3);
        assert_eq!(s.taken_at().as_ms(), 10.0);
        assert_eq!(s.sequence(), 3);
        assert_eq!(s.params().len(), 3);
        assert_eq!(s.estimate(0, 1).startup.as_ms(), 5.0);
    }

    #[test]
    fn clone_shares_table() {
        let s = snap(0.0, 1);
        let c = s.clone();
        assert!(Arc::ptr_eq(&s.params, &c.params));
    }
}
