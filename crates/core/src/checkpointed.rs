//! Checkpoint-based schedule adaptation policies (§6.3).
//!
//! When network performance drifts *during* the communication phase, an
//! initial schedule built from estimates can be revised at intermediate
//! checkpoints: "after each communication event is complete (O(P)
//! checkpoints), or after half the remaining communication events are
//! complete (O(log P) checkpoints), and so on." This module defines the
//! checkpoint policies and the rescheduling decision rule; the engine
//! that replays them against a drifting network lives in
//! `adaptcomm-sim::dynamic`.

/// When to pause and consider rescheduling, expressed per processor over
/// its sequence of communication events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// Never reschedule: run the initial schedule to completion.
    #[default]
    Never,
    /// Check after every completed event — `O(P)` checkpoints per
    /// processor.
    EveryEvent,
    /// Check after half the remaining events complete — `O(log P)`
    /// checkpoints per processor.
    Halving,
    /// Check after every `k` completed events.
    EveryK(usize),
}

impl CheckpointPolicy {
    /// The checkpoint positions for a processor with `total` events:
    /// indices `c` such that a check happens after the `c`-th event
    /// completes (1-based counts, strictly increasing, each `< total` —
    /// there is nothing left to reschedule after the last event).
    pub fn checkpoints(&self, total: usize) -> Vec<usize> {
        match *self {
            CheckpointPolicy::Never => Vec::new(),
            CheckpointPolicy::EveryEvent => (1..total).collect(),
            CheckpointPolicy::Halving => {
                let mut out = Vec::new();
                let mut done = 0usize;
                loop {
                    let remaining = total - done;
                    if remaining <= 1 {
                        break;
                    }
                    done += remaining.div_ceil(2);
                    if done >= total {
                        break;
                    }
                    out.push(done);
                }
                out
            }
            CheckpointPolicy::EveryK(k) => {
                assert!(k >= 1, "k must be at least 1");
                (1..total).filter(|c| c % k == 0).collect()
            }
        }
    }

    /// Number of checkpoints for `total` events.
    pub fn count(&self, total: usize) -> usize {
        self.checkpoints(total).len()
    }
}

/// The §6.3 decision rule: reschedule at a checkpoint iff "the difference
/// between the estimated time and actual time is large enough".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RescheduleRule {
    /// Relative deviation of observed vs. estimated elapsed time above
    /// which rescheduling is worthwhile.
    pub deviation_threshold: f64,
}

impl Default for RescheduleRule {
    fn default() -> Self {
        RescheduleRule {
            deviation_threshold: 0.15,
        }
    }
}

impl RescheduleRule {
    /// Decides whether to reschedule given estimated and observed elapsed
    /// time at a checkpoint.
    pub fn should_reschedule(&self, estimated_ms: f64, observed_ms: f64) -> bool {
        if estimated_ms <= 0.0 {
            return observed_ms > 0.0;
        }
        ((observed_ms - estimated_ms).abs() / estimated_ms) > self.deviation_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_has_no_checkpoints() {
        assert!(CheckpointPolicy::Never.checkpoints(10).is_empty());
    }

    #[test]
    fn every_event_checks_after_each_but_the_last() {
        assert_eq!(
            CheckpointPolicy::EveryEvent.checkpoints(5),
            vec![1, 2, 3, 4]
        );
        assert_eq!(CheckpointPolicy::EveryEvent.count(5), 4);
        assert!(CheckpointPolicy::EveryEvent.checkpoints(1).is_empty());
    }

    #[test]
    fn halving_is_logarithmic() {
        // 16 events: checks after 8, 12, 14, 15.
        assert_eq!(
            CheckpointPolicy::Halving.checkpoints(16),
            vec![8, 12, 14, 15]
        );
        // O(log P) growth.
        assert!(CheckpointPolicy::Halving.count(1024) <= 11);
        assert!(CheckpointPolicy::Halving.count(1024) >= 9);
        assert!(CheckpointPolicy::Halving.checkpoints(0).is_empty());
        assert!(CheckpointPolicy::Halving.checkpoints(1).is_empty());
        assert_eq!(CheckpointPolicy::Halving.checkpoints(2), vec![1]);
    }

    #[test]
    fn halving_odd_counts() {
        // 7 events: ceil(7/2)=4 → check at 4; remaining 3 → +2 = 6;
        // remaining 1 → stop.
        assert_eq!(CheckpointPolicy::Halving.checkpoints(7), vec![4, 6]);
    }

    #[test]
    fn every_k() {
        assert_eq!(CheckpointPolicy::EveryK(3).checkpoints(10), vec![3, 6, 9]);
        assert_eq!(
            CheckpointPolicy::EveryK(1).checkpoints(4),
            CheckpointPolicy::EveryEvent.checkpoints(4)
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn every_zero_rejected() {
        let _ = CheckpointPolicy::EveryK(0).checkpoints(5);
    }

    #[test]
    fn checkpoints_are_strictly_increasing_and_in_range() {
        for total in 0..40 {
            for policy in [
                CheckpointPolicy::Never,
                CheckpointPolicy::EveryEvent,
                CheckpointPolicy::Halving,
                CheckpointPolicy::EveryK(4),
            ] {
                let cps = policy.checkpoints(total);
                for w in cps.windows(2) {
                    assert!(w[0] < w[1]);
                }
                for &c in &cps {
                    assert!(c >= 1 && c < total.max(1));
                }
            }
        }
    }

    #[test]
    fn reschedule_rule_thresholds() {
        let r = RescheduleRule {
            deviation_threshold: 0.2,
        };
        assert!(!r.should_reschedule(100.0, 110.0)); // 10% deviation
        assert!(r.should_reschedule(100.0, 130.0)); // 30% deviation
        assert!(r.should_reschedule(100.0, 70.0)); // slowness and speedups both count
        assert!(!r.should_reschedule(0.0, 0.0));
        assert!(r.should_reschedule(0.0, 5.0));
    }
}
