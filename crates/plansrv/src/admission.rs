//! §6 QoS admission control: EDF within priority tiers, projected
//! completion against deadlines, reject-with-retry-after.
//!
//! The paper's §6 argues a scheduling service must refuse work it
//! cannot finish in time rather than degrade everyone. This is that
//! policy as a plain value, owned and driven by the decision core
//! ([`crate::service::Service`]): nothing here locks, blocks or reads a
//! clock.
//!
//! * Requests queue in **priority tiers** (higher tier served first);
//!   within a tier the queue is **earliest-deadline-first**, ties
//!   broken by arrival order.
//! * At submission the request's completion is projected serially —
//!   in-flight work, plus every queued request served ahead of it, plus
//!   its own estimate (conservative when several workers drain the
//!   queue). A projection past the deadline is an immediate
//!   [`Rejected`] carrying `retry_after_ms`, the backlog's drain time.
//! * Estimates come from the caller, which substitutes the near-zero
//!   replay cost on a cache hit — what makes tight deadlines
//!   *admittable* at all once the cache is warm.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Why a request was not admitted: its projected completion blows
/// its deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejected {
    /// Suggested wait before retrying: projected backlog drain.
    pub retry_after_ms: f64,
    /// The projection that failed the deadline test.
    pub projected_ms: f64,
}

struct QueuedJob<T> {
    priority: u8,
    deadline_ms: f64, // f64::INFINITY when absent
    seq: u64,
    est_ms: f64,
    payload: T,
}

impl<T> PartialEq for QueuedJob<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for QueuedJob<T> {}
impl<T> PartialOrd for QueuedJob<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueuedJob<T> {
    /// Max-heap order, the job served first is the greatest: higher
    /// tier, then earlier deadline, then earlier arrival.
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.deadline_ms.total_cmp(&self.deadline_ms))
            .then(other.seq.cmp(&self.seq))
    }
}

/// The admission-controlled work queue.
pub struct AdmissionQueue<T> {
    heap: BinaryHeap<QueuedJob<T>>,
    queued_ms: f64,
    in_flight_ms: f64,
    next_seq: u64,
    served: u64,
}

impl<T> Default for AdmissionQueue<T> {
    /// An empty queue.
    fn default() -> Self {
        AdmissionQueue {
            heap: BinaryHeap::new(),
            queued_ms: 0.0,
            in_flight_ms: 0.0,
            next_seq: 0,
            served: 0,
        }
    }
}

impl<T> AdmissionQueue<T> {
    /// Admits or rejects a request. `deadline_ms` is relative to now;
    /// `est_ms` is the caller's service-time estimate. A rejection
    /// hands the payload back so the caller can still answer it.
    pub fn submit(
        &mut self,
        priority: u8,
        deadline_ms: Option<f64>,
        est_ms: f64,
        payload: T,
    ) -> Result<(), (Rejected, T)> {
        let job = QueuedJob {
            priority,
            deadline_ms: deadline_ms.unwrap_or(f64::INFINITY),
            seq: self.next_seq,
            est_ms,
            payload,
        };
        if let Some(deadline) = deadline_ms {
            let ahead_ms: f64 = self
                .heap
                .iter()
                .filter(|j| **j > job)
                .map(|j| j.est_ms)
                .sum();
            let projected_ms = self.in_flight_ms + ahead_ms + est_ms;
            if projected_ms > deadline {
                let retry_after_ms = self.in_flight_ms + self.queued_ms;
                let rejected = Rejected {
                    retry_after_ms,
                    projected_ms,
                };
                return Err((rejected, job.payload));
            }
        }
        self.next_seq += 1;
        self.queued_ms += est_ms;
        self.heap.push(job);
        Ok(())
    }

    /// The next job in QoS order with the estimate it was admitted
    /// under, now counted as in flight; `None` when nothing is queued.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let job = self.heap.pop()?;
        self.queued_ms = (self.queued_ms - job.est_ms).max(0.0);
        self.in_flight_ms += job.est_ms;
        Some((job.est_ms, job.payload))
    }

    /// Marks a claimed job finished, freeing its estimate.
    pub fn complete(&mut self, est_ms: f64) {
        self.in_flight_ms = (self.in_flight_ms - est_ms).max(0.0);
    }

    /// The next serving sequence number (1-based): one counter for
    /// queued and inline answers, so `served_seq` stays unique and
    /// gap-free across both ways out.
    pub fn serve(&mut self) -> u64 {
        self.served += 1;
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_priority_tiers_then_edf_then_arrival() {
        let mut q: AdmissionQueue<&str> = AdmissionQueue::default();
        q.submit(0, Some(100.0), 1.0, "low-tight").unwrap();
        q.submit(0, None, 1.0, "low-open-a").unwrap();
        q.submit(0, None, 1.0, "low-open-b").unwrap();
        q.submit(3, Some(500.0), 1.0, "high-late").unwrap();
        q.submit(3, Some(50.0), 1.0, "high-soon").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, job)| job)).collect();
        assert_eq!(
            order,
            vec![
                "high-soon",
                "high-late",
                "low-tight",
                "low-open-a",
                "low-open-b"
            ]
        );
    }

    #[test]
    fn projection_rejects_unmeetable_deadlines_with_retry_after() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::default();
        // Higher-tier backlog is always ahead of a tier-0 arrival.
        // (Same-tier open-deadline work would NOT be: EDF serves a
        // tight deadline first, so it projects nothing ahead.)
        q.submit(5, None, 40.0, 1).unwrap();
        q.submit(5, None, 40.0, 2).unwrap();
        // 80 ms queued ahead + 10 ms own estimate > 50 ms deadline.
        match q.submit(0, Some(50.0), 10.0, 3) {
            Err((
                Rejected {
                    retry_after_ms,
                    projected_ms,
                },
                3,
            )) => {
                assert_eq!(retry_after_ms, 80.0);
                assert_eq!(projected_ms, 90.0);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // The same request with a generous deadline is admitted.
        q.submit(0, Some(500.0), 10.0, 4).unwrap();
        // A still-higher tier jumps the backlog, so its projection is
        // its own estimate alone — a tight deadline stays admittable.
        q.submit(7, Some(12.0), 10.0, 5).unwrap();
    }

    #[test]
    fn completing_in_flight_work_frees_admission_room() {
        let mut q: AdmissionQueue<u32> = AdmissionQueue::default();
        q.submit(0, None, 40.0, 1).unwrap();
        let (est_ms, _) = q.pop().unwrap();
        // Still projected: the job is in flight, not gone.
        assert!(matches!(
            q.submit(0, Some(30.0), 1.0, 2),
            Err((Rejected { .. }, 2))
        ));
        q.complete(est_ms);
        assert_eq!(q.serve(), 1);
        q.submit(0, Some(30.0), 1.0, 3).unwrap();
    }
}
