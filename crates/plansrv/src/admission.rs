//! §6 QoS admission control: EDF within priority tiers, projected
//! completion against deadlines, reject-with-retry-after.
//!
//! The paper's §6 argues a scheduling service must refuse work it
//! cannot finish in time rather than degrade everyone. This module is
//! that policy for the plan server:
//!
//! * Requests queue in **priority tiers** (higher tier served first);
//!   within a tier the queue is **earliest-deadline-first**, ties
//!   broken by arrival order.
//! * At submission the controller projects the request's completion —
//!   service-time estimates of every queued request that would be
//!   served ahead of it, plus work already in flight, plus its own
//!   estimate (a serial projection: conservative when several workers
//!   drain the queue). A projection past the deadline is an immediate
//!   [`AdmissionError::Rejected`] carrying `retry_after_ms`, the
//!   projected drain time of the backlog.
//! * Estimates come from the caller (the server keys EWMAs by
//!   `(algorithm, P)` and substitutes the near-zero replay cost on a
//!   cache hit — which is what makes tight deadlines *admittable* at
//!   all once the cache is warm).

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// Projected completion blows the deadline.
    Rejected {
        /// Suggested wait before retrying: projected backlog drain.
        retry_after_ms: f64,
        /// The projection that failed the deadline test.
        projected_ms: f64,
    },
    /// The queue is closed (server shutting down).
    Closed,
}

/// QoS attributes of one queued request.
#[derive(Debug, Clone, Copy)]
struct ServiceKey {
    priority: u8,
    deadline_ms: f64, // f64::INFINITY when absent
    seq: u64,
}

impl ServiceKey {
    /// `true` when `self` is served before `other`.
    fn serves_before(&self, other: &ServiceKey) -> bool {
        if self.priority != other.priority {
            return self.priority > other.priority;
        }
        match self.deadline_ms.total_cmp(&other.deadline_ms) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.seq < other.seq,
        }
    }
}

struct QueuedJob<T> {
    key: ServiceKey,
    est_ms: f64,
    payload: T,
}

impl<T> PartialEq for QueuedJob<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key.seq == other.key.seq
    }
}
impl<T> Eq for QueuedJob<T> {}
impl<T> PartialOrd for QueuedJob<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueuedJob<T> {
    /// Max-heap order: the greatest element is served first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.key.serves_before(&other.key) {
            std::cmp::Ordering::Greater
        } else if other.key.serves_before(&self.key) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }
}

struct Inner<T> {
    heap: BinaryHeap<QueuedJob<T>>,
    queued_ms: f64,
    in_flight_ms: f64,
    in_flight: usize,
    next_seq: u64,
    served: u64,
    closed: bool,
}

/// A claimed job: what a worker pops from the queue.
#[derive(Debug)]
pub struct Claimed<T> {
    /// Admission sequence number (arrival order).
    pub seq: u64,
    /// The service-time estimate the job was admitted under.
    pub est_ms: f64,
    /// The request itself.
    pub payload: T,
}

/// The admission-controlled work queue.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> Default for AdmissionQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> AdmissionQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        AdmissionQueue {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                queued_ms: 0.0,
                in_flight_ms: 0.0,
                in_flight: 0,
                next_seq: 0,
                served: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits or rejects a request. `deadline_ms` is relative to now;
    /// `est_ms` is the caller's service-time estimate. Returns the
    /// admission sequence number.
    pub fn submit(
        &self,
        priority: u8,
        deadline_ms: Option<f64>,
        est_ms: f64,
        payload: T,
    ) -> Result<u64, AdmissionError> {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        if inner.closed {
            return Err(AdmissionError::Closed);
        }
        let key = ServiceKey {
            priority,
            deadline_ms: deadline_ms.unwrap_or(f64::INFINITY),
            seq: inner.next_seq,
        };
        if let Some(deadline) = deadline_ms {
            let ahead_ms: f64 = inner
                .heap
                .iter()
                .filter(|j| j.key.serves_before(&key))
                .map(|j| j.est_ms)
                .sum();
            let projected_ms = inner.in_flight_ms + ahead_ms + est_ms;
            if projected_ms > deadline {
                let retry_after_ms = inner.in_flight_ms + inner.queued_ms;
                return Err(AdmissionError::Rejected {
                    retry_after_ms,
                    projected_ms,
                });
            }
        }
        inner.next_seq += 1;
        inner.queued_ms += est_ms;
        inner.heap.push(QueuedJob {
            key,
            est_ms,
            payload,
        });
        drop(inner);
        self.ready.notify_one();
        Ok(key.seq)
    }

    /// Blocks for the next job in QoS order; `None` once the queue is
    /// closed *and* drained.
    pub fn pop(&self) -> Option<Claimed<T>> {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        loop {
            if let Some(job) = inner.heap.pop() {
                inner.queued_ms = (inner.queued_ms - job.est_ms).max(0.0);
                inner.in_flight_ms += job.est_ms;
                inner.in_flight += 1;
                return Some(Claimed {
                    seq: job.key.seq,
                    est_ms: job.est_ms,
                    payload: job.payload,
                });
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("admission queue poisoned");
        }
    }

    /// Marks a claimed job finished; returns the global completion
    /// sequence number (1-based serving order).
    pub fn complete(&self, est_ms: f64) -> u64 {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        inner.in_flight = inner.in_flight.saturating_sub(1);
        inner.in_flight_ms = (inner.in_flight_ms - est_ms).max(0.0);
        inner.served += 1;
        inner.served
    }

    /// The completion sequence number of a request answered without
    /// queueing: same counter as [`AdmissionQueue::complete`], so
    /// `served_seq` stays unique and gap-free across both ways out.
    pub fn serve_inline(&self) -> u64 {
        let mut inner = self.inner.lock().expect("admission queue poisoned");
        inner.served += 1;
        inner.served
    }

    /// Queued (not yet claimed) request count, for gauges.
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .expect("admission queue poisoned")
            .heap
            .len()
    }

    /// Closes the queue: future submits fail, blocked pops drain what
    /// remains and then return `None`.
    pub fn close(&self) {
        self.inner.lock().expect("admission queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn serves_priority_tiers_then_edf_then_arrival() {
        let q: AdmissionQueue<&str> = AdmissionQueue::new();
        q.submit(0, Some(100.0), 1.0, "low-tight").unwrap();
        q.submit(0, None, 1.0, "low-open-a").unwrap();
        q.submit(0, None, 1.0, "low-open-b").unwrap();
        q.submit(3, Some(500.0), 1.0, "high-late").unwrap();
        q.submit(3, Some(50.0), 1.0, "high-soon").unwrap();
        q.close();
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|c| c.payload)).collect();
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
        let q: AdmissionQueue<u32> = AdmissionQueue::new();
        // Higher-tier backlog is always ahead of a tier-0 arrival.
        // (Same-tier open-deadline work would NOT be: EDF serves a
        // tight deadline first, so it projects nothing ahead.)
        q.submit(5, None, 40.0, 1).unwrap();
        q.submit(5, None, 40.0, 2).unwrap();
        // 80 ms queued ahead + 10 ms own estimate > 50 ms deadline.
        match q.submit(0, Some(50.0), 10.0, 3) {
            Err(AdmissionError::Rejected {
                retry_after_ms,
                projected_ms,
            }) => {
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
        let q: AdmissionQueue<u32> = AdmissionQueue::new();
        q.submit(0, None, 40.0, 1).unwrap();
        let claimed = q.pop().unwrap();
        // Still projected: the job is in flight, not gone.
        assert!(matches!(
            q.submit(0, Some(30.0), 1.0, 2),
            Err(AdmissionError::Rejected { .. })
        ));
        assert_eq!(q.complete(claimed.est_ms), 1);
        q.submit(0, Some(30.0), 1.0, 3).unwrap();
    }

    #[test]
    fn close_drains_then_unblocks_poppers() {
        let q: Arc<AdmissionQueue<u32>> = Arc::new(AdmissionQueue::new());
        q.submit(0, None, 1.0, 7).unwrap();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(c) = q.pop() {
                    seen.push(c.payload);
                    q.complete(c.est_ms);
                }
                seen
            })
        };
        q.submit(0, None, 1.0, 8).unwrap();
        // Give the popper a moment, then close; it must drain and exit.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let seen = popper.join().unwrap();
        assert_eq!(seen.len(), 2);
        assert!(matches!(
            q.submit(0, None, 1.0, 9),
            Err(AdmissionError::Closed)
        ));
        assert_eq!(q.depth(), 0);
    }
}
