//! Fixed-capacity time series: the memory behind the live telemetry
//! pipeline.
//!
//! A [`TimeSeries`] is a ring buffer of `(timestamp, value)` points with
//! **explicit** timestamps — callers stamp points in whatever clock they
//! live in (the runtime uses modeled milliseconds), so a series can be
//! replayed deterministically and round-tripped losslessly. When the
//! buffer is full, the oldest point falls off: a series is a bounded
//! *recent history*, not an archive (the JSONL event log already is
//! one).

use std::collections::VecDeque;

/// One bounded series of `(timestamp, value)` points in append order.
///
/// Timestamps are caller-supplied and expected (but not required) to be
/// non-decreasing; values that are NaN or infinite are silently dropped
/// so downstream aggregates stay finite.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    points: VecDeque<(f64, f64)>,
}

impl TimeSeries {
    /// A series holding at most `capacity` points (must be non-zero).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a series needs room for at least one point");
        TimeSeries {
            capacity,
            points: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a point, evicting the oldest when the buffer is full.
    /// Non-finite timestamps or values are dropped.
    pub fn push(&mut self, ts: f64, value: f64) {
        if !ts.is_finite() || !value.is_finite() {
            return;
        }
        if self.points.len() == self.capacity {
            self.points.pop_front();
        }
        self.points.push_back((ts, value));
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Points currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The most recent point.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.back().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back_in_order() {
        let mut s = TimeSeries::new(8);
        s.push(0.0, 10.0);
        s.push(1.0, 20.0);
        s.push(2.0, 30.0);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.points().collect::<Vec<_>>(),
            vec![(0.0, 10.0), (1.0, 20.0), (2.0, 30.0)]
        );
        assert_eq!(s.last(), Some((2.0, 30.0)));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = TimeSeries::new(3);
        for i in 0..5 {
            s.push(i as f64, i as f64 * 10.0);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.points().collect::<Vec<_>>(),
            vec![(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        );
        assert_eq!(s.capacity(), 3);
    }

    #[test]
    fn non_finite_points_are_dropped() {
        let mut s = TimeSeries::new(4);
        s.push(f64::NAN, 1.0);
        s.push(0.0, f64::INFINITY);
        s.push(1.0, 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.last(), Some((1.0, 2.0)));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_capacity_is_rejected() {
        let _ = TimeSeries::new(0);
    }
}
