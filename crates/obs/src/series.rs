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
//!
//! [`WindowStats`] folds the most recent points into the aggregates the
//! dashboard and detectors read: min / max / mean / p50 / p90
//! (nearest-rank percentiles).

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

/// Windowed aggregates over the most recent points of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Points aggregated.
    pub count: usize,
    /// Smallest value in the window.
    pub min: f64,
    /// Largest value in the window.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
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

    /// Aggregates over the most recent `window` points (the whole buffer
    /// when `window` covers it). `None` on an empty series.
    pub fn window(&self, window: usize) -> Option<WindowStats> {
        let n = self.points.len().min(window);
        if n == 0 {
            return None;
        }
        let values: Vec<f64> = self
            .points
            .iter()
            .skip(self.points.len() - n)
            .map(|&(_, v)| v)
            .collect();
        Some(WindowStats::from_values(&values))
    }

    /// Aggregates over every retained point.
    pub fn stats(&self) -> Option<WindowStats> {
        self.window(self.points.len())
    }
}

impl WindowStats {
    /// Folds raw values (all finite) into the aggregate set.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "need at least one value");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let n = sorted.len();
            let k = ((q * n as f64).ceil() as usize).clamp(1, n);
            sorted[k - 1]
        };
        WindowStats {
            count: sorted.len(),
            min: sorted[0],
            max: *sorted.last().unwrap(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: rank(0.50),
            p90: rank(0.90),
        }
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
    fn windowed_aggregates() {
        let mut s = TimeSeries::new(16);
        for (i, v) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            s.push(i as f64, *v);
        }
        let all = s.stats().unwrap();
        assert_eq!(all.count, 5);
        assert_eq!(all.min, 1.0);
        assert_eq!(all.max, 5.0);
        assert!((all.mean - 3.0).abs() < 1e-12);
        assert_eq!(all.p50, 3.0);
        assert_eq!(all.p90, 5.0);
        // The last-2 window sees only [2, 4].
        let w = s.window(2).unwrap();
        assert_eq!(w.count, 2);
        assert_eq!(w.min, 2.0);
        assert_eq!(w.max, 4.0);
        assert_eq!(w.p50, 2.0);
        // Oversized windows clamp to the buffer.
        assert_eq!(s.window(100).unwrap().count, 5);
        assert!(TimeSeries::new(4).stats().is_none());
    }

    #[test]
    fn single_point_stats_degenerate_cleanly() {
        let mut s = TimeSeries::new(2);
        s.push(0.0, 7.5);
        let w = s.stats().unwrap();
        assert_eq!(
            (w.min, w.max, w.mean, w.p50, w.p90),
            (7.5, 7.5, 7.5, 7.5, 7.5)
        );
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_capacity_is_rejected() {
        let _ = TimeSeries::new(0);
    }
}
