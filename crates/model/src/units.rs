//! Strongly-typed units used throughout the model.
//!
//! The paper quotes start-up costs in **milliseconds** and bandwidths in
//! **kbit/s** (Tables 1 and 2), and evaluates message sizes of 1 kB and
//! 1 MB. We keep those units at the API boundary and convert explicitly,
//! so a bandwidth can never be silently mistaken for a latency.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration in milliseconds.
///
/// All schedule times, start-up costs and completion times in this
/// workspace are expressed in `Millis`. The inner value is non-negative
/// by convention; constructors of model types enforce it.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Millis(pub f64);

impl Millis {
    /// The zero duration.
    pub const ZERO: Millis = Millis(0.0);

    /// Creates a duration from a number of milliseconds.
    #[inline]
    pub fn new(ms: f64) -> Self {
        Millis(ms)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        Millis(s * 1_000.0)
    }

    /// The duration in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0
    }

    /// The duration in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: Millis) -> Millis {
        Millis(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: Millis) -> Millis {
        Millis(self.0.min(other.0))
    }

    /// True if the duration is finite (not NaN or infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Add for Millis {
    type Output = Millis;
    #[inline]
    fn add(self, rhs: Millis) -> Millis {
        Millis(self.0 + rhs.0)
    }
}

impl AddAssign for Millis {
    #[inline]
    fn add_assign(&mut self, rhs: Millis) {
        self.0 += rhs.0;
    }
}

impl Sub for Millis {
    type Output = Millis;
    #[inline]
    fn sub(self, rhs: Millis) -> Millis {
        Millis(self.0 - rhs.0)
    }
}

impl Mul<f64> for Millis {
    type Output = Millis;
    #[inline]
    fn mul(self, rhs: f64) -> Millis {
        Millis(self.0 * rhs)
    }
}

impl Div<f64> for Millis {
    type Output = Millis;
    #[inline]
    fn div(self, rhs: f64) -> Millis {
        Millis(self.0 / rhs)
    }
}

impl Div<Millis> for Millis {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Millis) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Millis {
    fn sum<I: Iterator<Item = Millis>>(iter: I) -> Millis {
        Millis(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000.0 {
            write!(f, "{:.3} s", self.as_secs())
        } else {
            write!(f, "{:.3} ms", self.0)
        }
    }
}

/// A message size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes (a pure start-up-cost message).
    pub const ZERO: Bytes = Bytes(0);

    /// One kilobyte (10^3 bytes, as in the paper's "1kB" workload).
    pub const KB: Bytes = Bytes(1_000);

    /// One megabyte (10^6 bytes, as in the paper's "1MB" workload).
    pub const MB: Bytes = Bytes(1_000_000);

    /// Creates a size from a raw byte count.
    #[inline]
    pub fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// Creates a size from kilobytes (10^3 bytes).
    #[inline]
    pub fn from_kb(kb: u64) -> Self {
        Bytes(kb * 1_000)
    }

    /// Creates a size from megabytes (10^6 bytes).
    #[inline]
    pub fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// The raw byte count.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The size in bits.
    #[inline]
    pub fn bits(self) -> u64 {
        self.0 * 8
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{} MB", self.0 / 1_000_000)
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{} kB", self.0 / 1_000)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data transmission rate in kilobits per second, the unit used by the
/// GUSTO directory service (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from kbit/s. Panics if non-positive or not finite:
    /// a zero-bandwidth link would make transfer times infinite and every
    /// downstream algorithm meaningless.
    #[inline]
    pub fn from_kbps(kbps: f64) -> Self {
        assert!(
            kbps.is_finite() && kbps > 0.0,
            "bandwidth must be positive and finite, got {kbps}"
        );
        Bandwidth(kbps)
    }

    /// Creates a bandwidth from Mbit/s.
    #[inline]
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_kbps(mbps * 1_000.0)
    }

    /// The bandwidth in kbit/s.
    #[inline]
    pub fn as_kbps(self) -> f64 {
        self.0
    }

    /// The bandwidth in Mbit/s.
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Time to push `m` bytes through this link at full rate, excluding
    /// start-up cost: `8·m / B` milliseconds for `B` in kbit/s.
    ///
    /// (1 kbit/s moves 1 bit per millisecond, so `m` bytes = `8m` bits
    /// take `8m / B_kbps` milliseconds.)
    #[inline]
    pub fn transfer_time(self, m: Bytes) -> Millis {
        Millis(m.bits() as f64 / self.0)
    }

    /// Scales the bandwidth by a positive factor (used by the load and
    /// variation models). Panics if the factor is non-positive.
    #[inline]
    pub fn scaled(self, factor: f64) -> Bandwidth {
        Bandwidth::from_kbps(self.0 * factor)
    }

    /// Divides the bandwidth among `n` simultaneous flows sharing the
    /// link, per the paper's directory-service semantics ("the bandwidth
    /// of the common link is divided among these communicating pairs").
    #[inline]
    pub fn shared(self, n: usize) -> Bandwidth {
        assert!(n > 0, "cannot share a link among zero flows");
        Bandwidth::from_kbps(self.0 / n as f64)
    }

    /// Returns the smaller of two bandwidths (the bottleneck of a path).
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000.0 {
            write!(f, "{:.2} Mbit/s", self.as_mbps())
        } else {
            write!(f, "{:.1} kbit/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_arithmetic() {
        let a = Millis::new(10.0);
        let b = Millis::new(2.5);
        assert_eq!((a + b).as_ms(), 12.5);
        assert_eq!((a - b).as_ms(), 7.5);
        assert_eq!((a * 2.0).as_ms(), 20.0);
        assert_eq!((a / 4.0).as_ms(), 2.5);
        assert_eq!(a / b, 4.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn millis_sum_and_display() {
        let total: Millis = [Millis::new(1.0), Millis::new(2.0), Millis::new(3.0)]
            .into_iter()
            .sum();
        assert_eq!(total.as_ms(), 6.0);
        assert_eq!(format!("{}", Millis::new(12.0)), "12.000 ms");
        assert_eq!(format!("{}", Millis::new(1_500.0)), "1.500 s");
    }

    #[test]
    fn millis_from_secs_roundtrip() {
        let m = Millis::from_secs(2.0);
        assert_eq!(m.as_ms(), 2_000.0);
        assert_eq!(m.as_secs(), 2.0);
    }

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::KB.as_u64(), 1_000);
        assert_eq!(Bytes::MB.as_u64(), 1_000_000);
        assert_eq!(Bytes::from_kb(3).as_u64(), 3_000);
        assert_eq!(Bytes::from_mb(2).as_u64(), 2_000_000);
        assert_eq!(Bytes::new(42).bits(), 336);
        assert_eq!(Bytes::new(1) + Bytes::new(2), Bytes::new(3));
    }

    #[test]
    fn bytes_display() {
        assert_eq!(format!("{}", Bytes::KB), "1 kB");
        assert_eq!(format!("{}", Bytes::MB), "1 MB");
        assert_eq!(format!("{}", Bytes::new(999)), "999 B");
        assert_eq!(format!("{}", Bytes::new(1_500)), "1500 B");
    }

    #[test]
    fn bandwidth_transfer_time_matches_hand_calculation() {
        // 1 MB over 512 kbit/s: 8e6 bits / 512 kbit/s = 15625 ms.
        let t = Bandwidth::from_kbps(512.0).transfer_time(Bytes::MB);
        assert!((t.as_ms() - 15_625.0).abs() < 1e-9);
        // 1 kB over 1000 kbit/s: 8000 bits / 1000 = 8 ms.
        let t = Bandwidth::from_kbps(1_000.0).transfer_time(Bytes::KB);
        assert!((t.as_ms() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_sharing_divides_rate() {
        let b = Bandwidth::from_kbps(900.0);
        assert_eq!(b.shared(3).as_kbps(), 300.0);
        assert_eq!(b.shared(1).as_kbps(), 900.0);
    }

    #[test]
    fn bandwidth_min_and_scale() {
        let a = Bandwidth::from_kbps(100.0);
        let b = Bandwidth::from_kbps(250.0);
        assert_eq!(a.min(b).as_kbps(), 100.0);
        assert_eq!(b.scaled(0.5).as_kbps(), 125.0);
        assert_eq!(Bandwidth::from_mbps(2.0).as_kbps(), 2_000.0);
        assert_eq!(Bandwidth::from_kbps(2_000.0).as_mbps(), 2.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::from_kbps(0.0);
    }

    #[test]
    #[should_panic(expected = "cannot share")]
    fn sharing_among_zero_flows_rejected() {
        let _ = Bandwidth::from_kbps(10.0).shared(0);
    }
}
