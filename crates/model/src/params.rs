//! Dense per-pair network parameter tables.
//!
//! [`NetParams`] is the exchange format between the directory service and
//! the schedulers: for every ordered processor pair `(i, j)` it stores the
//! current estimate `(T_ij, B_ij)`. Diagonal entries are local memory
//! copies and are never consulted (the cost model short-circuits them to
//! zero, per the paper's §4.2 assumption).

use crate::cost::LinkEstimate;
use crate::units::{Bandwidth, Bytes, Millis};
use std::fmt;

/// A dense `P×P` table of link estimates.
///
/// Storage is row-major over *senders*: `estimate(src, dst)` is the
/// performance of the path used by messages from `src` to `dst`.
/// Estimates need not be symmetric (WAN routes rarely are).
#[derive(Debug, Clone, PartialEq)]
pub struct NetParams {
    p: usize,
    entries: Vec<LinkEstimate>,
}

impl NetParams {
    /// Builds a table where every off-diagonal pair shares one estimate.
    pub fn uniform(p: usize, startup: Millis, bandwidth: Bandwidth) -> Self {
        assert!(p >= 1, "need at least one processor");
        let e = LinkEstimate::new(startup, bandwidth);
        NetParams {
            p,
            entries: vec![e; p * p],
        }
    }

    /// Builds a table from a function of `(src, dst)`. The function is
    /// also invoked for the diagonal so callers can keep it total, but
    /// diagonal values are never used by the cost model.
    pub fn from_fn(p: usize, mut f: impl FnMut(usize, usize) -> LinkEstimate) -> Self {
        assert!(p >= 1, "need at least one processor");
        let mut entries = Vec::with_capacity(p * p);
        for src in 0..p {
            for dst in 0..p {
                entries.push(f(src, dst));
            }
        }
        NetParams { p, entries }
    }

    /// Number of processors.
    #[inline]
    pub fn len(&self) -> usize {
        self.p
    }

    /// True if the table is empty (never constructible; kept for API
    /// symmetry with collections).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.p == 0
    }

    /// The estimate for the ordered pair `(src, dst)`.
    #[inline]
    pub fn estimate(&self, src: usize, dst: usize) -> LinkEstimate {
        self.entries[src * self.p + dst]
    }

    /// Overwrites the estimate for `(src, dst)`.
    #[inline]
    pub fn set_estimate(&mut self, src: usize, dst: usize, e: LinkEstimate) {
        self.entries[src * self.p + dst] = e;
    }

    /// Applies a multiplicative factor to the bandwidth of a single
    /// directed pair (load injection / variation).
    pub fn scale_bandwidth(&mut self, src: usize, dst: usize, factor: f64) {
        let e = self.estimate(src, dst);
        self.set_estimate(
            src,
            dst,
            LinkEstimate::new(e.startup, e.bandwidth.scaled(factor)),
        );
    }

    /// Predicted message time for `m` bytes from `src` to `dst`
    /// (zero on the diagonal).
    #[inline]
    pub fn time(&self, src: usize, dst: usize, m: Bytes) -> Millis {
        if src == dst {
            Millis::ZERO
        } else {
            self.estimate(src, dst).message_time(m)
        }
    }

    /// Iterates over all ordered off-diagonal pairs with their estimates.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, LinkEstimate)> + '_ {
        (0..self.p).flat_map(move |src| {
            (0..self.p)
                .filter(move |&dst| dst != src)
                .map(move |dst| (src, dst, self.estimate(src, dst)))
        })
    }
}

impl fmt::Display for NetParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "NetParams over {} processors:", self.p)?;
        for src in 0..self.p {
            for dst in 0..self.p {
                if src == dst {
                    write!(f, "      --      ")?;
                } else {
                    let e = self.estimate(src, dst);
                    write!(
                        f,
                        " {:5.1}ms/{:7.0}k",
                        e.startup.as_ms(),
                        e.bandwidth.as_kbps()
                    )?;
                }
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
    fn uniform_table_is_uniform() {
        let p = NetParams::uniform(4, Millis::new(10.0), Bandwidth::from_kbps(500.0));
        assert_eq!(p.len(), 4);
        for (_, _, e) in p.pairs() {
            assert_eq!(e.startup.as_ms(), 10.0);
            assert_eq!(e.bandwidth.as_kbps(), 500.0);
        }
        assert_eq!(p.pairs().count(), 12); // 4*3 off-diagonal pairs
    }

    #[test]
    fn from_fn_is_directional() {
        let p = NetParams::from_fn(3, |src, dst| {
            LinkEstimate::new(
                Millis::new((src * 10 + dst) as f64 + 1.0),
                Bandwidth::from_kbps(100.0),
            )
        });
        assert_eq!(p.estimate(2, 1).startup.as_ms(), 22.0);
        assert_eq!(p.estimate(1, 2).startup.as_ms(), 13.0);
    }

    #[test]
    fn scaling_affects_only_target_pair() {
        let mut p = NetParams::uniform(3, Millis::new(1.0), Bandwidth::from_kbps(100.0));
        p.scale_bandwidth(0, 2, 0.5);
        assert_eq!(p.estimate(0, 2).bandwidth.as_kbps(), 50.0);
        assert_eq!(p.estimate(2, 0).bandwidth.as_kbps(), 100.0);
        assert_eq!(p.estimate(0, 1).bandwidth.as_kbps(), 100.0);
    }

    #[test]
    fn display_renders_without_panic() {
        let p = NetParams::uniform(2, Millis::new(1.0), Bandwidth::from_kbps(100.0));
        let s = format!("{p}");
        assert!(s.contains("2 processors"));
    }
}
