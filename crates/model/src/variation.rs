//! Time-varying network performance traces.
//!
//! "Network conditions change continuously, and run-time loads cannot be
//! determined apriori" (§1). This module models that drift: a
//! [`VariationTrace`] evolves per-pair bandwidth multipliers with a
//! bounded geometric random walk, producing a [`NetParams`] snapshot for
//! any query time. The directory service and the dynamic simulator both
//! consume traces, which is what makes the §6.3 checkpoint/rescheduling
//! experiments possible.

use crate::cost::LinkEstimate;
use crate::evolution::NetworkEvolution;
use crate::params::NetParams;
use crate::units::Millis;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the bandwidth drift process.
#[derive(Debug, Clone, Copy)]
pub struct VariationConfig {
    /// Interval between drift steps.
    pub step: Millis,
    /// Maximum multiplicative change per step (e.g. `0.1` = ±10 %).
    pub volatility: f64,
    /// Lower clamp on the cumulative multiplier.
    pub floor: f64,
    /// Upper clamp on the cumulative multiplier.
    pub ceil: f64,
}

impl Default for VariationConfig {
    fn default() -> Self {
        VariationConfig {
            step: Millis::new(1_000.0),
            volatility: 0.10,
            floor: 0.25,
            ceil: 4.0,
        }
    }
}

/// A deterministic, seedable drift process over a base [`NetParams`].
///
/// The walk is advanced lazily, only when a query's step index passes the
/// last one materialized: queries at increasing times cost `O(Δ·P²)` for
/// the `Δ` steps crossed, and a [`NetworkEvolution::link_at`] read inside
/// a step touches one multiplier.
#[derive(Debug)]
pub struct VariationTrace {
    base: NetParams,
    config: VariationConfig,
    rng: StdRng,
    /// Cumulative multipliers per ordered pair, flattened row-major.
    multipliers: Vec<f64>,
    /// Index of the last materialized step.
    current_step: u64,
}

impl VariationTrace {
    /// Creates a trace starting from `base` at time zero.
    pub fn new(base: NetParams, config: VariationConfig, seed: u64) -> Self {
        assert!(config.step.as_ms() > 0.0, "step must be positive");
        assert!(
            config.volatility >= 0.0 && config.volatility < 1.0,
            "volatility must be in [0, 1)"
        );
        assert!(
            0.0 < config.floor && config.floor <= 1.0 && config.ceil >= 1.0,
            "clamps must bracket 1.0"
        );
        let n = base.len() * base.len();
        VariationTrace {
            base,
            config,
            rng: StdRng::seed_from_u64(seed),
            multipliers: vec![1.0; n],
            current_step: 0,
        }
    }

    /// The unperturbed base parameters.
    pub fn base(&self) -> &NetParams {
        &self.base
    }

    /// Number of processors covered.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// True if the trace covers zero processors (never constructible).
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    fn advance_to(&mut self, step: u64) {
        let p = self.base.len();
        while self.current_step < step {
            for src in 0..p {
                for dst in 0..p {
                    if src == dst {
                        continue;
                    }
                    let idx = src * p + dst;
                    let delta = self
                        .rng
                        .random_range(-self.config.volatility..=self.config.volatility);
                    let m = (self.multipliers[idx] * (1.0 + delta))
                        .clamp(self.config.floor, self.config.ceil);
                    self.multipliers[idx] = m;
                }
            }
            self.current_step += 1;
        }
    }
}

impl NetworkEvolution for VariationTrace {
    fn processors(&self) -> usize {
        self.len()
    }

    fn planning_estimates(&self) -> &NetParams {
        &self.base
    }

    /// Forward-only: a `t` inside a step already passed reads the walk
    /// where it stands.
    fn link_at(&mut self, t: Millis, src: usize, dst: usize) -> LinkEstimate {
        let step = (t.as_ms() / self.config.step.as_ms()).floor().max(0.0) as u64;
        self.advance_to(step);
        let e = self.base.estimate(src, dst);
        if src == dst {
            return e;
        }
        let m = self.multipliers[src * self.base.len() + dst];
        LinkEstimate::new(e.startup, e.bandwidth.scaled(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;

    fn base() -> NetParams {
        NetParams::uniform(4, Millis::new(10.0), Bandwidth::from_kbps(1_000.0))
    }

    #[test]
    fn time_zero_returns_base() {
        let mut tr = VariationTrace::new(base(), VariationConfig::default(), 1);
        let s = tr.table_at(Millis::ZERO);
        assert_eq!(s, base());
    }

    #[test]
    fn drift_changes_bandwidth_but_not_startup() {
        let mut tr = VariationTrace::new(base(), VariationConfig::default(), 2);
        let s = tr.table_at(Millis::new(10_000.0));
        let mut changed = 0;
        for (src, dst, e) in s.pairs() {
            assert_eq!(e.startup.as_ms(), 10.0, "startup must not drift");
            if (e.bandwidth.as_kbps() - 1_000.0).abs() > 1e-9 {
                changed += 1;
            }
            let _ = (src, dst);
        }
        assert!(changed > 0, "ten steps of ±10% drift should move something");
    }

    #[test]
    fn multipliers_respect_clamps() {
        let cfg = VariationConfig {
            volatility: 0.5,
            floor: 0.5,
            ceil: 2.0,
            ..Default::default()
        };
        let mut tr = VariationTrace::new(base(), cfg, 3);
        let s = tr.table_at(Millis::new(1_000_000.0)); // 1000 steps
        for (_, _, e) in s.pairs() {
            let m = e.bandwidth.as_kbps() / 1_000.0;
            assert!(
                (0.5 - 1e-9..=2.0 + 1e-9).contains(&m),
                "multiplier {m} escaped clamp"
            );
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let mut a = VariationTrace::new(base(), VariationConfig::default(), 9);
        let mut b = VariationTrace::new(base(), VariationConfig::default(), 9);
        assert_eq!(
            a.table_at(Millis::new(5_500.0)),
            b.table_at(Millis::new(5_500.0))
        );
    }

    #[test]
    fn queries_within_a_step_are_stable() {
        let mut tr = VariationTrace::new(base(), VariationConfig::default(), 4);
        let s1 = tr.table_at(Millis::new(3_000.0));
        let s2 = tr.table_at(Millis::new(3_999.0));
        assert_eq!(s1, s2);
    }

    #[test]
    fn earlier_query_does_not_rewind() {
        let mut tr = VariationTrace::new(base(), VariationConfig::default(), 5);
        let late = tr.table_at(Millis::new(20_000.0));
        let earlier = tr.table_at(Millis::new(1_000.0));
        assert_eq!(late, earlier, "walk is forward-only");
    }

    #[test]
    #[should_panic(expected = "volatility")]
    fn bad_volatility_rejected() {
        let cfg = VariationConfig {
            volatility: 1.5,
            ..Default::default()
        };
        let _ = VariationTrace::new(base(), cfg, 0);
    }
}
