//! GUSTO-guided random network parameter generation (paper §5).
//!
//! "The simulator generates random performance characteristics for
//! pairwise network performance, using information from the GUSTO
//! directory service as a guideline." We reproduce that: start-up costs
//! are drawn uniformly from the latency range of Table 1 and bandwidths
//! log-uniformly from the bandwidth range of Table 2 (log-uniform because
//! the table spans more than an order of magnitude — 246 to 4976 kbit/s —
//! and a linear draw would almost never produce slow links).

use crate::cost::LinkEstimate;
use crate::gusto;
use crate::params::NetParams;
use crate::units::{Bandwidth, Millis};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for random network generation. Start-up costs are
/// always drawn from Table 1's latency range
/// ([`gusto::MIN_LATENCY_MS`]..=[`gusto::MAX_LATENCY_MS`]).
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Lower bound of the bandwidth range (kbit/s).
    pub bandwidth_min_kbps: f64,
    /// Upper bound of the bandwidth range (kbit/s).
    pub bandwidth_max_kbps: f64,
    /// If true, generated estimates are symmetric (`(i,j)` = `(j,i)`),
    /// matching the GUSTO tables; if false each direction is drawn
    /// independently.
    pub symmetric: bool,
}

impl Default for GeneratorConfig {
    /// The GUSTO-guided defaults: ranges exactly as spanned by Tables 1–2.
    fn default() -> Self {
        GeneratorConfig {
            bandwidth_min_kbps: gusto::MIN_BANDWIDTH_KBPS,
            bandwidth_max_kbps: gusto::MAX_BANDWIDTH_KBPS,
            symmetric: true,
        }
    }
}

impl GeneratorConfig {
    /// The §3.2 wide heterogeneity range: "typical values for the
    /// bandwidth could be in the range of kb/s to hundreds of Mb/s".
    /// 56 kbit/s (dial-up/ISDN-era slow links) to 155 Mbit/s (ATM OC-3)
    /// — a ~2800× spread, versus the ~20× of the GUSTO snapshot. Strong
    /// spread is what makes the oblivious baseline collapse (the paper's
    /// 2–5× Figure-12 gap needs it).
    pub fn wide_area() -> Self {
        GeneratorConfig {
            bandwidth_min_kbps: 56.0,
            bandwidth_max_kbps: 155_000.0,
            ..Self::default()
        }
    }

    fn validate(&self) {
        assert!(
            self.bandwidth_min_kbps > 0.0 && self.bandwidth_min_kbps <= self.bandwidth_max_kbps,
            "invalid bandwidth range"
        );
    }
}

/// Deterministic random network generator.
#[derive(Debug)]
pub struct NetGenerator {
    config: GeneratorConfig,
    rng: StdRng,
}

impl NetGenerator {
    /// Creates a generator with the given configuration and seed.
    pub fn new(config: GeneratorConfig, seed: u64) -> Self {
        config.validate();
        NetGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates a GUSTO-guided generator (the paper's §5 setup).
    pub fn gusto_guided(seed: u64) -> Self {
        Self::new(GeneratorConfig::default(), seed)
    }

    /// Draws one link estimate.
    fn draw(&mut self) -> LinkEstimate {
        let c = &self.config;
        let startup = self
            .rng
            .random_range(gusto::MIN_LATENCY_MS..=gusto::MAX_LATENCY_MS);
        let (lo, hi) = (c.bandwidth_min_kbps.ln(), c.bandwidth_max_kbps.ln());
        let bw = if lo == hi {
            c.bandwidth_min_kbps
        } else {
            self.rng.random_range(lo..=hi).exp()
        };
        LinkEstimate::new(Millis::new(startup), Bandwidth::from_kbps(bw))
    }

    /// Generates a full `P×P` parameter table.
    pub fn generate(&mut self, p: usize) -> NetParams {
        assert!(p >= 1, "need at least one processor");
        let diag = LinkEstimate::new(Millis::ZERO, Bandwidth::from_kbps(1e12));
        let mut params = NetParams::from_fn(p, |_, _| diag);
        if self.config.symmetric {
            for src in 0..p {
                for dst in (src + 1)..p {
                    let e = self.draw();
                    params.set_estimate(src, dst, e);
                    params.set_estimate(dst, src, e);
                }
            }
        } else {
            for src in 0..p {
                for dst in 0..p {
                    if src != dst {
                        let e = self.draw();
                        params.set_estimate(src, dst, e);
                    }
                }
            }
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_values_stay_in_range() {
        let mut g = NetGenerator::gusto_guided(7);
        let p = g.generate(20);
        for (_, _, e) in p.pairs() {
            assert!(e.startup.as_ms() >= gusto::MIN_LATENCY_MS);
            assert!(e.startup.as_ms() <= gusto::MAX_LATENCY_MS);
            assert!(e.bandwidth.as_kbps() >= gusto::MIN_BANDWIDTH_KBPS - 1e-9);
            assert!(e.bandwidth.as_kbps() <= gusto::MAX_BANDWIDTH_KBPS + 1e-9);
        }
    }

    #[test]
    fn symmetric_generation_is_symmetric() {
        let mut g = NetGenerator::gusto_guided(11);
        let p = g.generate(8);
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    assert_eq!(p.estimate(a, b), p.estimate(b, a));
                }
            }
        }
    }

    #[test]
    fn asymmetric_generation_differs_by_direction() {
        let cfg = GeneratorConfig {
            symmetric: false,
            ..GeneratorConfig::default()
        };
        let mut g = NetGenerator::new(cfg, 13);
        let p = g.generate(10);
        let asymmetric = p
            .pairs()
            .filter(|&(a, b, e)| a < b && e != p.estimate(b, a))
            .count();
        assert!(asymmetric > 0, "independent draws should differ somewhere");
    }

    #[test]
    fn same_seed_reproduces_same_network() {
        let a = NetGenerator::gusto_guided(42).generate(12);
        let b = NetGenerator::gusto_guided(42).generate(12);
        assert_eq!(a, b);
        let c = NetGenerator::gusto_guided(43).generate(12);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth range")]
    fn invalid_config_rejected() {
        let cfg = GeneratorConfig {
            bandwidth_min_kbps: 0.0,
            ..GeneratorConfig::default()
        };
        let _ = NetGenerator::new(cfg, 0);
    }
}
