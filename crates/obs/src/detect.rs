//! Online change detection: a two-sided CUSUM.
//!
//! The paper's adaptive loop needs to know *when a link changed*, not
//! just its latest sample. A [`Cusum`] accumulates standardized
//! deviations from a reference level and fires once the cumulative
//! evidence crosses a threshold — the classic sequential test that
//! detects small sustained shifts far sooner than any single-sample
//! rule, while a properly chosen threshold keeps the false-alarm rate on
//! stationary noise near zero (property-tested in
//! `tests/detect_prop.rs`). The runtime's detector replan trigger is its
//! one user.

/// CUSUM tuning knobs, in units of the reference standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CusumConfig {
    /// Per-sample allowance `k`: deviation a sample must exceed before
    /// it contributes evidence. Half the smallest shift worth detecting.
    pub drift: f64,
    /// Decision threshold `h`: cumulative evidence that fires an alarm.
    /// Larger values trade detection delay for false-alarm resistance.
    pub threshold: f64,
}

impl Default for CusumConfig {
    /// `k = 0.5σ, h = 8σ`: tuned to detect ≥ 1σ sustained shifts within
    /// roughly `h / (δ − k)` samples while keeping the stationary
    /// false-alarm rate negligible over the series lengths the runtime
    /// sees (ARL₀ on the order of e^{2kh} ≈ 3000 samples).
    fn default() -> Self {
        CusumConfig {
            drift: 0.5,
            threshold: 8.0,
        }
    }
}

/// Which direction a detected shift went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDirection {
    /// The level shifted up (e.g. durations grew — a link degraded).
    Up,
    /// The level shifted down (e.g. durations shrank — a link healed).
    Down,
}

/// Floor on the reference standard deviation, so a zero-spread reference
/// (modeled runs are bit-deterministic) cannot divide by zero.
const MIN_STD: f64 = 1e-9;

/// A two-sided CUSUM change detector.
///
/// Samples are standardized against a fixed reference `(mean, std)`
/// ([`Cusum::with_reference`]) and accumulated into an upper and a lower
/// sum:
///
/// ```text
/// g⁺ ← max(0, g⁺ + z − k)       g⁻ ← max(0, g⁻ − z − k)
/// ```
///
/// An alarm fires when either exceeds `h`, after which the detector
/// resets.
#[derive(Debug, Clone, PartialEq)]
pub struct Cusum {
    cfg: CusumConfig,
    mean: f64,
    std: f64,
    pos: f64,
    neg: f64,
}

impl Cusum {
    /// A detector standardizing against a fixed `(mean, std)` reference.
    /// `std` is floored to keep standardization finite.
    pub fn with_reference(cfg: CusumConfig, mean: f64, std: f64) -> Self {
        assert!(cfg.drift >= 0.0 && cfg.threshold > 0.0, "bad CUSUM config");
        Cusum {
            cfg,
            mean,
            std: std.abs().max(MIN_STD),
            pos: 0.0,
            neg: 0.0,
        }
    }

    /// Feeds one sample; `Some(direction)` when the cumulative evidence
    /// crossed the threshold (the detector resets itself afterwards).
    /// Non-finite samples are ignored.
    pub fn update(&mut self, x: f64) -> Option<DriftDirection> {
        if !x.is_finite() {
            return None;
        }
        let z = (x - self.mean) / self.std;
        self.pos = (self.pos + z - self.cfg.drift).max(0.0);
        self.neg = (self.neg - z - self.cfg.drift).max(0.0);
        if self.pos > self.cfg.threshold {
            self.reset();
            Some(DriftDirection::Up)
        } else if self.neg > self.cfg.threshold {
            self.reset();
            Some(DriftDirection::Down)
        } else {
            None
        }
    }

    /// Clears the cumulative sums.
    pub fn reset(&mut self) {
        self.pos = 0.0;
        self.neg = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cusum_fires_up_on_a_step_and_resets() {
        let mut c = Cusum::with_reference(CusumConfig::default(), 0.0, 1.0);
        for _ in 0..100 {
            assert_eq!(c.update(0.0), None, "no drift, no alarm");
        }
        // A +3σ step: expected delay ≈ h/(δ−k) = 8/2.5 ≈ 4 samples.
        let mut fired_at = None;
        for i in 0..20 {
            if let Some(dir) = c.update(3.0) {
                assert_eq!(dir, DriftDirection::Up);
                fired_at = Some(i);
                break;
            }
        }
        let delay = fired_at.expect("a 3σ step must fire") + 1;
        assert!(delay <= 8, "fired after {delay} samples");
        // The alarm reset the evidence.
        assert_eq!(c, Cusum::with_reference(CusumConfig::default(), 0.0, 1.0));
    }

    #[test]
    fn cusum_is_two_sided() {
        let mut c = Cusum::with_reference(CusumConfig::default(), 10.0, 1.0);
        let mut down = None;
        for _ in 0..20 {
            if let Some(dir) = c.update(6.0) {
                down = Some(dir);
                break;
            }
        }
        assert_eq!(down, Some(DriftDirection::Down));
    }

    #[test]
    fn constant_series_never_alarms_even_with_zero_variance() {
        let mut c = Cusum::with_reference(CusumConfig::default(), 5.0, 0.0);
        for _ in 0..200 {
            assert_eq!(c.update(5.0), None);
        }
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut c = Cusum::with_reference(CusumConfig::default(), 0.0, 1.0);
        assert_eq!(c.update(f64::NAN), None);
        assert_eq!(c.update(f64::INFINITY), None);
        assert_eq!(c, Cusum::with_reference(CusumConfig::default(), 0.0, 1.0));
    }
}
