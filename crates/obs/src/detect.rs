//! Online change detection: EWMA smoothing, two-sided CUSUM, and the
//! per-link health state machine.
//!
//! The paper's adaptive loop needs to know *when a link changed*, not
//! just its latest sample. A [`Cusum`] accumulates standardized
//! deviations from a reference level and fires once the cumulative
//! evidence crosses a threshold — the classic sequential test that
//! detects small sustained shifts far sooner than any single-sample
//! rule, while a properly chosen threshold keeps the false-alarm rate on
//! stationary noise near zero (property-tested in
//! `tests/detect_prop.rs`). An [`Ewma`] smooths noisy series for
//! display and scoring, and [`LinkHealth`] folds detector verdicts into
//! a hysteresis-guarded healthy / degraded / dead state per link.

/// Exponentially weighted moving average: `v ← α·x + (1-α)·v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// An EWMA with smoothing factor `alpha` in `(0, 1]` (1 = no
    /// smoothing). The first sample seeds the average.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0 && alpha.is_finite(),
            "alpha must be in (0, 1]"
        );
        Ewma { alpha, value: None }
    }

    /// Feeds one sample, returning the updated average. Non-finite
    /// samples are ignored (the current average is returned unchanged,
    /// or the sample's NaN-free default 0 when nothing was seen yet).
    pub fn update(&mut self, x: f64) -> f64 {
        if x.is_finite() {
            self.value = Some(match self.value {
                None => x,
                Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
            });
        }
        self.value.unwrap_or(0.0)
    }

    /// The current average, if any sample arrived.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

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

/// Discrete link condition, worst to best: `Dead < Degraded < Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// The link is effectively unusable.
    Dead,
    /// The link misbehaves but still moves bytes.
    Degraded,
    /// The link performs as modeled.
    Healthy,
}

impl HealthState {
    /// Short lowercase name (`healthy` / `degraded` / `dead`).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Dead => "dead",
        }
    }

    /// Numeric encoding for gauges and dumps: 0 = healthy, 1 = degraded,
    /// 2 = dead.
    pub fn code(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Dead => 2,
        }
    }

    /// The inverse of [`HealthState::code`] (anything above 2 is dead).
    pub fn from_code(code: u8) -> Self {
        match code {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::Dead,
        }
    }
}

/// Consecutive alarmed observations before `Healthy → Degraded`: one
/// alarm is a warning, so it only degrades.
pub const DEGRADE_AFTER: u32 = 1;
/// Consecutive alarmed observations before `Degraded → Dead`, counted
/// from the first alarm: a verdict needs three in a row.
pub const DEAD_AFTER: u32 = 3;
/// Consecutive quiet observations before stepping one level up
/// (`Dead → Degraded → Healthy`): as many as it takes to die.
pub const RECOVER_AFTER: u32 = 3;

/// Per-link health: detector verdicts in, hysteresis-guarded state out.
///
/// Feed one boolean per observation window (`true` = the link's change
/// detector fired / the link misbehaved). Demotion needs
/// [`DEGRADE_AFTER`] / [`DEAD_AFTER`] *consecutive* bad observations,
/// promotion needs [`RECOVER_AFTER`] consecutive good ones — so a single
/// noisy sample can neither kill a link nor resurrect one.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkHealth {
    state: HealthState,
    bad_streak: u32,
    good_streak: u32,
    score: Ewma,
    quarantined: bool,
}

impl Default for LinkHealth {
    /// A healthy link.
    fn default() -> Self {
        LinkHealth {
            state: HealthState::Healthy,
            bad_streak: 0,
            good_streak: 0,
            score: Ewma::new(0.3),
            quarantined: false,
        }
    }
}

impl LinkHealth {
    /// Quarantines the link for good: an out-of-band trust verdict (the
    /// link's published estimates disagree with realized transfer times)
    /// that pins the reported state at [`HealthState::Dead`] regardless
    /// of subsequent detector observations. Unlike `observe`, this is not
    /// a statistical input — hysteresis does not apply to a link caught
    /// lying.
    pub fn quarantine(&mut self) {
        self.quarantined = true;
    }

    /// True while the link is quarantined.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Feeds one observation (`alarmed` = the link misbehaved in this
    /// window) and returns the possibly-updated state.
    pub fn observe(&mut self, alarmed: bool) -> HealthState {
        self.score.update(if alarmed { 1.0 } else { 0.0 });
        if alarmed {
            self.bad_streak += 1;
            self.good_streak = 0;
            if self.state == HealthState::Healthy && self.bad_streak >= DEGRADE_AFTER {
                self.state = HealthState::Degraded;
            }
            if self.state == HealthState::Degraded && self.bad_streak >= DEAD_AFTER {
                self.state = HealthState::Dead;
            }
        } else {
            self.good_streak += 1;
            self.bad_streak = 0;
            if self.good_streak >= RECOVER_AFTER {
                self.good_streak = 0;
                self.state = match self.state {
                    HealthState::Dead => HealthState::Degraded,
                    _ => HealthState::Healthy,
                };
            }
        }
        self.state()
    }

    /// The current state. Quarantine overrides the hysteresis verdict.
    pub fn state(&self) -> HealthState {
        if self.quarantined {
            HealthState::Dead
        } else {
            self.state
        }
    }

    /// Smoothed badness in `[0, 1]`: an EWMA (α = 0.3) of the alarm
    /// indicator. 0 = consistently quiet, 1 = consistently alarmed.
    /// Quarantine pins the score to 1 — a link the trust cross-check
    /// removed must never look healthier than its verdict, whatever
    /// its pre-quarantine history smoothed to.
    pub fn score(&self) -> f64 {
        if self.quarantined {
            return 1.0;
        }
        self.score.value().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_smooths_toward_the_level() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.update(0.0), 5.0);
        assert_eq!(e.update(5.0), 5.0);
        // Non-finite samples are ignored.
        assert_eq!(e.update(f64::NAN), 5.0);
        assert_eq!(e.value(), Some(5.0));
    }

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

    #[test]
    fn health_degrades_and_dies_with_hysteresis() {
        let mut h = LinkHealth::default();
        assert_eq!(h.observe(true), HealthState::Degraded, "one alarm warns");
        assert_eq!(h.observe(true), HealthState::Degraded);
        assert_eq!(h.observe(true), HealthState::Dead);
        // Recovery steps up one level per quiet streak.
        for expected in [HealthState::Dead, HealthState::Dead, HealthState::Degraded] {
            assert_eq!(h.observe(false), expected);
        }
        for expected in [
            HealthState::Degraded,
            HealthState::Degraded,
            HealthState::Healthy,
        ] {
            assert_eq!(h.observe(false), expected);
        }
        assert!(h.score() < 0.5, "quiet streak must drain the score");
    }

    #[test]
    fn an_interrupted_bad_streak_does_not_demote() {
        let mut h = LinkHealth::default();
        for _ in 0..5 {
            assert_eq!(h.observe(true), HealthState::Degraded);
            assert_eq!(h.observe(true), HealthState::Degraded);
            assert_eq!(h.observe(false), HealthState::Degraded);
        }
    }

    #[test]
    fn quarantine_pins_the_state_dead() {
        let mut h = LinkHealth::default();
        assert_eq!(h.state(), HealthState::Healthy);
        h.quarantine();
        assert!(h.quarantined());
        assert_eq!(h.state(), HealthState::Dead);
        // Quiet observations cannot talk their way out of quarantine.
        for _ in 0..10 {
            assert_eq!(h.observe(false), HealthState::Dead);
        }
    }

    #[test]
    fn quarantine_pins_the_score_at_max_badness() {
        let mut h = LinkHealth::default();
        // A long healthy history smooths the badness EWMA to ~0.
        for _ in 0..50 {
            h.observe(false);
        }
        assert!(h.score() < 0.01);
        h.quarantine();
        // The report must reflect the trust verdict, not the healthy
        // history: state Dead, score pinned to maximum badness.
        assert_eq!(h.state(), HealthState::Dead);
        assert_eq!(h.score(), 1.0);
        // More quiet observations change neither while quarantined.
        for _ in 0..10 {
            h.observe(false);
        }
        assert_eq!(h.score(), 1.0);
    }

    #[test]
    fn health_state_codes_round_trip() {
        for s in [
            HealthState::Healthy,
            HealthState::Degraded,
            HealthState::Dead,
        ] {
            assert_eq!(HealthState::from_code(s.code()), s);
        }
        assert_eq!(HealthState::Healthy.name(), "healthy");
        assert!(HealthState::Dead < HealthState::Degraded);
    }
}
