//! Per-link health over the directory's published measurements.
//!
//! The paper's directory publishes *current* per-pair performance; this
//! module makes that stream judgeable. Every live measurement fed
//! through [`DirectoryService::publish_measurement`] also updates a
//! [`HealthMonitor`]: per directed link, a two-sided CUSUM watches the
//! log-ratio of measured bandwidth against the link's first published
//! baseline, and a hysteresis state machine
//! ([`adaptcomm_obs::LinkHealth`]) folds the alarms into a
//! healthy / degraded / dead verdict. [`DirectoryService::health_view`]
//! exposes the result to dashboards and schedulers.
//!
//! [`DirectoryService::publish_measurement`]: crate::DirectoryService::publish_measurement
//! [`DirectoryService::health_view`]: crate::DirectoryService::health_view

use adaptcomm_model::units::Millis;
use adaptcomm_obs::{Cusum, CusumConfig, DriftDirection, HealthState, LinkHealth};

/// CUSUM tuning for bandwidth log-ratios, in absolute ln-units (the
/// reference is fixed at mean 0, σ 1): a sustained halving of bandwidth
/// (|ln 0.5| ≈ 0.69) fires on the first sample, a sustained −15 %
/// (≈ 0.16) within ~5 samples, while ±5 % wobble never accumulates.
const BW_CUSUM: CusumConfig = CusumConfig {
    drift: 0.05,
    threshold: 0.5,
};

/// One tracked directed link.
struct LinkEntry {
    src: usize,
    dst: usize,
    /// Bandwidth of the link's first published measurement — the level
    /// the detector judges later samples against.
    baseline_kbps: f64,
    cusum: Cusum,
    health: LinkHealth,
    last_bandwidth_kbps: f64,
    last_startup_ms: f64,
    updated_at: Millis,
}

/// Point-in-time health of one directed link, as reported by
/// [`HealthView`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStatus {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Hysteresis-guarded verdict.
    pub state: HealthState,
    /// Smoothed badness in `[0, 1]` (EWMA of detector alarms).
    pub score: f64,
    /// Most recently published bandwidth.
    pub bandwidth_kbps: f64,
    /// Most recently published startup cost.
    pub startup_ms: f64,
    /// Directory time of the last measurement for this link.
    pub updated_at_ms: f64,
    /// True while the link is quarantined by the trust layer: its
    /// published estimates disagreed with realized transfer times, so
    /// its claims are excluded from replanning until released. A
    /// quarantined link always reports [`HealthState::Dead`].
    pub quarantined: bool,
}

/// A frozen copy of every measured link's health, worst links first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthView {
    /// Per-link statuses, ordered worst state first, then by `(src,
    /// dst)`.
    pub links: Vec<LinkStatus>,
}

impl HealthView {
    /// Looks up one directed link.
    pub fn link(&self, src: usize, dst: usize) -> Option<&LinkStatus> {
        self.links.iter().find(|l| l.src == src && l.dst == dst)
    }
}

/// Accumulates per-link measurements into health verdicts.
///
/// Links appear on first measurement; a link nobody publishes for is
/// simply absent from the view (the directory cannot vouch for what it
/// never measured).
#[derive(Default)]
pub struct HealthMonitor {
    links: Vec<LinkEntry>,
}

impl HealthMonitor {
    /// A monitor with no links tracked yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one validated measurement. The first measurement of a link
    /// sets its baseline; later ones are judged as
    /// `ln(bandwidth / baseline)` by the link's CUSUM. A detected *drop*
    /// counts as an alarm; a detected sustained *improvement* quietly
    /// re-baselines the link (faster-than-modeled is the new normal, not
    /// a fault).
    pub fn observe(
        &mut self,
        src: usize,
        dst: usize,
        startup_ms: f64,
        bandwidth_kbps: f64,
        now: Millis,
    ) {
        let entry = match self.links.iter_mut().find(|l| l.src == src && l.dst == dst) {
            Some(e) => e,
            None => {
                self.links.push(LinkEntry {
                    src,
                    dst,
                    baseline_kbps: bandwidth_kbps,
                    cusum: Cusum::with_reference(BW_CUSUM, 0.0, 1.0),
                    health: LinkHealth::default(),
                    last_bandwidth_kbps: bandwidth_kbps,
                    last_startup_ms: startup_ms,
                    updated_at: now,
                });
                return;
            }
        };
        entry.last_bandwidth_kbps = bandwidth_kbps;
        entry.last_startup_ms = startup_ms;
        entry.updated_at = now;
        let x = (bandwidth_kbps / entry.baseline_kbps).ln();
        let alarmed = match entry.cusum.update(x) {
            Some(DriftDirection::Down) => true,
            Some(DriftDirection::Up) => {
                entry.baseline_kbps = bandwidth_kbps;
                false
            }
            None => false,
        };
        entry.health.observe(alarmed);
    }

    /// Quarantines a directed link: the trust layer caught its published
    /// estimates disagreeing with realized transfer times. The link is
    /// created if it was never measured (a liar may be caught on its
    /// very first publish). `startup_ms` / `bandwidth_kbps` record the
    /// *realized* fit that contradicted the claim.
    pub fn quarantine(
        &mut self,
        src: usize,
        dst: usize,
        startup_ms: f64,
        bandwidth_kbps: f64,
        now: Millis,
    ) {
        let entry = match self.links.iter_mut().find(|l| l.src == src && l.dst == dst) {
            Some(e) => e,
            None => {
                self.links.push(LinkEntry {
                    src,
                    dst,
                    baseline_kbps: bandwidth_kbps,
                    cusum: Cusum::with_reference(BW_CUSUM, 0.0, 1.0),
                    health: LinkHealth::default(),
                    last_bandwidth_kbps: bandwidth_kbps,
                    last_startup_ms: startup_ms,
                    updated_at: now,
                });
                self.links.last_mut().expect("just pushed")
            }
        };
        entry.updated_at = now;
        entry.health.quarantine();
    }

    /// True if the directed link is currently quarantined.
    pub fn is_quarantined(&self, src: usize, dst: usize) -> bool {
        self.links
            .iter()
            .any(|l| l.src == src && l.dst == dst && l.health.quarantined())
    }

    /// All currently quarantined links, ordered by `(src, dst)`.
    pub fn quarantined(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self
            .links
            .iter()
            .filter(|l| l.health.quarantined())
            .map(|l| (l.src, l.dst))
            .collect();
        out.sort_unstable();
        out
    }

    /// The current per-link verdicts, worst state first.
    pub fn view(&self) -> HealthView {
        let mut links: Vec<LinkStatus> = self
            .links
            .iter()
            .map(|l| LinkStatus {
                src: l.src,
                dst: l.dst,
                state: l.health.state(),
                score: l.health.score(),
                bandwidth_kbps: l.last_bandwidth_kbps,
                startup_ms: l.last_startup_ms,
                updated_at_ms: l.updated_at.as_ms(),
                quarantined: l.health.quarantined(),
            })
            .collect();
        links.sort_by(|a, b| {
            a.state
                .cmp(&b.state)
                .then_with(|| (a.src, a.dst).cmp(&(b.src, b.dst)))
        });
        HealthView { links }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut HealthMonitor, bw: f64, t: f64) {
        m.observe(0, 1, 1.0, bw, Millis::new(t));
    }

    #[test]
    fn steady_link_stays_healthy() {
        let mut m = HealthMonitor::new();
        for i in 0..50 {
            // ±4 % wobble around the baseline.
            let bw = 1000.0 * if i % 2 == 0 { 1.04 } else { 0.96 };
            feed(&mut m, bw, i as f64);
        }
        let view = m.view();
        let link = view.link(0, 1).unwrap();
        assert_eq!(link.state, HealthState::Healthy);
        assert_eq!(link.bandwidth_kbps, 960.0);
    }

    #[test]
    fn collapsed_link_degrades_then_dies() {
        let mut m = HealthMonitor::new();
        for i in 0..5 {
            feed(&mut m, 1000.0, i as f64);
        }
        for i in 5..12 {
            feed(&mut m, 200.0, i as f64); // sustained 5× collapse
        }
        let view = m.view();
        let link = view.link(0, 1).unwrap();
        assert_eq!(link.state, HealthState::Dead);
        assert!(link.score > 0.5);
        assert_eq!(link.bandwidth_kbps, 200.0);
    }

    #[test]
    fn improvement_rebaselines_instead_of_alarming() {
        let mut m = HealthMonitor::new();
        for i in 0..5 {
            feed(&mut m, 1000.0, i as f64);
        }
        for i in 5..20 {
            feed(&mut m, 4000.0, i as f64); // link got 4× faster
        }
        assert_eq!(m.view().link(0, 1).unwrap().state, HealthState::Healthy);
        // After re-baselining, a fall back to the *original* level is a
        // drop relative to the new normal.
        for i in 20..30 {
            feed(&mut m, 1000.0, i as f64);
        }
        assert_ne!(m.view().link(0, 1).unwrap().state, HealthState::Healthy);
    }

    #[test]
    fn quarantine_creates_the_link_and_pins_it_dead() {
        let mut m = HealthMonitor::new();
        assert!(!m.is_quarantined(0, 1));
        m.quarantine(0, 1, 2.0, 300.0, Millis::new(5.0));
        assert!(m.is_quarantined(0, 1));
        assert_eq!(m.quarantined(), vec![(0, 1)]);
        let view = m.view();
        let link = view.link(0, 1).unwrap();
        assert!(link.quarantined);
        assert_eq!(link.state, HealthState::Dead);
        assert_eq!(link.bandwidth_kbps, 300.0);
        // Clean measurements do not lift a quarantine.
        for i in 0..10 {
            m.observe(0, 1, 2.0, 300.0, Millis::new(6.0 + i as f64));
        }
        assert!(m.is_quarantined(0, 1));
    }

    #[test]
    fn quarantined_link_reports_max_badness_not_its_healthy_history() {
        let mut m = HealthMonitor::new();
        // A long, clean history: the link's smoothed badness is ~0.
        for i in 0..50 {
            feed(&mut m, 1000.0, i as f64);
        }
        let before = m.view();
        let link = before.link(0, 1).unwrap();
        assert_eq!(link.state, HealthState::Healthy);
        assert!(link.score < 0.01);
        // The trust cross-check catches it lying: the aggregated view
        // must show the verdict (Dead, maximum badness), not the last
        // healthy score the detector had smoothed to.
        m.quarantine(0, 1, 1.0, 1000.0, Millis::new(50.0));
        let after = m.view();
        let link = after.link(0, 1).unwrap();
        assert!(link.quarantined);
        assert_eq!(link.state, HealthState::Dead);
        assert_eq!(link.score, 1.0);
        // And it sorts ahead of genuinely healthy links, worst first.
        m.observe(2, 3, 1.0, 500.0, Millis::new(51.0));
        let view = m.view();
        assert_eq!((view.links[0].src, view.links[0].dst), (0, 1));
    }

    #[test]
    fn view_orders_worst_first_and_tracks_timestamps() {
        let mut m = HealthMonitor::new();
        m.observe(2, 3, 1.0, 500.0, Millis::new(0.0));
        for i in 0..10 {
            m.observe(2, 3, 1.0, 500.0, Millis::new(i as f64));
            m.observe(
                1,
                0,
                1.0,
                if i == 0 { 800.0 } else { 40.0 },
                Millis::new(i as f64),
            );
        }
        let view = m.view();
        assert_eq!(view.links.len(), 2);
        assert_eq!(
            (view.links[0].src, view.links[0].dst),
            (1, 0),
            "worst first"
        );
        assert_eq!(view.links[0].state, HealthState::Dead);
        assert_eq!(view.links[1].state, HealthState::Healthy);
        assert_eq!(view.links[1].updated_at_ms, 9.0);
        assert!(view.link(9, 9).is_none());
    }
}
