//! The directory service: publish, query, subscribe.
//!
//! Mirrors the role of Globus MDS in the paper's framework: applications
//! query it at run time for "current information on start-up costs and
//! end-to-end bandwidths between every pair of processors", then hand the
//! result to a scheduling algorithm. The service is thread-safe
//! (schedulers on worker threads, a load injector elsewhere) and can be
//! driven either by explicit [`DirectoryService::publish`] calls or by an
//! attached [`VariationTrace`] that evolves the network whenever the
//! simulated clock advances.

use crate::health::{HealthMonitor, HealthView};
use crate::snapshot::DirectorySnapshot;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::evolution::NetworkEvolution;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::Millis;
use adaptcomm_model::variation::VariationTrace;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Errors a directory query can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The requested processor index exceeds the system size.
    UnknownProcessor {
        /// The offending index.
        index: usize,
        /// The number of processors the directory covers.
        size: usize,
    },
    /// The freshest available snapshot is older than the caller's
    /// staleness budget.
    Stale {
        /// Age of the best snapshot.
        age: Millis,
        /// The caller's budget.
        budget: Millis,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownProcessor { index, size } => {
                write!(
                    f,
                    "processor {index} out of range (directory covers {size})"
                )
            }
            QueryError::Stale { age, budget } => {
                write!(f, "snapshot is {age} old, budget was {budget}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Errors a live publish can produce.
///
/// A runtime prober feeding observed link performance back into the
/// directory must not be able to poison the table: non-finite or
/// non-positive measurements are rejected at this API boundary instead
/// of propagating into every scheduler that later queries the snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum PublishError {
    /// The measurement references a processor the directory does not
    /// cover.
    UnknownProcessor {
        /// The offending index.
        index: usize,
        /// The number of processors the directory covers.
        size: usize,
    },
    /// A startup or bandwidth value is NaN, infinite, or out of domain
    /// (negative startup, non-positive bandwidth).
    NonFiniteMeasurement {
        /// The directed pair the bad value was reported for.
        src: usize,
        /// The directed pair the bad value was reported for.
        dst: usize,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// The published table covers a different number of processors than
    /// the directory.
    SizeMismatch {
        /// Size of the published table.
        published: usize,
        /// Size the directory covers.
        size: usize,
    },
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::UnknownProcessor { index, size } => {
                write!(
                    f,
                    "processor {index} out of range (directory covers {size})"
                )
            }
            PublishError::NonFiniteMeasurement { src, dst, detail } => {
                write!(f, "measurement for {src} -> {dst} rejected: {detail}")
            }
            PublishError::SizeMismatch { published, size } => {
                write!(
                    f,
                    "published table covers {published} processors, directory covers {size}"
                )
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// Validates one raw measurement for publication.
fn check_measurement(
    src: usize,
    dst: usize,
    startup_ms: f64,
    bandwidth_kbps: f64,
) -> Result<(), PublishError> {
    if !startup_ms.is_finite() || startup_ms < 0.0 {
        return Err(PublishError::NonFiniteMeasurement {
            src,
            dst,
            detail: format!("startup {startup_ms} ms must be finite and non-negative"),
        });
    }
    if !bandwidth_kbps.is_finite() || bandwidth_kbps <= 0.0 {
        return Err(PublishError::NonFiniteMeasurement {
            src,
            dst,
            detail: format!("bandwidth {bandwidth_kbps} kbit/s must be finite and positive"),
        });
    }
    Ok(())
}

struct Inner {
    current: DirectorySnapshot,
    clock: Millis,
    trace: Option<VariationTrace>,
    /// Minimum age the current snapshot must reach before an attached
    /// trace publishes a replacement. `None` republishes on every clock
    /// advance (a directory that measures continuously).
    publish_interval: Option<Millis>,
    subscribers: Vec<Sender<DirectorySnapshot>>,
    health: HealthMonitor,
    /// Snapshots installed (trace advances, publishes, measurements).
    publishes: u64,
    /// All queries (`snapshot`, `snapshot_fresh`, `query_pair`).
    queries: u64,
}

impl Inner {
    /// Installs `params` as the current snapshot, stamped `taken_at`,
    /// bumping the sequence and notifying subscribers.
    fn install(&mut self, params: NetParams, taken_at: Millis) {
        let seq = self.current.sequence() + 1;
        let snap = DirectorySnapshot::new(params, taken_at, seq);
        self.current = snap.clone();
        self.publishes += 1;
        let obs = adaptcomm_obs::global();
        if obs.is_enabled() {
            obs.add("directory.publish", 1);
        }
        self.subscribers.retain(|tx| tx.send(snap.clone()).is_ok());
    }
}

/// A thread-safe, time-aware directory of network performance.
pub struct DirectoryService {
    inner: Mutex<Inner>,
}

impl DirectoryService {
    /// Creates a directory holding a static initial table at time zero.
    pub fn new(initial: NetParams) -> Self {
        let snapshot = DirectorySnapshot::new(initial, Millis::ZERO, 0);
        DirectoryService {
            inner: Mutex::new(Inner {
                current: snapshot,
                clock: Millis::ZERO,
                trace: None,
                publish_interval: None,
                subscribers: Vec::new(),
                health: HealthMonitor::new(),
                publishes: 0,
                queries: 0,
            }),
        }
    }

    /// Poison-tolerant: every update leaves `Inner` valid at each step,
    /// so a holder that panicked is no reason to stop serving.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a directory whose contents drift according to `trace`
    /// whenever the clock advances.
    pub fn with_trace(trace: VariationTrace) -> Self {
        let svc = Self::new(trace.base().clone());
        svc.lock().trace = Some(trace);
        svc
    }

    /// Like [`DirectoryService::with_trace`], but the trace publishes a
    /// new snapshot only once the current one is at least `interval` old
    /// — the MDS model where a monitor remeasures periodically, so
    /// queries between publishes can fail a tight staleness budget
    /// ([`QueryError::Stale`]).
    pub fn with_trace_every(trace: VariationTrace, interval: Millis) -> Self {
        let svc = Self::with_trace(trace);
        svc.lock().publish_interval = Some(interval);
        svc
    }

    /// Number of processors covered.
    pub fn processors(&self) -> usize {
        self.lock().current.params().len()
    }

    /// Advances the simulated clock. With an attached trace, a new
    /// snapshot is generated and published to subscribers — immediately,
    /// or (with [`DirectoryService::with_trace_every`]) only once the
    /// current snapshot has aged past the publish interval.
    pub fn advance_clock(&self, now: Millis) {
        let mut inner = self.lock();
        if now.as_ms() <= inner.clock.as_ms() {
            return; // the clock never goes backwards
        }
        inner.clock = now;
        if inner.trace.is_none() {
            return;
        }
        if let Some(interval) = inner.publish_interval {
            if inner.current.age_at(now).as_ms() < interval.as_ms() {
                return; // not due for remeasurement yet
            }
        }
        let params = inner.trace.as_mut().expect("checked above").table_at(now);
        inner.install(params, now);
    }

    /// Publishes an externally measured table at the current clock.
    ///
    /// This does **not** advance the clock, so the new snapshot carries
    /// the time of the last [`DirectoryService::advance_clock`] call. A
    /// live measurement source (e.g. a runtime prober) should use
    /// [`DirectoryService::publish_at`] instead, which stamps the
    /// snapshot with the measurement time so staleness budgets see the
    /// refreshed epoch.
    pub fn publish(&self, params: NetParams) {
        let mut inner = self.lock();
        let taken_at = inner.clock;
        inner.install(params, taken_at);
    }

    /// Publishes a live-measured table observed at time `now`, advancing
    /// the directory clock to `now` (monotonically) and stamping the
    /// snapshot epoch there.
    ///
    /// This is the runtime feedback path: before this API existed, only
    /// trace-driven publishing ([`DirectoryService::with_trace_every`] via
    /// [`DirectoryService::advance_clock`]) refreshed the snapshot epoch,
    /// so estimates published by a live prober were immediately judged
    /// stale against a tight budget even though they were the freshest
    /// data in the system. Every estimate is validated; non-finite
    /// measurements are rejected wholesale.
    pub fn publish_at(&self, now: Millis, params: NetParams) -> Result<(), PublishError> {
        let mut inner = self.lock();
        let size = inner.current.params().len();
        if params.len() != size {
            return Err(PublishError::SizeMismatch {
                published: params.len(),
                size,
            });
        }
        for (src, dst, e) in params.pairs() {
            check_measurement(src, dst, e.startup.as_ms(), e.bandwidth.as_kbps())?;
        }
        if now.as_ms() > inner.clock.as_ms() {
            inner.clock = now;
        }
        let taken_at = inner.clock;
        inner.install(params, taken_at);
        Ok(())
    }

    /// Publishes a single live link measurement observed at time `now`:
    /// the current table is updated in place for `(src, dst)` and
    /// republished with a fresh epoch (clock advanced to `now`).
    ///
    /// Takes the *raw* measured values, because this is the API boundary
    /// where a misbehaving prober (a `0/0` fit, an overflowed division)
    /// must be stopped: non-finite or non-positive measurements are
    /// rejected with [`PublishError::NonFiniteMeasurement`] instead of
    /// panicking inside the unit constructors or poisoning the table.
    pub fn publish_measurement(
        &self,
        src: usize,
        dst: usize,
        startup_ms: f64,
        bandwidth_kbps: f64,
        now: Millis,
    ) -> Result<(), PublishError> {
        check_measurement(src, dst, startup_ms, bandwidth_kbps)?;
        let estimate = LinkEstimate::new(
            Millis::new(startup_ms),
            adaptcomm_model::units::Bandwidth::from_kbps(bandwidth_kbps),
        );
        let mut inner = self.lock();
        let size = inner.current.params().len();
        if src >= size {
            return Err(PublishError::UnknownProcessor { index: src, size });
        }
        if dst >= size {
            return Err(PublishError::UnknownProcessor { index: dst, size });
        }
        let mut params = inner.current.params().clone();
        params.set_estimate(src, dst, estimate);
        if now.as_ms() > inner.clock.as_ms() {
            inner.clock = now;
        }
        let taken_at = inner.clock;
        inner
            .health
            .observe(src, dst, startup_ms, bandwidth_kbps, now);
        inner.install(params, taken_at);
        Ok(())
    }

    /// Per-link health over everything fed through
    /// [`DirectoryService::publish_measurement`]: a CUSUM on each link's
    /// bandwidth log-ratio plus hysteresis (see [`crate::health`]).
    /// Links never measured individually are absent — the directory only
    /// vouches for what it has observed.
    pub fn health_view(&self) -> HealthView {
        self.lock().health.view()
    }

    /// Quarantines a directed link (see [`HealthMonitor::quarantine`]):
    /// the trust layer caught the link's published estimates disagreeing
    /// with realized transfer times. `startup_ms` / `bandwidth_kbps`
    /// record the realized fit that contradicted the claim. Quarantined
    /// links report [`adaptcomm_obs::HealthState::Dead`] in the health
    /// view and stay so until the trust layer releases them; the obs
    /// counter `directory.quarantine` tracks impositions.
    pub fn quarantine_link(
        &self,
        src: usize,
        dst: usize,
        startup_ms: f64,
        bandwidth_kbps: f64,
        now: Millis,
    ) {
        let mut inner = self.lock();
        inner
            .health
            .quarantine(src, dst, startup_ms, bandwidth_kbps, now);
        let obs = adaptcomm_obs::global();
        if obs.is_enabled() {
            obs.add("directory.quarantine", 1);
        }
    }

    /// True if the directed link is currently quarantined.
    pub fn is_quarantined(&self, src: usize, dst: usize) -> bool {
        self.lock().health.is_quarantined(src, dst)
    }

    /// All currently quarantined links, ordered by `(src, dst)`.
    pub fn quarantined_links(&self) -> Vec<(usize, usize)> {
        self.lock().health.quarantined()
    }

    /// The freshest snapshot.
    pub fn snapshot(&self) -> DirectorySnapshot {
        let mut inner = self.lock();
        inner.queries += 1;
        inner.current.clone()
    }

    /// The freshest snapshot, but only if no older than `budget`.
    pub fn snapshot_fresh(&self, budget: Millis) -> Result<DirectorySnapshot, QueryError> {
        let mut inner = self.lock();
        inner.queries += 1;
        let age = inner.current.age_at(inner.clock);
        let obs = adaptcomm_obs::global();
        if obs.is_enabled() {
            obs.gauge_set("directory.epoch_age_ms", age.as_ms());
        }
        if age.as_ms() > budget.as_ms() {
            if obs.is_enabled() {
                obs.add("directory.query.stale", 1);
            }
            return Err(QueryError::Stale { age, budget });
        }
        if obs.is_enabled() {
            obs.add("directory.query.fresh", 1);
        }
        Ok(inner.current.clone())
    }

    /// Point query for one directed pair (the MDS-style API).
    pub fn query_pair(&self, src: usize, dst: usize) -> Result<LinkEstimate, QueryError> {
        let mut inner = self.lock();
        inner.queries += 1;
        let size = inner.current.params().len();
        if src >= size {
            return Err(QueryError::UnknownProcessor { index: src, size });
        }
        if dst >= size {
            return Err(QueryError::UnknownProcessor { index: dst, size });
        }
        Ok(inner.current.estimate(src, dst))
    }

    /// Subscribes to future publishes. The receiver sees every snapshot
    /// published after this call.
    pub fn subscribe(&self) -> Receiver<DirectorySnapshot> {
        let (tx, rx) = channel();
        self.lock().subscribers.push(tx);
        rx
    }

    /// `(publishes, queries)` counters — useful for asserting how often a
    /// scheduling strategy consults the directory.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.publishes, inner.queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_model::units::Bandwidth;
    use adaptcomm_model::variation::VariationConfig;

    fn params() -> NetParams {
        NetParams::uniform(4, Millis::new(10.0), Bandwidth::from_kbps(500.0))
    }

    #[test]
    fn static_directory_answers_queries() {
        let d = DirectoryService::new(params());
        assert_eq!(d.processors(), 4);
        let e = d.query_pair(1, 3).unwrap();
        assert_eq!(e.startup.as_ms(), 10.0);
        assert_eq!(
            d.query_pair(9, 0),
            Err(QueryError::UnknownProcessor { index: 9, size: 4 })
        );
        let (p, q) = d.stats();
        assert_eq!(p, 0);
        assert_eq!(q, 2);
    }

    #[test]
    fn publish_bumps_sequence_and_notifies_subscribers() {
        let d = DirectoryService::new(params());
        let rx = d.subscribe();
        let mut updated = params();
        updated.scale_bandwidth(0, 1, 0.5);
        d.publish(updated.clone());
        let got = rx.try_recv().expect("subscriber must see the publish");
        assert_eq!(got.sequence(), 1);
        assert_eq!(got.params(), &updated);
        assert_eq!(d.snapshot().sequence(), 1);
    }

    #[test]
    fn trace_driven_directory_drifts_with_clock() {
        let trace = VariationTrace::new(params(), VariationConfig::default(), 7);
        let d = DirectoryService::with_trace(trace);
        let before = d.snapshot();
        d.advance_clock(Millis::new(10_000.0));
        let after = d.snapshot();
        assert!(after.sequence() > before.sequence());
        assert_ne!(
            after.params(),
            before.params(),
            "10s of drift must move something"
        );
        assert_eq!(after.taken_at().as_ms(), 10_000.0);
    }

    #[test]
    fn clock_never_rewinds() {
        let trace = VariationTrace::new(params(), VariationConfig::default(), 3);
        let d = DirectoryService::with_trace(trace);
        d.advance_clock(Millis::new(5_000.0));
        let at5 = d.snapshot();
        d.advance_clock(Millis::new(1_000.0)); // ignored
        assert_eq!(d.snapshot().sequence(), at5.sequence());
    }

    #[test]
    fn staleness_budget_enforced() {
        let d = DirectoryService::new(params());
        // Advance the clock without a trace: the snapshot ages.
        d.advance_clock(Millis::new(2_000.0));
        assert!(d.snapshot_fresh(Millis::new(5_000.0)).is_ok());
        match d.snapshot_fresh(Millis::new(500.0)) {
            Err(QueryError::Stale { age, budget }) => {
                assert_eq!(age.as_ms(), 2_000.0);
                assert_eq!(budget.as_ms(), 500.0);
            }
            other => panic!("expected staleness error, got {other:?}"),
        }
    }

    #[test]
    fn trace_advance_between_publishes_triggers_stale_rejection() {
        // A periodically remeasuring directory: the trace republishes only
        // every 5 s, so a query 2 s after the last snapshot with a 500 ms
        // budget must be rejected as stale.
        let trace = VariationTrace::new(params(), VariationConfig::default(), 11);
        let d = DirectoryService::with_trace_every(trace, Millis::new(5_000.0));
        d.advance_clock(Millis::new(2_000.0));
        assert_eq!(d.snapshot().sequence(), 0, "trace must not republish yet");
        match d.snapshot_fresh(Millis::new(500.0)) {
            Err(QueryError::Stale { age, budget }) => {
                assert_eq!(age.as_ms(), 2_000.0);
                assert_eq!(budget.as_ms(), 500.0);
            }
            other => panic!("expected staleness rejection, got {other:?}"),
        }
        // A budget covering the age still succeeds.
        assert!(d.snapshot_fresh(Millis::new(2_000.0)).is_ok());
        // Once the interval elapses the trace remeasures and queries pass.
        d.advance_clock(Millis::new(5_000.0));
        let snap = d
            .snapshot_fresh(Millis::new(500.0))
            .expect("fresh right after the trace republished");
        assert_eq!(snap.sequence(), 1);
        assert_eq!(snap.taken_at().as_ms(), 5_000.0);
    }

    #[test]
    fn stale_fresh_publish_counters_track_the_staleness_scenario() {
        // Same periodic-remeasurement scenario as above, now asserting
        // the service-level counters stay in lockstep with the outcomes.
        let trace = VariationTrace::new(params(), VariationConfig::default(), 11);
        let d = DirectoryService::with_trace_every(trace, Millis::new(5_000.0));
        assert_eq!(d.stats(), (0, 0));

        d.advance_clock(Millis::new(2_000.0));
        assert!(d.snapshot_fresh(Millis::new(500.0)).is_err()); // stale
        assert!(d.snapshot_fresh(Millis::new(2_000.0)).is_ok()); // fresh
        d.advance_clock(Millis::new(5_000.0)); // trace republishes
        assert!(d.snapshot_fresh(Millis::new(500.0)).is_ok()); // fresh
        assert_eq!(d.stats(), (1, 3), "one trace-driven republish");
        // Unbudgeted reads count as queries too.
        d.snapshot();
        assert_eq!(d.stats(), (1, 4));
    }

    #[test]
    fn publish_restores_freshness_after_stale_rejection() {
        let trace = VariationTrace::new(params(), VariationConfig::default(), 13);
        let d = DirectoryService::with_trace_every(trace, Millis::new(60_000.0));
        d.advance_clock(Millis::new(3_000.0));
        assert!(matches!(
            d.snapshot_fresh(Millis::new(1_000.0)),
            Err(QueryError::Stale { .. })
        ));
        // An external measurement published at the current clock makes
        // the same query succeed.
        let mut measured = params();
        measured.scale_bandwidth(0, 1, 2.0);
        d.publish(measured.clone());
        let snap = d
            .snapshot_fresh(Millis::new(1_000.0))
            .expect("fresh after publish");
        assert_eq!(snap.params(), &measured);
        assert_eq!(snap.taken_at().as_ms(), 3_000.0);
        assert_eq!(snap.sequence(), 1);
    }

    #[test]
    fn publish_at_refreshes_the_snapshot_epoch() {
        // A live prober publishing at wall/run time must make a tight
        // staleness budget pass again — the fix over plain `publish`,
        // which stamps the (stale) clock of the last advance_clock call.
        let d = DirectoryService::new(params());
        d.advance_clock(Millis::new(10_000.0));
        assert!(matches!(
            d.snapshot_fresh(Millis::new(100.0)),
            Err(QueryError::Stale { .. })
        ));
        d.publish_at(Millis::new(10_000.0), params()).unwrap();
        let snap = d.snapshot_fresh(Millis::new(100.0)).expect("fresh now");
        assert_eq!(snap.taken_at().as_ms(), 10_000.0);
        assert_eq!(snap.sequence(), 1);
        // Publishing from a *later* observation also advances the clock.
        d.publish_at(Millis::new(12_000.0), params()).unwrap();
        assert_eq!(d.snapshot().taken_at().as_ms(), 12_000.0);
        assert!(d.snapshot_fresh(Millis::new(100.0)).is_ok());
    }

    #[test]
    fn publish_measurement_updates_one_pair_and_epoch() {
        let d = DirectoryService::new(params());
        d.advance_clock(Millis::new(5_000.0));
        d.publish_measurement(1, 3, 2.5, 750.0, Millis::new(5_000.0))
            .unwrap();
        let snap = d.snapshot();
        assert_eq!(snap.estimate(1, 3).bandwidth.as_kbps(), 750.0);
        assert_eq!(snap.estimate(1, 3).startup.as_ms(), 2.5);
        // Other pairs untouched.
        assert_eq!(snap.estimate(3, 1).bandwidth.as_kbps(), 500.0);
        assert_eq!(snap.taken_at().as_ms(), 5_000.0);
        assert_eq!(
            d.publish_measurement(9, 0, 2.5, 750.0, Millis::ZERO),
            Err(PublishError::UnknownProcessor { index: 9, size: 4 })
        );
    }

    #[test]
    fn non_finite_measurements_are_rejected() {
        let d = DirectoryService::new(params());
        for bad in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            assert!(
                matches!(
                    d.publish_measurement(0, 1, 1.0, bad, Millis::ZERO),
                    Err(PublishError::NonFiniteMeasurement { src: 0, dst: 1, .. })
                ),
                "bandwidth {bad} must be rejected"
            );
        }
        for bad in [f64::NAN, f64::NEG_INFINITY, -1.0] {
            assert!(
                matches!(
                    d.publish_measurement(0, 1, bad, 100.0, Millis::ZERO),
                    Err(PublishError::NonFiniteMeasurement { .. })
                ),
                "startup {bad} must be rejected"
            );
        }
        // A full-table publish with one poisoned entry is rejected whole.
        // (The struct literal bypasses `LinkEstimate::new`'s assert, the
        // way a deserialized table would.)
        let mut p = params();
        p.set_estimate(
            2,
            0,
            LinkEstimate {
                startup: Millis::new(f64::NAN),
                bandwidth: Bandwidth::from_kbps(100.0),
            },
        );
        assert!(matches!(
            d.publish_at(Millis::ZERO, p),
            Err(PublishError::NonFiniteMeasurement { src: 2, dst: 0, .. })
        ));
        // Nothing was installed by any rejected publish.
        assert_eq!(d.snapshot().sequence(), 0);
        let wrong_size = NetParams::uniform(3, Millis::new(1.0), Bandwidth::from_kbps(10.0));
        assert_eq!(
            d.publish_at(Millis::ZERO, wrong_size),
            Err(PublishError::SizeMismatch {
                published: 3,
                size: 4
            })
        );
    }

    #[test]
    fn health_view_tracks_published_measurements() {
        use adaptcomm_obs::HealthState;
        let d = DirectoryService::new(params());
        assert!(d.health_view().links.is_empty(), "nothing measured yet");
        // Steady measurements on (0,1); a collapsing link on (2,3).
        for i in 0..10 {
            let t = Millis::new(i as f64 * 100.0);
            d.publish_measurement(0, 1, 10.0, 500.0, t).unwrap();
            let bw = if i < 3 { 500.0 } else { 50.0 };
            d.publish_measurement(2, 3, 10.0, bw, t).unwrap();
        }
        let view = d.health_view();
        assert_eq!(view.links.len(), 2);
        assert_eq!(view.link(0, 1).unwrap().state, HealthState::Healthy);
        let bad = view.link(2, 3).unwrap();
        assert_eq!(bad.state, HealthState::Dead);
        assert_eq!(bad.bandwidth_kbps, 50.0);
        assert_eq!(bad.updated_at_ms, 900.0);
        // Worst link sorts first.
        assert_eq!((view.links[0].src, view.links[0].dst), (2, 3));
        // Rejected measurements never reach the monitor.
        let before = d.health_view();
        let _ = d.publish_measurement(0, 1, 1.0, f64::NAN, Millis::new(1_000.0));
        assert_eq!(d.health_view(), before);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let d = DirectoryService::new(params());
        let rx = d.subscribe();
        drop(rx);
        d.publish(params()); // must not panic, subscriber is gone
        d.publish(params());
        assert_eq!(d.snapshot().sequence(), 2);
    }

    #[test]
    fn concurrent_queries_are_safe() {
        use std::sync::Arc;
        let d = Arc::new(DirectoryService::new(params()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _ = d.query_pair(0, 1).unwrap();
                    let _ = d.snapshot();
                }
            }));
        }
        let publisher = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    d.publish(params());
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        publisher.join().unwrap();
        let (p, q) = d.stats();
        assert_eq!(p, 50);
        assert_eq!(q, 800);
    }

    #[test]
    fn error_display() {
        let e = QueryError::Stale {
            age: Millis::new(9.0),
            budget: Millis::new(1.0),
        };
        assert!(format!("{e}").contains("old"));
    }
}
