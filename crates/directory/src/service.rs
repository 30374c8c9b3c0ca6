//! The directory service: publish and query.
//!
//! Mirrors the role of Globus MDS in the paper's framework: applications
//! query it at run time for "current information on start-up costs and
//! end-to-end bandwidths between every pair of processors", then hand the
//! result to a scheduling algorithm. The service is thread-safe
//! (schedulers on worker threads, a load injector elsewhere) and can be
//! driven either by explicit [`DirectoryService::publish`] calls or by an
//! attached [`VariationTrace`] that evolves the network whenever the
//! simulated clock advances.

use crate::snapshot::DirectorySnapshot;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::evolution::NetworkEvolution;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::Millis;
use adaptcomm_model::variation::VariationTrace;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

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
    /// Directed links the trust layer caught lying, `(src, dst)`.
    quarantined: BTreeSet<(usize, usize)>,
    /// Snapshots installed (trace advances, publishes, measurements).
    publishes: u64,
    /// Snapshot queries.
    queries: u64,
}

impl Inner {
    /// Installs `params` as the current snapshot, stamped `taken_at`,
    /// bumping the sequence.
    fn install(&mut self, params: NetParams, taken_at: Millis) {
        let seq = self.current.sequence() + 1;
        self.current = DirectorySnapshot::new(params, taken_at, seq);
        self.publishes += 1;
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
                quarantined: BTreeSet::new(),
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

    /// Number of processors covered.
    pub fn processors(&self) -> usize {
        self.lock().current.params().len()
    }

    /// Advances the simulated clock. With an attached trace, a new
    /// snapshot is generated and published.
    pub fn advance_clock(&self, now: Millis) {
        let mut inner = self.lock();
        if now.as_ms() <= inner.clock.as_ms() {
            return; // the clock never goes backwards
        }
        inner.clock = now;
        if let Some(trace) = inner.trace.as_mut() {
            let params = trace.table_at(now);
            inner.install(params, now);
        }
    }

    /// Publishes an externally measured table at the current clock.
    ///
    /// This does **not** advance the clock, so the new snapshot carries
    /// the time of the last [`DirectoryService::advance_clock`] call. A
    /// live measurement source (e.g. a runtime prober) should use
    /// [`DirectoryService::publish_measurement`] instead, which stamps
    /// the snapshot with the measurement time.
    pub fn publish(&self, params: NetParams) {
        let mut inner = self.lock();
        let taken_at = inner.clock;
        inner.install(params, taken_at);
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
        inner.install(params, taken_at);
        Ok(())
    }

    /// Quarantines a directed link for good: the trust layer caught its
    /// published estimates disagreeing with realized transfer times. A
    /// link need not have been measured first (a liar may be caught on
    /// its very first publish), and later clean measurements do not lift
    /// it. Returns true when the link was not quarantined before.
    pub fn quarantine_link(&self, src: usize, dst: usize) -> bool {
        self.lock().quarantined.insert((src, dst))
    }

    /// True if the directed link is currently quarantined.
    pub fn is_quarantined(&self, src: usize, dst: usize) -> bool {
        self.lock().quarantined.contains(&(src, dst))
    }

    /// All currently quarantined links, ordered by `(src, dst)`.
    pub fn quarantined_links(&self) -> Vec<(usize, usize)> {
        self.lock().quarantined.iter().copied().collect()
    }

    /// The freshest snapshot.
    pub fn snapshot(&self) -> DirectorySnapshot {
        let mut inner = self.lock();
        inner.queries += 1;
        inner.current.clone()
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
        assert_eq!(d.snapshot().estimate(1, 3).startup.as_ms(), 10.0);
        assert_eq!(d.stats(), (0, 1));
    }

    #[test]
    fn publish_bumps_sequence() {
        let d = DirectoryService::new(params());
        let mut updated = params();
        updated.scale_bandwidth(0, 1, 0.5);
        d.publish(updated.clone());
        let got = d.snapshot();
        assert_eq!(got.sequence(), 1);
        assert_eq!(got.params(), &updated);
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
        // Nothing was installed by any rejected publish.
        assert_eq!(d.snapshot().sequence(), 0);
    }

    #[test]
    fn quarantine_holds_a_link_never_measured_and_survives_clean_publishes() {
        let d = DirectoryService::new(params());
        assert!(!d.is_quarantined(0, 1));
        // Caught on its very first publish: nothing was measured yet.
        assert!(d.quarantine_link(0, 1));
        assert!(d.is_quarantined(0, 1));
        assert_eq!(d.quarantined_links(), vec![(0, 1)]);
        assert!(!d.quarantine_link(0, 1), "already quarantined");
        // Clean measurements do not lift a quarantine.
        for i in 0..10 {
            let t = Millis::new(6.0 + i as f64);
            d.publish_measurement(0, 1, 2.0, 300.0, t).unwrap();
        }
        assert!(d.is_quarantined(0, 1));
        assert!(!d.is_quarantined(1, 0), "quarantine is per directed link");
    }

    #[test]
    fn a_link_with_a_clean_history_is_quarantined_and_listed_in_order() {
        let d = DirectoryService::new(params());
        // A long, clean history earns a link no credit against the
        // trust cross-check's verdict.
        for i in 0..50 {
            d.publish_measurement(2, 3, 10.0, 500.0, Millis::new(i as f64))
                .unwrap();
        }
        assert!(d.quarantined_links().is_empty());
        d.quarantine_link(2, 3);
        d.quarantine_link(0, 1);
        assert!(d.is_quarantined(2, 3));
        assert_eq!(d.quarantined_links(), vec![(0, 1), (2, 3)]);
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
                    let _ = d.snapshot().estimate(0, 1);
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
}
