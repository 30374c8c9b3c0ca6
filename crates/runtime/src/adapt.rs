//! The closed loop: measure → schedule → execute → adapt (§6.4).
//!
//! [`CheckpointedRun`] drives the shaped engine through the paper's full
//! cycle. At every checkpoint of the configured
//! [`CheckpointPolicy`], on the calling thread, between two kernel events:
//!
//! 1. **measure** — the [`Prober`] fits live `(T_ij, B_ij)` values from
//!    the transfers completed so far and publishes them into the
//!    [`DirectoryService`], refreshing its snapshot epoch;
//! 2. **query** — a fresh snapshot is taken, now reflecting what the
//!    network actually did rather than what was assumed;
//! 3. **decide** — observed progress since the last replan is compared
//!    against the plan: [`Replanning::segment`], the one computation
//!    `adaptcomm_sim::dynamic::run_adaptive` judges by too;
//! 4. **adapt** — if the drift exceeds the [`RescheduleRule`] threshold
//!    (or the detector fires), [`Replanning::replan`] reschedules the
//!    not-yet-started messages — the simulator's decision state, so live
//!    and simulated adaptation agree by construction.
//!
//! On a typed link failure ([`RuntimeError::MessageDropped`],
//! [`RuntimeError::ProcessorCrashed`], [`RuntimeError::LinkPartitioned`])
//! the driver recovers instead of blindly retrying: it probes the live
//! network at the failure instant, floor-publishes dead links into the
//! directory, computes the reachable component over the surviving
//! links, **parks** every
//! message whose link is dead or crosses the cut, and replans only the
//! reachable remainder. After the reachable traffic drains, parked
//! links are probed with exponential backoff
//! ([`BACKOFF_BASE_MS`] × [`BACKOFF_FACTOR`]^k) until they heal —
//! then the parked traffic is merged back and replanned — or until the
//! probe budget ([`AdaptSettings::max_attempts`]) is exhausted. Each
//! fault becomes a [`RecoveryEvent`] in the [`AdaptReport`], with the
//! measured recovery time backfilled from the record that finally
//! crossed the healed link.

use crate::channel::{run_shaped, CheckpointAction, FaultPolicy, ShapedConfig, ShapedOutcome};
use crate::error::RuntimeError;
use crate::prober::{MeasurementTamper, Prober};
use crate::transport::Transport;
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_directory::DirectoryService;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bytes, Millis};
use adaptcomm_obs::{Cusum, CusumConfig};
use adaptcomm_sim::dynamic::{openshop_replan, Replanner, Replanning};
use adaptcomm_sim::executor::{SimRun, TransferRecord};
use adaptcomm_sim::NetworkEvolution;

/// Per-link CUSUM for [`ReplanTrigger::Detector`], in absolute log-ratio
/// units (each transfer is standardized as `ln(observed / planned)`
/// against a fixed `(0, 1)` reference). The allowance `k = 0.1` ignores
/// sustained deviations under ~10 %; the threshold `h = 0.25` lets one
/// grossly late transfer (≥ ~42 % over plan) fire on its own while mild
/// drift needs several.
const LINK_CUSUM: CusumConfig = CusumConfig {
    drift: 0.1,
    threshold: 0.25,
};

/// CUSUM tuning for the detector trigger's aggregate schedule-slip
/// signal `ln(seg_obs / seg_plan)`. Calibrated so that
/// `drift + threshold < ln(1.15)`: any single checkpoint deviant enough
/// to trip the *default* [`RescheduleRule`] (15 %) contributes
/// `|x| - drift > threshold` on its own and fires this CUSUM too, while
/// persistent sub-threshold slip accumulates — so the detector trigger
/// reacts no later than the default deviation rule, and on slow-burn
/// drift earlier.
const SLIP_CUSUM: CusumConfig = CusumConfig {
    drift: 0.05,
    threshold: 0.085,
};

/// How the checkpoint loop decides a replan is worth it.
#[derive(Debug, Clone, Copy)]
pub enum ReplanTrigger {
    /// Segment-relative deviation of observed vs planned progress — the
    /// simulator's rule, blind to *which* link drifted.
    Deviation(RescheduleRule),
    /// Statistically grounded change detection on two signals: a
    /// per-link two-sided CUSUM on each completed transfer's
    /// `ln(observed / planned)` duration ratio (so one misbehaving link
    /// is caught even while aggregate progress still looks fine), plus a
    /// [`SLIP_CUSUM`] on the same segment-relative progress ratio the
    /// deviation rule thresholds. Planned durations come from the
    /// directory snapshot the current plan was built from, so a run that
    /// matches its plan exactly feeds every CUSUM an exact zero and can
    /// never fire. The per-link CUSUM is [`LINK_CUSUM`].
    Detector,
}

impl Default for ReplanTrigger {
    fn default() -> Self {
        ReplanTrigger::Deviation(RescheduleRule::default())
    }
}

/// Adaptation settings for a checkpointed live run.
#[derive(Debug, Clone, Copy)]
pub struct AdaptSettings {
    /// When to run the measure/decide/adapt cycle.
    pub policy: CheckpointPolicy,
    /// How the loop decides a replan is justified.
    pub trigger: ReplanTrigger,
    /// How a fired replan reschedules the remaining traffic: the
    /// open-shop earliest-available rule, or the §4.3 matching
    /// construction replanned incrementally (§6) — the run retains the
    /// previous matching plan and each replan re-solves only the rounds
    /// the drift delta invalidated.
    pub replanner: Replanner,
    /// LAP solver threads for the matching replanner (see
    /// [`adaptcomm_lap::solve_min_warm_par`]); bit-identical plans at any
    /// value, so purely a latency knob. Ignored by the open shop.
    pub threads: usize,
    /// Link-failure detection (see [`FaultPolicy`]).
    pub faults: FaultPolicy,
    /// Wall-clock pacing passed through to the engine.
    pub pace_us_per_ms: Option<f64>,
    /// Physical payload cap passed through to the engine.
    pub payload_cap: Option<u64>,
    /// Total execution attempts, and also the probe budget when parked
    /// traffic waits for a link to heal (1 = no retry on typed link
    /// failures).
    pub max_attempts: usize,
}

impl Default for AdaptSettings {
    fn default() -> Self {
        AdaptSettings {
            policy: CheckpointPolicy::Halving,
            trigger: ReplanTrigger::default(),
            replanner: Replanner::default(),
            threads: 1,
            faults: FaultPolicy::default(),
            pace_us_per_ms: None,
            payload_cap: None,
            max_attempts: 3,
        }
    }
}

/// What class of fault a [`RecoveryEvent`] recovered from, derived from
/// the engine's typed error (a chaos harness that knows the injected
/// scenario may reclassify).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A processor crashed mid-collective
    /// ([`RuntimeError::ProcessorCrashed`]).
    Crash,
    /// A link was partitioned ([`RuntimeError::LinkPartitioned`]).
    Partition,
    /// A link's estimate collapsed below the drop threshold
    /// ([`RuntimeError::MessageDropped`]).
    DeadLink,
}

impl FaultKind {
    fn of(error: &RuntimeError) -> FaultKind {
        match error {
            RuntimeError::ProcessorCrashed { .. } => FaultKind::Crash,
            RuntimeError::LinkPartitioned { .. } => FaultKind::Partition,
            _ => FaultKind::DeadLink,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Partition => "partition",
            FaultKind::DeadLink => "dead-link",
        }
    }
}

/// One fault the closed loop detected and recovered from (or died on).
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Fault class, derived from the typed error.
    pub kind: FaultKind,
    /// The link whose failure surfaced the fault.
    pub link: (usize, usize),
    /// Modeled time the failure was detected.
    pub detected_at: Millis,
    /// Modeled finish of the first transfer that crossed `link` after
    /// detection — `None` if traffic never crossed it again (the
    /// message was rerouted or the run died).
    pub recovered_at: Option<Millis>,
    /// Messages parked (unreachable or on dead links) at detection.
    pub parked: usize,
    /// Heal probes spent on this fault's parked traffic.
    pub probes: usize,
}

impl RecoveryEvent {
    /// Measured recovery time (`recovered_at - detected_at`), if the
    /// link carried traffic again.
    pub fn recovery_time(&self) -> Option<Millis> {
        self.recovered_at
            .map(|r| Millis::new(r.as_ms() - self.detected_at.as_ms()))
    }
}

/// What a closed-loop run did.
#[derive(Debug, Clone)]
pub struct AdaptReport {
    /// All committed transfers across attempts, sorted by
    /// `(finish, src, dst)`.
    pub records: Vec<TransferRecord>,
    /// Modeled completion time of the whole exchange.
    pub makespan: Millis,
    /// What the initial directory snapshot predicted for the initial
    /// order.
    pub planned_makespan: Millis,
    /// Checkpoints at which the loop ran.
    pub checkpoints_evaluated: usize,
    /// Checkpoints that replanned the remaining traffic.
    pub reschedules: usize,
    /// Replans served by the §6 incremental path (the retained matching
    /// plan's certified rounds kept, only the rest re-solved). Always 0 for
    /// [`Replanner::OpenShop`]; at most `reschedules` otherwise.
    pub incremental_reschedules: usize,
    /// Execution attempts (> 1 iff typed link failures were retried).
    pub attempts: usize,
    /// Link measurements published into the directory.
    pub measurements_published: usize,
    /// Links whose failure forced a retry, in order.
    pub retried_links: Vec<(usize, usize)>,
    /// 1-based global ordinal of the first checkpoint that replanned
    /// (`None` if the run never replanned) — the yardstick for comparing
    /// trigger reaction times on the same scenario.
    pub first_replan_checkpoint: Option<usize>,
    /// Faults detected and recovered from, in detection order. Empty on
    /// fault-free runs.
    pub recovery_events: Vec<RecoveryEvent>,
    /// Links the trust cross-check quarantined, sorted — their lying
    /// claims never priced a replan (the realized fit was published
    /// instead).
    pub quarantined_links: Vec<(usize, usize)>,
}

/// What one [`CheckpointedRun::attempt`] pass did, beyond the engine
/// outcome.
struct AttemptStats {
    /// When the attempt's lists would end on a network frozen at the
    /// directory's view as the attempt began.
    planned_makespan: Millis,
    /// Link measurements published into the directory.
    published: usize,
    /// Checkpoints the closure saw (counted even when the attempt
    /// fails, which [`ShapedOutcome`] cannot report).
    checkpoints: usize,
    /// 1-based ordinal *within this attempt* of the first replan.
    first_replan: Option<usize>,
    /// Replans the matching replanner served incrementally.
    incremental: usize,
}

/// First wait before probing a parked link, milliseconds of modeled time
/// past the point the reachable traffic drained; each unsuccessful probe
/// multiplies the wait by [`BACKOFF_FACTOR`].
const BACKOFF_BASE_MS: f64 = 50.0;
const BACKOFF_FACTOR: f64 = 2.0;

/// Bandwidth floor-published for a link observed dead, kbit/s: low
/// enough that any replan prices the link as unusable, high enough to
/// satisfy the directory's positive-bandwidth validation.
const DEAD_FLOOR_KBPS: f64 = 1e-3;

/// Connected components over the *undirected* alive-link graph of
/// `live`: an edge survives if either direction still clears the
/// threshold. Nodes in different components cannot reach each other at
/// all; their traffic is parked rather than replanned.
fn components(live: &NetParams, threshold: f64) -> Vec<usize> {
    let p = live.len();
    let mut comp = vec![usize::MAX; p];
    let mut next = 0usize;
    for start in 0..p {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for v in 0..p {
                if v == u || comp[v] != usize::MAX {
                    continue;
                }
                let alive = live.estimate(u, v).bandwidth.as_kbps() > threshold
                    || live.estimate(v, u).bandwidth.as_kbps() > threshold;
                if alive {
                    comp[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Drives the closed loop over a directory, sizes, and settings.
pub struct CheckpointedRun<'a> {
    directory: &'a DirectoryService,
    sizes: &'a [Vec<Bytes>],
    settings: AdaptSettings,
    tamper: Option<&'a dyn MeasurementTamper>,
}

impl<'a> CheckpointedRun<'a> {
    /// A driver publishing into (and replanning from) `directory`.
    pub fn new(
        directory: &'a DirectoryService,
        sizes: &'a [Vec<Bytes>],
        settings: AdaptSettings,
    ) -> Self {
        assert_eq!(
            directory.processors(),
            sizes.len(),
            "directory and size matrix disagree on processor count"
        );
        CheckpointedRun {
            directory,
            sizes,
            settings,
            tamper: None,
        }
    }

    /// Routes every fitted measurement through a reporting agent before
    /// the trust cross-check — the hook chaos scenarios use to model
    /// links that lie about their bandwidth.
    pub fn with_tamper(mut self, tamper: &'a dyn MeasurementTamper) -> Self {
        self.tamper = Some(tamper);
        self
    }

    /// Runs `lists` once from `start_at` with the live loop attached,
    /// judging progress against what the engine would do on a network
    /// frozen at the directory's current view. Returns the engine outcome
    /// plus what the loop did along the way.
    fn attempt<E, T>(
        &self,
        lists: &[Vec<usize>],
        start_at: Millis,
        evolution: &mut E,
        transport: &T,
    ) -> (
        Result<ShapedOutcome, crate::channel::ShapedFailure>,
        AttemptStats,
    )
    where
        E: NetworkEvolution,
        T: Transport + ?Sized,
    {
        // The reference the detector judges transfers against: the
        // directory view the current plan was priced from. Replaced on
        // every replan, so "planned" always means "under the plan now
        // executing".
        let mut ref_params = self.directory.snapshot().params().clone();
        let prober = Prober::new(ref_params.clone());
        let mut replanning = Replanning::new(
            self.settings.replanner,
            self.settings.threads,
            lists,
            self.sizes,
            &ref_params,
            start_at.as_ms(),
        );
        let mut stats = AttemptStats {
            planned_makespan: replanning.planned_makespan(),
            published: 0,
            checkpoints: 0,
            first_replan: None,
            incremental: 0,
        };
        let config = ShapedConfig {
            policy: self.settings.policy,
            faults: self.settings.faults,
            pace_us_per_ms: self.settings.pace_us_per_ms,
            payload_cap: self.settings.payload_cap,
            start_at,
        };
        let trigger = self.settings.trigger;
        let p = self.sizes.len();
        // Per-link CUSUM state for ReplanTrigger::Detector, created on a
        // link's first observed transfer.
        let mut cusums: Vec<Option<Cusum>> = vec![None; p * p];
        let mut slip_cusum = Cusum::with_reference(SLIP_CUSUM, 0.0, 1.0);
        let mut seen = 0usize;
        let obs = adaptcomm_obs::global();
        let stats_ref = &mut stats;
        let result = run_shaped(lists, self.sizes, evolution, transport, config, |view| {
            stats_ref.checkpoints += 1;
            // 1. measure + 2. publish: every completed transfer so far is
            //    a free probe of its link, cross-checked against the
            //    realized timings before the directory trusts it.
            if let Ok(outcome) =
                prober.publish_checked(self.directory, view.records, view.now, self.tamper)
            {
                stats_ref.published += outcome.published;
            }
            // 3. decide.
            let (seg_plan, seg_obs) = replanning.segment(view.completed, view.now.as_ms());
            let replan = match trigger {
                // Segment-relative deviation since the last replan.
                ReplanTrigger::Deviation(rule) => rule.should_reschedule(seg_plan, seg_obs),
                // Feed each newly completed transfer's log-ratio to its
                // link's CUSUM; any alarm justifies a replan.
                ReplanTrigger::Detector => {
                    let mut fired = false;
                    for r in &view.records[seen..] {
                        if r.src >= p || r.dst >= p || r.src == r.dst {
                            continue;
                        }
                        let est = ref_params.estimate(r.src, r.dst);
                        let planned_dur =
                            est.startup.as_ms() + r.bytes.bits() as f64 / est.bandwidth.as_kbps();
                        let observed = r.finish.as_ms() - r.start.as_ms();
                        if planned_dur <= 0.0 || observed <= 0.0 {
                            continue;
                        }
                        let cell = cusums[r.src * p + r.dst]
                            .get_or_insert_with(|| Cusum::with_reference(LINK_CUSUM, 0.0, 1.0));
                        if cell.update((observed / planned_dur).ln()).is_some() {
                            fired = true;
                        }
                    }
                    seen = view.records.len();
                    if seg_plan > 0.0
                        && seg_obs > 0.0
                        && slip_cusum.update((seg_obs / seg_plan).ln()).is_some()
                    {
                        fired = true;
                    }
                    fired
                }
            };
            if !replan {
                return CheckpointAction::Continue;
            }
            stats_ref.first_replan.get_or_insert(stats_ref.checkpoints);
            // 4. adapt: replan the remainder from the refreshed directory.
            let _replan_span = obs.span("replan").attr("now_ms", view.now.as_ms());
            let fresh = self.directory.snapshot();
            let new_plan = replanning.replan(
                |src| view.remaining(src),
                view.ports.send_busy_until(),
                view.ports.recv_busy_until(),
                view.completed,
                view.now.as_ms(),
                fresh.params(),
            );
            // The open-shop path rebuilds unconditionally, and a cold or
            // warm matching build re-solves every round: both are "full".
            let kind = if replanning.spliced() {
                "incremental"
            } else {
                "full"
            };
            if kind == "incremental" {
                stats_ref.incremental += 1;
            }
            // Replans are the adaptation signal for faults that degrade
            // rather than kill (lying links, drift): the black box
            // records them even with observability disabled.
            adaptcomm_obs::flight()
                .note("runtime.replan")
                .attr("now_ms", view.now.as_ms())
                .attr("cost_delta_ms", seg_obs - seg_plan)
                .attr("kind", kind)
                .emit();
            // The old plan is gone: judge future transfers against the
            // estimates the new one was priced from, with fresh evidence.
            ref_params = fresh.params().clone();
            for c in cusums.iter_mut().flatten() {
                c.reset();
            }
            slip_cusum.reset();
            CheckpointAction::Replan(new_plan)
        });
        (result, stats)
    }

    /// The directed-link liveness threshold recovery decisions probe
    /// against: the configured drop threshold, or a conservative
    /// default when fault detection is off.
    fn dead_threshold(&self) -> f64 {
        self.settings.faults.drop_below_kbps.unwrap_or(1e-2)
    }

    /// Sorts records, computes the makespan, backfills measured
    /// recovery times, and snapshots quarantines.
    fn finalize(&self, mut report: AdaptReport) -> AdaptReport {
        let run = SimRun::from_records(std::mem::take(&mut report.records));
        (report.records, report.makespan) = (run.records, run.makespan);
        // A fault's recovery time is measured, not assumed: the finish
        // of the first transfer that actually crossed the failed link
        // after detection.
        for ev in &mut report.recovery_events {
            ev.recovered_at = report
                .records
                .iter()
                .filter(|r| (r.src, r.dst) == ev.link && r.finish.as_ms() > ev.detected_at.as_ms())
                .map(|r| r.finish)
                .min_by(|a, b| a.as_ms().total_cmp(&b.as_ms()));
        }
        report.quarantined_links = self.directory.quarantined_links();
        report
    }

    /// Executes `lists` (usually a full `SendOrder`'s `.order`) to
    /// completion, adapting at checkpoints and recovering from typed
    /// link failures (park → backoff-probe → merge-and-replan).
    pub fn execute<E, T>(
        &self,
        lists: &[Vec<usize>],
        evolution: &mut E,
        transport: &T,
    ) -> Result<AdaptReport, RuntimeError>
    where
        E: NetworkEvolution,
        T: Transport + ?Sized,
    {
        assert!(self.settings.max_attempts >= 1, "need at least one attempt");
        let mut lists: Vec<Vec<usize>> = lists.to_vec();
        let mut start_at = Millis::ZERO;
        let mut report = AdaptReport {
            records: Vec::new(),
            makespan: Millis::ZERO,
            planned_makespan: Millis::ZERO,
            checkpoints_evaluated: 0,
            reschedules: 0,
            incremental_reschedules: 0,
            attempts: 0,
            measurements_published: 0,
            retried_links: Vec::new(),
            first_replan_checkpoint: None,
            recovery_events: Vec::new(),
            quarantined_links: Vec::new(),
        };
        let p = self.sizes.len();
        // Checkpoints seen by earlier (failed) attempts, so
        // first_replan_checkpoint is a global ordinal across retries.
        let mut checkpoint_offset = 0usize;
        // Messages waiting out a dead link or partition cut, plus the
        // error that parked them — returned verbatim if they never heal.
        let mut parked: Vec<(usize, usize)> = Vec::new();
        let mut parked_error: Option<RuntimeError> = None;
        loop {
            report.attempts += 1;
            let (result, stats) = self.attempt(&lists, start_at, evolution, transport);
            if report.attempts == 1 {
                report.planned_makespan = stats.planned_makespan;
            }
            report.measurements_published += stats.published;
            report.incremental_reschedules += stats.incremental;
            if report.first_replan_checkpoint.is_none() {
                report.first_replan_checkpoint = stats.first_replan.map(|n| checkpoint_offset + n);
            }
            checkpoint_offset += stats.checkpoints;
            match result {
                Ok(out) => {
                    report.records.extend(out.records);
                    report.checkpoints_evaluated += out.checkpoints_evaluated;
                    report.reschedules += out.reschedules;
                    if parked.is_empty() {
                        return Ok(self.finalize(report));
                    }
                    // The reachable traffic has drained; probe the
                    // parked links with exponential backoff until every
                    // one heals or the probe budget runs out.
                    let drained = report
                        .records
                        .iter()
                        .map(|r| r.finish.as_ms())
                        .fold(start_at.as_ms(), f64::max);
                    let threshold = self.dead_threshold();
                    let mut wait = BACKOFF_BASE_MS;
                    let mut now = drained;
                    let mut probes = 0usize;
                    let mut healed_at = None;
                    while probes < self.settings.max_attempts {
                        now += wait;
                        wait *= BACKOFF_FACTOR;
                        probes += 1;
                        // Only the parked links matter to a heal.
                        let at = Millis::new(now);
                        let live: Vec<LinkEstimate> = parked
                            .iter()
                            .map(|&(s, d)| evolution.link_at(at, s, d))
                            .collect();
                        if live.iter().all(|e| e.bandwidth.as_kbps() > threshold) {
                            // Publish the healed estimates so the merge
                            // replan prices them from reality, not from
                            // the dead floor.
                            for (&(s, d), est) in parked.iter().zip(&live) {
                                let _ = self.directory.publish_measurement(
                                    s,
                                    d,
                                    est.startup.as_ms(),
                                    est.bandwidth.as_kbps(),
                                    at,
                                );
                            }
                            healed_at = Some(now);
                            break;
                        }
                    }
                    for ev in report
                        .recovery_events
                        .iter_mut()
                        .filter(|e| e.recovered_at.is_none())
                    {
                        ev.probes += probes;
                    }
                    let Some(wake) = healed_at else {
                        return Err(parked_error
                            .take()
                            .expect("parked traffic implies a parking error"));
                    };
                    adaptcomm_obs::flight()
                        .note("runtime.heal")
                        .attr("at_ms", wake)
                        .attr("probes", probes as u64)
                        .attr("unparked", parked.len() as u64)
                        .emit();
                    // Merge-and-replan: the parked traffic becomes the
                    // remaining exchange, starting at the heal instant.
                    let mut remaining = vec![Vec::new(); p];
                    for &(s, d) in &parked {
                        remaining[s].push(d);
                    }
                    parked.clear();
                    parked_error = None;
                    let busy = vec![wake; p];
                    let fresh = self.directory.snapshot();
                    lists = openshop_replan(
                        |src| &remaining[src],
                        &busy,
                        &busy,
                        wake,
                        fresh.params(),
                        self.sizes,
                    );
                    start_at = Millis::new(wake);
                }
                Err(mut failure) => {
                    let Some((fsrc, fdst)) = failure.error.link() else {
                        // Environmental transport failure: not retryable
                        // by rescheduling.
                        return Err(failure.error);
                    };
                    if report.attempts >= self.settings.max_attempts {
                        return Err(failure.error);
                    }
                    // Even an aborted attempt's completed transfers are
                    // probes: cross-check and publish them, so a link
                    // cannot dodge the trust check by lying in the same
                    // attempt a fault cuts short.
                    let prober = Prober::new(self.directory.snapshot().params().clone());
                    let _ = prober.publish_checked(
                        self.directory,
                        &failure.records,
                        failure.at,
                        self.tamper,
                    );
                    report.records.extend(failure.records);
                    report.retried_links.push((fsrc, fdst));
                    let kind = FaultKind::of(&failure.error);
                    // Exactly-once bookkeeping: the failed message is
                    // still owed iff it is still queued (grant-time
                    // failure) or its bytes were lost in flight. A
                    // message the transport already delivered must not
                    // be re-sent; an owed one must not be dropped. One
                    // fault window can catch several in-flight
                    // deliveries — every other casualty in `lost` goes
                    // back into the remaining work to be routed (or
                    // parked) exactly once.
                    let mut remaining = std::mem::take(&mut failure.remaining);
                    let queued = remaining[fsrc].iter().position(|&d| d == fdst);
                    if let Some(pos) = queued {
                        remaining[fsrc].remove(pos);
                    }
                    let owed = queued.is_some() || failure.lost.contains(&(fsrc, fdst));
                    for &(ls, ld) in &failure.lost {
                        if (ls, ld) != (fsrc, fdst) {
                            remaining[ls].push(ld);
                        }
                    }
                    // Probe the live network at the failure instant and
                    // floor-publish every dead link, so the directory —
                    // and every replan priced from it — sees the hole.
                    let live = evolution.table_at(failure.at);
                    let threshold = self.dead_threshold();
                    for s in 0..p {
                        for d in 0..p {
                            if s == d {
                                continue;
                            }
                            let est = live.estimate(s, d);
                            if est.bandwidth.as_kbps() <= threshold {
                                let _ = self.directory.publish_measurement(
                                    s,
                                    d,
                                    est.startup.as_ms(),
                                    DEAD_FLOOR_KBPS,
                                    failure.at,
                                );
                            }
                        }
                    }
                    // Park everything unreachable — messages on dead
                    // directed links or crossing a partition cut wait
                    // for a heal instead of churning retries.
                    let comp = components(&live, threshold);
                    let mut newly_parked = 0usize;
                    for s in 0..p {
                        let mut keep = Vec::with_capacity(remaining[s].len());
                        for &d in &remaining[s] {
                            let dead = live.estimate(s, d).bandwidth.as_kbps() <= threshold;
                            if dead || comp[s] != comp[d] {
                                parked.push((s, d));
                                newly_parked += 1;
                            } else {
                                keep.push(d);
                            }
                        }
                        remaining[s] = keep;
                    }
                    // The failed message itself: park it when its link
                    // is down, defer it to the back of its sender's
                    // queue when the link is up (the transport lost it).
                    let failed_dead = live.estimate(fsrc, fdst).bandwidth.as_kbps() <= threshold
                        || comp[fsrc] != comp[fdst];
                    let defer_failed = owed && !failed_dead;
                    if owed && failed_dead {
                        parked.push((fsrc, fdst));
                        newly_parked += 1;
                    }
                    if !parked.is_empty() && parked_error.is_none() {
                        parked_error = Some(failure.error.clone());
                    }
                    report.recovery_events.push(RecoveryEvent {
                        kind,
                        link: (fsrc, fdst),
                        detected_at: failure.at,
                        recovered_at: None,
                        parked: newly_parked,
                        probes: 0,
                    });
                    // The black box records the fault even when nobody
                    // enabled observability, and dumps if a driver
                    // armed auto-dumps (chaos CLI, plan server).
                    adaptcomm_obs::flight()
                        .note("runtime.fault")
                        .attr("kind", kind.name())
                        .attr("src", fsrc as u64)
                        .attr("dst", fdst as u64)
                        .attr("at_ms", failure.at.as_ms())
                        .attr("parked", newly_parked as u64)
                        .emit();
                    adaptcomm_obs::flight().auto_dump("runtime-fault");
                    // Replan the reachable remainder from the refreshed
                    // directory and resume at the failure instant.
                    let fresh = self.directory.snapshot();
                    lists = openshop_replan(
                        |src| &remaining[src],
                        &failure.send_busy_until,
                        &failure.recv_busy_until,
                        failure.at.as_ms(),
                        fresh.params(),
                        self.sizes,
                    );
                    if defer_failed {
                        lists[fsrc].push(fdst);
                    }
                    start_at = failure.at;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FrozenNetwork;
    use crate::transport::{expected_receipts, ChannelTransport};
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::cost::LinkEstimate;
    use adaptcomm_model::params::NetParams;
    use adaptcomm_model::units::Bandwidth;
    use adaptcomm_sim::{Fault, ScriptedFaults};

    fn hetero_net(p: usize) -> NetParams {
        NetParams::from_fn(p, |src, dst| {
            LinkEstimate::new(
                Millis::new(2.0 + (src * p + dst) as f64 * 0.41),
                Bandwidth::from_kbps(500.0 + (src * 29 + dst * 23) as f64 * 11.0),
            )
        })
    }

    fn sizes(p: usize) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else if (s * 7 + d) % 4 == 0 {
                            Bytes::from_kb(200)
                        } else {
                            Bytes::from_kb(20)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn initial_lists(net: &NetParams, sizes: &[Vec<Bytes>]) -> Vec<Vec<usize>> {
        OpenShop
            .send_order(&CommMatrix::from_model(net, sizes))
            .order
    }

    #[test]
    fn the_loop_measures_adapts_and_completes_under_drift() {
        let p = 6;
        let net = hetero_net(p);
        let sz = sizes(p);
        let lists = initial_lists(&net, &sz);
        // Several links lose most of their bandwidth early on.
        let mut evolution = ScriptedFaults::new(
            net.clone(),
            vec![
                Fault {
                    at: Millis::new(50.0),
                    src: 0,
                    dst: 1,
                    factor: 0.2,
                },
                Fault {
                    at: Millis::new(50.0),
                    src: 3,
                    dst: 4,
                    factor: 0.25,
                },
            ],
        );
        let directory = DirectoryService::new(net);
        let epoch_before = directory.snapshot().sequence();
        let transport = ChannelTransport::new(p);
        let driver = CheckpointedRun::new(
            &directory,
            &sz,
            AdaptSettings {
                policy: CheckpointPolicy::EveryEvent,
                trigger: ReplanTrigger::Deviation(RescheduleRule {
                    deviation_threshold: 0.05,
                }),
                ..Default::default()
            },
        );
        let report = driver
            .execute(&lists, &mut evolution, &transport)
            .expect("drift without faults must complete");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.records.len(), p * (p - 1));
        assert!(report.reschedules >= 1, "drift must trigger a replan");
        assert!(
            report.first_replan_checkpoint.is_some_and(|n| n >= 1),
            "a replanning run must record when it first replanned"
        );
        assert!(report.measurements_published > 0, "the prober must publish");
        assert!(
            directory.snapshot().sequence() > epoch_before,
            "published measurements must refresh the directory epoch"
        );
        assert!(
            report.makespan.as_ms() > report.planned_makespan.as_ms(),
            "degraded links must cost real time"
        );
        assert_eq!(transport.receipts(), expected_receipts(&sz, None));
        // Drift is not a fault: no recovery events, no quarantines.
        assert!(report.recovery_events.is_empty());
        assert!(report.quarantined_links.is_empty());
        // The open-shop replanner rebuilds from scratch every time.
        assert_eq!(report.incremental_reschedules, 0);
    }

    #[test]
    fn matching_replanner_serves_incremental_replans_under_drift() {
        use adaptcomm_core::algorithms::MatchingKind;
        let p = 6;
        let net = hetero_net(p);
        let sz = sizes(p);
        let lists = initial_lists(&net, &sz);
        let mut evolution = ScriptedFaults::new(
            net.clone(),
            vec![
                Fault {
                    at: Millis::new(50.0),
                    src: 0,
                    dst: 1,
                    factor: 0.2,
                },
                Fault {
                    at: Millis::new(50.0),
                    src: 3,
                    dst: 4,
                    factor: 0.25,
                },
            ],
        );
        let directory = DirectoryService::new(net);
        let transport = ChannelTransport::new(p);
        let driver = CheckpointedRun::new(
            &directory,
            &sz,
            AdaptSettings {
                policy: CheckpointPolicy::EveryEvent,
                trigger: ReplanTrigger::Deviation(RescheduleRule {
                    deviation_threshold: 0.05,
                }),
                replanner: Replanner::Matching(MatchingKind::Max),
                ..Default::default()
            },
        );
        let report = driver
            .execute(&lists, &mut evolution, &transport)
            .expect("drift without faults must complete");
        assert_eq!(report.records.len(), p * (p - 1));
        assert!(report.reschedules >= 1, "drift must trigger a replan");
        // The retained matching plan was primed from the same estimates
        // the initial order was priced from, so every in-run replan can
        // splice certified rounds instead of re-solving from scratch.
        assert!(
            report.incremental_reschedules >= 1,
            "the matching replanner must serve at least one incremental replan, got {}",
            report.incremental_reschedules
        );
        assert!(report.incremental_reschedules <= report.reschedules);
    }

    #[test]
    fn a_dead_link_is_retried_with_a_reschedule_and_succeeds() {
        let p = 6;
        let net = hetero_net(p);
        let sz = sizes(p);
        let lists = initial_lists(&net, &sz);
        // Link 2 -> 4 is dead from the start and heals at t = 400 ms —
        // well before the exchange's natural end, so the deferred
        // message finds it alive on the retry.
        let mut evolution = ScriptedFaults::new(
            net.clone(),
            vec![
                Fault {
                    at: Millis::ZERO,
                    src: 2,
                    dst: 4,
                    factor: 1e-9,
                },
                Fault {
                    at: Millis::new(400.0),
                    src: 2,
                    dst: 4,
                    factor: 1.0,
                },
            ],
        );
        let directory = DirectoryService::new(net);
        let transport = ChannelTransport::new(p);
        let driver = CheckpointedRun::new(
            &directory,
            &sz,
            AdaptSettings {
                faults: FaultPolicy {
                    drop_below_kbps: Some(0.01),
                },
                max_attempts: 3,
                ..Default::default()
            },
        );
        let report = driver
            .execute(&lists, &mut evolution, &transport)
            .expect("retry must route around the healed link");
        assert!(report.attempts >= 2, "the dead link must force a retry");
        assert_eq!(report.retried_links[0], (2, 4));
        // Every payload arrived exactly once, across all attempts.
        assert_eq!(transport.receipts(), expected_receipts(&sz, None));
        // The fault shows up as a measured recovery event: detected
        // while the link was dead, recovered when traffic crossed it.
        assert_eq!(report.recovery_events.len(), 1);
        let ev = &report.recovery_events[0];
        assert_eq!(ev.kind, FaultKind::DeadLink);
        assert_eq!(ev.link, (2, 4));
        assert!(ev.parked >= 1, "the dead link's message must be parked");
        assert!(ev.probes >= 1, "a heal must be found by probing");
        let recovery = ev.recovery_time().expect("the healed link carried traffic");
        assert!(
            recovery.as_ms() > 0.0,
            "recovery time must be positive, got {recovery}"
        );
        assert!(
            report.quarantined_links.is_empty(),
            "honest measurements never quarantine"
        );
    }

    /// Satellite regression: a message that was already popped from its
    /// queue when the failure surfaced (delivery-time loss) is re-sent
    /// exactly once — neither lost (the old no-op remove would have
    /// been harmless, but only the unconditional re-push saved it) nor
    /// duplicated (the push must not fire for delivered messages).
    #[test]
    fn an_already_popped_lost_message_is_resent_exactly_once() {
        use std::sync::atomic::{AtomicBool, Ordering};
        /// Refuses the first delivery on one link — the bytes never
        /// arrive — then behaves normally.
        struct RefuseOnce {
            inner: ChannelTransport,
            refuse: (usize, usize),
            tripped: AtomicBool,
        }
        impl Transport for RefuseOnce {
            fn name(&self) -> &'static str {
                "refuse-once"
            }
            fn deliver(&self, src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError> {
                self.inner.deliver(src, dst, payload)
            }
            fn deliver_timed(
                &self,
                src: usize,
                dst: usize,
                payload: &[u8],
                start: Millis,
                finish: Millis,
            ) -> Result<(), RuntimeError> {
                if (src, dst) == self.refuse && !self.tripped.swap(true, Ordering::SeqCst) {
                    return Err(RuntimeError::LinkPartitioned {
                        src,
                        dst,
                        at: finish,
                    });
                }
                self.inner.deliver_timed(src, dst, payload, start, finish)
            }
            fn receipts(&self) -> Vec<crate::transport::ReceiptSummary> {
                self.inner.receipts()
            }
        }
        let p = 4;
        let net = hetero_net(p);
        let sz = sizes(p);
        let lists = initial_lists(&net, &sz);
        // The network itself is healthy: the loss is the transport's.
        let mut evolution = FrozenNetwork(net.clone());
        let directory = DirectoryService::new(net);
        let transport = RefuseOnce {
            inner: ChannelTransport::new(p),
            refuse: (1, 2),
            tripped: AtomicBool::new(false),
        };
        let driver = CheckpointedRun::new(&directory, &sz, AdaptSettings::default());
        let report = driver
            .execute(&lists, &mut evolution, &transport)
            .expect("a one-shot delivery loss must be recovered");
        assert_eq!(report.attempts, 2);
        assert_eq!(report.retried_links, vec![(1, 2)]);
        // Exactly-once across both attempts: the lost message was
        // re-sent, every delivered message was not.
        assert_eq!(transport.receipts(), expected_receipts(&sz, None));
        assert_eq!(report.recovery_events.len(), 1);
        let ev = &report.recovery_events[0];
        assert_eq!(ev.kind, FaultKind::Partition);
        assert_eq!(ev.link, (1, 2));
        assert!(
            ev.recovered_at.is_some(),
            "the re-sent message must mark the link recovered"
        );
    }

    #[test]
    fn a_permanently_dead_link_exhausts_attempts() {
        let p = 4;
        let net = hetero_net(p);
        let sz = sizes(p);
        let lists = initial_lists(&net, &sz);
        let mut evolution = ScriptedFaults::new(
            net.clone(),
            vec![Fault {
                at: Millis::ZERO,
                src: 0,
                dst: 2,
                factor: 1e-9,
            }],
        );
        let directory = DirectoryService::new(net);
        let transport = ChannelTransport::new(p);
        let driver = CheckpointedRun::new(
            &directory,
            &sz,
            AdaptSettings {
                faults: FaultPolicy {
                    drop_below_kbps: Some(0.01),
                },
                max_attempts: 2,
                ..Default::default()
            },
        );
        let err = driver
            .execute(&lists, &mut evolution, &transport)
            .expect_err("a link that never heals must exhaust retries");
        assert_eq!(err.link(), Some((0, 2)));
    }
}
