//! Running a plan end-to-end and grading the recovery.
//!
//! [`run_chaos`] executes the same workload twice through the full
//! closed loop — once fault-free as the control, once under the plan —
//! and grades the chaotic run against the control: completion-time SLO
//! (at most [`SLO_FACTOR`] × the fault-free makespan), exactly-once
//! delivery via FNV receipt verification, per-fault recovery times,
//! and the quarantine roster.

use crate::evolution::ChaosEvolution;
use crate::plan::ChaosPlan;
use crate::transport::ChaosTransport;
use adaptcomm_core::algorithms::{OpenShop, Scheduler};
use adaptcomm_core::checkpointed::CheckpointPolicy;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_directory::DirectoryService;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::Bytes;
use adaptcomm_runtime::channel::FaultPolicy;
use adaptcomm_runtime::transport::{expected_receipts, ReceiptSummary};
use adaptcomm_runtime::{
    AdaptReport, AdaptSettings, ChannelTransport, CheckpointedRun, RuntimeError, Transport,
};

/// The documented recovery SLO: a run under injected faults must finish
/// within this multiple of its own fault-free makespan. Generous enough
/// for a fault that heals at ~45 % of the horizon plus backoff probes
/// and the serialized tail of unparked traffic; tight enough that a
/// recovery that churns retries instead of parking blows it.
pub const SLO_FACTOR: f64 = 3.0;

/// Dead-link detection threshold for chaos runs, kbit/s: far below any
/// plausible live link, far above [`crate::evolution::DEAD_SCALE`]
/// times one.
pub const CHAOS_DROP_KBPS: f64 = 0.01;

/// Execution attempts / heal-probe budget for chaos runs. Backoff is
/// exponential from the runtime's 50 ms base, so six probes cover
/// 3 150 ms of modeled time past the drain point.
pub const CHAOS_ATTEMPTS: usize = 6;

/// One graded fault, classified against the injected plan.
#[derive(Debug, Clone)]
pub struct FaultSummary {
    /// Scenario-level fault class (`crash`, `partition`, `liar`) when
    /// the plan covers the link at detection time, otherwise the
    /// runtime's own classification.
    pub kind: &'static str,
    /// The link whose failure surfaced the fault.
    pub link: (usize, usize),
    /// Modeled detection instant, milliseconds.
    pub detected_ms: f64,
    /// Measured recovery time, milliseconds — `None` if traffic never
    /// crossed the link again.
    pub recovery_ms: Option<f64>,
    /// Messages parked when the fault was detected.
    pub parked: usize,
    /// Heal probes spent before the parked traffic was released.
    pub probes: usize,
}

/// What a chaos run did, graded against its fault-free control.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Processor count.
    pub p: usize,
    /// Fault-free makespan of the same workload, milliseconds.
    pub fault_free_ms: f64,
    /// Makespan under the injected plan, milliseconds.
    pub chaos_ms: f64,
    /// Execution attempts the chaotic run needed.
    pub attempts: usize,
    /// Checkpoint replans across the chaotic run.
    pub reschedules: usize,
    /// Faults detected and recovered, in detection order.
    pub faults: Vec<FaultSummary>,
    /// Links the trust cross-check quarantined.
    pub quarantined: Vec<(usize, usize)>,
    /// True when the chaotic run's receipts are bit-identical to a
    /// clean exchange: every payload arrived exactly once.
    pub receipts_ok: bool,
}

impl ChaosReport {
    /// Completion-time slowdown over the fault-free control.
    pub fn slowdown(&self) -> f64 {
        if self.fault_free_ms > 0.0 {
            self.chaos_ms / self.fault_free_ms
        } else {
            1.0
        }
    }

    /// True when the run met the [`SLO_FACTOR`] completion bound.
    pub fn slo_ok(&self) -> bool {
        self.slowdown() <= SLO_FACTOR
    }

    /// The greppable verdict line CI asserts on, e.g.
    /// `SLO: completion 1.42x fault-free (limit 3.00x) — PASS`.
    pub fn slo_line(&self) -> String {
        format!(
            "SLO: completion {:.2}x fault-free (limit {:.2}x) — {}",
            self.slowdown(),
            SLO_FACTOR,
            if self.slo_ok() { "PASS" } else { "FAIL" }
        )
    }
}

/// The settings every chaos run (and its control) executes under.
pub fn chaos_settings() -> AdaptSettings {
    AdaptSettings {
        policy: CheckpointPolicy::EveryEvent,
        faults: FaultPolicy {
            drop_below_kbps: Some(CHAOS_DROP_KBPS),
        },
        max_attempts: CHAOS_ATTEMPTS,
        ..Default::default()
    }
}

/// One full closed-loop pass under `plan`, returning the adapt report
/// and the raw receipts for exactly-once verification.
pub fn run_plan(
    net: &NetParams,
    sizes: &[Vec<Bytes>],
    plan: &ChaosPlan,
) -> Result<(AdaptReport, Vec<ReceiptSummary>), RuntimeError> {
    run_plan_with(net, sizes, plan, chaos_settings())
}

/// [`run_plan`] under explicit settings — e.g. a larger attempt budget
/// when a plan's heal lands far past the drain point, so the
/// exponential backoff needs more doublings to reach it.
pub fn run_plan_with(
    net: &NetParams,
    sizes: &[Vec<Bytes>],
    plan: &ChaosPlan,
    settings: AdaptSettings,
) -> Result<(AdaptReport, Vec<ReceiptSummary>), RuntimeError> {
    let p = net.len();
    let lists = OpenShop
        .send_order(&CommMatrix::from_model(net, sizes))
        .order;
    let directory = DirectoryService::new(net.clone());
    let mut evolution = ChaosEvolution::new(net.clone(), plan.clone());
    let inner = ChannelTransport::new(p);
    let transport = ChaosTransport::new(&inner, plan);
    let driver = CheckpointedRun::new(&directory, sizes, settings).with_tamper(plan);
    let report = driver.execute(&lists, &mut evolution, &transport)?;
    Ok((report, inner.receipts()))
}

/// The fault-free makespan of the workload under chaos settings — the
/// horizon named scenarios are scaled to and the SLO denominator.
pub fn fault_free_makespan(net: &NetParams, sizes: &[Vec<Bytes>]) -> Result<f64, RuntimeError> {
    run_plan(net, sizes, &ChaosPlan::empty(net.len())).map(|(r, _)| r.makespan.as_ms())
}

/// Runs the control and the chaotic run, then grades the latter.
pub fn run_chaos(
    net: &NetParams,
    sizes: &[Vec<Bytes>],
    plan: &ChaosPlan,
) -> Result<ChaosReport, RuntimeError> {
    let fault_free_ms = fault_free_makespan(net, sizes)?;
    // Log the injected scenario into the flight recorder before the
    // run: a post-mortem dump then shows what was injected right next
    // to the `runtime.fault` / `runtime.heal` notes it provoked.
    for event in &plan.events {
        adaptcomm_obs::flight()
            .note("chaos.inject")
            .attr("spec", event.to_string())
            .emit();
    }
    let (report, receipts) = run_plan(net, sizes, plan)?;
    let faults: Vec<FaultSummary> = report
        .recovery_events
        .iter()
        .map(|ev| FaultSummary {
            kind: plan.classify(ev.link, ev.detected_at, ev.kind.name()),
            link: ev.link,
            detected_ms: ev.detected_at.as_ms(),
            recovery_ms: ev.recovery_time().map(|t| t.as_ms()),
            parked: ev.parked,
            probes: ev.probes,
        })
        .collect();
    Ok(ChaosReport {
        p: net.len(),
        fault_free_ms,
        chaos_ms: report.makespan.as_ms(),
        attempts: report.attempts,
        reschedules: report.reschedules,
        faults,
        quarantined: report.quarantined_links.clone(),
        receipts_ok: receipts == expected_receipts(sizes, None),
    })
}
