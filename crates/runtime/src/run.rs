//! One-call execution facade over the two backends.
//!
//! [`execute`] runs a send order on the chosen [`BackendKind`], verifies
//! that every payload physically arrived (receipts vs. the expected
//! tally), and folds the records into [`SimMetrics`] — the same report the
//! simulator produces, so CLI output and experiment notebooks can treat
//! live runs and simulated runs uniformly.

use crate::adapt::{AdaptReport, AdaptSettings, CheckpointedRun};
use crate::channel::{price_frozen, run_shaped, CheckpointAction, ShapedConfig};
use crate::error::RuntimeError;
use crate::tcp::TcpTransport;
use crate::transport::{expected_receipts, ChannelTransport, ReceiptSummary, Transport};
use adaptcomm_directory::DirectoryService;
use adaptcomm_model::units::{Bytes, Millis};
use adaptcomm_sim::executor::TransferRecord;
use adaptcomm_sim::{NetworkEvolution, SimMetrics};
use std::str::FromStr;

/// Which physical transport carries the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// In-process shaped channels (deterministic, zero setup).
    Channel,
    /// Loopback TCP sockets (real concurrent kernel I/O).
    Tcp,
}

impl BackendKind {
    /// Backend name as used on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Channel => "channel",
            BackendKind::Tcp => "tcp",
        }
    }
}

impl FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "channel" => Ok(BackendKind::Channel),
            "tcp" => Ok(BackendKind::Tcp),
            other => Err(format!("unknown backend '{other}' (channel|tcp)")),
        }
    }
}

/// What a live run produced, backend-independent.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which backend carried the bytes.
    pub backend: &'static str,
    /// Committed transfers, simulator record order.
    pub records: Vec<TransferRecord>,
    /// Modeled completion time.
    pub makespan: Millis,
    /// The usual simulator metrics over the realized transfers.
    pub metrics: SimMetrics,
    /// Per-processor delivery tallies.
    pub receipts: Vec<ReceiptSummary>,
    /// True iff the receipts match the expected tally exactly.
    pub receipts_ok: bool,
    /// Checkpoints evaluated (0 for static runs).
    pub checkpoints_evaluated: usize,
    /// Replans performed (0 for static runs).
    pub reschedules: usize,
    /// Replans served by §6 incremental rescheduling (matching
    /// replanner only; 0 for static and open-shop-replanned runs).
    pub incremental_reschedules: usize,
    /// Execution attempts (1 unless link failures were retried).
    pub attempts: usize,
    /// Link measurements published into the directory (adaptive only).
    pub measurements_published: usize,
    /// Modeled makespan the planning estimates predicted.
    pub planned_makespan: Millis,
}

fn finish_transport(
    backend: BackendKind,
    channel: Option<ChannelTransport>,
    tcp: Option<TcpTransport>,
) -> Result<Vec<ReceiptSummary>, RuntimeError> {
    match backend {
        BackendKind::Channel => Ok(channel.expect("channel transport").receipts()),
        BackendKind::Tcp => tcp.expect("tcp transport").finish(),
    }
}

/// Executes `lists` statically (no adaptation) on `backend`.
pub fn execute<E>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &mut E,
    backend: BackendKind,
    config: ShapedConfig,
) -> Result<RunReport, RuntimeError>
where
    E: NetworkEvolution,
{
    let p = evolution.processors();
    let planned_makespan = plan_makespan(lists, sizes, evolution);
    let (mut channel, mut tcp) = (None, None);
    let transport: &dyn Transport = match backend {
        BackendKind::Channel => channel.insert(ChannelTransport::new(p)),
        BackendKind::Tcp => tcp.insert(TcpTransport::new(p)?),
    };
    let result = run_shaped(lists, sizes, evolution, transport, config, |_| {
        CheckpointAction::Continue
    });
    let receipts = finish_transport(backend, channel, tcp)?;
    let out = result.map_err(|f| f.error)?;
    let receipts_ok = receipts == expected_receipts(sizes, config.payload_cap);
    Ok(RunReport {
        backend: backend.name(),
        metrics: SimMetrics::from_records(p, &out.records),
        makespan: out.makespan,
        records: out.records,
        receipts,
        receipts_ok,
        checkpoints_evaluated: out.checkpoints_evaluated,
        reschedules: out.reschedules,
        incremental_reschedules: 0,
        attempts: 1,
        measurements_published: 0,
        planned_makespan,
    })
}

/// Executes `lists` with the full measure → schedule → execute → adapt
/// loop attached (see [`CheckpointedRun`]), on `backend`.
pub fn execute_adaptive<E>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &mut E,
    directory: &DirectoryService,
    backend: BackendKind,
    settings: AdaptSettings,
) -> Result<RunReport, RuntimeError>
where
    E: NetworkEvolution,
{
    let p = evolution.processors();
    let (mut channel, mut tcp) = (None, None);
    let transport: &dyn Transport = match backend {
        BackendKind::Channel => channel.insert(ChannelTransport::new(p)),
        BackendKind::Tcp => tcp.insert(TcpTransport::new(p)?),
    };
    let result =
        CheckpointedRun::new(directory, sizes, settings).execute(lists, evolution, transport);
    let receipts = finish_transport(backend, channel, tcp)?;
    let report: AdaptReport = result?;
    let receipts_ok = receipts == expected_receipts(sizes, settings.payload_cap);
    Ok(RunReport {
        backend: backend.name(),
        metrics: SimMetrics::from_records(p, &report.records),
        makespan: report.makespan,
        records: report.records,
        receipts,
        receipts_ok,
        checkpoints_evaluated: report.checkpoints_evaluated,
        reschedules: report.reschedules,
        incremental_reschedules: report.incremental_reschedules,
        attempts: report.attempts,
        measurements_published: report.measurements_published,
        planned_makespan: report.planned_makespan,
    })
}

/// Prices `lists` on the planning estimates with the engine itself.
fn plan_makespan<E: NetworkEvolution>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &E,
) -> Millis {
    price_frozen(lists, sizes, evolution.planning_estimates(), Millis::ZERO)
        .ok()
        .and_then(|records| records.last().map(|r| r.finish))
        .unwrap_or(Millis::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FrozenNetwork;
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::cost::LinkEstimate;
    use adaptcomm_model::params::NetParams;
    use adaptcomm_model::units::Bandwidth;

    fn setup(p: usize) -> (NetParams, Vec<Vec<Bytes>>, Vec<Vec<usize>>) {
        let net = NetParams::from_fn(p, |src, dst| {
            LinkEstimate::new(
                Millis::new(1.5 + (src * p + dst) as f64 * 0.3),
                Bandwidth::from_kbps(600.0 + (src * 13 + dst * 7) as f64 * 10.0),
            )
        });
        let sizes: Vec<Vec<Bytes>> = (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else {
                            Bytes::from_kb(15)
                        }
                    })
                    .collect()
            })
            .collect();
        let lists = OpenShop
            .send_order(&CommMatrix::from_model(&net, &sizes))
            .order;
        (net, sizes, lists)
    }

    #[test]
    fn both_backends_realize_the_same_modeled_timeline() {
        let p = 4;
        let (net, sizes, lists) = setup(p);
        let mut e1 = FrozenNetwork(net.clone());
        let a = execute(
            &lists,
            &sizes,
            &mut e1,
            BackendKind::Channel,
            ShapedConfig::default(),
        )
        .expect("channel run");
        let mut e2 = FrozenNetwork(net.clone());
        let b = execute(
            &lists,
            &sizes,
            &mut e2,
            BackendKind::Tcp,
            ShapedConfig::default(),
        )
        .expect("tcp run");
        assert!(a.receipts_ok, "channel receipts must verify");
        assert!(b.receipts_ok, "tcp receipts must verify");
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!((ra.src, ra.dst), (rb.src, rb.dst));
            assert!((ra.finish.as_ms() - rb.finish.as_ms()).abs() < 1e-9);
        }
        assert_eq!(a.backend, "channel");
        assert_eq!(b.backend, "tcp");
        assert!((a.planned_makespan.as_ms() - a.makespan.as_ms()).abs() < 1e-6);
    }

    #[test]
    fn backend_parsing() {
        assert_eq!(
            "channel".parse::<BackendKind>().unwrap(),
            BackendKind::Channel
        );
        assert_eq!("tcp".parse::<BackendKind>().unwrap(), BackendKind::Tcp);
        assert!("carrier-pigeon".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Tcp.name(), "tcp");
    }
}
