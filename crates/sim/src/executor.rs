//! Message-level execution of a send order on a static network.
//!
//! Semantics are the paper's (§3.2): one send and one receive at a time
//! per node, control-message handshake (FCFS receiver grants, ties to the
//! lower sender id), senders transmit in list order — all of it the
//! shared [`kernel`]. Durations come from a [`CostModel`] and per-pair
//! message sizes rather than a pre-baked cost matrix.

use adaptcomm_core::kernel;
use adaptcomm_core::schedule::{ScheduledEvent, SendOrder};
use adaptcomm_model::cost::CostModel;
use adaptcomm_model::units::{Bytes, Millis};

/// One completed transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRecord {
    /// Sender.
    pub src: usize,
    /// Receiver.
    pub dst: usize,
    /// Message size.
    pub bytes: Bytes,
    /// Start of the transfer.
    pub start: Millis,
    /// Completion of the transfer.
    pub finish: Millis,
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// All transfers in completion order.
    pub records: Vec<TransferRecord>,
    /// Time the last transfer finished.
    pub makespan: Millis,
}

impl SimRun {
    /// `records`, in any order, as a run: sorted into the kernel's
    /// completion order, the last finish as the makespan. Every record
    /// list in the workspace — simulated or live, one attempt or several —
    /// is ordered here.
    pub fn from_records(mut records: Vec<TransferRecord>) -> SimRun {
        kernel::completion_order(&mut records, |r| (r.finish, r.src, r.dst));
        let makespan = records.last().map_or(Millis::ZERO, |r| r.finish);
        SimRun { records, makespan }
    }
}

/// Kernel events as records carrying their sizes, in the order given.
pub(crate) fn sized<'a>(
    events: impl IntoIterator<Item = &'a ScheduledEvent>,
    sizes: &[Vec<Bytes>],
) -> Vec<TransferRecord> {
    events
        .into_iter()
        .map(|e| TransferRecord {
            src: e.src,
            dst: e.dst,
            bytes: sizes[e.src][e.dst],
            start: e.start,
            finish: e.finish,
        })
        .collect()
}

/// A kernel run as a [`SimRun`]: records built in the order the
/// transfers completed, so sorting them moves only ties at one instant.
pub(crate) fn sim_run(run: kernel::Outcome, sizes: &[Vec<Bytes>]) -> SimRun {
    let done = run.completions.iter().map(|&k| &run.events[k as usize]);
    SimRun::from_records(sized(done, sizes))
}

/// Simulates `order` over `network` with message sizes `sizes[src][dst]`:
/// the port-model [`kernel`] with no policy beyond a price, each transfer
/// costing what the model says for its link and size.
pub fn run_static<M: CostModel>(order: &SendOrder, network: &M, sizes: &[Vec<Bytes>]) -> SimRun {
    let p = network.len();
    assert_eq!(order.processors(), p, "order and network disagree on P");
    assert_eq!(sizes.len(), p, "size matrix does not match P");
    let mut price =
        |src: usize, dst: usize| network.message_time(src, dst, sizes[src][dst]).as_ms();
    match kernel::run(&order.order, &mut price) {
        Ok(run) => sim_run(run, sizes),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_core::algorithms::{all_schedulers, Scheduler};
    use adaptcomm_core::execution::execute_listed;
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::params::NetParams;
    use adaptcomm_model::units::Bandwidth;

    fn network(p: usize) -> NetParams {
        NetParams::from_fn(p, |s, d| {
            adaptcomm_model::cost::LinkEstimate::new(
                Millis::new(((s * 7 + d * 3) % 20) as f64 + 1.0),
                Bandwidth::from_kbps(((s + d * 5) % 900 + 100) as f64),
            )
        })
    }

    fn uniform_sizes(p: usize, b: Bytes) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| if s == d { Bytes::ZERO } else { b })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn agrees_with_analytic_execution() {
        // The message-level simulator and the analytic ASAP execution in
        // adaptcomm-core must produce identical event times when the
        // network is static.
        let p = 7;
        let net = network(p);
        let sizes = uniform_sizes(p, Bytes::KB);
        let matrix = CommMatrix::from_model(&net, &sizes);
        for s in all_schedulers() {
            let order = s.send_order(&matrix);
            let analytic = execute_listed(&order, &matrix);
            let simulated = run_static(&order, &net, &sizes);
            assert!(
                (analytic.completion_time().as_ms() - simulated.makespan.as_ms()).abs() < 1e-6,
                "{}: analytic {} vs simulated {}",
                s.name(),
                analytic.completion_time(),
                simulated.makespan
            );
            // Per-event agreement, not just the makespan.
            for r in &simulated.records {
                let a = analytic
                    .events()
                    .iter()
                    .find(|e| e.src == r.src && e.dst == r.dst)
                    .unwrap();
                assert!((a.start.as_ms() - r.start.as_ms()).abs() < 1e-6);
                assert!((a.finish.as_ms() - r.finish.as_ms()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn all_transfers_complete() {
        let p = 6;
        let net = network(p);
        let sizes = uniform_sizes(p, Bytes::MB);
        let matrix = CommMatrix::from_model(&net, &sizes);
        let order = adaptcomm_core::algorithms::OpenShop.send_order(&matrix);
        let run = run_static(&order, &net, &sizes);
        assert_eq!(run.records.len(), p * (p - 1));
        // Records come back sorted by completion.
        for w in run.records.windows(2) {
            assert!(w[0].finish.as_ms() <= w[1].finish.as_ms());
        }
    }

    #[test]
    fn records_carry_sizes() {
        let p = 3;
        let net = network(p);
        let mut sizes = uniform_sizes(p, Bytes::KB);
        sizes[0][1] = Bytes::MB;
        let matrix = CommMatrix::from_model(&net, &sizes);
        let order = adaptcomm_core::algorithms::Baseline.send_order(&matrix);
        let run = run_static(&order, &net, &sizes);
        let r = run
            .records
            .iter()
            .find(|r| r.src == 0 && r.dst == 1)
            .unwrap();
        assert_eq!(r.bytes, Bytes::MB);
    }
}
