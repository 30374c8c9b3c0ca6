//! Concurrent receives with context-switch overhead (§6.1).
//!
//! "When multiple messages arrive at a node, we can assume that the
//! messages are received in an interleaved fashion ... if `t1` and `t2`
//! are the times for individually receiving two messages, the total time
//! for receiving them simultaneously would be `(1+α)(t1+t2)`."
//!
//! [`run_interleaved`] relaxes the one-receive-at-a-time port constraint:
//! whenever a receiver frees up it admits up to `fan_in` pending requests
//! as a *batch*; every message of a `k > 1` batch completes at
//! `batch_start + (1+α)·Σ tᵢ`. Senders stay busy until their batch
//! completes, and the port frees when the last member has.
//!
//! It is a policy over the shared port-model kernel
//! (`adaptcomm_core::kernel`) with the canonical tie rule — batch mates,
//! which finish together by construction, re-request in sender-id order —
//! so with `fan_in = 1` every batch is one message priced `t₁` and the
//! run *is* [`crate::executor::run_static`]: the same loop, the same
//! price, equal records for any `α`, ties included (`tests/prop.rs`).

use crate::executor::{sim_run, SimRun};
use adaptcomm_core::kernel::{self, Policy};
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_model::cost::{CostModel, InterleavedModel};
use adaptcomm_model::units::{Bytes, Millis};

/// Simulates `order` under the interleaved-receive model.
pub fn run_interleaved<M: CostModel>(
    order: &SendOrder,
    model: &InterleavedModel<M>,
    sizes: &[Vec<Bytes>],
) -> SimRun {
    let p = model.len();
    assert_eq!(order.processors(), p, "order and model disagree on P");
    assert_eq!(sizes.len(), p, "size matrix does not match P");
    match kernel::run(&order.order, &mut Interleaved { model, sizes }) {
        Ok(run) => sim_run(run, sizes),
        Err(e) => panic!("{e}"),
    }
}

/// The interleaved-receive policy: a free port admits up to `fan_in`
/// requests as one batch, priced `(1+α)·Σ tᵢ`.
struct Interleaved<'a, M> {
    model: &'a InterleavedModel<M>,
    sizes: &'a [Vec<Bytes>],
}

impl<M: CostModel> Policy for Interleaved<'_, M> {
    fn price(&mut self, _now: f64, senders: &[usize], dst: usize) -> f64 {
        let times: Vec<Millis> = senders
            .iter()
            .map(|&s| self.model.message_time(s, dst, self.sizes[s][dst]))
            .collect();
        self.model.batch_receive_time(&times).as_ms()
    }

    fn fan_in(&self) -> usize {
        self.model.fan_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_static, TransferRecord};
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::params::NetParams;
    use adaptcomm_model::units::Bandwidth;

    fn net(p: usize) -> NetParams {
        NetParams::from_fn(p, |s, d| {
            adaptcomm_model::cost::LinkEstimate::new(
                Millis::new(((s * 5 + d * 11) % 15) as f64 + 2.0),
                Bandwidth::from_kbps(((s * 3 + d) % 700 + 200) as f64),
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
                        } else {
                            Bytes::from_kb(50)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn order(p: usize) -> SendOrder {
        let m = CommMatrix::from_model(&net(p), &sizes(p));
        OpenShop.send_order(&m)
    }

    #[test]
    fn fan_in_one_matches_base_model() {
        let p = 6;
        let model = InterleavedModel::new(net(p), 0.3, 1);
        let inter = run_interleaved(&order(p), &model, &sizes(p));
        let base = run_static(&order(p), &net(p), &sizes(p));
        assert!(
            (inter.makespan.as_ms() - base.makespan.as_ms()).abs() < 1e-6,
            "fan_in=1 must degenerate: {} vs {}",
            inter.makespan,
            base.makespan
        );
    }

    #[test]
    fn all_messages_complete() {
        let p = 7;
        for fan_in in [1, 2, 4, 8] {
            for alpha in [0.0, 0.25, 1.0] {
                let model = InterleavedModel::new(net(p), alpha, fan_in);
                let run = run_interleaved(&order(p), &model, &sizes(p));
                assert_eq!(
                    run.records.len(),
                    p * (p - 1),
                    "fan_in={fan_in} alpha={alpha} lost messages"
                );
            }
        }
    }

    #[test]
    fn batching_preserves_receiver_completion_at_alpha_zero() {
        // All senders target receiver 0 first. With α = 0 the receiver's
        // total service time is the same whether it serializes or
        // batches (Σtᵢ either way), so its *last* receive completes at
        // the same instant. The tradeoff — batching holds early senders
        // hostage until the whole batch finishes, hurting their later
        // sends — is what the fig_alpha ablation bench quantifies.
        let p = 5;
        let order = SendOrder::new(
            (0..p)
                .map(|s| {
                    let mut l: Vec<usize> = (0..p).filter(|&d| d != s).collect();
                    l.sort_by_key(|&d| if d == 0 { 0 } else { d });
                    l
                })
                .collect(),
        );
        let serial = run_static(&order, &net(p), &sizes(p));
        let model = InterleavedModel::new(net(p), 0.0, 4);
        let batched = run_interleaved(&order, &model, &sizes(p));
        let last_into_0 = |records: &[TransferRecord]| {
            records
                .iter()
                .filter(|r| r.dst == 0)
                .map(|r| r.finish.as_ms())
                .fold(0.0f64, f64::max)
        };
        let serial_done = last_into_0(&serial.records);
        let batched_done = last_into_0(&batched.records);
        assert!(
            batched_done <= serial_done + 1e-6,
            "α=0 batching must not delay the contended receiver: {batched_done} vs {serial_done}"
        );
    }

    #[test]
    fn high_alpha_makes_batching_costly() {
        // With α large, a 2-batch takes (1+α)(t1+t2) > t1+t2: makespan
        // under heavy batching should exceed the α=0 variant.
        let p = 6;
        let o = order(p);
        let cheap = run_interleaved(&o, &InterleavedModel::new(net(p), 0.0, 4), &sizes(p));
        let costly = run_interleaved(&o, &InterleavedModel::new(net(p), 2.0, 4), &sizes(p));
        assert!(costly.makespan.as_ms() >= cheap.makespan.as_ms() - 1e-9);
    }

    #[test]
    fn batch_members_share_finish_time() {
        let p = 4;
        // Everyone sends to receiver 3 first.
        let order = SendOrder::new(vec![
            vec![3, 1, 2],
            vec![3, 0, 2],
            vec![3, 0, 1],
            vec![0, 1, 2],
        ]);
        let model = InterleavedModel::new(net(p), 0.5, 3);
        let run = run_interleaved(&order, &model, &sizes(p));
        // Find a batch: transfers into 3 that share a start time.
        let into3: Vec<_> = run.records.iter().filter(|r| r.dst == 3).collect();
        let mut found_batch = false;
        for a in &into3 {
            for b in &into3 {
                if a.src < b.src && (a.start.as_ms() - b.start.as_ms()).abs() < 1e-9 {
                    assert!((a.finish.as_ms() - b.finish.as_ms()).abs() < 1e-9);
                    found_batch = true;
                }
            }
        }
        assert!(
            found_batch,
            "expected at least one 2+ batch into receiver 3"
        );
    }
}
