//! Finite receive buffers with decoupled application drains (§6.1).
//!
//! "It could also be assumed that a finite buffer space is available at
//! nodes to receive messages. When multiple messages arrive at a node,
//! one of the messages is received by the application, while the others
//! are queued in the buffer. The sending nodes do not wait until the
//! receive operation is complete, but only until the message is stored in
//! the buffer. If the buffer is full, the sender must wait until adequate
//! free space is created in the buffer."
//!
//! Model: the network port still admits one incoming transfer at a time
//! (hardware serialization), and a transfer may begin only when the
//! buffer has room for the whole message. Once stored, the sender is
//! released; a separate application drain consumes buffered messages
//! FIFO at `drain_rate`, freeing their space. The run reports both the
//! network completion (last store) and the application completion (last
//! drain).
//!
//! [`run_buffered`] is a policy over the shared port-model kernel
//! (`adaptcomm_core::kernel`) with the canonical tie rule, so when the
//! buffer never binds — capacity at least the bytes a receiver is sent,
//! any drain rate — the stores equal [`crate::executor::run_static`]'s
//! records one for one, ties included (`tests/prop.rs` holds that on
//! random instances and on an all-ties grid).

use crate::executor::{sized, TransferRecord};
use adaptcomm_core::kernel::{self, Policy, Ports};
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_model::cost::{BufferedModel, CostModel};
use adaptcomm_model::units::{Bytes, Millis};
use std::collections::VecDeque;

/// Outcome of a buffered run.
#[derive(Debug, Clone)]
pub struct BufferedRun {
    /// Transfer records in start order; `finish` is the *store*
    /// completion (sender release time).
    pub stores: Vec<TransferRecord>,
    /// Per-message drain completion times, same order as `stores`.
    pub drain_finish: Vec<Millis>,
    /// Last store (network-level makespan).
    pub network_makespan: Millis,
    /// Last drain (application-level makespan).
    pub app_makespan: Millis,
    /// Times senders spent blocked on full buffers, summed.
    pub total_buffer_stall: Millis,
}

/// Simulates `order` under the finite-buffer model.
pub fn run_buffered<M: CostModel>(
    order: &SendOrder,
    model: &BufferedModel<M>,
    sizes: &[Vec<Bytes>],
) -> BufferedRun {
    let p = model.len();
    assert_eq!(order.processors(), p, "order and model disagree on P");
    assert_eq!(sizes.len(), p, "size matrix does not match P");
    let cap = model.buffer_capacity.as_u64();
    for (s, row) in sizes.iter().enumerate() {
        for (d, b) in row.iter().enumerate() {
            if s != d {
                assert!(
                    b.as_u64() <= cap,
                    "message {s}->{d} ({b}) exceeds buffer capacity ({})",
                    model.buffer_capacity
                );
            }
        }
    }

    let mut policy = Buffered {
        model,
        sizes,
        buffer_used: vec![0; p],
        drain_queue: vec![VecDeque::new(); p],
        draining: vec![false; p],
        slot: vec![0; p * p],
        drain_finish: Vec::new(),
        stall: 0.0,
        stall_since: vec![None; p],
    };
    let run = match kernel::run(&order.order, &mut policy) {
        Ok(run) => run,
        Err(e) => panic!("{e}"),
    };
    let app_makespan = policy
        .drain_finish
        .iter()
        .copied()
        .fold(Millis::ZERO, Millis::max);
    BufferedRun {
        stores: sized(&run.events, sizes),
        drain_finish: policy.drain_finish,
        network_makespan: run.makespan,
        app_makespan,
        total_buffer_stall: Millis::new(policy.stall),
    }
}

/// The finite-buffer policy. The kernel's transfer is the *store*: it
/// occupies the network port and books its bytes in the buffer; a
/// completion queues the message for the application drain, and a drain
/// finishing (a kernel timer) frees the bytes and lets the port re-admit.
struct Buffered<'a, M> {
    model: &'a BufferedModel<M>,
    sizes: &'a [Vec<Bytes>],
    buffer_used: Vec<u64>,
    /// Per receiver: stored messages waiting to drain, FIFO, as
    /// `(bytes, index into drain_finish)`.
    drain_queue: Vec<VecDeque<(u64, usize)>>,
    draining: Vec<bool>,
    /// `slot[src * p + dst]`: the store's index in start order.
    slot: Vec<usize>,
    drain_finish: Vec<Millis>,
    stall: f64,
    stall_since: Vec<Option<f64>>,
}

impl<M: CostModel> Buffered<'_, M> {
    fn maybe_drain(&mut self, ports: &mut Ports, dst: usize, now: f64) {
        if self.draining[dst] {
            return;
        }
        if let Some(&(bytes, slot)) = self.drain_queue[dst].front() {
            self.draining[dst] = true;
            let fin = now
                + self
                    .model
                    .drain_rate
                    .transfer_time(Bytes::new(bytes))
                    .as_ms();
            self.drain_finish[slot] = Millis::new(fin);
            ports.timer(fin, dst);
        }
    }
}

impl<M: CostModel> Policy for Buffered<'_, M> {
    fn price(&mut self, now: f64, senders: &[usize], dst: usize) -> f64 {
        let src = senders[0];
        if let Some(since) = self.stall_since[src].take() {
            self.stall += now - since;
        }
        let bytes = self.sizes[src][dst];
        self.buffer_used[dst] += bytes.as_u64();
        self.slot[src * self.sizes.len() + dst] = self.drain_finish.len();
        self.drain_finish.push(Millis::ZERO); // patched when drained
        self.model.message_time(src, dst, bytes).as_ms()
    }

    /// A transfer may begin only when the buffer has room for the whole
    /// message; waiters whose messages do not fit are passed over (a
    /// smaller later request may proceed).
    fn fits(&self, src: usize, dst: usize) -> bool {
        self.buffer_used[dst] + self.sizes[src][dst].as_u64() <= self.model.buffer_capacity.as_u64()
    }

    /// Only buffer-space blocking counts as a stall: waiting for a busy
    /// port happens in the base model too.
    fn refused(&mut self, now: f64, src: usize) {
        self.stall_since[src].get_or_insert(now);
    }

    fn on_completion(&mut self, ports: &mut Ports, now: f64, src: usize, dst: usize) {
        // The message sits in the buffer until drained.
        let slot = self.slot[src * self.sizes.len() + dst];
        self.drain_queue[dst].push_back((self.sizes[src][dst].as_u64(), slot));
        self.maybe_drain(ports, dst, now);
    }

    fn on_timer(&mut self, ports: &mut Ports, now: f64, dst: usize) {
        let (bytes, _) = self.drain_queue[dst]
            .pop_front()
            .expect("a timer fires only for the drain in progress");
        self.draining[dst] = false;
        self.buffer_used[dst] -= bytes;
        self.maybe_drain(ports, dst, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_static;
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::params::NetParams;
    use adaptcomm_model::units::Bandwidth;

    fn net(p: usize) -> NetParams {
        NetParams::uniform(p, Millis::new(5.0), Bandwidth::from_kbps(800.0))
    }

    fn sizes(p: usize, kb: u64) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else {
                            Bytes::from_kb(kb)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn order(p: usize) -> SendOrder {
        let m = CommMatrix::from_model(&net(p), &sizes(p, 50));
        OpenShop.send_order(&m)
    }

    #[test]
    fn ample_buffer_and_instant_drain_matches_base_network_makespan() {
        let p = 5;
        let model = BufferedModel::new(net(p), Bytes::from_mb(1_000), Bandwidth::from_kbps(1e12));
        let run = run_buffered(&order(p), &model, &sizes(p, 50));
        let base = run_static(&order(p), &net(p), &sizes(p, 50));
        // With effectively infinite buffers the network-level behaviour
        // is identical to the base model.
        assert!(
            (run.network_makespan.as_ms() - base.makespan.as_ms()).abs() < 1e-6,
            "{} vs {}",
            run.network_makespan,
            base.makespan
        );
        assert_eq!(run.stores.len(), p * (p - 1));
        assert_eq!(run.total_buffer_stall.as_ms(), 0.0);
    }

    #[test]
    fn app_makespan_dominates_network_makespan() {
        let p = 4;
        let model = BufferedModel::new(net(p), Bytes::from_mb(10), Bandwidth::from_kbps(400.0));
        let run = run_buffered(&order(p), &model, &sizes(p, 50));
        assert!(run.app_makespan.as_ms() >= run.network_makespan.as_ms() - 1e-9);
        // Every drain completes after its store.
        for (r, d) in run.stores.iter().zip(&run.drain_finish) {
            assert!(d.as_ms() >= r.finish.as_ms() - 1e-9);
        }
    }

    #[test]
    fn tight_buffer_stalls_senders() {
        let p = 4;
        // Buffer fits exactly one 50 kB message; drain is slow.
        let tight = BufferedModel::new(net(p), Bytes::from_kb(50), Bandwidth::from_kbps(100.0));
        let run = run_buffered(&order(p), &tight, &sizes(p, 50));
        assert_eq!(
            run.stores.len(),
            p * (p - 1),
            "all messages still delivered"
        );
        assert!(
            run.total_buffer_stall.as_ms() > 0.0,
            "a one-message buffer with slow drain must stall someone"
        );
        // Same workload with a huge buffer: strictly less stall.
        let roomy = BufferedModel::new(net(p), Bytes::from_mb(100), Bandwidth::from_kbps(100.0));
        let easy = run_buffered(&order(p), &roomy, &sizes(p, 50));
        assert!(easy.network_makespan.as_ms() <= run.network_makespan.as_ms() + 1e-9);
    }

    #[test]
    fn a_sender_that_met_a_busy_port_first_still_stalls_on_the_full_buffer() {
        // 0 and 1 both open with receiver 2, whose buffer holds one
        // message. 1 finds the port busy; when 0's store completes the
        // port is free but the buffer is full until the drain ends, and
        // that wait is a buffer stall although 1's request never saw it.
        let p = 3;
        let model = BufferedModel::new(net(p), Bytes::from_kb(50), Bandwidth::from_kbps(100.0));
        let order = SendOrder::new(vec![vec![2, 1], vec![2, 0], vec![0, 1]]);
        let run = run_buffered(&order, &model, &sizes(p, 50));
        let store = |src, dst| {
            *run.stores
                .iter()
                .find(|r| (r.src, r.dst) == (src, dst))
                .unwrap()
        };
        let waited_on_buffer = store(1, 2).start - store(0, 2).finish;
        assert!(waited_on_buffer.as_ms() > 3_000.0, "the drain takes 4 s");
        assert!(run.total_buffer_stall.as_ms() >= waited_on_buffer.as_ms());
    }

    #[test]
    #[should_panic(expected = "exceeds buffer capacity")]
    fn oversized_message_rejected() {
        let p = 3;
        let model = BufferedModel::new(net(p), Bytes::from_kb(10), Bandwidth::from_kbps(100.0));
        let _ = run_buffered(&order(p), &model, &sizes(p, 50));
    }
}
