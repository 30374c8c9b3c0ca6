//! Execution semantics: from an abstract [`SendOrder`] to a concrete
//! [`Schedule`].
//!
//! The paper's model (§3.2) implies the following run-time behaviour:
//! each sender transmits its messages strictly in list order; a message
//! transfer begins when sender and receiver are both ready ("A
//! communication event will begin whenever the sending and receiving
//! processors are both ready", §4.3). When several senders contend for
//! one receiver, the control-message handshake serializes them — the
//! receiver acknowledges requests in arrival order (FCFS, ties broken by
//! sender id for determinism).
//!
//! [`execute_listed`] is exactly that semantics: the port-model
//! [`kernel`] with a price and no other policy.
//! [`execute_steps`] is the *synchronized* variant that inserts a barrier
//! between steps — the paper points out schedules do **not** need this;
//! we keep it, and the two intermediate step couplings, as one recurrence
//! to quantify what each synchronization would cost.

use crate::kernel;
use crate::matrix::CommMatrix;
use crate::schedule::{Schedule, ScheduledEvent, SendOrder};
use adaptcomm_model::units::Millis;

/// Executes an abstract send order against a communication matrix under
/// ASAP / FCFS semantics, producing a concrete schedule.
///
/// This is the port-model [`kernel`] with no policy beyond a price: a
/// transfer costs its matrix cell. The result is deterministic:
/// simultaneous requests are granted to the lower-numbered sender,
/// matching the paper's "processed in an arbitrary (but fixed) order"
/// provision for ties.
pub fn execute_listed(order: &SendOrder, matrix: &CommMatrix) -> Schedule {
    assert_eq!(
        order.processors(),
        matrix.len(),
        "order and matrix disagree on P"
    );
    let mut cell = |src: usize, dst: usize| matrix.row(src)[dst];
    match kernel::run(&order.order, &mut cell) {
        Ok(run) => Schedule::new(matrix.clone(), run.events),
        Err(e) => panic!("{e}"),
    }
}

/// Which clock an event of a step-structured schedule waits on.
#[derive(Clone, Copy)]
enum StepClock {
    /// One global clock: a step begins when the previous one has ended.
    Barrier,
    /// One clock per port: the sender's previous send and the receiver's
    /// previous receive.
    Port,
    /// One clock per node: both of the sender's and both of the
    /// receiver's previous-step events.
    Node,
}

/// The step recurrence: every event of a step starts when its sender's
/// send clock and its receiver's receive clock allow, and the step's
/// finishes then advance the clocks the rule names.
fn execute_stepped(
    steps: &[Vec<Option<usize>>],
    matrix: &CommMatrix,
    clock: StepClock,
) -> Schedule {
    let p = matrix.len();
    let mut send_ready = vec![0.0f64; p];
    let mut recv_ready = vec![0.0f64; p];
    let mut events: Vec<ScheduledEvent> = Vec::with_capacity(p * p.saturating_sub(1));
    for step in steps {
        assert_eq!(step.len(), p, "step width must equal P");
        let first = events.len();
        for (src, dst) in step.iter().enumerate() {
            let Some(dst) = *dst else { continue };
            if dst == src {
                continue;
            }
            let start = send_ready[src].max(recv_ready[dst]);
            events.push(ScheduledEvent {
                src,
                dst,
                start: Millis::new(start),
                finish: Millis::new(start + matrix.cost(src, dst).as_ms()),
            });
        }
        let step_events = &events[first..];
        match clock {
            StepClock::Barrier => {
                let end = step_events
                    .iter()
                    .map(|e| e.finish.as_ms())
                    .chain(send_ready.first().copied())
                    .fold(0.0, f64::max);
                send_ready.fill(end);
                recv_ready.fill(end);
            }
            StepClock::Port => {
                for e in step_events {
                    send_ready[e.src] = e.finish.as_ms();
                    recv_ready[e.dst] = e.finish.as_ms();
                }
            }
            StepClock::Node => {
                let mut seen_recv = vec![false; p];
                for e in step_events {
                    assert!(
                        !std::mem::replace(&mut seen_recv[e.dst], true),
                        "two receives for node {} in one step",
                        e.dst
                    );
                    for node in [e.src, e.dst] {
                        let ready = send_ready[node].max(e.finish.as_ms());
                        send_ready[node] = ready;
                        recv_ready[node] = ready;
                    }
                }
            }
        }
    }
    Schedule::new(matrix.clone(), events)
}

/// Executes a step-structured schedule with *pairwise* step ordering and
/// no global barrier: each event waits for the same sender's previous
/// step and for the same receiver's previous step, exactly the
/// dependence-graph semantics of Theorem 2.
///
/// This is how the caterpillar baseline actually executes in homogeneous
/// collective libraries — every node posts its step-`j` send **and**
/// its step-`j` receive before moving to step `j+1`, so a receiver does
/// not accept step `j+1` traffic while its step-`j` receive is
/// outstanding. The adaptive algorithms are free of this constraint
/// (their receivers grant by handshake order), which is part of why they
/// win on heterogeneous networks.
pub fn execute_steps_pairwise(steps: &[Vec<Option<usize>>], matrix: &CommMatrix) -> Schedule {
    execute_stepped(steps, matrix, StepClock::Port)
}

/// Executes a step-structured schedule with blocking *send-recv* step
/// semantics: a node enters step `j+1` only after **both** its step-`j`
/// send and its step-`j` receive have completed — how the caterpillar is
/// actually coded in homogeneous collective libraries (one blocking
/// `sendrecv` per step). An event starts when its sender and its
/// receiver have both entered the step.
///
/// This couples ports *within* a node on top of the pairwise ordering of
/// [`execute_steps_pairwise`], so delays propagate along both matrix
/// dimensions at once: one slow transfer stalls its sender's next send
/// *and* its receiver's next receive. On strongly heterogeneous networks
/// this is what makes the oblivious baseline collapse.
///
/// Each step must be a (partial) permutation: at most one send and one
/// receive per node per step.
pub fn execute_steps_sendrecv(steps: &[Vec<Option<usize>>], matrix: &CommMatrix) -> Schedule {
    execute_stepped(steps, matrix, StepClock::Node)
}

/// Executes a step-structured schedule with a barrier after each step:
/// step `k+1` begins only when every event of step `k` has finished.
///
/// The paper explicitly avoids this synchronization; this function exists
/// to measure how much the barrier would cost (ablation).
pub fn execute_steps(steps: &[Vec<Option<usize>>], matrix: &CommMatrix) -> Schedule {
    execute_stepped(steps, matrix, StepClock::Barrier)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CommMatrix {
        CommMatrix::from_rows(&[
            vec![0.0, 2.0, 3.0],
            vec![4.0, 0.0, 5.0],
            vec![6.0, 7.0, 0.0],
        ])
    }

    fn caterpillar_order(p: usize) -> SendOrder {
        let order = (0..p)
            .map(|src| (1..p).map(|j| (src + j) % p).collect())
            .collect();
        SendOrder::new(order)
    }

    #[test]
    fn asap_execution_is_valid_and_complete() {
        let m = matrix();
        let s = execute_listed(&caterpillar_order(3), &m);
        s.validate().expect("ASAP execution must be valid");
        assert_eq!(s.events().len(), 6);
    }

    #[test]
    fn asap_execution_hand_computed() {
        let m = matrix();
        // Order: P0: [1, 2], P1: [2, 0], P2: [0, 1].
        let s = execute_listed(&caterpillar_order(3), &m);
        let find = |src, dst| {
            *s.events()
                .iter()
                .find(|e| e.src == src && e.dst == dst)
                .unwrap()
        };
        // t=0: all senders request; receivers all free: (0→1) starts 0–2,
        // (1→2) starts 0–5, (2→0) starts 0–6.
        assert_eq!(find(0, 1).start.as_ms(), 0.0);
        assert_eq!(find(1, 2).start.as_ms(), 0.0);
        assert_eq!(find(2, 0).start.as_ms(), 0.0);
        // P0 ready at 2 wanting P2; P2's receive port is busy until 5
        // (receiving from P1). (0→2) starts at 5, runs 3 → 5–8.
        assert_eq!(find(0, 2).start.as_ms(), 5.0);
        assert_eq!(find(0, 2).finish.as_ms(), 8.0);
        // P1 ready at 5 wanting P0; P0 busy receiving from P2 until 6.
        // (1→0) starts 6, runs 4 → 6–10.
        assert_eq!(find(1, 0).start.as_ms(), 6.0);
        // P2 ready at 6 wanting P1; P1 free (its receive from P0 ended
        // at 2). (2→1) starts 6, runs 7 → 6–13.
        assert_eq!(find(2, 1).start.as_ms(), 6.0);
        assert_eq!(s.completion_time().as_ms(), 13.0);
    }

    #[test]
    fn fcfs_grant_prefers_earlier_request() {
        // Receiver 0 contended: P1's request arrives at t=1 (after its
        // 1ms send to P2), P2's at t=0... build costs to force ordering.
        let m = CommMatrix::from_rows(&[
            vec![0.0, 1.0, 1.0],
            vec![10.0, 0.0, 1.0],
            vec![10.0, 1.0, 0.0],
        ]);
        // P1 sends to 0 first; P2 sends to 0 first: both request at t=0;
        // tie goes to lower id (P1). P2 waits until 10.
        let order = SendOrder::new(vec![vec![1, 2], vec![0, 2], vec![0, 1]]);
        let s = execute_listed(&order, &m);
        let find = |src, dst| {
            *s.events()
                .iter()
                .find(|e| e.src == src && e.dst == dst)
                .unwrap()
        };
        assert_eq!(find(1, 0).start.as_ms(), 0.0);
        assert_eq!(find(2, 0).start.as_ms(), 10.0);
        s.validate().unwrap();
    }

    #[test]
    fn sender_respects_list_order_even_when_blocked() {
        // P0's first destination is busy for a long time; P0 must wait,
        // not skip to its second destination.
        let m = CommMatrix::from_rows(&[
            vec![0.0, 1.0, 1.0],
            vec![1.0, 0.0, 20.0],
            vec![1.0, 1.0, 0.0],
        ]);
        // P1 immediately occupies receiver 2 for 20ms; P0 wants 2 then 1.
        let order = SendOrder::new(vec![vec![2, 1], vec![2, 0], vec![0, 1]]);
        let s = execute_listed(&order, &m);
        let find = |src, dst| {
            *s.events()
                .iter()
                .find(|e| e.src == src && e.dst == dst)
                .unwrap()
        };
        // Both P0 and P1 request receiver 2 at t=0; the tie goes to the
        // lower sender id, so P0 transmits first (0–1).
        assert_eq!(find(0, 2).start.as_ms(), 0.0);
        // P1 then waits for receiver 2 until t=1, sends 20ms.
        assert_eq!(find(1, 2).start.as_ms(), 1.0);
        // P0's second message (to 1) goes right after its first.
        assert_eq!(find(0, 1).start.as_ms(), 1.0);
        s.validate().unwrap();
    }

    #[test]
    fn barrier_execution_inserts_synchronization() {
        let m = matrix();
        // Two steps: {0→1, 1→2, 2→0} then {0→2, 1→0, 2→1}.
        let steps = vec![
            vec![Some(1), Some(2), Some(0)],
            vec![Some(2), Some(0), Some(1)],
        ];
        let s = execute_steps(&steps, &m);
        s.validate().unwrap();
        // Step 1 ends at max(2, 5, 6) = 6; step 2 lasts max(3,4,7) = 7.
        assert_eq!(s.completion_time().as_ms(), 13.0);
        // Every step-2 event starts exactly at the barrier.
        for e in s.events().iter().filter(|e| e.start.as_ms() >= 6.0) {
            assert_eq!(e.start.as_ms(), 6.0);
        }
    }

    #[test]
    fn barrier_never_beats_asap_on_same_order() {
        let m = matrix();
        let steps = vec![
            vec![Some(1), Some(2), Some(0)],
            vec![Some(2), Some(0), Some(1)],
        ];
        let order = SendOrder::from_steps(3, &steps);
        let asap = execute_listed(&order, &m);
        let barrier = execute_steps(&steps, &m);
        assert!(asap.completion_time().as_ms() <= barrier.completion_time().as_ms() + 1e-9);
    }

    #[test]
    fn zero_cost_events_execute_without_hanging() {
        let m = CommMatrix::from_fn(4, |_, _| 0.0);
        let s = execute_listed(&caterpillar_order(4), &m);
        s.validate().unwrap();
        assert_eq!(s.completion_time().as_ms(), 0.0);
    }
}
