//! Composed collectives: all-gather, all-reduce, and the dissemination
//! barrier.
//!
//! * **All-gather** without combining is exactly a total exchange whose
//!   per-sender message sizes are row-constant, so it delegates to the
//!   `adaptcomm-core` schedulers ([`allgather_matrix`] builds the
//!   matrix).
//! * **All-reduce** = reduce to a root, then broadcast from it. The
//!   heterogeneity-aware variant picks the *root that minimizes the
//!   composed completion* — on skewed networks the best root is rarely
//!   rank 0.
//! * **Dissemination barrier** — `⌈log₂P⌉` rounds, round `k`: `P_i`
//!   signals `P_(i+2^k) mod P`. Messages are zero-payload (pure start-up
//!   cost), so this exercises the `T_ij` half of the model.

use crate::broadcast;
use crate::plan::CollectiveSchedule;
use crate::reduce::{reduce, ReduceTree};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::ScheduledEvent;
use adaptcomm_model::cost::CostModel;
use adaptcomm_model::units::{Bytes, Millis};

/// Builds the total-exchange matrix equivalent to an all-gather where
/// processor `i` contributes `contribution[i]` bytes to everyone.
pub fn allgather_matrix<M: CostModel>(model: &M, contribution: &[Bytes]) -> CommMatrix {
    let p = model.len();
    assert_eq!(contribution.len(), p, "one contribution per processor");
    CommMatrix::from_fn(p, |src, dst| {
        if src == dst {
            0.0
        } else {
            model.message_time(src, dst, contribution[src]).as_ms()
        }
    })
}

/// An all-reduce plan: the reduction phase, the broadcast phase, and the
/// root that glues them.
#[derive(Debug, Clone)]
pub struct AllReduce {
    /// The chosen root.
    pub root: usize,
    /// Phase 1: reduce into the root.
    pub reduce: CollectiveSchedule,
    /// Phase 2: broadcast from the root (start times offset so the
    /// broadcast begins when the reduction completes).
    pub broadcast: CollectiveSchedule,
}

impl AllReduce {
    /// Completion of the whole all-reduce.
    pub fn completion_time(&self) -> Millis {
        self.broadcast.completion_time()
    }
}

/// Builds an all-reduce rooted at `root`: fastest-first reduce, then
/// fastest-first broadcast shifted to start at the reduce completion.
pub fn allreduce_at(matrix: &CommMatrix, root: usize) -> AllReduce {
    let red = reduce(matrix, root, ReduceTree::FastestFirst);
    let offset = red.completion_time();
    let bcast = broadcast::fastest_first(matrix, root);
    // Shift the broadcast by the reduction completion.
    let shifted: Vec<ScheduledEvent> = bcast
        .events()
        .iter()
        .map(|e| ScheduledEvent {
            src: e.src,
            dst: e.dst,
            start: e.start + offset,
            finish: e.finish + offset,
        })
        .collect();
    let broadcast =
        CollectiveSchedule::new(matrix.len(), shifted).expect("time shift preserves validity");
    AllReduce {
        root,
        reduce: red,
        broadcast,
    }
}

/// The dissemination barrier: in round `k` (`2^k < P`), `P_i` sends a
/// zero-payload signal to `P_(i+2^k) mod P`. After `⌈log₂P⌉` rounds every
/// processor has transitively heard from every other.
pub fn dissemination_barrier(matrix: &CommMatrix) -> CollectiveSchedule {
    let p = matrix.len();
    let mut ready = vec![0.0f64; p];
    let mut events = Vec::new();
    let mut stride = 1usize;
    while stride < p {
        let mut next_ready = ready.clone();
        for i in 0..p {
            let dst = (i + stride) % p;
            let start = ready[i].max(ready[dst]);
            let finish = start + matrix.cost(i, dst).as_ms();
            events.push(ScheduledEvent {
                src: i,
                dst,
                start: Millis::new(start),
                finish: Millis::new(finish),
            });
            // Both endpoints advance to the round's end (the receiver
            // must hear the signal; the sender waits for its own
            // incoming signal from i - stride, accounted symmetrically).
            next_ready[i] = next_ready[i].max(finish);
            next_ready[dst] = next_ready[dst].max(finish);
        }
        ready = next_ready;
        stride *= 2;
    }
    CollectiveSchedule::new(p, events).expect("rounds are permutations")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_model::params::NetParams;
    use adaptcomm_model::units::Bandwidth;

    fn net(p: usize) -> NetParams {
        NetParams::from_fn(p, |s, d| {
            adaptcomm_model::cost::LinkEstimate::new(
                Millis::new(((s * 7 + d * 3) % 25) as f64 + 1.0),
                Bandwidth::from_kbps(((s + 2 * d) % 900 + 100) as f64),
            )
        })
    }

    fn hetero(p: usize) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 17 + d * 3) % 29 + 1) as f64
            }
        })
    }

    #[test]
    fn allgather_is_a_valid_total_exchange() {
        let contribution: Vec<Bytes> = (0..6)
            .map(|k| Bytes::from_kb(10 * (k as u64 + 1)))
            .collect();
        let m = allgather_matrix(&net(6), &contribution);
        assert_eq!(m.len(), 6);
        OpenShop.schedule(&m).validate().unwrap();
    }

    #[test]
    fn allreduce_completes_and_respects_phases() {
        let m = hetero(7);
        let ar = allreduce_at(&m, 2);
        // The broadcast must start no earlier than the reduce finished.
        let reduce_end = ar.reduce.completion_time().as_ms();
        for e in ar.broadcast.events() {
            assert!(e.start.as_ms() >= reduce_end - 1e-9);
        }
        assert!(ar.completion_time().as_ms() >= reduce_end);
    }

    #[test]
    fn hub_networks_are_exploited_from_any_root() {
        // Node 3 is a hub (cheap edges in both directions). The
        // fastest-first trees route through it from *any* root, so the
        // composed all-reduce stays near the hub-limited optimum — 6
        // serialized 1 ms leaf reports into the hub, a hop to the root,
        // and the mirror image back out — instead of paying 25 ms edges.
        let m = CommMatrix::from_fn(8, |s, d| {
            if s == d {
                0.0
            } else if s == 3 || d == 3 {
                1.0
            } else {
                25.0
            }
        });
        let completions: Vec<f64> = (0..8)
            .map(|r| allreduce_at(&m, r).completion_time().as_ms())
            .collect();
        let best = completions.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(best <= 20.0, "hub not exploited: {best} ms");
        // And no root is catastrophically bad — the adaptive trees
        // neutralize root placement (the interesting finding here).
        assert!(completions.iter().all(|&t| t <= 30.0));
    }

    #[test]
    fn barrier_has_log_rounds_and_everyone_participates() {
        for p in [2usize, 3, 5, 8, 13] {
            let m = hetero(p);
            let plan = dissemination_barrier(&m);
            let rounds = (p as f64).log2().ceil() as usize;
            assert_eq!(plan.events().len(), rounds * p);
            // Every processor sends exactly `rounds` signals.
            for i in 0..p {
                assert_eq!(
                    plan.events().iter().filter(|e| e.src == i).count(),
                    rounds,
                    "P{i} at P={p}"
                );
            }
        }
    }

    #[test]
    fn barrier_on_uniform_latency_is_log_p_rounds_long() {
        // Zero-size signals: cost = startup only. Uniform 5ms startup →
        // barrier = ceil(log2 P) * 5ms.
        let m = CommMatrix::from_fn(8, |s, d| if s == d { 0.0 } else { 5.0 });
        let plan = dissemination_barrier(&m);
        assert_eq!(plan.completion_time().as_ms(), 15.0);
    }
}
