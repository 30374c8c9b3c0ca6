//! Fluid (topology-level) execution with shared-link bandwidth division.
//!
//! The framework's cost model flattens the network into per-pair
//! `(T_ij, B_ij)` and "ignores the negligible delays incurred by
//! contention at intermediate links" (§3.2); the directory folds
//! *steady-state* sharing into its estimates (§3.1). This executor is the
//! ground truth those approximations stand in for: transfers traverse
//! the real [`Topology`] and, at every instant, each link's capacity is
//! divided **equally among the transfers currently crossing it** — the
//! paper's §3.1 division rule applied dynamically. A transfer's
//! instantaneous rate is the minimum share along its path.
//!
//! Comparing [`run_fluid`] with [`crate::executor::run_static`] on the
//! flattened parameters measures exactly how much the flat model under-
//! or over-estimates completion when a schedule's concurrent transfers
//! collide inside the network rather than at the ports.
//!
//! Port semantics are unchanged (one send and one receive at a time,
//! FCFS handshake grants), so any difference is attributable to link
//! sharing alone. Start-up latency is modeled as a fixed per-transfer
//! phase (the path's summed latencies) during which the transfer holds
//! its ports but moves no bytes.

use adaptcomm_core::schedule::SendOrder;
use adaptcomm_model::topology::{LinkId, Topology};
use adaptcomm_model::units::{Bytes, Millis};
use std::collections::HashMap;

use crate::executor::{SimRun, TransferRecord};

#[derive(Debug)]
struct Active {
    src: usize,
    dst: usize,
    bytes: Bytes,
    start: f64,
    /// Remaining start-up latency before bytes flow.
    startup_left: f64,
    /// Remaining payload, in bits.
    remaining_bits: f64,
    path: Vec<LinkId>,
}

/// Result of a fluid run.
#[derive(Debug, Clone)]
pub struct FluidRun {
    /// Completed transfers in completion order.
    pub records: Vec<TransferRecord>,
    /// Completion time of the exchange.
    pub makespan: Millis,
}

/// Executes `order` over the physical topology with dynamic equal-share
/// link bandwidth division.
pub fn run_fluid(topology: &Topology, order: &SendOrder, sizes: &[Vec<Bytes>]) -> FluidRun {
    let p = topology.nodes();
    assert_eq!(order.processors(), p, "order does not match the topology");
    assert_eq!(sizes.len(), p, "sizes do not match the topology");

    let mut next_idx = vec![0usize; p];
    let mut busy = vec![false; p]; // receiver port
    let mut pending: Vec<Vec<(f64, usize)>> = vec![Vec::new(); p]; // (req time, src)
    let mut sending = vec![false; p]; // sender port
    let mut active: Vec<Active> = Vec::new();
    let mut records: Vec<TransferRecord> = Vec::new();
    let mut now = 0.0f64;

    // Attempts to start src's next transfer at time `now`. The argument
    // list is the simulation state itself; bundling it into a struct
    // would just rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn try_start(
        topology: &Topology,
        order: &SendOrder,
        sizes: &[Vec<Bytes>],
        src: usize,
        now: f64,
        next_idx: &mut [usize],
        busy: &mut [bool],
        sending: &mut [bool],
        pending: &mut [Vec<(f64, usize)>],
        active: &mut Vec<Active>,
    ) {
        let idx = next_idx[src];
        if idx >= order.order[src].len() || sending[src] {
            return;
        }
        let dst = order.order[src][idx];
        if busy[dst] {
            pending[dst].push((now, src));
            return;
        }
        let path = topology.path(src, dst);
        let startup: f64 = path.iter().map(|&l| topology.link(l).latency.as_ms()).sum();
        busy[dst] = true;
        sending[src] = true;
        next_idx[src] += 1;
        active.push(Active {
            src,
            dst,
            bytes: sizes[src][dst],
            start: now,
            startup_left: startup,
            remaining_bits: sizes[src][dst].bits() as f64,
            path,
        });
    }

    for src in 0..p {
        try_start(
            topology,
            order,
            sizes,
            src,
            now,
            &mut next_idx,
            &mut busy,
            &mut sending,
            &mut pending,
            &mut active,
        );
    }

    let total = order.order.iter().map(|l| l.len()).sum::<usize>();
    while records.len() < total {
        assert!(
            !active.is_empty(),
            "no active transfers but {} of {total} remain — scheduling deadlock",
            records.len()
        );
        // Equal-share rates: count flowing transfers per link.
        let mut load: HashMap<LinkId, usize> = HashMap::new();
        for a in &active {
            if a.startup_left <= 0.0 {
                for &l in &a.path {
                    *load.entry(l).or_insert(0) += 1;
                }
            }
        }
        // Rate per transfer in bits/ms (kbit/s == bits/ms).
        let rate = |a: &Active| -> f64 {
            a.path
                .iter()
                .map(|&l| topology.link(l).capacity.as_kbps() / load[&l] as f64)
                .fold(f64::INFINITY, f64::min)
        };
        // Time to the next state change.
        let mut dt = f64::INFINITY;
        for a in &active {
            let cand = if a.startup_left > 0.0 {
                a.startup_left
            } else {
                a.remaining_bits / rate(a)
            };
            dt = dt.min(cand);
        }
        assert!(dt.is_finite() && dt >= 0.0, "stalled fluid simulation");
        // Advance.
        now += dt;
        for a in &mut active {
            if a.startup_left > 0.0 {
                a.startup_left -= dt;
                if a.startup_left < 1e-12 {
                    a.startup_left = 0.0;
                }
            } else {
                a.remaining_bits -= rate(a) * dt;
            }
        }
        // Retire completed transfers.
        let mut finished: Vec<Active> = Vec::new();
        let mut k = 0;
        while k < active.len() {
            if active[k].startup_left <= 0.0 && active[k].remaining_bits <= 1e-6 {
                finished.push(active.swap_remove(k));
            } else {
                k += 1;
            }
        }
        // Sort finishers deterministically before releasing ports.
        finished.sort_by(|a, b| a.src.cmp(&b.src).then(a.dst.cmp(&b.dst)));
        for f in finished {
            records.push(TransferRecord {
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
                start: Millis::new(f.start),
                finish: Millis::new(now),
            });
            sending[f.src] = false;
            busy[f.dst] = false;
            // The freed sender requests its next message.
            try_start(
                topology,
                order,
                sizes,
                f.src,
                now,
                &mut next_idx,
                &mut busy,
                &mut sending,
                &mut pending,
                &mut active,
            );
            // The freed receiver grants its earliest pending request.
            if !busy[f.dst] {
                if let Some(kk) = pending[f.dst]
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                    .map(|(kk, _)| kk)
                {
                    let (_, src) = pending[f.dst].swap_remove(kk);
                    if !sending[src] {
                        // Re-point the sender at its (unchanged) head of
                        // queue: next_idx was not advanced when it
                        // blocked, so try_start re-reads the same dst.
                        try_start(
                            topology,
                            order,
                            sizes,
                            src,
                            now,
                            &mut next_idx,
                            &mut busy,
                            &mut sending,
                            &mut pending,
                            &mut active,
                        );
                    }
                }
            }
        }
    }

    let SimRun { records, makespan } = SimRun::from_records(records);
    FluidRun { records, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_static;
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::units::Bandwidth;

    /// Two sites × two nodes, fast LANs, one slow WAN.
    fn two_site_topology() -> Topology {
        Topology::uniform(
            2,
            2,
            (Millis::new(1.0), Bandwidth::from_mbps(1_000.0)),
            (Millis::new(10.0), Bandwidth::from_mbps(2.0)),
        )
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

    #[test]
    fn single_transfer_matches_the_flat_model_exactly() {
        let t = two_site_topology();
        // One cross-site message: 0 → 2 only; fill the rest with zero
        // bytes so they are instantaneous.
        let mut sz = sizes(4, 0);
        sz[0][2] = Bytes::from_kb(250); // 2 Mbit over a 2 Mbit/s WAN = 1000ms
        let order = SendOrder::new(vec![
            vec![2, 1, 3],
            vec![0, 2, 3],
            vec![0, 1, 3],
            vec![0, 1, 2],
        ]);
        let run = run_fluid(&t, &order, &sz);
        let r = run
            .records
            .iter()
            .find(|r| r.src == 0 && r.dst == 2)
            .unwrap();
        // Startup 1+10+1 = 12ms, then 2e6 bits at 2000 bits/ms = 1000ms.
        assert!(
            (r.finish.as_ms() - r.start.as_ms() - 1_012.0).abs() < 1e-6,
            "duration {}",
            r.finish.as_ms() - r.start.as_ms()
        );
    }

    #[test]
    fn concurrent_wan_flows_halve_each_other() {
        let t = two_site_topology();
        // Both site-0 nodes send cross-site simultaneously; nothing else.
        let mut sz = sizes(4, 0);
        sz[0][2] = Bytes::from_kb(250);
        sz[1][3] = Bytes::from_kb(250);
        let order = SendOrder::new(vec![
            vec![2, 1, 3],
            vec![3, 0, 2],
            vec![0, 1, 3],
            vec![0, 1, 2],
        ]);
        let run = run_fluid(&t, &order, &sz);
        let dur = |s: usize, d: usize| {
            let r = run
                .records
                .iter()
                .find(|r| r.src == s && r.dst == d)
                .unwrap();
            r.finish.as_ms() - r.start.as_ms()
        };
        // Shared WAN: each flow gets 1 Mbit/s → 2000ms + 12ms startup.
        assert!((dur(0, 2) - 2_012.0).abs() < 1e-6, "got {}", dur(0, 2));
        assert!((dur(1, 3) - 2_012.0).abs() < 1e-6, "got {}", dur(1, 3));
    }

    #[test]
    fn flat_model_underestimates_contended_schedules() {
        // A full exchange: the flat NetParams assume every transfer gets
        // the whole WAN; the fluid ground truth shares it. The fluid
        // makespan must therefore be at least the flat estimate.
        let t = two_site_topology();
        let flat = t.to_net_params();
        let sz = sizes(4, 500);
        let matrix = CommMatrix::from_model(&flat, &sz);
        let order = OpenShop.send_order(&matrix);
        let flat_run = run_static(&order, &flat, &sz);
        let fluid_run = run_fluid(&t, &order, &sz);
        assert_eq!(fluid_run.records.len(), 12);
        assert!(
            fluid_run.makespan.as_ms() >= flat_run.makespan.as_ms() - 1e-6,
            "fluid {} vs flat {}",
            fluid_run.makespan,
            flat_run.makespan
        );
    }

    #[test]
    fn port_constraints_still_hold() {
        let t = two_site_topology();
        let sz = sizes(4, 100);
        let matrix = CommMatrix::from_model(&t.to_net_params(), &sz);
        let order = OpenShop.send_order(&matrix);
        let run = run_fluid(&t, &order, &sz);
        for proc in 0..4 {
            for side in [true, false] {
                let mut evs: Vec<_> = run
                    .records
                    .iter()
                    .filter(|r| if side { r.src == proc } else { r.dst == proc })
                    .collect();
                evs.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
                for w in evs.windows(2) {
                    assert!(
                        w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-6,
                        "port overlap at {proc}"
                    );
                }
            }
        }
    }

    #[test]
    fn directory_style_shared_estimates_predict_the_two_flow_case() {
        // §3.1: the directory divides shared-link bandwidth among the
        // communicating pairs. For the two-concurrent-flow case the
        // flattened with-flows estimate matches the fluid ground truth.
        let t = two_site_topology();
        let flows = [(0usize, 2usize), (1usize, 3usize)];
        let shared = t.to_net_params_with_flows(&flows);
        let e = shared.estimate(0, 2);
        let predicted = e.message_time(Bytes::from_kb(250)).as_ms();
        assert!((predicted - 2_012.0).abs() < 1e-6, "predicted {predicted}");
    }
}
