//! Property tests: the §6.1 model variants degenerate to the base model
//! at their identity parameters, for *any* send order — record for
//! record, on continuous instances and on an all-ties grid — and the
//! mid-run open-shop replan is `OpenShop`'s own rule.

use adaptcomm_core::algorithms::all_schedulers;
use adaptcomm_core::execution::execute_listed;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_model::cost::CostModel;
use adaptcomm_model::cost::{BufferedModel, InterleavedModel, LinkEstimate};
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_model::variation::{VariationConfig, VariationTrace};
use adaptcomm_sim::buffered::run_buffered;
use adaptcomm_sim::dynamic::{openshop_replan, run_adaptive, AdaptiveConfig, Replanner};
use adaptcomm_sim::interleaved::run_interleaved;
use adaptcomm_sim::{run_static, TransferRecord};
use proptest::prelude::*;

/// Random instance: network, sizes, and a random valid send order.
#[derive(Debug, Clone)]
struct Instance {
    net: NetParams,
    sizes: Vec<Vec<Bytes>>,
    order: SendOrder,
}

fn instance(max_p: usize) -> impl Strategy<Value = Instance> {
    (2..=max_p).prop_flat_map(|p| {
        let net_entries = proptest::collection::vec((1.0f64..50.0, 100.0f64..5_000.0), p * p);
        let size_entries = proptest::collection::vec(1u64..200, p * p);
        let order_perms = proptest::collection::vec(any::<u64>(), p);
        (net_entries, size_entries, order_perms).prop_map(move |(nets, szs, seeds)| {
            let net = NetParams::from_fn(p, |s, d| {
                let (t, b) = nets[s * p + d];
                let _ = (s, d);
                LinkEstimate::new(Millis::new(t), Bandwidth::from_kbps(b))
            });
            let sizes: Vec<Vec<Bytes>> = (0..p)
                .map(|s| {
                    (0..p)
                        .map(|d| {
                            if s == d {
                                Bytes::ZERO
                            } else {
                                Bytes::from_kb(szs[s * p + d])
                            }
                        })
                        .collect()
                })
                .collect();
            // Deterministic per-sender shuffles from the seeds.
            let order = SendOrder::new(
                (0..p)
                    .map(|s| {
                        let mut dsts: Vec<usize> = (0..p).filter(|&d| d != s).collect();
                        let mut state = seeds[s] | 1;
                        for i in (1..dsts.len()).rev() {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            dsts.swap(i, (state as usize) % (i + 1));
                        }
                        dsts
                    })
                    .collect(),
            );
            Instance { net, sizes, order }
        })
    })
}

/// A buffer no exchange can fill, drained instantly.
fn unbounded(net: &NetParams) -> BufferedModel<NetParams> {
    BufferedModel::new(
        net.clone(),
        Bytes::from_mb(100_000),
        Bandwidth::from_kbps(1e15),
    )
}

/// `run_buffered` reports stores in start order; `run_static` reports
/// records in `(finish, src, dst)` order.
fn by_completion(mut stores: Vec<TransferRecord>) -> Vec<TransferRecord> {
    stores.sort_by(|a, b| {
        (a.finish.as_ms().total_cmp(&b.finish.as_ms()))
            .then(a.src.cmp(&b.src))
            .then(a.dst.cmp(&b.dst))
    });
    stores
}

/// ISSUE 18's quantized networks — start-up `10 ms + 10 ms·k`, 500 kbit/s,
/// uniform 100 kB, so every instant is a tie — for P = 3..12 under the
/// five schedulers: 200 (order, network) pairs. Before the kernel the two
/// extensions broke ties by calendar insertion order and left `run_static`
/// on 22 of these each, the makespan itself on 8.
#[test]
fn degenerate_extensions_equal_the_base_model_on_the_tied_grid() {
    let mut pairs = 0;
    for p in 3..=12usize {
        for kind in 0..4 {
            let net = NetParams::from_fn(p, |s, d| {
                let k = [0, (s + d) % 2, (3 * s + d) % 3, (s ^ d) % 2][kind];
                LinkEstimate::new(
                    Millis::new(10.0 + 10.0 * k as f64),
                    Bandwidth::from_kbps(500.0),
                )
            });
            let sizes: Vec<Vec<Bytes>> = (0..p)
                .map(|s| {
                    (0..p)
                        .map(|d| {
                            if s == d {
                                Bytes::ZERO
                            } else {
                                Bytes::from_kb(100)
                            }
                        })
                        .collect()
                })
                .collect();
            let matrix = CommMatrix::from_model(&net, &sizes);
            for scheduler in all_schedulers() {
                let order = scheduler.send_order(&matrix);
                let what = format!("{} P={p} net {kind}", scheduler.name());
                let base = run_static(&order, &net, &sizes);
                for alpha in [0.0, 0.4] {
                    let model = InterleavedModel::new(net.clone(), alpha, 1);
                    assert_eq!(run_interleaved(&order, &model, &sizes), base, "{what}");
                }
                let buffered = run_buffered(&order, &unbounded(&net), &sizes);
                assert_eq!(by_completion(buffered.stores), base.records, "{what}");
                assert_eq!(buffered.total_buffer_stall.as_ms(), 0.0, "{what}");
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 200);
}

/// The open-shop replan loop `sim::dynamic` carried before it called
/// `OpenShop::list_schedule`: linear scans for the earliest-available
/// sender and its earliest-available owed receiver. Kept here, and only
/// here, as the reference.
fn openshop_replan_reference(
    remaining: &[Vec<usize>],
    send_busy_until: &[f64],
    recv_busy_until: &[f64],
    now: f64,
    estimates: &NetParams,
    sizes: &[Vec<Bytes>],
) -> Vec<Vec<usize>> {
    let p = remaining.len();
    let mut send_avail: Vec<f64> = send_busy_until.iter().map(|&t| t.max(now)).collect();
    let mut recv_avail: Vec<f64> = recv_busy_until.iter().map(|&t| t.max(now)).collect();
    let mut sets: Vec<Vec<usize>> = remaining.to_vec();
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut active: Vec<usize> = (0..p).filter(|&i| !sets[i].is_empty()).collect();
    while !active.is_empty() {
        let (pos, &i) = active
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| send_avail[a].total_cmp(&send_avail[b]).then(a.cmp(&b)))
            .expect("non-empty");
        let (rpos, &j) = sets[i]
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| recv_avail[a].total_cmp(&recv_avail[b]).then(a.cmp(&b)))
            .expect("active senders have receivers");
        let t = send_avail[i].max(recv_avail[j]);
        let fin = t + estimates.message_time(i, j, sizes[i][j]).as_ms();
        send_avail[i] = fin;
        recv_avail[j] = fin;
        order[i].push(j);
        sets[i].swap_remove(rpos);
        if sets[i].is_empty() {
            active.swap_remove(pos);
        }
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A replan of what remains of an exchange — any subset of each
    /// sender's list, in any order, ports busy until random or quantized
    /// (tied) instants — is the reference's, destination for destination.
    #[test]
    fn openshop_replan_is_the_openshop_rule(
        inst in instance(9),
        keep in proptest::collection::vec(any::<u64>(), 9),
        busy in proptest::collection::vec(0.0f64..400.0, 18),
        quantum in prop_oneof![Just(0.0f64), Just(50.0), Just(400.0)],
        now in 0.0f64..300.0,
    ) {
        let p = inst.net.len();
        // Bit d of keep[s] decides whether s still owes d; the random
        // order's rotation by keep[s] shuffles the set's presentation.
        let remaining: Vec<Vec<usize>> = (0..p)
            .map(|s| {
                let mut owed: Vec<usize> = inst.order.order[s]
                    .iter()
                    .copied()
                    .filter(|&d| keep[s] >> d & 1 == 1)
                    .collect();
                let n = owed.len().max(1);
                owed.rotate_left(keep[s] as usize % n);
                owed
            })
            .collect();
        let snap = |t: f64| if quantum > 0.0 { (t / quantum).round() * quantum } else { t };
        let send: Vec<f64> = busy[..p].iter().map(|&t| snap(t)).collect();
        let recv: Vec<f64> = busy[9..9 + p].iter().map(|&t| snap(t)).collect();
        // Quantized prices too, so availabilities keep tying as they grow.
        let net = if quantum > 0.0 {
            NetParams::uniform(p, Millis::new(quantum), Bandwidth::from_kbps(1e15))
        } else {
            inst.net.clone()
        };
        let got = openshop_replan(|s| &remaining[s], &send, &recv, now, &net, &inst.sizes);
        let want = openshop_replan_reference(&remaining, &send, &recv, now, &net, &inst.sizes);
        prop_assert_eq!(got, want);
    }

    /// The message-level simulator equals the analytic execution.
    #[test]
    fn simulator_equals_analytic_execution(inst in instance(8)) {
        let matrix = CommMatrix::from_model(&inst.net, &inst.sizes);
        let analytic = execute_listed(&inst.order, &matrix);
        let run = run_static(&inst.order, &inst.net, &inst.sizes);
        prop_assert!(
            (analytic.completion_time().as_ms() - run.makespan.as_ms()).abs() < 1e-6
        );
    }

    /// Interleaving with fan-in 1 is the base model, for any α: the same
    /// records, not merely the same makespan.
    #[test]
    fn interleaved_fan_in_one_is_identity(inst in instance(7), alpha in 0.0f64..2.0) {
        let base = run_static(&inst.order, &inst.net, &inst.sizes);
        let model = InterleavedModel::new(inst.net.clone(), alpha, 1);
        let inter = run_interleaved(&inst.order, &model, &inst.sizes);
        prop_assert_eq!(inter, base);
    }

    /// An effectively infinite buffer with instant drain reproduces the
    /// base run record for record and never stalls.
    #[test]
    fn infinite_buffer_is_identity(inst in instance(7)) {
        let base = run_static(&inst.order, &inst.net, &inst.sizes);
        let buffered = run_buffered(&inst.order, &unbounded(&inst.net), &inst.sizes);
        prop_assert_eq!(by_completion(buffered.stores), base.records);
        prop_assert_eq!(buffered.network_makespan, base.makespan);
        prop_assert_eq!(buffered.total_buffer_stall.as_ms(), 0.0);
    }

    /// A zero-volatility trace reproduces the planned schedule exactly.
    #[test]
    fn frozen_trace_matches_plan(inst in instance(7)) {
        let cfg = VariationConfig { volatility: 0.0, ..Default::default() };
        let mut trace = VariationTrace::new(inst.net.clone(), cfg, 0);
        let out = run_adaptive(&inst.order, &inst.sizes, &mut trace, &AdaptiveConfig::oblivious());
        let matrix = CommMatrix::from_model(&inst.net, &inst.sizes);
        let planned = execute_listed(&inst.order, &matrix);
        prop_assert!((out.makespan.as_ms() - planned.completion_time().as_ms()).abs() < 1e-6);
    }

    /// Whatever the drift, every message is delivered exactly once and
    /// port constraints hold in the realized trace.
    #[test]
    fn dynamic_execution_is_always_physical(inst in instance(6), seed in 0u64..100) {
        let cfg = VariationConfig {
            step: Millis::new(100.0),
            volatility: 0.4,
            floor: 0.05,
            ceil: 4.0,
        };
        let mut trace = VariationTrace::new(inst.net.clone(), cfg, seed);
        let out = run_adaptive(
            &inst.order,
            &inst.sizes,
            &mut trace,
            &AdaptiveConfig {
                policy: adaptcomm_core::checkpointed::CheckpointPolicy::Halving,
                rule: adaptcomm_core::checkpointed::RescheduleRule::default(),
                replanner: Replanner::OpenShop,
            },
        );
        let p = inst.net.len();
        prop_assert_eq!(out.records.len(), p * (p - 1));
        let mut seen = vec![false; p * p];
        for r in &out.records {
            prop_assert!(!seen[r.src * p + r.dst], "duplicate transfer");
            seen[r.src * p + r.dst] = true;
        }
        for proc in 0..p {
            for side in [true, false] {
                let mut evs: Vec<_> = out
                    .records
                    .iter()
                    .filter(|r| if side { r.src == proc } else { r.dst == proc })
                    .collect();
                evs.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
                for w in evs.windows(2) {
                    prop_assert!(w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-9);
                }
            }
        }
    }
}
