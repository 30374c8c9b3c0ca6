//! Acceptance test for the live runtime (ISSUE 2): a P >= 8 mixed-size
//! all-to-all personalized exchange executes over real OS threads, the
//! closed loop reschedules at least once under injected link drift, and
//! the realized completion cross-validates against the discrete-event
//! simulator.

use adaptcomm::prelude::*;
use adaptcomm::runtime::channel::{run_shaped, CheckpointAction, FaultPolicy};
use adaptcomm::runtime::transport::{expected_receipts, ChannelTransport, Transport};
use adaptcomm::scheduling::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm::sim::dynamic::{run_adaptive, AdaptiveConfig, Replanner};
use adaptcomm::sim::{Fault, ScriptedFaults};

const P: usize = 8;
const SEED: u64 = 3;

fn drift_script() -> Vec<Fault> {
    // Three links lose most of their bandwidth early in the exchange.
    vec![
        Fault {
            at: Millis::new(20.0),
            src: 0,
            dst: 1,
            factor: 0.2,
        },
        Fault {
            at: Millis::new(20.0),
            src: 2,
            dst: 5,
            factor: 0.25,
        },
        Fault {
            at: Millis::new(40.0),
            src: 6,
            dst: 3,
            factor: 0.3,
        },
    ]
}

fn workload() -> (NetParams, Vec<Vec<Bytes>>, SendOrder) {
    let inst = Scenario::Mixed.instance(P, SEED);
    let sizes = inst.sizes.to_rows();
    let order = OpenShop.send_order(&inst.matrix);
    (inst.network, sizes, order)
}

/// Oblivious cross-validation: with the identical drift script and no
/// adaptation, the live engine and the simulator realize the same
/// timeline — they are one mechanism, so record for record, bit for bit.
#[test]
fn live_run_matches_simulator_under_drift() {
    let (net, sizes, order) = workload();
    let mut sim_evo = ScriptedFaults::new(net.clone(), drift_script());
    let sim = run_adaptive(&order, &sizes, &mut sim_evo, &AdaptiveConfig::oblivious());

    let transport = ChannelTransport::new(P);
    let mut live_evo = ScriptedFaults::new(net, drift_script());
    let out = run_shaped(
        &order.order,
        &sizes,
        &mut live_evo,
        &transport,
        ShapedConfig::default(),
        |_| CheckpointAction::Continue,
    )
    .expect("drift without dead links must complete");

    assert_eq!(out.records.len(), P * (P - 1));
    assert_eq!(out.records, sim.records);
    assert_eq!(out.makespan, sim.makespan);
    assert_eq!(transport.receipts(), expected_receipts(&sizes, None));
}

/// The full loop: measure, publish, decide, adapt. Injected drift must
/// force at least one checkpoint reschedule, every byte must arrive, and
/// the realized completion must stay within 5% of what the simulator
/// predicts for the same adaptation policy over the same drift. This one
/// is a tolerance, not an equality, on purpose: the live loop replans from
/// a directory fed by the prober's fits of what it has observed so far,
/// the simulator from an oracle table (the equality for the same hook is
/// `crates/runtime/tests/tied_grid.rs`).
#[test]
fn closed_loop_adapts_and_cross_validates() {
    let (net, sizes, order) = workload();
    let policy = CheckpointPolicy::EveryEvent;
    let rule = RescheduleRule {
        deviation_threshold: 0.05,
    };

    let mut sim_evo = ScriptedFaults::new(net.clone(), drift_script());
    let sim = run_adaptive(
        &order,
        &sizes,
        &mut sim_evo,
        &AdaptiveConfig {
            policy,
            rule,
            replanner: Replanner::default(),
        },
    );
    assert!(sim.reschedules >= 1, "the scenario must provoke adaptation");

    let directory = DirectoryService::new(net.clone());
    let epoch_before = directory.snapshot().sequence();
    let mut live_evo = ScriptedFaults::new(net, drift_script());
    let report = execute_adaptive(
        &order.order,
        &sizes,
        &mut live_evo,
        &directory,
        BackendKind::Channel,
        AdaptSettings {
            policy,
            trigger: ReplanTrigger::Deviation(rule),
            faults: FaultPolicy::default(),
            ..Default::default()
        },
    )
    .expect("the adaptive run must complete");

    assert_eq!(report.records.len(), P * (P - 1));
    assert!(report.receipts_ok, "every payload must physically arrive");
    assert!(
        report.reschedules >= 1,
        "injected drift must trigger at least one live reschedule"
    );
    assert!(
        report.measurements_published > 0,
        "the prober must publish live estimates"
    );
    assert!(
        directory.snapshot().sequence() > epoch_before,
        "published measurements must refresh the directory epoch"
    );
    let rel = (report.makespan.as_ms() - sim.makespan.as_ms()).abs() / sim.makespan.as_ms();
    assert!(
        rel < 0.05,
        "adaptive live {} vs adaptive sim {} ms ({}% off)",
        report.makespan.as_ms(),
        sim.makespan.as_ms(),
        rel * 100.0
    );
    // Port-model invariant holds on the realized records, across replans.
    for proc in 0..P {
        for side in [true, false] {
            let mut evs: Vec<_> = report
                .records
                .iter()
                .filter(|r| if side { r.src == proc } else { r.dst == proc })
                .collect();
            evs.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
            for w in evs.windows(2) {
                assert!(w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-9);
            }
        }
    }
}
