//! Each closed-loop event is recorded once.
//!
//! The runtime notes every replan, fault and heal on the always-on
//! flight recorder. With the global registry enabled the note is also a
//! registry instant, and the registry mirrors its instants into the
//! flight ring — so the note must be committed through the registry, not
//! beside it, or the ring holds every event twice. This file is its own
//! test binary: the registry and the ring are process-global.

use adaptcomm_core::algorithms::{OpenShop, Scheduler};
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_directory::DirectoryService;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_obs::Snapshot;
use adaptcomm_runtime::channel::FaultPolicy;
use adaptcomm_runtime::transport::ChannelTransport;
use adaptcomm_runtime::{AdaptReport, AdaptSettings, CheckpointedRun, ReplanTrigger};
use adaptcomm_sim::{Fault, ScriptedFaults};

fn count(snap: &Snapshot, name: &str) -> usize {
    snap.instants().filter(|i| i.name == name).count()
}

/// Runs the closed loop over a heterogeneous 6-node all-to-all with
/// `script` injected, replanning on a 5 % deviation and treating links
/// at or below 0.01 kbit/s as dead.
fn run(script: Vec<Fault>) -> AdaptReport {
    let p = 6;
    let net = NetParams::from_fn(p, |src, dst| {
        LinkEstimate::new(
            Millis::new(2.0 + (src * p + dst) as f64 * 0.41),
            Bandwidth::from_kbps(500.0 + (src * 29 + dst * 23) as f64 * 11.0),
        )
    });
    let sizes: Vec<Vec<Bytes>> = (0..p)
        .map(|s| {
            (0..p)
                .map(|d| match (s == d, (s * 7 + d) % 4 == 0) {
                    (true, _) => Bytes::ZERO,
                    (false, true) => Bytes::from_kb(200),
                    (false, false) => Bytes::from_kb(20),
                })
                .collect()
        })
        .collect();
    let lists = OpenShop
        .send_order(&CommMatrix::from_model(&net, &sizes))
        .order;
    let mut evolution = ScriptedFaults::new(net.clone(), script);
    let directory = DirectoryService::new(net);
    let settings = AdaptSettings {
        policy: CheckpointPolicy::EveryEvent,
        trigger: ReplanTrigger::Deviation(RescheduleRule {
            deviation_threshold: 0.05,
        }),
        faults: FaultPolicy {
            drop_below_kbps: Some(0.01),
        },
        ..Default::default()
    };
    CheckpointedRun::new(&directory, &sizes, settings)
        .execute(&lists, &mut evolution, &ChannelTransport::new(p))
        .expect("every injected fault heals, so the run completes")
}

fn fault(at: f64, src: usize, dst: usize, factor: f64) -> Fault {
    Fault {
        at: Millis::new(at),
        src,
        dst,
        factor,
    }
}

#[test]
fn with_obs_on_each_replan_fault_and_heal_lands_in_the_ring_once() {
    let registry = adaptcomm_obs::global();
    registry.set_enabled(true);
    // Drift only: every replan of the run is one successful attempt's.
    let drift = run(vec![fault(50.0, 0, 1, 0.2), fault(50.0, 3, 4, 0.25)]);
    let ring = adaptcomm_obs::flight().snapshot();
    let captured = registry.snapshot();
    assert!(drift.reschedules >= 1, "the drift must force a replan");
    assert_eq!(count(&ring, "runtime.replan"), drift.reschedules);
    assert_eq!(count(&captured, "runtime.replan"), drift.reschedules);

    // A link dead until 400 ms: one fault, one heal.
    registry.clear();
    let dead = run(vec![fault(0.0, 2, 4, 1e-9), fault(400.0, 2, 4, 1.0)]);
    registry.set_enabled(false);
    assert_eq!(dead.recovery_events.len(), 1);
    let ring = adaptcomm_obs::flight().snapshot();
    let captured = registry.snapshot();
    for (name, n) in [("runtime.fault", 1), ("runtime.heal", 1)] {
        assert_eq!(count(&ring, name), n, "{name} in the ring");
        assert_eq!(count(&captured, name), n, "{name} in the registry");
    }
}
