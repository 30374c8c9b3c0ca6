//! Each closed-loop event is recorded once.
//!
//! The runtime notes every replan, fault and heal on the always-on
//! flight recorder. With the global registry enabled the note is also a
//! registry instant, and the registry mirrors its instants into the
//! flight ring — so the note must be committed through the registry, not
//! beside it, or the ring holds every event twice. Every delivered
//! transfer is one `transfer` span, on the registry's clock and on its
//! sender's transfer track, across every attempt. This file is its own
//! test binary: the registry and the ring are process-global.

use adaptcomm_core::algorithms::{OpenShop, Scheduler};
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_directory::DirectoryService;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_obs::causal::TRANSFER_TRACKS;
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

/// `captured` holds exactly one `transfer` span per record of `report`,
/// each starting at or after `t0_us` on its sender's transfer track, and
/// no transfer track carries any other span or instant.
fn assert_one_span_per_record(captured: &Snapshot, report: &AdaptReport, t0_us: u64) {
    let transfers: Vec<_> = captured.spans().filter(|s| s.name == "transfer").collect();
    let mut spanned: Vec<(u64, u64)> = transfers
        .iter()
        .map(|s| {
            let attr = |key: &str| match s.attrs.iter().find(|(k, _)| k == key) {
                Some((_, adaptcomm_obs::AttrValue::U64(v))) => *v,
                other => panic!("transfer span without a {key} attr: {other:?}"),
            };
            assert!(s.start_us >= t0_us, "{s:?} starts before the run");
            assert_eq!(s.tid, TRANSFER_TRACKS + attr("src"), "{s:?}");
            (attr("src"), attr("dst"))
        })
        .collect();
    let mut recorded: Vec<(u64, u64)> = report
        .records
        .iter()
        .map(|r| (r.src as u64, r.dst as u64))
        .collect();
    spanned.sort_unstable();
    recorded.sort_unstable();
    assert_eq!(spanned, recorded, "one transfer span per record");
    let tracks: Vec<u64> = transfers.iter().map(|s| s.tid).collect();
    let others = captured
        .spans()
        .filter(|s| s.name != "transfer")
        .map(|s| (s.name.as_str(), s.tid))
        .chain(captured.instants().map(|i| (i.name.as_str(), i.tid)));
    for (name, tid) in others {
        assert!(!tracks.contains(&tid), "{name} on transfer track {tid}");
    }
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
    let t0_us = registry.now_us();
    let drift = run(vec![fault(50.0, 0, 1, 0.2), fault(50.0, 3, 4, 0.25)]);
    let ring = adaptcomm_obs::flight().snapshot();
    let captured = registry.snapshot();
    assert!(drift.reschedules >= 1, "the drift must force a replan");
    assert_eq!(count(&ring, "runtime.replan"), drift.reschedules);
    assert_eq!(count(&captured, "runtime.replan"), drift.reschedules);
    assert_one_span_per_record(&captured, &drift, t0_us);

    // A link dead until 400 ms: one fault, one heal, several attempts.
    registry.clear();
    let t0_us = registry.now_us();
    let dead = run(vec![fault(0.0, 2, 4, 1e-9), fault(400.0, 2, 4, 1.0)]);
    registry.set_enabled(false);
    assert_eq!(dead.recovery_events.len(), 1);
    assert!(dead.attempts >= 2, "the dead link forces a retry");
    let ring = adaptcomm_obs::flight().snapshot();
    let captured = registry.snapshot();
    assert_one_span_per_record(&captured, &dead, t0_us);
    for (name, n) in [("runtime.fault", 1), ("runtime.heal", 1)] {
        assert_eq!(count(&ring, name), n, "{name} in the ring");
        assert_eq!(count(&captured, name), n, "{name} in the registry");
    }
}
