//! Cross-validation of the two replan triggers (ISSUE 5).
//!
//! The detector trigger ([`ReplanTrigger::Detector`]) must be at least
//! as reactive as the deviation rule on injected drift — it watches
//! individual links, so one collapsed link shows up before aggregate
//! progress slips — and must never fire on a run that matches its plan:
//! with a frozen network the engine realizes exactly the modeled
//! `T + bits/B` durations, so every CUSUM input is identically zero.

use adaptcomm_core::algorithms::{OpenShop, Scheduler};
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_directory::DirectoryService;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_runtime::channel::FrozenNetwork;
use adaptcomm_runtime::transport::ChannelTransport;
use adaptcomm_runtime::{AdaptSettings, CheckpointedRun, ReplanTrigger};
use adaptcomm_sim::{Fault, ScriptedFaults};
use proptest::prelude::*;

fn hetero_net(p: usize) -> NetParams {
    NetParams::from_fn(p, |src, dst| {
        LinkEstimate::new(
            Millis::new(2.0 + (src * p + dst) as f64 * 0.41),
            Bandwidth::from_kbps(500.0 + (src * 29 + dst * 23) as f64 * 11.0),
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
                    } else if (s * 7 + d) % 4 == 0 {
                        Bytes::from_kb(200)
                    } else {
                        Bytes::from_kb(20)
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the same drift scenario once under `trigger` and reports
/// `(first_replan_checkpoint, reschedules)`.
fn run_drift(p: usize, factor: f64, at: f64, trigger: ReplanTrigger) -> (Option<usize>, usize) {
    let net = hetero_net(p);
    let sz = sizes(p);
    let lists = OpenShop
        .send_order(&CommMatrix::from_model(&net, &sz))
        .order;
    // The same deterministic injection the CLI's `run --drift` uses:
    // a few links lose bandwidth at a fixed modeled instant.
    let script: Vec<Fault> = (0..p.div_ceil(3))
        .map(|k| Fault {
            at: Millis::new(at),
            src: k,
            dst: (k + 1) % p,
            factor,
        })
        .collect();
    let mut evolution = ScriptedFaults::new(net.clone(), script);
    let directory = DirectoryService::new(net);
    let transport = ChannelTransport::new(p);
    let driver = CheckpointedRun::new(
        &directory,
        &sz,
        AdaptSettings {
            policy: CheckpointPolicy::EveryEvent,
            trigger,
            payload_cap: Some(64),
            ..Default::default()
        },
    );
    let report = driver
        .execute(&lists, &mut evolution, &transport)
        .expect("drift without faults must complete");
    (report.first_replan_checkpoint, report.reschedules)
}

#[test]
fn detector_detects_injected_drift_no_later_than_the_deviation_rule() {
    // Defaults on both sides: the detector's SLIP_CUSUM is calibrated
    // against the default 15 % deviation rule. Scenarios mirror the
    // CLI's `run --adapt --drift` injection across P, severity, and
    // drift instant.
    for &(p, factor, at) in &[
        (6, 0.25, 0.0),
        (8, 0.25, 10.0),
        (8, 0.15, 10.0),
        (8, 0.4, 50.0),
        (10, 0.2, 10.0),
    ] {
        let deviation = ReplanTrigger::Deviation(RescheduleRule::default());
        let detector = ReplanTrigger::Detector;
        let (dev_first, _) = run_drift(p, factor, at, deviation);
        let (det_first, det_replans) = run_drift(p, factor, at, detector);
        let det_first = det_first.expect("the detector must notice this drift");
        assert!(det_replans >= 1);
        // "No later": at the same checkpoint or earlier — and a drift
        // the deviation rule misses entirely counts as earlier.
        if let Some(dev_first) = dev_first {
            assert!(
                det_first <= dev_first,
                "P={p} factor={factor} at={at}: detector first replanned at \
                 checkpoint {det_first}, after the deviation rule's {dev_first}"
            );
        }
    }
}

#[test]
fn detector_catches_a_late_single_link_collapse_the_deviation_rule_misses() {
    // Links that collapse mid-run at P=6 drag only the tail of the
    // exchange: aggregate progress never slips 15 %, so the deviation
    // rule stays silent, but the per-link CUSUM sees the slow transfers
    // themselves.
    let (dev_first, dev_replans) = run_drift(
        6,
        0.2,
        10.0,
        ReplanTrigger::Deviation(RescheduleRule::default()),
    );
    assert_eq!((dev_first, dev_replans), (None, 0));
    let (det_first, det_replans) = run_drift(6, 0.2, 10.0, ReplanTrigger::Detector);
    assert!(det_first.is_some() && det_replans >= 1);
}

#[test]
fn detector_is_quiet_on_the_drift_free_version_of_the_same_scenario() {
    let (first, replans) = run_drift(6, 1.0, 10.0, ReplanTrigger::Detector);
    assert_eq!(first, None);
    assert_eq!(replans, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Zero false fires: over random heterogeneous instances on a frozen
    /// network, the detector trigger never replans — realized durations
    /// equal their plan exactly, so no evidence can accumulate.
    #[test]
    fn detector_never_replans_a_stationary_run(
        p in 2usize..=8,
        entries in proptest::collection::vec((1.0f64..40.0, 100.0f64..4_000.0, 1u64..150), 64),
    ) {
        let net = NetParams::from_fn(p, |s, d| {
            let (t, b, _) = entries[s * 8 + d];
            LinkEstimate::new(Millis::new(t), Bandwidth::from_kbps(b))
        });
        let sz: Vec<Vec<Bytes>> = (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else {
                            Bytes::from_kb(entries[s * 8 + d].2)
                        }
                    })
                    .collect()
            })
            .collect();
        let lists = OpenShop.send_order(&CommMatrix::from_model(&net, &sz)).order;
        let mut evolution = FrozenNetwork(net.clone());
        let directory = DirectoryService::new(net);
        let transport = ChannelTransport::new(p);
        let driver = CheckpointedRun::new(
            &directory,
            &sz,
            AdaptSettings {
                policy: CheckpointPolicy::EveryEvent,
                trigger: ReplanTrigger::Detector,
                payload_cap: Some(64),
                ..Default::default()
            },
        );
        let report = driver
            .execute(&lists, &mut evolution, &transport)
            .expect("a frozen network cannot fault");
        prop_assert_eq!(report.reschedules, 0, "stationary run must never replan");
        prop_assert_eq!(report.first_replan_checkpoint, None);
        prop_assert!(report.checkpoints_evaluated > 0);
    }
}
