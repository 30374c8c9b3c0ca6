//! The closed loop's *decisions*, pinned: the `live-adapt` shape of the
//! e2e benchmark (Mixed, P ∈ {6, 8, 10} × 20 seeds, the CLI's drift,
//! every-event checkpoints, 5 % deviation rule, the retained-plan matching
//! replanner, channel backend) hashed record for record together with
//! what the loop decided. `tied_grid.rs` holds live ≡ `run_adaptive` for
//! the open-shop replanner under an oracle table; this is the regression
//! net for the *matching* replanner fed by the prober's own fits, where
//! there is no simulator twin to compare against.

use adaptcomm_core::algorithms::{MatchingKind, OpenShop, Scheduler};
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_core::fingerprint::Fnv1a;
use adaptcomm_directory::DirectoryService;
use adaptcomm_model::units::Millis;
use adaptcomm_runtime::transport::{expected_receipts, ChannelTransport, Transport};
use adaptcomm_runtime::{AdaptSettings, CheckpointedRun, ReplanTrigger, Replanner};
use adaptcomm_sim::{Fault, ScriptedFaults};
use adaptcomm_workloads::Scenario;

/// `(records digest, reschedules, incremental reschedules)` over the 20
/// seeds of one size. [`CheckpointedRun`] over a [`ChannelTransport`] is
/// what `execute_adaptive(…, BackendKind::Channel, …)` runs; driving it
/// directly keeps `first_replan_checkpoint`, which `RunReport` drops.
fn size_digest(p: usize) -> (u64, usize, usize) {
    let payload_cap = Some(16);
    let mut h = Fnv1a::new();
    let (mut reschedules, mut incremental) = (0, 0);
    for seed in 0..20u64 {
        let inst = Scenario::Mixed.instance(p, seed);
        let sizes = inst.sizes.to_rows();
        let order = OpenShop.send_order(&inst.matrix);
        // The drift `adaptcomm run --adapt` scripts.
        let script = (0..p.div_ceil(3))
            .map(|k| Fault {
                at: Millis::new(10.0),
                src: k,
                dst: (k + 1) % p,
                factor: 0.25,
            })
            .collect();
        let mut drifting = ScriptedFaults::new(inst.network.clone(), script);
        let directory = DirectoryService::new(inst.network.clone());
        let transport = ChannelTransport::new(p);
        let settings = AdaptSettings {
            policy: CheckpointPolicy::EveryEvent,
            trigger: ReplanTrigger::Deviation(RescheduleRule {
                deviation_threshold: 0.05,
            }),
            replanner: Replanner::Matching(MatchingKind::Max),
            payload_cap,
            ..Default::default()
        };
        let report = CheckpointedRun::new(&directory, &sizes, settings)
            .execute(&order.order, &mut drifting, &transport)
            .expect("drift without dead links must complete");
        assert_eq!(transport.receipts(), expected_receipts(&sizes, payload_cap));
        for r in &report.records {
            h.write_u64(r.src as u64);
            h.write_u64(r.dst as u64);
            h.write_u64(r.bytes.as_u64());
            h.write_u64(r.start.as_ms().to_bits());
            h.write_u64(r.finish.as_ms().to_bits());
        }
        h.write_u64(report.reschedules as u64);
        h.write_u64(report.incremental_reschedules as u64);
        h.write_u64(report.first_replan_checkpoint.map_or(0, |n| n as u64));
        reschedules += report.reschedules;
        incremental += report.incremental_reschedules;
    }
    (h.finish(), reschedules, incremental)
}

/// Captured at 5d7b115, before `Replanning` replaced the loop's private
/// copy of the §6.3 decision.
const GOLDEN: [(usize, u64, usize, usize); 3] = [
    (6, 0xafdcb2b1bd1b94bb, 84, 78),
    (8, 0x1ea24210399cca2f, 140, 130),
    (10, 0x36b9cc579915e4dd, 565, 548),
];

#[test]
fn the_closed_loop_with_the_matching_replanner_hashes_to_the_captured_digests() {
    for (p, digest, reschedules, incremental) in GOLDEN {
        let got = size_digest(p);
        assert_eq!(
            got,
            (digest, reschedules, incremental),
            "P={p}: records digest {:#018x} (want {digest:#018x})",
            got.0
        );
    }
}
