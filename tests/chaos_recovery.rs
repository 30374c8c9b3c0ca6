//! Acceptance tests for the chaos harness (ISSUE 6): each fault class —
//! processor crash, network partition, lying link — is injected into
//! the P = 8 mixed all-to-all personalized exchange, and the closed
//! loop must recover within the documented SLO (completion within
//! `SLO_FACTOR` × the fault-free makespan) without losing or
//! duplicating a single message (FNV receipt verification). A frozen
//! fault-free network is the control: zero recovery events, zero
//! quarantines.

use adaptcomm::chaos::{fault_free_makespan, run_chaos, run_plan, ChaosPlan, SLO_FACTOR};
use adaptcomm::prelude::*;
use adaptcomm::runtime::transport::expected_receipts;

const P: usize = 8;
const SEED: u64 = 3;

fn workload() -> (NetParams, Vec<Vec<Bytes>>) {
    let inst = Scenario::Mixed.instance(P, SEED);
    (inst.network, inst.sizes.to_rows())
}

fn grade(class: &str) -> adaptcomm::chaos::ChaosReport {
    let (net, sizes) = workload();
    let horizon = fault_free_makespan(&net, &sizes).expect("the control run is fault-free");
    let plan = ChaosPlan::generate(class, P, SEED, horizon).expect("a named class generates");
    run_chaos(&net, &sizes, &plan).expect("the loop must recover from injected faults")
}

#[test]
fn a_processor_crash_recovers_within_the_slo() {
    let report = grade("crash");
    assert!(
        report.slo_ok(),
        "crash recovery blew the SLO: {}",
        report.slo_line()
    );
    assert!(
        report.receipts_ok,
        "crash recovery lost or duplicated messages"
    );
    assert!(
        report.attempts >= 2,
        "a crash mid-collective must force recovery"
    );
    assert!(
        report.faults.iter().any(|f| f.kind == "crash"),
        "the recovery report must classify the fault as a crash, got {:?}",
        report.faults
    );
    assert!(
        report
            .faults
            .iter()
            .any(|f| f.recovery_ms.is_some_and(|t| t > 0.0)),
        "recovery time must be measured"
    );
}

#[test]
fn a_network_partition_recovers_within_the_slo() {
    let report = grade("partition");
    assert!(
        report.slo_ok(),
        "partition recovery blew the SLO: {}",
        report.slo_line()
    );
    assert!(
        report.receipts_ok,
        "partition recovery lost or duplicated messages"
    );
    assert!(report.attempts >= 2, "a partition must force recovery");
    assert!(
        report.faults.iter().any(|f| f.kind == "partition"),
        "the recovery report must classify the fault as a partition, got {:?}",
        report.faults
    );
}

#[test]
fn a_lying_link_is_quarantined_and_never_prices_a_replan() {
    let report = grade("liar");
    assert!(
        report.slo_ok(),
        "lying-link run blew the SLO: {}",
        report.slo_line()
    );
    assert!(report.receipts_ok, "a lying link must not lose messages");
    assert!(
        !report.quarantined.is_empty(),
        "the trust cross-check must quarantine the liar"
    );
    let (net, sizes) = workload();
    let horizon = fault_free_makespan(&net, &sizes).unwrap();
    let plan = ChaosPlan::generate("liar", P, SEED, horizon).unwrap();
    let lied = plan
        .events
        .iter()
        .find_map(|e| match e {
            adaptcomm::chaos::ChaosEvent::LyingLink { src, dst, .. } => Some((*src, *dst)),
            _ => None,
        })
        .expect("the liar class injects a lying link");
    assert!(
        report.quarantined.contains(&lied),
        "the quarantined link {:?} must be the one that lied ({lied:?})",
        report.quarantined
    );
}

#[test]
fn the_mixed_scenario_survives_all_three_fault_classes_at_once() {
    let report = grade("mixed");
    assert!(
        report.slo_ok(),
        "mixed-chaos recovery blew the SLO: {}",
        report.slo_line()
    );
    assert!(
        report.receipts_ok,
        "mixed chaos lost or duplicated messages"
    );
    assert!(
        !report.quarantined.is_empty(),
        "the mixed scenario's liar must be quarantined"
    );
    assert!(
        !report.faults.is_empty(),
        "the mixed scenario's crash and partition must surface as recovery events"
    );
    // The documented SLO factor is 3x (DESIGN.md §11); fail loudly if
    // someone quietly relaxes it.
    const _: () = assert!(SLO_FACTOR == 3.0);
}

/// The control: a frozen, fault-free network under the identical chaos
/// settings shows zero recovery events, zero quarantines, one attempt.
#[test]
fn a_fault_free_network_shows_zero_recoveries_and_zero_quarantines() {
    let (net, sizes) = workload();
    let (report, receipts) =
        run_plan(&net, &sizes, &ChaosPlan::empty(P)).expect("fault-free must complete");
    assert_eq!(report.attempts, 1);
    assert!(
        report.recovery_events.is_empty(),
        "no faults, no recoveries"
    );
    assert!(report.retried_links.is_empty(), "no faults, no retries");
    assert!(
        report.quarantined_links.is_empty(),
        "honest reporting never quarantines"
    );
    assert_eq!(receipts, expected_receipts(&sizes, None));
}
