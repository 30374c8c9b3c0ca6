//! End-to-end integration: directory → workload → scheduler → simulator.

use adaptcomm::directory::load::{CompetingFlow, LoadInjector};
use adaptcomm::directory::DirectoryService;
use adaptcomm::model::variation::{VariationConfig, VariationTrace};
use adaptcomm::prelude::*;
use adaptcomm::scheduling::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm::sim::dynamic::{run_adaptive, AdaptiveConfig, Replanner};
use adaptcomm::sim::run_static;

#[test]
fn directory_to_schedule_to_simulation_round_trip() {
    // A directory serving the GUSTO snapshot under background load.
    let clean = adaptcomm::model::gusto::gusto_params();
    let mut injector = LoadInjector::new();
    injector.add_flow(CompetingFlow {
        src: 1,
        dst: 4,
        intensity: 2,
    });
    let directory = DirectoryService::new(clean);
    directory.publish(injector.apply(directory.snapshot().params()));

    // Application side: query, build the matrix, schedule, execute.
    let snapshot = directory.snapshot();
    let sizes = SizeMatrix::uniform(snapshot.params().len(), Bytes::MB);
    let matrix = CommMatrix::from_model(snapshot.params(), &sizes.to_rows());
    // The background load is visible: the (1,4) transfer costs ~3× its
    // clean-network time (intensity 2 → bandwidth ÷ 3).
    let clean_matrix =
        CommMatrix::from_model(&adaptcomm::model::gusto::gusto_params(), &sizes.to_rows());
    assert!(matrix.cost(1, 4).as_ms() > 2.5 * clean_matrix.cost(1, 4).as_ms());
    for scheduler in all_schedulers() {
        let schedule = scheduler.schedule(&matrix);
        schedule.validate().unwrap();
        let run = run_static(
            &scheduler.send_order(&matrix),
            snapshot.params(),
            &sizes.to_rows(),
        );
        assert_eq!(run.records.len(), 5 * 4);
    }
}

#[test]
fn simulator_and_analytic_execution_agree_for_every_scenario() {
    for scenario in Scenario::FIGURES {
        let inst = scenario.instance(9, 4);
        let sizes = inst.sizes.to_rows();
        for scheduler in all_schedulers() {
            let order = scheduler.send_order(&inst.matrix);
            let analytic = adaptcomm::scheduling::execution::execute_listed(&order, &inst.matrix);
            let simulated = run_static(&order, &inst.network, &sizes);
            assert!(
                (analytic.completion_time().as_ms() - simulated.makespan.as_ms()).abs() < 1e-6,
                "{} on {}: {} vs {}",
                scheduler.name(),
                scenario.name(),
                analytic.completion_time(),
                simulated.makespan
            );
        }
    }
}

#[test]
fn adaptive_execution_beats_oblivious_on_average_under_degradation() {
    let inst = Scenario::Large.instance(10, 3);
    let order = OpenShop.send_order(&inst.matrix);
    let sizes = inst.sizes.to_rows();
    let drift = VariationConfig {
        step: Millis::new(1_000.0),
        volatility: 0.35,
        floor: 0.05,
        ceil: 1.0,
    };
    let mut adaptive_total = 0.0;
    let mut oblivious_total = 0.0;
    for seed in 0..10 {
        let mut t1 = VariationTrace::new(inst.network.clone(), drift, seed);
        oblivious_total += run_adaptive(&order, &sizes, &mut t1, &AdaptiveConfig::oblivious())
            .makespan
            .as_ms();
        let mut t2 = VariationTrace::new(inst.network.clone(), drift, seed);
        adaptive_total += run_adaptive(
            &order,
            &sizes,
            &mut t2,
            &AdaptiveConfig {
                policy: CheckpointPolicy::EveryEvent,
                rule: RescheduleRule {
                    deviation_threshold: 0.10,
                },
                replanner: Replanner::default(),
            },
        )
        .makespan
        .as_ms();
    }
    assert!(
        adaptive_total < oblivious_total,
        "adaptive {adaptive_total} should beat oblivious {oblivious_total} on average"
    );
}

#[test]
fn trace_driven_directory_feeds_incremental_scheduler() {
    use adaptcomm::scheduling::incremental::IncrementalScheduler;
    let base = adaptcomm::model::gusto::gusto_params();
    let trace = VariationTrace::new(base.clone(), VariationConfig::default(), 11);
    let directory = DirectoryService::with_trace(trace);
    let sizes = SizeMatrix::uniform(5, Bytes::MB).to_rows();
    let initial = CommMatrix::from_model(directory.snapshot().params(), &sizes);
    let mut inc = IncrementalScheduler::new(OpenShop, initial);
    for cycle in 1..=5 {
        directory.advance_clock(Millis::new(cycle as f64 * 10_000.0));
        let matrix = CommMatrix::from_model(directory.snapshot().params(), &sizes);
        let (schedule, _action) = inc.update(matrix);
        schedule.validate().unwrap();
    }
    let (kept, repaired, recomputed) = inc.stats();
    assert_eq!(kept + repaired + recomputed, 6); // initial compute + 5 updates
}

#[test]
fn facade_prelude_exposes_the_whole_workflow() {
    // Compile-time check that the prelude is sufficient for the README
    // workflow, plus a smoke run.
    let network = NetParams::uniform(4, Millis::new(10.0), Bandwidth::from_kbps(1_000.0));
    let matrix = CommMatrix::uniform_message(&network, Bytes::KB);
    let schedule = OpenShop.schedule(&matrix);
    assert!(schedule.validate().is_ok());
    let art = TimingDiagram::of_schedule(&schedule).render(10);
    assert!(art.contains("P0"));
    let order: SendOrder = OpenShop.send_order(&matrix);
    assert_eq!(order.processors(), 4);
    let ev: &ScheduledEvent = &schedule.events()[0];
    assert!(ev.start.as_ms() >= 0.0);
    let s: Schedule = Baseline.schedule(&matrix);
    assert!(s.lb_ratio() >= 1.0);
    let _ = (Greedy, MatchingScheduler::new(MatchingKind::Max));
}
