//! Integration tests for the explain plane: the causal DAG must agree
//! with the simulator bit-for-bit, what-if projections must be sound
//! (monotone, zero off the critical path, and at least half-realized
//! under re-simulation), and capture diffing must report a clean run
//! as clean.

use adaptcomm::obs::causal::diff_captures;
use adaptcomm::obs::Snapshot;
use adaptcomm::prelude::*;
use adaptcomm::scheduling::analyze::{apply_speedup, dag_of};
use adaptcomm::scheduling::execution::execute_listed;
use adaptcomm::sim::run_static;

/// Property: on random GUSTO-derived matrices across every scenario and
/// every scheduler, the DAG's completion equals the analytic simulator's
/// bit-exactly, and the critical-path contributions telescope to it.
#[test]
fn critical_path_explains_completion_for_every_scheduler() {
    for scenario in Scenario::FIGURES {
        for p in [5, 12, 32] {
            for seed in [1, 7] {
                let inst = scenario.instance(p, seed);
                for scheduler in all_schedulers() {
                    let order = scheduler.send_order(&inst.matrix);
                    let schedule = execute_listed(&order, &inst.matrix);
                    let dag = dag_of(&schedule);
                    let label = format!(
                        "{} on {} P={p} seed={seed}",
                        scheduler.name(),
                        scenario.name()
                    );
                    assert_eq!(
                        dag.completion_ms(),
                        schedule.completion_time().as_ms(),
                        "DAG completion must be bit-exact: {label}"
                    );
                    let telescoped: f64 =
                        dag.critical_path().iter().map(|s| s.contribution_ms).sum();
                    assert_eq!(
                        telescoped,
                        schedule.completion_time().as_ms(),
                        "critical path must explain all of the makespan: {label}"
                    );
                    // Critical events carry zero slack; every slack is finite.
                    let slack = dag.slack();
                    assert!(slack.iter().all(|s| s.is_finite() && *s >= 0.0), "{label}");
                }
            }
        }
    }
}

/// Acceptance (P = 8): the explained critical path matches the
/// discrete-event simulator, and the top what-if intervention survives
/// re-simulation with at least half its predicted improvement.
#[test]
fn p8_acceptance_path_is_exact_and_top_what_if_is_realized() {
    let inst = Scenario::Mixed.instance(8, 4);
    let order = OpenShop.send_order(&inst.matrix);
    let schedule = execute_listed(&order, &inst.matrix);
    let dag = dag_of(&schedule);

    // Bit-exact against the analytic executor; within float noise of the
    // discrete-event simulator (they accumulate in different orders).
    assert_eq!(dag.completion_ms(), schedule.completion_time().as_ms());
    let sim = run_static(&order, &inst.network, &inst.sizes.to_rows());
    assert!(
        (dag.completion_ms() - sim.makespan.as_ms()).abs() < 1e-6,
        "DAG {} vs simulator {}",
        dag.completion_ms(),
        sim.makespan
    );

    // Top-ranked intervention: speed one link 2x, re-simulate for real.
    let top = dag.interventions(2.0, 1);
    assert!(
        !top.is_empty(),
        "a nonzero makespan must offer interventions"
    );
    let w = top[0];
    assert!(w.delta_ms > 0.0);
    let resim = execute_listed(&order, &apply_speedup(&inst.matrix, w.src, w.dst, 2.0));
    let realized = schedule.completion_time().as_ms() - resim.completion_time().as_ms();
    assert!(
        realized >= 0.5 * w.delta_ms - 1e-9,
        "link {}->{}: predicted {} ms, realized {realized} ms",
        w.src,
        w.dst,
        w.delta_ms
    );
}

/// What-if projections are monotone in the speedup factor and exactly
/// zero for links carrying no critical-path time.
#[test]
fn what_if_is_monotone_and_zero_off_the_critical_path() {
    let inst = Scenario::Mixed.instance(8, 4);
    let schedule = OpenShop.schedule(&inst.matrix);
    let dag = dag_of(&schedule);
    let blame = dag.blame();
    let hot = blame
        .links
        .first()
        .expect("nonempty run has a hottest link");

    let mut last = 0.0;
    for k in [1.5, 2.0, 4.0] {
        let w = dag.what_if(hot.src, hot.dst, k);
        assert!(
            w.delta_ms >= last - 1e-9,
            "delta must not shrink as the speedup grows: k={k}"
        );
        assert!(w.delta_ms >= 0.0 && w.predicted_ms <= dag.completion_ms() + 1e-9);
        last = w.delta_ms;
    }

    // A link with zero blame cannot shorten the run.
    let on_path: std::collections::HashSet<(usize, usize)> =
        blame.links.iter().map(|l| (l.src, l.dst)).collect();
    let off = dag
        .transfers()
        .iter()
        .map(|t| (t.src, t.dst))
        .find(|key| !on_path.contains(key))
        .expect("P=8 all-to-all has off-path links");
    let w = dag.what_if(off.0, off.1, 4.0);
    assert_eq!(w.delta_ms, 0.0, "off-path link {off:?} must project zero");
}

/// The committed capture fixtures — two captures of the same run — must
/// parse, analyze, and diff to zero regressions (the `obs-diff`
/// acceptance criterion).
#[test]
fn committed_captures_self_diff_to_zero() {
    let base = Snapshot::from_jsonl(include_str!("data/explain_base.jsonl")).unwrap();
    let head = Snapshot::from_jsonl(include_str!("data/explain_head.jsonl")).unwrap();

    let transfers = adaptcomm::obs::causal::transfers_from_snapshot(&base);
    assert!(!transfers.is_empty(), "fixture must hold transfer spans");
    let dag = adaptcomm::obs::causal::CausalDag::new(transfers);
    assert!(dag.completion_ms() > 0.0);

    let diff = diff_captures(&base, &head);
    assert!(
        diff.worst_regression().is_none(),
        "identical captures must not regress: {:?}",
        diff.worst_regression()
    );
    assert!(diff.render().contains("no regressions"));
}
