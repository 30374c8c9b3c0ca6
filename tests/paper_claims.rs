//! The paper's §5 quantitative claims, verified end to end over random
//! GUSTO-guided instances. Absolute numbers cannot match a 1998 testbed;
//! these tests pin the *shape*: who wins, by what kind of factor, and
//! that the theoretical guarantees hold everywhere.
//!
//! The instance grid is evaluated through the parallel [`SweepRunner`],
//! whose per-instance seeds are derived from grid coordinates — the same
//! engine (and therefore the same numbers) the `figures` binary and the
//! CLI `sweep` subcommand use.

use adaptcomm::prelude::*;
use adaptcomm::scheduling::bounds;
use adaptcomm::scheduling::depgraph;
use adaptcomm::scheduling::reduction::{gonzalez_sahni_two_machine, OpenShopInstance};
use adaptcomm_bench::sweep::{InstanceResult, SweepGrid, SweepRunner};
use adaptcomm_model::generator::GeneratorConfig;

/// The claim grid: every figure scenario × four processor counts × three
/// trials, with the historical `trial * 37 + p` seed family.
fn claim_grid() -> SweepGrid {
    SweepGrid {
        scenarios: Scenario::FIGURES.to_vec(),
        p_values: vec![10, 20, 35, 50],
        trials: 3,
        cfg: GeneratorConfig::default(),
        seed_fn: |_, p, trial| trial * 37 + p as u64,
    }
}

fn claim_results() -> Vec<InstanceResult> {
    SweepRunner::default().run(&claim_grid())
}

/// Collects lb-ratios of one scheduler over evaluated instances.
fn ratios(name: &str, results: &[InstanceResult]) -> Vec<f64> {
    results
        .iter()
        .map(|r| {
            r.ratio(name)
                .unwrap_or_else(|| panic!("unknown scheduler {name}"))
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

#[test]
fn openshop_is_closest_to_the_lower_bound() {
    // Paper: "often within 2%, and always within 10%". Our random draws
    // differ from the authors'; we hold open shop to a mean within 5%
    // and a worst case within the Theorem-3 guarantee.
    let results = claim_results();
    let os = ratios("openshop", &results);
    assert!(mean(&os) < 1.05, "open shop mean ratio {}", mean(&os));
    assert!(max(&os) <= 2.0 + 1e-9, "Theorem 3 violated: {}", max(&os));

    // And it is the best algorithm on aggregate.
    for other in ["baseline", "matching-max", "matching-min", "greedy"] {
        let r = ratios(other, &results);
        assert!(
            mean(&os) <= mean(&r) + 1e-9,
            "open shop ({}) lost to {other} ({})",
            mean(&os),
            mean(&r)
        );
    }
}

#[test]
fn matchings_and_greedy_sit_between_openshop_and_baseline() {
    // Paper bands: matchings within ~15% of lb, greedy within ~25%.
    let results = claim_results();
    let mm = mean(&ratios("matching-max", &results));
    let greedy = mean(&ratios("greedy", &results));
    let baseline = mean(&ratios("baseline", &results));
    assert!(mm < 1.20, "matching-max mean ratio {mm}");
    assert!(greedy < 1.30, "greedy mean ratio {greedy}");
    assert!(
        baseline > mm,
        "baseline ({baseline}) should trail matching ({mm})"
    );
}

#[test]
fn sweep_results_are_thread_count_invariant() {
    // The acceptance property of the parallel engine: the same grid run
    // serially and with several workers must produce bit-identical
    // per-instance results (coordinate-derived seeds, grid-order
    // reassembly).
    let grid = claim_grid();
    let serial = SweepRunner::serial().run(&grid);
    let threaded = SweepRunner::new(4).run(&grid);
    assert_eq!(serial, threaded);
}

#[test]
fn baseline_is_the_clear_loser_and_degrades_with_p() {
    // The baseline's mean ratio grows with P on the server workload —
    // the visual signature of Figure 12.
    let grid = SweepGrid {
        scenarios: vec![Scenario::Servers],
        p_values: vec![10, 50],
        trials: 4,
        cfg: GeneratorConfig::default(),
        seed_fn: |_, _, trial| trial,
    };
    let results = SweepRunner::default().run(&grid);
    let ratio_at = |p: usize| {
        let at_p: Vec<InstanceResult> =
            results.iter().filter(|r| r.point.p == p).cloned().collect();
        mean(&ratios("baseline", &at_p))
    };
    let r10 = ratio_at(10);
    let r50 = ratio_at(50);
    assert!(
        r50 > r10 + 0.15,
        "baseline ratio should grow with P: {r10} at P=10 vs {r50} at P=50"
    );
}

#[test]
fn theorem_2_bound_holds_and_is_tight() {
    // Bound on random instances.
    for scenario in Scenario::FIGURES {
        for seed in 0..5u64 {
            let m = scenario.instance(12, seed).matrix;
            let t = depgraph::baseline_step_ordered_completion(&m).as_ms();
            let bound = bounds::baseline_bound_factor(12) * m.lower_bound().as_ms();
            assert!(t <= bound + 1e-6);
        }
    }
    // Tightness on the paper's ε-instance.
    let m = bounds::theorem2_tightness_instance(1e-9);
    let ratio = depgraph::baseline_step_ordered_completion(&m).as_ms() / m.lower_bound().as_ms();
    assert!((ratio - 2.0).abs() < 1e-6);
}

/// Theorem 1's reduction, checked against the exact 2-machine open shop
/// optimum (Gonzalez & Sahni 1976).
#[test]
fn scheduling_the_reduction_solves_the_open_shop() {
    let i = OpenShopInstance::new(vec![vec![3.0, 5.0], vec![4.0, 1.0], vec![2.0, 6.0]]);
    let c = i.to_comm_matrix();
    let schedule = OpenShop.schedule(&c);
    schedule.validate().unwrap();
    // Filler events are free, so the schedule's completion time *is*
    // the open shop makespan.
    let makespan = schedule.completion_time().as_ms();
    let optimum = gonzalez_sahni_two_machine(&i);
    assert!(
        makespan >= optimum - 1e-9,
        "no schedule can beat the GS optimum"
    );
    assert!(
        makespan <= 2.0 * optimum + 1e-9,
        "Theorem 3 carries over through the reduction"
    );
    // No filler event outlasts the real ones.
    let n = i.jobs();
    let real = schedule.events().iter().filter(|e| e.src < n && e.dst >= n);
    let last_real = real.map(|e| e.finish.as_ms()).fold(0.0, f64::max);
    assert_eq!(makespan, last_real);
}

#[test]
fn heuristic_achieves_the_two_machine_optimum_often() {
    // Across random 2-machine instances the list heuristic hits the
    // GS optimum in the majority of cases (it is only guaranteed 2×).
    let mut hits = 0;
    let total = 20;
    for seed in 0..total {
        let inst = OpenShopInstance::new(
            (0..5)
                .map(|j| {
                    (0..2)
                        .map(|i| ((j * 7 + i * 13 + seed * 31) % 9 + 1) as f64)
                        .collect()
                })
                .collect(),
        );
        let sched = OpenShop.schedule(&inst.to_comm_matrix());
        let makespan = sched.completion_time().as_ms();
        if (makespan - gonzalez_sahni_two_machine(&inst)).abs() < 1e-9 {
            hits += 1;
        }
    }
    assert!(
        hits * 2 > total,
        "heuristic optimal in only {hits}/{total} cases"
    );
}

#[test]
fn scheduling_cost_scales_as_documented() {
    // O(P³) algorithms must stay well under the O(P⁴) matching for the
    // same instance — a coarse complexity smoke test at P=50 (exact
    // wall-time scaling is measured by the Criterion benches).
    use std::time::Instant;
    let m = Scenario::Mixed.instance(50, 1).matrix;
    let t_open = {
        let start = Instant::now();
        let _ = OpenShop.schedule(&m);
        start.elapsed()
    };
    let t_match = {
        let start = Instant::now();
        let _ = MatchingScheduler::new(MatchingKind::Max).schedule(&m);
        start.elapsed()
    };
    // Both complete quickly; no strict ratio (machine noise), just sanity.
    assert!(t_open.as_millis() < 2_000);
    assert!(t_match.as_millis() < 10_000);
}
