//! The experiments of §5, plus the §6 extension studies.

use crate::sweep::{SweepGrid, SweepRunner};
use adaptcomm_core::algorithms::{all_schedulers, Scheduler};
use adaptcomm_core::bounds;
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_core::depgraph;
use adaptcomm_core::execution::execute_steps;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_model::generator::GeneratorConfig;
use adaptcomm_model::units::Millis;
use adaptcomm_model::variation::{VariationConfig, VariationTrace};
use adaptcomm_sim::dynamic::{run_adaptive, AdaptiveConfig};
use adaptcomm_workloads::Scenario;

/// Processor counts used for the figure sweeps ("Systems with up to 50
/// processors were considered").
pub const FIGURE_P_VALUES: [usize; 10] = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50];

/// Trials (random network draws) per data point.
pub const DEFAULT_TRIALS: u64 = 5;

/// One data point of a figure: mean completion time per algorithm at a
/// given processor count.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Number of processors.
    pub p: usize,
    /// `(algorithm name, mean completion)` in scheduler order.
    pub completions: Vec<(&'static str, Millis)>,
    /// Mean lower bound across trials.
    pub lower_bound: Millis,
}

/// A full figure: one row per processor count.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Which scenario the figure shows.
    pub scenario: Scenario,
    /// The data rows.
    pub rows: Vec<FigureRow>,
}

impl FigureTable {
    /// Renders the table as aligned text matching the figure's series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self
            .rows
            .first()
            .map(|r| r.completions.iter().map(|&(n, _)| n).collect())
            .unwrap_or_default();
        out.push_str(&format!("# {}\n", self.scenario.name()));
        out.push_str(&format!("{:>4} ", "P"));
        for n in &names {
            out.push_str(&format!("{n:>14} "));
        }
        out.push_str(&format!("{:>14}\n", "lower-bound"));
        for r in &self.rows {
            out.push_str(&format!("{:>4} ", r.p));
            for &(_, t) in &r.completions {
                out.push_str(&format!("{:>12.1}ms ", t.as_ms()));
            }
            out.push_str(&format!("{:>12.1}ms\n", r.lower_bound.as_ms()));
        }
        out
    }

    /// Renders the table as CSV (`p,alg1,...,lower_bound`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self
            .rows
            .first()
            .map(|r| r.completions.iter().map(|&(n, _)| n).collect())
            .unwrap_or_default();
        out.push_str("p,");
        out.push_str(&names.join(","));
        out.push_str(",lower_bound\n");
        for r in &self.rows {
            out.push_str(&format!("{}", r.p));
            for &(_, t) in &r.completions {
                out.push_str(&format!(",{:.3}", t.as_ms()));
            }
            out.push_str(&format!(",{:.3}\n", r.lower_bound.as_ms()));
        }
        out
    }
}

/// Runs one figure sweep on `runner`: for each `P`, average completion per
/// algorithm over `trials` random networks drawn from `cfg`, e.g.
/// [`GeneratorConfig::default`] (GUSTO-guided) or
/// [`GeneratorConfig::wide_area`] for the §3.2 heterogeneity range.
/// `SweepRunner::serial()` is the reference path.
pub fn run_figure_on(
    scenario: Scenario,
    p_values: &[usize],
    trials: u64,
    cfg: GeneratorConfig,
    runner: &SweepRunner,
) -> FigureTable {
    assert!(trials >= 1, "a figure needs at least one trial per point");
    let grid = SweepGrid::figure(scenario, p_values, trials, cfg);
    let results = runner.run(&grid);
    // Results arrive in grid order (P-major, then trial), so chunking by
    // trial count rebuilds each row's sums in the exact order the old
    // serial loop accumulated them.
    let rows = p_values
        .iter()
        .zip(results.chunks(trials as usize))
        .map(|(&p, chunk)| {
            let schedulers = all_schedulers();
            let mut sums = vec![0.0f64; schedulers.len()];
            let mut lb_sum = 0.0f64;
            for r in chunk {
                debug_assert_eq!(r.point.p, p);
                lb_sum += r.lower_bound_ms;
                for (k, &(_, t)) in r.completions_ms.iter().enumerate() {
                    sums[k] += t;
                }
            }
            FigureRow {
                p,
                completions: schedulers
                    .iter()
                    .enumerate()
                    .map(|(k, s)| (s.name(), Millis::new(sums[k] / trials as f64)))
                    .collect(),
                lower_bound: Millis::new(lb_sum / trials as f64),
            }
        })
        .collect();
    FigureTable { scenario, rows }
}

/// The baseline-vs-best improvement factor of a figure, aggregated over
/// the sweep: `Σ baseline / Σ openshop`. The paper's Figure-12 headline
/// ("2 to 5 times faster than the baseline") corresponds to this factor
/// on the server scenario under wide heterogeneity.
pub fn improvement_factor(table: &FigureTable) -> f64 {
    let mut baseline = 0.0;
    let mut openshop = 0.0;
    for r in &table.rows {
        for &(n, t) in &r.completions {
            match n {
                "baseline" => baseline += t.as_ms(),
                "openshop" => openshop += t.as_ms(),
                _ => {}
            }
        }
    }
    baseline / openshop
}

/// Aggregate lb-ratio statistics per algorithm over a set of instances —
/// the §5 headline numbers ("The open shop algorithm finds schedules that
/// are very close to the lower bound, often within 2%, and always within
/// 10%...").
#[derive(Debug, Clone)]
pub struct SummaryStats {
    /// `(algorithm, mean ratio, worst ratio)`.
    pub ratios: Vec<(&'static str, f64, f64)>,
    /// Number of instances aggregated.
    pub instances: usize,
}

impl SummaryStats {
    /// Renders the summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# completion / lower-bound over {} instances\n{:>14} {:>10} {:>10}\n",
            self.instances, "algorithm", "mean", "worst"
        ));
        for &(name, mean, worst) in &self.ratios {
            out.push_str(&format!("{name:>14} {mean:>10.3} {worst:>10.3}\n"));
        }
        out
    }
}

/// Computes lb-ratio statistics over every figure scenario.
pub fn summary(p_values: &[usize], trials: u64) -> SummaryStats {
    summary_on(p_values, trials, &SweepRunner::default())
}

/// [`summary`] on an explicit [`SweepRunner`].
pub fn summary_on(p_values: &[usize], trials: u64, runner: &SweepRunner) -> SummaryStats {
    let stats = runner.stats(&SweepGrid::summary(p_values, trials));
    SummaryStats {
        ratios: stats
            .per_scheduler
            .iter()
            .map(|&(name, acc)| {
                (
                    name,
                    acc.ratio_sum / stats.instances as f64,
                    acc.ratio_worst,
                )
            })
            .collect(),
        instances: stats.instances,
    }
}

/// Theorem-2 demonstration data: the tightness instance ratio as ε → 0.
pub fn theorem2_series() -> Vec<(f64, f64)> {
    [1e-1, 1e-2, 1e-3, 1e-6]
        .iter()
        .map(|&eps| {
            let m = bounds::theorem2_tightness_instance(eps);
            let t = depgraph::baseline_step_ordered_completion(&m);
            (eps, t.as_ms() / m.lower_bound().as_ms())
        })
        .collect()
}

/// Theorem-3 demonstration data: worst observed open shop ratio over
/// random instances (must stay ≤ 2).
pub fn theorem3_worst_ratio(instances: u64) -> f64 {
    let mut worst: f64 = 0.0;
    for seed in 0..instances {
        let inst = Scenario::Mixed.instance(10 + (seed as usize % 30), seed);
        let s = adaptcomm_core::algorithms::OpenShop.schedule(&inst.matrix);
        worst = worst.max(s.lb_ratio());
    }
    worst
}

/// Barrier ablation: mean ASAP vs barrier completion for the matching
/// schedule across trials. Returns `(asap_mean, barrier_mean)` at each P.
pub fn barrier_ablation(p_values: &[usize], trials: u64) -> Vec<(usize, Millis, Millis)> {
    use adaptcomm_core::algorithms::{MatchingKind, MatchingScheduler};
    let sched = MatchingScheduler::new(MatchingKind::Max);
    p_values
        .iter()
        .map(|&p| {
            let mut asap = 0.0;
            let mut barrier = 0.0;
            for trial in 0..trials {
                let inst = Scenario::Mixed.instance(p, trial * 31 + p as u64);
                let steps = sched.steps(&inst.matrix);
                let order = SendOrder::from_steps(p, &steps);
                asap += adaptcomm_core::execution::execute_listed(&order, &inst.matrix)
                    .completion_time()
                    .as_ms();
                barrier += execute_steps(&steps, &inst.matrix)
                    .completion_time()
                    .as_ms();
            }
            (
                p,
                Millis::new(asap / trials as f64),
                Millis::new(barrier / trials as f64),
            )
        })
        .collect()
}

/// §6.3 adaptivity study: mean makespan under a degrading network for
/// each checkpoint policy. Returns `(policy name, mean makespan, mean
/// reschedules)`.
pub fn adaptivity_study(p: usize, trials: u64) -> Vec<(&'static str, Millis, f64)> {
    let policies: [(&'static str, CheckpointPolicy); 3] = [
        ("never", CheckpointPolicy::Never),
        ("halving", CheckpointPolicy::Halving),
        ("every-event", CheckpointPolicy::EveryEvent),
    ];
    let mut out = Vec::new();
    for (name, policy) in policies {
        let mut makespan_sum = 0.0;
        let mut resched_sum = 0.0;
        for trial in 0..trials {
            let inst = Scenario::Large.instance(p, trial * 131 + 7);
            let order = adaptcomm_core::algorithms::OpenShop.send_order(&inst.matrix);
            let cfg = VariationConfig {
                step: Millis::new(2_000.0),
                volatility: 0.30,
                floor: 0.05,
                ceil: 1.0, // degradation-only drift
            };
            let mut trace = VariationTrace::new(inst.network.clone(), cfg, trial * 17 + 3);
            let sizes = inst.sizes.to_rows();
            let outcome = run_adaptive(
                &order,
                &sizes,
                &mut trace,
                &AdaptiveConfig {
                    policy,
                    rule: RescheduleRule {
                        deviation_threshold: 0.10,
                    },
                    replanner: adaptcomm_sim::dynamic::Replanner::OpenShop,
                },
            );
            makespan_sum += outcome.makespan.as_ms();
            resched_sum += outcome.reschedules as f64;
        }
        out.push((
            name,
            Millis::new(makespan_sum / trials as f64),
            resched_sum / trials as f64,
        ));
    }
    out
}

/// §6.2 incremental-scheduling study: a recurring exchange whose
/// directory estimates degrade link by link, scheduled by max-weight
/// matching three ways: (a) a cold build every cycle, (b)
/// `replan_incremental` from the previous cycle's plan, and (c) the
/// initial order, never updated. Each cycle a fresh run of ⌈P/3⌉ ring
/// links loses three quarters of its bandwidth on top of the earlier
/// cycles (the e2e benchmark's `match-replan` drift), skipping a link
/// that would become the matrix maximum — that shifts every complement
/// cell and forces a full rebuild. Runs `bases` networks (seeds
/// `1..=bases`) and returns `(strategy, mean lb-ratio over every cycle,
/// matching rounds solved)`.
pub fn incremental_study(p: usize, cycles: usize, bases: u64) -> Vec<(&'static str, f64, usize)> {
    use adaptcomm_core::algorithms::{MatchingKind, MatchingScheduler};
    use adaptcomm_core::execution::execute_listed;
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::cost::LinkEstimate;
    use adaptcomm_workloads::SizeMatrix;

    let sizes = SizeMatrix::uniform(p, adaptcomm_model::units::Bytes::MB).to_rows();
    let ratio = |steps: &[Vec<Option<usize>>], m: &CommMatrix| {
        let order = SendOrder::from_steps(p, steps);
        execute_listed(&order, m).completion_time().as_ms() / m.lower_bound().as_ms()
    };
    let sched = MatchingScheduler::new(MatchingKind::Max);
    let (mut cold, mut replan, mut frozen, mut solved) = (0.0, 0.0, 0.0, 0);
    for seed in 1..=bases {
        let mut network = Scenario::Large.instance(p, seed).network;
        let initial = CommMatrix::from_model(&network, &sizes);
        let hi = initial.max_cost().as_ms();
        let first = sched.plan_seeded(&initial, None);
        let mut prev = first.clone();
        for c in 0..cycles {
            let start = (seed as usize + 5 * c) % p;
            let mut taken = 0;
            for j in 0..p {
                if taken == p.div_ceil(3) {
                    break;
                }
                let (src, dst) = ((start + j) % p, (start + j + 1) % p);
                let link = network.estimate(src, dst);
                let slower = LinkEstimate::new(link.startup, link.bandwidth.scaled(0.25));
                if slower.message_time(sizes[src][dst]).as_ms() < hi {
                    network.set_estimate(src, dst, slower);
                    taken += 1;
                }
            }
            let m = CommMatrix::from_model(&network, &sizes);
            cold += ratio(&sched.plan_seeded(&m, None).steps, &m);
            let plan = sched.replan_incremental(&prev, &m);
            replan += ratio(&plan.steps, &m);
            solved += p - plan.spliced_rounds;
            prev = plan;
            frozen += ratio(&first.steps, &m);
        }
    }
    let runs = (bases as usize * cycles) as f64;
    vec![
        ("cold", cold / runs, p * cycles * bases as usize),
        ("replan", replan / runs, solved),
        ("frozen", frozen / runs, 0),
    ]
}

/// Flat-model error study: the framework's `T_ij + m/B_ij` abstraction
/// vs. the fluid topology ground truth (equal-share link division, §3.1)
/// on a two-site metacomputing system. Returns
/// `(P, flat makespan ms, fluid makespan ms)` — the ratio is the price
/// of flattening when a schedule's concurrent transfers share the WAN.
pub fn fluid_gap_study(p_values: &[usize]) -> Vec<(usize, f64, f64)> {
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::topology::Topology;
    use adaptcomm_model::units::{Bandwidth, Bytes};
    use adaptcomm_sim::fluid::run_fluid;
    use adaptcomm_sim::run_static;

    p_values
        .iter()
        .map(|&p| {
            assert!(p >= 2 && p % 2 == 0, "use even P for the two-site layout");
            let topo = Topology::uniform(
                2,
                p / 2,
                (Millis::new(1.0), Bandwidth::from_mbps(100.0)),
                (Millis::new(25.0), Bandwidth::from_mbps(2.0)),
            );
            let flat = topo.to_net_params();
            let sizes: Vec<Vec<Bytes>> = (0..p)
                .map(|s| {
                    (0..p)
                        .map(|d| {
                            if s == d {
                                Bytes::ZERO
                            } else {
                                Bytes::from_kb(200)
                            }
                        })
                        .collect()
                })
                .collect();
            let matrix = CommMatrix::from_model(&flat, &sizes);
            let order = OpenShop.send_order(&matrix);
            let flat_ms = run_static(&order, &flat, &sizes).makespan.as_ms();
            let fluid_ms = run_fluid(&topo, &order, &sizes).makespan.as_ms();
            (p, flat_ms, fluid_ms)
        })
        .collect()
}

/// Renders Tables 1 and 2 (the embedded GUSTO data).
pub fn render_gusto_tables() -> String {
    use adaptcomm_model::gusto::{bandwidth_kbps, latency_ms, Site};
    let mut out = String::new();
    for (title, cell) in [
        ("Table 1: Latency (ms) between 5 GUSTO sites", true),
        ("Table 2: Bandwidth (kbits/s) between 5 GUSTO sites", false),
    ] {
        out.push_str(&format!("# {title}\n{:>9}", ""));
        for s in Site::ALL {
            out.push_str(&format!("{:>9}", s.name()));
        }
        out.push('\n');
        for a in Site::ALL {
            out.push_str(&format!("{:>9}", a.name()));
            for b in Site::ALL {
                if a == b {
                    out.push_str(&format!("{:>9}", "-"));
                } else if cell {
                    out.push_str(&format!("{:>9.1}", latency_ms(a.index(), b.index())));
                } else {
                    out.push_str(&format!("{:>9.0}", bandwidth_kbps(a.index(), b.index())));
                }
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Verifies the reproduction of a figure's *shape* — the paper's
/// qualitative claims, not its absolute numbers:
///
/// * the open shop heuristic wins on aggregate and stays near the lower
///   bound ("often within 2%, and always within 10%" on the authors'
///   draws; we allow a wider band for ours);
/// * max matching is at least competitive with the baseline on aggregate;
/// * on the server scenario (Figure 12) the baseline loses *big* — the
///   paper reports 2–5× there.
///
/// Per-P noise at small `P` is expected (with near-uniform small messages
/// the caterpillar is almost optimal), so aggregates over the sweep are
/// compared. Returns an error string when a claim is violated.
pub fn check_figure_shape(table: &FigureTable) -> Result<(), String> {
    let mut total: std::collections::HashMap<&str, f64> = Default::default();
    let mut lb_total = 0.0;
    for r in &table.rows {
        lb_total += r.lower_bound.as_ms();
        for &(n, t) in &r.completions {
            *total.entry(n).or_default() += t.as_ms();
        }
    }
    let baseline = total["baseline"];
    let openshop = total["openshop"];
    let matching = total["matching-max"];
    if openshop > baseline * 1.02 {
        return Err(format!(
            "{}: openshop ({openshop:.0}) should beat baseline ({baseline:.0}) on aggregate",
            table.scenario.name()
        ));
    }
    if matching > baseline * 1.10 {
        return Err(format!(
            "{}: matching-max ({matching:.0}) should be competitive with baseline ({baseline:.0})",
            table.scenario.name()
        ));
    }
    if openshop > lb_total * 1.30 {
        return Err(format!(
            "{}: openshop ({openshop:.0}) strays too far from the lower bound ({lb_total:.0})",
            table.scenario.name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_figure_with(
        scenario: Scenario,
        p_values: &[usize],
        trials: u64,
        cfg: GeneratorConfig,
    ) -> FigureTable {
        run_figure_on(scenario, p_values, trials, cfg, &SweepRunner::default())
    }

    #[test]
    fn figure_runs_produce_full_tables() {
        let t = run_figure_with(Scenario::Small, &[5, 10], 2, GeneratorConfig::default());
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].completions.len(), 5);
        let text = t.render();
        assert!(text.contains("baseline"));
        assert!(text.contains("openshop"));
        let csv = t.to_csv();
        assert!(csv.starts_with("p,"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn figures_have_the_papers_shape() {
        for scenario in Scenario::FIGURES {
            let t = run_figure_with(scenario, &[10, 20], 3, GeneratorConfig::default());
            check_figure_shape(&t).unwrap();
        }
    }

    #[test]
    fn wide_heterogeneity_reproduces_the_big_figure_12_gap() {
        // Under the §3.2 bandwidth range (kb/s to hundreds of Mb/s) the
        // oblivious baseline collapses on the server workload — the
        // paper's "2 to 5 times faster" claim. Our default baseline
        // semantics (blocking sendrecv) shows ≥1.7× at the top of the
        // sweep; the stricter barrier semantics (below) lands inside the
        // paper's band outright.
        let t = run_figure_with(
            Scenario::Servers,
            &[40, 50],
            3,
            GeneratorConfig::wide_area(),
        );
        check_figure_shape(&t).unwrap();
        let factor = improvement_factor(&t);
        assert!(
            factor >= 1.7,
            "expected a ≥1.7× baseline gap under wide heterogeneity, got {factor:.2}"
        );
    }

    #[test]
    fn barrier_baseline_lands_in_the_papers_ratio_band() {
        // "The schedules generated by the baseline algorithm sometimes
        // take upto 6 times longer than the lower bound": with
        // barrier-synchronized step execution on wide heterogeneity the
        // baseline ratio sits in the 2–6 band at P = 50.
        use adaptcomm_core::algorithms::Baseline;
        let mut worst: f64 = 0.0;
        for trial in 0..3u64 {
            let inst = Scenario::Servers.instance_with(
                50,
                trial * 7919 + 50,
                GeneratorConfig::wide_area(),
            );
            let lb = inst.matrix.lower_bound().as_ms();
            let t = execute_steps(&Baseline::steps(50), &inst.matrix)
                .completion_time()
                .as_ms();
            worst = worst.max(t / lb);
        }
        assert!(
            (2.0..=6.5).contains(&worst),
            "barrier baseline worst ratio {worst:.2} outside the paper's band"
        );
    }

    #[test]
    fn summary_ratios_match_paper_bands() {
        let s = summary(&[10, 20, 30], 2);
        let get = |name: &str| s.ratios.iter().find(|r| r.0 == name).unwrap();
        // Paper: open shop within 10% of lb (we allow a little slack for
        // our random draws), matchings ~15%, greedy ~25%, baseline up to
        // several ×.
        let (_, os_mean, os_worst) = *get("openshop");
        assert!(os_mean < 1.12, "open shop mean ratio {os_mean}");
        assert!(os_worst <= 2.0 + 1e-9, "Theorem 3: {os_worst}");
        let (_, bl_mean, bl_worst) = *get("baseline");
        assert!(bl_mean > os_mean, "baseline must trail open shop");
        assert!(bl_worst > 1.3, "baseline should be visibly bad somewhere");
        let (_, greedy_mean, _) = *get("greedy");
        assert!(greedy_mean < 1.6, "greedy mean ratio {greedy_mean}");
    }

    #[test]
    fn theorem_series() {
        let t2 = theorem2_series();
        assert!((t2.last().unwrap().1 - 2.0).abs() < 1e-3, "ratio → P/2 = 2");
        let worst = theorem3_worst_ratio(20);
        assert!((1.0..=2.0 + 1e-9).contains(&worst));
    }

    #[test]
    fn gusto_tables_render() {
        let t = render_gusto_tables();
        assert!(t.contains("USC-ISI"));
        assert!(t.contains("4976"));
        assert!(t.contains("89.5"));
    }

    #[test]
    fn adaptivity_study_reports_all_policies() {
        let rows = adaptivity_study(6, 2);
        assert_eq!(rows.len(), 3);
        let never = rows.iter().find(|r| r.0 == "never").unwrap();
        assert_eq!(never.2, 0.0, "never-policy cannot reschedule");
    }

    #[test]
    fn fluid_gap_grows_with_wan_contention() {
        let rows = fluid_gap_study(&[4, 8]);
        for (p, flat, fluid) in &rows {
            assert!(fluid >= flat, "P={p}: fluid {fluid} < flat {flat}?");
        }
        // More nodes per site → more concurrent WAN flows → bigger gap.
        let gap = |r: &(usize, f64, f64)| r.2 / r.1;
        assert!(
            gap(&rows[1]) >= gap(&rows[0]) - 0.05,
            "contention gap should not shrink with P"
        );
    }

    #[test]
    fn barrier_ablation_runs() {
        let rows = barrier_ablation(&[6, 10], 2);
        assert_eq!(rows.len(), 2);
        for (_, asap, barrier) in rows {
            assert!(asap.as_ms() > 0.0 && barrier.as_ms() > 0.0);
        }
    }
}
