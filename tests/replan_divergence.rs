//! §6.2 replans under drift: why exact splicing cannot halve a replan
//! at P = 64, and what the dual-gap certificate keeps instead.
//!
//! `replan_within(prev, m, gap)` keeps the longest prefix of rounds
//! whose repaired duals certify the retained matching within `gap` of
//! the round's weight, and re-solves the rest; `replan_incremental`
//! passes `REPLAN_GAP`. These tests drive it with the e2e benchmark's
//! `match-replan` drift shape: per step, a fresh run of ⌈P/3⌉ ring links
//! loses three quarters of its bandwidth, on top of the previous steps,
//! skipping any link whose new cost would become the matrix maximum
//! (that forces a full rebuild).
//!
//! * Two tier-1 tests pin what the replan rests on: at gap 0, two
//!   successive `Mixed` replans equal cold plans of the drifted matrices
//!   step for step; at `REPLAN_GAP`, every kept round of six chained
//!   replans, re-solved exactly under the same deletion set, loses no
//!   more than its certified gap.
//! * The ignored test reprints the two tables EXPERIMENTS.md quotes
//!   (30 `Mixed` and 30 `Servers` replans, five bases each with six
//!   drift steps):
//!
//!   ```sh
//!   cargo test --release --test replan_divergence -- --ignored --nocapture
//!   ```
//!
//!   The divergence table measures, against the plan an exact replan
//!   starts from, where the cold plan of the drifted matrix first
//!   differs, how many of its rows differ in each later round, whether
//!   the cumulative deletion sets (every edge matched so far) ever agree
//!   again before the last round forces them to, and how often a round
//!   reproduces its retained matching while those sets still differ —
//!   which is why "stop when a repaired round reproduces its retained
//!   matching" is unsound. The ε table runs each chain at gap ε and
//!   reports the rounds kept, the replan time against cold builds, and
//!   the completion time against the cold plan's.

use adaptcomm::lap::{hungarian, DenseCost};
use adaptcomm::model::cost::LinkEstimate;
use adaptcomm::prelude::*;
use adaptcomm::scheduling::algorithms::{MatchingPlan, REPLAN_GAP};
use adaptcomm::scheduling::execution::execute_listed;
use std::time::Instant;

const P: usize = 64;
const DRIFT_FACTOR: f64 = 0.25;
const STEPS: usize = 6;

/// SplitMix64: the start of each step's drifted link run.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The base matrix of `scenario` at `p` processors and `seed`, and the
/// matrices after each of `STEPS` accumulating drift steps.
fn drifted(scenario: Scenario, p: usize, seed: u64) -> (CommMatrix, Vec<CommMatrix>) {
    let inst = scenario.instance(p, seed);
    let sizes = inst.sizes.to_rows();
    let hi = inst.matrix.max_cost().as_ms();
    let mut network = inst.network.clone();
    let mut rng = seed;
    let steps = (0..STEPS)
        .map(|_| {
            let start = (next(&mut rng) % p as u64) as usize;
            let mut taken = 0;
            for j in 0..p {
                if taken == p.div_ceil(3) {
                    break;
                }
                let (src, dst) = ((start + j) % p, (start + j + 1) % p);
                let link = network.estimate(src, dst);
                let slower = LinkEstimate::new(link.startup, link.bandwidth.scaled(DRIFT_FACTOR));
                if slower.message_time(sizes[src][dst]).as_ms() < hi {
                    network.set_estimate(src, dst, slower);
                    taken += 1;
                }
            }
            CommMatrix::from_model(&network, &sizes)
        })
        .collect();
    (inst.matrix, steps)
}

#[test]
fn successive_replans_equal_cold_plans_on_a_mixed_instance() {
    let max = MatchingScheduler::new(MatchingKind::Max);
    let (base, steps) = drifted(Scenario::Mixed, P, 1);
    let mut prev = max.plan_seeded(&base, None);
    for (k, m) in steps.iter().take(2).enumerate() {
        let replan = max.replan_within(&prev, m, 0.0);
        assert_eq!(replan.disposition, "incremental", "step {k}");
        let cold = max.plan_seeded(m, None);
        assert_eq!(replan.steps, cold.steps, "step {k}");
        prev = replan;
    }
}

/// The weight of round `r` of `plan` on `m`, and the best weight any
/// complete matching avoiding the edges of rounds `0..r` reaches — the
/// optimum of an exact re-solve of the round, by the Hungarian solver
/// (independent of the Jonker–Volgenant solver whose duals the plan
/// retains).
fn round_and_optimum(
    kind: MatchingKind,
    plan: &MatchingPlan,
    m: &CommMatrix,
    r: usize,
) -> (f64, f64) {
    let p = m.len();
    let sign = match kind {
        MatchingKind::Max => -1.0,
        MatchingKind::Min => 1.0,
    };
    let big = (p as f64 + 1.0) * (m.max_cost().as_ms() + 1.0);
    let mut deleted = vec![false; p * p];
    for step in &plan.steps[..r] {
        for (s, d) in step.iter().enumerate() {
            deleted[s * p + d.expect("complete step")] = true;
        }
    }
    let costs = DenseCost::from_fn(p, |s, d| match deleted[s * p + d] {
        true => big,
        false => sign * m.row(s)[d],
    });
    let weight = (plan.steps[r].iter().enumerate())
        .map(|(s, d)| m.row(s)[d.expect("complete step")])
        .sum();
    (weight, sign * hungarian::solve(&costs).cost)
}

#[test]
fn every_kept_round_is_within_its_certified_gap() {
    const P: usize = 32;
    let (mut kept, mut uncertain) = (0, 0);
    for kind in [MatchingKind::Max, MatchingKind::Min] {
        let sched = MatchingScheduler::new(kind);
        for scenario in [Scenario::Mixed, Scenario::Servers] {
            for seed in 1..=2 {
                let (base, steps) = drifted(scenario, P, seed);
                let mut prev = sched.plan_seeded(&base, None);
                for (k, m) in steps.iter().enumerate() {
                    let plan = sched.replan_incremental(&prev, m);
                    assert_eq!(plan.disposition, "incremental");
                    let (mut loss, mut weight) = (0.0, 0.0);
                    for r in 0..plan.spliced_rounds {
                        let (w, best) = round_and_optimum(kind, &plan, m, r);
                        let lost = match kind {
                            MatchingKind::Max => best - w,
                            MatchingKind::Min => w - best,
                        };
                        let why = format!("{kind:?} {scenario:?} seed {seed} step {k} round {r}");
                        assert!(
                            lost <= REPLAN_GAP * w + 1e-9 * w,
                            "{why}: lost {lost} of {w}"
                        );
                        loss += lost;
                        weight += w;
                    }
                    let why = format!("{kind:?} {scenario:?} seed {seed} step {k}");
                    let tol = 1e-9 * weight;
                    assert!(
                        loss <= plan.certified_gap + tol,
                        "{why}: lost {loss}, certified {}",
                        plan.certified_gap
                    );
                    assert!(plan.certified_gap <= REPLAN_GAP * weight + tol, "{why}");
                    kept += plan.spliced_rounds;
                    uncertain += (plan.certified_gap > 0.0) as usize;
                    prev = plan;
                }
            }
        }
    }
    // Not vacuous: rounds were kept, some of them with a nonzero gap.
    assert!(
        kept > 0 && uncertain > 0,
        "kept {kept}, uncertain {uncertain}"
    );
}

/// How the cold plan of a drifted matrix diverges from the plan the
/// replan started from.
struct Divergence {
    /// First round whose matching differs (`None`: identical plans).
    first: Option<usize>,
    /// Rows that differ, per round after `first`.
    later: Vec<usize>,
    /// Whether the cumulative deletion sets agree again after `first`,
    /// before the last round.
    reagree: bool,
    /// Rounds after `first` that reproduce the old matching while the
    /// deletion sets entering them differ.
    reproduced: Vec<usize>,
}

fn divergence(old: &MatchingPlan, new: &MatchingPlan) -> Divergence {
    let p = old.steps.len();
    // `held[e]`: +1 if only the old plan has deleted edge e, −1 if only
    // the new; `differ` counts the nonzero entries.
    let mut held = vec![0i8; p * p];
    let mut differ = 0usize;
    let mut out = Divergence {
        first: None,
        later: Vec::new(),
        reagree: false,
        reproduced: Vec::new(),
    };
    for r in 0..p {
        let rows = (0..p)
            .filter(|&s| old.steps[r][s] != new.steps[r][s])
            .count();
        if let Some(first) = out.first {
            if r > first {
                out.later.push(rows);
                if rows == 0 && differ > 0 {
                    out.reproduced.push(r);
                }
            }
        } else if rows > 0 {
            out.first = Some(r);
        }
        for s in 0..p {
            for (dst, side) in [(old.steps[r][s], 1i8), (new.steps[r][s], -1)] {
                let e = &mut held[s * p + dst.expect("complete step")];
                let was = *e != 0;
                *e += side;
                differ = differ + (*e != 0) as usize - was as usize;
            }
        }
        if out.first.is_some_and(|f| r >= f) && r + 1 < p && differ == 0 {
            out.reagree = true;
        }
    }
    out
}

fn median(v: &mut [usize]) -> usize {
    v.sort_unstable();
    v[v.len() / 2]
}

#[test]
#[ignore = "prints the §6.2 divergence and ε tables; run in release"]
fn divergence_table() {
    let max = MatchingScheduler::new(MatchingKind::Max);
    println!(
        "scenario | replans | spliced median / max | zero-splice | first diff median \
         | rows differing per later round (median) | deletion sets re-agree | reproduced while differing \
         | replan == cold | Σ replan ms | Σ cold ms"
    );
    for scenario in [Scenario::Mixed, Scenario::Servers] {
        let (mut spliced, mut firsts) = (Vec::new(), Vec::new());
        let (mut rows, mut reagree, mut equal) = (Vec::new(), 0, 0);
        let mut reproduced = Vec::new();
        let (mut t_replan, mut t_cold) = (0.0, 0.0);
        for seed in 1..=5 {
            let (base, steps) = drifted(scenario, P, seed);
            let mut prev = max.plan_seeded(&base, None);
            for (k, m) in steps.iter().enumerate() {
                let t0 = Instant::now();
                let replan = max.replan_within(&prev, m, 0.0);
                let t1 = Instant::now();
                let cold = max.plan_seeded(m, None);
                t_replan += (t1 - t0).as_secs_f64() * 1e3;
                t_cold += t1.elapsed().as_secs_f64() * 1e3;
                assert_eq!(replan.disposition, "incremental");
                spliced.push(replan.spliced_rounds);
                equal += (replan.steps == cold.steps) as usize;
                let d = divergence(&prev, &cold);
                firsts.push(d.first.unwrap_or(P));
                if !d.later.is_empty() {
                    rows.push(median(&mut d.later.clone()));
                }
                reagree += d.reagree as usize;
                reproduced.extend(d.reproduced.iter().map(|&r| (seed, k, r)));
                prev = replan;
            }
        }
        let n = spliced.len();
        println!(
            "{scenario:?} | {n} | {} / {} | {} of {n} | {} | {}–{} of {P} | {reagree} of {n} \
             | {} round(s) {:?} | {equal} of {n} | {t_replan:.0} | {t_cold:.0}",
            median(&mut spliced.clone()),
            spliced.iter().max().unwrap(),
            spliced.iter().filter(|&&s| s == 0).count(),
            median(&mut firsts),
            rows.iter().min().unwrap(),
            rows.iter().max().unwrap(),
            reproduced.len(),
            &reproduced[..reproduced.len().min(3)],
        );
    }
    epsilon_table(&max);
}

/// Each `(scenario, ε)` row replans the same 30 chains as the divergence
/// table at gap ε: the median rounds kept, Σ replan time over Σ cold
/// build time, and the replan's completion time against the cold plan's
/// (mean and range).
fn epsilon_table(max: &MatchingScheduler) {
    const EPSILONS: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.10];
    println!();
    println!("scenario | ε | rounds kept (median of {P}) | Σ replan / Σ cold | completion vs cold: mean (range)");
    for scenario in [Scenario::Mixed, Scenario::Servers] {
        let chains: Vec<_> = (1..=5).map(|seed| drifted(scenario, P, seed)).collect();
        // The cold plans do not depend on ε: time and execute them once.
        let mut t_cold = 0.0;
        let cold: Vec<Vec<f64>> = (chains.iter())
            .map(|(_, steps)| {
                (steps.iter())
                    .map(|m| {
                        let t0 = Instant::now();
                        let plan = max.plan_seeded(m, None);
                        t_cold += t0.elapsed().as_secs_f64();
                        completion(&plan, m)
                    })
                    .collect()
            })
            .collect();
        for eps in EPSILONS {
            let (mut kept, mut rel, mut t_replan) = (Vec::new(), Vec::new(), 0.0);
            for ((base, steps), cold) in chains.iter().zip(&cold) {
                let mut prev = max.plan_seeded(base, None);
                for (m, cold) in steps.iter().zip(cold) {
                    let t0 = Instant::now();
                    let replan = max.replan_within(&prev, m, eps);
                    t_replan += t0.elapsed().as_secs_f64();
                    kept.push(replan.spliced_rounds);
                    rel.push(completion(&replan, m) / cold - 1.0);
                    prev = replan;
                }
            }
            let mean = rel.iter().sum::<f64>() / rel.len() as f64;
            let (lo, hi) = rel
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            println!(
                "{scenario:?} | {:.1} % | {} | {:.2} | {:+.1} % ({:+.1} … {:+.1} %)",
                eps * 100.0,
                median(&mut kept),
                t_replan / t_cold,
                mean * 100.0,
                lo * 100.0,
                hi * 100.0,
            );
        }
    }
}

fn completion(plan: &MatchingPlan, m: &CommMatrix) -> f64 {
    let order = SendOrder::from_steps(m.len(), &plan.steps);
    execute_listed(&order, m).completion_time().as_ms()
}
