//! The LAP kernel's oracle: a golden digest of everything the matching
//! scheduler hands out.
//!
//! Uniform-size instances are symmetric, so every matching round has
//! tied optima and the Jonker–Volgenant search order picks the plan. A
//! kernel change that alters a comparison, its order or a tie outcome
//! therefore moves a step here, and one that changes how much work the
//! search does moves a counter. Each cell folds, with FNV-1a, every
//! public output of `plan_seeded(m, None)` — steps, seed potentials,
//! round-1 stats and the summed work counters — and of a three-step
//! `replan_incremental` chain after the `match-replan` drift shape,
//! whose kept prefix and certified gap read the private per-round duals.
//!
//! `P = 17` sits just above the candidate-cache depth, so the cache
//! paths run; `P = 48` is large enough for the `Servers` phase-4 searches
//! to dominate. A rewrite of the kernel's hot loops must leave every
//! constant as it is; a change that moves one changes plans or work, and
//! needs a stated tie rule before its constants are re-captured.

use adaptcomm::lap::SolveStats;
use adaptcomm::model::cost::LinkEstimate;
use adaptcomm::prelude::*;
use adaptcomm::scheduling::algorithms::MatchingPlan;
use adaptcomm::scheduling::fingerprint::Fnv1a;

const REPLANS: usize = 3;

/// `(scenario, P, kind, digest)`.
const GOLDEN: [(&str, usize, &str, u64); 16] = [
    ("fig09-small-1kB", 17, "max", 0xab40a64c38c91288),
    ("fig09-small-1kB", 17, "min", 0x6b93a2534a95264b),
    ("fig09-small-1kB", 48, "max", 0x26f80fa06652628e),
    ("fig09-small-1kB", 48, "min", 0x9a6df1c5ae8489ed),
    ("fig10-large-1MB", 17, "max", 0x660d8a8c7e5d67dd),
    ("fig10-large-1MB", 17, "min", 0x6c6c659273829073),
    ("fig10-large-1MB", 48, "max", 0x503eb8565d7182ca),
    ("fig10-large-1MB", 48, "min", 0x7d9a7079550371e8),
    ("fig11-mixed", 17, "max", 0x423f6fde2d098a3a),
    ("fig11-mixed", 17, "min", 0xe6459859ce24da83),
    ("fig11-mixed", 48, "max", 0x98e0feeb8d519136),
    ("fig11-mixed", 48, "min", 0x46f8fd07abee4c28),
    ("fig12-servers", 17, "max", 0x4f812a7a4d502856),
    ("fig12-servers", 17, "min", 0xb57b9f7bd11687c4),
    ("fig12-servers", 48, "max", 0xe26c8ddbe60cc04d),
    ("fig12-servers", 48, "min", 0x36ae3cb0aa5997ea),
];

fn fold_stats(h: &mut Fnv1a, s: &SolveStats) {
    for w in [
        u64::from(s.warm),
        s.aug_paths,
        s.col_scans,
        s.fast_exits,
        s.worker_scans,
        s.arr_steps,
        s.relaxed_cells,
    ] {
        h.fold_word(w);
    }
}

fn fold_plan(h: &mut Fnv1a, plan: &MatchingPlan) {
    for step in &plan.steps {
        for dst in step {
            h.fold_word(dst.map_or(u64::MAX, |d| d as u64));
        }
    }
    for v in &plan.seed_potentials {
        h.fold_word(v.to_bits());
    }
    fold_stats(h, &plan.round1);
    for w in [
        plan.total_col_scans,
        plan.total_arr_steps,
        plan.total_relaxed_cells,
        plan.spliced_rounds as u64,
        plan.certified_gap.to_bits(),
    ] {
        h.fold_word(w);
    }
    h.write(plan.disposition.as_bytes());
}

/// SplitMix64: the start of each drift step's link run.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `REPLANS` accumulating drift steps: per step a run of ⌈P/3⌉ ring
/// links loses three quarters of its bandwidth, skipping any link whose
/// cost would become the matrix maximum (a full rebuild).
fn drifted(scenario: Scenario, p: usize, seed: u64) -> (CommMatrix, Vec<CommMatrix>) {
    let inst = scenario.instance(p, seed);
    let sizes = inst.sizes.to_rows();
    let hi = inst.matrix.max_cost().as_ms();
    let mut network = inst.network.clone();
    let mut rng = seed;
    let steps = (0..REPLANS)
        .map(|_| {
            let start = (next(&mut rng) % p as u64) as usize;
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
            CommMatrix::from_model(&network, &sizes)
        })
        .collect();
    (inst.matrix, steps)
}

fn digest(scenario: Scenario, p: usize, kind: MatchingKind) -> u64 {
    let (base, chain) = drifted(scenario, p, 42 + p as u64);
    let sched = MatchingScheduler::new(kind);
    let mut h = Fnv1a::new();
    let mut plan = sched.plan_seeded(&base, None);
    fold_plan(&mut h, &plan);
    for m in &chain {
        plan = sched.replan_incremental(&plan, m);
        assert_eq!(plan.disposition, "incremental");
        fold_plan(&mut h, &plan);
    }
    h.finish()
}

#[test]
fn matching_plans_and_their_work_match_the_golden_digests() {
    let mut moved = Vec::new();
    for (name, p, kind, want) in GOLDEN {
        let scenario = Scenario::FIGURES
            .into_iter()
            .find(|s| s.name() == name)
            .expect("a figure scenario");
        let k = if kind == "max" {
            MatchingKind::Max
        } else {
            MatchingKind::Min
        };
        let got = digest(scenario, p, k);
        if got != want {
            moved.push(format!("    ({name:?}, {p}, {kind:?}, {got:#018x}),"));
        }
    }
    assert!(
        moved.is_empty(),
        "plans or solver work moved:\n{}",
        moved.join("\n")
    );
}
