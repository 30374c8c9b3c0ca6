//! Matching-based scheduling (§4.3) with §6 incremental rescheduling.
//!
//! Construct a bipartite graph with `P` senders on the left, `P`
//! receivers on the right, and edge weights equal to the communication
//! costs. A complete matching is a permutation — a valid contention-free
//! communication step. The algorithm repeatedly extracts a maximum-weight
//! (or minimum-weight) complete matching and deletes its edges, producing
//! `P` steps that partition all `P²` events. Each matching is a linear
//! assignment problem solved by [`adaptcomm_lap`]; the rounds share a
//! warm-started solver state, so only the first solve pays the full
//! `O(P³)` cold cost — successive rounds re-augment from the retained
//! dual potentials (near-`O(P²)` per round in practice, `O(P⁴)`
//! worst-case overall versus the old always-cold `O(P⁴)` typical cost).
//!
//! The intuition for *maximum* matchings: grouping the long events
//! together in the same step keeps them from serializing behind each
//! other later, reducing idle cycles. The paper finds minimum matchings
//! perform comparably.
//!
//! # Incremental rescheduling (§6)
//!
//! The paper observes that when link estimates drift mid-run, the
//! schedule need not be rebuilt from scratch. A [`MatchingPlan`]
//! retains, per round, the dual solution the solver ended the round
//! with: column potentials `v_r` and row potentials `u_r`, with
//! `u_r[s] + v_r[d] ≤ w(s, d)` on every cell still live in round `r`
//! (`w` is the minimized work matrix: `hi − c` for `Max`, `c` for `Min`).
//! Given a changed matrix, [`MatchingScheduler::replan_within`] repairs
//! each round's duals and measures a **duality gap** per round:
//!
//! * for each changed cell `(s, d)` still live in round `r`, lower
//!   `u_r[s]` to `w'(s, d) − v_r[d]`, which makes the duals feasible for
//!   the new matrix again;
//! * `gap_r = Σ_s (w'(s, x_r(s)) − v_r[x_r(s)] − u_r[s])` is then the
//!   retained matching's cost minus a lower bound on the new optimum, so
//!   a re-solve of round `r` under the same deletion set can gain at most
//!   `gap_r` weight over the retained matching.
//!
//! That costs `O(P + |Δ|)` per round and no LAP solve. The replan keeps
//! the longest prefix of rounds with `gap_r ≤ gap · weight_r` (the
//! retained matching's weight under the new costs), splices it verbatim
//! — kept rounds keep the deletion sets identical, so each later round's
//! certificate still applies — and re-solves the rest, warm-started from
//! the last kept round's `v`, on the work matrix rebuilt from the new
//! costs. [`MatchingScheduler::replan_incremental`] does this at
//! [`REPLAN_GAP`].
//!
//! **Invariant.** Every round of a plan is within `gap · weight_r` of
//! the optimum under its deletion set, and [`MatchingPlan::certified_gap`]
//! sums the certified gaps of the kept rounds. Kept rounds retain their
//! *repaired* `u`, so a chain of replans stays sound: the gap a round
//! carries accumulates across replans until it crosses the bound and the
//! round is re-solved (deriving `u` afresh from a matrix the potentials
//! never certified would under-state it). At `gap = 0` the test is the
//! exact optimality certificate: on tie-free instances the replan is
//! then bit-identical to a cold re-solve of the mutated matrix. A
//! matched cell whose work cost fell keeps its round, because the
//! retained matching stays optimal.

use super::Scheduler;
use crate::matrix::CommMatrix;
use crate::schedule::SendOrder;
use adaptcomm_lap::{solve_min_warm_par, DenseCost, Duals, SolveStats};
use std::sync::Mutex;

/// The certified duality gap a replan lets a kept round carry, as a
/// share of the round's weight: every round of a replanned plan is
/// within 1 % of the optimum under its deletion set. The tests' exact
/// reference is [`MatchingScheduler::replan_within`] at `0.0`.
pub const REPLAN_GAP: f64 = 0.01;

/// A matching construction together with the reuse surface for
/// cross-job warm starts and §6 incremental replans: the instance it
/// was built for and the per-round dual solutions that certify each
/// round. Produced by [`MatchingScheduler::plan_seeded`] and
/// [`MatchingScheduler::replan_within`]; a plan cache stores the whole
/// plan and feeds it back when a similar job arrives.
#[derive(Debug, Clone)]
pub struct MatchingPlan {
    /// The permutation steps, as from [`MatchingScheduler::steps`].
    pub steps: Vec<Vec<Option<usize>>>,
    /// Column potentials of the *work matrix* after round 1 — the
    /// warm-start seed to retain for future jobs on similar matrices.
    pub seed_potentials: Vec<f64>,
    /// Solver counters for the first round actually solved (round 1 on
    /// a full build; the first re-solved round on an incremental replan).
    pub round1: SolveStats,
    /// Total column scans across the rounds actually solved.
    pub total_col_scans: u64,
    /// Total augmenting-row-reduction row-steps across the rounds
    /// actually solved ([`SolveStats::arr_steps`]).
    pub total_arr_steps: u64,
    /// Total phase-4 relaxed cells across the rounds actually solved
    /// ([`SolveStats::relaxed_cells`]).
    pub total_relaxed_cells: u64,
    /// How the plan was produced: `"cold"` (full unseeded build),
    /// `"warm"` (full build seeded from retained potentials),
    /// `"incremental"` (a certified prefix kept, the rest re-solved —
    /// possibly nothing) or `"hit"` (nothing changed; the previous plan
    /// replayed verbatim).
    pub disposition: &'static str,
    /// Rounds spliced verbatim from the previous plan (`0` on a full
    /// build, `P` on a pure replay).
    pub spliced_rounds: usize,
    /// The summed certified gaps of the kept rounds (`0` on a full
    /// build): a re-solve of every kept round under its deletion set
    /// gains at most this much weight in total. Summed round by round in
    /// fixed row order, so it is bit-identical at any thread count.
    pub certified_gap: f64,
    /// The instance the plan was built for, retained so a replan can
    /// diff the new matrix against it.
    matrix: CommMatrix,
    /// Each round's dual solution: the certificate a replan repairs, and
    /// the warm-start state for resuming the round loop mid-construction.
    duals: RoundDuals,
}

/// Every round's duals on the work matrix, `P` values per round, round
/// after round: in round `r`, `u[s] + v[d]` is at most the cell's cost
/// on every cell still live in the round, with equality on the round's
/// matching up to the certified gap.
#[derive(Debug, Clone, Default)]
struct RoundDuals {
    u: Vec<f64>,
    v: Vec<f64>,
}

impl RoundDuals {
    /// Round `r`'s `(u, v)`, for `p` processors.
    fn round(&self, r: usize, p: usize) -> (&[f64], &[f64]) {
        (&self.u[r * p..(r + 1) * p], &self.v[r * p..(r + 1) * p])
    }
}

impl MatchingPlan {
    /// The instance this plan was built for.
    pub fn matrix(&self) -> &CommMatrix {
        &self.matrix
    }

    /// The number of processors the plan covers.
    pub fn processors(&self) -> usize {
        self.steps.len()
    }
}

/// Whether each round extracts the maximum- or minimum-weight matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchingKind {
    /// Maximum-weight complete matchings (the paper's primary variant).
    Max,
    /// Minimum-weight complete matchings.
    Min,
}

/// The matching-based scheduler.
///
/// The scheduler retains the last plan it produced (behind a mutex, so
/// shared `&self` access stays possible): a repeated [`Scheduler::send_order`]
/// call on the same matrix replays the plan, and a call on a
/// same-dimension changed matrix goes through
/// [`MatchingScheduler::replan_incremental`] instead of a cold build.
/// Cloning a scheduler clones its configuration, not its retained plan.
#[derive(Debug)]
pub struct MatchingScheduler {
    kind: MatchingKind,
    threads: usize,
    retained: Mutex<Option<MatchingPlan>>,
}

impl Clone for MatchingScheduler {
    fn clone(&self) -> Self {
        MatchingScheduler {
            kind: self.kind,
            threads: self.threads,
            retained: Mutex::new(None),
        }
    }
}

/// What one run of the round loop reports: its first solve's stats
/// and the work counters summed over all its solves.
#[derive(Debug, Clone, Copy, Default)]
struct RoundLoopStats {
    first: SolveStats,
    col_scans: u64,
    arr_steps: u64,
    relaxed_cells: u64,
}

impl MatchingScheduler {
    /// Creates a scheduler extracting matchings of the given kind.
    pub fn new(kind: MatchingKind) -> Self {
        Self::with_threads(kind, 1)
    }

    /// Like [`MatchingScheduler::new`], but sharding each cold LAP
    /// solve's column-reduction scans across `threads` workers (see
    /// [`adaptcomm_lap::solve_min_warm_par`]); results are bit-identical at
    /// any thread count.
    pub fn with_threads(kind: MatchingKind, threads: usize) -> Self {
        MatchingScheduler {
            kind,
            threads: threads.max(1),
            retained: Mutex::new(None),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The sequence of permutation steps (including self-send slots),
    /// exposed for the barrier-execution ablation. Always a full cold
    /// construction — retained state is neither consulted nor updated.
    ///
    /// Exactly `P` steps are produced; together they partition all `P²`
    /// sender/receiver pairs. After `k` deletions every vertex has degree
    /// `P−k`, and a `(P−k)`-regular bipartite graph always contains a
    /// perfect matching (König), so a matching avoiding deleted edges
    /// always exists; deleted edges carry a sentinel weight that makes
    /// them strictly worse than any valid matching. Deletion is tracked
    /// by an explicit boolean mask, not by comparing against the sentinel
    /// weight — a real cost may sit arbitrarily close to the sentinel
    /// (CommMatrix only guarantees finite, non-negative entries), so a
    /// float-tolerance check could both miss reuse and fire spuriously.
    ///
    /// # Large-`P` fast path
    ///
    /// The `P` rounds share one warm-started LAP state
    /// ([`adaptcomm_lap::Duals`]): each round's solve reuses the column
    /// potentials and scratch buffers of the previous round instead of
    /// re-running the full Jonker–Volgenant reduction phases cold. The
    /// max-weight variant minimizes the *complement* matrix `hi − c`,
    /// built once and edited in place with compacted live-cell tracking
    /// (deleted cells leave the scan stream entirely). Both edits only
    /// *raise* entries (a deleted edge becomes strictly worse), which is
    /// exactly the perturbation shape warm starts absorb cheaply — the
    /// monotone-edit contract ([`Duals::assume_monotone_edits`] plus
    /// per-cell [`Duals::note_cost_increase`]) lets the solver keep its
    /// candidate caches across rounds. The original cold-per-round
    /// formulation is retained as `matching_steps` in
    /// `tests/reference/mod.rs`, and `tests/reference_equiv.rs`
    /// property-tests that it emits identical steps.
    pub fn steps(&self, matrix: &CommMatrix) -> Vec<Vec<Option<usize>>> {
        self.plan_seeded(matrix, None).steps
    }

    /// The plan for `matrix`, consulting and updating the retained
    /// plan: an identical matrix replays the retained plan (`"hit"`), a
    /// same-dimension changed matrix pays only the rounds after its
    /// certified prefix (`"incremental"`), anything else is a full
    /// build. This is what [`Scheduler::send_order`] uses.
    pub fn plan(&self, matrix: &CommMatrix) -> MatchingPlan {
        self.with_plan(matrix, MatchingPlan::clone)
    }

    /// [`MatchingScheduler::plan`], lending the retained plan to `f`
    /// instead of copying it out: a replay then allocates and frees one
    /// plan, not two.
    fn with_plan<T>(&self, matrix: &CommMatrix, f: impl FnOnce(&MatchingPlan) -> T) -> T {
        let mut slot = self.retained.lock().unwrap();
        let plan = match slot.as_ref() {
            Some(prev) if prev.processors() == matrix.len() => {
                self.replan_incremental(prev, matrix)
            }
            _ => self.plan_seeded(matrix, None),
        };
        f(slot.insert(plan))
    }

    /// The deletion sentinel written into the work matrix: matching the
    /// cold reference bit-for-bit, deletion writes `∓big` into the
    /// *weights*, so the min-complement holds `hi − (−big) = hi + big`
    /// (Max) or `big` (Min) for deleted edges.
    fn deleted_weight(&self, p: usize, hi: f64) -> f64 {
        // Sentinel strictly dominating any complete matching built from
        // real edges.
        let big = (p as f64 + 1.0) * (hi + 1.0);
        match self.kind {
            MatchingKind::Max => hi + big,
            MatchingKind::Min => big,
        }
    }

    /// The pristine work matrix: the original weights for Min, the
    /// complement `hi − c` for Max — always *minimized*.
    fn pristine_complement(&self, matrix: &CommMatrix, hi: f64) -> DenseCost {
        let p = matrix.len();
        match self.kind {
            MatchingKind::Max => DenseCost::from_fn(p, |src, dst| hi - matrix.row(src)[dst]),
            MatchingKind::Min => DenseCost::from_fn(p, |src, dst| matrix.row(src)[dst]),
        }
    }

    /// Runs rounds `start..p` of the matching loop on `work`, appending
    /// to `steps` and `rounds` and marking deletions in `deleted`.
    /// `duals` must be fresh for round `start` (new, or seeded via
    /// [`Duals::from_potentials`]); later rounds run under the
    /// monotone-edit contract.
    #[allow(clippy::too_many_arguments)]
    fn run_rounds(
        &self,
        work: &mut DenseCost,
        duals: &mut Duals,
        start: usize,
        deleted_weight: f64,
        deleted: &mut [bool],
        steps: &mut Vec<Vec<Option<usize>>>,
        rounds: &mut RoundDuals,
    ) -> RoundLoopStats {
        let p = work.dim();
        let mut out = RoundLoopStats::default();
        for round in start..p {
            if round > start {
                // All edits since the previous solve were deletions
                // (cost increases declared cell by cell below), so the
                // solver may keep its candidate caches.
                duals.assume_monotone_edits();
            }
            let assignment = solve_min_warm_par(work, duals, self.threads);
            let stats = duals.last_stats();
            if round == start {
                out.first = stats;
            }
            out.col_scans += stats.col_scans;
            out.arr_steps += stats.arr_steps;
            out.relaxed_cells += stats.relaxed_cells;
            let base = rounds.v.len();
            rounds.v.extend_from_slice(duals.potentials());
            let mut step = Vec::with_capacity(p);
            for (src, &dst) in assignment.row_to_col.iter().enumerate() {
                assert!(
                    !deleted[src * p + dst],
                    "matching reused the deleted edge {src} -> {dst}"
                );
                // The assigned edge attains its row's minimum reduced
                // cost, so it defines the row potential.
                rounds.u.push(work.at(src, dst) - rounds.v[base + dst]);
                deleted[src * p + dst] = true;
                step.push(Some(dst));
                work.delete(src, dst, deleted_weight);
                duals.note_cost_increase(src, dst, deleted_weight);
            }
            steps.push(step);
        }
        out
    }

    /// Like [`MatchingScheduler::steps`], but optionally seeding the
    /// first round's LAP solve from dual potentials retained by a
    /// *previous job* (see [`MatchingPlan::seed_potentials`]), and
    /// returning the retained reuse surface alongside the steps. A seed
    /// of the wrong dimension is ignored — the run is then exactly the
    /// unseeded construction. Warm starts are exact for any finite
    /// seed, so the steps differ from an unseeded run only where the
    /// instance has multiple optimal matchings. Pure: retained state is
    /// neither consulted nor updated.
    pub fn plan_seeded(&self, matrix: &CommMatrix, seed: Option<&[f64]>) -> MatchingPlan {
        let p = matrix.len();
        let hi = matrix.max_cost().as_ms();
        let mut work = self.pristine_complement(matrix, hi);
        work.enable_live_tracking();
        let seeded = matches!(seed, Some(v) if v.len() == p);
        let mut duals = match seed {
            Some(v) if v.len() == p => Duals::from_potentials(v.to_vec()),
            _ => Duals::new(),
        };
        let mut steps = Vec::with_capacity(p);
        let mut rounds = RoundDuals::default();
        let out = self.run_rounds(
            &mut work,
            &mut duals,
            0,
            self.deleted_weight(p, hi),
            &mut vec![false; p * p],
            &mut steps,
            &mut rounds,
        );
        MatchingPlan {
            steps,
            // Retained from the round-1 state *before* later rounds
            // edited the work matrix: these potentials correspond to
            // the pristine instance, which is what a future similar
            // job will solve.
            seed_potentials: rounds.v[..p].to_vec(),
            round1: out.first,
            total_col_scans: out.col_scans,
            total_arr_steps: out.arr_steps,
            total_relaxed_cells: out.relaxed_cells,
            disposition: if seeded { "warm" } else { "cold" },
            spliced_rounds: 0,
            certified_gap: 0.0,
            matrix: matrix.clone(),
            duals: rounds,
        }
    }

    /// §6 incremental rescheduling at [`REPLAN_GAP`]: see
    /// [`MatchingScheduler::replan_within`].
    pub fn replan_incremental(&self, prev: &MatchingPlan, matrix: &CommMatrix) -> MatchingPlan {
        self.replan_within(prev, matrix, REPLAN_GAP)
    }

    /// §6 incremental rescheduling: re-plans `matrix` given the plan of
    /// a previous, similar instance. Diffs the matrices cell by cell,
    /// repairs each retained round's duals and keeps the longest prefix
    /// of rounds whose certified duality gap is at most `gap` times the
    /// round's weight (see the module docs), then re-solves only the
    /// rounds after it — warm-started from the last kept round's
    /// potentials. Falls back to a full seeded build when the dimension
    /// or the matrix maximum changed (the latter shifts every complement
    /// cell). An unchanged matrix replays the previous plan verbatim
    /// (`"hit"`). Pure: retained state is neither consulted nor updated
    /// — [`MatchingScheduler::plan`] layers retention on top.
    ///
    /// At `gap = 0` the result is bit-identical to a cold re-solve of the
    /// mutated matrix on tie-free instances: kept rounds are certified
    /// still-optimal (and tie-freeness makes the optimum unique), and
    /// re-solved rounds run on exactly the work matrix a cold build
    /// would have at that round.
    pub fn replan_within(
        &self,
        prev: &MatchingPlan,
        matrix: &CommMatrix,
        gap: f64,
    ) -> MatchingPlan {
        let p = matrix.len();
        let seed = (!prev.seed_potentials.is_empty()).then_some(&prev.seed_potentials[..]);
        if prev.processors() != p {
            return self.plan_seeded(matrix, seed);
        }

        // The delta set: cells whose cost changed.
        let mut delta: Vec<(usize, usize)> = Vec::new();
        for s in 0..p {
            let (new_row, old_row) = (matrix.row(s), prev.matrix.row(s));
            delta.extend((0..p).filter(|&d| new_row[d] != old_row[d]).map(|d| (s, d)));
        }
        if delta.is_empty() {
            let mut plan = prev.clone();
            plan.disposition = "hit";
            plan.spliced_rounds = p;
            plan.round1 = SolveStats::default();
            plan.total_col_scans = 0;
            plan.total_arr_steps = 0;
            plan.total_relaxed_cells = 0;
            return plan;
        }
        // Diffing raw costs is equivalent to diffing work cells only
        // while the complement base `hi` holds.
        let hi = matrix.max_cost().as_ms();
        if prev.matrix.max_cost().as_ms() != hi {
            return self.plan_seeded(matrix, seed);
        }
        let mut work = self.pristine_complement(matrix, hi);

        // Each pair is matched (and then deleted) in exactly one round;
        // a changed cell is live in that round and every earlier one.
        let mut matched_at = vec![0usize; p * p];
        for (r, step) in prev.steps.iter().enumerate() {
            for (src, dst) in step.iter().enumerate() {
                matched_at[src * p + dst.expect("complete step")] = r;
            }
        }

        // Keep the longest prefix of rounds whose repaired duals certify
        // the retained matching within `gap` of the round's weight.
        let mut rounds = RoundDuals::default();
        let mut certified_gap = 0.0;
        let mut kept = 0;
        for (r, step) in prev.steps.iter().enumerate() {
            let (u, v) = prev.duals.round(r, p);
            let mut u = u.to_vec();
            for &(s, d) in delta.iter().filter(|&&(s, d)| matched_at[s * p + d] >= r) {
                u[s] = u[s].min(work.at(s, d) - v[d]);
            }
            let (mut gap_r, mut weight) = (0.0, 0.0);
            for (s, dst) in step.iter().enumerate() {
                let x = dst.expect("complete step");
                gap_r += work.at(s, x) - v[x] - u[s];
                weight += matrix.row(s)[x];
            }
            if gap_r > gap * weight {
                break;
            }
            certified_gap += gap_r;
            rounds.u.extend(u);
            rounds.v.extend_from_slice(v);
            kept += 1;
        }

        // Splice the certified prefix, then resume the round loop after
        // it, warm-started from the last kept round's potentials.
        let deleted_weight = self.deleted_weight(p, hi);
        work.enable_live_tracking();
        let mut deleted = vec![false; p * p];
        let mut steps = prev.steps[..kept].to_vec();
        for step in &steps {
            for (src, dst) in step.iter().enumerate() {
                let dst = dst.expect("complete step");
                deleted[src * p + dst] = true;
                work.delete(src, dst, deleted_weight);
            }
        }
        let mut duals = match (kept, seed) {
            (1.., _) => Duals::from_potentials(rounds.round(kept - 1, p).1.to_vec()),
            (0, Some(v)) => Duals::from_potentials(v.to_vec()),
            (0, None) => Duals::new(),
        };
        let out = self.run_rounds(
            &mut work,
            &mut duals,
            kept,
            deleted_weight,
            &mut deleted,
            &mut steps,
            &mut rounds,
        );
        MatchingPlan {
            steps,
            seed_potentials: rounds.v[..p].to_vec(),
            round1: out.first,
            total_col_scans: out.col_scans,
            total_arr_steps: out.arr_steps,
            total_relaxed_cells: out.relaxed_cells,
            disposition: "incremental",
            spliced_rounds: kept,
            certified_gap,
            matrix: matrix.clone(),
            duals: rounds,
        }
    }
}

impl Scheduler for MatchingScheduler {
    fn name(&self) -> &'static str {
        match self.kind {
            MatchingKind::Max => "matching-max",
            MatchingKind::Min => "matching-min",
        }
    }

    fn send_order(&self, matrix: &CommMatrix) -> SendOrder {
        self.with_plan(matrix, |plan| {
            SendOrder::from_steps(matrix.len(), &plan.steps)
        })
    }

    fn construction_disposition(&self) -> Option<&'static str> {
        self.retained
            .lock()
            .unwrap()
            .as_ref()
            .map(|plan| plan.disposition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heterogeneous(p: usize) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                ((s * 31 + d * 17) % 23 + 1) as f64
            }
        })
    }

    /// A continuous (tie-free in practice) instance.
    fn continuous(p: usize, salt: f64) -> CommMatrix {
        CommMatrix::from_fn(p, |s, d| {
            if s == d {
                0.0
            } else {
                50.0 + salt + 40.0 * ((s as f64) * 1.37).sin() * ((d as f64) * 0.73).cos()
            }
        })
    }

    #[test]
    fn steps_partition_all_pairs() {
        for kind in [MatchingKind::Max, MatchingKind::Min] {
            let m = heterogeneous(6);
            let steps = MatchingScheduler::new(kind).steps(&m);
            assert_eq!(steps.len(), 6);
            let mut seen = [false; 36];
            for step in &steps {
                // Each step is a permutation.
                let mut dsts: Vec<_> = step.iter().copied().flatten().collect();
                dsts.sort();
                assert_eq!(dsts, (0..6).collect::<Vec<_>>());
                for (src, dst) in step.iter().enumerate() {
                    let dst = dst.unwrap();
                    assert!(!seen[src * 6 + dst], "pair used twice");
                    seen[src * 6 + dst] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "all pairs covered");
        }
    }

    #[test]
    fn first_max_matching_is_heaviest() {
        let m = heterogeneous(5);
        let steps = MatchingScheduler::new(MatchingKind::Max).steps(&m);
        let step_weight = |step: &Vec<Option<usize>>| -> f64 {
            step.iter()
                .enumerate()
                .map(|(s, d)| m.cost(s, d.unwrap()).as_ms())
                .sum()
        };
        let w0 = step_weight(&steps[0]);
        for s in &steps[1..] {
            assert!(
                w0 >= step_weight(s) - 1e-9,
                "first matching must be the heaviest"
            );
        }
    }

    #[test]
    fn first_min_matching_is_lightest() {
        let m = heterogeneous(5);
        let steps = MatchingScheduler::new(MatchingKind::Min).steps(&m);
        let step_weight = |step: &Vec<Option<usize>>| -> f64 {
            step.iter()
                .enumerate()
                .map(|(s, d)| m.cost(s, d.unwrap()).as_ms())
                .sum()
        };
        let w0 = step_weight(&steps[0]);
        for s in &steps[1..] {
            assert!(
                w0 <= step_weight(s) + 1e-9,
                "first matching must be the lightest"
            );
        }
    }

    #[test]
    fn schedules_are_valid_and_adaptive() {
        let m = heterogeneous(8);
        for kind in [MatchingKind::Max, MatchingKind::Min] {
            let sched = MatchingScheduler::new(kind).schedule(&m);
            sched.validate().unwrap();
            assert!(sched.lb_ratio() >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn adapts_when_costs_change() {
        // Unlike the baseline, the matching order changes with the
        // matrix — and with a shared scheduler instance, the second
        // call takes the incremental replan path, which must still
        // react to the change.
        let a = heterogeneous(6);
        let mut b = a.clone();
        // Make one link catastrophically slow.
        b.set_cost(0, 1, adaptcomm_model::units::Millis::new(500.0));
        let s = MatchingScheduler::new(MatchingKind::Max);
        assert_ne!(
            s.send_order(&a),
            s.send_order(&b),
            "matching schedule must react to cost changes"
        );
    }

    #[test]
    fn grouping_similar_lengths_beats_baseline_on_server_pattern() {
        // 2 of 6 processors send big messages (the Figure-12 pattern);
        // matching should clearly beat the oblivious baseline.
        let m = CommMatrix::from_fn(6, |s, d| {
            if s == d {
                0.0
            } else if s < 2 {
                50.0
            } else {
                1.0
            }
        });
        let matching = MatchingScheduler::new(MatchingKind::Max).schedule(&m);
        let baseline = crate::algorithms::Baseline.schedule(&m);
        matching.validate().unwrap();
        // The paper's improvement claim is statistical (over random
        // networks); on a single instance we assert matching is at least
        // competitive: never more than 5 % slower, and close to the bound.
        assert!(
            matching.completion_time().as_ms() <= baseline.completion_time().as_ms() * 1.05,
            "matching {} vs baseline {}",
            matching.completion_time(),
            baseline.completion_time()
        );
        assert!(matching.lb_ratio() <= 2.0);
    }

    #[test]
    fn all_zero_matrix_still_partitions() {
        // Every real edge weighs the same (0.0), so nothing but the
        // deletion mask distinguishes a fresh edge from a deleted one —
        // exactly the case where a weight-based reuse check is fragile.
        let m = CommMatrix::from_fn(5, |_, _| 0.0);
        for kind in [MatchingKind::Max, MatchingKind::Min] {
            let steps = MatchingScheduler::new(kind).steps(&m);
            assert_eq!(steps.len(), 5);
            let mut seen = [false; 25];
            for step in &steps {
                for (src, dst) in step.iter().enumerate() {
                    let dst = dst.unwrap();
                    assert!(!seen[src * 5 + dst], "pair used twice");
                    seen[src * 5 + dst] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "all pairs covered");
        }
    }

    #[test]
    fn cross_job_seed_runs_round_one_warm_and_cheaper() {
        let p = 16;
        // Continuous, tie-free costs: with integer-derived cells the
        // instance has multiple optimal matchings and the seeded run
        // may legitimately pick a different one.
        let a = continuous(p, 0.0);
        // A ±1 % perturbation of job A — a "similar job" arriving later.
        let b = CommMatrix::from_fn(p, |s, d| {
            let sign = if (s + 2 * d) % 2 == 0 { 1.0 } else { -1.0 };
            a.cost(s, d).as_ms() * (1.0 + sign * 0.01)
        });
        let sched = MatchingScheduler::new(MatchingKind::Max);
        let cold_a = sched.plan_seeded(&a, None);
        assert!(!cold_a.round1.warm);
        assert_eq!(cold_a.seed_potentials.len(), p);
        assert_eq!(cold_a.disposition, "cold");

        let cold_b = sched.plan_seeded(&b, None);
        let seeded_b = sched.plan_seeded(&b, Some(&cold_a.seed_potentials));
        assert!(seeded_b.round1.warm, "seeded round 1 must run warm");
        assert_eq!(seeded_b.disposition, "warm");
        assert!(
            seeded_b.round1.col_scans < cold_b.round1.col_scans,
            "cross-job seed must cut round-1 work ({} vs {})",
            seeded_b.round1.col_scans,
            cold_b.round1.col_scans
        );
        // Exactness: the seeded construction is still a valid partition
        // with the same total weight per round as the cold one.
        let weight = |steps: &[Vec<Option<usize>>]| -> f64 {
            steps
                .iter()
                .flat_map(|step| {
                    step.iter()
                        .enumerate()
                        .map(|(s, d)| b.cost(s, d.unwrap()).as_ms())
                })
                .sum()
        };
        assert!((weight(&seeded_b.steps) - weight(&cold_b.steps)).abs() < 1e-6);
        assert_eq!(
            seeded_b.steps, cold_b.steps,
            "on a tie-free instance the seeded plan is bit-identical"
        );
        // A wrong-dimension seed is ignored, not an error.
        let ignored = sched.plan_seeded(&b, Some(&[1.0, 2.0]));
        assert!(!ignored.round1.warm);
        assert_eq!(ignored.steps, cold_b.steps);
    }

    #[test]
    fn replan_with_empty_delta_is_a_pure_splice() {
        let m = continuous(12, 0.0);
        let sched = MatchingScheduler::new(MatchingKind::Max);
        let prev = sched.plan_seeded(&m, None);
        let replay = sched.replan_incremental(&prev, &m);
        assert_eq!(replay.disposition, "hit");
        assert_eq!(replay.spliced_rounds, 12);
        assert_eq!(replay.total_col_scans, 0, "nothing was solved");
        assert_eq!(replay.steps, prev.steps);
    }

    #[test]
    fn replan_with_random_delta_matches_cold_resolve() {
        for kind in [MatchingKind::Max, MatchingKind::Min] {
            let p = 24;
            let a = continuous(p, 0.0);
            let sched = MatchingScheduler::new(kind);
            let prev = sched.plan_seeded(&a, None);

            // Perturb a handful of off-diagonal links (keeping the
            // matrix maximum, so the complement base is unchanged).
            let mut b = a.clone();
            let mut state = 0xD1CEu64;
            for _ in 0..6 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let s = (state >> 33) as usize % p;
                let d = (state >> 13) as usize % p;
                if s == d {
                    continue;
                }
                let jitter = 1.0 + (((state >> 3) % 100) as f64 - 50.0) / 1000.0;
                b.set_cost(
                    s,
                    d,
                    adaptcomm_model::units::Millis::new(a.cost(s, d).as_ms() * jitter),
                );
            }
            assert_eq!(
                a.max_cost().as_ms(),
                b.max_cost().as_ms(),
                "perturbation must keep the complement base"
            );

            // At gap 0 the certificate is exact.
            let incremental = sched.replan_within(&prev, &b, 0.0);
            let cold = sched.plan_seeded(&b, None);
            assert_eq!(incremental.disposition, "incremental");
            assert_eq!(incremental.certified_gap, 0.0);
            assert_eq!(
                incremental.steps, cold.steps,
                "{kind:?}: incremental replan must be bit-identical to a cold re-solve"
            );
            // The retained surface must describe the *new* instance, so
            // a further replan off this plan stays correct.
            let again = sched.replan_within(&incremental, &b, 0.0);
            assert_eq!(again.disposition, "hit");
            assert_eq!(again.steps, cold.steps);
        }
    }

    #[test]
    fn replan_with_all_cells_dirty_degenerates_to_full_solve() {
        let p = 10;
        let a = continuous(p, 0.0);
        let sched = MatchingScheduler::new(MatchingKind::Max);
        let prev = sched.plan_seeded(&a, None);
        // Scale every off-diagonal cell: all rows dirty from round 0.
        // Scaling changes the matrix maximum, so this also exercises
        // the full-rebuild fallback.
        let b = CommMatrix::from_fn(p, |s, d| a.cost(s, d).as_ms() * 1.5);
        let incremental = sched.replan_incremental(&prev, &b);
        let cold = sched.plan_seeded(&b, None);
        assert_eq!(incremental.steps, cold.steps);
        assert_eq!(
            incremental.disposition, "warm",
            "hi changed: full seeded rebuild"
        );

        // Same-maximum all-dirty delta: every cell but the max cell
        // shifts, staying on the incremental path with few spliced
        // rounds.
        let (mut ms, mut md) = (0, 0);
        let mut hi = f64::NEG_INFINITY;
        for s in 0..p {
            for d in 0..p {
                if a.cost(s, d).as_ms() > hi {
                    hi = a.cost(s, d).as_ms();
                    (ms, md) = (s, d);
                }
            }
        }
        let c = CommMatrix::from_fn(p, |s, d| {
            let v = a.cost(s, d).as_ms();
            if (s, d) == (ms, md) || s == d {
                v
            } else {
                v * 0.93 + 0.011 * (s as f64) + 0.017 * (d as f64)
            }
        });
        let incremental = sched.replan_incremental(&prev, &c);
        let cold = sched.plan_seeded(&c, None);
        assert_eq!(incremental.disposition, "incremental");
        assert_eq!(incremental.steps, cold.steps);
    }

    #[test]
    fn retained_plan_drives_send_order_dispositions() {
        let a = continuous(9, 0.0);
        let mut b = a.clone();
        b.set_cost(2, 5, adaptcomm_model::units::Millis::new(61.125));
        let sched = MatchingScheduler::new(MatchingKind::Max);
        assert_eq!(sched.construction_disposition(), None);
        sched.send_order(&a);
        assert_eq!(sched.construction_disposition(), Some("cold"));
        sched.send_order(&a);
        assert_eq!(sched.construction_disposition(), Some("hit"));
        sched.send_order(&b);
        assert_eq!(sched.construction_disposition(), Some("incremental"));
        // The incremental order equals a cold scheduler's order.
        let fresh = MatchingScheduler::new(MatchingKind::Max);
        assert_eq!(sched.send_order(&b), fresh.send_order(&b));
        // A dimension change falls back to a full cold build.
        sched.send_order(&continuous(7, 0.0));
        assert_eq!(sched.construction_disposition(), Some("cold"));
        // Cloning a scheduler does not clone its retained plan.
        assert_eq!(sched.clone().construction_disposition(), None);
    }

    #[test]
    fn two_processors_trivial() {
        let m = CommMatrix::from_rows(&[vec![0.0, 3.0], vec![4.0, 0.0]]);
        let sched = MatchingScheduler::new(MatchingKind::Max).schedule(&m);
        sched.validate().unwrap();
        assert_eq!(sched.completion_time().as_ms(), 4.0);
    }
}
