//! The Jonker–Volgenant algorithm for the dense linear assignment problem.
//!
//! This is a faithful Rust port of the published algorithm (R. Jonker and
//! A. Volgenant, "A shortest augmenting path algorithm for dense and
//! sparse linear assignment problems", Computing 38, 1987) — the same
//! algorithm behind the public-domain code the paper's authors credit to
//! Roy Jonker. Phases:
//!
//! 1. **Column reduction** — scan columns in reverse, set `v[j]` to the
//!    column minimum and tentatively assign its row.
//! 2. **Reduction transfer** — for singly-assigned rows, transfer slack
//!    to the column potential.
//! 3. **Augmenting row reduction** — bounded passes of alternating-row
//!    reassignment for unassigned rows (fast in practice): two on a
//!    cold solve, eight on a warm one.
//! 4. **Augmentation** — a Dijkstra-style shortest augmenting path for
//!    each remaining unassigned row, updating the duals so reduced costs
//!    stay non-negative.
//!
//! # Warm starts
//!
//! The matching scheduler solves `P` successive LAPs on matrices that
//! differ in only `P` entries per round (the previously matched edges get
//! a sentinel weight). [`solve_warm`] exploits that: it keeps the column
//! potentials `v` and every scratch buffer inside a caller-owned
//! [`Duals`], skips phases 1–2, and runs augmenting row reduction (eight
//! passes, at most `4n` in-place retries each) and then the augmentation
//! phase from the retained potentials. The augmentation phase is the textbook
//! successive-shortest-path method and is *correct for any starting `v`*
//! (row potentials are implicit: with an empty assignment, complementary
//! slackness holds vacuously, and each augmentation re-establishes it) —
//! retained potentials only make the Dijkstra searches short. Because the
//! per-round edits only *increase* costs, the old potentials stay nearly
//! optimal and most augmentations terminate after scanning a handful of
//! columns.
//!
//! Floating-point note: phase 3 contains a retry loop whose progress
//! argument relies on strictly positive dual updates; to stay robust to
//! degenerate float cases we cap retries per pass and defer any row still
//! unassigned to phase 4, which handles arbitrary starting duals.
//!
//! # Tie order
//!
//! The kernel is tie-order-exact: which of several equal candidates a
//! step takes is fixed by the comparisons it makes and their order, and
//! uniform-size instances tie all the time (their cost matrices are
//! symmetric), so that order picks the plan. The hot loops are written
//! for speed but keep every comparison and its tie outcome; the golden
//! plan digest in `tests/lap_golden.rs` — steps, duals and the work
//! counters of [`SolveStats`] — is their oracle, and a change that moves
//! it changes plans.

use crate::matrix::DenseCost;
use crate::Assignment;
use std::collections::BinaryHeap;

const NONE: usize = usize::MAX;

/// Candidate-cache depth: each row remembers the `CAND_K` columns with
/// the smallest reduced costs from its last full scan (one cache line
/// of indices per row). Deeper caches survive more per-round deletions
/// before a rescan; shallower ones rescan more but cost less to fill.
const CAND_K: usize = 16;

/// Retained dual potentials and scratch buffers for warm-started solves.
///
/// Create one with [`Duals::new`] and pass it to successive
/// [`solve_warm`] calls over same-dimension matrices; every call reuses
/// the column potentials of the previous solve and allocates nothing.
/// Passing a `Duals` sized for a different dimension (including a fresh
/// one) makes the next solve a cold full-phase run that (re)initialises
/// it.
#[derive(Debug, Clone, Default)]
pub struct Duals {
    /// Column potentials `v[j]`, retained between solves.
    v: Vec<f64>,
    /// Row → column assignment scratch.
    x: Vec<usize>,
    /// Column → row assignment scratch.
    y: Vec<usize>,
    /// Shortest-path predecessor scratch.
    pred: Vec<usize>,
    /// Unassigned-row worklist scratch.
    free: Vec<usize>,
    /// Per-row candidate caches. See [`augmenting_row_reduction`] for
    /// the bound argument that makes reusing them exact.
    cache: Vec<RowCache>,
    /// One-shot flag set by [`Duals::assume_monotone_edits`]: the next
    /// warm solve keeps candidate caches across the call.
    monotone: bool,
    /// Per-column phase-4 search state.
    col: Vec<ColState>,
    /// The current search stamp; incremented per augmenting path.
    stamp: u32,
    /// Frontier min-heap of tentative column distances.
    heap: BinaryHeap<HeapEntry>,
    /// Deferred-row min-heap: one entry per tree row standing in for
    /// all its non-candidate edges (key = rest bound − row offset).
    defer: BinaryHeap<HeapEntry>,
    /// Per-row reduced-cost offset `h` within the current search.
    rowh: Vec<f64>,
    /// Columns scanned (popped into the tree) by the current search —
    /// the set whose potentials the dual update touches.
    scanned: Vec<usize>,
    /// Per-column value scratch of a full row pass (see [`scan_row`]).
    val: Vec<f64>,
    /// Augmenting row reduction's worklist for its next pass.
    next_free: Vec<usize>,
    /// Counters from the most recent solve (observability).
    stats: SolveStats,
}

/// Cheap per-solve counters, refreshed by every [`solve_warm`] call.
/// The matching scheduler forwards them to the observability layer to
/// make warm-start effectiveness visible (hit rate, path counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Whether the solve reused retained potentials (skipping phases
    /// 1–2) rather than running cold.
    pub warm: bool,
    /// Augmenting paths run in phase 4: the rows augmenting row
    /// reduction left unassigned, on either path.
    pub aug_paths: u64,
    /// Column scans performed: full-row/column passes in the reduction
    /// phases plus the full row passes of the phase-4 path searches —
    /// the work metric warm starts are meant to shrink.
    pub col_scans: u64,
    /// Phase-4 searches that finished without expanding any tree
    /// column (the seeded frontier already certified a free column as
    /// minimal): the Dijkstra loop body never ran. `aug_paths -
    /// fast_exits` rows paid for a real shortest-path search.
    pub fast_exits: u64,
    /// Column scans executed by pool workers in the parallel solver
    /// (zero for serial solves): each worker's share of the sharded
    /// row-minimum reductions, summed across workers. Comparable to
    /// `col_scans` so warm-vs-cold-vs-parallel shows up on one axis.
    pub worker_scans: u64,
    /// Row-steps of augmenting row reduction: one per row taken off
    /// the worklist (a displaced row re-processed in place counts
    /// again). With `relaxed_cells`, the work measure that tracks time
    /// where `col_scans` does not.
    pub arr_steps: u64,
    /// Cells read by phase-4 relaxations: every live cell of a dense
    /// row pass plus `CAND_K` per candidate pass.
    pub relaxed_cells: u64,
}

impl Duals {
    /// An empty, dimensionless state: the first solve through it runs
    /// cold and sizes everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a warm-startable state from column potentials retained
    /// by an earlier solve — typically [`Duals::potentials`] captured
    /// from a *different job's* instance of the same dimension. The
    /// next [`solve_warm`] through the returned state takes the warm
    /// path (augmentation only, no reduction phases), which the module
    /// docs show is exact for *any* starting potentials; the quality of
    /// the seed only affects how much augmentation work remains. This
    /// is the cross-job retention surface behind the plan cache: a
    /// near-hit seeds the new solve from the cached job's duals.
    ///
    /// # Panics
    ///
    /// Panics if any potential is non-finite — a finite `v` is the one
    /// invariant every solve path maintains, so a NaN/∞ seed can only
    /// come from caller corruption.
    pub fn from_potentials(v: Vec<f64>) -> Self {
        assert!(
            v.iter().all(|x| x.is_finite()),
            "dual potentials must be finite"
        );
        let n = v.len();
        let mut duals = Duals::new();
        duals.reset(n);
        duals.v.copy_from_slice(&v);
        duals
    }

    /// The dimension of the last solve (0 if never used).
    pub fn dim(&self) -> usize {
        self.v.len()
    }

    /// The retained column potentials of the last solve.
    pub fn potentials(&self) -> &[f64] {
        &self.v
    }

    /// Counters from the most recent solve through this state.
    pub fn last_stats(&self) -> SolveStats {
        self.stats
    }

    /// Sizes every buffer for dimension `n`, zeroing the potentials.
    fn reset(&mut self, n: usize) {
        self.v.clear();
        self.v.resize(n, 0.0);
        self.x.clear();
        self.x.resize(n, NONE);
        self.y.clear();
        self.y.resize(n, NONE);
        self.pred.resize(n, 0);
        self.free.clear();
        self.cache.clear();
        self.cache.resize(n, RowCache::default());
        self.monotone = false;
        self.col.clear();
        self.col.resize(n, ColState::default());
        self.stamp = 0;
        self.heap.clear();
        self.defer.clear();
        self.rowh.clear();
        self.rowh.resize(n, 0.0);
        self.scanned.clear();
        self.val.clear();
        self.val.resize(n, f64::INFINITY);
        self.next_free.clear();
    }

    /// Declares a single cost-cell increase `(i, j) → new_c` made since
    /// the last solve, updating the row's cached raw cost if the cell
    /// is cached. **Required** for every edited cell when the next
    /// solve is run under [`Duals::assume_monotone_edits`]: the
    /// candidate caches mirror raw costs, and an unpatched increase
    /// would leave a stale, too-small value behind. (Decreasing a cell
    /// breaks the monotone contract entirely — drop the fast path
    /// instead.)
    pub fn note_cost_increase(&mut self, i: usize, j: usize, new_c: f64) {
        let n = self.dim();
        if n <= CAND_K || i >= n {
            return;
        }
        let cache = &mut self.cache[i];
        if let Some(t) = cache.jt.iter().position(|&c| c as usize == j) {
            cache.ct[t] = new_c;
        }
    }

    /// Declares that every cost-matrix edit since the previous solve
    /// through this state only *increased* entries (e.g. the matching
    /// scheduler's per-round sentinel deletions, each declared via
    /// [`Duals::note_cost_increase`]). The next [`solve_warm`] then
    /// keeps the per-row candidate caches alive across the call, which
    /// is what makes successive rounds cheap: reduced costs are
    /// monotone under rising costs and falling potentials, so a cached
    /// rest bound stays a valid lower bound. One-shot — it must be
    /// re-asserted before every solve it applies to. Without it, warm
    /// solves conservatively drop the caches (arbitrary edits can lower
    /// costs below a cached bound, which would break exactness).
    pub fn assume_monotone_edits(&mut self) {
        self.monotone = true;
    }
}

/// Solves the minimum-cost assignment problem (cold: all four phases).
pub fn solve(costs: &DenseCost) -> Assignment {
    let mut duals = Duals::new();
    solve_warm(costs, &mut duals)
}

/// Solves the minimum-cost assignment problem, reusing the dual
/// potentials and scratch buffers in `duals` when they match the
/// instance dimension; otherwise runs a cold solve that initialises
/// them. See the module docs for why the warm path is exact.
pub fn solve_warm(costs: &DenseCost, duals: &mut Duals) -> Assignment {
    solve_warm_par(costs, duals, 1)
}

/// Like [`solve_warm`], but cold solves shard the phase-1 column scans
/// across `threads` workers. Bit-identical to the serial solve at any
/// thread count: each worker computes per-column `(min, argmin)` pairs
/// for a disjoint column range with the serial tie-break (lowest row
/// index wins), and the pairs are applied sequentially in the serial
/// scan order, so the reduce introduces no reordering. `threads == 1`
/// (or `0`) is exactly the serial path. The warm path is unaffected:
/// augmenting row reduction and the shortest-path searches are price
/// cascades where each step reads the potentials the previous step
/// wrote, so they stay sequential at any thread count —
/// per-worker scans on the parallel path land in
/// [`SolveStats::worker_scans`] instead of [`SolveStats::col_scans`].
pub fn solve_warm_par(costs: &DenseCost, duals: &mut Duals, threads: usize) -> Assignment {
    let n = costs.dim();
    if n == 0 {
        duals.reset(0);
        duals.stats = SolveStats::default();
        return Assignment {
            row_to_col: Vec::new(),
            cost: 0.0,
        };
    }
    duals.stats = SolveStats::default();
    let monotone = std::mem::take(&mut duals.monotone);
    if duals.dim() == n {
        // Warm start: keep `v`, clear the assignment, then settle what
        // augmenting row reduction can before paying for shortest-path
        // searches. Phase 3 is exact from any consistent state (see its
        // docs); on the matching scheduler's round-to-round edits it
        // absorbs most of the displacement churn at two row scans per
        // row, leaving phase 4 a short leftover list.
        duals.x.fill(NONE);
        duals.y.fill(NONE);
        duals.free.clear();
        duals.free.extend(0..n);
        duals.stats.warm = true;
        if !monotone {
            duals.cache.iter_mut().for_each(|c| c.ok = false);
        }
        if n >= 2 {
            // Eight bounded passes with a 4n retry budget per pass: the
            // measured optimum on the matching scheduler's round
            // cadence. Fewer passes push contested rows into phase 4
            // (whose per-row shortest-path search is dearer than a
            // candidate-cache check); more passes extend the price war
            // past the point where phase 4 settles it faster.
            augmenting_row_reduction(costs, duals, 8, 4 * n);
        }
    } else {
        duals.reset(n);
        reduction_phases(costs, duals, threads);
        duals.stats.warm = false;
    }
    duals.stats.aug_paths = duals.free.len() as u64;
    augment(costs, duals);
    debug_assert!(duals.x.iter().all(|&j| j != NONE));
    Assignment::from_permutation(costs, duals.x.clone())
}

/// Below this dimension a parallel phase 1 costs more in thread spawns
/// than the column scans it shards.
const PAR_MIN_DIM: usize = 8;

/// Phases 1–3: column reduction, reduction transfer and augmenting row
/// reduction. Leaves the rows still unassigned in `duals.free`.
fn reduction_phases(costs: &DenseCost, duals: &mut Duals, threads: usize) {
    let n = costs.dim();
    let x = &mut duals.x;
    let y = &mut duals.y;
    let v = &mut duals.v;

    // Work accounting: one unit per full row/column pass, folded into
    // `stats.col_scans` at the end so cold and warm solves are
    // comparable on the same counter. Sharded scans are counted
    // separately in `worker_scans`.
    let mut scans = 0u64;
    let mut worker_scans = 0u64;

    // Phase 1: column reduction.
    let mut matches = vec![0usize; n];
    if threads > 1 && n >= PAR_MIN_DIM {
        // Partitioned column scans: each worker computes the
        // `(min, argmin)` of a disjoint column range. Per-column minima
        // are independent, the tie-break (strict `<`, so the lowest row
        // index wins) matches the serial scan, and the pairs are applied
        // below in the serial reverse-`j` order — bit-identical to the
        // serial phase at any worker count.
        let mut mins = vec![(0.0f64, 0usize); n];
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (w, out) in mins.chunks_mut(chunk).enumerate() {
                let lo = w * chunk;
                scope.spawn(move || {
                    for (k, slot) in out.iter_mut().enumerate() {
                        let j = lo + k;
                        let mut min = costs.at(0, j);
                        let mut imin = 0usize;
                        for i in 1..n {
                            let c = costs.at(i, j);
                            if c < min {
                                min = c;
                                imin = i;
                            }
                        }
                        *slot = (min, imin);
                    }
                });
            }
        });
        worker_scans += n as u64;
        for j in (0..n).rev() {
            let (min, imin) = mins[j];
            v[j] = min;
            matches[imin] += 1;
            if matches[imin] == 1 {
                x[imin] = j;
                y[j] = imin;
            }
        }
    } else {
        for j in (0..n).rev() {
            scans += 1;
            let mut min = costs.at(0, j);
            let mut imin = 0usize;
            for i in 1..n {
                let c = costs.at(i, j);
                if c < min {
                    min = c;
                    imin = i;
                }
            }
            v[j] = min;
            matches[imin] += 1;
            if matches[imin] == 1 {
                x[imin] = j;
                y[j] = imin;
            }
        }
    }

    // Phase 2: reduction transfer.
    let free = &mut duals.free;
    for i in 0..n {
        if matches[i] == 0 {
            free.push(i);
        } else if matches[i] == 1 {
            scans += 1;
            let j1 = x[i];
            let row = costs.row(i);
            let mut min = f64::INFINITY;
            for j in 0..n {
                if j != j1 {
                    let h = row[j] - v[j];
                    if h < min {
                        min = h;
                    }
                }
            }
            if min.is_finite() {
                v[j1] -= min;
            }
        }
    }

    duals.stats.col_scans += scans;
    duals.stats.worker_scans += worker_scans;

    // Phase 3: augmenting row reduction, two passes.
    augmenting_row_reduction(costs, duals, 2, 10 * n * n + 10);
}

/// Augmenting row reduction (JV phase 3): repeatedly assign each free
/// row to its minimum reduced-cost column, transferring slack to the
/// column potential and displacing the previous owner when the minimum
/// is unique. Correct from *any* consistent `(v, x, y)` state — it only
/// moves assignments along tight or tightened edges and keeps `v` dual
/// feasible — so warm solves run it too: it settles most rows displaced
/// by the matching scheduler's per-round edits with two `O(n)` row
/// scans instead of a full shortest-path search. Rows still free after
/// `passes` passes go to phase 4, which handles arbitrary duals.
///
/// `retry_cap` bounds how many displaced rows are re-processed in
/// place per pass. Cold solves pass the effectively-unbounded original
/// cap (`10n² + 10`, a float-degeneracy guard). Warm solves pass a
/// small multiple of `n`: near-equilibrium duals make unbounded
/// displacement chains degenerate into long price wars with tiny
/// potential decrements, where phase 4's shortest-path search settles
/// the same rows in one pass — but a *bounded* amount of in-place
/// retrying still resolves most contested clusters at one row scan
/// each. With the cap, each pass costs at most `nfree + retry_cap` row
/// scans, so the phase stays `O(passes · (n + retry_cap) · n)`.
fn augmenting_row_reduction(costs: &DenseCost, duals: &mut Duals, passes: usize, retry_cap: usize) {
    let n = costs.dim();
    let Duals {
        v,
        x,
        y,
        free,
        next_free,
        cache,
        val,
        stats,
        ..
    } = duals;
    // Slices, not vectors: their buffers cannot alias one another, so
    // the loop keeps every base pointer in a register.
    let (v, x, y, val, cache) = (
        &mut v[..],
        &mut x[..],
        &mut y[..],
        &mut val[..],
        &mut cache[..],
    );
    let mut scans = 0u64;
    let mut steps = 0u64;
    for _pass in 0..passes {
        let nfree = free.len();
        let mut k = 0usize;
        next_free.clear();
        let mut retries = 0usize;
        while k < nfree {
            let i = free[k];
            k += 1;
            steps += 1;
            // First and second minima of the reduced row — from the
            // row's candidate cache when it still certifies them, with
            // a full scan (which refills the cache) otherwise.
            let (mut umin, mut usubmin, mut j1, mut j2) = (f64::INFINITY, f64::INFINITY, 0, 0);
            let mut certified = false;
            let c = &cache[i];
            if n > CAND_K && c.ok {
                // Current reduced costs of the cached candidates.
                // Every column outside the cache was ≥ `c.bound` at
                // scan time and has only risen since (costs monotone
                // up, `v` monotone down), so if the two smallest
                // candidates are both ≤ the bound they are the true
                // row minima. Raw costs come from the contiguous
                // `c.ct` mirror, not from the scattered matrix row.
                let h: [f64; CAND_K] = std::array::from_fn(|t| c.ct[t] - v[c.jt[t] as usize]);
                for (&j, &h) in c.jt.iter().zip(&h) {
                    if h < usubmin {
                        if h >= umin {
                            (usubmin, j2) = (h, j as usize);
                        } else {
                            (usubmin, j2) = (umin, j1);
                            (umin, j1) = (h, j as usize);
                        }
                    }
                }
                certified = usubmin <= c.bound;
            }
            if !certified {
                scans += 1;
                let (vals, idxs, _) = scan_row(costs, i, v, 0.0, &c.jt, val, |_, _| ());
                (umin, j1) = (vals[0], idxs[0] as usize);
                (usubmin, j2) = (vals[1], idxs[1] as usize);
                if n > CAND_K {
                    cache[i].refill(costs, i, &vals, &idxs, vals[CAND_K - 1]);
                }
            }
            // A unique minimum takes its column and drops its price to
            // the second minimum; a tied one takes the second column
            // when the first is owned. A row whose (live) cells are
            // down to one has no second minimum: take the column
            // without a price drop. Any drop in `[0, usubmin - umin]`
            // preserves the phase invariant (the taken edge still
            // attains its row minimum), so clamping ∞ to 0 is exact —
            // and subtracting `0.0` leaves the potential's bits as they
            // were, so the drop needs no branch.
            let unique = umin < usubmin;
            let drop = usubmin - umin;
            v[j1] -= if unique && drop.is_finite() {
                drop
            } else {
                0.0
            };
            if !unique && y[j1] != NONE {
                j1 = j2;
            }
            let i0 = y[j1];
            x[i] = j1;
            y[j1] = i;
            if i0 != NONE {
                x[i0] = NONE;
                if unique && retries < retry_cap {
                    // Re-process the displaced row immediately.
                    retries += 1;
                    k -= 1;
                    free[k] = i0;
                } else {
                    next_free.push(i0);
                }
            }
        }
        std::mem::swap(free, next_free);
        if free.is_empty() {
            break;
        }
    }
    stats.col_scans += scans;
    stats.arr_steps += steps;
}

/// A row's candidate cache: the columns with the smallest reduced
/// costs at its last full scan.
#[derive(Debug, Clone, Default)]
struct RowCache {
    /// The columns, ascending by `(reduced cost, column)` at scan time;
    /// pad slots (rows with fewer than `CAND_K` live cells) hold 0.
    jt: [u32; CAND_K],
    /// Raw costs of the cached cells, `∞` in pad slots. Costs are
    /// static within a solve, so sweeps read them from this contiguous
    /// buffer instead of gathering across the whole cost matrix;
    /// cross-solve edits must be declared per cell via
    /// [`Duals::note_cost_increase`] for the monotone fast path.
    ct: [f64; CAND_K],
    /// The rest bound: the `CAND_K`-th smallest reduced cost at the
    /// scan. Every column outside the list had reduced cost ≥ this
    /// bound then — and stays above it, because `v` never increases
    /// after the cold phases and monotone callers only raise costs.
    bound: f64,
    /// Whether the cache is populated and trustworthy.
    ok: bool,
}

impl RowCache {
    /// Refills the cache from row `i`'s full-pass top-`CAND_K`. The pad
    /// slots must cache `∞`, not the raw cost of column 0, or they
    /// would masquerade as candidates.
    fn refill(
        &mut self,
        costs: &DenseCost,
        i: usize,
        vals: &[f64; CAND_K],
        idxs: &[u32; CAND_K],
        bound: f64,
    ) {
        self.jt = *idxs;
        for t in 0..CAND_K {
            self.ct[t] = if vals[t].is_finite() {
                costs.at(i, idxs[t] as usize)
            } else {
                f64::INFINITY
            };
        }
        (self.bound, self.ok) = (bound, true);
    }
}

/// One full pass over row `i`'s cells, valued `c − v[j] − h`: hands
/// each to `visit`, and returns the row's `CAND_K` smallest by `(value,
/// column)`, ascending, padded with `(∞, 0)`, and the cells read. Walks
/// the compacted live view when the matrix tracks deletions — two
/// dense streams whose length shrinks with every deleted cell — and the
/// full dense row otherwise.
///
/// The selection is order-independent, so the pass offers the cells in
/// the order that makes it cheap: the columns of `first` (the row's
/// cached candidates, whose order a few price drops barely disturb) in
/// that order, then every other cell, which mostly fails the first
/// compare. `val` carries each cell's value between the two walks; a
/// column of `first` is offered once, and one the pass did not reach
/// (deleted, or a pad) reads `∞` and is never taken.
fn scan_row(
    costs: &DenseCost,
    i: usize,
    v: &[f64],
    h: f64,
    first: &[u32; CAND_K],
    val: &mut [f64],
    mut visit: impl FnMut(usize, f64),
) -> ([f64; CAND_K], [u32; CAND_K], u64) {
    for &j in first {
        val[j as usize] = f64::INFINITY;
    }
    let live = costs.live_row(i);
    let cells = if let Some((cols, cvals)) = live {
        for (&j, &c) in cols.iter().zip(cvals) {
            let j = j as usize;
            val[j] = c - v[j] - h;
            visit(j, val[j]);
        }
        cols.len()
    } else {
        for (j, (&c, &vj)) in costs.row(i).iter().zip(v).enumerate() {
            val[j] = c - vj - h;
            visit(j, val[j]);
        }
        v.len()
    };
    let mut top = TopK::new();
    for &j in first {
        top.offer(val[j as usize], j);
        val[j as usize] = f64::INFINITY;
    }
    match live {
        Some((cols, _)) => cols.iter().for_each(|&j| top.offer(val[j as usize], j)),
        None => (0..)
            .zip(&val[..v.len()])
            .for_each(|(j, &x)| top.offer(x, j)),
    }
    (top.vals, top.idxs, cells as u64)
}

/// A running top-`CAND_K` selection, ordered by `(value, column id)`
/// as numbers (`-0.0 == 0.0`). Unfilled slots hold `(∞, 0)`;
/// consumers treat a non-finite value as an empty slot.
struct TopK {
    vals: [f64; CAND_K],
    idxs: [u32; CAND_K],
    /// Filled slots: an offer shifts only those, never the pads.
    len: usize,
}

impl TopK {
    fn new() -> Self {
        TopK {
            vals: [f64::INFINITY; CAND_K],
            idxs: [0; CAND_K],
            len: 0,
        }
    }

    /// Offers `(val, j)`; a non-finite value is never taken.
    #[inline]
    fn offer(&mut self, val: f64, j: u32) {
        let (vals, idxs) = (&mut self.vals, &mut self.idxs);
        let last = CAND_K - 1;
        if val < vals[last] || (val == vals[last] && j < idxs[last]) {
            let mut p = self.len.min(last);
            while p > 0 && (vals[p - 1] > val || (vals[p - 1] == val && idxs[p - 1] > j)) {
                vals[p] = vals[p - 1];
                idxs[p] = idxs[p - 1];
                p -= 1;
            }
            vals[p] = val;
            idxs[p] = j;
            self.len += usize::from(self.len < CAND_K);
        }
    }
}

/// A priority-queue entry: a tentative key and the column (or row) it
/// belongs to, packed into one integer. Ordered as a *min*-heap on the
/// key (`f64::total_cmp`) with ascending index as the deterministic
/// tiebreak — std's `BinaryHeap` is a max-heap, so the packed word is
/// complemented — which makes every sift step one integer compare.
/// Keys are always finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry(u128);

impl HeapEntry {
    const SIGN: u64 = 1 << 63;

    fn new(key: f64, idx: usize) -> Self {
        let bits = key.to_bits();
        // `total_cmp`'s order as an unsigned order: negatives flip,
        // positives move above them.
        let ord = if bits & Self::SIGN != 0 {
            !bits
        } else {
            bits | Self::SIGN
        };
        HeapEntry(!(u128::from(ord) << 64 | idx as u128))
    }

    fn key(self) -> f64 {
        let ord = (!self.0 >> 64) as u64;
        f64::from_bits(if ord & Self::SIGN != 0 {
            ord & !Self::SIGN
        } else {
            !ord
        })
    }

    fn idx(self) -> usize {
        !self.0 as u64 as usize
    }
}

/// One column's phase-4 search state, kept together so a relaxation
/// reads one place: the tentative distance `d`, valid while `stamp` is
/// the current search's (which spares an `O(n)` clear per path), and
/// `tree`, the stamp of the search whose tree the column joined.
#[derive(Debug, Clone, Copy, Default)]
struct ColState {
    d: f64,
    stamp: u32,
    tree: u32,
}

/// The search state phase 4 relaxes into: per-column state under the
/// search's stamp `st`, predecessor rows, the frontier heap, and the
/// cheapest free column reached so far.
struct Frontier<'a> {
    st: u32,
    y: &'a [usize],
    col: &'a mut [ColState],
    pred: &'a mut [usize],
    heap: &'a mut BinaryHeap<HeapEntry>,
    bestfree: (f64, usize),
}

impl Frontier<'_> {
    /// Offers column `j` at tentative distance `val` from tree row `i`.
    /// A free column can only end the search, so the cheapest one by
    /// `(distance, column)` is kept in `bestfree` instead of the heap,
    /// and the search stops the moment it is provably minimal —
    /// without expanding an entire tie plateau.
    #[inline(always)]
    fn relax(&mut self, j: usize, val: f64, i: usize) {
        let (st, c) = (self.st, self.col[j]);
        if (c.tree != st) & ((c.stamp != st) | (val < c.d)) {
            self.improve(j, val, i);
        }
    }

    /// The rarer half of [`Frontier::relax`], kept out of the row
    /// loops.
    #[inline(never)]
    fn improve(&mut self, j: usize, val: f64, i: usize) {
        (self.col[j].d, self.col[j].stamp) = (val, self.st);
        self.pred[j] = i;
        if self.y[j] == NONE {
            let best = self.bestfree;
            if val < best.0 || (val == best.0 && j < best.1) {
                self.bestfree = (val, j);
            }
        } else {
            self.heap.push(HeapEntry::new(val, j));
        }
    }
}

/// Relaxes only the cached candidate columns of row `i` — `O(CAND_K)`
/// instead of `O(n)`. Exactness is restored by the caller deferring a
/// dense pass behind the row's rest bound.
fn relax_candidates(f: &mut Frontier, cache: &RowCache, v: &[f64], h: f64, i: usize) {
    for (&j, &c) in cache.jt.iter().zip(&cache.ct) {
        // Pad slots (rows with fewer than `CAND_K` live cells) carry
        // `∞` and stand for no edge.
        if c.is_finite() {
            let j = j as usize;
            f.relax(j, c - v[j] - h, i);
        }
    }
}

/// Phase 4: a shortest augmenting path for each row in `duals.free`,
/// valid for an arbitrary starting potential vector `v`.
///
/// This is the successive-shortest-path search run as a **lazy
/// Dijkstra** over the candidate caches. When a column joins the
/// search tree, its owner row relaxes only its `CAND_K` cached
/// candidate columns; the row's remaining `n - CAND_K` edges all have
/// reduced cost at least the cached rest bound, so a single *deferred*
/// entry with key `bound - h` stands in for them. Only when the search
/// frontier's minimum reaches that key does the row pay for a dense
/// `O(n)` pass — on warm rounds the augmenting path is usually found
/// first, so a search that used to scan hundreds of full rows touches
/// a few dozen cache lines instead. Rows without a usable cache (cold
/// phases, tiny instances) relax densely immediately, which is exactly
/// the textbook algorithm; thus correctness never depends on cache
/// quality, only on the bound's validity (costs monotone up, `v`
/// monotone down since the bound was recorded).
fn augment(costs: &DenseCost, duals: &mut Duals) {
    let n = costs.dim();
    let Duals {
        v,
        x,
        y,
        pred,
        free,
        cache,
        col,
        stamp,
        heap,
        defer,
        rowh,
        scanned,
        val,
        stats,
        ..
    } = duals;
    let (v, x, y, pred, col) = (
        &mut v[..],
        &mut x[..],
        &mut y[..],
        &mut pred[..],
        &mut col[..],
    );
    let (cache, rowh, val) = (&mut cache[..], &mut rowh[..], &mut val[..]);
    for &freerow in free.iter() {
        *stamp += 1;
        heap.clear();
        defer.clear();
        scanned.clear();
        rowh[freerow] = 0.0;
        let mut f = Frontier {
            st: *stamp,
            y,
            col,
            pred,
            heap,
            bestfree: (f64::INFINITY, NONE),
        };
        let mut expansions = 0u64;
        // The row to relax next, its offset `h`, and whether its
        // candidate cache may stand in for it (a deferred row's turn
        // is always a dense pass).
        let (mut i, mut h, mut lazy) = (freerow, 0.0, true);
        let (endofpath, minfinal) = loop {
            if lazy && n > CAND_K && cache[i].ok {
                stats.relaxed_cells += CAND_K as u64;
                relax_candidates(&mut f, &cache[i], v, h, i);
                defer.push(HeapEntry::new(cache[i].bound - h, i));
            } else {
                // A dense pass: every (live) column of row `i` not yet
                // in the tree, counted as a column scan. Deleted cells
                // carry dominated sentinel costs, so skipping them
                // never changes the shortest path (a perfect matching
                // over live cells always exists — the scheduler
                // deletes exactly one cell per row per round, leaving a
                // complete bipartite graph minus a partial permutation,
                // which satisfies Hall's condition). The pass refreshes
                // the row's cache for free: `val` is the reduced cost
                // less the row constant `h`, which keeps the order, and
                // the bound converts back by adding `h`.
                stats.col_scans += 1;
                let relax = |j, x| f.relax(j, x, i);
                let (vals, idxs, cells) = scan_row(costs, i, v, h, &cache[i].jt, val, relax);
                stats.relaxed_cells += cells;
                if n > CAND_K {
                    cache[i].refill(costs, i, &vals, &idxs, vals[CAND_K - 1] + h);
                }
            }
            // Discard stale and already-expanded heap entries.
            while let Some(&top) = f.heap.peek() {
                let j = top.idx();
                if f.col[j].tree == f.st || top.key() > f.col[j].d {
                    f.heap.pop();
                } else {
                    break;
                }
            }
            let hk = f.heap.peek().map_or(f64::INFINITY, |e| e.key());
            let dk = defer.peek().map_or(f64::INFINITY, |e| e.key());
            // The cheapest relaxed free column ends the search the
            // moment nothing left on the frontier could beat it.
            let best = f.bestfree;
            if best.0 <= hk && best.0 <= dk {
                debug_assert!(
                    best.1 != NONE,
                    "phase 4: frontier exhausted on a complete instance"
                );
                break (best.1, best.0);
            }
            if dk <= hk {
                // Expand the deferred row: its non-candidate edges
                // could still beat everything on the frontier.
                i = defer.pop().expect("deferred row vanished").idx();
                (h, lazy) = (rowh[i], false);
                continue;
            }
            let e = f.heap.pop().expect("frontier empty despite finite key");
            let j = e.idx();
            f.col[j].tree = f.st;
            scanned.push(j);
            expansions += 1;
            i = f.y[j];
            h = costs.at(i, j) - v[j] - e.key();
            rowh[i] = h;
            lazy = true;
        };
        if expansions == 0 {
            stats.fast_exits += 1;
        }
        // Update column potentials of scanned (tree) columns.
        for &j in scanned.iter() {
            v[j] += col[j].d - minfinal;
        }
        // Augment along the predecessor chain.
        let mut j = endofpath;
        loop {
            let i = pred[j];
            y[j] = i;
            std::mem::swap(&mut x[i], &mut j);
            if i == freerow {
                break;
            }
        }
    }
    free.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;

    #[test]
    fn trivial_cases() {
        assert_eq!(solve(&DenseCost::from_rows(&[])).cost, 0.0);
        let one = solve(&DenseCost::from_rows(&[vec![5.0]]));
        assert_eq!(one.row_to_col, vec![0]);
        assert_eq!(one.cost, 5.0);
    }

    /// A deterministic pseudo-random matrix with continuous (tie-free
    /// in practice) entries, seeded per instance.
    fn pseudo_random(n: usize, seed: u64) -> DenseCost {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DenseCost::from_fn(n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 100.0
        })
    }

    #[test]
    fn parallel_solve_is_bit_identical_to_serial_at_any_thread_count() {
        // The tentpole determinism property: partitioned phase-1 column
        // scans with a sequential reduce must reproduce the serial
        // assignment bit for bit, for every thread count.
        for n in [8usize, 16, 33, 64] {
            for seed in 0..3u64 {
                let costs = pseudo_random(n, 7 + seed * 131 + n as u64);
                let serial = solve(&costs);
                assert!(serial.is_permutation());
                for threads in [1usize, 2, 4, 8] {
                    let par = solve_warm_par(&costs, &mut Duals::new(), threads);
                    assert_eq!(
                        par.row_to_col, serial.row_to_col,
                        "n={n} seed={seed} threads={threads}"
                    );
                    assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
                }
            }
        }
    }

    #[test]
    fn parallel_path_counts_worker_scans() {
        let costs = pseudo_random(32, 9);
        let mut duals = Duals::new();
        let serial = solve_warm_par(&costs, &mut duals, 1);
        let serial_stats = duals.last_stats();
        assert_eq!(serial_stats.worker_scans, 0, "serial path shards nothing");

        let mut duals = Duals::new();
        let par = solve_warm_par(&costs, &mut duals, 4);
        let stats = duals.last_stats();
        assert_eq!(par.row_to_col, serial.row_to_col);
        assert_eq!(stats.worker_scans, 32, "one sharded scan per column");
        assert_eq!(
            stats.col_scans + stats.worker_scans,
            serial_stats.col_scans,
            "sharding moves phase-1 scans between counters without changing the total"
        );
    }

    #[test]
    fn matches_brute_force_on_fixed_instances() {
        let instances: Vec<DenseCost> = vec![
            DenseCost::from_rows(&[
                vec![9.0, 2.0, 7.0, 8.0],
                vec![6.0, 4.0, 3.0, 7.0],
                vec![5.0, 8.0, 1.0, 8.0],
                vec![7.0, 6.0, 9.0, 4.0],
            ]),
            DenseCost::from_fn(6, |i, j| ((i * 31 + j * 17) % 13) as f64),
            DenseCost::from_fn(5, |i, j| if i == j { 0.0 } else { 1.0 }),
            DenseCost::from_fn(7, |_, _| 3.0),
        ];
        for c in &instances {
            let fast = solve(c);
            let exact = brute::solve_min(c);
            assert!(fast.is_permutation());
            assert!(
                (fast.cost - exact.cost).abs() < 1e-9,
                "jv={} brute={} on\n{c}",
                fast.cost,
                exact.cost
            );
        }
    }

    #[test]
    fn from_potentials_seeds_an_exact_cross_job_warm_start() {
        // Job A: solve cold, retain the duals.
        let a = DenseCost::from_fn(12, |i, j| ((i * 37 + j * 23) % 41) as f64 + 1.0);
        let mut cold = Duals::new();
        let base = solve_warm(&a, &mut cold);
        let retained = cold.potentials().to_vec();
        let cold_scans = cold.last_stats().col_scans;
        assert!(!cold.last_stats().warm);

        // Job B: a mild perturbation of A, solved through a state
        // rebuilt from job A's retained potentials.
        let b = DenseCost::from_fn(12, |i, j| a.at(i, j) * 1.01 + 0.001 * (i as f64));
        let mut seeded = Duals::from_potentials(retained);
        assert_eq!(seeded.dim(), 12);
        let warm = solve_warm(&b, &mut seeded);
        assert!(seeded.last_stats().warm, "seeded solve must run warm");
        let exact = brute_cost_12(&b);
        assert!(
            (warm.cost - exact).abs() < 1e-9,
            "warm from a foreign seed must stay exact: {} vs {exact}",
            warm.cost
        );
        // The seed makes job B cheaper than job A's cold solve.
        assert!(
            seeded.last_stats().col_scans < cold_scans,
            "cross-job warm start should scan fewer columns ({} vs {cold_scans})",
            seeded.last_stats().col_scans
        );
        // Self-consistency: the same job solved cold agrees on cost.
        let cold_b = solve(&b);
        assert!((warm.cost - cold_b.cost).abs() < 1e-9);
        assert!((base.cost - brute_cost_12(&a)).abs() < 1e-9);
    }

    /// Exact optimum of a 12×12 instance via a second independent
    /// solver (Hungarian), used where brute force would be too slow.
    fn brute_cost_12(c: &DenseCost) -> f64 {
        crate::hungarian::solve(c).cost
    }

    #[test]
    fn from_potentials_rejects_non_finite_seeds() {
        let bad = std::panic::catch_unwind(|| Duals::from_potentials(vec![0.0, f64::NAN]));
        assert!(bad.is_err(), "NaN potentials must be rejected");
    }

    #[test]
    fn degenerate_duplicate_rows() {
        // Every row identical: any permutation is optimal; must terminate.
        let c = DenseCost::from_fn(8, |_, j| (j as f64) * 0.1);
        let a = solve(&c);
        assert!(a.is_permutation());
        let exact = brute::solve_min(&c);
        assert!((a.cost - exact.cost).abs() < 1e-9);
    }

    #[test]
    fn negative_and_mixed_costs() {
        let c = DenseCost::from_rows(&[
            vec![-3.0, 0.5, 2.0],
            vec![1.0, -1.0, 0.0],
            vec![0.0, 2.0, -2.0],
        ]);
        let a = solve(&c);
        assert_eq!(a.cost, -6.0);
        assert_eq!(a.row_to_col, vec![0, 1, 2]);
    }

    #[test]
    fn large_instance_terminates_and_is_consistent() {
        // Pseudo-random 64x64 instance; verify against the independent
        // Hungarian implementation.
        let c = DenseCost::from_fn(64, |i, j| {
            let h = (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) % 10_000;
            h as f64 / 10.0
        });
        let a = solve(&c);
        let b = crate::hungarian::solve(&c);
        assert!(a.is_permutation());
        assert!(
            (a.cost - b.cost).abs() < 1e-6,
            "jv={} hungarian={}",
            a.cost,
            b.cost
        );
    }

    #[test]
    fn warm_solve_matches_cold_across_edits() {
        // The matching-scheduler access pattern: solve, raise the matched
        // entries to a sentinel, solve again — P rounds on one Duals.
        let n = 12;
        let mut c = DenseCost::from_fn(n, |i, j| {
            ((i.wrapping_mul(97) ^ j.wrapping_mul(31)) % 1000) as f64 / 7.0
        });
        let sentinel = 1e6;
        let mut duals = Duals::new();
        for round in 0..n {
            let warm = solve_warm(&c, &mut duals);
            let cold = solve(&c);
            assert!(warm.is_permutation());
            assert!(
                (warm.cost - cold.cost).abs() < 1e-9,
                "round {round}: warm={} cold={}",
                warm.cost,
                cold.cost
            );
            for (i, &j) in warm.row_to_col.iter().enumerate() {
                c.set(i, j, sentinel);
            }
        }
    }

    #[test]
    fn warm_state_resizes_on_dimension_change() {
        let mut duals = Duals::new();
        assert_eq!(duals.dim(), 0);
        let a = solve_warm(
            &DenseCost::from_fn(3, |i, j| (i * 3 + j) as f64),
            &mut duals,
        );
        assert!(a.is_permutation());
        assert_eq!(duals.dim(), 3);
        assert_eq!(duals.potentials().len(), 3);
        let b = solve_warm(
            &DenseCost::from_fn(5, |i, j| (i + 2 * j) as f64),
            &mut duals,
        );
        assert!(b.is_permutation());
        assert_eq!(duals.dim(), 5);
        // Shrinking back also works (cold re-init).
        let c = solve_warm(&DenseCost::from_rows(&[vec![7.0]]), &mut duals);
        assert_eq!(c.cost, 7.0);
        // And the degenerate empty instance clears the state.
        let e = solve_warm(&DenseCost::from_rows(&[]), &mut duals);
        assert_eq!(e.cost, 0.0);
        assert_eq!(duals.dim(), 0);
    }

    #[test]
    fn solve_stats_reflect_warm_and_cold_paths() {
        let c = DenseCost::from_fn(8, |i, j| ((i * 13 + j * 7) % 11) as f64);
        let mut duals = Duals::new();
        solve_warm(&c, &mut duals);
        let cold = duals.last_stats();
        assert!(!cold.warm);
        solve_warm(&c, &mut duals);
        let warm = duals.last_stats();
        assert!(warm.warm);
        // Both paths hand phase 4 only the phase-3 leftovers.
        assert!(warm.aug_paths <= 8);
        assert!(cold.aug_paths <= 8);
        // Re-solving the *same* matrix warm is the best case: retained
        // potentials keep the phase-3/phase-4 work within its bounded
        // budget (8 passes over at most n rows each).
        assert!(warm.col_scans <= 8 * 8, "warm={warm:?} cold={cold:?}");
        // The empty instance zeroes the stats.
        solve_warm(&DenseCost::from_rows(&[]), &mut duals);
        assert_eq!(duals.last_stats(), SolveStats::default());
    }

    #[test]
    fn warm_solve_on_all_equal_costs_terminates() {
        // Total degeneracy: every augmentation sees nothing but ties.
        let c = DenseCost::from_fn(9, |_, _| 2.5);
        let mut duals = Duals::new();
        for _ in 0..3 {
            let a = solve_warm(&c, &mut duals);
            assert!(a.is_permutation());
            assert_eq!(a.cost, 9.0 * 2.5);
        }
    }
}
