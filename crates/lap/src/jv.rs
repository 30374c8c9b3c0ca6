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
//! 3. **Augmenting row reduction** — two passes of alternating-row
//!    reassignment for unassigned rows (fast in practice).
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
//! [`Duals`], skips phases 1–3, and runs only the augmentation phase from
//! the retained potentials. The augmentation phase is the textbook
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

use crate::matrix::DenseCost;
use crate::Assignment;

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
    /// Shortest-path distance scratch.
    d: Vec<f64>,
    /// Shortest-path predecessor scratch.
    pred: Vec<usize>,
    /// Unassigned-row worklist scratch.
    free: Vec<usize>,
    /// Per-row candidate columns (flattened `n × CAND_K`): the columns
    /// with the smallest reduced costs at the row's last full scan,
    /// ascending. See [`augmenting_row_reduction`] for the bound
    /// argument that makes reusing them exact.
    cand: Vec<usize>,
    /// Per-row rest bound: the `CAND_K`-th smallest reduced cost at the
    /// row's last full scan. Every column outside the candidate list
    /// had reduced cost ≥ this bound then — and stays above it, because
    /// `v` never increases after the cold phases and monotone callers
    /// only raise costs.
    cand_bound: Vec<f64>,
    /// Raw costs of the cached candidate cells (parallel to `cand`).
    /// Costs are static within a solve, so sweeps read them from this
    /// contiguous buffer instead of gathering across the whole cost
    /// matrix; cross-solve edits must be declared per cell via
    /// [`Duals::note_cost_increase`] for the monotone fast path.
    cand_c: Vec<f64>,
    /// Whether the row's candidate list is populated and trustworthy.
    cand_ok: Vec<bool>,
    /// One-shot flag set by [`Duals::assume_monotone_edits`]: the next
    /// warm solve keeps candidate caches across the call.
    monotone: bool,
    /// Per-column stamp marking `d`/`pred` entries valid for the
    /// current phase-4 search (avoids an `O(n)` clear per path).
    dstamp: Vec<u32>,
    /// Per-column stamp marking columns already in the search tree.
    intree: Vec<u32>,
    /// The current search stamp; incremented per augmenting path.
    stamp: u32,
    /// Frontier min-heap of tentative column distances.
    heap: std::collections::BinaryHeap<HeapEntry>,
    /// Deferred-row min-heap: one entry per tree row standing in for
    /// all its non-candidate edges (key = rest bound − row offset).
    defer: std::collections::BinaryHeap<HeapEntry>,
    /// Per-row reduced-cost offset `h` within the current search.
    rowh: Vec<f64>,
    /// Columns scanned (popped into the tree) by the current search —
    /// the set whose potentials the dual update touches.
    scanned: Vec<usize>,
    /// Counters from the most recent solve (observability).
    stats: SolveStats,
}

/// Cheap per-solve counters, refreshed by every [`solve_warm`] call.
/// The matching scheduler forwards them to the observability layer to
/// make warm-start effectiveness visible (hit rate, path counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Whether the solve reused retained potentials (skipping phases
    /// 1–3) rather than running cold.
    pub warm: bool,
    /// Augmenting paths run in phase 4 (`n` for a warm solve, the
    /// phase-3 leftovers for a cold one).
    pub aug_paths: u64,
    /// Column scans performed: full-row/column passes in the reduction
    /// phases (cold solves only) plus ready-column scans in the phase-4
    /// path searches — the actual work metric warm starts are meant to
    /// shrink. A warm solve skips the reduction phases entirely, so its
    /// count is pure augmentation work.
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
        self.d.resize(n, 0.0);
        self.pred.resize(n, 0);
        self.free.clear();
        self.cand.clear();
        self.cand.resize(n * CAND_K, 0);
        self.cand_bound.clear();
        self.cand_bound.resize(n, 0.0);
        self.cand_c.clear();
        self.cand_c.resize(n * CAND_K, 0.0);
        self.cand_ok.clear();
        self.cand_ok.resize(n, false);
        self.monotone = false;
        self.dstamp.clear();
        self.dstamp.resize(n, 0);
        self.intree.clear();
        self.intree.resize(n, 0);
        self.stamp = 0;
        self.heap.clear();
        self.defer.clear();
        self.rowh.clear();
        self.rowh.resize(n, 0.0);
        self.scanned.clear();
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
        let base = i * CAND_K;
        for t in 0..CAND_K {
            if self.cand[base + t] == j {
                self.cand_c[base + t] = new_c;
                return;
            }
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
    duals.stats.col_scans = 0;
    duals.stats.fast_exits = 0;
    duals.stats.worker_scans = 0;
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
            duals.cand_ok.fill(false);
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
    let x = &mut duals.x;
    let y = &mut duals.y;
    let v = &mut duals.v;
    let free = &mut duals.free;
    let cand = &mut duals.cand;
    let cand_bound = &mut duals.cand_bound;
    let cand_c = &mut duals.cand_c;
    let cand_ok = &mut duals.cand_ok;
    let mut scans = 0u64;
    for _pass in 0..passes {
        let nfree = free.len();
        let mut k = 0usize;
        let mut next_free: Vec<usize> = Vec::new();
        let mut retries = 0usize;
        while k < nfree {
            let i = free[k];
            k += 1;
            let row = costs.row(i);
            // First and second minima of the reduced row — from the
            // row's candidate cache when it still certifies them, with
            // a full scan (which refills the cache) otherwise.
            let mut umin = f64::INFINITY;
            let mut usubmin = f64::INFINITY;
            let mut j1 = 0usize;
            let mut j2 = 0usize;
            let mut certified = false;
            if n > CAND_K && cand_ok[i] {
                // Current reduced costs of the cached candidates.
                // Every column outside the cache was ≥ `cand_bound[i]`
                // at scan time and has only risen since (costs monotone
                // up, `v` monotone down), so if the two smallest
                // candidates are both ≤ the bound they are the true
                // row minima. Raw costs come from the contiguous
                // `cand_c` mirror — two cache lines instead of sixteen
                // scattered matrix reads.
                let base = i * CAND_K;
                let cnd = &cand[base..base + CAND_K];
                let cc = &cand_c[base..base + CAND_K];
                for (&j, &c) in cnd.iter().zip(cc) {
                    let h = c - v[j];
                    if h < usubmin {
                        if h >= umin {
                            usubmin = h;
                            j2 = j;
                        } else {
                            usubmin = umin;
                            j2 = j1;
                            umin = h;
                            j1 = j;
                        }
                    }
                }
                certified = usubmin <= cand_bound[i];
            }
            if !certified {
                scans += 1;
                let (vals, idxs) = scan_topk(costs, i, v);
                umin = vals[0];
                j1 = idxs[0];
                usubmin = vals[1];
                j2 = idxs[1];
                if n > CAND_K {
                    let base = i * CAND_K;
                    cand[base..base + CAND_K].copy_from_slice(&idxs);
                    for t in 0..CAND_K {
                        cand_c[base + t] = if vals[t].is_finite() {
                            row[idxs[t]]
                        } else {
                            f64::INFINITY
                        };
                    }
                    cand_bound[i] = vals[CAND_K - 1];
                    cand_ok[i] = true;
                }
            }
            let mut i0 = y[j1];
            if umin < usubmin {
                // A row whose (live) cells are down to one has no
                // second minimum: take the column without a price
                // drop. Any drop in `[0, usubmin - umin]` preserves
                // the phase invariant (the taken edge still attains
                // its row minimum), so clamping ∞ to 0 is exact.
                if usubmin.is_finite() {
                    v[j1] -= usubmin - umin;
                }
            } else if i0 != NONE {
                j1 = j2;
                i0 = y[j1];
            }
            x[i] = j1;
            y[j1] = i;
            if i0 != NONE {
                x[i0] = NONE;
                if umin < usubmin && retries < retry_cap {
                    // Re-process the displaced row immediately.
                    retries += 1;
                    k -= 1;
                    free[k] = i0;
                } else {
                    next_free.push(i0);
                }
            }
        }
        *free = next_free;
        if free.is_empty() {
            break;
        }
    }
    duals.stats.col_scans += scans;
}

/// Offers `(val, j)` to the running top-`CAND_K` selection in
/// `vals`/`idxs`, keeping entries ordered by `(value, column id)`.
/// That criterion is order-independent, so the selection is identical
/// whether the caller walked the dense row ascending or the compacted
/// live view in arbitrary order. Unfilled slots hold `(∞, 0)`;
/// consumers treat a non-finite value as an empty slot.
#[inline]
fn consider_topk(vals: &mut [f64; CAND_K], idxs: &mut [usize; CAND_K], val: f64, j: usize) {
    let last = CAND_K - 1;
    if val < vals[last] || (val == vals[last] && j < idxs[last]) {
        let mut p = last;
        while p > 0 && (vals[p - 1] > val || (vals[p - 1] == val && idxs[p - 1] > j)) {
            vals[p] = vals[p - 1];
            idxs[p] = idxs[p - 1];
            p -= 1;
        }
        vals[p] = val;
        idxs[p] = j;
    }
}

/// Scans row `i` and returns the `CAND_K` smallest reduced costs with
/// their columns (see [`consider_topk`] for ordering and padding).
/// Walks the compacted live view when the matrix tracks deletions —
/// two dense streams whose length shrinks with every deleted cell —
/// and the full dense row otherwise.
fn scan_topk(costs: &DenseCost, i: usize, v: &[f64]) -> ([f64; CAND_K], [usize; CAND_K]) {
    let mut vals = [f64::INFINITY; CAND_K];
    let mut idxs = [0usize; CAND_K];
    if let Some((cols, cvals)) = costs.live_row(i) {
        for (&j, &c) in cols.iter().zip(cvals) {
            let j = j as usize;
            consider_topk(&mut vals, &mut idxs, c - v[j], j);
        }
    } else {
        for (j, (&c, &vj)) in costs.row(i).iter().zip(v.iter()).enumerate() {
            consider_topk(&mut vals, &mut idxs, c - vj, j);
        }
    }
    (vals, idxs)
}

/// A priority-queue entry: a tentative key and the column (or row) it
/// belongs to. Ordered as a *min*-heap on the key with ascending index
/// as the deterministic tiebreak (std's `BinaryHeap` is a max-heap, so
/// the comparisons are reversed). Keys are always finite.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    key: f64,
    idx: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Relaxes every (live) column of row `i` (reduced by `v` and the row
/// offset `h`) that is not yet in the search tree. The dense fallback
/// of the lazy search — one full row pass, counted as a column scan by
/// the caller. With live tracking on, only the row's undeleted cells
/// are walked; deleted cells carry dominated sentinel costs, so
/// skipping them never changes the shortest path (a perfect matching
/// over live cells always exists — the scheduler deletes exactly one
/// cell per row per round, leaving a complete bipartite graph minus a
/// partial permutation, which satisfies Hall's condition).
#[allow(clippy::too_many_arguments)]
fn relax_dense(
    costs: &DenseCost,
    v: &[f64],
    h: f64,
    i: usize,
    st: u32,
    intree: &[u32],
    y: &[usize],
    d: &mut [f64],
    dstamp: &mut [u32],
    pred: &mut [usize],
    heap: &mut std::collections::BinaryHeap<HeapEntry>,
    bestfree: &mut HeapEntry,
    cache: Option<(&mut [usize], &mut [f64], &mut f64, &mut bool)>,
) {
    // The pass walks the whole (live) row anyway, so it refreshes the
    // row's candidate cache for free: the top-`CAND_K` reduced costs
    // (`val` is the reduced cost minus the row constant `h`, which
    // preserves order, and the bound converts back by adding `h`).
    // Selection is by `(val, j)` so dense and live layouts agree
    // bit-for-bit despite the live rows' arbitrary cell order.
    let mut vals = [f64::INFINITY; CAND_K];
    let mut idxs = [0usize; CAND_K];
    let mut relax = |j: usize, val: f64| {
        if intree[j] == st {
            return;
        }
        if dstamp[j] != st || val < d[j] {
            d[j] = val;
            dstamp[j] = st;
            pred[j] = i;
            if y[j] == NONE {
                // Free columns never need expanding: track the best
                // one directly instead of routing it through the heap,
                // so the search can stop the moment it is provably
                // minimal — without expanding an entire tie plateau.
                if val < bestfree.key || (val == bestfree.key && j < bestfree.idx) {
                    *bestfree = HeapEntry { key: val, idx: j };
                }
            } else {
                heap.push(HeapEntry { key: val, idx: j });
            }
        }
    };
    if let Some((cols, cvals)) = costs.live_row(i) {
        for (&j, &c) in cols.iter().zip(cvals) {
            let j = j as usize;
            let val = c - v[j] - h;
            consider_topk(&mut vals, &mut idxs, val, j);
            relax(j, val);
        }
    } else {
        for (j, (&c, &vj)) in costs.row(i).iter().zip(v.iter()).enumerate() {
            let val = c - vj - h;
            consider_topk(&mut vals, &mut idxs, val, j);
            relax(j, val);
        }
    }
    if let Some((cand_row, cand_row_c, bound, ok)) = cache {
        cand_row.copy_from_slice(&idxs);
        for t in 0..CAND_K {
            // Rows with fewer than `CAND_K` live cells pad the top-K
            // with `(∞, 0)`; the pad slots must cache `∞`, not the raw
            // cost of column 0, or they would masquerade as candidates.
            cand_row_c[t] = if vals[t].is_finite() {
                costs.at(i, idxs[t])
            } else {
                f64::INFINITY
            };
        }
        *bound = vals[CAND_K - 1] + h;
        *ok = true;
    }
}

/// Relaxes only the cached candidate columns of row `i` — `O(CAND_K)`
/// instead of `O(n)`. Exactness is restored by the caller deferring a
/// dense pass behind the row's rest bound.
#[allow(clippy::too_many_arguments)]
fn relax_candidates(
    cands: &[usize],
    cands_c: &[f64],
    v: &[f64],
    h: f64,
    i: usize,
    st: u32,
    intree: &[u32],
    y: &[usize],
    d: &mut [f64],
    dstamp: &mut [u32],
    pred: &mut [usize],
    heap: &mut std::collections::BinaryHeap<HeapEntry>,
    bestfree: &mut HeapEntry,
) {
    for (&j, &c) in cands.iter().zip(cands_c) {
        // Pad slots (rows with fewer than `CAND_K` live cells) carry
        // `∞` and stand for no edge.
        if intree[j] == st || !c.is_finite() {
            continue;
        }
        let val = c - v[j] - h;
        if dstamp[j] != st || val < d[j] {
            d[j] = val;
            dstamp[j] = st;
            pred[j] = i;
            if y[j] == NONE {
                if val < bestfree.key || (val == bestfree.key && j < bestfree.idx) {
                    *bestfree = HeapEntry { key: val, idx: j };
                }
            } else {
                heap.push(HeapEntry { key: val, idx: j });
            }
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
        d,
        pred,
        free,
        cand,
        cand_c,
        cand_bound,
        cand_ok,
        dstamp,
        intree,
        stamp,
        heap,
        defer,
        rowh,
        scanned,
        stats,
        ..
    } = duals;
    for &freerow in free.iter() {
        *stamp += 1;
        let st = *stamp;
        heap.clear();
        defer.clear();
        scanned.clear();
        rowh[freerow] = 0.0;
        let mut bestfree = HeapEntry {
            key: f64::INFINITY,
            idx: NONE,
        };
        if n > CAND_K && cand_ok[freerow] {
            relax_candidates(
                &cand[freerow * CAND_K..(freerow + 1) * CAND_K],
                &cand_c[freerow * CAND_K..(freerow + 1) * CAND_K],
                v,
                0.0,
                freerow,
                st,
                intree,
                y,
                d,
                dstamp,
                pred,
                heap,
                &mut bestfree,
            );
            defer.push(HeapEntry {
                key: cand_bound[freerow],
                idx: freerow,
            });
        } else {
            stats.col_scans += 1;
            let cache = if n > CAND_K {
                Some((
                    &mut cand[freerow * CAND_K..(freerow + 1) * CAND_K],
                    &mut cand_c[freerow * CAND_K..(freerow + 1) * CAND_K],
                    &mut cand_bound[freerow],
                    &mut cand_ok[freerow],
                ))
            } else {
                None
            };
            relax_dense(
                costs,
                v,
                0.0,
                freerow,
                st,
                intree,
                y,
                d,
                dstamp,
                pred,
                heap,
                &mut bestfree,
                cache,
            );
        }
        let mut expansions = 0u64;
        let (endofpath, minfinal);
        loop {
            // Discard stale and already-expanded heap entries.
            while let Some(&top) = heap.peek() {
                if intree[top.idx] == st || top.key > d[top.idx] {
                    heap.pop();
                } else {
                    break;
                }
            }
            let hk = heap.peek().map_or(f64::INFINITY, |e| e.key);
            let dk = defer.peek().map_or(f64::INFINITY, |e| e.key);
            // The cheapest relaxed free column ends the search the
            // moment nothing left on the frontier could beat it.
            if bestfree.key <= hk && bestfree.key <= dk {
                debug_assert!(
                    bestfree.idx != NONE,
                    "phase 4: frontier exhausted on a complete instance"
                );
                endofpath = bestfree.idx;
                minfinal = bestfree.key;
                break;
            }
            if dk <= hk {
                // Expand the deferred row: its non-candidate edges
                // could still beat everything on the frontier.
                let top = defer.pop().expect("deferred row vanished");
                stats.col_scans += 1;
                let cache = if n > CAND_K {
                    Some((
                        &mut cand[top.idx * CAND_K..(top.idx + 1) * CAND_K],
                        &mut cand_c[top.idx * CAND_K..(top.idx + 1) * CAND_K],
                        &mut cand_bound[top.idx],
                        &mut cand_ok[top.idx],
                    ))
                } else {
                    None
                };
                relax_dense(
                    costs,
                    v,
                    rowh[top.idx],
                    top.idx,
                    st,
                    intree,
                    y,
                    d,
                    dstamp,
                    pred,
                    heap,
                    &mut bestfree,
                    cache,
                );
                continue;
            }
            let e = heap.pop().expect("frontier empty despite finite key");
            let j = e.idx;
            intree[j] = st;
            scanned.push(j);
            expansions += 1;
            let i = y[j];
            let row_i = costs.row(i);
            let h = row_i[j] - v[j] - e.key;
            rowh[i] = h;
            if n > CAND_K && cand_ok[i] {
                relax_candidates(
                    &cand[i * CAND_K..(i + 1) * CAND_K],
                    &cand_c[i * CAND_K..(i + 1) * CAND_K],
                    v,
                    h,
                    i,
                    st,
                    intree,
                    y,
                    d,
                    dstamp,
                    pred,
                    heap,
                    &mut bestfree,
                );
                defer.push(HeapEntry {
                    key: cand_bound[i] - h,
                    idx: i,
                });
            } else {
                stats.col_scans += 1;
                let cache = if n > CAND_K {
                    Some((
                        &mut cand[i * CAND_K..(i + 1) * CAND_K],
                        &mut cand_c[i * CAND_K..(i + 1) * CAND_K],
                        &mut cand_bound[i],
                        &mut cand_ok[i],
                    ))
                } else {
                    None
                };
                relax_dense(
                    costs,
                    v,
                    h,
                    i,
                    st,
                    intree,
                    y,
                    d,
                    dstamp,
                    pred,
                    heap,
                    &mut bestfree,
                    cache,
                );
            }
        }
        if expansions == 0 {
            stats.fast_exits += 1;
        }
        // Update column potentials of scanned (tree) columns.
        for &j in scanned.iter() {
            v[j] += d[j] - minfinal;
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
