//! Parallel sweep engine for the (scenario × P × trial) instance grids
//! behind Figures 9–12 and the §5 summary statistics.
//!
//! The engine separates *what* an experiment evaluates from *how* the
//! grid is traversed:
//!
//! * [`SweepGrid`] enumerates the instance grid. Each instance's RNG
//!   seed is derived **from its grid coordinates alone** (via the grid's
//!   [`SeedFn`]), never from traversal order, so any traversal — serial,
//!   threaded, chunked — prices the exact same set of networks.
//! * [`SweepRunner`] evaluates the grid, fanning instances out across a
//!   fixed pool of scoped OS threads (the container image has no rayon,
//!   so the fan-out is a work-claiming `AtomicUsize` over the point list
//!   — the same dynamic-chunking behaviour `rayon::par_iter` would give
//!   for this embarrassingly parallel shape). Results are reassembled in
//!   grid order, so the output is **bit-identical for every thread
//!   count**, including the serial `threads = 1` reference path.
//! * [`SweepStats`] folds per-instance results into per-scheduler
//!   lb-ratio statistics and can merge partial accumulators from
//!   independently processed chunks.
//!
//! Per-scheduler sums are accumulated in grid order by the fold, so the
//! figures and summaries built on top of this engine reproduce the
//! numbers of the original serial loops exactly.

use adaptcomm_core::algorithms::all_schedulers;
use adaptcomm_model::generator::GeneratorConfig;
use adaptcomm_workloads::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Derives an instance seed from grid coordinates.
///
/// Implementations must be pure functions of `(scenario, p, trial)`; the
/// runner never passes anything traversal-dependent.
pub type SeedFn = fn(Scenario, usize, u64) -> u64;

/// The seed family used by the figure sweeps ([`crate::experiments::run_figure_on`]).
pub fn figure_seed(_scenario: Scenario, p: usize, trial: u64) -> u64 {
    trial.wrapping_mul(7919).wrapping_add(p as u64)
}

/// The seed family used by the §5 summary statistics
/// ([`crate::experiments::summary`]).
pub fn summary_seed(_scenario: Scenario, p: usize, trial: u64) -> u64 {
    trial.wrapping_mul(104_729).wrapping_add(p as u64)
}

/// A (scenario × P × trial) instance grid with coordinate-derived seeds.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Scenarios, in grid-major order.
    pub scenarios: Vec<Scenario>,
    /// Processor counts swept per scenario.
    pub p_values: Vec<usize>,
    /// Network draws per (scenario, P) data point.
    pub trials: u64,
    /// Network-generator configuration shared by every instance.
    pub cfg: GeneratorConfig,
    /// Coordinate → seed mapping.
    pub seed_fn: SeedFn,
}

impl SweepGrid {
    /// A single-scenario grid with the figure seed family.
    pub fn figure(
        scenario: Scenario,
        p_values: &[usize],
        trials: u64,
        cfg: GeneratorConfig,
    ) -> Self {
        SweepGrid {
            scenarios: vec![scenario],
            p_values: p_values.to_vec(),
            trials,
            cfg,
            seed_fn: figure_seed,
        }
    }

    /// The all-figure-scenarios grid with the summary seed family.
    pub fn summary(p_values: &[usize], trials: u64) -> Self {
        SweepGrid {
            scenarios: Scenario::FIGURES.to_vec(),
            p_values: p_values.to_vec(),
            trials,
            cfg: GeneratorConfig::default(),
            seed_fn: summary_seed,
        }
    }

    /// All grid points in canonical order (scenario-major, then P, then
    /// trial), each with its coordinate-derived seed.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut out =
            Vec::with_capacity(self.scenarios.len() * self.p_values.len() * self.trials as usize);
        for &scenario in &self.scenarios {
            for &p in &self.p_values {
                for trial in 0..self.trials {
                    out.push(SweepPoint {
                        scenario,
                        p,
                        trial,
                        seed: (self.seed_fn)(scenario, p, trial),
                    });
                }
            }
        }
        out
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.p_values.len() * self.trials as usize
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One grid coordinate with its derived seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Workload scenario.
    pub scenario: Scenario,
    /// Processor count.
    pub p: usize,
    /// Trial index within the (scenario, P) data point.
    pub trial: u64,
    /// Instance seed, derived from the coordinates above.
    pub seed: u64,
}

/// Everything the experiments need from one evaluated instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceResult {
    /// The grid point this instance came from.
    pub point: SweepPoint,
    /// The instance's lower bound (ms).
    pub lower_bound_ms: f64,
    /// `(scheduler name, completion time ms)` in [`all_schedulers`] order.
    pub completions_ms: Vec<(&'static str, f64)>,
}

impl InstanceResult {
    /// Completion / lower-bound ratio for one scheduler.
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.completions_ms
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, t)| t / self.lower_bound_ms)
    }
}

/// Evaluates sweep grids, optionally across threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner using `threads` worker threads (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The serial reference path (one worker, no thread spawn).
    pub fn serial() -> Self {
        SweepRunner { threads: 1 }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SweepRunner { threads }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates every grid point with every registered scheduler.
    ///
    /// Returns results in the grid's canonical order regardless of how
    /// many threads evaluated them, so downstream folds are bit-identical
    /// for every thread count.
    pub fn run(&self, grid: &SweepGrid) -> Vec<InstanceResult> {
        let points = grid.points();
        if self.threads == 1 || points.len() <= 1 {
            return points
                .iter()
                .map(|pt| evaluate_point(pt, grid.cfg))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let workers = self.threads.min(points.len());
        let mut tagged: Vec<(usize, InstanceResult)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    // Shared by reference across workers: the point list
                    // and the claim counter.
                    let (points, next) = (&points, &next);
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            let Some(pt) = points.get(idx) else { break };
                            local.push((idx, evaluate_point(pt, grid.cfg)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        tagged.sort_by_key(|&(idx, _)| idx);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs the grid and folds the results into [`SweepStats`].
    pub fn stats(&self, grid: &SweepGrid) -> SweepStats {
        let mut stats = SweepStats::default();
        for r in self.run(grid) {
            stats.observe(&r);
        }
        stats
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::auto()
    }
}

/// Prices one grid point: builds the instance from its coordinate seed
/// and schedules it with every registered algorithm.
///
/// The scheduler set is built fresh per point, NOT shared across the
/// run: the matching schedulers retain their last plan and replan
/// same-dimension matrices incrementally, which is exact but — on
/// tied instances — can pick a different equally-optimal matching
/// than a cold build. A shared set would make results depend on which
/// matrices each worker happened to see, breaking the thread-count
/// invariance this engine guarantees.
fn evaluate_point(point: &SweepPoint, cfg: GeneratorConfig) -> InstanceResult {
    let schedulers = all_schedulers();
    let inst = point.scenario.instance_with(point.p, point.seed, cfg);
    InstanceResult {
        point: *point,
        lower_bound_ms: inst.matrix.lower_bound().as_ms(),
        completions_ms: schedulers
            .iter()
            .map(|s| (s.name(), s.schedule(&inst.matrix).completion_time().as_ms()))
            .collect(),
    }
}

/// Per-scheduler accumulator state within [`SweepStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedulerAccum {
    /// Σ completion / lower-bound over observed instances.
    pub ratio_sum: f64,
    /// Worst (largest) observed ratio.
    pub ratio_worst: f64,
    /// Σ completion time (ms).
    pub completion_sum_ms: f64,
}

/// Mergeable per-scheduler lb-ratio statistics over a set of instances.
///
/// `observe` folds instances one at a time; `merge` combines accumulators
/// built over disjoint chunks. Sums are plain `f64` additions, so for
/// bit-reproducible output fold (or merge) in a deterministic order —
/// [`SweepRunner`] always hands results back in grid order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepStats {
    /// `(scheduler name, accumulator)` in first-observed order.
    pub per_scheduler: Vec<(&'static str, SchedulerAccum)>,
    /// Number of instances folded in.
    pub instances: usize,
    /// Σ lower bound (ms) over observed instances.
    pub lb_sum_ms: f64,
}

impl SweepStats {
    /// Folds one instance into the accumulator.
    pub fn observe(&mut self, r: &InstanceResult) {
        self.instances += 1;
        self.lb_sum_ms += r.lower_bound_ms;
        for &(name, completion) in &r.completions_ms {
            let ratio = completion / r.lower_bound_ms;
            let acc = self.entry(name);
            acc.ratio_sum += ratio;
            acc.ratio_worst = acc.ratio_worst.max(ratio);
            acc.completion_sum_ms += completion;
        }
    }

    /// Merges another accumulator (built over a disjoint instance set).
    pub fn merge(&mut self, other: &SweepStats) {
        self.instances += other.instances;
        self.lb_sum_ms += other.lb_sum_ms;
        for &(name, acc) in &other.per_scheduler {
            let mine = self.entry(name);
            mine.ratio_sum += acc.ratio_sum;
            mine.ratio_worst = mine.ratio_worst.max(acc.ratio_worst);
            mine.completion_sum_ms += acc.completion_sum_ms;
        }
    }

    fn entry(&mut self, name: &'static str) -> &mut SchedulerAccum {
        if let Some(k) = self.per_scheduler.iter().position(|&(n, _)| n == name) {
            return &mut self.per_scheduler[k].1;
        }
        self.per_scheduler.push((name, SchedulerAccum::default()));
        &mut self.per_scheduler.last_mut().expect("just pushed").1
    }

    /// Renders the statistics table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# completion / lower-bound over {} instances\n{:>14} {:>10} {:>10}\n",
            self.instances, "algorithm", "mean", "worst"
        );
        for &(name, acc) in &self.per_scheduler {
            out.push_str(&format!(
                "{name:>14} {:>10.3} {:>10.3}\n",
                acc.ratio_sum / self.instances as f64,
                acc.ratio_worst
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid {
            scenarios: vec![Scenario::Small, Scenario::Mixed],
            p_values: vec![5, 8],
            trials: 2,
            cfg: GeneratorConfig::default(),
            seed_fn: figure_seed,
        }
    }

    #[test]
    fn seeds_depend_only_on_grid_coordinates() {
        let grid = small_grid();
        let pts = grid.points();
        assert_eq!(pts.len(), grid.len());
        // Same coordinates → same seed, independent of position.
        let mut reversed = grid.clone();
        reversed.p_values.reverse();
        reversed.scenarios.reverse();
        for pt in &pts {
            let twin = reversed
                .points()
                .into_iter()
                .find(|q| {
                    q.scenario.name() == pt.scenario.name() && q.p == pt.p && q.trial == pt.trial
                })
                .unwrap();
            assert_eq!(twin.seed, pt.seed);
        }
    }

    #[test]
    fn results_are_bit_identical_for_every_thread_count() {
        let grid = small_grid();
        let serial = SweepRunner::serial().run(&grid);
        for threads in [2, 4, 7] {
            let parallel = SweepRunner::new(threads).run(&grid);
            // `PartialEq` on f64 fields: exact bitwise agreement, not
            // approximate.
            assert_eq!(serial, parallel, "{threads}-thread run diverged");
        }
    }

    #[test]
    fn results_come_back_in_grid_order() {
        let grid = small_grid();
        let results = SweepRunner::new(3).run(&grid);
        let points = grid.points();
        assert_eq!(results.len(), points.len());
        for (r, pt) in results.iter().zip(&points) {
            assert_eq!(r.point, *pt);
        }
    }

    #[test]
    fn stats_fold_matches_merged_chunks() {
        let grid = small_grid();
        let results = SweepRunner::serial().run(&grid);
        let mut whole = SweepStats::default();
        for r in &results {
            whole.observe(r);
        }
        let (a, b) = results.split_at(results.len() / 2);
        let mut merged = SweepStats::default();
        for r in a {
            merged.observe(r);
        }
        let mut second = SweepStats::default();
        for r in b {
            second.observe(r);
        }
        merged.merge(&second);
        assert_eq!(merged.instances, whole.instances);
        for &(name, acc) in &whole.per_scheduler {
            let (_, m) = merged
                .per_scheduler
                .iter()
                .find(|&&(n, _)| n == name)
                .unwrap();
            assert!((m.ratio_sum - acc.ratio_sum).abs() < 1e-9);
            assert_eq!(m.ratio_worst, acc.ratio_worst);
            assert!((m.completion_sum_ms - acc.completion_sum_ms).abs() < 1e-6);
        }
    }

    #[test]
    fn ratios_are_at_least_one() {
        let grid = SweepGrid::summary(&[6], 1);
        let stats = SweepRunner::new(2).stats(&grid);
        assert_eq!(stats.instances, grid.len());
        for &(name, acc) in &stats.per_scheduler {
            let mean = acc.ratio_sum / stats.instances as f64;
            assert!(mean >= 1.0 - 1e-9, "{name} beat the lower bound");
            assert!(acc.ratio_worst >= mean - 1e-9);
        }
        let text = stats.render();
        assert!(text.contains("openshop"));
    }

    #[test]
    fn runner_constructors() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
        assert_eq!(SweepRunner::serial().threads(), 1);
        assert!(SweepRunner::auto().threads() >= 1);
        assert!(!small_grid().is_empty());
    }
}
