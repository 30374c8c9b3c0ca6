//! What a workload is to the runner: a fixed script of `N` ops, each
//! with a class, replayed in cycles (README "Estimator rules", rule 1).

use crate::trace::Tracer;
use adaptcomm::prelude::{CommMatrix, Schedule, SendOrder};
use adaptcomm::scheduling::fingerprint::Fnv1a;

/// What checking one op's output found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Why the output is wrong, if it is.
    pub failure: Option<String>,
    /// Σ completion ÷ `t_lb` over the plans this op produced.
    pub ratio_sum: f64,
    /// How many plans that sum covers.
    pub ratio_count: u32,
    /// Digest of the bits of every completion time the op produced; the
    /// runner requires it to repeat exactly in every cycle.
    pub completions: Fnv1a,
}

impl Verdict {
    /// Folds one plan's completion time and its matrix lower bound in.
    pub fn add_plan(&mut self, completion_ms: f64, lower_bound_ms: f64) {
        if lower_bound_ms > 0.0 {
            self.ratio_sum += completion_ms / lower_bound_ms;
            self.ratio_count += 1;
        }
        self.add_completion(completion_ms);
    }

    /// Folds in a completion time that must repeat bit-exactly but is
    /// not a plan against a lower bound.
    pub fn add_completion(&mut self, completion_ms: f64) {
        self.completions.write_u64(completion_ms.to_bits());
    }

    /// Records the first failure only (one op counts once).
    pub fn fail(&mut self, why: impl Into<String>) {
        if self.failure.is_none() {
            self.failure = Some(why.into());
        }
    }

    /// `Err` becomes a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(why) = result {
            self.fail(why);
        }
    }
}

/// One benchmark workload. `exec` is the timed region and does nothing
/// but call the system under test; `verify` runs after the clock stops.
pub trait Workload: Sized {
    /// What `exec` hands to `verify`.
    type Out;

    /// The `--workload` name.
    const NAME: &'static str;
    /// Op class names, in the order the README documents them.
    const CLASSES: &'static [&'static str];

    /// Generates the script and everything `verify` compares against.
    /// `tracer` sees the generation calls (`workloads.instance_ms`).
    fn build(seed: u64, tracer: &mut Tracer) -> Result<Self, String>;
    /// Ops per cycle.
    fn n(&self) -> usize;
    /// Index into [`Workload::CLASSES`] of op `op`.
    fn class_of(&self, op: usize) -> usize;
    /// Digest of the script *contents* (instance cells, perturbations).
    fn fingerprint(&self) -> u64;
    /// Untimed per-cycle preparation (e.g. a fresh server).
    fn begin_cycle(&mut self) -> Result<(), String>;
    /// The timed region of op `op`.
    fn exec(&mut self, op: usize, tracer: &mut Tracer) -> Result<Self::Out, String>;
    /// Checks the output of op `op`.
    fn verify(&mut self, op: usize, out: Self::Out) -> Verdict;
    /// Untimed per-cycle teardown.
    fn end_cycle(&mut self);
    /// Traced runs only: pushes the script through public functions the
    /// timed ops cannot see into (server stages, static execution).
    fn replay(&mut self, _tracer: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Traced runs only: this workload's per-layer numbers.
    fn layers(&self, tracer: &Tracer, out: &mut crate::report::Layers);

    /// The class sequence: the script *shape*, which no seed may change.
    fn shape(&self) -> Vec<usize> {
        (0..self.n()).map(|op| self.class_of(op)).collect()
    }
}

/// Folds the bit patterns of a matrix's cells into a script digest.
pub fn digest_matrix(digest: &mut Fnv1a, m: &CommMatrix) {
    for s in 0..m.len() {
        for cell in m.row(s) {
            digest.write_u64(cell.to_bits());
        }
    }
}

/// A send order is a plan only if every sender lists every other
/// processor exactly once.
pub fn check_permutation(order: &SendOrder, p: usize) -> Result<(), String> {
    if order.order.len() != p {
        return Err(format!("order has {} rows, P = {p}", order.order.len()));
    }
    let mut seen = vec![false; p];
    for (src, dsts) in order.order.iter().enumerate() {
        seen.iter_mut().for_each(|s| *s = false);
        if dsts.len() != p - 1 {
            return Err(format!("sender {src} lists {} destinations", dsts.len()));
        }
        for &d in dsts {
            if d >= p || d == src || seen[d] {
                return Err(format!("sender {src}: destination {d} invalid or repeated"));
            }
            seen[d] = true;
        }
    }
    Ok(())
}

/// `Schedule::validate` plus a finite completion at or above `t_lb`.
pub fn check_schedule(schedule: &Schedule, who: &str) -> Result<f64, String> {
    schedule
        .validate()
        .map_err(|e| format!("{who}: invalid schedule: {e}"))?;
    let done = schedule.completion_time().as_ms();
    let lb = schedule.matrix().lower_bound().as_ms();
    if !done.is_finite() || done < lb * (1.0 - 1e-12) {
        return Err(format!("{who}: completion {done} below t_lb {lb}"));
    }
    Ok(done)
}
