//! Fingerprint-keyed plan cache with perturbation-tolerant lookup.
//!
//! One exact key and one recency ring (see `DESIGN.md` §12):
//!
//! * The **exact key** — [`CommMatrix::fingerprint`], FNV-1a over
//!   cells quantized on a fine grid — replays whole plans. Two
//!   requests with the same exact key carry matrices equal to within
//!   one part in 2²⁰ of the largest cell, so the cached plan *is* the
//!   plan a fresh solve would produce.
//! * The **recency ring** — the last eight entries inserted per
//!   `(algorithm, P)` — is the one way a near match is found. Each
//!   ring entry is a candidate, confirmed by directly measuring
//!   [`CommMatrix::max_rel_deviation`] against the cached matrix; the
//!   closest confirmed candidate hands back its retained plan (or dual
//!   potentials) to replan from. A near request whose base has left the
//!   ring costs one cold solve, never a wrong plan.
//!
//! An entry also retains what executing its plan on its matrix predicts
//! (completion time, critical path, gap above `t_lb`), so an exact hit
//! is answered without executing anything ([`PlanCache::replay`]).
//!
//! The cache is tenant-agnostic on purpose: plans depend only on
//! `(algorithm, matrix)`, so tenants with congruent traffic share
//! entries (per-tenant *dispositions* are still metered separately by
//! the server). Capacity is bounded with FIFO eviction.

use crate::proto::PlanQuality;
use adaptcomm_core::algorithms::MatchingPlan;
use adaptcomm_core::analyze::quality_of;
use adaptcomm_core::execution::execute_listed;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How many recent entries per `(algorithm, P)` the recency ring keeps
/// as near-match candidates.
const RECENCY_RING: usize = 8;

/// What executing an order on a matrix predicts: the completion time
/// and the explain-plane quality (critical path, gap above `t_lb`).
pub type Outcome = (f64, PlanQuality);

/// Executes `order` on `matrix` — the one place a reply's completion
/// and quality come from, whether computed for a fresh solve or filled
/// into a cache entry.
pub fn evaluate(order: &SendOrder, matrix: &CommMatrix) -> Outcome {
    let schedule = execute_listed(order, matrix);
    let q = quality_of(&schedule);
    let quality = PlanQuality {
        lb_gap_pct: q.gap_pct(),
        critical_path: q.critical_path,
    };
    (schedule.completion_time().as_ms(), quality)
}

/// A retained plan: the matrix it was computed for (to confirm
/// near-hits by direct deviation measurement), the plan itself, and
/// the round-1 dual potentials for cross-job warm starts.
#[derive(Debug)]
struct CachedPlan {
    matrix: Arc<CommMatrix>,
    order: SendOrder,
    /// [`evaluate`]`(order, matrix)`, so a replay executes nothing: given
    /// by the solve that produced the entry, else filled on first replay.
    outcome: Option<Outcome>,
    /// Round-1 LAP potentials; empty when the producing algorithm has
    /// no duals to retain (non-matching schedulers).
    seed: Vec<f64>,
    /// The producing job's whole matching plan, when the algorithm has
    /// one — the §6 incremental-replan surface: a confirmed near-hit
    /// hands it back so the server re-solves only the rounds after the
    /// certified prefix instead of warm-starting a full build.
    plan: Option<Box<MatchingPlan>>,
}

/// Everything an exact hit's reply is made of, none of it recomputed.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The cached plan.
    pub order: SendOrder,
    /// The matrix the plan was computed for (shared, not copied).
    pub matrix: Arc<CommMatrix>,
    /// [`evaluate`]`(order, matrix)`, as retained.
    pub outcome: Outcome,
}

/// What a lookup found.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// Exact fingerprint match: replay this plan verbatim.
    Hit(SendOrder),
    /// Near-hit: warm-start a fresh solve from these potentials.
    Warm {
        /// Retained round-1 dual potentials of the cached job.
        seed: Vec<f64>,
        /// Measured relative deviation from the cached matrix.
        deviation: f64,
    },
    /// Near-hit whose cached job retained its whole matching plan:
    /// replan it incrementally (§6) instead of re-solving every round.
    Incremental {
        /// The cached job's retained plan, to diff and patch.
        plan: Box<MatchingPlan>,
        /// Measured relative deviation from the cached matrix.
        deviation: f64,
    },
    /// Nothing usable; solve cold.
    Miss,
}

/// Monotone counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans inserted.
    pub inserts: u64,
    /// Exact-key replays.
    pub exact_hits: u64,
    /// Confirmed near-hits that seeded a warm start.
    pub warm_hits: u64,
    /// Confirmed near-hits answered with a retained plan for §6
    /// incremental rescheduling.
    pub incremental_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries dropped by FIFO eviction.
    pub evictions: u64,
}

/// One algorithm's entries and recency rings. Keying the cache by
/// algorithm first lets every probe borrow the caller's `&str`.
#[derive(Debug, Default)]
struct Shelf {
    entries: BTreeMap<u64, CachedPlan>,
    /// `P` → recent exact keys, newest last.
    recent: BTreeMap<usize, VecDeque<u64>>,
}

/// The fingerprint-keyed plan cache. Not internally synchronized —
/// the server wraps it in a mutex.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    near_tolerance: f64,
    shelves: BTreeMap<String, Shelf>,
    /// Every live entry, oldest first.
    fifo: VecDeque<(String, u64)>,
    stats: CacheStats,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans, confirming near-hits
    /// up to `near_tolerance` relative deviation.
    pub fn new(capacity: usize, near_tolerance: f64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(
            near_tolerance.is_finite() && near_tolerance >= 0.0,
            "near tolerance must be finite and non-negative"
        );
        PlanCache {
            capacity,
            near_tolerance,
            shelves: BTreeMap::new(),
            fifo: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Whether an exact entry exists, without touching the counters —
    /// the admission controller peeks this to substitute the replay
    /// cost for the solve estimate.
    pub fn contains(&self, algorithm: &str, fingerprint: u64) -> bool {
        self.shelves
            .get(algorithm)
            .is_some_and(|shelf| shelf.entries.contains_key(&fingerprint))
    }

    /// The exact entry, counted as a hit when there is one.
    fn hit(&mut self, algorithm: &str, fingerprint: u64) -> Option<&mut CachedPlan> {
        let entry = self
            .shelves
            .get_mut(algorithm)?
            .entries
            .get_mut(&fingerprint)?;
        self.stats.exact_hits += 1;
        Some(entry)
    }

    /// Exact-key replay: the plan with its retained completion and
    /// quality. `None` counts nothing — the caller goes on to
    /// [`PlanCache::near`], or uses [`PlanCache::probe_replay`] when a
    /// miss is final.
    pub fn replay(&mut self, algorithm: &str, fingerprint: u64) -> Option<Replay> {
        let entry = self.hit(algorithm, fingerprint)?;
        let outcome = entry
            .outcome
            .get_or_insert_with(|| evaluate(&entry.order, &entry.matrix))
            .clone();
        Some(Replay {
            order: entry.order.clone(),
            matrix: Arc::clone(&entry.matrix),
            outcome,
        })
    }

    /// [`PlanCache::replay`] for a request that carries no matrix (the
    /// fingerprint-only wire request), so a miss is final and counted.
    pub fn probe_replay(&mut self, algorithm: &str, fingerprint: u64) -> Option<Replay> {
        let replay = self.replay(algorithm, fingerprint);
        self.stats.misses += u64::from(replay.is_none());
        replay
    }

    /// Exact-key probe without a matrix: the plan and its completion
    /// time on the matrix it was computed for.
    pub fn probe(&mut self, algorithm: &str, fingerprint: u64) -> Option<(SendOrder, f64)> {
        self.probe_replay(algorithm, fingerprint)
            .map(|replay| (replay.order, replay.outcome.0))
    }

    /// Full lookup: exact replay, else confirmed near-hit, else miss.
    pub fn lookup(&mut self, algorithm: &str, matrix: &CommMatrix) -> CacheLookup {
        match self.hit(algorithm, matrix.fingerprint()) {
            Some(entry) => CacheLookup::Hit(entry.order.clone()),
            None => self.near(algorithm, matrix),
        }
    }

    /// The near-match half of a lookup, for a matrix whose exact key
    /// missed: a confirmed [`CacheLookup::Warm`] or
    /// [`CacheLookup::Incremental`], else [`CacheLookup::Miss`].
    pub fn near(&mut self, algorithm: &str, matrix: &CommMatrix) -> CacheLookup {
        let Some(shelf) = self.shelves.get(algorithm) else {
            self.stats.misses += 1;
            return CacheLookup::Miss;
        };
        // The recency ring nominates, newest first; direct measurement
        // confirms, and the smallest deviation wins.
        let ring = shelf.recent.get(&matrix.len()).into_iter().flatten();
        let mut best: Option<(f64, &CachedPlan)> = None;
        for entry in ring.rev().filter_map(|c| shelf.entries.get(c)) {
            if entry.seed.is_empty() {
                continue;
            }
            let Some(dev) = matrix.max_rel_deviation(&entry.matrix) else {
                continue;
            };
            if dev <= self.near_tolerance && best.is_none_or(|(b, _)| dev < b) {
                best = Some((dev, entry));
            }
        }
        match best {
            Some((deviation, entry)) => match &entry.plan {
                Some(plan) => {
                    self.stats.incremental_hits += 1;
                    CacheLookup::Incremental {
                        plan: plan.clone(),
                        deviation,
                    }
                }
                None => {
                    self.stats.warm_hits += 1;
                    CacheLookup::Warm {
                        seed: entry.seed.clone(),
                        deviation,
                    }
                }
            },
            None => {
                self.stats.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Retains a freshly computed plan. `seed` is the producing job's
    /// round-1 dual potentials (empty when the algorithm has none);
    /// `plan` is its whole matching plan when the algorithm produces
    /// one, enabling §6 incremental replans on future near-hits.
    pub fn insert(
        &mut self,
        algorithm: &str,
        matrix: &CommMatrix,
        order: SendOrder,
        seed: Vec<f64>,
        plan: Option<Box<MatchingPlan>>,
    ) {
        self.insert_solved(
            algorithm,
            matrix.fingerprint(),
            matrix,
            order,
            None,
            seed,
            plan,
        );
    }

    /// [`PlanCache::insert`] for a caller that already holds the
    /// matrix's `fingerprint` and, having executed `order` on `matrix`
    /// for its own reply, the `outcome` ([`evaluate`]) to retain.
    /// Without one the entry fills it on first replay — inserting never
    /// executes the order.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_solved(
        &mut self,
        algorithm: &str,
        fingerprint: u64,
        matrix: &CommMatrix,
        order: SendOrder,
        outcome: Option<Outcome>,
        seed: Vec<f64>,
        plan: Option<Box<MatchingPlan>>,
    ) {
        if self.contains(algorithm, fingerprint) {
            return; // Already cached; FIFO position unchanged.
        }
        while self.fifo.len() >= self.capacity {
            self.evict_oldest();
        }
        let p = matrix.len();
        let shelf = self.shelves.entry(algorithm.to_string()).or_default();
        shelf.entries.insert(
            fingerprint,
            CachedPlan {
                matrix: Arc::new(matrix.clone()),
                order,
                outcome,
                seed,
                plan,
            },
        );
        let ring = shelf.recent.entry(p).or_default();
        ring.push_back(fingerprint);
        while ring.len() > RECENCY_RING {
            ring.pop_front();
        }
        self.fifo.push_back((algorithm.to_string(), fingerprint));
        self.stats.inserts += 1;
    }

    fn evict_oldest(&mut self) {
        let Some((algorithm, fp)) = self.fifo.pop_front() else {
            return;
        };
        let Some(shelf) = self.shelves.get_mut(&algorithm) else {
            return;
        };
        let Some(entry) = shelf.entries.remove(&fp) else {
            return;
        };
        if let Some(ring) = shelf.recent.get_mut(&entry.matrix.len()) {
            ring.retain(|&c| c != fp);
        }
        self.stats.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(p: usize, salt: f64) -> CommMatrix {
        let rows: Vec<Vec<f64>> = (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            0.0
                        } else {
                            50.0 + salt
                                + 40.0 * ((s as f64) * 1.37).sin() * ((d as f64) * 0.73).cos()
                        }
                    })
                    .collect()
            })
            .collect();
        CommMatrix::from_rows(&rows)
    }

    fn order_for(p: usize) -> SendOrder {
        SendOrder::new(
            (0..p)
                .map(|s| (0..p).filter(|&d| d != s).collect())
                .collect(),
        )
    }

    #[test]
    fn exact_key_replays_and_near_key_warms() {
        let mut cache = PlanCache::new(8, 0.10);
        let m = matrix(6, 0.0);
        cache.insert("matching-max", &m, order_for(6), vec![1.0; 6], None);

        assert!(matches!(
            cache.lookup("matching-max", &m),
            CacheLookup::Hit(_)
        ));

        // ±2% perturbation: not an exact hit, but a confirmed warm.
        let mut rows: Vec<Vec<f64>> = (0..6).map(|s| m.row(s).to_vec()).collect();
        for (s, row) in rows.iter_mut().enumerate() {
            for (d, cell) in row.iter_mut().enumerate() {
                if s != d {
                    *cell *= if (s + d) % 2 == 0 { 1.02 } else { 0.98 };
                }
            }
        }
        let near = CommMatrix::from_rows(&rows);
        match cache.lookup("matching-max", &near) {
            CacheLookup::Warm { seed, deviation } => {
                assert_eq!(seed.len(), 6);
                assert!(deviation <= 0.0201, "measured {deviation}");
            }
            other => panic!("expected warm, got {other:?}"),
        }

        // A structurally different matrix misses.
        assert!(matches!(
            cache.lookup("matching-max", &matrix(6, 500.0)),
            CacheLookup::Miss
        ));
        // A different algorithm namespace misses even on the same matrix.
        assert!(matches!(cache.lookup("greedy", &m), CacheLookup::Miss));
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.warm_hits, stats.misses), (1, 1, 2));
    }

    #[test]
    fn entries_with_retained_plans_answer_near_hits_incrementally() {
        use adaptcomm_core::algorithms::{MatchingKind, MatchingScheduler};
        let mut cache = PlanCache::new(8, 0.10);
        let m = matrix(6, 0.0);
        let sched = MatchingScheduler::new(MatchingKind::Max);
        let plan = sched.plan_seeded(&m, None);
        cache.insert(
            "matching-max",
            &m,
            order_for(6),
            plan.seed_potentials.clone(),
            Some(Box::new(plan)),
        );
        // A small perturbation confirms against the cached matrix and
        // hands back the retained plan instead of bare potentials.
        let mut rows: Vec<Vec<f64>> = (0..6).map(|s| m.row(s).to_vec()).collect();
        rows[0][1] *= 1.02;
        let near = CommMatrix::from_rows(&rows);
        match cache.lookup("matching-max", &near) {
            CacheLookup::Incremental { plan, deviation } => {
                assert_eq!(plan.processors(), 6);
                assert!(deviation <= 0.0201, "measured {deviation}");
            }
            other => panic!("expected incremental, got {other:?}"),
        }
        assert_eq!(cache.stats().incremental_hits, 1);
        assert_eq!(cache.stats().warm_hits, 0);
    }

    #[test]
    fn the_recency_ring_is_the_one_nomination_rule() {
        use adaptcomm_core::algorithms::{MatchingKind, MatchingScheduler};
        let sched = MatchingScheduler::new(MatchingKind::Max);
        let mut cache = PlanCache::new(64, 0.10);
        // Nine inserts at one P, each a third off the one before: no
        // insert is a near match for another.
        let inserted: Vec<CommMatrix> = (0..9)
            .map(|k| {
                let m = matrix(6, 0.0);
                CommMatrix::from_fn(6, |s, d| m.row(s)[d] * 1.5f64.powi(k))
            })
            .collect();
        for m in &inserted {
            let plan = sched.plan_seeded(m, None);
            let seed = plan.seed_potentials.clone();
            cache.insert("matching-max", m, order_for(6), seed, Some(Box::new(plan)));
        }
        let near = |m: &CommMatrix| {
            let mut rows: Vec<Vec<f64>> = (0..6).map(|s| m.row(s).to_vec()).collect();
            rows[0][1] *= 1.02;
            CommMatrix::from_rows(&rows)
        };
        // The 8th-most-recent insert is still on the ring; the 9th, still
        // cached, is not nominated.
        let (eighth, ninth) = (&inserted[1], &inserted[0]);
        assert!(matches!(
            cache.near("matching-max", &near(eighth)),
            CacheLookup::Incremental { .. }
        ));
        assert!(cache.contains("matching-max", ninth.fingerprint()));
        assert!(matches!(
            cache.near("matching-max", &near(ninth)),
            CacheLookup::Miss
        ));
    }

    #[test]
    fn entries_without_seeds_never_nominate_warm_starts() {
        let mut cache = PlanCache::new(8, 0.10);
        let m = matrix(5, 0.0);
        cache.insert("greedy", &m, order_for(5), Vec::new(), None);
        let mut rows: Vec<Vec<f64>> = (0..5).map(|s| m.row(s).to_vec()).collect();
        rows[0][1] *= 1.01;
        let near = CommMatrix::from_rows(&rows);
        assert!(matches!(cache.lookup("greedy", &near), CacheLookup::Miss));
        // The exact key still replays.
        assert!(matches!(cache.lookup("greedy", &m), CacheLookup::Hit(_)));
    }

    #[test]
    fn fifo_eviction_unindexes_the_oldest_entry() {
        let mut cache = PlanCache::new(2, 0.10);
        let (a, b, c) = (matrix(4, 0.0), matrix(4, 10.0), matrix(4, 20.0));
        cache.insert("matching-max", &a, order_for(4), vec![0.0; 4], None);
        cache.insert("matching-max", &b, order_for(4), vec![0.0; 4], None);
        cache.insert("matching-max", &c, order_for(4), vec![0.0; 4], None);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(matches!(
            cache.lookup("matching-max", &a),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup("matching-max", &b),
            CacheLookup::Hit(_)
        ));
        assert!(matches!(
            cache.lookup("matching-max", &c),
            CacheLookup::Hit(_)
        ));
    }

    #[test]
    fn probe_answers_from_the_exact_key_alone() {
        let mut cache = PlanCache::new(4, 0.10);
        let m = matrix(4, 0.0);
        cache.insert("matching-max", &m, order_for(4), Vec::new(), None);
        let fp = m.fingerprint();
        let (order, completion_ms) = cache.probe("matching-max", fp).expect("hit");
        assert_eq!(order, order_for(4));
        assert_eq!(completion_ms, evaluate(&order, &m).0);
        assert!(cache.probe("matching-max", fp ^ 1).is_none());
        assert!(cache.probe("greedy", fp).is_none());
        let stats = cache.stats();
        assert_eq!((stats.exact_hits, stats.misses), (1, 2));
    }

    #[test]
    fn replays_hand_back_the_retained_outcome_and_execute_nothing() {
        let mut cache = PlanCache::new(4, 0.10);
        let (a, b) = (matrix(5, 0.0), matrix(5, 30.0));
        // An outcome no execution could produce: if a replay returns
        // it, the replay executed nothing.
        let sentinel = (
            -1.0,
            PlanQuality {
                critical_path: vec![(4, 0)],
                lb_gap_pct: -7.0,
            },
        );
        cache.insert_solved(
            "greedy",
            a.fingerprint(),
            &a,
            order_for(5),
            Some(sentinel.clone()),
            Vec::new(),
            None,
        );
        // The five-argument insert retains no outcome; the first replay
        // fills it in by executing the order, once.
        cache.insert("greedy", &b, order_for(5), Vec::new(), None);
        for _ in 0..2 {
            let replay = cache.replay("greedy", a.fingerprint()).expect("hit");
            assert_eq!(replay.outcome, sentinel);
            assert!(Arc::ptr_eq(
                &replay.matrix,
                &cache.replay("greedy", a.fingerprint()).unwrap().matrix
            ));
            let lazy = cache.replay("greedy", b.fingerprint()).expect("hit");
            assert_eq!(lazy.outcome, evaluate(&order_for(5), &b));
            assert_eq!(*lazy.matrix, b);
        }
        // An exact-key miss on `replay` counts nothing: the caller goes
        // on to `near`, which counts what it finds.
        assert!(cache.replay("greedy", 1).is_none());
        assert!(cache.replay("openshop", a.fingerprint()).is_none());
        assert_eq!(cache.stats().misses, 0);
        assert!(matches!(cache.near("openshop", &a), CacheLookup::Miss));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().exact_hits, 6);
    }
}
