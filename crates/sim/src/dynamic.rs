//! Execution under a drifting network, with checkpoint-based adaptation
//! (§6.3).
//!
//! "In some scenarios, the lengths of all communication events may not be
//! known even when the communication is started ... an initial
//! communication schedule can be derived using estimates of the
//! communication times. The schedule can then be modified at intermediate
//! checkpoints."
//!
//! [`run_adaptive`] executes an initial send order while the ground-truth
//! network follows any [`NetworkEvolution`] — a stochastic
//! [`adaptcomm_model::variation::VariationTrace`] or a scripted
//! [`crate::faults::ScriptedFaults`]; each transfer is priced
//! from the state of *its own link* at its start
//! ([`NetworkEvolution::link_at`] — one read, one multiply-add). After the
//! `c`-th transfer completes, if
//! `c` is a checkpoint of the configured [`CheckpointPolicy`] and the
//! observed progress deviates from the plan beyond the
//! [`RescheduleRule`] threshold, the not-yet-started messages are
//! *replanned* with the open shop rule against a fresh directory
//! snapshot. In-flight transfers are never aborted.

use crate::executor::{sim_run, TransferRecord};
use adaptcomm_core::algorithms::{MatchingKind, MatchingScheduler, OpenShop, Scheduler};
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_core::kernel::{self, Policy, Ports};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_model::cost::CostModel;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bytes, Millis};

pub use adaptcomm_core::kernel::RunError as SimError;
pub use adaptcomm_model::evolution::NetworkEvolution;

/// Which algorithm recomputes the remaining schedule at a replan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replanner {
    /// The open-shop earliest-available rule (cheap, order-based).
    #[default]
    OpenShop,
    /// The §4.3 matching construction, replanned *incrementally* (§6):
    /// the run retains the previous matching plan and each replan
    /// re-solves only the rounds invalidated by the drift delta,
    /// splicing certified rounds verbatim — see
    /// [`MatchingScheduler::replan_incremental`].
    Matching(MatchingKind),
}

/// Adaptation configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// When to evaluate rescheduling.
    pub policy: CheckpointPolicy,
    /// Whether a deviation is large enough to act on.
    pub rule: RescheduleRule,
    /// How the remaining messages are rescheduled when the rule fires.
    pub replanner: Replanner,
}

impl AdaptiveConfig {
    /// Run the initial schedule to completion, never adapting.
    pub fn oblivious() -> Self {
        AdaptiveConfig {
            policy: CheckpointPolicy::Never,
            rule: RescheduleRule::default(),
            replanner: Replanner::OpenShop,
        }
    }
}

/// Result of an adaptive run.
#[derive(Debug, Clone)]
pub struct DynamicOutcome {
    /// Completed transfers in completion order.
    pub records: Vec<TransferRecord>,
    /// Completion time under the drifting network.
    pub makespan: Millis,
    /// Checkpoints that were evaluated.
    pub checkpoints_evaluated: usize,
    /// Checkpoints that triggered a replan.
    pub reschedules: usize,
}

/// Replans the remaining messages with the open shop rule: pair the
/// earliest-available sender with its earliest-available remaining
/// receiver, repeatedly, using fresh cost estimates.
///
/// `remaining(src)` lists the not-yet-started destinations of each
/// sender (the kernel's own slices, or a retry's lists);
/// `send_busy_until` / `recv_busy_until` give the times each port frees
/// up (in-flight transfers are never aborted); `now` is the checkpoint
/// time. Public because the live runtime (`adaptcomm-runtime`) also
/// replans what a *fault* left over with it, outside any checkpoint.
pub fn openshop_replan<'q>(
    remaining: impl Fn(usize) -> &'q [usize],
    send_busy_until: &[f64],
    recv_busy_until: &[f64],
    now: f64,
    estimates: &NetParams,
    sizes: &[Vec<Bytes>],
) -> Vec<Vec<usize>> {
    let p = send_busy_until.len();
    let mut owes = vec![false; p * p];
    let mut order = Vec::with_capacity(p);
    for src in 0..p {
        let dsts = remaining(src);
        for &dst in dsts {
            owes[src * p + dst] = true;
        }
        order.push(Vec::with_capacity(dsts.len()));
    }
    let events = OpenShop::list_schedule(
        owes,
        send_busy_until.iter().map(|&t| t.max(now)).collect(),
        recv_busy_until.iter().map(|&t| t.max(now)).collect(),
        |src, dst| estimates.message_time(src, dst, sizes[src][dst]).as_ms(),
    );
    for e in events {
        order[e.src].push(e.dst);
    }
    order
}

/// Replans the remaining messages with the matching scheduler (§6): the
/// full instance is re-planned from fresh estimates — *incrementally*,
/// against the scheduler's retained plan, so only the rounds the drift
/// delta invalidated are re-solved — and each sender's remaining
/// messages are emitted in the new plan's round order. Busy ports are
/// not modelled: the matching schedule is step-structured, and the
/// already-running transfers simply delay their senders' first new
/// message.
fn matching_replan<'q>(
    scheduler: &MatchingScheduler,
    remaining: impl Fn(usize) -> &'q [usize],
    estimates: &NetParams,
    sizes: &[Vec<Bytes>],
) -> Vec<Vec<usize>> {
    let plan = scheduler.plan(&CommMatrix::from_model(estimates, sizes));
    let mut order: Vec<Vec<usize>> = (0..estimates.len())
        .map(|src| Vec::with_capacity(remaining(src).len()))
        .collect();
    for step in &plan.steps {
        for (src, dst) in step.iter().enumerate() {
            if let Some(d) = dst.filter(|d| remaining(src).contains(d)) {
                order[src].push(d);
            }
        }
    }
    order
}

/// The §6.3 decision state, held by [`run_adaptive`]'s policy and by the
/// live runtime's `CheckpointedRun` alike: the plan progress is judged
/// against, where the current segment began, and the replanner with the
/// matching plan it retains. Planned vs observed progress is computed in
/// [`Replanning::segment`] and nowhere else, so simulated and live
/// adaptation decide alike by construction; what a caller adds is its
/// own trigger (a [`RescheduleRule`], a change detector) and bookkeeping.
#[derive(Debug)]
pub struct Replanning<'a> {
    sizes: &'a [Vec<Bytes>],
    /// Planned completion instants, ascending.
    planned: Vec<f64>,
    /// The retaining scheduler of [`Replanner::Matching`].
    matching: Option<MatchingScheduler>,
    // Where the current segment began: the start, then the last replan.
    base_obs: f64,
    base_plan: f64,
}

impl<'a> Replanning<'a> {
    /// Prices `lists` from `start_at` on a network frozen at `estimates`
    /// — the plan — and, for the matching replanner (`threads` LAP
    /// workers), primes the retained plan with that same instance, so
    /// that even the *first* in-run replan is incremental (§6): it pays
    /// only for the rounds the drift invalidated.
    pub fn new(
        replanner: Replanner,
        threads: usize,
        lists: &[Vec<usize>],
        sizes: &'a [Vec<Bytes>],
        estimates: &NetParams,
        start_at: f64,
    ) -> Self {
        let mut cost =
            |src: usize, dst: usize| estimates.message_time(src, dst, sizes[src][dst]).as_ms();
        let (ports, end) = kernel::run_from(lists, start_at, &mut cost);
        end.unwrap_or_else(|e| panic!("{e}"));
        let mut planned: Vec<f64> = ports.started().iter().map(|e| e.finish.as_ms()).collect();
        planned.sort_unstable_by(f64::total_cmp);
        let matching = match replanner {
            Replanner::Matching(kind) => {
                let sched = MatchingScheduler::with_threads(kind, threads);
                sched.plan(&CommMatrix::from_model(estimates, sizes));
                Some(sched)
            }
            Replanner::OpenShop => None,
        };
        Replanning {
            sizes,
            planned,
            matching,
            base_obs: start_at,
            base_plan: start_at,
        }
    }

    /// When the plan's last transfer completes (zero for an empty plan).
    pub fn planned_makespan(&self) -> Millis {
        Millis::new(self.planned.last().copied().unwrap_or(0.0))
    }

    /// `(planned, observed)` milliseconds elapsed since the last replan
    /// (or the start), at the checkpoint after the `completed`-th
    /// completion at time `now`. Segment-relative, so one early slowdown
    /// does not count against every later checkpoint.
    pub fn segment(&self, completed: usize, now: f64) -> (f64, f64) {
        (
            self.planned[completed - 1] - self.base_plan,
            now - self.base_obs,
        )
    }

    /// Starts a new segment at this checkpoint and replans what has not
    /// started from the `fresh` estimates: the arguments are those of
    /// [`openshop_replan`], the result the new per-sender queues.
    pub fn replan<'q>(
        &mut self,
        remaining: impl Fn(usize) -> &'q [usize],
        send_busy_until: &[f64],
        recv_busy_until: &[f64],
        completed: usize,
        now: f64,
        fresh: &NetParams,
    ) -> Vec<Vec<usize>> {
        self.base_obs = now;
        self.base_plan = self.planned[completed - 1];
        match &self.matching {
            Some(sched) => matching_replan(sched, remaining, fresh, self.sizes),
            None => openshop_replan(
                remaining,
                send_busy_until,
                recv_busy_until,
                now,
                fresh,
                self.sizes,
            ),
        }
    }

    /// Whether the last replan spliced the retained matching plan
    /// (certified rounds kept, only the rest re-solved) instead of
    /// building from scratch. Never true for [`Replanner::OpenShop`].
    pub fn spliced(&self) -> bool {
        let disposition = (self.matching.as_ref()).and_then(|s| s.construction_disposition());
        matches!(disposition, Some("incremental" | "hit"))
    }
}

/// Executes `initial_order` while the network follows `trace`.
///
/// The *plan* against which progress is judged is the analytic execution
/// of the initial order over the trace's base parameters (what the
/// directory reported at scheduling time). The deviation at checkpoint
/// `c` compares observed vs. planned elapsed time *since the last
/// replan*, so one early slowdown does not trigger every subsequent
/// checkpoint.
pub fn run_adaptive(
    initial_order: &SendOrder,
    sizes: &[Vec<Bytes>],
    trace: &mut impl NetworkEvolution,
    config: &AdaptiveConfig,
) -> DynamicOutcome {
    match run_adaptive_checked(initial_order, sizes, trace, config) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_adaptive`]: a scenario that produces a degenerate
/// event stream (NaN transfer durations, backwards time) comes back as
/// [`SimError`] instead of a panic. Fault-injection harnesses prefer
/// this form: a panicking simulation thread would poison whatever mutex
/// it held, wedging the rest of the harness.
pub fn run_adaptive_checked(
    initial_order: &SendOrder,
    sizes: &[Vec<Bytes>],
    trace: &mut impl NetworkEvolution,
    config: &AdaptiveConfig,
) -> Result<DynamicOutcome, SimError> {
    let p = trace.processors();
    assert_eq!(initial_order.processors(), p, "order does not match trace");
    assert_eq!(sizes.len(), p, "sizes do not match trace");
    let total_events: usize = initial_order.order.iter().map(|l| l.len()).sum();

    let checkpoints = config.policy.checkpoints(total_events);
    // Only a checkpoint consults the plan, so an oblivious run neither
    // prices it nor builds a replanner.
    let replanning = (!checkpoints.is_empty()).then(|| {
        let estimates = trace.planning_estimates();
        Replanning::new(
            config.replanner,
            1,
            &initial_order.order,
            sizes,
            estimates,
            0.0,
        )
    });
    let mut policy = Adaptive {
        trace,
        sizes,
        rule: config.rule,
        checkpoints,
        replanning,
        checkpoints_evaluated: 0,
        reschedules: 0,
    };
    let run = sim_run(kernel::run(&initial_order.order, &mut policy)?, sizes);
    Ok(DynamicOutcome {
        records: run.records,
        makespan: run.makespan,
        checkpoints_evaluated: policy.checkpoints_evaluated,
        reschedules: policy.reschedules,
    })
}

/// The §6.3 policy: a transfer is priced from its link's live state, and
/// a completion that is a checkpoint may replan what has not started.
struct Adaptive<'a, E> {
    trace: &'a mut E,
    sizes: &'a [Vec<Bytes>],
    rule: RescheduleRule,
    /// Completion counts at which the rule is evaluated, ascending.
    checkpoints: Vec<usize>,
    /// Present iff there are checkpoints.
    replanning: Option<Replanning<'a>>,
    checkpoints_evaluated: usize,
    reschedules: usize,
}

impl<E: NetworkEvolution> Policy for Adaptive<'_, E> {
    fn price(&mut self, now: f64, senders: &[usize], dst: usize) -> f64 {
        let src = senders[0];
        let live = self.trace.link_at(Millis::new(now), src, dst);
        live.message_time(self.sizes[src][dst]).as_ms()
    }

    fn on_completion(&mut self, ports: &mut Ports, now: f64, _src: usize, _dst: usize) {
        let completed = ports.completed();
        if self.checkpoints.binary_search(&completed).is_err() {
            return;
        }
        self.checkpoints_evaluated += 1;
        let replanning = (self.replanning.as_mut()).expect("a checkpoint implies a plan");
        let (seg_plan, seg_obs) = replanning.segment(completed, now);
        if !self.rule.should_reschedule(seg_plan, seg_obs) {
            return;
        }
        self.reschedules += 1;
        let fresh = self.trace.table_at(Millis::new(now));
        let queues = replanning.replan(
            |src| ports.remaining(src),
            ports.send_busy_until(),
            ports.recv_busy_until(),
            completed,
            now,
            &fresh,
        );
        ports.replan(queues);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_core::execution::execute_listed;
    use adaptcomm_core::kernel::ScheduleError;
    use adaptcomm_model::cost::LinkEstimate;
    use adaptcomm_model::units::Bandwidth;
    use adaptcomm_model::variation::{VariationConfig, VariationTrace};

    fn base_net(p: usize) -> NetParams {
        NetParams::uniform(p, Millis::new(10.0), Bandwidth::from_kbps(500.0))
    }

    fn sizes(p: usize) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else {
                            Bytes::from_kb(100)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn order(p: usize) -> SendOrder {
        let net = base_net(p);
        let m = CommMatrix::from_model(&net, &sizes(p));
        OpenShop.send_order(&m)
    }

    fn still_trace(p: usize) -> VariationTrace {
        let cfg = VariationConfig {
            volatility: 0.0,
            ..Default::default()
        };
        VariationTrace::new(base_net(p), cfg, 0)
    }

    fn drifting_trace(p: usize, seed: u64) -> VariationTrace {
        let cfg = VariationConfig {
            step: Millis::new(500.0),
            volatility: 0.35,
            floor: 0.1,
            ceil: 1.0, // bandwidths only degrade: adaptation must help
        };
        VariationTrace::new(base_net(p), cfg, seed)
    }

    #[test]
    fn static_network_matches_plan_exactly() {
        let p = 6;
        let o = order(p);
        let mut trace = still_trace(p);
        let out = run_adaptive(&o, &sizes(p), &mut trace, &AdaptiveConfig::oblivious());
        let planned = execute_listed(&o, &CommMatrix::from_model(&base_net(p), &sizes(p)));
        assert!((out.makespan.as_ms() - planned.completion_time().as_ms()).abs() < 1e-6);
        assert_eq!(out.records.len(), p * (p - 1));
        assert_eq!(out.reschedules, 0);
        assert_eq!(out.checkpoints_evaluated, 0);
    }

    #[test]
    fn no_reschedule_when_network_is_faithful() {
        let p = 5;
        let o = order(p);
        let mut trace = still_trace(p);
        let cfg = AdaptiveConfig {
            policy: CheckpointPolicy::EveryEvent,
            rule: RescheduleRule::default(),
            replanner: Replanner::OpenShop,
        };
        let out = run_adaptive(&o, &sizes(p), &mut trace, &cfg);
        assert!(out.checkpoints_evaluated > 0);
        assert_eq!(out.reschedules, 0, "no drift → no replans");
    }

    #[test]
    fn all_messages_complete_under_heavy_drift() {
        let p = 6;
        let o = order(p);
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::EveryEvent,
            CheckpointPolicy::Halving,
        ] {
            let mut trace = drifting_trace(p, 42);
            let cfg = AdaptiveConfig {
                policy,
                rule: RescheduleRule::default(),
                replanner: Replanner::OpenShop,
            };
            let out = run_adaptive(&o, &sizes(p), &mut trace, &cfg);
            assert_eq!(out.records.len(), p * (p - 1), "{policy:?} lost messages");
            // No port overlaps in the realized execution.
            for proc in 0..p {
                let mut sends: Vec<_> = out.records.iter().filter(|r| r.src == proc).collect();
                sends.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
                for w in sends.windows(2) {
                    assert!(w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-9);
                }
                let mut recvs: Vec<_> = out.records.iter().filter(|r| r.dst == proc).collect();
                recvs.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
                for w in recvs.windows(2) {
                    assert!(w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn adaptation_triggers_under_drift() {
        let p = 8;
        let o = order(p);
        let mut trace = drifting_trace(p, 7);
        let cfg = AdaptiveConfig {
            policy: CheckpointPolicy::EveryEvent,
            rule: RescheduleRule {
                deviation_threshold: 0.05,
            },
            replanner: Replanner::OpenShop,
        };
        let out = run_adaptive(&o, &sizes(p), &mut trace, &cfg);
        assert!(
            out.reschedules > 0,
            "heavy degradation must trigger replans"
        );
        assert!(out.checkpoints_evaluated >= out.reschedules);
    }

    #[test]
    fn matching_replanner_adapts_and_completes() {
        let p = 8;
        let o = order(p);
        let mut trace = drifting_trace(p, 7);
        let cfg = AdaptiveConfig {
            policy: CheckpointPolicy::EveryEvent,
            rule: RescheduleRule {
                deviation_threshold: 0.05,
            },
            replanner: Replanner::Matching(MatchingKind::Max),
        };
        let out = run_adaptive(&o, &sizes(p), &mut trace, &cfg);
        assert_eq!(
            out.records.len(),
            p * (p - 1),
            "matching replans lost messages"
        );
        assert!(
            out.reschedules > 0,
            "heavy degradation must trigger matching replans"
        );
        // Port-exclusivity still holds under replanned orders.
        for proc in 0..p {
            let mut sends: Vec<_> = out.records.iter().filter(|r| r.src == proc).collect();
            sends.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
            for w in sends.windows(2) {
                assert!(w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-9);
            }
        }
    }

    #[test]
    fn segment_is_relative_to_the_last_replan_and_a_replan_rebases_both_sides() {
        // Three senders, two rounds, every message 16 ms (start-up only):
        // the plan completes three transfers at 16 ms and three at 32 ms.
        let net = NetParams::uniform(3, Millis::new(16.0), Bandwidth::from_kbps(500.0));
        let sizes = vec![vec![Bytes::ZERO; 3]; 3];
        let lists = vec![vec![1, 2], vec![2, 0], vec![0, 1]];
        let mut r = Replanning::new(Replanner::OpenShop, 1, &lists, &sizes, &net, 0.0);
        assert_eq!(r.planned_makespan().as_ms(), 32.0);
        // Before any replan both sides count from the start.
        assert_eq!(r.segment(1, 24.0), (16.0, 24.0));
        assert_eq!(r.segment(4, 50.0), (32.0, 50.0));
        // A replan after the third completion, observed at 28 ms, when
        // the plan had it at 16 ms: the queues keep their sets ...
        let remaining = [vec![2], vec![0], vec![1]];
        let busy = [28.0; 3];
        let queues = r.replan(|src| &remaining[src], &busy, &busy, 3, 28.0, &net);
        assert_eq!(queues, remaining);
        assert!(!r.spliced(), "the open shop rebuilds from scratch");
        // ... and the same checkpoint now reads relative to (16, 28).
        assert_eq!(r.segment(4, 50.0), (16.0, 22.0));

        // A retry's plan starts where the retry does.
        let retry = Replanning::new(Replanner::OpenShop, 1, &remaining, &sizes, &net, 100.0);
        assert_eq!(retry.planned_makespan().as_ms(), 116.0);
        assert_eq!(retry.segment(3, 120.0), (16.0, 20.0));

        // The matching replanner is primed by `new`: a replan on unchanged
        // estimates replays the retained plan instead of re-solving it.
        let kind = Replanner::Matching(MatchingKind::Max);
        let mut m = Replanning::new(kind, 1, &lists, &sizes, &net, 0.0);
        assert!(!m.spliced(), "priming is a cold build");
        let queues = m.replan(|src| &remaining[src], &busy, &busy, 3, 28.0, &net);
        assert_eq!(queues, remaining);
        assert!(m.spliced());
        assert_eq!(m.segment(4, 50.0), (16.0, 22.0));
    }

    /// An evolution whose live state carries a NaN startup on one link:
    /// a degenerate scenario that used to abort the simulation thread.
    struct PoisonedTrace(NetParams);

    impl NetworkEvolution for PoisonedTrace {
        fn processors(&self) -> usize {
            self.0.len()
        }
        fn planning_estimates(&self) -> &NetParams {
            &self.0
        }
        fn link_at(&mut self, _t: Millis, src: usize, dst: usize) -> LinkEstimate {
            let e = self.0.estimate(src, dst);
            if (src, dst) != (0, 1) {
                return e;
            }
            // Struct literal: `LinkEstimate::new` asserts, but corrupt
            // data can arrive through field access.
            LinkEstimate {
                startup: Millis::new(f64::NAN),
                bandwidth: e.bandwidth,
            }
        }
    }

    #[test]
    fn degenerate_scenarios_surface_as_err_not_panic() {
        let p = 4;
        let o = order(p);
        let mut trace = PoisonedTrace(base_net(p));
        let err = run_adaptive_checked(&o, &sizes(p), &mut trace, &AdaptiveConfig::oblivious())
            .expect_err("NaN pricing must be rejected");
        let SimError::DegenerateEvent { src, dst, cause } = err;
        assert_eq!((src, dst), (0, 1));
        assert!(matches!(cause, ScheduleError::NonFiniteTime { .. }));
    }

    #[test]
    fn adaptation_usually_helps_on_degrading_networks() {
        // Statistical claim over seeds: with bandwidths that only degrade,
        // checkpointed rescheduling should beat the oblivious run more
        // often than not.
        let p = 8;
        let o = order(p);
        let mut wins = 0;
        let mut total = 0;
        for seed in 0..12u64 {
            let mut t1 = drifting_trace(p, seed);
            let oblivious = run_adaptive(&o, &sizes(p), &mut t1, &AdaptiveConfig::oblivious());
            let mut t2 = drifting_trace(p, seed);
            let adaptive = run_adaptive(
                &o,
                &sizes(p),
                &mut t2,
                &AdaptiveConfig {
                    policy: CheckpointPolicy::EveryEvent,
                    rule: RescheduleRule {
                        deviation_threshold: 0.05,
                    },
                    replanner: Replanner::OpenShop,
                },
            );
            total += 1;
            if adaptive.makespan.as_ms() <= oblivious.makespan.as_ms() + 1e-9 {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= total,
            "adaptive won only {wins}/{total} runs on degrading networks"
        );
    }
}
