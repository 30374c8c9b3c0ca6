//! The shaped engine: real OS threads under the paper's port model.
//!
//! One worker thread per processor executes its send list over a
//! [`Transport`], while a central *fabric* (a monitor: mutex + condvar)
//! enforces the model of §3: each node sends at most one message and
//! receives at most one message at a time; a busy receiver queues
//! requests and grants them FCFS, ties to the lower sender id; a granted
//! transfer from `i` to `j` carrying `m` bytes occupies both ports for
//! `T_ij + m/B_ij` of *modeled* time, priced from a live
//! [`NetworkEvolution`] at the grant instant.
//!
//! # Determinism: virtual time over real threads
//!
//! Wall-clock thread scheduling is nondeterministic, so the fabric keeps
//! its own virtual clock and only commits an action (a grant, or the
//! bookkeeping of a completion) when no thread still out of the monitor
//! could invalidate it. A worker outside the monitor is `Running { until }`
//! — its next request cannot arrive before `until`, because a request
//! follows the modeled finish of its in-flight transfer. A grant at
//! modeled time `s` is committed only once every running worker has
//! `until > s`; otherwise the fabric simply waits for those threads to
//! park, which they always do. Committed actions therefore happen in
//! nondecreasing modeled time regardless of how the OS schedules the
//! threads, and the realized timeline is bit-identical to the
//! discrete-event simulator's — which is what makes the 5%
//! cross-validation bound in the tests an actual invariant rather than a
//! statistical hope.
//!
//! Checkpoints (§6.3) fire while processing a completion, under the
//! fabric lock: the hook sees consistent remaining queues and port
//! availability, and may hand back replanned queues, exactly like
//! `adaptcomm_sim::dynamic::run_adaptive` does at its `Completed`
//! events.

use crate::error::RuntimeError;
use crate::trace::{EventKind, RunTrace, RuntimeEvent};
use crate::transport::{fill_payload, physical_len, Transport};
use adaptcomm_core::checkpointed::CheckpointPolicy;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bytes, Millis};
use adaptcomm_sim::executor::TransferRecord;
use adaptcomm_sim::NetworkEvolution;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Link-failure detection applied when a transfer is priced at its
/// grant instant (satellite of §6.4: surfacing faults instead of
/// silently waiting out a dead link).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPolicy {
    /// A link whose live bandwidth is at or below this many kbit/s is
    /// considered down; granting over it raises
    /// [`RuntimeError::MessageDropped`]. The boundary is deliberately
    /// inclusive: a threshold of `0.0` treats an exactly-zero-rated
    /// estimate as dead, because a zero-bandwidth link can never finish
    /// a transfer — there is no meaningful "legitimately zero" rate to
    /// preserve. Non-finite live estimates are rejected separately with
    /// [`RuntimeError::CorruptEstimate`] before this check runs, so a
    /// NaN bandwidth can no longer slip past the comparison.
    pub drop_below_kbps: Option<f64>,
    /// A transfer whose live duration exceeds `late_factor ×` its
    /// planning-estimate duration raises [`RuntimeError::MessageLate`].
    pub late_factor: Option<f64>,
}

/// Shaped-engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShapedConfig {
    /// When to invoke the checkpoint hook.
    pub policy: CheckpointPolicy,
    /// Link-failure detection.
    pub faults: FaultPolicy,
    /// Wall-clock pacing: microseconds of real sleep per modeled
    /// millisecond of transfer time. `None` runs at full speed.
    pub pace_us_per_ms: Option<f64>,
    /// Cap on *physically copied* bytes per message (modeled durations
    /// always use the full size). `None` moves every byte.
    pub payload_cap: Option<u64>,
    /// Modeled time at which the run starts (non-zero when resuming
    /// after a failed attempt).
    pub start_at: Millis,
}

impl Default for ShapedConfig {
    fn default() -> Self {
        ShapedConfig {
            policy: CheckpointPolicy::Never,
            faults: FaultPolicy::default(),
            pace_us_per_ms: None,
            payload_cap: None,
            start_at: Millis::ZERO,
        }
    }
}

/// What the checkpoint hook sees, mid-run, under the fabric lock.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// Transfers completed so far.
    pub completed: usize,
    /// Total transfers in the run.
    pub total: usize,
    /// Modeled time of the checkpoint (the completion that triggered it).
    pub now: Millis,
    /// Not-yet-granted destinations per sender.
    pub remaining: &'a [VecDeque<usize>],
    /// Modeled time each send port frees up (includes in-flight sends).
    pub send_busy_until: &'a [f64],
    /// Modeled time each receive port frees up.
    pub recv_busy_until: &'a [f64],
    /// Completed transfers, in completion order.
    pub records: &'a [TransferRecord],
}

/// The hook's verdict.
pub enum CheckpointAction {
    /// Keep executing the current queues.
    Continue,
    /// Replace the remaining queues. Each sender's new queue must hold
    /// exactly the destinations of its old one (in-flight and completed
    /// messages cannot be re-planned).
    Replan(Vec<VecDeque<usize>>),
}

/// A completed shaped run.
#[derive(Debug, Clone)]
pub struct ShapedOutcome {
    /// Full event trace (wall + modeled time).
    pub trace: RunTrace,
    /// Completed transfers sorted by `(finish, src, dst)`, the
    /// simulator's record order.
    pub records: Vec<TransferRecord>,
    /// Modeled completion time.
    pub makespan: Millis,
    /// Checkpoints at which the hook ran.
    pub checkpoints_evaluated: usize,
    /// Checkpoints at which the hook replanned.
    pub reschedules: usize,
}

/// A failed shaped run, with everything a retry driver needs.
#[derive(Debug, Clone)]
pub struct ShapedFailure {
    /// Why the run aborted.
    pub error: RuntimeError,
    /// Partial trace up to the failure.
    pub trace: RunTrace,
    /// Every transfer whose bytes reached the destination: completions
    /// committed before the failure, plus in-flight grants whose
    /// delivery the transport accepted even as the run was aborting
    /// (the ledger is settled after the workers join, so it is
    /// deterministic). A retry must not re-send any of them.
    pub records: Vec<TransferRecord>,
    /// Destinations not yet granted per sender. Grant-time failures
    /// leave the failed message at the front of its sender's queue;
    /// delivery-time failures do not (the message was already popped).
    pub remaining: Vec<Vec<usize>>,
    /// Modeled time each send port frees up.
    pub send_busy_until: Vec<f64>,
    /// Modeled time each receive port frees up.
    pub recv_busy_until: Vec<f64>,
    /// Modeled time at which the failure was detected.
    pub at: Millis,
    /// Every message that had already been popped from its queue when
    /// its bytes failed to reach the destination (the transport refused
    /// the delivery). Such messages are in neither `records` nor
    /// `remaining` and are still owed: the retry driver must re-queue
    /// each exactly once. More than one entry means several workers had
    /// deliveries in flight when the fault window opened — the one with
    /// the earliest modeled finish becomes `error`, but all of them were
    /// lost.
    pub lost: Vec<(usize, usize)>,
}

impl ShapedFailure {
    /// True when `link` was popped from its queue but never delivered.
    pub fn lost_in_flight(&self, link: (usize, usize)) -> bool {
        self.lost.contains(&link)
    }
}

#[derive(Debug, Clone, Copy)]
enum WorkerState {
    /// Out of the monitor; the next request arrives no earlier than
    /// `until` (modeled).
    Running { until: f64 },
    /// Waiting for a grant since `arrival` (modeled).
    Parked { arrival: f64 },
    /// Send list drained (or run aborted).
    Done,
}

#[derive(Debug, Clone, Copy)]
struct GrantSlip {
    dst: usize,
    start: f64,
    finish: f64,
    physical: usize,
}

/// Heap entry ordered by `(finish, src, dst)`.
#[derive(Debug, Clone, Copy)]
struct Completion {
    finish: f64,
    src: usize,
    dst: usize,
    start: f64,
    bytes: Bytes,
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Completion {}
impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish
            .total_cmp(&other.finish)
            .then(self.src.cmp(&other.src))
            .then(self.dst.cmp(&other.dst))
    }
}

struct Core<'a, E, H> {
    p: usize,
    queues: Vec<VecDeque<usize>>,
    state: Vec<WorkerState>,
    assignment: Vec<Option<GrantSlip>>,
    send_free_at: Vec<f64>,
    recv_free_at: Vec<f64>,
    completions: BinaryHeap<Reverse<Completion>>,
    records: Vec<TransferRecord>,
    trace: RunTrace,
    completed: usize,
    total: usize,
    checkpoints_evaluated: usize,
    reschedules: usize,
    failure: Option<RuntimeError>,
    failed_at: f64,
    lost: Vec<(usize, usize)>,
    /// Deliveries the transport refused, registered by their worker and
    /// settled into the modeled timeline by the commit engine: the
    /// refusal with the earliest modeled finish becomes the run's
    /// failure, regardless of which worker's thread noticed its error
    /// first. That keeps the failure path as deterministic as the
    /// success path.
    refused: Vec<(usize, usize, RuntimeError)>,
    evolution: &'a mut E,
    sizes: &'a [Vec<Bytes>],
    hook: H,
    config: ShapedConfig,
}

struct Fabric<'a, E, H> {
    core: Mutex<Core<'a, E, H>>,
    cv: Condvar,
    epoch: Instant,
}

impl<'a, E, H> Core<'a, E, H>
where
    E: NetworkEvolution,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    /// A fabric at rest: every worker out of the monitor since
    /// `config.start_at`, nothing granted.
    fn new(
        lists: &[Vec<usize>],
        sizes: &'a [Vec<Bytes>],
        evolution: &'a mut E,
        config: ShapedConfig,
        hook: H,
    ) -> Self {
        let p = evolution.processors();
        assert_eq!(lists.len(), p, "send lists do not match network size");
        assert_eq!(sizes.len(), p, "sizes do not match network size");
        for (src, l) in lists.iter().enumerate() {
            for &dst in l {
                assert!(
                    dst < p && dst != src,
                    "invalid destination {dst} for sender {src}"
                );
            }
        }
        let queues: Vec<VecDeque<usize>> =
            lists.iter().map(|l| l.iter().copied().collect()).collect();
        let total: usize = queues.iter().map(|q| q.len()).sum();
        let start = config.start_at.as_ms();
        Core {
            p,
            queues,
            state: vec![WorkerState::Running { until: start }; p],
            assignment: vec![None; p],
            send_free_at: vec![start; p],
            recv_free_at: vec![start; p],
            completions: BinaryHeap::new(),
            records: Vec::with_capacity(total),
            trace: RunTrace::new(),
            completed: 0,
            total,
            checkpoints_evaluated: 0,
            reschedules: 0,
            failure: None,
            failed_at: start,
            lost: Vec::new(),
            refused: Vec::new(),
            evolution,
            sizes,
            hook,
            config,
        }
    }

    fn push_event(
        &mut self,
        kind: EventKind,
        src: usize,
        dst: usize,
        modeled: f64,
        epoch: &Instant,
    ) {
        self.trace.events.push(RuntimeEvent {
            kind,
            src,
            dst,
            bytes: self.sizes[src][dst],
            modeled: Millis::new(modeled),
            wall_us: epoch.elapsed().as_micros() as u64,
        });
    }

    fn fail(&mut self, error: RuntimeError, at: f64) {
        if self.failure.is_none() {
            self.failure = Some(error);
            self.failed_at = at;
        }
    }

    /// The earliest modeled instant at which a worker still out of the
    /// monitor could submit a request.
    fn min_running(&self) -> f64 {
        self.state
            .iter()
            .filter_map(|s| match *s {
                WorkerState::Running { until } => Some(until),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The best grantable request: per receiver, parked requests are
    /// served FCFS with ties to the lower sender id; among receivers,
    /// the earliest `(start, dst)` wins. Returns `(start, arrival, src,
    /// dst)`.
    fn best_candidate(&self) -> Option<(f64, f64, usize, usize)> {
        // Per-dst winner by (arrival, src).
        let mut winner: Vec<Option<(f64, usize)>> = vec![None; self.p];
        for src in 0..self.p {
            if let WorkerState::Parked { arrival } = self.state[src] {
                let Some(&dst) = self.queues[src].front() else {
                    continue;
                };
                let better = match winner[dst] {
                    None => true,
                    Some((a, s)) => (arrival, src) < (a, s),
                };
                if better {
                    winner[dst] = Some((arrival, src));
                }
            }
        }
        let mut best: Option<(f64, f64, usize, usize)> = None;
        for dst in 0..self.p {
            if let Some((arrival, src)) = winner[dst] {
                let start = arrival.max(self.recv_free_at[dst]);
                let key = (start, dst);
                if best.is_none_or(|(bs, _, _, bd)| key < (bs, bd)) {
                    best = Some((start, arrival, src, dst));
                }
            }
        }
        best
    }

    fn commit_grant(&mut self, start: f64, arrival: f64, src: usize, dst: usize, epoch: &Instant) {
        let bytes = self.sizes[src][dst];
        // One link, one read: this runs under the fabric mutex.
        let live = self.evolution.link_at(Millis::new(start), src, dst);
        // A non-finite live estimate is a poisoned model, not a slow
        // link: it must never reach the `<=` comparison below (NaN
        // compares false against any threshold) or the calendar (a NaN
        // finish wedges the virtual clock).
        let kbps = live.bandwidth.as_kbps();
        let dur = live.message_time(bytes).as_ms();
        if !kbps.is_finite() || !dur.is_finite() {
            self.fail(
                RuntimeError::CorruptEstimate {
                    src,
                    dst,
                    at: Millis::new(start),
                    detail: format!(
                        "bandwidth {kbps} kbit/s, startup {}, duration {dur} ms",
                        live.startup
                    ),
                },
                start,
            );
            return;
        }
        if let Some(threshold) = self.config.faults.drop_below_kbps {
            // Inclusive on purpose: at the threshold the link is dead
            // (see `FaultPolicy::drop_below_kbps`).
            if kbps <= threshold {
                self.fail(
                    RuntimeError::MessageDropped {
                        src,
                        dst,
                        at: Millis::new(start),
                    },
                    start,
                );
                return;
            }
        }
        if let Some(factor) = self.config.faults.late_factor {
            let planned = self.evolution.planning_estimates().time(src, dst, bytes);
            let limit = planned.as_ms() * factor;
            if dur > limit {
                self.fail(
                    RuntimeError::MessageLate {
                        src,
                        dst,
                        observed: Millis::new(dur),
                        limit: Millis::new(limit),
                    },
                    start,
                );
                return;
            }
        }
        let finish = start + dur;
        self.queues[src].pop_front();
        self.state[src] = WorkerState::Running { until: finish };
        self.send_free_at[src] = finish;
        self.recv_free_at[dst] = finish;
        self.assignment[src] = Some(GrantSlip {
            dst,
            start,
            finish,
            physical: physical_len(bytes, self.config.payload_cap),
        });
        self.push_event(EventKind::Request, src, dst, arrival, epoch);
        self.push_event(EventKind::Grant, src, dst, start, epoch);
        self.completions.push(Reverse(Completion {
            finish,
            src,
            dst,
            start,
            bytes,
        }));
    }

    fn commit_completion(&mut self, c: Completion, epoch: &Instant) {
        self.completions.pop();
        // A completion commits only once its sender has moved past the
        // delivery (`min_running > finish`), so by now the transport's
        // verdict is registered: a refused delivery becomes the run's
        // failure at its modeled finish — the earliest refusal in
        // modeled order wins, not the first worker thread to notice.
        if let Some(pos) = self
            .refused
            .iter()
            .position(|&(s, d, _)| s == c.src && d == c.dst)
        {
            let (_, _, error) = self.refused.swap_remove(pos);
            self.lost.push((c.src, c.dst));
            self.fail(error, c.finish);
            return;
        }
        self.completed += 1;
        self.records.push(TransferRecord {
            src: c.src,
            dst: c.dst,
            bytes: c.bytes,
            start: Millis::new(c.start),
            finish: Millis::new(c.finish),
        });
        self.push_event(EventKind::Complete, c.src, c.dst, c.finish, epoch);

        if !self.config.policy.is_checkpoint(self.completed, self.total) {
            return;
        }
        self.checkpoints_evaluated += 1;
        let view = CheckpointView {
            completed: self.completed,
            total: self.total,
            now: Millis::new(c.finish),
            remaining: &self.queues,
            send_busy_until: &self.send_free_at,
            recv_busy_until: &self.recv_free_at,
            records: &self.records,
        };
        if let CheckpointAction::Replan(new_queues) = (self.hook)(&view) {
            assert_eq!(new_queues.len(), self.p, "replan changed processor count");
            for (src, (old, new)) in self.queues.iter().zip(&new_queues).enumerate() {
                let mut a: Vec<usize> = old.iter().copied().collect();
                let mut b: Vec<usize> = new.iter().copied().collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "replan changed sender {src}'s remaining messages");
            }
            self.reschedules += 1;
            self.queues = new_queues;
            // Pending requests are cancelled and re-issued at the
            // checkpoint instant, matching the simulator's replan.
            for s in &mut self.state {
                if let WorkerState::Parked { arrival } = s {
                    *arrival = arrival.max(c.finish);
                }
            }
        }
    }

    /// Commits every action that no still-running worker can invalidate,
    /// in modeled-time order. Grants precede completion bookkeeping at
    /// equal instants only when the receiver is idle (the simulator's
    /// event-class order); a request for a receiver that frees exactly
    /// then is granted by the completion path instead.
    fn advance(&mut self, epoch: &Instant) {
        loop {
            if self.failure.is_some() {
                return;
            }
            let min_running = self.min_running();
            let cand = self.best_candidate();
            let comp = self.completions.peek().map(|Reverse(c)| *c);
            match (cand, comp) {
                (None, None) => return,
                (Some((start, arrival, src, dst)), None) => {
                    if min_running > start {
                        self.commit_grant(start, arrival, src, dst, epoch);
                    } else {
                        return;
                    }
                }
                (None, Some(c)) => {
                    if min_running > c.finish {
                        self.commit_completion(c, epoch);
                    } else {
                        return;
                    }
                }
                (Some((start, arrival, src, dst)), Some(c)) => {
                    let grant_first =
                        start < c.finish || (start == c.finish && start > self.recv_free_at[dst]);
                    if grant_first {
                        if min_running > start {
                            self.commit_grant(start, arrival, src, dst, epoch);
                        } else {
                            return;
                        }
                    } else if min_running > c.finish {
                        self.commit_completion(c, epoch);
                    } else {
                        return;
                    }
                }
            }
        }
    }

    /// Runs every worker's monitor steps on the calling thread, in
    /// sender order — one legal schedule of the threads [`run_shaped`]
    /// spawns, with deliveries that take no time and move no bytes.
    /// Committed actions do not depend on the schedule (see the module
    /// docs), so the timeline is the threaded one bit for bit.
    fn drive_inline(&mut self, epoch: &Instant) {
        let mut entered = true;
        while entered && self.failure.is_none() {
            entered = false;
            for src in 0..self.p {
                // Like `worker`: back in the monitor the instant the
                // granted transfer finishes, asking for the next one.
                if let WorkerState::Running { until } = self.state[src] {
                    self.assignment[src] = None;
                    self.state[src] = if self.queues[src].is_empty() {
                        WorkerState::Done
                    } else {
                        WorkerState::Parked { arrival: until }
                    };
                    self.advance(epoch);
                    entered = true;
                }
            }
        }
    }

    /// The run's verdict once every worker has left the monitor.
    #[allow(clippy::result_large_err)] // see `run_shaped`
    fn finish(mut self) -> Result<ShapedOutcome, ShapedFailure> {
        if let Some(error) = self.failure.take() {
            // The workers are joined, so every committed grant has resolved:
            // its delivery either succeeded or was refused. Settle the
            // grants still sitting in the completion heap — successes into
            // `records`, refusals into `lost` — so delivered bytes are never
            // invisible to the retry driver and the ledger does not depend
            // on which worker thread hit the fault window first.
            let mut refused = std::mem::take(&mut self.refused);
            let mut lost = std::mem::take(&mut self.lost);
            let mut records = std::mem::take(&mut self.records);
            for Reverse(c) in std::mem::take(&mut self.completions) {
                if let Some(pos) = refused
                    .iter()
                    .position(|&(s, d, _)| s == c.src && d == c.dst)
                {
                    refused.swap_remove(pos);
                    lost.push((c.src, c.dst));
                } else {
                    records.push(TransferRecord {
                        src: c.src,
                        dst: c.dst,
                        bytes: c.bytes,
                        start: Millis::new(c.start),
                        finish: Millis::new(c.finish),
                    });
                }
            }
            return Err(ShapedFailure {
                error,
                trace: self.trace,
                records,
                remaining: self
                    .queues
                    .iter()
                    .map(|q| q.iter().copied().collect())
                    .collect(),
                send_busy_until: self.send_free_at,
                recv_busy_until: self.recv_free_at,
                at: Millis::new(self.failed_at),
                lost,
            });
        }
        debug_assert_eq!(
            self.records.len(),
            self.total,
            "every message must complete"
        );
        let mut records = self.records;
        records.sort_by(|a, b| {
            a.finish
                .as_ms()
                .total_cmp(&b.finish.as_ms())
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        let makespan = records
            .iter()
            .map(|r| r.finish)
            .fold(Millis::ZERO, Millis::max);
        Ok(ShapedOutcome {
            trace: self.trace,
            records,
            makespan,
            checkpoints_evaluated: self.checkpoints_evaluated,
            reschedules: self.reschedules,
        })
    }
}

fn worker<E, T, H>(src: usize, fabric: &Fabric<'_, E, H>, transport: &T)
where
    E: NetworkEvolution,
    T: Transport + ?Sized,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    let mut guard = fabric.core.lock().expect("fabric mutex poisoned");
    let mut next_arrival = guard.config.start_at.as_ms();
    let pace = guard.config.pace_us_per_ms;
    loop {
        if guard.failure.is_some() || guard.queues[src].is_empty() {
            guard.state[src] = WorkerState::Done;
            guard.advance(&fabric.epoch);
            fabric.cv.notify_all();
            return;
        }
        guard.state[src] = WorkerState::Parked {
            arrival: next_arrival,
        };
        guard.advance(&fabric.epoch);
        fabric.cv.notify_all();
        while guard.assignment[src].is_none() && guard.failure.is_none() {
            guard = fabric.cv.wait(guard).expect("fabric mutex poisoned");
        }
        // A grant committed before a failure was flagged is still
        // delivered: its message already left the queues, so unless the
        // transport itself refuses it (recorded in `lost`), a
        // retry will not re-send it.
        if guard.assignment[src].is_none() {
            continue;
        }
        let slip = guard.assignment[src].take().expect("grant present");
        drop(guard);

        // Physical work, outside the monitor: optional pacing so the
        // wall-clock timeline tracks the modeled one, then the real
        // byte movement through the transport.
        if let Some(us_per_ms) = pace {
            let us = (slip.finish - slip.start) * us_per_ms;
            if us >= 1.0 {
                std::thread::sleep(Duration::from_micros(us as u64));
            }
        }
        let payload = fill_payload(src, slip.dst, slip.physical);
        let delivered = transport.deliver_timed(
            src,
            slip.dst,
            payload,
            Millis::new(slip.start),
            Millis::new(slip.finish),
        );

        guard = fabric.core.lock().expect("fabric mutex poisoned");
        if let Err(e) = delivered {
            // Registered, not flagged: the commit engine settles the
            // refusal into the modeled timeline (see `Core::refused`).
            guard.refused.push((src, slip.dst, e));
        }
        next_arrival = slip.finish;
    }
}

/// A network that never changes: wraps a parameter snapshot as a
/// [`NetworkEvolution`].
#[derive(Debug, Clone)]
pub struct FrozenNetwork(pub NetParams);

impl NetworkEvolution for FrozenNetwork {
    fn processors(&self) -> usize {
        self.0.len()
    }
    fn planning_estimates(&self) -> &NetParams {
        &self.0
    }
    fn link_at(&mut self, _t: Millis, src: usize, dst: usize) -> LinkEstimate {
        self.0.estimate(src, dst)
    }
}

/// What [`run_shaped`] would realize for `lists` from `start_at` on a
/// network frozen at `params` — the records in its order, `(finish, src,
/// dst)` — computed by the fabric's own commit engine on the calling
/// thread: no worker threads, no transport, no payloads. This is how a
/// *predicted* timeline is priced (the plan a run is judged against).
/// The static simulator (`adaptcomm_sim::run_static`, the port-model
/// kernel's canonical tie order) agrees with it record for record, ties
/// included (`tests/tied_grid.rs`), but takes only full send orders from
/// time zero; the executor that orders modeled-time ties differently is
/// `run_adaptive`, whose insertion-order ties are pinned by the goldens in
/// `tests/pricing_equiv.rs`.
pub fn price_frozen(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    params: &NetParams,
    start_at: Millis,
) -> Result<Vec<TransferRecord>, RuntimeError> {
    let mut frozen = FrozenNetwork(params.clone());
    let config = ShapedConfig {
        start_at,
        ..Default::default()
    };
    let mut core = Core::new(lists, sizes, &mut frozen, config, |_| {
        CheckpointAction::Continue
    });
    core.drive_inline(&Instant::now());
    core.finish().map(|o| o.records).map_err(|f| f.error)
}

/// Executes the per-sender send lists over `transport`, pricing every
/// transfer from `evolution` at its grant instant, invoking `hook` at
/// the checkpoints of `config.policy`.
///
/// `lists[src]` holds `src`'s destinations in send order — pass
/// `&order.order` for a full [`adaptcomm_core::schedule::SendOrder`], or
/// a partial remainder when retrying after a fault (which a `SendOrder`,
/// validating full permutations, cannot represent).
///
/// On success the realized modeled timeline is identical to what
/// `adaptcomm_sim` would predict for the same decisions; on a fault the
/// error names the failing link and the failure state carries what a
/// retry needs.
// The Err variant deliberately carries the full retry state (queues,
// port availability, partial trace); failures are rare and boxing would
// push unwrapping noise into every retry driver.
#[allow(clippy::result_large_err)]
pub fn run_shaped<E, T, H>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &mut E,
    transport: &T,
    config: ShapedConfig,
    hook: H,
) -> Result<ShapedOutcome, ShapedFailure>
where
    E: NetworkEvolution + Send,
    T: Transport + ?Sized,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction + Send,
{
    let core = Core::new(lists, sizes, evolution, config, hook);
    let p = core.p;
    let fabric = Fabric {
        core: Mutex::new(core),
        cv: Condvar::new(),
        epoch: Instant::now(),
    };

    std::thread::scope(|s| {
        for src in 0..p {
            let fabric = &fabric;
            s.spawn(move || worker(src, fabric, transport));
        }
    });

    fabric
        .core
        .into_inner()
        .expect("fabric mutex poisoned")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{expected_receipts, ChannelTransport};
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::units::Bandwidth;
    use adaptcomm_model::variation::{VariationConfig, VariationTrace};
    use adaptcomm_sim::run_static;
    use adaptcomm_sim::{Fault, ScriptedFaults};

    /// Heterogeneous network: no two links alike, so modeled-time ties
    /// (where simulator and fabric may legitimately order events
    /// differently) cannot occur past the initial instant.
    fn hetero_net(p: usize) -> NetParams {
        NetParams::from_fn(p, |src, dst| {
            LinkEstimate::new(
                Millis::new(1.0 + (src * p + dst) as f64 * 0.37),
                Bandwidth::from_kbps(400.0 + (src * 31 + dst * 17) as f64 * 13.0),
            )
        })
    }

    fn mixed_sizes(p: usize) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else if (s + d) % 3 == 0 {
                            Bytes::from_kb(120)
                        } else {
                            Bytes::from_kb(3)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn still(net: NetParams) -> VariationTrace {
        VariationTrace::new(
            net,
            VariationConfig {
                volatility: 0.0,
                ..Default::default()
            },
            0,
        )
    }

    #[test]
    fn shaped_run_matches_the_simulator_exactly() {
        let p = 6;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let sim = run_static(&order, &net, &sizes);

        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let out = run_shaped(
            &order.order,
            &sizes,
            &mut evo,
            &transport,
            ShapedConfig::default(),
            |_| CheckpointAction::Continue,
        )
        .expect("clean network must not fail");

        assert_eq!(out.records.len(), sim.records.len());
        for (a, b) in out.records.iter().zip(&sim.records) {
            assert_eq!((a.src, a.dst, a.bytes), (b.src, b.dst, b.bytes));
            assert!(
                (a.start.as_ms() - b.start.as_ms()).abs() < 1e-6,
                "{a:?} vs {b:?}"
            );
            assert!((a.finish.as_ms() - b.finish.as_ms()).abs() < 1e-6);
        }
        assert!((out.makespan.as_ms() - sim.makespan.as_ms()).abs() < 1e-6);
        // Every payload physically arrived, intact.
        assert_eq!(transport.receipts(), expected_receipts(&sizes, None));
        // Trace is well-formed: one request+grant+complete per message.
        assert_eq!(out.trace.events.len(), 3 * out.records.len());
    }

    #[test]
    fn dropped_links_surface_as_typed_errors() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // Link 1 -> 2 collapses to ~zero bandwidth immediately.
        let mut evo = ScriptedFaults::new(
            net,
            vec![Fault {
                at: Millis::ZERO,
                src: 1,
                dst: 2,
                factor: 1e-9,
            }],
        );
        let transport = ChannelTransport::new(p);
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(0.01),
                late_factor: None,
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("dead link must abort the run");
        assert_eq!(failure.error.link(), Some((1, 2)));
        assert!(matches!(failure.error, RuntimeError::MessageDropped { .. }));
        // The failed message is still owed by its sender.
        assert_eq!(failure.remaining[1].first(), Some(&2));
    }

    #[test]
    fn drop_threshold_boundary_is_inclusive() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // hetero_net's slowest link is 0 -> 1 at exactly 621 kbit/s; a
        // threshold equal to it must count the link as dead (inclusive
        // boundary), while every faster link passes.
        let min_kbps = net.estimate(0, 1).bandwidth.as_kbps();
        assert_eq!(min_kbps, 621.0);
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(min_kbps),
                late_factor: None,
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("a link at the threshold is dead");
        assert_eq!(failure.error.link(), Some((0, 1)));
        assert!(matches!(failure.error, RuntimeError::MessageDropped { .. }));
        assert!(
            failure.lost.is_empty(),
            "grant-time drops keep the message queued"
        );
        assert_eq!(failure.remaining[0].first(), Some(&1));
    }

    /// A network whose live state reports a NaN startup on one link,
    /// which no public `Bandwidth`/`NetParams` constructor guards
    /// against (only `Bandwidth::from_kbps` asserts).
    struct PoisonedEstimate(NetParams);

    impl NetworkEvolution for PoisonedEstimate {
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
            // data can arrive through serde or field access.
            LinkEstimate {
                startup: Millis::new(f64::NAN),
                bandwidth: e.bandwidth,
            }
        }
    }

    #[test]
    fn non_finite_estimates_are_rejected_with_a_typed_error() {
        let p = 3;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = PoisonedEstimate(net);
        // Even with a drop threshold configured, the NaN duration must
        // surface as CorruptEstimate, not sneak past the comparison.
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(0.0),
                late_factor: None,
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("a poisoned estimate must abort the run");
        assert!(
            matches!(
                failure.error,
                RuntimeError::CorruptEstimate { src: 0, dst: 1, .. }
            ),
            "got {:?}",
            failure.error
        );
        assert_eq!(failure.error.link(), None, "not retryable by rescheduling");
    }

    /// A transport that refuses delivery on one link, without absorbing
    /// the payload: the message is popped from its queue but its bytes
    /// are genuinely lost.
    struct RefusingTransport {
        inner: ChannelTransport,
        refuse: (usize, usize),
    }

    impl Transport for RefusingTransport {
        fn name(&self) -> &'static str {
            "refusing"
        }
        fn deliver(&self, src: usize, dst: usize, payload: Vec<u8>) -> Result<(), RuntimeError> {
            if (src, dst) == self.refuse {
                return Err(RuntimeError::LinkPartitioned {
                    src,
                    dst,
                    at: Millis::ZERO,
                });
            }
            self.inner.deliver(src, dst, payload)
        }
        fn receipts(&self) -> Vec<crate::transport::ReceiptSummary> {
            self.inner.receipts()
        }
    }

    #[test]
    fn delivery_time_failures_are_flagged_lost_in_flight() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = RefusingTransport {
            inner: ChannelTransport::new(p),
            refuse: (1, 2),
        };
        let mut evo = still(net);
        let failure = run_shaped(
            &order.order,
            &sizes,
            &mut evo,
            &transport,
            ShapedConfig::default(),
            |_| CheckpointAction::Continue,
        )
        .expect_err("refused delivery must abort the run");
        assert_eq!(failure.error.link(), Some((1, 2)));
        assert_eq!(
            failure.lost,
            vec![(1, 2)],
            "a refused delivery left the queue but never arrived"
        );
        assert!(failure.lost_in_flight((1, 2)));
        // The popped message is in neither records nor remaining.
        assert!(!failure.remaining[1].contains(&2));
        assert!(!failure.records.iter().any(|r| r.src == 1 && r.dst == 2));
    }

    #[test]
    fn late_links_surface_as_typed_errors() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // Link 0 -> 3 drops to 10% speed: 10x late, over the 3x bound,
        // but nowhere near the dead-link threshold.
        let mut evo = ScriptedFaults::new(
            net,
            vec![Fault {
                at: Millis::ZERO,
                src: 0,
                dst: 3,
                factor: 0.1,
            }],
        );
        let transport = ChannelTransport::new(p);
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(0.01),
                late_factor: Some(3.0),
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("flapping link must abort the run");
        assert_eq!(failure.error.link(), Some((0, 3)));
        assert!(matches!(failure.error, RuntimeError::MessageLate { .. }));
    }

    #[test]
    fn checkpoint_hook_sees_consistent_state_and_can_replan() {
        let p = 5;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            policy: CheckpointPolicy::EveryEvent,
            ..Default::default()
        };
        let total = p * (p - 1);
        let out = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |view| {
            assert!(view.completed >= 1 && view.completed < view.total);
            assert_eq!(view.total, total);
            assert_eq!(view.records.len(), view.completed);
            // Reverse every sender's remaining queue: a valid replan
            // (same multiset), deliberately different order.
            let reversed = view
                .remaining
                .iter()
                .map(|q| q.iter().rev().copied().collect())
                .collect();
            CheckpointAction::Replan(reversed)
        })
        .expect("replanning on a clean network must still complete");
        assert_eq!(out.records.len(), total);
        assert_eq!(out.checkpoints_evaluated, total - 1);
        assert_eq!(out.reschedules, total - 1);
        assert_eq!(transport.receipts(), expected_receipts(&sizes, None));
        // Port-model invariant on the realized records.
        for proc in 0..p {
            for port in [true, false] {
                let mut mine: Vec<_> = out
                    .records
                    .iter()
                    .filter(|r| if port { r.src == proc } else { r.dst == proc })
                    .collect();
                mine.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
                for w in mine.windows(2) {
                    assert!(w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn pacing_aligns_wall_clock_with_modeled_order() {
        let p = 3;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            // ~1 us per modeled ms: fast, but enough to order deliveries.
            pace_us_per_ms: Some(1.0),
            ..Default::default()
        };
        let out = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect("paced run completes");
        assert_eq!(out.records.len(), p * (p - 1));
        assert!(out.trace.wall_elapsed_us() > 0);
    }
}
