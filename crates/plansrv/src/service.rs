//! The plan server's decision core: one plain value that owns every
//! piece of state a reply depends on — the plan cache, the EDF
//! admission queue, the idle-worker list, the per-tenant epochs, the
//! service-time estimates and the reject streak.
//!
//! [`Service`] is driven by two events, a request arriving
//! ([`Service::on_request`]) and a dispatched job coming back
//! ([`Service::on_solved`]), plus [`Service::close`]. Each returns the
//! [`Action`]s to carry out: answer a request, or hand a job to an idle
//! worker. The caller passes the time in as `now_ms`; the core reads no
//! clock, takes no lock and does no I/O, so its replies are a function
//! of the event sequence. The reply token `R` is opaque: the TCP shell
//! ([`crate::server`]) passes a channel, a test passes an integer.
//! [`Job::compute`] is the worker's half — solve, execute, pin — and
//! touches no service state, so it runs outside the shell's lock.

use crate::admission::{AdmissionQueue, Rejected};
use crate::cache::{evaluate, CacheLookup, CacheStats, Outcome, PlanCache, Replay};
use crate::proto::{CacheDisposition, PlanOk, PlanRequest, PlanResponse, PlanStats};
use crate::server::PlanServerConfig;
use adaptcomm_core::algorithms::{
    all_schedulers, MatchingKind, MatchingPlan, MatchingScheduler, Scheduler,
};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_obs::trace::TraceContext;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Duration;

/// Estimated cost of replaying a cached plan (milliseconds). Replays
/// skip the solver entirely, which is what lets a warm cache admit
/// deadlines a cold solve could never meet.
pub const REPLAY_EST_MS: f64 = 0.05;

/// EWMA smoothing for per-`(algorithm, P)` service-time estimates.
const EWMA_ALPHA: f64 = 0.3;

/// Consecutive deadline rejections (no admit or hit in between) that
/// trigger a flight-recorder dump: one reject is load, a streak is an
/// incident.
pub const REJECT_STREAK_DUMP: u64 = 3;

/// Trace-tree slots (see [`TraceContext::child`]): the client's root
/// span forks admission and worker children; the worker forks cache
/// and solve grandchildren. Fixed slots keep the ids recomputable.
const SLOT_ADMISSION: u64 = 1;
const SLOT_WORKER: u64 = 2;
const SLOT_CACHE: u64 = 1;
const SLOT_SOLVE: u64 = 2;

/// `span` placed in the request's trace tree, when the request has one.
fn traced(span: adaptcomm_obs::Span, ctx: Option<TraceContext>) -> adaptcomm_obs::Span {
    match ctx {
        Some(ctx) => span.trace(ctx),
        None => span,
    }
}

/// Whether `name` is a built-in scheduler, against a name list built
/// once instead of five boxed schedulers per request.
fn known_algorithm(name: &str) -> bool {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES
        .get_or_init(|| all_schedulers().iter().map(|s| s.name()).collect())
        .contains(&name)
}

/// Why a matrix cannot be scheduled although every cell is finite and
/// non-negative, as the wire requires: a finite cell total bounds every
/// event time of every list schedule, an overflowing one does not.
fn unschedulable(matrix: &CommMatrix) -> Option<String> {
    let total = matrix.total_cost().as_ms();
    let why = "each cell is finite but their sum overflows f64, so event times could too";
    (!total.is_finite()).then(|| format!("the matrix's cell total is {total}: {why}"))
}

pub(crate) fn error(detail: impl Into<String>) -> PlanResponse {
    PlanResponse::Error {
        detail: detail.into(),
    }
}

/// An admitted request with its fingerprint, work and estimate.
type Queued = (PlanRequest, u64, Work, f64);

/// What the caller of [`Service`] must do next.
#[derive(Debug)]
pub enum Action<R> {
    /// Send the response to the request the token names.
    Reply(R, PlanResponse),
    /// Run [`Job::compute`] on the idle worker with this index, then
    /// report through [`Service::on_solved`].
    Solve(usize, Box<Job<R>>),
}

/// A request admitted for a worker, and what dispatch decided for it.
#[derive(Debug)]
pub struct Job<R> {
    reply_to: R,
    request: PlanRequest,
    /// The request's one fingerprint, threaded through admission,
    /// lookup, insert and the tenant epoch.
    fingerprint: u64,
    work: Work,
    est_ms: f64,
    dispatched_ms: f64,
    threads: usize,
    pace: Option<Duration>,
}

#[derive(Debug)]
enum Work {
    /// A matrix request: the cache is consulted at *dispatch*, so a
    /// solve that finished (or an entry evicted) while it queued is seen.
    Lookup,
    /// Replay a cached plan: a pinned probe (fixed at admission — it
    /// has no matrix to look up later) or an exact hit at dispatch.
    Replay(Replay),
    /// Solve, seeded or replanned from what the near lookup found.
    Solve(CacheLookup),
}

/// What [`Job::compute`] produced.
#[derive(Debug)]
pub struct Computed {
    /// The reply, short of the epoch and `served_seq` the core stamps;
    /// the shell stamps the measured `stats.service_ms`.
    pub plan: Box<PlanOk>,
    /// A fresh solve and its outcome, for the cache to retain.
    fresh: Option<(Solved, Outcome)>,
}

/// A plan reply — `solved`'s, or an exact hit's when there is no solve
/// — short of the epoch and `served_seq` the core stamps.
fn plan_ok(
    request: &PlanRequest,
    order: SendOrder,
    (completion_ms, quality): Outcome,
    solved: Option<&Solved>,
) -> Box<PlanOk> {
    Box::new(PlanOk {
        order,
        completion_ms,
        quality: Some(quality),
        cache: solved.map_or(CacheDisposition::Hit, |s| s.cache),
        epoch: 0,
        served_seq: 0,
        trace_id: request.trace.map(|t| t.trace_id),
        stats: solved.map(|s| s.stats).unwrap_or_default(),
    })
}

impl<R> Job<R> {
    /// The token the reply goes to.
    pub fn reply_to(&self) -> &R {
        &self.reply_to
    }

    /// The matrix the reply describes: the request's own, or for a
    /// matrix-free probe the one its cached plan was computed for.
    fn matrix(&self) -> Option<&CommMatrix> {
        match &self.work {
            Work::Replay(replay) => Some(&replay.matrix),
            _ => self.request.matrix.as_ref(),
        }
    }

    /// Runs the job: the scheduler (seeded or incrementally replanned,
    /// as dispatch decided) and one execution of its order, or a cached
    /// plan's retained numbers; then critical links are pinned and the
    /// pinned order executed. The worker's half: it touches no service
    /// state, and only here does the `pace` sleep happen.
    pub fn compute(&self) -> Result<Computed, String> {
        let obs = adaptcomm_obs::global();
        let request = &self.request;
        let (tenant, algorithm) = (request.tenant.as_str(), request.algorithm.as_str());
        let ctx = request.trace.map(|t| t.child(SLOT_WORKER));
        let span = obs.span("plansrv.worker").attr("tenant", tenant);
        let _worker_span = traced(span.attr("algorithm", algorithm), ctx);
        let matrix = self.matrix().ok_or("dispatched with no matrix")?;
        let (mut plan, fresh) = match &self.work {
            Work::Replay(replay) => {
                let (order, outcome) = (replay.order.clone(), replay.outcome.clone());
                (plan_ok(request, order, outcome, None), None)
            }
            Work::Solve(near) => {
                let span = obs.span("plansrv.solve").attr("algorithm", algorithm);
                let ctx = ctx.map(|c| c.child(SLOT_SOLVE));
                let solve_span = traced(span.attr("p", matrix.len()), ctx);
                if let Some(pace) = self.pace {
                    std::thread::sleep(pace);
                }
                let solved = solve(algorithm, matrix, near, self.threads);
                drop(solve_span);
                let solved = solved?;
                // Executed once, here, for this reply; the entry keeps
                // the numbers so no replay executes again.
                let outcome = evaluate(&solved.order, matrix);
                let order = solved.order.clone();
                let plan = plan_ok(request, order, outcome.clone(), Some(&solved));
                (plan, Some((solved, outcome)))
            }
            Work::Lookup => return Err("dispatched before its cache lookup".into()),
        };
        // Retained numbers describe the cached order; a pinned order is
        // another schedule and is always executed.
        let links = &request.qos.critical_links;
        if !links.is_empty() {
            plan.order = pin_critical(&plan.order, links);
            let (completion_ms, quality) = evaluate(&plan.order, matrix);
            (plan.completion_ms, plan.quality) = (completion_ms, Some(quality));
        }
        Ok(Computed { plan, fresh })
    }
}

/// Runs `work`, turning a panic into the `Err` that
/// [`Service::on_solved`] answers as an error reply: a solve that dies
/// costs its own request, never a worker.
pub fn contained<T>(work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).unwrap_or_else(|panic| {
        let text = panic.downcast_ref::<String>().map(String::as_str);
        let why = text.or_else(|| panic.downcast_ref::<&str>().copied());
        let why = why.unwrap_or("no message");
        Err(format!("the solve panicked: {why}"))
    })
}

/// What the core remembers of a tenant: the fingerprint of its last
/// served matrix, and how often that fingerprint changed since the
/// tenant was first seen — the `epoch` every reply carries.
struct Tenant {
    fingerprint: u64,
    epoch: u64,
}

/// The decision core; see the module docs.
pub struct Service<R> {
    config: PlanServerConfig,
    cache: PlanCache,
    queue: AdmissionQueue<Job<R>>,
    /// Workers with nothing to do; dispatch takes from the back.
    idle: Vec<usize>,
    tenants: BTreeMap<String, Tenant>,
    estimates: BTreeMap<(String, usize), f64>,
    /// Consecutive deadline rejections since the last admit or inline
    /// hit; at [`REJECT_STREAK_DUMP`] the flight recorder auto-dumps.
    reject_streak: u64,
    closed: bool,
}

impl<R> Service<R> {
    /// A core for `config.workers` workers (at least one), numbered
    /// from 0 and all idle.
    pub fn new(config: PlanServerConfig) -> Self {
        Service {
            cache: PlanCache::new(config.cache_capacity, config.near_tolerance),
            queue: AdmissionQueue::default(),
            idle: (0..config.workers.max(1)).rev().collect(),
            tenants: BTreeMap::new(),
            estimates: BTreeMap::new(),
            reject_streak: 0,
            closed: false,
            config,
        }
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Every tenant served so far with its current epoch, in name order.
    pub fn tenant_epochs(&self) -> Vec<(String, u64)> {
        let epochs = self.tenants.iter().map(|(name, t)| (name.clone(), t.epoch));
        epochs.collect()
    }

    /// A request arrives at `now_ms`. Replies go only to `reply_to`:
    /// at once for an error, a rejection, a missed probe or an exact
    /// hit; otherwise the request queues and may be dispatched in the
    /// same call.
    pub fn on_request(&mut self, reply_to: R, request: PlanRequest, now_ms: f64) -> Vec<Action<R>> {
        let (request, fingerprint, work, est_ms) = match self.admit(request) {
            Ok(_) if self.closed => {
                return vec![Action::Reply(reply_to, error("server is shutting down"))]
            }
            Ok(queued) => queued,
            Err(answer) => return vec![Action::Reply(reply_to, answer)],
        };
        let (priority, deadline_ms) = (request.qos.priority, request.qos.deadline_ms);
        let job = Job {
            reply_to,
            request,
            fingerprint,
            work,
            est_ms,
            dispatched_ms: now_ms,
            threads: self.config.threads,
            pace: self.config.pace,
        };
        match self.queue.submit(priority, deadline_ms, est_ms, job) {
            Ok(()) => {
                self.reject_streak = 0;
                self.dispatch(now_ms, Vec::new())
            }
            Err((rejected, job)) => {
                let answer = self.reject(&job.request, rejected);
                vec![Action::Reply(job.reply_to, answer)]
            }
        }
    }

    /// The answer to a request whose projection blows its deadline.
    fn reject(&mut self, request: &PlanRequest, rejected: Rejected) -> PlanResponse {
        let Rejected {
            retry_after_ms,
            projected_ms,
        } = rejected;
        adaptcomm_obs::flight()
            .note("plansrv.reject")
            .attr("tenant", request.tenant.as_str())
            .attr("projected_ms", projected_ms)
            .attr("retry_after_ms", retry_after_ms)
            .emit();
        // A lone rejection is load shedding doing its job; a streak with
        // no admit in between is an incident worth a black-box dump
        // (no-op unless a driver armed it).
        self.reject_streak += 1;
        if self.reject_streak == REJECT_STREAK_DUMP {
            adaptcomm_obs::flight().auto_dump("plansrv-reject-streak");
        }
        let deadline_ms = request.qos.deadline_ms.unwrap_or(f64::INFINITY);
        let detail = format!(
            "projected completion {projected_ms:.3} ms blows the {deadline_ms:.3} ms deadline"
        );
        PlanResponse::Rejected {
            retry_after_ms,
            detail,
        }
    }

    /// Admission short of the queue: resolve the request into work and
    /// price it — or answer it outright (`Err`) when no queueing is
    /// needed, which includes every exact hit without critical links.
    fn admit(&mut self, request: PlanRequest) -> Result<Queued, PlanResponse> {
        if !known_algorithm(&request.algorithm) {
            return Err(error(format!("unknown algorithm {:?}", request.algorithm)));
        }
        if let Some(why) = request.matrix.as_ref().and_then(unschedulable) {
            return Err(error(why));
        }
        let (tenant, algorithm) = (request.tenant.as_str(), request.algorithm.as_str());
        let obs = adaptcomm_obs::global();
        let span = obs.span("plansrv.admission").attr("tenant", tenant);
        let ctx = request.trace.map(|t| t.child(SLOT_ADMISSION));
        let _admission_span = traced(span.attr("algorithm", algorithm), ctx);
        // The request's one fingerprint. It comes from the cells
        // whenever there are cells: a client's `fingerprint` field is
        // only ever believed for a matrix-free probe.
        let fingerprint = match (&request.matrix, request.fingerprint) {
            (Some(matrix), _) => matrix.fingerprint(),
            (None, Some(fp)) => fp,
            (None, None) => return Err(error("a plan request needs a matrix or a fingerprint")),
        };
        let pinned = !request.qos.critical_links.is_empty();
        let replay = match &request.matrix {
            // The worker pins on the request's own matrix; only the
            // estimate needs to know whether it will replay.
            Some(matrix) if pinned => {
                let est_ms = if self.cache.contains(algorithm, fingerprint) {
                    REPLAY_EST_MS
                } else {
                    self.solve_estimate(algorithm, matrix.len())
                };
                return Ok((request, fingerprint, Work::Lookup, est_ms));
            }
            Some(matrix) => match self.cache.replay(algorithm, fingerprint) {
                Some(replay) => replay,
                None => {
                    let est_ms = self.solve_estimate(algorithm, matrix.len());
                    return Ok((request, fingerprint, Work::Lookup, est_ms));
                }
            },
            None => match self.cache.probe_replay(algorithm, fingerprint) {
                Some(replay) if pinned => {
                    return Ok((request, fingerprint, Work::Replay(replay), REPLAY_EST_MS))
                }
                Some(replay) => replay,
                None => return Err(PlanResponse::NeedMatrix),
            },
        };
        // An exact hit without pins: answered without a worker. It
        // bypasses the EDF queue — a replay is never rejected on
        // deadline and never waits behind a solve — but draws
        // `served_seq` from the same counter a worker's reply would.
        self.reject_streak = 0;
        let plan = plan_ok(&request, replay.order, replay.outcome, None);
        Err(self.finish(&request, fingerprint, plan))
    }

    /// A worker's job comes back at `now_ms` with what
    /// [`Job::compute`] produced (or why it failed): the request is
    /// answered, a fresh solve is retained and learnt from, and the
    /// worker takes the next queued job, if any.
    pub fn on_solved(
        &mut self,
        worker: usize,
        job: Job<R>,
        result: Result<Computed, String>,
        now_ms: f64,
    ) -> Vec<Action<R>> {
        self.idle.push(worker);
        self.queue.complete(job.est_ms);
        let (request, service_ms) = (&job.request, now_ms - job.dispatched_ms);
        let response = match (result, job.matrix()) {
            (Ok(Computed { plan, fresh }), Some(matrix)) => {
                if let Some((solved, outcome)) = fresh {
                    let (order, seed, retained) = (solved.order, solved.seed, solved.plan);
                    let (algorithm, fp) = (request.algorithm.as_str(), job.fingerprint);
                    let outcome = Some(outcome);
                    let cache = &mut self.cache;
                    cache.insert_solved(algorithm, fp, matrix, order, outcome, seed, retained);
                    let slot = (request.algorithm.clone(), matrix.len());
                    let est = self.estimates.entry(slot).or_insert(service_ms);
                    *est = (1.0 - EWMA_ALPHA) * *est + EWMA_ALPHA * service_ms;
                }
                self.finish(request, job.fingerprint, plan)
            }
            (Ok(_), None) => error("dispatched with no matrix"),
            (Err(detail), _) => error(detail),
        };
        self.dispatch(now_ms, vec![Action::Reply(job.reply_to, response)])
    }

    /// Stops admitting: later requests, and anything still queued, are
    /// answered with an error. Jobs in flight still come back through
    /// [`Service::on_solved`] and are answered there.
    pub fn close(&mut self) -> Vec<Action<R>> {
        self.closed = true;
        let backlog = std::iter::from_fn(|| self.queue.pop());
        backlog
            .map(|(_, job)| Action::Reply(job.reply_to, error("server is shutting down")))
            .collect()
    }

    /// Hands queued jobs to idle workers in QoS order, deciding each
    /// one's cache disposition now.
    fn dispatch(&mut self, now_ms: f64, mut actions: Vec<Action<R>>) -> Vec<Action<R>> {
        while let Some(&worker) = self.idle.last() {
            let Some((_, mut job)) = self.queue.pop() else {
                break;
            };
            self.idle.pop();
            job.dispatched_ms = now_ms;
            if let (Work::Lookup, Some(matrix)) = (&job.work, &job.request.matrix) {
                let algorithm = job.request.algorithm.as_str();
                let span = adaptcomm_obs::global().span("plansrv.cache_lookup");
                let ctx = job
                    .request
                    .trace
                    .map(|t| t.child(SLOT_WORKER).child(SLOT_CACHE));
                let _span = traced(span.attr("algorithm", algorithm), ctx);
                job.work = match self.cache.replay(algorithm, job.fingerprint) {
                    Some(replay) => Work::Replay(replay),
                    None => Work::Solve(self.cache.near(algorithm, matrix)),
                };
            }
            actions.push(Action::Solve(worker, Box::new(job)));
        }
        actions
    }

    /// Stamps a plan with the tenant's epoch and the next `served_seq`
    /// (one counter for inline and queued answers, so it stays unique
    /// and gap-free across both ways out).
    fn finish(
        &mut self,
        request: &PlanRequest,
        fingerprint: u64,
        mut plan: Box<PlanOk>,
    ) -> PlanResponse {
        plan.epoch = self.tenant_epoch(&request.tenant, fingerprint);
        plan.served_seq = self.queue.serve();
        PlanResponse::Ok(plan)
    }

    /// The service-time estimate admission uses for a solve.
    fn solve_estimate(&self, algorithm: &str, p: usize) -> f64 {
        let pace_ms = self.config.pace.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        let prior = self.config.default_est_ms.max(pace_ms);
        let learnt = self.estimates.get(&(algorithm.to_string(), p));
        learnt.copied().unwrap_or(prior)
    }

    /// The tenant's epoch after serving it `fingerprint`: unchanged for
    /// the fingerprint it last saw, one more for a new one, 0 at first
    /// sight.
    fn tenant_epoch(&mut self, tenant: &str, fingerprint: u64) -> u64 {
        match self.tenants.get_mut(tenant) {
            Some(t) if t.fingerprint != fingerprint => {
                (t.fingerprint, t.epoch) = (fingerprint, t.epoch + 1);
                t.epoch
            }
            Some(t) => t.epoch,
            None => {
                let first = Tenant {
                    fingerprint,
                    epoch: 0,
                };
                self.tenants.insert(tenant.to_string(), first);
                0
            }
        }
    }
}

/// What one scheduler run produced: the order, its counters
/// (`service_ms` unset), what the solver actually did (a retained plan
/// whose hi/dims drifted falls back to a warm full build and says so),
/// and the reuse surface to retain — round-1 duals (empty for
/// non-matching algorithms) and the whole matching plan.
#[derive(Debug)]
struct Solved {
    order: SendOrder,
    stats: PlanStats,
    cache: CacheDisposition,
    seed: Vec<f64>,
    plan: Option<Box<MatchingPlan>>,
}

/// Runs the requested scheduler: incrementally replanned from a
/// retained plan, warm-started from retained duals, or cold.
fn solve(
    algorithm: &str,
    matrix: &CommMatrix,
    near: &CacheLookup,
    threads: usize,
) -> Result<Solved, String> {
    let kind = [MatchingKind::Max, MatchingKind::Min]
        .into_iter()
        .find(|&k| MatchingScheduler::new(k).name() == algorithm);
    if let Some(kind) = kind {
        let sched = MatchingScheduler::with_threads(kind, threads);
        let plan = match near {
            CacheLookup::Incremental { plan, .. } => sched.replan_incremental(plan, matrix),
            CacheLookup::Warm { seed, .. } => sched.plan_seeded(matrix, Some(seed)),
            _ => sched.plan_seeded(matrix, None),
        };
        return Ok(Solved {
            order: SendOrder::from_steps(matrix.len(), &plan.steps),
            stats: PlanStats {
                round1_warm: plan.round1.warm,
                round1_col_scans: plan.round1.col_scans,
                total_col_scans: plan.total_col_scans,
                service_ms: 0.0,
            },
            cache: match plan.disposition {
                "incremental" | "hit" => CacheDisposition::Incremental,
                "warm" => CacheDisposition::Warm,
                _ => CacheDisposition::Cold,
            },
            seed: plan.seed_potentials.clone(),
            plan: Some(Box::new(plan)),
        });
    }
    let scheduler = all_schedulers()
        .into_iter()
        .find(|s| s.name() == algorithm)
        .ok_or_else(|| format!("unknown algorithm {algorithm:?}"))?;
    Ok(Solved {
        order: scheduler.send_order(matrix),
        stats: PlanStats::default(),
        cache: CacheDisposition::Cold,
        seed: Vec::new(),
        plan: None,
    })
}

/// Moves each sender's critical destinations to the front of its
/// order, preserving relative order within both groups. Links with
/// out-of-range endpoints are ignored.
fn pin_critical(order: &SendOrder, links: &[(usize, usize)]) -> SendOrder {
    let p = order.processors();
    let mut critical = vec![false; p * p];
    for &(s, d) in links.iter().filter(|&&(s, d)| s < p && d < p) {
        critical[s * p + d] = true;
    }
    let pinned = order.order.iter().enumerate().map(|(s, dsts)| {
        let (mut front, back): (Vec<usize>, Vec<usize>) =
            dsts.iter().partition(|&&d| critical[s * p + d]);
        front.extend(back);
        front
    });
    SendOrder::new(pinned.collect())
}
