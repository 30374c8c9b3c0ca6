//! The plan server: admission control in front of a worker pool in
//! front of a sharded directory and a shared plan cache.
//!
//! One accept thread hands connections to per-connection handler
//! threads; handlers parse frames with the property-tested
//! [`crate::proto::FrameReader`] and run admission. A request whose
//! reply the cache already determines — exact key present, no critical
//! links to pin — is answered right there, under the one cache lock
//! that found the entry; everything else queues, and the handler blocks
//! on a reply channel while a worker-pool thread solves.
//! Shutdown is graceful by construction: the control frame stops the
//! accept loop, handlers drain their in-flight requests against a
//! still-running worker pool, and only then does the queue close and
//! the pool join (the regression test in `tests/lifecycle.rs` pins
//! this ordering).

use crate::admission::{AdmissionError, AdmissionQueue};
use crate::cache::{evaluate, CacheLookup, PlanCache, Replay};
use crate::proto::{
    self, CacheDisposition, PlanOk, PlanRequest, PlanResponse, PlanStats, ProtocolError, Request,
};
use adaptcomm_core::algorithms::{
    all_schedulers, MatchingKind, MatchingPlan, MatchingScheduler, Scheduler,
};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_directory::ShardedDirectory;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::{Bandwidth, Millis, NetParams};
use adaptcomm_obs::json::Value;
use adaptcomm_obs::trace::TraceContext;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Estimated cost of replaying a cached plan (milliseconds). Replays
/// skip the solver entirely, which is what lets a warm cache admit
/// deadlines a cold solve could never meet.
const REPLAY_EST_MS: f64 = 0.05;

/// EWMA smoothing for per-`(algorithm, P)` service-time estimates.
const EWMA_ALPHA: f64 = 0.3;

/// Consecutive deadline rejections (no admit in between) that trigger a
/// flight-recorder dump: one reject is load, a streak is an incident.
const REJECT_STREAK_DUMP: u64 = 3;

/// Trace-tree slots (see [`TraceContext::child`]): the client's root
/// span forks admission and worker children; the worker forks cache
/// and solve grandchildren. Fixed slots keep the ids recomputable.
const SLOT_ADMISSION: u64 = 1;
const SLOT_WORKER: u64 = 2;
const SLOT_CACHE: u64 = 1;
const SLOT_SOLVE: u64 = 2;

/// Per-tenant metric key. The tenant segment goes through
/// [`adaptcomm_obs::prom_name`] so a hostile tenant name cannot smuggle
/// dots or control characters into the metric namespace — which also
/// makes the key parseable again: [`tenants_json`] splits on the dots
/// *around* the sanitized segment.
fn tenant_metric(tenant: &str, aspect: &str) -> String {
    format!(
        "plansrv.tenant.{}.{aspect}",
        adaptcomm_obs::prom_name(tenant)
    )
}

/// Bumps a per-tenant counter. The key is formatted only while the
/// registry records, so with observability off a request builds no
/// metric names at all.
fn tenant_add(tenant: &str, aspect: &str) {
    let obs = adaptcomm_obs::global();
    if obs.is_enabled() {
        obs.add(&tenant_metric(tenant, aspect), 1);
    }
}

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

/// Tuning knobs for [`PlanServer`].
#[derive(Debug, Clone)]
pub struct PlanServerConfig {
    /// Directory shard count (tenants hash across shards).
    pub shards: usize,
    /// Worker-pool size draining the admission queue.
    pub workers: usize,
    /// Plan-cache capacity (entries, FIFO eviction).
    pub cache_capacity: usize,
    /// Near-hit confirmation tolerance (max relative deviation).
    pub near_tolerance: f64,
    /// Service-time prior for an `(algorithm, P)` pair never seen.
    pub default_est_ms: f64,
    /// Artificial per-solve service time: workers sleep this long on
    /// every cold or warm solve (replays are exempt). The determinism
    /// knob for QoS tests and the CI smoke run; `None` in production.
    pub pace: Option<Duration>,
    /// LAP solver threads per solve (see
    /// [`adaptcomm_lap::solve_min_par`]) — bit-identical results at any
    /// value, so this is purely a latency knob.
    pub threads: usize,
}

impl Default for PlanServerConfig {
    fn default() -> Self {
        PlanServerConfig {
            shards: 4,
            workers: 2,
            cache_capacity: 256,
            near_tolerance: 0.10,
            default_est_ms: 10.0,
            pace: None,
            threads: 1,
        }
    }
}

struct Job {
    request: PlanRequest,
    /// The request's one fingerprint (see [`PlanService::admit`]).
    fingerprint: u64,
    /// Set for a fingerprint-only probe that hit but pins critical
    /// links: the worker pins the cached plan and re-executes it on its
    /// own matrix. Otherwise the worker looks the request's matrix up.
    replay: Option<Replay>,
    reply: mpsc::Sender<PlanResponse>,
    /// When the request arrived — the deadline verdict measures queue
    /// wait plus service, which is what the client experiences.
    arrived: Instant,
}

/// The shared service state behind the listener: sharded directory,
/// plan cache, service-time estimates, admission queue.
pub struct PlanService {
    config: PlanServerConfig,
    directory: ShardedDirectory,
    cache: Mutex<PlanCache>,
    estimates: Mutex<BTreeMap<(String, usize), f64>>,
    tenant_fp: Mutex<BTreeMap<String, u64>>,
    queue: AdmissionQueue<Job>,
    /// Consecutive deadline rejections since the last admit; at
    /// [`REJECT_STREAK_DUMP`] the flight recorder auto-dumps.
    reject_streak: AtomicU64,
}

impl PlanService {
    fn new(config: PlanServerConfig) -> Self {
        PlanService {
            directory: ShardedDirectory::new(config.shards),
            cache: Mutex::new(PlanCache::new(config.cache_capacity, config.near_tolerance)),
            estimates: Mutex::new(BTreeMap::new()),
            tenant_fp: Mutex::new(BTreeMap::new()),
            queue: AdmissionQueue::new(),
            reject_streak: AtomicU64::new(0),
            config,
        }
    }

    /// The sharded per-tenant directory (per-tenant epochs and stats).
    pub fn directory(&self) -> &ShardedDirectory {
        &self.directory
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.lock().expect("cache poisoned").stats()
    }

    fn pace_ms(&self) -> f64 {
        self.config.pace.map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    /// The service-time estimate admission will use for a solve.
    fn solve_estimate(&self, algorithm: &str, p: usize) -> f64 {
        let default = self.config.default_est_ms.max(self.pace_ms());
        self.estimates
            .lock()
            .expect("estimates poisoned")
            .get(&(algorithm.to_string(), p))
            .copied()
            .unwrap_or(default)
    }

    fn learn_estimate(&self, algorithm: &str, p: usize, measured_ms: f64) {
        let mut est = self.estimates.lock().expect("estimates poisoned");
        let slot = est.entry((algorithm.to_string(), p)).or_insert(measured_ms);
        *slot = (1.0 - EWMA_ALPHA) * *slot + EWMA_ALPHA * measured_ms;
    }

    /// Admission: resolve the request into work, estimate it, and
    /// queue it — or answer immediately (`Err`) when no queueing is
    /// needed, which includes every exact hit without critical links.
    /// On `Ok`, a worker sends the response to the returned receiver.
    fn admit(&self, request: PlanRequest) -> Result<mpsc::Receiver<PlanResponse>, PlanResponse> {
        let arrived = Instant::now();
        if !known_algorithm(&request.algorithm) {
            return Err(PlanResponse::Error {
                detail: format!("unknown algorithm {:?}", request.algorithm),
            });
        }
        let obs = adaptcomm_obs::global();
        tenant_add(&request.tenant, "requests");
        let _admission_span = traced(
            obs.span("plansrv.admission")
                .attr("tenant", request.tenant.as_str())
                .attr("algorithm", request.algorithm.as_str()),
            request.trace.map(|t| t.child(SLOT_ADMISSION)),
        );

        // The request's one fingerprint, threaded through admission,
        // lookup, insert and the tenant epoch. It comes from the cells
        // whenever there are cells: a client's `fingerprint` field is
        // only ever believed for a matrix-free probe.
        let fingerprint = match (&request.matrix, request.fingerprint) {
            (Some(matrix), _) => matrix.fingerprint(),
            (None, Some(fp)) => fp,
            (None, None) => {
                return Err(PlanResponse::Error {
                    detail: "a plan request needs a matrix or a fingerprint".into(),
                })
            }
        };
        let pinned = !request.qos.critical_links.is_empty();

        // Decide replay-vs-solve and, for an exact hit, take the whole
        // reply out of the cache, under one lock: nothing can evict the
        // entry between the decision and the replay.
        let (replay, would_hit) = {
            let mut cache = self.cache.lock().expect("cache poisoned");
            match &request.matrix {
                // The worker pins on the request's own matrix; only the
                // estimate needs to know whether it will replay.
                Some(_) if pinned => (None, cache.contains(&request.algorithm, fingerprint)),
                Some(_) => (cache.replay(&request.algorithm, fingerprint), false),
                None => match cache.probe_replay(&request.algorithm, fingerprint) {
                    Some(replay) => (Some(replay), true),
                    None => return Err(PlanResponse::NeedMatrix),
                },
            }
        };
        let replay = match replay {
            Some(replay) if !pinned => {
                return Err(self.replay_inline(&request, fingerprint, replay, arrived))
            }
            other => other,
        };
        let est_ms = match &request.matrix {
            Some(matrix) if !would_hit => self.solve_estimate(&request.algorithm, matrix.len()),
            _ => REPLAY_EST_MS,
        };

        let (priority, deadline_ms) = (request.qos.priority, request.qos.deadline_ms);
        let tenant = request.tenant.clone();
        let (reply, receiver) = mpsc::channel();
        let submitted = self.queue.submit(
            priority,
            deadline_ms,
            est_ms,
            Job {
                request,
                fingerprint,
                replay,
                reply,
                arrived,
            },
        );
        match submitted {
            Ok(_seq) => {
                self.reject_streak.store(0, Ordering::Relaxed);
                obs.gauge_set("plansrv.queue_depth", self.queue.depth() as f64);
                Ok(receiver)
            }
            Err(AdmissionError::Rejected {
                retry_after_ms,
                projected_ms,
            }) => {
                tenant_add(&tenant, "rejected");
                adaptcomm_obs::flight()
                    .note("plansrv.reject")
                    .attr("tenant", tenant.as_str())
                    .attr("projected_ms", projected_ms)
                    .attr("retry_after_ms", retry_after_ms)
                    .emit();
                // A lone rejection is load shedding doing its job; a
                // streak with no admit in between is an incident worth
                // a black-box dump (no-op unless a driver armed it).
                let streak = self.reject_streak.fetch_add(1, Ordering::Relaxed) + 1;
                if streak == REJECT_STREAK_DUMP {
                    adaptcomm_obs::flight().auto_dump("plansrv-reject-streak");
                }
                Err(PlanResponse::Rejected {
                    retry_after_ms,
                    detail: format!(
                        "projected completion {projected_ms:.3} ms blows the {:.3} ms deadline",
                        deadline_ms.unwrap_or(f64::INFINITY)
                    ),
                })
            }
            Err(AdmissionError::Closed) => Err(PlanResponse::Error {
                detail: "server is shutting down".into(),
            }),
        }
    }

    /// Answers an exact hit on the connection thread: no job, no
    /// channel, no worker wake-up. It bypasses the EDF queue — a replay
    /// is never rejected on deadline and never waits behind a solve —
    /// but draws `served_seq` from the same counter and leaves the same
    /// counters, latency observation and deadline verdict a worker
    /// would.
    fn replay_inline(
        &self,
        request: &PlanRequest,
        fingerprint: u64,
        replay: Replay,
        arrived: Instant,
    ) -> PlanResponse {
        self.reject_streak.store(0, Ordering::Relaxed);
        tenant_add(&request.tenant, "cache_hit");
        let epoch = self.tenant_epoch(&request.tenant, fingerprint, &replay.matrix);
        let served_seq = self.queue.serve_inline();
        let service_ms = arrived.elapsed().as_secs_f64() * 1e3;
        self.account(request, service_ms, service_ms);
        let (completion_ms, quality) = replay.outcome;
        PlanResponse::Ok(Box::new(PlanOk {
            order: replay.order,
            completion_ms,
            quality: Some(quality),
            cache: CacheDisposition::Hit,
            epoch,
            served_seq,
            trace_id: request.trace.map(|t| t.trace_id),
            stats: PlanStats {
                service_ms,
                ..PlanStats::default()
            },
        }))
    }

    /// The per-tenant record of one served request: service latency,
    /// and the deadline verdict on `total_ms` — queue wait plus service,
    /// what the client experiences, not service time alone.
    fn account(&self, request: &PlanRequest, service_ms: f64, total_ms: f64) {
        let obs = adaptcomm_obs::global();
        if !obs.is_enabled() {
            return;
        }
        obs.observe(
            &tenant_metric(&request.tenant, "latency_ms"),
            adaptcomm_obs::MS_BUCKETS,
            service_ms,
        );
        if let Some(deadline) = request.qos.deadline_ms {
            let aspect = if total_ms <= deadline {
                "deadline_hit"
            } else {
                "deadline_miss"
            };
            tenant_add(&request.tenant, aspect);
        }
    }

    /// Publishes the tenant's matrix into its directory shard when the
    /// fingerprint changed; returns the tenant's snapshot epoch.
    fn tenant_epoch(&self, tenant: &str, fingerprint: u64, matrix: &CommMatrix) -> u64 {
        let mut fps = self.tenant_fp.lock().expect("tenant fingerprints poisoned");
        let create = || {
            self.directory
                .tenant_or_create(tenant, || net_params_from(matrix))
        };
        match fps.get_mut(tenant) {
            Some(prev) if *prev == fingerprint => {}
            Some(prev) => {
                *prev = fingerprint;
                create().publish(net_params_from(matrix));
            }
            None => {
                fps.insert(tenant.to_string(), fingerprint);
                create();
            }
        }
        drop(fps);
        self.directory.epoch(tenant)
    }

    /// Executes one claimed job on a worker thread. `ctx` is the
    /// worker's trace context (the request root's [`SLOT_WORKER`]
    /// child); cache lookups and solves record as its children. The
    /// answer's `served_seq` and `service_ms` are the worker loop's to
    /// stamp once the job completes.
    fn compute(&self, job: &Job, ctx: Option<TraceContext>) -> Result<Box<PlanOk>, String> {
        let obs = adaptcomm_obs::global();
        let request = &job.request;
        let hit = |replay: &Replay| {
            tenant_add(&request.tenant, "cache_hit");
            let stats = PlanStats::default();
            (
                replay.order.clone(),
                replay.outcome.clone(),
                CacheDisposition::Hit,
                stats,
            )
        };
        let (matrix, (order, outcome, cache, stats)) = match (&job.replay, &request.matrix) {
            (Some(replay), _) => (&*replay.matrix, hit(replay)),
            (None, None) => return Err("queued with nothing to replay or solve".into()),
            (None, Some(matrix)) => {
                let lookup = {
                    let _span = traced(
                        obs.span("plansrv.cache_lookup")
                            .attr("algorithm", request.algorithm.as_str()),
                        ctx.map(|c| c.child(SLOT_CACHE)),
                    );
                    let mut cache = self.cache.lock().expect("cache poisoned");
                    cache
                        .replay(&request.algorithm, job.fingerprint)
                        .ok_or_else(|| cache.near(&request.algorithm, matrix))
                };
                let answer = match lookup {
                    Ok(replay) => hit(&replay),
                    Err(near) => {
                        let (seed, prev) = match near {
                            CacheLookup::Warm { seed, .. } => (Some(seed), None),
                            CacheLookup::Incremental { plan, .. } => (None, Some(plan)),
                            _ => (None, None),
                        };
                        let solve_span = traced(
                            obs.span("plansrv.solve")
                                .attr("algorithm", request.algorithm.as_str())
                                .attr("p", matrix.len()),
                            ctx.map(|c| c.child(SLOT_SOLVE)),
                        );
                        if let Some(pace) = self.config.pace {
                            std::thread::sleep(pace);
                        }
                        let solved = solve(
                            &request.algorithm,
                            matrix,
                            seed.as_deref(),
                            prev.as_deref(),
                            self.config.threads,
                        );
                        drop(solve_span);
                        let solved = solved?;
                        // The wire disposition reports what the solver
                        // actually did: a retained plan whose hi/dims
                        // drifted falls back to a warm full build and
                        // is reported as such.
                        let cache = match solved.disposition {
                            "incremental" | "hit" => CacheDisposition::Incremental,
                            "warm" => CacheDisposition::Warm,
                            _ => CacheDisposition::Cold,
                        };
                        let name = match cache {
                            CacheDisposition::Incremental => "cache_incremental",
                            CacheDisposition::Warm => "cache_warm",
                            _ => "cache_miss",
                        };
                        tenant_add(&request.tenant, name);
                        // Executed once, here, for this reply; the entry
                        // keeps the numbers so no replay executes again.
                        let outcome = evaluate(&solved.order, matrix);
                        self.cache.lock().expect("cache poisoned").insert_solved(
                            &request.algorithm,
                            job.fingerprint,
                            matrix,
                            solved.order.clone(),
                            Some(outcome.clone()),
                            solved.seed,
                            solved.plan,
                        );
                        (solved.order, outcome, cache, solved.stats)
                    }
                };
                (matrix, answer)
            }
        };

        let epoch = self.tenant_epoch(&request.tenant, job.fingerprint, matrix);
        // Retained numbers describe the cached order; a pinned order is
        // another schedule and is always executed.
        let (order, (completion_ms, quality)) = if request.qos.critical_links.is_empty() {
            (order, outcome)
        } else {
            let order = pin_critical(&order, &request.qos.critical_links);
            let outcome = evaluate(&order, matrix);
            (order, outcome)
        };
        Ok(Box::new(PlanOk {
            order,
            completion_ms,
            quality: Some(quality),
            cache,
            epoch,
            served_seq: 0,
            trace_id: request.trace.map(|t| t.trace_id),
            stats,
        }))
    }

    fn worker_loop(self: &Arc<Self>) {
        let obs = adaptcomm_obs::global();
        while let Some(claimed) = self.queue.pop() {
            let t0 = Instant::now();
            let job = claimed.payload;
            let ctx = job.request.trace.map(|t| t.child(SLOT_WORKER));
            let worker_span = traced(
                obs.span("plansrv.worker")
                    .attr("tenant", job.request.tenant.as_str())
                    .attr("algorithm", job.request.algorithm.as_str()),
                ctx,
            );
            let outcome = self.compute(&job, ctx);
            drop(worker_span);
            let service_ms = t0.elapsed().as_secs_f64() * 1e3;
            let served_seq = self.queue.complete(claimed.est_ms);
            obs.gauge_set("plansrv.queue_depth", self.queue.depth() as f64);
            self.account(
                &job.request,
                service_ms,
                job.arrived.elapsed().as_secs_f64() * 1e3,
            );
            if let (Ok(plan), Some(matrix)) = (&outcome, &job.request.matrix) {
                if plan.cache != CacheDisposition::Hit {
                    self.learn_estimate(&job.request.algorithm, matrix.len(), service_ms);
                }
            }
            // A dropped receiver means the connection died mid-request;
            // the work is still done (and cached), so just move on.
            let _ = job.reply.send(match outcome {
                Ok(mut ok) => {
                    ok.served_seq = served_seq;
                    ok.stats.service_ms = service_ms;
                    PlanResponse::Ok(ok)
                }
                Err(detail) => PlanResponse::Error { detail },
            });
        }
    }
}

/// What one scheduler run produced, plus the reuse surface to retain.
struct Solved {
    order: SendOrder,
    /// Solver counters (`service_ms` unset).
    stats: PlanStats,
    /// Round-1 duals to retain (empty for non-matching algorithms).
    seed: Vec<f64>,
    /// The whole matching plan to retain for §6 incremental replans.
    plan: Option<Box<MatchingPlan>>,
    /// The matching construction's own disposition; `"cold"` for
    /// algorithms without a reuse surface.
    disposition: &'static str,
}

/// Runs the requested scheduler: incrementally replanned from `prev`
/// when a retained plan is given, warm-started from `seed` otherwise.
fn solve(
    algorithm: &str,
    matrix: &CommMatrix,
    seed: Option<&[f64]>,
    prev: Option<&MatchingPlan>,
    threads: usize,
) -> Result<Solved, String> {
    let kind = [MatchingKind::Max, MatchingKind::Min]
        .into_iter()
        .find(|&k| MatchingScheduler::new(k).name() == algorithm);
    if let Some(kind) = kind {
        let sched = MatchingScheduler::with_threads(kind, threads);
        let plan = match prev {
            Some(prev) => sched.replan_incremental(prev, matrix),
            None => sched.plan_seeded(matrix, seed),
        };
        let order = SendOrder::from_steps(matrix.len(), &plan.steps);
        return Ok(Solved {
            order,
            stats: PlanStats {
                round1_warm: plan.round1.warm,
                round1_col_scans: plan.round1.col_scans,
                total_col_scans: plan.total_col_scans,
                service_ms: 0.0,
            },
            seed: plan.seed_potentials.clone(),
            disposition: plan.disposition,
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
        seed: Vec::new(),
        plan: None,
        disposition: "cold",
    })
}

/// Moves each sender's critical destinations to the front of its
/// order, preserving relative order within both groups. Links with
/// out-of-range endpoints are ignored.
fn pin_critical(order: &SendOrder, links: &[(usize, usize)]) -> SendOrder {
    let p = order.processors();
    let mut critical = vec![false; p * p];
    for &(s, d) in links {
        if s < p && d < p {
            critical[s * p + d] = true;
        }
    }
    SendOrder::new(
        order
            .order
            .iter()
            .enumerate()
            .map(|(s, dsts)| {
                let (mut front, back): (Vec<usize>, Vec<usize>) =
                    dsts.iter().partition(|&&d| critical[s * p + d]);
                front.extend(back);
                front
            })
            .collect(),
    )
}

/// Builds per-tenant directory params from a cost matrix: the cell is
/// the pair's start-up cost, bandwidth is effectively infinite (the
/// request matrix is already end-to-end milliseconds).
fn net_params_from(matrix: &CommMatrix) -> NetParams {
    let p = matrix.len().max(1);
    let mut params = NetParams::uniform(p, Millis::new(0.0), Bandwidth::from_kbps(1e12));
    for src in 0..matrix.len() {
        for (dst, &cell) in matrix.row(src).iter().enumerate() {
            params.set_estimate(
                src,
                dst,
                LinkEstimate::new(Millis::new(cell), Bandwidth::from_kbps(1e12)),
            );
        }
    }
    params
}

/// The listening plan server. Bind with [`PlanServer::bind`], stop
/// with [`PlanServer::shutdown`] (or a client's shutdown frame
/// followed by [`PlanServer::join`]).
pub struct PlanServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    service: Arc<PlanService>,
}

impl PlanServer {
    /// Binds (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// the accept loop and worker pool.
    pub fn bind(addr: &str, config: PlanServerConfig) -> std::io::Result<PlanServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(PlanService::new(config.clone()));

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let service = Arc::clone(&service);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("plansrv-worker-{i}"))
                    .spawn(move || service.worker_loop())?,
            );
        }

        let accept = {
            let stop = Arc::clone(&stop);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("plansrv-accept".into())
                .spawn(move || accept_loop(listener, addr, stop, service, workers))?
        };

        Ok(PlanServer {
            addr,
            stop,
            accept: Some(accept),
            service,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (stats, directory) — primarily for
    /// tests and benches.
    pub fn service(&self) -> &Arc<PlanService> {
        &self.service
    }

    /// Waits for the server to stop (a client's shutdown frame, or a
    /// concurrent [`PlanServer::shutdown`]).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops the server: no new connections, in-flight requests
    /// complete, workers drain, everything joins.
    pub fn shutdown(self) {
        trigger_stop(&self.stop, self.addr);
        self.join();
    }
}

/// Sets the stop flag and pokes the accept loop awake.
fn trigger_stop(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    // A throwaway connection unblocks the blocking accept().
    let _ = TcpStream::connect(addr);
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<PlanService>,
    workers: Vec<JoinHandle<()>>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Responses are header + payload writes; without NODELAY the
        // payload waits out the client's delayed ACK (~40 ms each).
        let _ = stream.set_nodelay(true);
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        if let Ok(h) = std::thread::Builder::new()
            .name("plansrv-conn".into())
            .spawn(move || handle_connection(stream, addr, stop, service))
        {
            handlers.push(h);
        }
        // Opportunistically reap finished handlers so a long-lived
        // server doesn't accumulate joined-but-unreaped threads.
        handlers.retain(|h| !h.is_finished());
    }
    // Graceful drain: handlers finish their in-flight requests against
    // a still-running worker pool, *then* the queue closes and the
    // pool joins.
    for h in handlers {
        let _ = h.join();
    }
    service.queue.close();
    for w in workers {
        let _ = w.join();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<PlanService>,
) {
    // Short read timeouts let an idle connection notice the stop flag;
    // the FrameReader makes partially-read frames safe to resume.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = proto::FrameReader::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return, // client closed
            Ok(n) => {
                reader.push(&buf[..n]);
                loop {
                    match reader.next_frame() {
                        Ok(Some(payload)) => {
                            if !serve_frame(&payload, &mut stream, &stop, addr, &service) {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            respond(
                                &mut stream,
                                &PlanResponse::Error {
                                    detail: e.to_string(),
                                },
                            );
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Serves one framed request; returns `false` to close the connection.
fn serve_frame(
    payload: &[u8],
    stream: &mut TcpStream,
    stop: &Arc<AtomicBool>,
    addr: SocketAddr,
    service: &Arc<PlanService>,
) -> bool {
    let request = match proto::parse_request(payload) {
        Ok(r) => r,
        Err(e) => {
            respond(
                stream,
                &PlanResponse::Error {
                    detail: e.to_string(),
                },
            );
            // A malformed payload leaves the framing intact: keep the
            // connection. Anything else closes it.
            return matches!(e, ProtocolError::Malformed { .. });
        }
    };
    match request {
        Request::Shutdown => {
            respond(stream, &PlanResponse::Bye);
            trigger_stop(stop, addr);
            false
        }
        Request::Plan(plan) => {
            let response = match service.admit(plan) {
                Err(immediate) => immediate,
                Ok(queued) => queued.recv().unwrap_or_else(|_| PlanResponse::Error {
                    detail: "worker pool shut down mid-request".into(),
                }),
            };
            respond(stream, &response);
            true
        }
    }
}

fn respond(stream: &mut TcpStream, response: &PlanResponse) {
    let payload = proto::encode_response(response);
    let _ = adaptcomm_runtime::tcp::write_frame(stream, proto::PROTO_VERSION, &payload);
}

/// Renders the `/tenants` scrape document from a registry snapshot:
/// one JSON object per tenant with request/reject counters, cache
/// dispositions, the deadline-hit ratio, and a latency digest.
///
/// Tenant names in metric keys are [`adaptcomm_obs::prom_name`]
/// sanitized (see [`tenant_metric`]), so the segment between
/// `plansrv.tenant.` and the final `.aspect` never contains a dot and
/// parses back unambiguously. The document is built as an
/// [`adaptcomm_obs::json::Value`], so it always re-parses with the same
/// crate's parser.
pub fn tenants_json(snap: &adaptcomm_obs::Snapshot) -> String {
    #[derive(Default)]
    struct Tenant {
        counters: BTreeMap<String, u64>,
        latency: Option<(u64, f64, f64)>, // count, sum_ms, p95_ms
    }

    fn split_key(name: &str) -> Option<(&str, &str)> {
        name.strip_prefix("plansrv.tenant.")?.split_once('.')
    }

    let mut tenants: BTreeMap<String, Tenant> = BTreeMap::new();
    for c in &snap.counters {
        if let Some((tenant, aspect)) = split_key(&c.name) {
            tenants
                .entry(tenant.to_string())
                .or_default()
                .counters
                .insert(aspect.to_string(), c.value);
        }
    }
    for h in &snap.histograms {
        let Some((tenant, "latency_ms")) = split_key(&h.name) else {
            continue;
        };
        // p95 from the cumulative buckets: the first bound covering
        // 95% of observations, saturating at the last bound when the
        // mass sits in the overflow bucket.
        let want = (0.95 * h.count as f64).ceil() as u64;
        let mut cum = 0;
        let mut p95 = *h.bounds.last().unwrap_or(&0.0);
        for (bound, bucket) in h.bounds.iter().zip(&h.buckets) {
            cum += bucket;
            if cum >= want {
                p95 = *bound;
                break;
            }
        }
        tenants.entry(tenant.to_string()).or_default().latency = Some((h.count, h.sum, p95));
    }

    let num = |v: u64| Value::Num(v as f64);
    let rows: Vec<Value> = tenants
        .into_iter()
        .map(|(name, t)| {
            let count = |aspect: &str| t.counters.get(aspect).copied().unwrap_or(0);
            let (dl_hit, dl_miss) = (count("deadline_hit"), count("deadline_miss"));
            let hit_ratio = if dl_hit + dl_miss > 0 {
                Value::Num(dl_hit as f64 / (dl_hit + dl_miss) as f64)
            } else {
                Value::Null // no deadline-bound requests: no verdict
            };
            let latency = match t.latency {
                Some((n, sum, p95)) if n > 0 => Value::Obj(vec![
                    ("count".into(), num(n)),
                    ("mean_ms".into(), Value::Num(sum / n as f64)),
                    ("p95_ms".into(), Value::Num(p95)),
                ]),
                _ => Value::Null,
            };
            Value::Obj(vec![
                ("name".into(), Value::Str(name)),
                ("requests".into(), num(count("requests"))),
                ("rejected".into(), num(count("rejected"))),
                (
                    "cache".into(),
                    Value::Obj(vec![
                        ("hit".into(), num(count("cache_hit"))),
                        ("incremental".into(), num(count("cache_incremental"))),
                        ("warm".into(), num(count("cache_warm"))),
                        ("miss".into(), num(count("cache_miss"))),
                    ]),
                ),
                (
                    "deadline".into(),
                    Value::Obj(vec![
                        ("hit".into(), num(dl_hit)),
                        ("miss".into(), num(dl_miss)),
                        ("hit_ratio".into(), hit_ratio),
                    ]),
                ),
                ("latency_ms".into(), latency),
            ])
        })
        .collect();
    Value::Obj(vec![("tenants".into(), Value::Arr(rows))]).to_json()
}
