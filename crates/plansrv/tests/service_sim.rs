//! A seeded, single-threaded simulator for the plan server's decision
//! core. It drives [`Service`] directly — virtual time, an integer reply
//! token per request, real [`Job::compute`] solves — through a thousand
//! schedules that mix clients, one to three workers, `P` from 3 to 6,
//! deadlines, priorities, probes, pinned links, clients that hang up
//! while queued, solves that panic, matrices whose cell total overflows,
//! and shutdown under load. Every reply is checked against an
//! independent model of the core (its cache keys and FIFO eviction, its
//! EWMA estimates, its EDF queue, its idle workers and its tenants):
//!
//! * every request gets exactly one reply, and `served_seq` over the
//!   served plans is exactly `1..=n`;
//! * the same seed gives a byte-identical reply transcript;
//! * `CacheStats` add up: lookups = hits + misses + warm + incremental,
//!   and inserts = successful solves of a key the cache did not hold;
//! * dispatch is EDF within priority tiers, no worker idles while work
//!   queues, and a request is rejected iff its serial projection
//!   exceeds its deadline;
//! * a plan's order is the model's (pinned when asked): a solve is the
//!   in-process scheduler's cold order, or for a matching request whose
//!   near match the cache nominates, `replan_within(retained, m,
//!   REPLAN_GAP)` of the nominated entry's retained plan; a hit replays
//!   the order its cache entry retains; and `completion_ms` is
//!   `execute_listed` on the served order, bit for bit;
//! * a plan's `epoch` counts how often its tenant's fingerprint changed
//!   over the plans served to that tenant before it;
//! * a panicking solve is answered with an `Error`, and its worker is
//!   back in service within the same call.
//!
//! `cargo test -p adaptcomm-plansrv --test service_sim -- --nocapture`
//! prints the fault table.

use adaptcomm_core::algorithms::REPLAN_GAP;
use adaptcomm_core::algorithms::{all_schedulers, MatchingKind, MatchingPlan, MatchingScheduler};
use adaptcomm_core::execution::execute_listed;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_plansrv::proto::{encode_response, CacheDisposition, PlanOk, PlanRequest};
use adaptcomm_plansrv::proto::{PlanResponse, QosSpec};
use adaptcomm_plansrv::service::{contained, Action, Job, Service, REPLAY_EST_MS};
use adaptcomm_plansrv::PlanServerConfig;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::{Once, OnceLock};

const SCHEDULES: u64 = 1_000;
const ALGORITHMS: [&str; 5] = [
    "matching-max",
    "matching-min",
    "greedy",
    "openshop",
    "baseline",
];
/// The message every injected panic carries.
const INJECTED: &str = "injected solve fault";
/// The share of dispatched jobs whose solve panics.
const PANIC_RATE: f64 = 0.06;
/// The core's EWMA weight, restated.
const ALPHA: f64 = 0.3;

/// SplitMix64: the whole simulation is a function of one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The matrices every schedule draws from, with each scheduler's cold
/// in-process order for each: three bases at each `P = 3..=6`, a 3 %
/// near copy of each (so matching requests take the warm and
/// incremental paths), and one matrix whose cell total overflows.
struct Pool {
    matrices: Vec<CommMatrix>,
    fingerprints: Vec<u64>,
    /// `references[m][a]`: `ALGORITHMS[a]`'s cold order for `matrices[m]`.
    references: Vec<Vec<SendOrder>>,
    overflow: CommMatrix,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut rng = Rng(0x5eed);
        let mut matrices = Vec::new();
        for p in 3..=6 {
            for _ in 0..3 {
                let cells: Vec<f64> = (0..p * p).map(|_| 1.0 + 99.0 * rng.unit()).collect();
                let base =
                    CommMatrix::from_fn(p, |s, d| if s == d { 0.0 } else { cells[s * p + d] });
                let near = CommMatrix::from_fn(p, |s, d| {
                    let wobble = if (s + 2 * d) % 3 == 0 { 1.03 } else { 1.0 };
                    base.row(s)[d] * wobble
                });
                matrices.extend([base, near]);
            }
        }
        // Fresh schedulers per matrix: a matching scheduler that retained
        // the previous matrix's plan would replan rather than build cold.
        let reference = |m: &CommMatrix, name: &str| {
            let schedulers = all_schedulers();
            let scheduler = schedulers.iter().find(|s| s.name() == name);
            scheduler.expect("a built-in scheduler").send_order(m)
        };
        let references = matrices
            .iter()
            .map(|m| ALGORITHMS.iter().map(|a| reference(m, a)).collect())
            .collect();
        Pool {
            fingerprints: matrices.iter().map(CommMatrix::fingerprint).collect(),
            matrices,
            references,
            overflow: CommMatrix::from_fn(3, |s, d| if s == d { 0.0 } else { 1e308 }),
        }
    })
}

/// The server's pinning rule, restated: each sender's critical
/// destinations first, relative order kept within both groups.
fn pin(order: &SendOrder, links: &[(usize, usize)]) -> SendOrder {
    let rows = order.order.iter().enumerate().map(|(s, dsts)| {
        let critical = |d: &&usize| links.contains(&(s, **d));
        let mut row: Vec<usize> = dsts.iter().filter(critical).copied().collect();
        row.extend(dsts.iter().filter(|d| !critical(d)));
        row
    });
    SendOrder::new(rows.collect())
}

/// What a request carries.
#[derive(Clone, Copy, PartialEq)]
enum Payload {
    /// A pool matrix, shipped.
    Matrix(usize),
    /// A pool matrix's fingerprint only.
    Probe(usize),
    /// The overflowing matrix.
    Overflow,
    /// A pool matrix, for a scheduler the server does not know.
    UnknownAlgorithm(usize),
}

struct Sent {
    client: usize,
    algorithm: usize,
    payload: Payload,
    links: Vec<(usize, usize)>,
    priority: u8,
    deadline_ms: Option<f64>,
    /// The estimate it queues under (when it queues).
    est_ms: f64,
    /// Whether dispatch should find its key cached (a replay).
    expect_hit: bool,
    /// The unpinned order the model expects, fixed where the core fixes
    /// it: at the door for a replay found there, at dispatch otherwise.
    want: Option<SendOrder>,
    /// The matching plan the model expects a solve to retain.
    plan: Option<MatchingPlan>,
}

impl Sent {
    /// The pool matrix a served plan describes.
    fn matrix(&self) -> Option<usize> {
        match self.payload {
            Payload::Matrix(m) | Payload::Probe(m) => Some(m),
            _ => None,
        }
    }

    /// Serving order: higher tier, then earlier deadline, then earlier
    /// arrival (tokens are arrival order).
    fn order(&self, mine: u32, other: &Sent, theirs: u32) -> Ordering {
        let deadline = |s: &Sent| s.deadline_ms.unwrap_or(f64::INFINITY);
        (other.priority.cmp(&self.priority))
            .then(deadline(self).total_cmp(&deadline(other)))
            .then(mine.cmp(&theirs))
    }
}

/// What the model predicts `on_request` does with a request.
#[derive(Debug, PartialEq)]
enum Verdict {
    DoorError,
    NeedMatrix,
    InlineHit,
    ShuttingDown,
    Admit,
    Reject {
        retry_after_ms: f64,
    },
    /// The projection is within rounding of the deadline: either.
    Either,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Send(usize),
    Done(usize),
    Close,
}

struct Flight {
    job: Box<Job<u32>>,
    inject: bool,
    dispatched_us: u64,
}

/// What the injected faults did, for the fault table.
#[derive(Default)]
struct Faults {
    panics: u64,
    /// Dispatch to `Error` reply, virtual ms (min, max).
    panic_ms: (f64, f64),
    overflows: u64,
    hangups: u64,
    closes: u64,
    drained: u64,
    /// Close to the last in-flight reply, virtual ms.
    drain_ms: f64,
    rejections: u64,
    retry_after_ms: f64,
    /// Plans served, by cache disposition.
    served: BTreeMap<&'static str, u64>,
}

impl Faults {
    fn merge(&mut self, o: &Faults) {
        if o.panics > 0 {
            self.panic_ms = match self.panics {
                0 => o.panic_ms,
                _ => (
                    self.panic_ms.0.min(o.panic_ms.0),
                    self.panic_ms.1.max(o.panic_ms.1),
                ),
            };
        }
        self.panics += o.panics;
        self.overflows += o.overflows;
        self.hangups += o.hangups;
        self.closes += o.closes;
        self.drained += o.drained;
        self.drain_ms = self.drain_ms.max(o.drain_ms);
        self.rejections += o.rejections;
        self.retry_after_ms = self.retry_after_ms.max(o.retry_after_ms);
        for (disposition, n) in &o.served {
            *self.served.entry(disposition).or_default() += n;
        }
    }
}

struct Sim {
    rng: Rng,
    core: Service<u32>,
    workers: usize,
    capacity: usize,
    default_est_ms: f64,
    now_us: u64,
    events: BinaryHeap<Reverse<(u64, u64, Event)>>,
    /// Requests each client still has to send; `None` once it hung up.
    budget: Vec<Option<usize>>,
    /// The schedule's working set: most requests reuse a few matrices
    /// (and their near copies) with a few schedulers, so the cache is
    /// hit, and consulted for near matches, as often as it is missed.
    hot: Vec<usize>,
    algorithms: Vec<usize>,
    sent: Vec<Sent>,
    replies: Vec<Option<PlanResponse>>,
    transcript: Vec<u8>,
    // The model of the core.
    cached: VecDeque<(usize, u64)>,
    /// What the core retains for each cached key: the unpinned order
    /// and, for a matching scheduler, the plan a near match replans.
    retained: HashMap<(usize, u64), (SendOrder, Option<MatchingPlan>)>,
    /// Per tenant: the fingerprint last served and its change count.
    epochs: BTreeMap<String, (u64, u64)>,
    estimates: BTreeMap<(usize, usize), f64>,
    waiting: Vec<u32>,
    flights: BTreeMap<usize, Flight>,
    closed_at_us: Option<u64>,
    served: Vec<u64>,
    lookups: u64,
    exact_hits: u64,
    inserts: u64,
    evictions: u64,
    faults: Faults,
}

impl Sim {
    fn new(seed: u64) -> Sim {
        let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xfeed);
        let workers = 1 + rng.below(3);
        let capacity = [2, 3, 256][rng.below(3)];
        let default_est_ms = [2.0, 5.0, 10.0][rng.below(3)];
        let config = PlanServerConfig {
            workers,
            cache_capacity: capacity,
            default_est_ms,
            ..PlanServerConfig::default()
        };
        let clients = 2 + rng.below(4);
        let bases = pool().matrices.len() / 2;
        let hot = (0..3).flat_map(|_| {
            let base = 2 * rng.below(bases);
            [base, base + 1]
        });
        let hot = hot.collect();
        let algorithms = (0..2).map(|_| rng.below(ALGORITHMS.len())).collect();
        let mut sim = Sim {
            core: Service::new(config),
            workers,
            capacity,
            default_est_ms,
            now_us: 0,
            events: BinaryHeap::new(),
            budget: (0..clients).map(|_| Some(2 + rng.below(7))).collect(),
            hot,
            algorithms,
            sent: Vec::new(),
            replies: Vec::new(),
            transcript: Vec::new(),
            cached: VecDeque::new(),
            retained: HashMap::new(),
            epochs: BTreeMap::new(),
            estimates: BTreeMap::new(),
            waiting: Vec::new(),
            flights: BTreeMap::new(),
            closed_at_us: None,
            served: Vec::new(),
            lookups: 0,
            exact_hits: 0,
            inserts: 0,
            evictions: 0,
            faults: Faults::default(),
            rng,
        };
        for client in 0..clients {
            let at = sim.later();
            sim.schedule(at, Event::Send(client));
        }
        if sim.rng.chance(0.3) {
            let at = 1_000 * sim.rng.below(40) as u64;
            sim.schedule(at, Event::Close);
        }
        sim
    }

    /// A think time from now: whole half-milliseconds, so that events
    /// tie often and the seeded tie-break decides the interleaving.
    fn later(&mut self) -> u64 {
        self.now_us + 500 * self.rng.below(12) as u64
    }

    fn schedule(&mut self, at_us: u64, event: Event) {
        let tie = self.rng.next();
        self.events.push(Reverse((at_us, tie, event)));
    }

    fn now_ms(&self) -> f64 {
        self.now_us as f64 / 1e3
    }

    fn run(mut self) -> Sim {
        while let Some(Reverse((at_us, _, event))) = self.events.pop() {
            self.now_us = at_us;
            match event {
                Event::Send(client) => self.send(client),
                Event::Done(worker) => self.done(worker),
                Event::Close => self.close(),
            }
            let idle = self.workers - self.flights.len();
            assert!(
                self.waiting.is_empty() || idle == 0,
                "{idle} worker(s) idle beside {} queued request(s)",
                self.waiting.len()
            );
        }
        assert!(self.flights.is_empty() && self.waiting.is_empty());
        for (token, reply) in self.replies.iter().enumerate() {
            assert!(reply.is_some(), "request {token} was never answered");
        }
        let mut served = self.served.clone();
        served.sort_unstable();
        let n = served.len() as u64;
        assert_eq!(
            served,
            (1..=n).collect::<Vec<_>>(),
            "served_seq is not 1..=n"
        );
        let stats = self.core.cache_stats();
        let counted = stats.exact_hits + stats.misses + stats.warm_hits + stats.incremental_hits;
        assert_eq!(
            counted, self.lookups,
            "lookups = hits + misses + warm + incremental"
        );
        assert_eq!(stats.exact_hits, self.exact_hits, "exact hits");
        assert_eq!(
            stats.inserts, self.inserts,
            "inserts = successful solves of new keys"
        );
        assert_eq!(stats.evictions, self.evictions, "FIFO evictions");
        self
    }

    fn draw(&mut self, client: usize) -> Sent {
        let pool = pool();
        let m = match self.rng.chance(0.8) {
            true => self.hot[self.rng.below(self.hot.len())],
            false => self.rng.below(pool.matrices.len()),
        };
        let algorithm = match self.rng.chance(0.8) {
            true => self.algorithms[self.rng.below(self.algorithms.len())],
            false => self.rng.below(ALGORITHMS.len()),
        };
        let payload = match self.rng.below(100) {
            0..=2 => Payload::Overflow,
            3 => Payload::UnknownAlgorithm(m),
            4..=23 => Payload::Probe(m),
            _ => Payload::Matrix(m),
        };
        // An endpoint may be out of range: the server ignores it.
        let p = pool.matrices[m].len();
        let mut links = Vec::new();
        if self.rng.chance(0.15) {
            for _ in 0..1 + self.rng.below(2) {
                links.push((self.rng.below(p + 1), self.rng.below(p)));
            }
        }
        Sent {
            client,
            algorithm,
            payload,
            links,
            priority: self.rng.below(3) as u8,
            deadline_ms: self.rng.chance(0.3).then(|| 0.5 + 30.0 * self.rng.unit()),
            est_ms: 0.0,
            expect_hit: false,
            want: None,
            plan: None,
        }
    }

    fn tenant(sent: &Sent) -> String {
        format!("tenant-{}", sent.client % 2)
    }

    fn request(sent: &Sent) -> PlanRequest {
        let pool = pool();
        let (matrix, fingerprint) = match sent.payload {
            Payload::Matrix(m) | Payload::UnknownAlgorithm(m) => {
                (Some(pool.matrices[m].clone()), None)
            }
            Payload::Probe(m) => (None, Some(pool.fingerprints[m])),
            Payload::Overflow => (Some(pool.overflow.clone()), None),
        };
        let algorithm = match sent.payload {
            Payload::UnknownAlgorithm(_) => "no-such-scheduler",
            _ => ALGORITHMS[sent.algorithm],
        };
        PlanRequest {
            tenant: Sim::tenant(sent),
            algorithm: algorithm.into(),
            matrix,
            fingerprint,
            qos: QosSpec {
                deadline_ms: sent.deadline_ms,
                priority: sent.priority,
                critical_links: sent.links.clone(),
            },
            trace: None,
        }
    }

    fn key(sent: &Sent) -> Option<(usize, u64)> {
        sent.matrix()
            .map(|m| (sent.algorithm, pool().fingerprints[m]))
    }

    /// The model's admission verdict, and the estimate it queues under.
    fn predict(&self, token: u32, sent: &Sent) -> (Verdict, f64) {
        let Some(key) = Sim::key(sent) else {
            return (Verdict::DoorError, 0.0);
        };
        let cached = self.cached.contains(&key);
        let p = pool().matrices[key_matrix(sent)].len();
        let learnt = self.estimates.get(&(sent.algorithm, p)).copied();
        let est_ms = match (sent.payload, sent.links.is_empty(), cached) {
            (Payload::Probe(_), _, false) => return (Verdict::NeedMatrix, 0.0),
            (_, true, true) => return (Verdict::InlineHit, 0.0),
            (_, false, true) => REPLAY_EST_MS,
            (_, _, false) => learnt.unwrap_or(self.default_est_ms),
        };
        if self.closed_at_us.is_some() {
            return (Verdict::ShuttingDown, est_ms);
        }
        let Some(deadline) = sent.deadline_ms else {
            return (Verdict::Admit, est_ms);
        };
        let est = |t: &u32| self.sent[*t as usize].est_ms;
        let in_flight: f64 = self.flights.values().map(|f| est(f.job.reply_to())).sum();
        let queued: f64 = self.waiting.iter().map(est).sum();
        let ahead = |t: &&u32| self.sent[**t as usize].order(**t, sent, token).is_lt();
        let ahead: f64 = self.waiting.iter().filter(ahead).map(est).sum();
        let projected_ms = in_flight + ahead + est_ms;
        let verdict = if (projected_ms - deadline).abs() < 1e-6 {
            Verdict::Either
        } else if projected_ms > deadline {
            let retry_after_ms = in_flight + queued;
            Verdict::Reject { retry_after_ms }
        } else {
            Verdict::Admit
        };
        (verdict, est_ms)
    }

    fn send(&mut self, client: usize) {
        let Some(left) = self.budget[client] else {
            return;
        };
        self.budget[client] = Some(left - 1);
        let token = self.sent.len() as u32;
        let mut sent = self.draw(client);
        let (verdict, est_ms) = self.predict(token, &sent);
        sent.est_ms = est_ms;
        // A replay found at the door serves the order retained now.
        sent.want = Sim::key(&sent)
            .and_then(|key| self.retained.get(&key))
            .map(|(order, _)| order.clone());
        // Lookups the core counts at the door: every probe that passes
        // it, and every exact hit answered inline.
        let probe = matches!(sent.payload, Payload::Probe(_));
        if probe || verdict == Verdict::InlineHit {
            self.lookups += 1;
            self.exact_hits += u64::from(verdict != Verdict::NeedMatrix);
        }
        let request = Sim::request(&sent);
        self.sent.push(sent);
        self.replies.push(None);
        let actions = self.core.on_request(token, request, self.now_ms());
        let answered = actions.iter().any(|a| matches!(a, Action::Reply(..)));
        match (&verdict, answered) {
            (Verdict::Admit | Verdict::Either, false) => {
                self.waiting.push(token);
                if self.rng.chance(0.08) {
                    // The client hangs up while its request is queued.
                    self.budget[client] = None;
                    self.faults.hangups += 1;
                }
            }
            (Verdict::Admit, true) | (_, false) => {
                panic!("request {token}: the model says {verdict:?}, answered at once: {answered}")
            }
            _ => {}
        }
        for action in actions {
            match action {
                Action::Reply(to, response) => {
                    assert_eq!(to, token, "on_request replies only to its caller");
                    self.check_door(token, &verdict, &response);
                    self.reply(token, response);
                }
                Action::Solve(worker, job) => self.dispatch(worker, job),
            }
        }
    }

    /// An answer given at once, against the model's verdict.
    fn check_door(&mut self, token: u32, verdict: &Verdict, response: &PlanResponse) {
        match (verdict, response) {
            (Verdict::DoorError, PlanResponse::Error { detail }) => {
                if self.sent[token as usize].payload == Payload::Overflow {
                    assert!(detail.contains("cell total"), "{detail}");
                    self.faults.overflows += 1;
                }
            }
            (Verdict::NeedMatrix, PlanResponse::NeedMatrix) => {}
            (Verdict::InlineHit, PlanResponse::Ok(ok)) => {
                assert_eq!(ok.cache, CacheDisposition::Hit)
            }
            (Verdict::ShuttingDown, PlanResponse::Error { detail }) => {
                assert!(detail.contains("shutting down"), "{detail}")
            }
            (
                Verdict::Reject { .. } | Verdict::Either,
                PlanResponse::Rejected {
                    retry_after_ms,
                    detail,
                },
            ) => {
                if let Verdict::Reject {
                    retry_after_ms: want,
                } = verdict
                {
                    let off = (retry_after_ms - want).abs();
                    assert!(off < 1e-6, "retry after {retry_after_ms} vs {want}");
                }
                assert!(detail.contains("deadline"), "{detail}");
                self.faults.rejections += 1;
                self.faults.retry_after_ms = self.faults.retry_after_ms.max(*retry_after_ms);
            }
            _ => panic!("request {token}: the model says {verdict:?}, the core {response:?}"),
        }
    }

    /// The EDF head of the queue, by the model.
    fn head(&self) -> Option<u32> {
        let order = |a: &&u32, b: &&u32| {
            let (sa, sb) = (&self.sent[**a as usize], &self.sent[**b as usize]);
            sa.order(**a, sb, **b)
        };
        self.waiting.iter().min_by(order).copied()
    }

    fn dispatch(&mut self, worker: usize, job: Box<Job<u32>>) {
        let token = *job.reply_to();
        assert_eq!(
            Some(token),
            self.head(),
            "dispatch is not EDF within priority tiers"
        );
        self.waiting.retain(|&t| t != token);
        assert!(
            !self.flights.contains_key(&worker),
            "worker {worker} is busy"
        );
        let sent = &self.sent[token as usize];
        // A matrix request's cache lookup happens now; a queued probe
        // replays the entry it found at the door.
        let hit = match sent.payload {
            Payload::Matrix(_) => {
                let key = Sim::key(sent).expect("a pool matrix");
                let hit = self.cached.contains(&key);
                self.lookups += 1;
                self.exact_hits += u64::from(hit);
                let (want, plan) = match hit {
                    true => (self.retained[&key].0.clone(), None),
                    false => self.solve(sent),
                };
                let sent = &mut self.sent[token as usize];
                (sent.want, sent.plan) = (Some(want), plan);
                hit
            }
            _ => true,
        };
        self.sent[token as usize].expect_hit = hit;
        let inject = self.rng.chance(PANIC_RATE);
        let done_at = self.now_us + 500 + 500 * self.rng.below(40) as u64;
        self.schedule(done_at, Event::Done(worker));
        let dispatched_us = self.now_us;
        let flight = Flight {
            job,
            inject,
            dispatched_us,
        };
        self.flights.insert(worker, flight);
    }

    /// What a worker's solve of `sent`'s matrix serves and retains, by
    /// the model: a matching scheduler replans the retained plan of the
    /// closest cached matrix within the near tolerance (newest first,
    /// as the recency ring nominates), else builds cold; the others
    /// serve their cold order.
    fn solve(&self, sent: &Sent) -> (SendOrder, Option<MatchingPlan>) {
        let (pool, index) = (pool(), key_matrix(sent));
        let m = &pool.matrices[index];
        let kind = match ALGORITHMS[sent.algorithm] {
            "matching-max" => MatchingKind::Max,
            "matching-min" => MatchingKind::Min,
            _ => return (pool.references[index][sent.algorithm].clone(), None),
        };
        let tolerance = PlanServerConfig::default().near_tolerance;
        let mut best: Option<(f64, &MatchingPlan)> = None;
        for key in self.cached.iter().rev().filter(|k| k.0 == sent.algorithm) {
            let Some((_, Some(plan))) = self.retained.get(key) else {
                continue;
            };
            let Some(dev) = m.max_rel_deviation(plan.matrix()) else {
                continue;
            };
            if dev <= tolerance && best.is_none_or(|(b, _)| dev < b) {
                best = Some((dev, plan));
            }
        }
        let sched = MatchingScheduler::new(kind);
        let plan = match best {
            Some((_, retained)) => sched.replan_within(retained, m, REPLAN_GAP),
            None => sched.plan_seeded(m, None),
        };
        (SendOrder::from_steps(m.len(), &plan.steps), Some(plan))
    }

    fn done(&mut self, worker: usize) {
        let flight = self.flights.remove(&worker).expect("in flight");
        let (job, inject) = (flight.job, flight.inject);
        let token = *job.reply_to();
        let mut result = contained(|| {
            if inject {
                panic!("{INJECTED}");
            }
            job.compute()
        });
        let service_ms = (self.now_us - flight.dispatched_us) as f64 / 1e3;
        if let Ok(done) = &mut result {
            done.plan.stats.service_ms = service_ms;
        }
        let work_queued = !self.waiting.is_empty();
        let actions = self.core.on_solved(worker, *job, result, self.now_ms());
        let mut replied = false;
        for action in actions {
            match action {
                Action::Reply(to, response) => {
                    assert!(
                        !replied && to == token,
                        "on_solved answers its own job, once"
                    );
                    replied = true;
                    self.check_solved(token, inject, service_ms, &response);
                    self.reply(token, response);
                }
                Action::Solve(next, job) => {
                    assert!(replied, "the reply comes before the next dispatch");
                    self.dispatch(next, job)
                }
            }
        }
        assert!(replied, "on_solved must answer the job it was given");
        if inject {
            // Full strength: the worker that panicked took the next
            // queued job in the same call, or is idle.
            assert_eq!(self.flights.contains_key(&worker), work_queued);
            let (lo, hi) = self.faults.panic_ms;
            self.faults.panic_ms = match self.faults.panics {
                0 => (service_ms, service_ms),
                _ => (lo.min(service_ms), hi.max(service_ms)),
            };
            self.faults.panics += 1;
        }
        if let Some(closed_at_us) = self.closed_at_us {
            let drain_ms = (self.now_us - closed_at_us) as f64 / 1e3;
            self.faults.drain_ms = self.faults.drain_ms.max(drain_ms);
        }
    }

    /// A worker's answer, against the model.
    fn check_solved(&mut self, token: u32, inject: bool, service_ms: f64, response: &PlanResponse) {
        let sent = &self.sent[token as usize];
        if inject {
            match response {
                PlanResponse::Error { detail } => assert!(detail.contains(INJECTED), "{detail}"),
                other => panic!("an injected panic must answer Error, got {other:?}"),
            }
            return;
        }
        let PlanResponse::Ok(ok) = response else {
            panic!("request {token}: expected a plan, got {response:?}");
        };
        let hit = ok.cache == CacheDisposition::Hit;
        assert_eq!(hit, sent.expect_hit, "request {token}: {:?}", ok.cache);
        if hit {
            return;
        }
        if !ALGORITHMS[sent.algorithm].starts_with("matching") {
            assert_eq!(
                ok.cache,
                CacheDisposition::Cold,
                "only matching retains duals"
            );
        }
        let p = pool().matrices[key_matrix(sent)].len();
        let slot = self
            .estimates
            .entry((sent.algorithm, p))
            .or_insert(service_ms);
        *slot = (1.0 - ALPHA) * *slot + ALPHA * service_ms;
        let key = Sim::key(sent).expect("a pool matrix");
        if !self.cached.contains(&key) {
            if self.cached.len() == self.capacity {
                let evicted = self.cached.pop_front().expect("a full cache");
                self.retained.remove(&evicted);
                self.evictions += 1;
            }
            self.cached.push_back(key);
            let sent = &mut self.sent[token as usize];
            let want = sent.want.clone().expect("a solve's order");
            self.retained.insert(key, (want, sent.plan.take()));
            self.inserts += 1;
        }
    }

    fn close(&mut self) {
        self.closed_at_us = Some(self.now_us);
        self.faults.closes += 1;
        let drained = self.core.close();
        self.faults.drained += drained.len() as u64;
        for action in drained {
            let Action::Reply(token, response) = action else {
                panic!("close only answers");
            };
            assert_eq!(
                Some(token),
                self.head(),
                "the backlog is answered in QoS order"
            );
            self.waiting.retain(|&t| t != token);
            match &response {
                PlanResponse::Error { detail } => assert!(detail.contains("shutting down")),
                other => panic!("a drained request must answer Error, got {other:?}"),
            }
            self.reply(token, response);
        }
        assert!(self.waiting.is_empty(), "close answers everything queued");
    }

    /// Records a reply, checks what every plan must satisfy, and lets
    /// the client send its next request.
    fn reply(&mut self, token: u32, response: PlanResponse) {
        assert!(
            self.replies[token as usize].is_none(),
            "request {token} answered twice"
        );
        self.transcript.extend(token.to_le_bytes());
        self.transcript.extend(encode_response(&response));
        if let PlanResponse::Ok(ok) = &response {
            self.check_plan(token, ok);
        }
        self.replies[token as usize] = Some(response);
        let client = self.sent[token as usize].client;
        if self.budget[client].is_some_and(|left| left > 0) {
            let at = self.later();
            self.schedule(at, Event::Send(client));
        }
    }

    /// Order and completion of a served plan, against the model and
    /// `execute_listed`.
    fn check_plan(&mut self, token: u32, ok: &PlanOk) {
        let pool = pool();
        let sent = &self.sent[token as usize];
        let m = key_matrix(sent);
        let model = sent.want.as_ref().expect("the model fixed the order");
        let want = match sent.links.is_empty() {
            true => model.clone(),
            false => pin(model, &sent.links),
        };
        assert_eq!(ok.order, want, "request {token}: {:?} order", ok.cache);
        let completion = execute_listed(&ok.order, &pool.matrices[m]).completion_time();
        assert_eq!(ok.completion_ms.to_bits(), completion.as_ms().to_bits());
        let fingerprint = pool.fingerprints[m];
        let (last, epoch) = self
            .epochs
            .entry(Sim::tenant(sent))
            .or_insert((fingerprint, 0));
        if *last != fingerprint {
            (*last, *epoch) = (fingerprint, *epoch + 1);
        }
        assert_eq!(ok.epoch, *epoch, "request {token}: the tenant's epoch");
        self.served.push(ok.served_seq);
        *self.faults.served.entry(ok.cache.as_str()).or_default() += 1;
    }
}

/// The pool matrix a request with a cache key is about.
fn key_matrix(sent: &Sent) -> usize {
    sent.matrix().expect("a pool matrix")
}

/// Injected panics are expected: keep them off stderr.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload().downcast_ref::<String>();
            if payload.is_none_or(|s| s != INJECTED) {
                default(info);
            }
        }));
    });
}

#[test]
fn a_thousand_seeded_schedules_meet_the_oracle() {
    quiet_injected_panics();
    let mut faults = Faults::default();
    let (mut requests, mut lookups) = (0, 0);
    for seed in 0..SCHEDULES {
        let sim = Sim::new(seed).run();
        requests += sim.sent.len();
        lookups += sim.lookups;
        faults.merge(&sim.faults);
    }
    let f = &faults;
    assert!(f.panics > 0 && f.overflows > 0 && f.hangups > 0 && f.drained > 0);
    assert!(f.rejections > 0);
    for disposition in ["cold", "hit", "warm", "incremental"] {
        assert!(
            f.served.contains_key(disposition),
            "no {disposition} plan served"
        );
    }
    println!("{SCHEDULES} schedules, {requests} requests, {lookups} cache lookups");
    println!("plans served by disposition: {:?}", f.served);
    println!("scenario | injected | seen | detection (virtual ms) | recovery | requirement");
    let rows = [
        format!(
            "solve panic | the solve panics mid-job ({:.0} % of dispatches) | {} | {:.1}–{:.1} (dispatch → Error reply) | 0 ms: the worker is idle again in the same on_solved and takes the next queued job there | Error reply; pool at full strength",
            PANIC_RATE * 100.0, f.panics, f.panic_ms.0, f.panic_ms.1
        ),
        format!(
            "overflowing matrix | 3×3, off-diagonal cells 1e308 | {} | 0.0 (at the door) | none needed: no worker touched | typed Error naming the cell total",
            f.overflows
        ),
        format!(
            "hang-up while queued | the client leaves with its request queued | {} | — (the core holds no connection) | none needed | exactly one reply, which the shell drops",
            f.hangups
        ),
        format!(
            "shutdown under load | close() with requests queued and in flight | {} closes, {} queued | 0.0 (queued ones answered by close) | in-flight ones answered within {:.1} ms | every request answered once",
            f.closes, f.drained, f.drain_ms
        ),
        format!(
            "deadline overload | deadlines of 0.5–30.5 ms against the backlog | {} | 0.0 (at admission) | retry after ≤ {:.1} ms | rejected iff the projection exceeds the deadline",
            f.rejections, f.retry_after_ms
        ),
    ];
    for row in rows {
        println!("{row}");
    }
}

#[test]
fn the_same_seed_gives_the_same_transcript() {
    quiet_injected_panics();
    for seed in 0..SCHEDULES {
        let (a, b) = (Sim::new(seed).run(), Sim::new(seed).run());
        assert!(!a.transcript.is_empty());
        assert!(
            a.transcript == b.transcript,
            "seed {seed}: transcripts differ"
        );
    }
}
