//! `plansrv-mix` — the plan-client round trip.
//!
//! A fresh `PlanServer` (one worker, one LAP thread) and one
//! `PlanClient` per cycle, so every cycle starts with an empty cache.
//! Twelve base instances at `P = 64`, `matching-max`; per instance one
//! cold `plan`, three exact-repeat `plan`s (hit, matrix shipped), three
//! `probe`s (hit, fingerprint only), two near-match `plan`s (a few cells
//! raised within half the near tolerance → incremental replan) and one
//! cold `plan` of a fresh matrix, interleaved. `plansrv` does most of
//! the work (frame, JSON, fingerprint, cache, admission, reply) and
//! `lap`/`core` little; cache reads sit beside cache writes, so a gain
//! for one that costs the other shows.

use super::draw_instance;
use crate::report::Layers;
use crate::rng::SplitMix;
use crate::stats::median;
use crate::trace::{Tracer, NO_OP};
use crate::workload::{check_permutation, digest_matrix, Verdict, Workload};
use adaptcomm::model::units::Millis;
use adaptcomm::obs::trace::TraceContext;
use adaptcomm::plansrv::cache::CacheLookup;
use adaptcomm::plansrv::proto::{
    self, CacheDisposition, FrameReader, PlanOk, PlanRequest, PlanResponse, PlanStats, QosSpec,
    Request,
};
use adaptcomm::plansrv::{CacheStats, PlanCache, PlanClient, PlanServer, PlanServerConfig};
use adaptcomm::prelude::{CommMatrix, MatchingKind, MatchingScheduler, Scenario, SendOrder};
use adaptcomm::scheduling::analyze::quality_of;
use adaptcomm::scheduling::execution::execute_listed;
use adaptcomm::scheduling::fingerprint::Fnv1a;

const P: usize = 64;
const BASES: usize = 12;
const TENANT: &str = "bench";
const ALGORITHM: &str = "matching-max";
/// Passes of the in-process stage replay on traced runs.
const REPLAY_PASSES: usize = 3;

const PROBE: usize = 0;
const HIT: usize = 1;
const NEAR: usize = 2;
const COLD: usize = 3;
/// Span name of a round trip, by class.
const RTT: [&str; 4] = [
    "plansrv.rtt.probe",
    "plansrv.rtt.hit",
    "plansrv.rtt.near",
    "plansrv.rtt.cold",
];
/// The stages a hit passes through, as replayed in process; what a hit's
/// round trip costs beyond their sum is `plansrv.unattributed_ms`.
const HIT_STAGES: [&str; 8] = [
    "plansrv.encode_request",
    "plansrv.parse_request",
    "core.fingerprint",
    "plansrv.cache_lookup",
    "core.execute_listed",
    "core.quality",
    "plansrv.encode_response",
    "plansrv.parse_response",
];

struct Op {
    class: usize,
    /// Index into `matrices`.
    matrix: usize,
}

/// See the module docs.
pub struct PlansrvMix {
    ops: Vec<Op>,
    matrices: Vec<CommMatrix>,
    /// The in-process matching order of every matrix served cold.
    expected: Vec<Option<SendOrder>>,
    server: Option<PlanServer>,
    client: Option<PlanClient>,
    fingerprint: u64,
    /// Server-reported service time per class, every verified op.
    service_ms: [Vec<f64>; 4],
    /// Cache counters summed over every finished cycle (exact).
    cache: CacheStats,
    /// Framed length of a matrix-carrying request (exact).
    request_bytes: usize,
}

/// A near match: a third of the rows get one cell raised by at most half
/// the server's near tolerance, never up to the matrix maximum (that
/// would shift every complement cell and force a full rebuild).
fn near_match(base: &CommMatrix, rng: &mut SplitMix, tolerance: f64) -> CommMatrix {
    let hi = base.max_cost().as_ms();
    let mut m = base.clone();
    let mut raised = 0;
    while raised < P.div_ceil(3) {
        let (s, d) = (rng.below(P), rng.below(P));
        let factor = 1.0 + 0.5 * tolerance * (0.2 + 0.8 * rng.unit());
        let cell = base.row(s)[d] * factor;
        if s != d && cell < hi {
            m.set_cost(s, d, Millis::new(cell));
            raised += 1;
        }
    }
    m
}

impl PlansrvMix {
    /// Test hook for `--self-test`: corrupts the expected order of the
    /// first cold op, which verification must then catch.
    pub fn corrupt_expected_order(&mut self) {
        if let Some(order) = self.expected.iter_mut().flatten().next() {
            order.order[0].swap(0, 1);
        }
    }

    fn stage_replay(&self, tracer: &mut Tracer) -> Result<(), String> {
        let scheduler = MatchingScheduler::new(MatchingKind::Max);
        let tolerance = PlanServerConfig::default().near_tolerance;
        let mut cache = PlanCache::new(PlanServerConfig::default().cache_capacity, tolerance);
        for (i, op) in self.ops.iter().enumerate() {
            tracer.begin_replay(i as u32);
            let m = &self.matrices[op.matrix];
            let fp = tracer.time("core.fingerprint", || m.fingerprint());
            let request = Request::Plan(PlanRequest {
                tenant: TENANT.into(),
                algorithm: ALGORITHM.into(),
                matrix: (op.class != PROBE).then(|| m.clone()),
                fingerprint: Some(fp),
                qos: QosSpec::default(),
                trace: Some(TraceContext::root(TENANT, i as u64)),
            });
            let payload = tracer.time("plansrv.encode_request", || proto::encode_request(&request));
            let framed = proto::frame(&payload);
            let parsed = tracer.time("plansrv.parse_request", || {
                let mut reader = FrameReader::new();
                reader.push(&framed);
                match reader.next_frame() {
                    Ok(Some(frame)) => proto::parse_request(&frame).map_err(|e| e.to_string()),
                    Ok(None) => Err("a whole frame did not parse as one".to_string()),
                    Err(e) => Err(e.to_string()),
                }
            });
            if parsed? != request {
                return Err("request does not survive its own wire format".into());
            }
            let (order, disposition, scans) = if op.class == PROBE {
                let hit = tracer.time("plansrv.cache_probe", || cache.probe(ALGORITHM, fp));
                let (order, _) = hit.ok_or("stage replay: probe missed")?;
                (order, CacheDisposition::Hit, 0)
            } else {
                match tracer.time("plansrv.cache_lookup", || cache.lookup(ALGORITHM, m)) {
                    CacheLookup::Hit(order) => (order, CacheDisposition::Hit, 0),
                    lookup => {
                        let (plan, disposition) = match lookup {
                            CacheLookup::Incremental { plan, .. } => (
                                tracer.time("core.matching.replan", || {
                                    scheduler.replan_incremental(&plan, m)
                                }),
                                CacheDisposition::Incremental,
                            ),
                            CacheLookup::Warm { seed, .. } => (
                                tracer.time("core.matching.warm", || {
                                    scheduler.plan_seeded(m, Some(&seed))
                                }),
                                CacheDisposition::Warm,
                            ),
                            _ => (
                                tracer
                                    .time("core.matching.cold", || scheduler.plan_seeded(m, None)),
                                CacheDisposition::Cold,
                            ),
                        };
                        let order = SendOrder::from_steps(P, &plan.steps);
                        let scans = plan.total_col_scans;
                        let (retained, seed) = (order.clone(), plan.seed_potentials.clone());
                        tracer.time("plansrv.cache_insert", || {
                            cache.insert(ALGORITHM, m, retained, seed, Some(Box::new(plan)))
                        });
                        (order, disposition, scans)
                    }
                }
            };
            let schedule = tracer.time("core.execute_listed", || execute_listed(&order, m));
            let quality = tracer.time("core.quality", || quality_of(&schedule));
            let response = PlanResponse::Ok(Box::new(PlanOk {
                order,
                completion_ms: schedule.completion_time().as_ms(),
                cache: disposition,
                epoch: 1,
                served_seq: i as u64,
                stats: PlanStats {
                    round1_warm: false,
                    round1_col_scans: 0,
                    total_col_scans: scans,
                    service_ms: 1.0,
                },
                trace_id: None,
                quality: Some(proto::PlanQuality {
                    lb_gap_pct: quality.gap_pct(),
                    critical_path: quality.critical_path,
                }),
            }));
            let bytes = tracer.time("plansrv.encode_response", || {
                proto::encode_response(&response)
            });
            let back = tracer.time("plansrv.parse_response", || proto::parse_response(&bytes));
            if back.map_err(|e| e.to_string())? != response {
                return Err("response does not survive its own wire format".into());
            }
        }
        Ok(())
    }
}

impl Workload for PlansrvMix {
    type Out = PlanResponse;
    const NAME: &'static str = "plansrv-mix";
    const CLASSES: &'static [&'static str] = &["probe", "hit", "near", "cold"];

    fn build(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let mut rng = SplitMix::new(seed, 0x706d);
        let tolerance = PlanServerConfig::default().near_tolerance;
        let scheduler = MatchingScheduler::new(MatchingKind::Max);
        let mut ops = Vec::with_capacity(BASES * 10);
        let mut matrices: Vec<CommMatrix> = Vec::new();
        let mut expected = Vec::new();
        let mut add = |m: CommMatrix, cold: bool| {
            expected.push(
                cold.then(|| SendOrder::from_steps(P, &scheduler.plan_seeded(&m, None).steps)),
            );
            matrices.push(m);
            matrices.len() - 1
        };
        for _ in 0..BASES {
            // One scenario on purpose: `Servers` matrices cost the LAP
            // 2.5× what `Mixed` ones do, which would split near/cold
            // into two plateaus with `op_ms.p90` on the step between.
            let scenario = Scenario::Mixed;
            let base_matrix = draw_instance(tracer, scenario, P, &mut rng).matrix;
            let near_a = near_match(&base_matrix, &mut rng, tolerance);
            let near_b = near_match(&base_matrix, &mut rng, tolerance);
            let fresh_matrix = draw_instance(tracer, scenario, P, &mut rng).matrix;
            let base = add(base_matrix, true);
            let (near_a, near_b) = (add(near_a, false), add(near_b, false));
            let fresh = add(fresh_matrix, true);
            // Reads (hit, probe) interleave with the writes (cold and
            // near inserts) that move the cache under them.
            for (class, matrix) in [
                (COLD, base),
                (HIT, base),
                (PROBE, base),
                (NEAR, near_a),
                (HIT, base),
                (PROBE, base),
                (NEAR, near_b),
                (HIT, base),
                (PROBE, base),
                (COLD, fresh),
            ] {
                ops.push(Op { class, matrix });
            }
        }
        let mut digest = Fnv1a::new();
        for m in &matrices {
            digest_matrix(&mut digest, m);
        }
        let request_bytes = proto::frame(&proto::encode_request(&Request::Plan(PlanRequest {
            tenant: TENANT.into(),
            algorithm: ALGORITHM.into(),
            fingerprint: Some(matrices[0].fingerprint()),
            matrix: Some(matrices[0].clone()),
            qos: QosSpec::default(),
            trace: Some(TraceContext::root(TENANT, 0)),
        })))
        .len();
        Ok(PlansrvMix {
            ops,
            matrices,
            expected,
            server: None,
            client: None,
            fingerprint: digest.finish(),
            service_ms: Default::default(),
            cache: CacheStats::default(),
            request_bytes,
        })
    }

    fn n(&self) -> usize {
        self.ops.len()
    }

    fn class_of(&self, op: usize) -> usize {
        self.ops[op].class
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn begin_cycle(&mut self) -> Result<(), String> {
        let config = PlanServerConfig {
            workers: 1,
            threads: 1,
            ..Default::default()
        };
        let server = PlanServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let client =
            PlanClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        self.server = Some(server);
        self.client = Some(client);
        Ok(())
    }

    fn exec(&mut self, op: usize, tracer: &mut Tracer) -> Result<PlanResponse, String> {
        let Op { class, matrix } = self.ops[op];
        let m = &self.matrices[matrix];
        let client = self.client.as_mut().ok_or("no open connection")?;
        let response = tracer.time(RTT[class], || {
            if class == PROBE {
                client.probe(TENANT, ALGORITHM, m.fingerprint(), QosSpec::default())
            } else {
                client.plan(TENANT, ALGORITHM, m, QosSpec::default())
            }
        });
        response.map_err(|e| format!("round trip failed: {e}"))
    }

    fn verify(&mut self, op: usize, out: PlanResponse) -> Verdict {
        let Op { class, matrix } = self.ops[op];
        let m = &self.matrices[matrix];
        let mut v = Verdict::default();
        let PlanResponse::Ok(ok) = out else {
            v.fail(format!("expected a plan, got {out:?}"));
            return v;
        };
        let scripted = match class {
            PROBE | HIT => ok.cache == CacheDisposition::Hit,
            NEAR => matches!(
                ok.cache,
                CacheDisposition::Incremental | CacheDisposition::Warm
            ),
            _ => ok.cache == CacheDisposition::Cold,
        };
        if !scripted {
            v.fail(format!(
                "served {:?}, the script says {}",
                ok.cache,
                Self::CLASSES[class]
            ));
        }
        if let Err(why) = check_permutation(&ok.order, P) {
            v.fail(why);
            return v;
        }
        if class == COLD && self.expected[matrix].as_ref() != Some(&ok.order) {
            v.fail("cold order differs from the in-process MatchingScheduler's");
        }
        let schedule = execute_listed(&ok.order, m);
        if let Err(e) = schedule.validate() {
            v.fail(format!("served order does not execute: {e}"));
        }
        let done = schedule.completion_time().as_ms();
        if (done - ok.completion_ms).abs() > 1e-9 * done.abs() {
            v.fail(format!(
                "served completion {} vs re-executed {done}",
                ok.completion_ms
            ));
        }
        v.add_plan(ok.completion_ms, m.lower_bound().as_ms());
        self.service_ms[class].push(ok.stats.service_ms);
        v
    }

    fn end_cycle(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            let stats = server.service().cache_stats();
            self.cache.inserts += stats.inserts;
            self.cache.exact_hits += stats.exact_hits;
            self.cache.warm_hits += stats.warm_hits;
            self.cache.incremental_hits += stats.incremental_hits;
            self.cache.misses += stats.misses;
            server.shutdown();
        }
    }

    fn replay(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        for _ in 0..REPLAY_PASSES {
            self.stage_replay(tracer)?;
        }
        tracer.begin_replay(NO_OP);
        Ok(())
    }

    fn layers(&self, tracer: &Tracer, out: &mut Layers) {
        let med = |name: &str| median(&tracer.durations_ms(name));
        let rtt: Vec<f64> = RTT.iter().map(|name| med(name)).collect();
        out.set("plansrv.rtt_ms.probe", rtt[PROBE]);
        out.set("plansrv.rtt_ms.hit", rtt[HIT]);
        out.set("plansrv.rtt_ms.near", rtt[NEAR]);
        out.set("plansrv.rtt_ms.cold", rtt[COLD]);
        let service_hit = median(&self.service_ms[HIT]);
        out.set("plansrv.service_ms.hit", service_hit);
        out.set("plansrv.service_ms.cold", median(&self.service_ms[COLD]));
        out.set("plansrv.wire_ms.hit", rtt[HIT] - service_hit);
        // Median duration of a replayed stage over the ops of the classes
        // `keep` selects.
        let stage = |name: &str, keep: fn(usize) -> bool| {
            let d: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|s| s.name == name && s.op != NO_OP && keep(self.ops[s.op as usize].class))
                .map(|s| s.ms())
                .collect();
            median(&d)
        };
        // Over the ops that carry a matrix: the probe's matrix-free
        // request would halve the codec numbers.
        for (metric, span) in [
            ("plansrv.encode_request_us", "plansrv.encode_request"),
            ("plansrv.parse_request_us", "plansrv.parse_request"),
            ("plansrv.encode_response_us", "plansrv.encode_response"),
            ("plansrv.parse_response_us", "plansrv.parse_response"),
            ("plansrv.cache_lookup_us", "plansrv.cache_lookup"),
            ("core.fingerprint_us", "core.fingerprint"),
            ("core.quality_us", "core.quality"),
            ("core.execute_listed_us", "core.execute_listed"),
        ] {
            out.set(metric, stage(span, |class| class != PROBE) * 1e3);
        }
        out.set("plansrv.cache_insert_us", med("plansrv.cache_insert") * 1e3);
        out.set("plansrv.request_bytes", self.request_bytes as f64);
        let c = &self.cache;
        let solves = c.incremental_hits + c.warm_hits + c.misses;
        let lookups = c.exact_hits + solves;
        out.set(
            "plansrv.hit_ratio",
            c.exact_hits as f64 / lookups.max(1) as f64,
        );
        out.set(
            "plansrv.incremental_ratio",
            c.incremental_hits as f64 / solves.max(1) as f64,
        );
        let staged: f64 = HIT_STAGES
            .iter()
            .map(|name| stage(name, |class| class == HIT))
            .sum();
        out.set("plansrv.unattributed_ms", rtt[HIT] - staged);
        out.set("core.matching.cold_ms", med("core.matching.cold"));
        out.set("core.matching.replan_ms", med("core.matching.replan"));
        out.set("workloads.instance_ms", med("workloads.instance"));
    }
}
