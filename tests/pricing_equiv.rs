//! Pricing is arithmetic (ISSUE 17): every price the system computes is
//! one link's `T_ij + m/B_ij`, read per link from a
//! [`NetworkEvolution`]; the whole table is derived from that read in one
//! place, and plan timelines are priced by the runtime's kernel policy
//! with no workers. These tests pin the three equivalences that make
//! that a refactor and not a behaviour change:
//!
//! * per-link read == derived table == the materialisation loops the
//!   owned-table `state_at` implementations used to run (kept here, and
//!   only here, as the reference);
//! * `run_adaptive`'s records on a fixed grid hash to captured digests,
//!   and its tie order is `run_static`'s (an identity, nothing captured);
//! * inline frozen pricing == the threaded `run_shaped` pass it replaced,
//!   record for record.

use adaptcomm::chaos::evolution::{ChaosEvolution, DEAD_SCALE};
use adaptcomm::model::cost::LinkEstimate;
use adaptcomm::model::evolution::NetworkEvolution;
use adaptcomm::model::variation::{VariationConfig, VariationTrace};
use adaptcomm::prelude::*;
use adaptcomm::runtime::channel::{price_frozen, run_shaped, CheckpointAction};
use adaptcomm::runtime::transport::ChannelTransport;
use adaptcomm::scheduling::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm::scheduling::fingerprint::Fnv1a;
use adaptcomm::sim::dynamic::{
    run_adaptive, run_adaptive_checked, AdaptiveConfig, DynamicOutcome, Replanner, SimError,
};
use adaptcomm::sim::{Fault, ScheduleError, ScriptedFaults};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_net(p: usize, rng: &mut StdRng) -> NetParams {
    NetParams::from_fn(p, |_, _| {
        LinkEstimate::new(
            Millis::new(rng.random_range(0.5..=40.0)),
            Bandwidth::from_kbps(rng.random_range(50.0..=5_000.0)),
        )
    })
}

fn random_sizes(p: usize, rng: &mut StdRng) -> Vec<Vec<Bytes>> {
    (0..p)
        .map(|s| {
            (0..p)
                .map(|d| {
                    if s == d {
                        Bytes::ZERO
                    } else {
                        Bytes::new(rng.random_range(1..=200_000u64))
                    }
                })
                .collect()
        })
        .collect()
}

/// Non-decreasing instants with repeats, starting at zero.
fn instants(rng: &mut StdRng, n: usize, max_gap: f64) -> Vec<Millis> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            if rng.random_range(0..4u32) != 0 {
                t += rng.random_range(0.0..=max_gap);
            }
            Millis::new(t)
        })
        .collect()
}

// ---------------------------------------------------------------------
// (a) per-link read == derived table == the old materialisation loops
// ---------------------------------------------------------------------

/// The loop the stateful implementors used to run on every query: clone
/// the base, scale every off-diagonal bandwidth whose multiplier says so.
fn materialise(base: &NetParams, multipliers: &[f64], skip_unit: bool) -> NetParams {
    let p = base.len();
    let mut out = base.clone();
    for src in 0..p {
        for dst in 0..p {
            if src != dst {
                let m = multipliers[src * p + dst];
                if !(skip_unit && m == 1.0) {
                    out.scale_bandwidth(src, dst, m);
                }
            }
        }
    }
    out
}

/// The pre-change `ScriptedFaults::state_at`.
struct ScriptedReference {
    base: NetParams,
    script: Vec<Fault>,
    multipliers: Vec<f64>,
    cursor: usize,
}

impl ScriptedReference {
    fn new(base: NetParams, mut script: Vec<Fault>) -> Self {
        script.sort_by(|a, b| a.at.as_ms().total_cmp(&b.at.as_ms()));
        let n = base.len() * base.len();
        ScriptedReference {
            base,
            script,
            multipliers: vec![1.0; n],
            cursor: 0,
        }
    }

    fn state_at(&mut self, t: Millis) -> NetParams {
        let p = self.base.len();
        while self.cursor < self.script.len()
            && self.script[self.cursor].at.as_ms() <= t.as_ms() + 1e-12
        {
            let f = self.script[self.cursor];
            self.multipliers[f.src * p + f.dst] = f.factor;
            self.cursor += 1;
        }
        materialise(&self.base, &self.multipliers, true)
    }
}

/// The pre-change `VariationTrace::snapshot_at`, walk included.
struct WalkReference {
    base: NetParams,
    config: VariationConfig,
    rng: StdRng,
    multipliers: Vec<f64>,
    current_step: u64,
}

impl WalkReference {
    fn new(base: NetParams, config: VariationConfig, seed: u64) -> Self {
        let n = base.len() * base.len();
        WalkReference {
            base,
            config,
            rng: StdRng::seed_from_u64(seed),
            multipliers: vec![1.0; n],
            current_step: 0,
        }
    }

    fn snapshot_at(&mut self, t: Millis) -> NetParams {
        let p = self.base.len();
        let step = (t.as_ms() / self.config.step.as_ms()).floor().max(0.0) as u64;
        while self.current_step < step {
            for src in 0..p {
                for dst in 0..p {
                    if src == dst {
                        continue;
                    }
                    let idx = src * p + dst;
                    let delta = self
                        .rng
                        .random_range(-self.config.volatility..=self.config.volatility);
                    self.multipliers[idx] = (self.multipliers[idx] * (1.0 + delta))
                        .clamp(self.config.floor, self.config.ceil);
                }
            }
            self.current_step += 1;
        }
        materialise(&self.base, &self.multipliers, false)
    }
}

/// The pre-change `ChaosEvolution::state_at`.
fn chaos_reference(base: &NetParams, plan: &ChaosPlan, t: Millis) -> NetParams {
    NetParams::from_fn(base.len(), |src, dst| {
        let e = base.estimate(src, dst);
        if plan.link_blocked(src, dst, t) {
            LinkEstimate::new(e.startup, e.bandwidth.scaled(DEAD_SCALE))
        } else if let Some(f) = plan.lying_factor(src, dst, t) {
            LinkEstimate::new(e.startup, e.bandwidth.scaled(1.0 / f))
        } else {
            e
        }
    })
}

/// At every instant: a few scattered per-link reads (diagonal included),
/// then the derived table, then every link again — all equal to
/// `reference(t)`, which is called exactly once per instant.
fn assert_reads_agree<E: NetworkEvolution>(
    label: &str,
    evo: &mut E,
    times: &[Millis],
    rng: &mut StdRng,
    mut reference: impl FnMut(Millis) -> NetParams,
) {
    let p = evo.processors();
    for &t in times {
        let want = reference(t);
        for _ in 0..4 {
            let (s, d) = (rng.random_range(0..p), rng.random_range(0..p));
            assert_eq!(
                evo.link_at(t, s, d),
                want.estimate(s, d),
                "{label} P={p}: link {s}->{d} at {t}"
            );
        }
        assert_eq!(evo.table_at(t), want, "{label} P={p}: table at {t}");
        for s in 0..p {
            for d in 0..p {
                assert_eq!(evo.link_at(t, s, d), want.estimate(s, d));
            }
        }
    }
    assert_eq!(evo.planning_estimates().len(), p);
}

#[test]
fn per_link_reads_the_derived_table_and_the_old_loops_agree_for_every_implementor() {
    let mut rng = StdRng::seed_from_u64(0x17);
    for p in 2..=12usize {
        for round in 0..3u64 {
            let base = random_net(p, &mut rng);
            let times = instants(&mut rng, 14, 400.0);

            // ScriptedFaults: faults land inside the queried span, some
            // on the same link, some restoring it.
            let script: Vec<Fault> = (0..2 * p)
                .map(|_| {
                    let src = rng.random_range(0..p);
                    let dst = (src + rng.random_range(1..p)) % p;
                    Fault {
                        at: Millis::new(rng.random_range(0.0..=3_000.0)),
                        src,
                        dst,
                        factor: [0.01, 0.25, 1.0, 3.0][rng.random_range(0..4usize)],
                    }
                })
                .collect();
            let mut scripted = ScriptedFaults::new(base.clone(), script.clone());
            let mut reference = ScriptedReference::new(base.clone(), script);
            assert_reads_agree("scripted", &mut scripted, &times, &mut rng, |t| {
                reference.state_at(t)
            });
            assert_eq!(scripted.planning_estimates(), &base);

            // VariationTrace: several steps per query gap.
            let config = VariationConfig {
                step: Millis::new(150.0),
                volatility: 0.3,
                floor: 0.1,
                ceil: 2.0,
            };
            let mut walk = VariationTrace::new(base.clone(), config, round);
            let mut reference = WalkReference::new(base.clone(), config, round);
            assert_reads_agree("walk", &mut walk, &times, &mut rng, |t| {
                reference.snapshot_at(t)
            });

            // ChaosEvolution: a crash window, a partition window, a liar.
            let spec = format!(
                "crash:{}@300..1500;partition:0@200..900;liar:{}-{}@100x4",
                rng.random_range(0..p),
                p - 1,
                p - 2
            );
            let plan = ChaosPlan::parse(p, &spec).expect("valid chaos spec");
            let mut chaos = ChaosEvolution::new(base.clone(), plan.clone());
            assert_reads_agree("chaos", &mut chaos, &times, &mut rng, |t| {
                chaos_reference(&base, &plan, t)
            });

            // FrozenNetwork: the table, whenever asked.
            let mut frozen = FrozenNetwork(base.clone());
            assert_reads_agree("frozen", &mut frozen, &times, &mut rng, |_| base.clone());
        }
    }
}

/// The rewinding half of the `NetworkEvolution` contract: accumulating
/// implementors keep the latest state reached, pure functions of time
/// answer for the instant asked.
#[test]
fn a_rewinding_query_reads_the_latest_state_or_the_instant_asked() {
    let mut rng = StdRng::seed_from_u64(3);
    let base = random_net(4, &mut rng);
    let (early, late) = (Millis::new(10.0), Millis::new(5_000.0));

    let fault = Fault {
        at: Millis::new(100.0),
        src: 0,
        dst: 1,
        factor: 0.5,
    };
    let mut scripted = ScriptedFaults::new(base.clone(), vec![fault]);
    let reached = scripted.table_at(late);
    assert_ne!(reached, base);
    assert_eq!(scripted.table_at(early), reached);
    assert_eq!(scripted.link_at(early, 0, 1), reached.estimate(0, 1));

    let mut walk = VariationTrace::new(base.clone(), VariationConfig::default(), 9);
    let reached = walk.table_at(late);
    assert_ne!(reached, base);
    assert_eq!(walk.table_at(early), reached);
    // Inside the step already reached, nothing moves.
    assert_eq!(walk.table_at(Millis::new(5_999.0)), reached);

    let plan = ChaosPlan::parse(4, "crash:2@1000..9000").expect("valid chaos spec");
    let mut chaos = ChaosEvolution::new(base.clone(), plan);
    assert_ne!(chaos.table_at(late), base);
    assert_eq!(chaos.table_at(early), base);
}

// ---------------------------------------------------------------------
// (b) golden digests of run_adaptive, and the identity behind them
// ---------------------------------------------------------------------

/// The drift `adaptcomm run --adapt` scripts: the first ⌈P/3⌉ ring links
/// drop to a quarter of their bandwidth at 10 ms.
fn cli_drift(network: &NetParams) -> ScriptedFaults {
    let p = network.len();
    let script = (0..p.div_ceil(3))
        .map(|k| Fault {
            at: Millis::new(10.0),
            src: k,
            dst: (k + 1) % p,
            factor: 0.25,
        })
        .collect();
    ScriptedFaults::new(network.clone(), script)
}

/// A random walk whose bandwidths only degrade.
fn degrading(network: &NetParams, seed: u64) -> VariationTrace {
    let config = VariationConfig {
        step: Millis::new(1_000.0),
        volatility: 0.3,
        floor: 0.1,
        ceil: 1.0,
    };
    VariationTrace::new(network.clone(), config, seed)
}

fn fold(h: &mut Fnv1a, out: &DynamicOutcome) {
    for r in &out.records {
        h.write_u64(r.src as u64);
        h.write_u64(r.dst as u64);
        h.write_u64(r.bytes.as_u64());
        h.write_u64(r.start.as_ms().to_bits());
        h.write_u64(r.finish.as_ms().to_bits());
    }
    h.write_u64(out.checkpoints_evaluated as u64);
    h.write_u64(out.reschedules as u64);
}

/// One digest per `(scenario, P)` over {Never, Halving, EveryEvent} ×
/// {OpenShop, Matching(Max)} × {CLI drift, degrading walk}: every record
/// bit for bit, plus the checkpoint and reschedule counts. Also returns
/// the reschedules summed over the twelve runs, so a mismatch says
/// whether decisions or only instants moved.
fn cell_digest(scenario: Scenario, p: usize) -> (u64, usize) {
    let inst = scenario.instance(p, 17 + p as u64);
    let sizes = inst.sizes.to_rows();
    let order = OpenShop.send_order(&inst.matrix);
    let mut h = Fnv1a::new();
    let mut reschedules = 0;
    for policy in [
        CheckpointPolicy::Never,
        CheckpointPolicy::Halving,
        CheckpointPolicy::EveryEvent,
    ] {
        for replanner in [Replanner::OpenShop, Replanner::Matching(MatchingKind::Max)] {
            let config = AdaptiveConfig {
                policy,
                rule: RescheduleRule {
                    deviation_threshold: 0.05,
                },
                replanner,
            };
            let scripted = run_adaptive(&order, &sizes, &mut cli_drift(&inst.network), &config);
            fold(&mut h, &scripted);
            let walked = run_adaptive(&order, &sizes, &mut degrading(&inst.network, 5), &config);
            fold(&mut h, &walked);
            reschedules += scripted.reschedules + walked.reschedules;
        }
    }
    (h.finish(), reschedules)
}

/// Captured by running `cell_digest` under the kernel's canonical tie
/// rule. A regression net over twelve adaptive runs per cell, not a
/// definition: what the tie order *is* needs no capture — see the
/// identity below.
const GOLDEN: [(Scenario, usize, u64, usize); 8] = [
    (Scenario::Small, 10, 0xdb70ea0a5383067d, 103),
    (Scenario::Small, 30, 0xbc33d75d92d45617, 1437),
    (Scenario::Large, 10, 0x3d52cbb8644b0441, 276),
    (Scenario::Large, 30, 0x0d29e5945f3c529d, 3033),
    (Scenario::Mixed, 10, 0x86240a0879334412, 190),
    (Scenario::Mixed, 30, 0x1ece0586fba36af1, 2243),
    (Scenario::Servers, 10, 0xf5655f3bfe31259a, 82),
    (Scenario::Servers, 30, 0x8e38280fcf2088be, 436),
];

#[test]
fn adaptive_runs_hash_to_the_digests_captured_before_the_change() {
    for (scenario, p, digest, reschedules) in GOLDEN {
        let (got, replans) = cell_digest(scenario, p);
        assert_eq!(
            (got, replans),
            (digest, reschedules),
            "{} P={p}: records digest {got:#018x} (want {digest:#018x})",
            scenario.name()
        );
    }
}

/// The identity behind the digests: `run_adaptive` has no tie order of
/// its own. Oblivious, on a frozen trace, it equals `run_static` record
/// for record on the tied grid of `crates/runtime/tests/tied_grid.rs` —
/// quantized networks where every instant is a tie.
#[test]
fn oblivious_run_adaptive_on_a_frozen_trace_is_run_static_on_the_tied_grid() {
    let mut pairs = 0;
    for p in 3..=12usize {
        for kind in 0..4 {
            let net = NetParams::from_fn(p, |s, d| {
                let k = [0, (s + d) % 2, (3 * s + d) % 3, (s ^ d) % 2][kind];
                LinkEstimate::new(
                    Millis::new(10.0 + 10.0 * k as f64),
                    Bandwidth::from_kbps(500.0),
                )
            });
            let mut sizes = vec![vec![Bytes::from_kb(100); p]; p];
            (0..p).for_each(|i| sizes[i][i] = Bytes::ZERO);
            let matrix = CommMatrix::from_model(&net, &sizes);
            for scheduler in all_schedulers() {
                let order = scheduler.send_order(&matrix);
                let adaptive = run_adaptive(
                    &order,
                    &sizes,
                    &mut FrozenNetwork(net.clone()),
                    &AdaptiveConfig::oblivious(),
                );
                assert_eq!(
                    adaptive.records,
                    adaptcomm::sim::run_static(&order, &net, &sizes).records,
                    "{} P={p} net {kind}",
                    scheduler.name()
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 200);
}

// ---------------------------------------------------------------------
// (c) inline frozen pricing == the threaded frozen pass
// ---------------------------------------------------------------------

fn threaded_frozen(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    net: &NetParams,
    start_at: Millis,
) -> Vec<adaptcomm::sim::TransferRecord> {
    let sink = ChannelTransport::new(net.len());
    let config = ShapedConfig {
        payload_cap: Some(0),
        start_at,
        ..Default::default()
    };
    run_shaped(
        lists,
        sizes,
        &mut FrozenNetwork(net.clone()),
        &sink,
        config,
        |_| CheckpointAction::Continue,
    )
    .expect("a frozen network cannot fault")
    .records
}

#[test]
fn inline_frozen_pricing_equals_the_threaded_pass_record_for_record() {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    for p in [2usize, 3, 5, 8, 11] {
        for uniform in [false, true] {
            // A uniform network with equal sizes is all modeled-time
            // ties: the kernel orders them, not the worker threads.
            let (net, sizes) = if uniform {
                let net = NetParams::uniform(p, Millis::new(5.0), Bandwidth::from_kbps(800.0));
                let mut sizes = vec![vec![Bytes::from_kb(10); p]; p];
                (0..p).for_each(|i| sizes[i][i] = Bytes::ZERO);
                (net, sizes)
            } else {
                (random_net(p, &mut rng), random_sizes(p, &mut rng))
            };
            let matrix = CommMatrix::from_model(&net, &sizes);
            for scheduler in all_schedulers() {
                let full = scheduler.send_order(&matrix).order;
                // A retry's remainder: every sender has started, some
                // have finished.
                let partial: Vec<Vec<usize>> = full
                    .iter()
                    .map(|l| l[rng.random_range(0..=l.len())..].to_vec())
                    .collect();
                for (lists, start_at) in [
                    (&full, Millis::ZERO),
                    (&partial, Millis::ZERO),
                    (&full, Millis::new(1_234.5)),
                    (&partial, Millis::new(rng.random_range(1.0..=9_000.0))),
                ] {
                    let inline = price_frozen(lists, &sizes, &net, start_at)
                        .expect("a frozen network cannot fault");
                    let threaded = threaded_frozen(lists, &sizes, &net, start_at);
                    assert_eq!(
                        inline,
                        threaded,
                        "{} P={p} uniform={uniform} start {start_at}",
                        scheduler.name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// (d) a poisoned link is a typed error on every path, never a panic
// ---------------------------------------------------------------------

/// Link 0 → 1 reports a NaN start-up cost (struct literal:
/// `LinkEstimate::new` asserts, but corrupt data can arrive through
/// field access).
fn poisoned(e: LinkEstimate) -> LinkEstimate {
    LinkEstimate {
        startup: Millis::new(f64::NAN),
        bandwidth: e.bandwidth,
    }
}

struct PoisonedLink(NetParams);

impl NetworkEvolution for PoisonedLink {
    fn processors(&self) -> usize {
        self.0.len()
    }
    fn planning_estimates(&self) -> &NetParams {
        &self.0
    }
    fn link_at(&mut self, _t: Millis, src: usize, dst: usize) -> LinkEstimate {
        let e = self.0.estimate(src, dst);
        if (src, dst) == (0, 1) {
            poisoned(e)
        } else {
            e
        }
    }
}

#[test]
fn a_nan_poisoned_link_is_a_typed_error_in_the_simulator_and_the_fabric() {
    let mut rng = StdRng::seed_from_u64(11);
    let p = 4;
    let net = random_net(p, &mut rng);
    let sizes = random_sizes(p, &mut rng);
    let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));

    for config in [
        AdaptiveConfig::oblivious(),
        AdaptiveConfig {
            policy: CheckpointPolicy::EveryEvent,
            rule: RescheduleRule::default(),
            replanner: Replanner::OpenShop,
        },
    ] {
        let err = run_adaptive_checked(&order, &sizes, &mut PoisonedLink(net.clone()), &config)
            .expect_err("NaN pricing must be rejected");
        let SimError::DegenerateEvent { src, dst, cause } = err;
        assert_eq!((src, dst), (0, 1));
        assert!(matches!(cause, ScheduleError::NonFiniteTime { .. }));
    }

    let failure = run_shaped(
        &order.order,
        &sizes,
        &mut PoisonedLink(net.clone()),
        &ChannelTransport::new(p),
        ShapedConfig::default(),
        |_| CheckpointAction::Continue,
    )
    .expect_err("a poisoned estimate must abort the run");
    assert!(
        matches!(
            failure.error,
            RuntimeError::CorruptEstimate { src: 0, dst: 1, .. }
        ),
        "got {:?}",
        failure.error
    );

    // The same poison in a frozen table fails the inline pricing pass
    // the same way.
    let mut table = net.clone();
    table.set_estimate(0, 1, poisoned(net.estimate(0, 1)));
    let err = price_frozen(&order.order, &sizes, &table, Millis::ZERO)
        .expect_err("a poisoned table cannot be priced");
    assert!(matches!(
        err,
        RuntimeError::CorruptEstimate { src: 0, dst: 1, .. }
    ));
    // And `execute` reports an unpriceable plan as a zero makespan
    // before the live pass surfaces the typed error.
    let err = execute(
        &order.order,
        &sizes,
        &mut FrozenNetwork(table),
        BackendKind::Channel,
        ShapedConfig::default(),
    )
    .expect_err("the live pass must fail too");
    assert!(matches!(err, RuntimeError::CorruptEstimate { .. }));
}
