//! The runtime is a policy over the port-model kernel, so it has no tie
//! order — and no event order — of its own. On ISSUE 18's quantized
//! networks, where every instant is a tie:
//!
//! * `price_frozen` (the policy with no workers) equals `run_static`
//!   record for record;
//! * threaded `run_shaped` under a *replanning* hook equals a minimal
//!   kernel policy given the same hook, run on one thread (`Inline`, below:
//!   a price and a completion hook, nothing of the runtime's) — on the
//!   tied grid and on a tie-free drifting network;
//! * where the hook is the §6.3 deviation rule, both equal
//!   `run_adaptive`, replans included.

use adaptcomm_core::algorithms::{all_schedulers, OpenShop, Scheduler};
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_core::execution::execute_listed;
use adaptcomm_core::kernel::{self, Policy, Ports};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_runtime::channel::{
    price_frozen, run_shaped, CheckpointAction, CheckpointView, ShapedConfig,
};
use adaptcomm_runtime::transport::{expected_receipts, ChannelTransport, Transport};
use adaptcomm_sim::dynamic::{openshop_replan, run_adaptive, AdaptiveConfig, Replanner};
use adaptcomm_sim::executor::{SimRun, TransferRecord};
use adaptcomm_sim::{run_static, Fault, NetworkEvolution, ScriptedFaults};
use adaptcomm_workloads::Scenario;

/// Start-up 10 ms + 10 ms·k at 500 kbit/s, uniform 100 kB.
fn tied_instance(p: usize, kind: usize) -> (NetParams, Vec<Vec<Bytes>>) {
    let net = NetParams::from_fn(p, |s, d| {
        let k = [0, (s + d) % 2, (3 * s + d) % 3, (s ^ d) % 2][kind];
        LinkEstimate::new(
            Millis::new(10.0 + 10.0 * k as f64),
            Bandwidth::from_kbps(500.0),
        )
    });
    let mut sizes = vec![vec![Bytes::from_kb(100); p]; p];
    (0..p).for_each(|i| sizes[i][i] = Bytes::ZERO);
    (net, sizes)
}

#[test]
fn the_fabric_prices_the_tied_grid_exactly_as_the_kernel_executes_it() {
    let mut pairs = 0;
    for p in 3..=12usize {
        for kind in 0..4 {
            let (net, sizes) = tied_instance(p, kind);
            let matrix = CommMatrix::from_model(&net, &sizes);
            for scheduler in all_schedulers() {
                let order = scheduler.send_order(&matrix);
                let fabric = price_frozen(&order.order, &sizes, &net, Millis::ZERO)
                    .expect("a frozen network cannot fault");
                assert_eq!(
                    fabric,
                    run_static(&order, &net, &sizes).records,
                    "{} P={p} net {kind}",
                    scheduler.name()
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 200);
}

/// The least a kernel policy can be and still take a checkpoint hook: one
/// `link_at` read for the price, the hook on completion.
struct Inline<'a, E, H> {
    evolution: &'a mut E,
    sizes: &'a [Vec<Bytes>],
    checkpoints: Vec<usize>,
    total: usize,
    hook: H,
    records: Vec<TransferRecord>,
    reschedules: usize,
}

impl<E, H> Policy for Inline<'_, E, H>
where
    E: NetworkEvolution,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    fn price(&mut self, now: f64, senders: &[usize], dst: usize) -> f64 {
        let src = senders[0];
        let live = self.evolution.link_at(Millis::new(now), src, dst);
        live.message_time(self.sizes[src][dst]).as_ms()
    }

    fn on_completion(&mut self, ports: &mut Ports, now: f64, src: usize, dst: usize) {
        let mut started = ports.started().iter().rev();
        let start = started
            .find(|e| (e.src, e.dst) == (src, dst))
            .expect("a completion follows its start")
            .start;
        self.records.push(TransferRecord {
            src,
            dst,
            bytes: self.sizes[src][dst],
            start,
            finish: Millis::new(now),
        });
        if self.checkpoints.binary_search(&ports.completed()).is_err() {
            return;
        }
        let view = CheckpointView {
            completed: ports.completed(),
            total: self.total,
            now: Millis::new(now),
            ports,
            records: &self.records,
        };
        if let CheckpointAction::Replan(queues) = (self.hook)(&view) {
            self.reschedules += 1;
            ports.replan(queues);
        }
    }
}

/// `(records in completion order, reschedules)` of the inline policy.
fn run_inline<E, H>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &mut E,
    policy: CheckpointPolicy,
    hook: H,
) -> (Vec<TransferRecord>, usize)
where
    E: NetworkEvolution,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    let total = lists.iter().map(Vec::len).sum();
    let mut inline = Inline {
        evolution,
        sizes,
        checkpoints: policy.checkpoints(total),
        total,
        hook,
        records: Vec::new(),
        reschedules: 0,
    };
    kernel::run(lists, &mut inline).expect("finite prices");
    (
        SimRun::from_records(inline.records).records,
        inline.reschedules,
    )
}

/// The same, over real threads and bytes.
fn run_threaded<E, H>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &mut E,
    policy: CheckpointPolicy,
    hook: H,
) -> (Vec<TransferRecord>, usize)
where
    E: NetworkEvolution,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    let transport = ChannelTransport::new(sizes.len());
    let config = ShapedConfig {
        policy,
        payload_cap: Some(16),
        ..Default::default()
    };
    let out = run_shaped(lists, sizes, evolution, &transport, config, hook)
        .expect("drift without dead links must complete");
    assert_eq!(
        transport.receipts(),
        expected_receipts(sizes, config.payload_cap)
    );
    (out.records, out.reschedules)
}

type Hook<'a> = Box<dyn FnMut(&CheckpointView<'_>) -> CheckpointAction + 'a>;

/// The replanning hooks under test, each with the checkpoints it runs at.
/// `twin` is a second copy of the run's evolution, for the hook that
/// reads the live table (the run's own copy is borrowed by the engine).
fn hooks<'a>(
    sizes: &'a [Vec<Bytes>],
    twin: &'a dyn Fn() -> ScriptedFaults,
) -> Vec<(&'static str, CheckpointPolicy, Hook<'a>)> {
    let mut live = twin();
    let p = sizes.len();
    vec![
        (
            "reverse every event",
            CheckpointPolicy::EveryEvent,
            Box::new(move |view: &CheckpointView<'_>| {
                let reversed = (0..p).map(|s| view.remaining(s).iter().rev().copied().collect());
                CheckpointAction::Replan(reversed.collect())
            }),
        ),
        (
            "rotate every third",
            CheckpointPolicy::EveryK(3),
            Box::new(move |view: &CheckpointView<'_>| {
                let mut queues: Vec<Vec<usize>> =
                    (0..p).map(|s| view.remaining(s).to_vec()).collect();
                for q in &mut queues {
                    let k = 1.min(q.len());
                    q.rotate_left(k);
                }
                CheckpointAction::Replan(queues)
            }),
        ),
        (
            "open-shop replan",
            CheckpointPolicy::EveryEvent,
            Box::new(move |view: &CheckpointView<'_>| {
                CheckpointAction::Replan(openshop_replan(
                    |s| view.remaining(s),
                    view.ports.send_busy_until(),
                    view.ports.recv_busy_until(),
                    view.now.as_ms(),
                    &live.table_at(view.now),
                    sizes,
                ))
            }),
        ),
    ]
}

/// Threaded ≡ inline for every hook on one `(order, network)` pair.
fn assert_threaded_equals_inline(
    label: &str,
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &dyn Fn() -> ScriptedFaults,
) {
    let threaded = hooks(sizes, evolution);
    let inline = hooks(sizes, evolution);
    for ((name, policy, on_threads), (_, _, on_caller)) in threaded.into_iter().zip(inline) {
        let a = run_threaded(lists, sizes, &mut evolution(), policy, on_threads);
        let b = run_inline(lists, sizes, &mut evolution(), policy, on_caller);
        assert!(a.1 > 0, "{label}, {name}: the hook never replanned");
        assert_eq!(a, b, "{label}, {name}");
    }
}

/// The first ⌈P/3⌉ ring links drop to `factor` of their bandwidth at `at`.
fn ring_drift(net: &NetParams, at: f64, factor: f64) -> ScriptedFaults {
    let p = net.len();
    let script = (0..p.div_ceil(3))
        .map(|k| Fault {
            at: Millis::new(at),
            src: k,
            dst: (k + 1) % p,
            factor,
        })
        .collect();
    ScriptedFaults::new(net.clone(), script)
}

#[test]
fn under_replanning_hooks_the_threaded_run_equals_the_inline_policy_on_the_tied_grid() {
    let mut pairs = 0;
    for p in 3..=10usize {
        for kind in 0..4 {
            let (net, sizes) = tied_instance(p, kind);
            let matrix = CommMatrix::from_model(&net, &sizes);
            for scheduler in all_schedulers() {
                let lists = scheduler.send_order(&matrix).order;
                // Frozen, and drifting on the quantum: halved bandwidth
                // at 200 ms keeps every instant a tie.
                for (drift, factor) in [("frozen", 1.0), ("drifting", 0.5)] {
                    assert_threaded_equals_inline(
                        &format!("{} P={p} net {kind} {drift}", scheduler.name()),
                        &lists,
                        &sizes,
                        &|| ring_drift(&net, 200.0, factor),
                    );
                    pairs += 1;
                }
            }
        }
    }
    assert_eq!(pairs, 320);
}

/// No two links alike: modeled-time ties cannot occur past the first
/// instant, except the one every completion carries — its own sender's
/// release.
fn hetero_net(p: usize) -> NetParams {
    NetParams::from_fn(p, |src, dst| {
        LinkEstimate::new(
            Millis::new(1.0 + (src * p + dst) as f64 * 0.37),
            Bandwidth::from_kbps(400.0 + (src * 31 + dst * 17) as f64 * 13.0),
        )
    })
}

#[test]
fn under_replanning_hooks_the_threaded_run_equals_the_inline_policy_without_ties() {
    let mut pairs = 0;
    for p in 4..=11usize {
        let net = hetero_net(p);
        let sizes: Vec<Vec<Bytes>> = (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| match (s == d, (s + d) % 3) {
                        (true, _) => Bytes::ZERO,
                        (_, 0) => Bytes::from_kb(120),
                        _ => Bytes::from_kb(3),
                    })
                    .collect()
            })
            .collect();
        let matrix = CommMatrix::from_model(&net, &sizes);
        for scheduler in all_schedulers() {
            let lists = scheduler.send_order(&matrix).order;
            assert_threaded_equals_inline(
                &format!("{} P={p} hetero", scheduler.name()),
                &lists,
                &sizes,
                &|| ring_drift(&net, 10.0, 0.25),
            );
            pairs += 1;
        }
    }
    assert_eq!(pairs, 40);
}

/// The §6.3 rule as a checkpoint hook, exactly as `run_adaptive` applies
/// it: segment-relative deviation against the planned completion
/// instants, an open-shop replan from the live table when it fires.
fn deviation_hook<'a>(
    planned: &'a [f64],
    rule: RescheduleRule,
    sizes: &'a [Vec<Bytes>],
    mut live: ScriptedFaults,
) -> impl FnMut(&CheckpointView<'_>) -> CheckpointAction + 'a {
    let (mut base_obs, mut base_plan) = (0.0, 0.0);
    move |view| {
        let (now, plan_at) = (view.now.as_ms(), planned[view.completed - 1]);
        if !rule.should_reschedule(plan_at - base_plan, now - base_obs) {
            return CheckpointAction::Continue;
        }
        (base_obs, base_plan) = (now, plan_at);
        CheckpointAction::Replan(openshop_replan(
            |s| view.remaining(s),
            view.ports.send_busy_until(),
            view.ports.recv_busy_until(),
            now,
            &live.table_at(view.now),
            sizes,
        ))
    }
}

/// The `live-adapt` shape (Mixed, P ∈ {6, 8, 10}, the CLI's drift,
/// every-event checkpoints, 5 % deviation rule, open-shop replanner) with
/// an oracle table instead of the prober's fits: the runtime's engine and
/// the simulator's §6.3 loop are the same code path for the same hook.
#[test]
fn with_the_deviation_rule_as_its_hook_the_runtime_equals_run_adaptive() {
    let rule = RescheduleRule {
        deviation_threshold: 0.05,
    };
    let policy = CheckpointPolicy::EveryEvent;
    let mut replans = 0;
    for p in [6usize, 8, 10] {
        for seed in 0..20u64 {
            let inst = Scenario::Mixed.instance(p, seed);
            let sizes = inst.sizes.to_rows();
            let order = OpenShop.send_order(&inst.matrix);
            let drift = || ring_drift(&inst.network, 10.0, 0.25);
            let mut planned: Vec<f64> = execute_listed(&order, &inst.matrix)
                .events()
                .iter()
                .map(|e| e.finish.as_ms())
                .collect();
            planned.sort_by(f64::total_cmp);

            let config = AdaptiveConfig {
                policy,
                rule,
                replanner: Replanner::OpenShop,
            };
            let sim = run_adaptive(&order, &sizes, &mut drift(), &config);
            let hook = || deviation_hook(&planned, rule, &sizes, drift());
            let threaded = run_threaded(&order.order, &sizes, &mut drift(), policy, hook());
            let inline = run_inline(&order.order, &sizes, &mut drift(), policy, hook());
            assert_eq!(threaded, inline, "P={p} seed {seed}");
            assert_eq!(
                threaded,
                (sim.records, sim.reschedules),
                "P={p} seed {seed}: live vs run_adaptive"
            );
            replans += sim.reschedules;
        }
    }
    assert!(
        replans > 60,
        "the drift must provoke replans, got {replans}"
    );
}
