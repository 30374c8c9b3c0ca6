//! Live-runtime overhead: the shaped-channel engine (the port-model kernel
//! plus real worker threads) vs. the discrete-event simulator on the same
//! workload, plus the full closed loop with the prober and directory
//! attached.

use adaptcomm_core::algorithms::{OpenShop, Scheduler};
use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm_directory::DirectoryService;
use adaptcomm_runtime::channel::{run_shaped, CheckpointAction, FrozenNetwork, ShapedConfig};
use adaptcomm_runtime::transport::ChannelTransport;
use adaptcomm_runtime::{execute_adaptive, AdaptSettings, BackendKind, ReplanTrigger};
use adaptcomm_sim::run_static;
use adaptcomm_workloads::Scenario;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime");
    group.sample_size(10);
    let p = 12;
    let inst = Scenario::Mixed.instance(p, 5);
    let order = OpenShop.send_order(&inst.matrix);
    let sizes = inst.sizes.to_rows();
    // Timing overhead is the question, not memcpy throughput.
    let config = ShapedConfig {
        payload_cap: Some(64),
        ..Default::default()
    };

    group.bench_function("sim_static_p12", |b| {
        b.iter(|| black_box(run_static(&order, &inst.network, &sizes).makespan))
    });

    group.bench_function("shaped_channel_p12", |b| {
        b.iter(|| {
            let transport = ChannelTransport::new(p);
            let mut evo = FrozenNetwork(inst.network.clone());
            black_box(
                run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
                    CheckpointAction::Continue
                })
                .expect("frozen network")
                .makespan,
            )
        })
    });

    group.bench_function("closed_loop_p12", |b| {
        b.iter(|| {
            let directory = DirectoryService::new(inst.network.clone());
            let mut evo = FrozenNetwork(inst.network.clone());
            black_box(
                execute_adaptive(
                    &order.order,
                    &sizes,
                    &mut evo,
                    &directory,
                    BackendKind::Channel,
                    AdaptSettings {
                        policy: CheckpointPolicy::Halving,
                        trigger: ReplanTrigger::Deviation(RescheduleRule::default()),
                        payload_cap: Some(64),
                        ..Default::default()
                    },
                )
                .expect("clean run")
                .makespan,
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
