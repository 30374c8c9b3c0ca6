//! Property test: for random communication matrices and every built-in
//! scheduler, the shaped-channel runtime realizes the discrete-event
//! simulator's timeline record for record — both are policies over one
//! port-model kernel, so the bound is equality.

use adaptcomm_core::algorithms::all_schedulers;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_runtime::channel::{run_shaped, CheckpointAction, FrozenNetwork, ShapedConfig};
use adaptcomm_runtime::transport::{expected_receipts, ChannelTransport, Transport};
use adaptcomm_sim::run_static;
use proptest::prelude::*;

/// Random instance: network and message sizes for `2 <= P <= 12`.
#[derive(Debug, Clone)]
struct Instance {
    net: NetParams,
    sizes: Vec<Vec<Bytes>>,
}

fn instance(max_p: usize) -> impl Strategy<Value = Instance> {
    (2..=max_p).prop_flat_map(|p| {
        let net_entries = proptest::collection::vec((1.0f64..50.0, 100.0f64..5_000.0), p * p);
        let size_entries = proptest::collection::vec(1u64..200, p * p);
        (net_entries, size_entries).prop_map(move |(nets, szs)| {
            let net = NetParams::from_fn(p, |s, d| {
                let (t, b) = nets[s * p + d];
                LinkEstimate::new(Millis::new(t), Bandwidth::from_kbps(b))
            });
            let sizes: Vec<Vec<Bytes>> = (0..p)
                .map(|s| {
                    (0..p)
                        .map(|d| {
                            if s == d {
                                Bytes::ZERO
                            } else {
                                Bytes::from_kb(szs[s * p + d])
                            }
                        })
                        .collect()
                })
                .collect();
            Instance { net, sizes }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every scheduler's order, executed over real threads and shaped
    /// channels, realizes exactly the simulator's records, and every
    /// payload physically arrives.
    #[test]
    fn shaped_runtime_tracks_the_simulator_for_every_scheduler(inst in instance(12)) {
        let p = inst.net.len();
        let matrix = CommMatrix::from_model(&inst.net, &inst.sizes);
        // Cap physical copies: the property is about timing, not memory.
        let config = ShapedConfig {
            payload_cap: Some(256),
            ..Default::default()
        };
        for scheduler in all_schedulers() {
            let order = scheduler.send_order(&matrix);
            let sim = run_static(&order, &inst.net, &inst.sizes);
            let transport = ChannelTransport::new(p);
            let mut evo = FrozenNetwork(inst.net.clone());
            let out = run_shaped(
                &order.order,
                &inst.sizes,
                &mut evo,
                &transport,
                config,
                |_| CheckpointAction::Continue,
            )
            .expect("a frozen network cannot fault");

            prop_assert_eq!(&out.records, &sim.records, "{}", scheduler.name());
            prop_assert_eq!(out.makespan, sim.makespan);
            prop_assert_eq!(
                transport.receipts(),
                expected_receipts(&inst.sizes, config.payload_cap),
                "{}: physical delivery mismatch",
                scheduler.name()
            );
        }
    }
}
