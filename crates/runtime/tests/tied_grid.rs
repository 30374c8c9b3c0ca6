//! The fabric's commit engine and the port-model kernel's canonical
//! policy order modeled-time ties the same way: on ISSUE 18's quantized
//! networks, where every instant is a tie, `price_frozen` (the fabric's
//! commit engine on the calling thread) equals `run_static` record for
//! record. The one executor that still differs there is `run_adaptive`,
//! whose insertion-order ties are pinned by goldens
//! (`tests/pricing_equiv.rs`).

use adaptcomm_core::algorithms::all_schedulers;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
use adaptcomm_runtime::channel::price_frozen;
use adaptcomm_sim::run_static;

#[test]
fn the_fabric_prices_the_tied_grid_exactly_as_the_kernel_executes_it() {
    let mut pairs = 0;
    for p in 3..=12usize {
        for kind in 0..4 {
            // Start-up 10 ms + 10 ms·k at 500 kbit/s, uniform 100 kB.
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
