//! §6.3 in action: executing a schedule while the network degrades, with
//! and without checkpoint-based rescheduling.
//!
//! ```sh
//! cargo run --example adaptive_rescheduling
//! ```

use adaptcomm::model::variation::{VariationConfig, VariationTrace};
use adaptcomm::prelude::*;
use adaptcomm::scheduling::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm::sim::dynamic::{run_adaptive, AdaptiveConfig, Replanner};

const P: usize = 12;

fn main() {
    let inst = Scenario::Large.instance(P, 7);
    let order = OpenShop.send_order(&inst.matrix);
    let sizes = inst.sizes.to_rows();

    // The ground-truth network drifts every 2 s; bandwidths only degrade
    // (competing traffic arriving), down to 5% of the directory estimate.
    let drift = VariationConfig {
        step: Millis::new(2_000.0),
        volatility: 0.30,
        floor: 0.05,
        ceil: 1.0,
    };

    println!("== §6.3 checkpoint policies under a degrading network ==");
    println!(
        "{:>14} {:>14} {:>12} {:>12}",
        "policy", "makespan", "checkpoints", "reschedules"
    );
    for (name, policy) in [
        ("never", CheckpointPolicy::Never),
        ("halving", CheckpointPolicy::Halving),
        ("every-event", CheckpointPolicy::EveryEvent),
    ] {
        // Same drift seed for every policy: an apples-to-apples race.
        let mut trace = VariationTrace::new(inst.network.clone(), drift, 99);
        let outcome = run_adaptive(
            &order,
            &sizes,
            &mut trace,
            &AdaptiveConfig {
                policy,
                rule: RescheduleRule {
                    deviation_threshold: 0.10,
                },
                replanner: Replanner::default(),
            },
        );
        println!(
            "{:>14} {:>14} {:>12} {:>12}",
            name,
            format!("{}", outcome.makespan),
            outcome.checkpoints_evaluated,
            outcome.reschedules
        );
    }
}
