//! §6.3 in action: executing a schedule while the network degrades, with
//! and without checkpoint-based rescheduling, plus the §6.2 incremental
//! scheduler across repeated invocations.
//!
//! ```sh
//! cargo run --example adaptive_rescheduling
//! ```

use adaptcomm::model::evolution::NetworkEvolution;
use adaptcomm::model::variation::{VariationConfig, VariationTrace};
use adaptcomm::prelude::*;
use adaptcomm::scheduling::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm::scheduling::incremental::IncrementalScheduler;
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

    println!("\n== §6.2 incremental scheduling across repeated invocations ==");
    // A sensor pipeline runs the same exchange every cycle; the directory
    // reports slightly different numbers each time. The incremental
    // scheduler only recomputes when drift is large.
    let mut inc = IncrementalScheduler::new(OpenShop, inst.matrix.clone());
    let mut trace = VariationTrace::new(inst.network.clone(), VariationConfig::default(), 5);
    println!("{:>6} {:>14} {:>12}", "cycle", "completion", "action");
    for cycle in 1..=8 {
        let snapshot = trace.table_at(Millis::new(cycle as f64 * 5_000.0));
        let matrix = CommMatrix::from_model(&snapshot, &sizes);
        let (schedule, action) = inc.update(matrix);
        println!(
            "{cycle:>6} {:>14} {:>12}",
            format!("{}", schedule.completion_time()),
            format!("{action:?}")
        );
    }
    let (kept, repaired, recomputed) = inc.stats();
    println!(
        "\nover 8 cycles: {kept} kept, {repaired} repaired, {recomputed} full recomputes \
         (the O(P³) scheduler ran only {recomputed}×)"
    );
}
