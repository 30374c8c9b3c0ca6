//! The four workloads (README "Workloads") and what they share: seeded
//! instance draws and the CLI's drift shape.

pub mod live_adapt;
pub mod match_replan;
pub mod plansrv_mix;
pub mod sweep_sim;

use crate::rng::SplitMix;
use crate::trace::Tracer;
use adaptcomm::model::units::Millis;
use adaptcomm::prelude::{NetParams, Scenario, SendOrder};
use adaptcomm::scheduling::schedule::Schedule;
use adaptcomm::sim::{Fault, ScriptedFaults};
use adaptcomm::workloads::scenario::ScenarioInstance;

/// Bandwidth factor of a drifted link — `adaptcomm run --adapt`'s default.
pub const DRIFT_FACTOR: f64 = 0.25;
/// Modeled instant of the drift — the CLI's `--drift-at` default.
pub const DRIFT_AT_MS: f64 = 10.0;

/// How many links the CLI's drift degrades at `P` processors.
pub fn drifted_links(p: usize) -> usize {
    p.div_ceil(3)
}

/// `network` under the drift `adaptcomm run --adapt` scripts: the first
/// ⌈P/3⌉ ring links lose three quarters of their bandwidth at 10 ms.
pub fn cli_drift(network: &NetParams) -> ScriptedFaults {
    let p = network.len();
    let script = (0..drifted_links(p))
        .map(|k| Fault {
            at: Millis::new(DRIFT_AT_MS),
            src: k,
            dst: (k + 1) % p,
            factor: DRIFT_FACTOR,
        })
        .collect();
    ScriptedFaults::new(network.clone(), script)
}

/// Draws one scenario instance; the span feeds `workloads.instance_ms`.
pub fn draw_instance(
    tracer: &mut Tracer,
    scenario: Scenario,
    p: usize,
    rng: &mut SplitMix,
) -> ScenarioInstance {
    let seed = rng.next_u64();
    tracer.time("workloads.instance", || scenario.instance(p, seed))
}

/// The per-sender orders a schedule's events imply (events are kept in
/// start order, which is how `OpenShop::send_order` derives its own).
pub fn order_of(schedule: &Schedule) -> SendOrder {
    let p = schedule.processors();
    let mut order = vec![Vec::with_capacity(p.saturating_sub(1)); p];
    for e in schedule.events() {
        order[e.src].push(e.dst);
    }
    SendOrder::new(order)
}
