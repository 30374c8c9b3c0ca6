//! The physical network a chaos scenario realizes.

use crate::plan::ChaosPlan;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::Millis;
use adaptcomm_sim::NetworkEvolution;

/// Bandwidth multiplier applied to a blocked link: effectively dead
/// (any positive drop threshold catches it) while keeping the
/// cost-model invariant that bandwidth is strictly positive.
pub const DEAD_SCALE: f64 = 1e-9;

/// A [`NetworkEvolution`] realizing a [`ChaosPlan`] over a fixed base
/// network: blocked links collapse to [`DEAD_SCALE`] of their base
/// bandwidth for the fault window, and lying links realize only
/// `1/factor` of theirs from the onset — while their reporting agent
/// (the plan's [`MeasurementTamper`](adaptcomm_runtime::prober::MeasurementTamper)
/// impl) keeps claiming full speed. Planning estimates are the pre-fault
/// base: the scheduler is never tipped off.
#[derive(Debug, Clone)]
pub struct ChaosEvolution {
    base: NetParams,
    plan: ChaosPlan,
}

impl ChaosEvolution {
    /// A chaotic view of `base` under `plan`.
    pub fn new(base: NetParams, plan: ChaosPlan) -> Self {
        assert_eq!(
            base.len(),
            plan.p,
            "plan and network disagree on processor count"
        );
        ChaosEvolution { base, plan }
    }

    /// The injected scenario.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }
}

impl NetworkEvolution for ChaosEvolution {
    fn processors(&self) -> usize {
        self.base.len()
    }

    fn planning_estimates(&self) -> &NetParams {
        &self.base
    }

    /// A pure function of `t` (the plan's fault windows are scanned per
    /// read), so any query order is answered for the instant asked.
    fn link_at(&mut self, t: Millis, src: usize, dst: usize) -> LinkEstimate {
        let e = self.base.estimate(src, dst);
        if self.plan.link_blocked(src, dst, t) {
            LinkEstimate::new(e.startup, e.bandwidth.scaled(DEAD_SCALE))
        } else if let Some(f) = self.plan.lying_factor(src, dst, t) {
            LinkEstimate::new(e.startup, e.bandwidth.scaled(1.0 / f))
        } else {
            e
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_model::units::Bandwidth;

    fn base(p: usize) -> NetParams {
        NetParams::uniform(p, Millis::new(2.0), Bandwidth::from_kbps(1_000.0))
    }

    #[test]
    fn faults_shape_the_realized_network_for_their_window_only() {
        let plan = ChaosPlan::parse(4, "crash:1@100..200;liar:0-2@50x4").unwrap();
        let mut evo = ChaosEvolution::new(base(4), plan);
        let before = evo.table_at(Millis::new(10.0));
        assert_eq!(before.estimate(1, 3).bandwidth.as_kbps(), 1_000.0);
        assert_eq!(before.estimate(0, 2).bandwidth.as_kbps(), 1_000.0);
        let during = evo.table_at(Millis::new(150.0));
        assert!(during.estimate(1, 3).bandwidth.as_kbps() < 1e-5);
        assert!(during.estimate(3, 1).bandwidth.as_kbps() < 1e-5);
        assert_eq!(
            during.estimate(0, 2).bandwidth.as_kbps(),
            250.0,
            "a 4x liar realizes a quarter of its base bandwidth"
        );
        let after = evo.table_at(Millis::new(250.0));
        assert_eq!(after.estimate(1, 3).bandwidth.as_kbps(), 1_000.0);
        // Planning never sees the faults.
        assert_eq!(
            evo.planning_estimates().estimate(1, 3).bandwidth.as_kbps(),
            1_000.0
        );
    }
}
