//! Deterministic fault injection.
//!
//! A [`ScriptedFaults`] evolution applies a scripted sequence of link
//! degradations and recoveries on top of base estimates: at its scripted
//! time, a fault multiplies the directed pair's bandwidth by `factor`
//! (`1e-3` ≈ a flapping, nearly-dead link); a recovery restores it. Used
//! to test that checkpoint-based rescheduling routes traffic *around*
//! events that pure stochastic drift would only blur.

use crate::dynamic::NetworkEvolution;
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::Millis;

/// One scripted network event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// When the change takes effect.
    pub at: Millis,
    /// Affected directed pair.
    pub src: usize,
    /// Affected directed pair.
    pub dst: usize,
    /// Multiplier applied to the *base* bandwidth from `at` onwards
    /// (until another fault overwrites it). `< 1` degrades, `1.0`
    /// recovers, `> 1` upgrades.
    pub factor: f64,
}

/// A deterministic network evolution driven by a fault script.
#[derive(Debug, Clone)]
pub struct ScriptedFaults {
    base: NetParams,
    /// Script sorted by time.
    script: Vec<Fault>,
    /// Currently effective multipliers per directed pair.
    multipliers: Vec<f64>,
    /// Next script entry to apply.
    cursor: usize,
}

impl ScriptedFaults {
    /// Creates an evolution over `base` with the given script (sorted
    /// internally by activation time).
    pub fn new(base: NetParams, mut script: Vec<Fault>) -> Self {
        let p = base.len();
        for f in &script {
            assert!(
                f.src < p && f.dst < p && f.src != f.dst,
                "fault {f:?} out of range"
            );
            assert!(
                f.factor > 0.0 && f.factor.is_finite(),
                "factor must be positive"
            );
        }
        script.sort_by(|a, b| a.at.as_ms().total_cmp(&b.at.as_ms()));
        let n = p * p;
        ScriptedFaults {
            base,
            script,
            multipliers: vec![1.0; n],
            cursor: 0,
        }
    }

    /// The script, sorted by time.
    pub fn script(&self) -> &[Fault] {
        &self.script
    }
}

impl NetworkEvolution for ScriptedFaults {
    fn processors(&self) -> usize {
        self.base.len()
    }

    fn planning_estimates(&self) -> &NetParams {
        &self.base
    }

    /// Forward-only: the cursor never un-applies a fault, so a `t`
    /// earlier than one already answered reads the latest state reached.
    fn link_at(&mut self, t: Millis, src: usize, dst: usize) -> LinkEstimate {
        let p = self.base.len();
        while self.cursor < self.script.len()
            && self.script[self.cursor].at.as_ms() <= t.as_ms() + 1e-12
        {
            let f = self.script[self.cursor];
            self.multipliers[f.src * p + f.dst] = f.factor;
            self.cursor += 1;
        }
        let e = self.base.estimate(src, dst);
        let m = self.multipliers[src * p + dst];
        if m == 1.0 {
            e
        } else {
            LinkEstimate::new(e.startup, e.bandwidth.scaled(m))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{run_adaptive, AdaptiveConfig, Replanner};
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::units::{Bandwidth, Bytes};

    fn base(p: usize) -> NetParams {
        NetParams::uniform(p, Millis::new(10.0), Bandwidth::from_kbps(1_000.0))
    }

    fn sizes(p: usize) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else {
                            Bytes::from_kb(100)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn script_applies_at_the_right_times() {
        let mut ev = ScriptedFaults::new(
            base(3),
            vec![
                Fault {
                    at: Millis::new(100.0),
                    src: 0,
                    dst: 1,
                    factor: 0.1,
                },
                Fault {
                    at: Millis::new(200.0),
                    src: 0,
                    dst: 1,
                    factor: 1.0,
                },
            ],
        );
        assert_eq!(ev.table_at(Millis::new(50.0)), base(3));
        let degraded = ev.table_at(Millis::new(150.0));
        assert_eq!(degraded.estimate(0, 1).bandwidth.as_kbps(), 100.0);
        assert_eq!(degraded.estimate(1, 0).bandwidth.as_kbps(), 1_000.0);
        let recovered = ev.table_at(Millis::new(250.0));
        assert_eq!(recovered, base(3));
        assert_eq!(ev.processors(), 3);
        assert_eq!(ev.script().len(), 2);
    }

    #[test]
    fn unsorted_script_is_sorted() {
        let ev = ScriptedFaults::new(
            base(3),
            vec![
                Fault {
                    at: Millis::new(200.0),
                    src: 0,
                    dst: 1,
                    factor: 0.5,
                },
                Fault {
                    at: Millis::new(100.0),
                    src: 1,
                    dst: 2,
                    factor: 0.5,
                },
            ],
        );
        assert!(ev.script()[0].at.as_ms() <= ev.script()[1].at.as_ms());
    }

    #[test]
    fn adaptation_limits_the_damage_of_a_mid_run_fault() {
        // One link collapses to 1% bandwidth shortly into the exchange.
        // The oblivious run drags every remaining message to that pair
        // through the dead link; the adaptive run reorders so other
        // traffic proceeds while the slow transfer runs.
        let p = 8;
        let net = base(p);
        let m = CommMatrix::from_model(&net, &sizes(p));
        let order = OpenShop.send_order(&m);
        let script = vec![Fault {
            at: Millis::new(500.0),
            src: 0,
            dst: 1,
            factor: 0.01,
        }];

        let mut ev1 = ScriptedFaults::new(net.clone(), script.clone());
        let oblivious = run_adaptive(&order, &sizes(p), &mut ev1, &AdaptiveConfig::oblivious());
        let mut ev2 = ScriptedFaults::new(net.clone(), script);
        let adaptive = run_adaptive(
            &order,
            &sizes(p),
            &mut ev2,
            &AdaptiveConfig {
                policy: CheckpointPolicy::EveryEvent,
                rule: RescheduleRule {
                    deviation_threshold: 0.05,
                },
                replanner: Replanner::OpenShop,
            },
        );
        assert_eq!(adaptive.records.len(), p * (p - 1));
        assert!(
            adaptive.makespan.as_ms() <= oblivious.makespan.as_ms() + 1e-9,
            "adaptive {} should not lose to oblivious {} under a scripted fault",
            adaptive.makespan,
            oblivious.makespan
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_fault_rejected() {
        let _ = ScriptedFaults::new(
            base(2),
            vec![Fault {
                at: Millis::ZERO,
                src: 0,
                dst: 5,
                factor: 0.5,
            }],
        );
    }
}
