//! `sweep-sim` — the figure sweep.
//!
//! `Scenario::FIGURES` (4) × `P ∈ {10,…,50}` × 5 trials. One op is one grid cell
//! of the figure sweep, less its two matching schedulers: draw the
//! instance, run the three list schedulers of the paper's §5 (baseline,
//! greedy, open shop), validate, simulate each plan, and run the
//! open-shop plan adaptively under a scripted drift. The list
//! schedulers, `sim` and instance generation do all the work; no LAP is
//! solved, there are no threads and no sockets — the bypass workload
//! for `lap`/matching changes. (With the matching schedulers in, a
//! traced run put a third of the op time in them, and no workload
//! bypassed the LAP; `match-replan` measures them on their own.)

use super::{cli_drift, order_of};
use crate::report::Layers;
use crate::rng::SplitMix;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{check_permutation, check_schedule, Verdict, Workload};
use adaptcomm::prelude::{all_schedulers, Scenario, Schedule};
use adaptcomm::scheduling::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm::scheduling::fingerprint::Fnv1a;
use adaptcomm::sim::dynamic::{run_adaptive, AdaptiveConfig, DynamicOutcome, Replanner};
use adaptcomm::sim::executor::SimRun;
use adaptcomm::sim::run_static;
use adaptcomm::workloads::scenario::ScenarioInstance;

const SIZES: [usize; 5] = [10, 20, 30, 40, 50];
const TRIALS: usize = 5;
/// The list schedulers (baseline, greedy, open shop) by their names in
/// `all_schedulers()`; the rest are the matching schedulers.
const LIST: [&str; 3] = ["baseline", "greedy", "openshop"];
/// Position of the open-shop plan among the list schedulers' plans.
const OPENSHOP: usize = 2;

struct Cell {
    scenario: Scenario,
    p: usize,
    seed: u64,
}

/// Everything one cell produced, for `verify`.
pub struct CellOut {
    instance: ScenarioInstance,
    names: Vec<&'static str>,
    schedules: Vec<Schedule>,
    runs: Vec<SimRun>,
    adaptive: DynamicOutcome,
}

/// See the module docs.
pub struct SweepSim {
    cells: Vec<Cell>,
    fingerprint: u64,
}

impl Workload for SweepSim {
    type Out = CellOut;
    const NAME: &'static str = "sweep-sim";
    const CLASSES: &'static [&'static str] = &["P=10", "P=20", "P=30", "P=40", "P=50"];

    fn build(seed: u64, _tracer: &mut Tracer) -> Result<Self, String> {
        // Instances are drawn inside the ops (generation is part of a
        // sweep), so the script is only the list of cell coordinates.
        let mut rng = SplitMix::new(seed, 0x7373);
        let mut cells = Vec::new();
        let mut digest = Fnv1a::new();
        for _ in 0..TRIALS {
            for (k, scenario) in Scenario::FIGURES.into_iter().enumerate() {
                for p in SIZES {
                    let seed = rng.next_u64();
                    for word in [k as u64, p as u64, seed] {
                        digest.write_u64(word);
                    }
                    cells.push(Cell { scenario, p, seed });
                }
            }
        }
        Ok(SweepSim {
            cells,
            fingerprint: digest.finish(),
        })
    }

    fn n(&self) -> usize {
        self.cells.len()
    }

    fn class_of(&self, op: usize) -> usize {
        SIZES
            .iter()
            .position(|&p| p == self.cells[op].p)
            .unwrap_or(0)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn begin_cycle(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn exec(&mut self, op: usize, tracer: &mut Tracer) -> Result<CellOut, String> {
        let Cell { scenario, p, seed } = self.cells[op];
        let (instance, sizes) = tracer.time("workloads.instance", || {
            let inst = scenario.instance(p, seed);
            let sizes = inst.sizes.to_rows();
            (inst, sizes)
        });
        // Fresh schedulers per cell, as the sweep engine builds them:
        // plan retention must never leak across grid points.
        let schedulers: Vec<_> = all_schedulers()
            .into_iter()
            .filter(|s| LIST.contains(&s.name()))
            .collect();
        let schedules: Vec<Schedule> = tracer.time("core.list_sched", || {
            schedulers
                .iter()
                .map(|s| s.schedule(&instance.matrix))
                .collect()
        });
        if schedules.len() != LIST.len() {
            return Err(format!(
                "{} list schedulers found, {} expected",
                schedules.len(),
                LIST.len()
            ));
        }
        let runs = tracer.time("sim.run_static", || {
            schedules
                .iter()
                .map(|s| run_static(&order_of(s), &instance.network, &sizes))
                .collect::<Vec<_>>()
        });
        let adaptive = tracer.time("sim.run_adaptive", || {
            let mut drifting = cli_drift(&instance.network);
            let config = AdaptiveConfig {
                policy: CheckpointPolicy::Halving,
                rule: RescheduleRule {
                    deviation_threshold: 0.05,
                },
                replanner: Replanner::OpenShop,
            };
            run_adaptive(
                &order_of(&schedules[OPENSHOP]),
                &sizes,
                &mut drifting,
                &config,
            )
        });
        Ok(CellOut {
            names: schedulers.iter().map(|s| s.name()).collect(),
            instance,
            schedules,
            runs,
            adaptive,
        })
    }

    fn verify(&mut self, op: usize, out: CellOut) -> Verdict {
        let p = self.cells[op].p;
        let mut v = Verdict::default();
        let lb = out.instance.matrix.lower_bound().as_ms();
        for ((name, schedule), run) in out.names.iter().zip(&out.schedules).zip(&out.runs) {
            let done = match check_schedule(schedule, name) {
                Ok(done) => done,
                Err(why) => {
                    v.fail(why);
                    continue;
                }
            };
            v.check(check_permutation(&order_of(schedule), p));
            // Theorem 3 (open shop) and Theorem 2 (baseline).
            let bound = match *name {
                "openshop" => 2.0,
                "baseline" => p.div_ceil(2) as f64,
                _ => f64::INFINITY,
            };
            if done > bound * lb * (1.0 + 1e-12) {
                v.fail(format!(
                    "{name}: completion {done} above {bound}·t_lb = {}",
                    bound * lb
                ));
            }
            // The simulator re-executes the order ASAP: it reproduces a
            // listed schedule exactly and may only tighten the two
            // schedulers that construct their own start times (the open
            // shop, and the baseline's blocking send-recv steps).
            let simulated = run.makespan.as_ms();
            let own_times = matches!(*name, "openshop" | "baseline");
            if simulated > done * (1.0 + 1e-9) || (!own_times && simulated < done * (1.0 - 1e-9)) {
                v.fail(format!("{name}: simulated {simulated} vs analytic {done}"));
            }
            if run.records.len() != p * (p - 1) {
                v.fail(format!(
                    "{name}: simulator moved {} messages",
                    run.records.len()
                ));
            }
            v.add_plan(done, lb);
        }
        if out.names != LIST {
            v.fail(format!("schedulers ran as {:?}, not {LIST:?}", out.names));
        }
        let adaptive = out.adaptive.makespan.as_ms();
        if out.adaptive.records.len() != p * (p - 1) || !adaptive.is_finite() || adaptive <= 0.0 {
            v.fail(format!(
                "adaptive run: {} messages, makespan {adaptive}",
                out.adaptive.records.len()
            ));
        }
        // Bit-identity covers the adaptive makespan too; it is not a
        // plan against the static `t_lb`, so it stays out of the ratio.
        v.add_completion(adaptive);
        v
    }

    fn end_cycle(&mut self) {}

    fn layers(&self, tracer: &Tracer, out: &mut Layers) {
        out.set(
            "workloads.instance_ms",
            median(&tracer.durations_ms("workloads.instance")),
        );
        out.set(
            "core.list_sched_ms",
            median(&tracer.durations_ms("core.list_sched")),
        );
        let statics = tracer.durations_ms("sim.run_static");
        out.set("sim.run_static_ms", median(&statics));
        out.set(
            "sim.run_adaptive_ms",
            median(&tracer.durations_ms("sim.run_adaptive")),
        );
        // Transfers simulated per second of `run_static`: three plans of
        // P(P−1) messages per cell, summed over the traced cells.
        let transfers: usize = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "sim.run_static")
            .map(|s| {
                let p = self.cells[s.op as usize].p;
                LIST.len() * p * (p - 1)
            })
            .sum();
        let seconds: f64 = statics.iter().sum::<f64>() / 1e3;
        out.set(
            "sim.events_per_s",
            if seconds > 0.0 {
                transfers as f64 / seconds
            } else {
                0.0
            },
        );
    }
}
