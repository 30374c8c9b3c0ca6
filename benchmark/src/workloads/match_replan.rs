//! `match-replan` — schedule construction at size, in process, no wire.
//!
//! Ten base instances at `P = 64`; per instance a cold build for each
//! matching kind, six successive incremental replans after the CLI's
//! drift shape (a new link set each step), and two replays of the
//! unchanged matrix. `lap` and `core::algorithms::matching` do nearly
//! all the work here and `plansrv`, `sim` and `runtime` none, so this
//! is the bypass workload for wire and executor changes.

use super::{draw_instance, drifted_links, DRIFT_FACTOR};
use crate::report::Layers;
use crate::rng::SplitMix;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{check_permutation, check_schedule, digest_matrix, Verdict, Workload};
use adaptcomm::model::cost::LinkEstimate;
use adaptcomm::prelude::{CommMatrix, MatchingKind, MatchingScheduler, Scenario, SendOrder};
use adaptcomm::scheduling::algorithms::MatchingPlan;
use adaptcomm::scheduling::execution::execute_listed;
use adaptcomm::scheduling::fingerprint::Fnv1a;

const P: usize = 64;
const BASES: usize = 10;
const REPLANS: usize = 6;
const REPLAYS: usize = 2;

const REPLAY: usize = 0;
/// Class of a cold build or an incremental replan, by scenario: the LAP
/// costs 2.5× more on `Servers` matrices than on `Mixed` ones.
const COLD: [usize; 2] = [1, 3];
const INCREMENTAL: [usize; 2] = [2, 4];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    ColdMax,
    ColdMin,
    Replan,
    Replay,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    /// 0 = `Mixed`, 1 = `Servers`.
    scenario: usize,
    /// Index into `matrices` of the instance to plan for.
    matrix: usize,
}

/// See the module docs.
pub struct MatchReplan {
    ops: Vec<Op>,
    matrices: Vec<CommMatrix>,
    max: MatchingScheduler,
    min: MatchingScheduler,
    /// The max-matching chain's latest plan: what the next replan diffs
    /// against, exactly as a retaining scheduler would hold it.
    retained: Option<MatchingPlan>,
    /// Column scans of every plan built in the current cycle (exact).
    col_scans: Vec<u64>,
    fingerprint: u64,
}

impl Workload for MatchReplan {
    type Out = MatchingPlan;
    const NAME: &'static str = "match-replan";
    const CLASSES: &'static [&'static str] = &[
        "replay",
        "mixed.cold",
        "mixed.incremental",
        "servers.cold",
        "servers.incremental",
    ];

    fn build(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let mut rng = SplitMix::new(seed, 0x6d72);
        let mut ops = Vec::with_capacity(BASES * (2 + REPLANS + REPLAYS));
        let mut matrices = Vec::new();
        for b in 0..BASES {
            let scenario = b % 2;
            let inst = draw_instance(
                tracer,
                [Scenario::Mixed, Scenario::Servers][scenario],
                P,
                &mut rng,
            );
            let sizes = inst.sizes.to_rows();
            let hi = inst.matrix.max_cost().as_ms();
            let base = matrices.len();
            matrices.push(inst.matrix.clone());
            ops.push(Op {
                kind: Kind::ColdMax,
                scenario,
                matrix: base,
            });
            ops.push(Op {
                kind: Kind::ColdMin,
                scenario,
                matrix: base,
            });
            // Drift accumulates: each step degrades a fresh link set on
            // top of the previous steps, as a live network would.
            let mut network = inst.network.clone();
            for _ in 0..REPLANS {
                let start = rng.below(P);
                let mut taken = 0;
                for j in 0..P {
                    if taken == drifted_links(P) {
                        break;
                    }
                    let (src, dst) = ((start + j) % P, (start + j + 1) % P);
                    let link = network.estimate(src, dst);
                    let drifted =
                        LinkEstimate::new(link.startup, link.bandwidth.scaled(DRIFT_FACTOR));
                    // A link whose drifted cost would become the matrix
                    // maximum shifts every complement cell and forces a
                    // full rebuild; the script keeps the incremental
                    // class incremental and leaves that link alone.
                    if drifted.message_time(sizes[src][dst]).as_ms() < hi {
                        network.set_estimate(src, dst, drifted);
                        taken += 1;
                    }
                }
                matrices.push(CommMatrix::from_model(&network, &sizes));
                ops.push(Op {
                    kind: Kind::Replan,
                    scenario,
                    matrix: matrices.len() - 1,
                });
            }
            for _ in 0..REPLAYS {
                ops.push(Op {
                    kind: Kind::Replay,
                    scenario,
                    matrix: matrices.len() - 1,
                });
            }
        }
        let mut digest = Fnv1a::new();
        for m in &matrices {
            digest_matrix(&mut digest, m);
        }
        Ok(MatchReplan {
            ops,
            matrices,
            max: MatchingScheduler::new(MatchingKind::Max),
            min: MatchingScheduler::new(MatchingKind::Min),
            retained: None,
            col_scans: Vec::new(),
            fingerprint: digest.finish(),
        })
    }

    fn n(&self) -> usize {
        self.ops.len()
    }

    fn class_of(&self, op: usize) -> usize {
        let Op { kind, scenario, .. } = self.ops[op];
        match kind {
            Kind::ColdMax | Kind::ColdMin => COLD[scenario],
            Kind::Replan => INCREMENTAL[scenario],
            Kind::Replay => REPLAY,
        }
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn begin_cycle(&mut self) -> Result<(), String> {
        self.retained = None;
        self.col_scans.clear();
        Ok(())
    }

    fn exec(&mut self, op: usize, tracer: &mut Tracer) -> Result<MatchingPlan, String> {
        let Op { kind, matrix, .. } = self.ops[op];
        let m = &self.matrices[matrix];
        let prev = || {
            self.retained
                .as_ref()
                .ok_or("no retained plan to replan from")
        };
        Ok(match kind {
            Kind::ColdMax => tracer.time("core.matching.cold", || self.max.plan_seeded(m, None)),
            Kind::ColdMin => tracer.time("core.matching.cold", || self.min.plan_seeded(m, None)),
            Kind::Replan => {
                let prev = prev()?;
                tracer.time("core.matching.replan", || {
                    self.max.replan_incremental(prev, m)
                })
            }
            Kind::Replay => {
                let prev = prev()?;
                tracer.time("core.matching.replay", || {
                    self.max.replan_incremental(prev, m)
                })
            }
        })
    }

    fn verify(&mut self, op: usize, plan: MatchingPlan) -> Verdict {
        let Op { kind, matrix, .. } = self.ops[op];
        let m = &self.matrices[matrix];
        let mut v = Verdict::default();
        let want = match kind {
            Kind::ColdMax | Kind::ColdMin => "cold",
            Kind::Replan => "incremental",
            Kind::Replay => "hit",
        };
        if plan.disposition != want {
            v.fail(format!(
                "built {:?}, the script says {want:?}",
                plan.disposition
            ));
        }
        if plan.steps.len() != P || plan.steps.iter().any(|s| s.len() != P) {
            v.fail("plan is not P steps of width P");
        } else {
            let order = SendOrder::from_steps(P, &plan.steps);
            v.check(check_permutation(&order, P));
            match check_schedule(&execute_listed(&order, m), "matching") {
                Ok(done) => v.add_plan(done, m.lower_bound().as_ms()),
                Err(why) => v.fail(why),
            }
        }
        if kind != Kind::Replay {
            self.col_scans.push(plan.total_col_scans);
        }
        if kind != Kind::ColdMin {
            self.retained = Some(plan);
        }
        v
    }

    fn end_cycle(&mut self) {}

    fn layers(&self, tracer: &Tracer, out: &mut Layers) {
        // One op population per number: `Servers` matrices cost the LAP
        // 2.5× what `Mixed` ones do and a `Min` build half a `Max` one, so
        // a median over a mix would sit on the step between them.
        let layer = |name: &str, kind: Kind, scenario: usize| {
            tracer.median_over_ops(name, |op| {
                self.ops[op].kind == kind && self.ops[op].scenario == scenario
            })
        };
        const COLD_SPAN: &str = "core.matching.cold";
        const REPLAN_SPAN: &str = "core.matching.replan";
        out.set("core.matching.cold_ms", layer(COLD_SPAN, Kind::ColdMax, 0));
        out.set(
            "core.matching.cold_min_ms",
            layer(COLD_SPAN, Kind::ColdMin, 0),
        );
        out.set(
            "core.matching.replan_ms",
            layer(REPLAN_SPAN, Kind::Replan, 0),
        );
        out.set(
            "core.matching.servers_cold_ms",
            layer(COLD_SPAN, Kind::ColdMax, 1),
        );
        out.set(
            "core.matching.servers_replan_ms",
            layer(REPLAN_SPAN, Kind::Replan, 1),
        );
        out.set(
            "core.matching.replay_ms",
            tracer.median_over_ops("core.matching.replay", |_| true),
        );
        let scans: u64 = self.col_scans.iter().sum();
        out.set(
            "lap.col_scans_per_plan",
            scans as f64 / self.col_scans.len().max(1) as f64,
        );
        out.set(
            "workloads.instance_ms",
            median(&tracer.durations_ms("workloads.instance")),
        );
    }
}
