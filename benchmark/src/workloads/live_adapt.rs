//! `live-adapt` — `adaptcomm run --adapt`, in process.
//!
//! `P ∈ {6,8,10}` × 20 `Mixed` instances (the CLI's default scenario).
//! One op is the whole
//! loop a user starts: directory → snapshot → cost matrix → open-shop
//! order → adaptive execution on real threads over shaped channels
//! (checkpoint after every event, 5 % deviation trigger, retained-plan
//! matching replanner, the CLI's drift) → receipt verification. The
//! runtime's fabric commits, the directory's publishes and the
//! incremental replanner dominate; `plansrv` and `sim` are idle. The
//! runtime spawns `P` OS threads per run by design; the load generator
//! itself stays one thread.

use super::{cli_drift, draw_instance};
use crate::report::Layers;
use crate::rng::SplitMix;
use crate::stats::median;
use crate::trace::{Tracer, NO_OP};
use crate::workload::{check_permutation, digest_matrix, Verdict, Workload};
use adaptcomm::model::units::{Bytes, Millis};
use adaptcomm::prelude::{
    execute, execute_adaptive, AdaptSettings, BackendKind, CommMatrix, DirectoryService,
    MatchingKind, OpenShop, ReplanTrigger, RunReport, Scenario, Scheduler, SendOrder, ShapedConfig,
};
use adaptcomm::runtime::Replanner;
use adaptcomm::scheduling::checkpointed::{CheckpointPolicy, RescheduleRule};
use adaptcomm::scheduling::fingerprint::Fnv1a;
use adaptcomm::workloads::scenario::ScenarioInstance;

const SIZES: [usize; 3] = [6, 8, 10];
const SEEDS: usize = 20;
/// Cap on physically copied bytes per message; modeled durations always
/// use the full size. Keeps a run about the fabric, not about `memcpy`.
const PAYLOAD_CAP: u64 = 64 * 1024;
/// Passes of the static-execution replay on traced runs.
const REPLAY_PASSES: usize = 3;

struct Run {
    instance: ScenarioInstance,
    sizes: Vec<Vec<Bytes>>,
}

/// What one run produced, for `verify`.
pub struct RunOut {
    matrix: CommMatrix,
    order: SendOrder,
    report: RunReport,
}

/// See the module docs.
pub struct LiveAdapt {
    runs: Vec<Run>,
    fingerprint: u64,
    /// Σ reschedules / Σ incremental reschedules / runs, all cycles (exact).
    reschedules: u64,
    incremental: u64,
    verified_runs: u64,
}

impl Workload for LiveAdapt {
    type Out = RunOut;
    const NAME: &'static str = "live-adapt";
    const CLASSES: &'static [&'static str] = &["P=6", "P=8", "P=10"];

    fn build(seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let mut rng = SplitMix::new(seed, 0x6c61);
        let mut runs = Vec::with_capacity(SIZES.len() * SEEDS);
        let mut digest = Fnv1a::new();
        // Sizes interleave so no class is grouped in time.
        for _ in 0..SEEDS {
            for p in SIZES {
                let instance = draw_instance(tracer, Scenario::Mixed, p, &mut rng);
                digest_matrix(&mut digest, &instance.matrix);
                let sizes = instance.sizes.to_rows();
                runs.push(Run { instance, sizes });
            }
        }
        Ok(LiveAdapt {
            runs,
            fingerprint: digest.finish(),
            reschedules: 0,
            incremental: 0,
            verified_runs: 0,
        })
    }

    fn n(&self) -> usize {
        self.runs.len()
    }

    fn class_of(&self, op: usize) -> usize {
        let p = self.runs[op].instance.network.len();
        SIZES.iter().position(|&s| s == p).unwrap_or(0)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn begin_cycle(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn exec(&mut self, op: usize, tracer: &mut Tracer) -> Result<RunOut, String> {
        let run = &self.runs[op];
        let directory = tracer.time("directory.new", || {
            DirectoryService::new(run.instance.network.clone())
        });
        let snapshot = tracer.time("directory.snapshot", || directory.snapshot());
        let matrix = tracer.time("core.matrix_build", || {
            CommMatrix::from_model(snapshot.params(), &run.sizes)
        });
        let order = tracer.time("core.openshop_order", || OpenShop.send_order(&matrix));
        let report = tracer.time("runtime.execute_adaptive", || {
            let mut drifting = cli_drift(&run.instance.network);
            let settings = AdaptSettings {
                policy: CheckpointPolicy::EveryEvent,
                trigger: ReplanTrigger::Deviation(RescheduleRule {
                    deviation_threshold: 0.05,
                }),
                replanner: Replanner::Matching(MatchingKind::Max),
                payload_cap: Some(PAYLOAD_CAP),
                ..Default::default()
            };
            execute_adaptive(
                &order.order,
                &run.sizes,
                &mut drifting,
                &directory,
                BackendKind::Channel,
                settings,
            )
        });
        let report = report.map_err(|e| format!("live run failed: {e}"))?;
        Ok(RunOut {
            matrix,
            order,
            report,
        })
    }

    fn verify(&mut self, op: usize, out: RunOut) -> Verdict {
        let p = self.runs[op].instance.network.len();
        let mut v = Verdict::default();
        v.check(check_permutation(&out.order, p));
        let r = &out.report;
        if !r.receipts_ok {
            v.fail("receipts do not match the expected tally");
        }
        if r.records.len() != p * (p - 1) {
            v.fail(format!(
                "{} transfers committed, {} expected",
                r.records.len(),
                p * (p - 1)
            ));
        }
        let done = r.makespan.as_ms();
        let lb = out.matrix.lower_bound().as_ms();
        if !done.is_finite() || done < lb * (1.0 - 1e-12) {
            v.fail(format!("realized makespan {done} below t_lb {lb}"));
        }
        v.add_plan(done, lb);
        self.reschedules += r.reschedules as u64;
        self.incremental += r.incremental_reschedules as u64;
        self.verified_runs += 1;
        v
    }

    fn end_cycle(&mut self) {}

    /// What the timed op cannot separate: the same orders executed
    /// statically (the adaptive loop's cost is the difference), and the
    /// directory's publish path, which the runtime calls from inside.
    fn replay(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        for _ in 0..REPLAY_PASSES {
            for (op, run) in self.runs.iter().enumerate() {
                tracer.begin_replay(op as u32);
                let order = OpenShop.send_order(&run.instance.matrix);
                let config = ShapedConfig {
                    payload_cap: Some(PAYLOAD_CAP),
                    ..Default::default()
                };
                let report = tracer.time("runtime.execute", || {
                    execute(
                        &order.order,
                        &run.sizes,
                        &mut cli_drift(&run.instance.network),
                        BackendKind::Channel,
                        config,
                    )
                });
                let report = report.map_err(|e| format!("static replay failed: {e}"))?;
                if !report.receipts_ok {
                    return Err("static replay: receipts mismatch".into());
                }
                let directory = DirectoryService::new(run.instance.network.clone());
                let p = run.instance.network.len();
                for (k, record) in report.records.iter().take(p).enumerate() {
                    let link = run.instance.network.estimate(record.src, record.dst);
                    let published = tracer.time("directory.publish", || {
                        directory.publish_measurement(
                            record.src,
                            record.dst,
                            link.startup.as_ms(),
                            link.bandwidth.as_kbps(),
                            Millis::new(k as f64),
                        )
                    });
                    published.map_err(|e| format!("publish failed: {e}"))?;
                }
            }
        }
        tracer.begin_replay(NO_OP);
        Ok(())
    }

    fn layers(&self, tracer: &Tracer, out: &mut Layers) {
        out.set(
            "workloads.instance_ms",
            median(&tracer.durations_ms("workloads.instance")),
        );
        out.set(
            "directory.snapshot_us",
            median(&tracer.durations_ms("directory.snapshot")) * 1e3,
        );
        out.set(
            "directory.publish_us",
            median(&tracer.durations_ms("directory.publish")) * 1e3,
        );
        let statics = tracer.durations_ms("runtime.execute");
        let adaptive = median(&tracer.durations_ms("runtime.execute_adaptive"));
        out.set("runtime.execute_ms", median(&statics));
        out.set("runtime.adapt_overhead_ms", adaptive - median(&statics));
        let transfers: usize = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "runtime.execute")
            .map(|s| {
                let p = self.runs[s.op as usize].instance.network.len();
                p * (p - 1)
            })
            .sum();
        let seconds = statics.iter().sum::<f64>() / 1e3;
        out.set(
            "runtime.commits_per_s",
            if seconds > 0.0 {
                transfers as f64 / seconds
            } else {
                0.0
            },
        );
        let runs = self.verified_runs.max(1) as f64;
        out.set("runtime.reschedules", self.reschedules as f64 / runs);
        out.set(
            "runtime.incremental_ratio",
            if self.reschedules > 0 {
                self.incremental as f64 / self.reschedules as f64
            } else {
                0.0
            },
        );
        // The replanner under the adaptive loop is `core.matching`'s
        // incremental path; it is not separable from outside the loop.
    }
}
