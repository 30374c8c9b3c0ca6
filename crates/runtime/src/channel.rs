//! The shaped engine: the paper's port model over real byte movement.
//!
//! [`run_shaped`] runs the port-model kernel (`adaptcomm_core::kernel`,
//! the one event loop every modeled executor in the workspace shares) on
//! the calling thread under one policy:
//!
//! * **price** — a transfer is priced at its grant instant from one
//!   [`NetworkEvolution::link_at`] read (`T_ij + m/B_ij` of *modeled*
//!   time), checked against the [`FaultPolicy`], and handed to its
//!   sender's worker thread; a fault there stops the run with the message
//!   still queued;
//! * **on completion** — the policy takes that delivery's verdict from
//!   the worker, records the transfer (and, when the global obs registry
//!   is enabled, its `transfer` span, stamped on the registry's clock
//!   from grant to verdict), and runs the checkpoint hook
//!   (§6.3), which may hand back replanned queues
//!   ([`Ports::replan`]) exactly like `adaptcomm_sim::dynamic::run_adaptive`
//!   does at its completions; a refused delivery stops the run at its
//!   modeled finish.
//!
//! The queues, the ports, the FCFS grant and the tie rule are the
//! kernel's. One worker thread per processor does the physical work and
//! nothing else: sleep the pacing, fill the payload, push it through the
//! [`Transport`], report. Workers never see modeled time being decided, so
//! the realized timeline does not depend on how the OS schedules them: it
//! is what the simulator computes for the same decisions, bit for bit —
//! [`price_frozen`] is the same policy with a frozen table, no workers
//! and no spans.

use crate::error::RuntimeError;
use crate::transport::{physical_len, refill_payload, Transport};
use adaptcomm_core::checkpointed::CheckpointPolicy;
use adaptcomm_core::kernel::{self, Policy, Ports, RunError};
use adaptcomm_model::cost::LinkEstimate;
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::{Bytes, Millis};
use adaptcomm_obs::causal::transfer_span;
use adaptcomm_obs::Registry;
use adaptcomm_sim::executor::{SimRun, TransferRecord};
use adaptcomm_sim::NetworkEvolution;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

/// Link-failure detection applied when a transfer is priced at its
/// grant instant (satellite of §6.4: surfacing faults instead of
/// silently waiting out a dead link).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPolicy {
    /// A link whose live bandwidth is at or below this many kbit/s is
    /// considered down; granting over it raises
    /// [`RuntimeError::MessageDropped`]. The boundary is deliberately
    /// inclusive: a threshold of `0.0` treats an exactly-zero-rated
    /// estimate as dead, because a zero-bandwidth link can never finish
    /// a transfer — there is no meaningful "legitimately zero" rate to
    /// preserve. Non-finite live estimates are rejected separately with
    /// [`RuntimeError::CorruptEstimate`] before this check runs, so a
    /// NaN bandwidth can no longer slip past the comparison.
    pub drop_below_kbps: Option<f64>,
}

/// Shaped-engine configuration. The default never checkpoints, detects no
/// faults, runs unpaced, moves every byte and starts at time zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapedConfig {
    /// When to invoke the checkpoint hook.
    pub policy: CheckpointPolicy,
    /// Link-failure detection.
    pub faults: FaultPolicy,
    /// Wall-clock pacing: microseconds of real sleep per modeled
    /// millisecond of transfer time. `None` runs at full speed.
    pub pace_us_per_ms: Option<f64>,
    /// Cap on *physically copied* bytes per message (modeled durations
    /// always use the full size). `None` moves every byte.
    pub payload_cap: Option<u64>,
    /// Modeled time at which the run starts (non-zero when resuming
    /// after a failed attempt).
    pub start_at: Millis,
}

/// What the checkpoint hook sees, mid-run, between two kernel events.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// Transfers completed so far.
    pub completed: usize,
    /// Total transfers in the run.
    pub total: usize,
    /// Modeled time of the checkpoint (the completion that triggered it).
    pub now: Millis,
    /// The kernel's state: the queues, and the modeled time each send and
    /// receive port frees up (in-flight transfers included).
    pub ports: &'a Ports,
    /// Completed transfers, in completion order.
    pub records: &'a [TransferRecord],
}

impl<'a> CheckpointView<'a> {
    /// `src`'s not-yet-granted destinations, in send order — the kernel's
    /// own slice, not a copy.
    pub fn remaining(&self, src: usize) -> &'a [usize] {
        self.ports.remaining(src)
    }
}

/// The hook's verdict.
pub enum CheckpointAction {
    /// Keep executing the current queues.
    Continue,
    /// Replace the remaining queues. Each sender's new queue must hold
    /// exactly the destinations of its old one (in-flight and completed
    /// messages cannot be re-planned).
    Replan(Vec<Vec<usize>>),
}

/// A completed shaped run.
#[derive(Debug, Clone)]
pub struct ShapedOutcome {
    /// Completed transfers sorted by `(finish, src, dst)`, the
    /// simulator's record order.
    pub records: Vec<TransferRecord>,
    /// Modeled completion time.
    pub makespan: Millis,
    /// Checkpoints at which the hook ran.
    pub checkpoints_evaluated: usize,
    /// Checkpoints at which the hook replanned.
    pub reschedules: usize,
}

/// A failed shaped run, with everything a retry driver needs.
#[derive(Debug, Clone)]
pub struct ShapedFailure {
    /// Why the run aborted.
    pub error: RuntimeError,
    /// Every transfer whose bytes reached the destination: completions
    /// before the failure, then in-flight grants whose delivery the
    /// transport accepted even as the run was stopping (settled after
    /// the workers join, in start order, so the ledger is deterministic).
    /// A retry must not re-send any of them.
    pub records: Vec<TransferRecord>,
    /// Destinations not yet granted per sender. Grant-time failures
    /// leave the failed message at the front of its sender's queue;
    /// delivery-time failures do not (the message was already popped).
    pub remaining: Vec<Vec<usize>>,
    /// Modeled time each send port frees up.
    pub send_busy_until: Vec<f64>,
    /// Modeled time each receive port frees up.
    pub recv_busy_until: Vec<f64>,
    /// Modeled time at which the failure was detected.
    pub at: Millis,
    /// Every message that had already been popped from its queue when
    /// its bytes failed to reach the destination (the transport refused
    /// the delivery). Such messages are in neither `records` nor
    /// `remaining` and are still owed: the retry driver must re-queue
    /// each exactly once. More than one entry means several workers had
    /// deliveries in flight when the fault window opened — the one with
    /// the earliest modeled finish becomes `error`, but all of them were
    /// lost.
    pub lost: Vec<(usize, usize)>,
}

/// A granted transfer, as its sender's worker needs it.
struct Job {
    dst: usize,
    physical: usize,
    start: f64,
    finish: f64,
}

/// What became of a delivery to `dst`.
type Verdict = (usize, Result<(), RuntimeError>);

/// The physical work of sender `src`, off the deciding thread: deliver
/// what the kernel granted, in grant order, until it hangs up.
fn worker<T: Transport + ?Sized>(
    src: usize,
    transport: &T,
    pace_us_per_ms: Option<f64>,
    jobs: Receiver<Job>,
    verdicts: Sender<Verdict>,
) {
    let mut payload = Vec::new();
    for job in jobs {
        // Optional pacing so the wall-clock timeline tracks the modeled
        // one, then the real byte movement through the transport.
        if let Some(us_per_ms) = pace_us_per_ms {
            let us = (job.finish - job.start) * us_per_ms;
            if us >= 1.0 {
                std::thread::sleep(Duration::from_micros(us as u64));
            }
        }
        refill_payload(&mut payload, src, job.dst, job.physical);
        let delivered = transport.deliver_timed(
            src,
            job.dst,
            &payload,
            Millis::new(job.start),
            Millis::new(job.finish),
        );
        if verdicts.send((job.dst, delivered)).is_err() {
            return;
        }
    }
}

/// The live policy over the kernel (see the module docs).
struct Live<'a, E, H> {
    evolution: &'a mut E,
    sizes: &'a [Vec<Bytes>],
    config: ShapedConfig,
    hook: H,
    /// Per sender, the way to its worker; empty when only pricing — then
    /// no bytes move and every delivery succeeds.
    jobs: Vec<Sender<Job>>,
    /// Per sender, its worker's verdicts, and those that arrived ahead of
    /// the completion asking for them.
    verdicts: Vec<(Receiver<Verdict>, Vec<Verdict>)>,
    /// With the global registry enabled (threaded runs only): the
    /// registry, and per `[src * p + dst]` the registry time an
    /// in-flight transfer was granted at.
    obs: Option<(&'static Registry, Vec<u64>)>,
    /// Completed transfers, in completion order.
    records: Vec<TransferRecord>,
    /// `[src * p + dst]`: the start of a transfer that is in flight.
    in_flight: Vec<Option<f64>>,
    total: usize,
    /// Completion counts after which the hook runs, ascending.
    checkpoints: Vec<usize>,
    checkpoints_evaluated: usize,
    reschedules: usize,
    /// Why and when (modeled) the run stopped.
    failure: Option<(RuntimeError, f64)>,
    lost: Vec<(usize, usize)>,
}

impl<'a, E, H> Live<'a, E, H>
where
    E: NetworkEvolution,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    fn new(
        lists: &[Vec<usize>],
        sizes: &'a [Vec<Bytes>],
        evolution: &'a mut E,
        config: ShapedConfig,
        hook: H,
    ) -> Self {
        let p = evolution.processors();
        assert_eq!(lists.len(), p, "send lists do not match network size");
        assert_eq!(sizes.len(), p, "sizes do not match network size");
        for (src, l) in lists.iter().enumerate() {
            for &dst in l {
                assert!(
                    dst < p && dst != src,
                    "invalid destination {dst} for sender {src}"
                );
            }
        }
        let total = lists.iter().map(Vec::len).sum();
        Live {
            evolution,
            sizes,
            config,
            hook,
            jobs: Vec::new(),
            verdicts: Vec::new(),
            obs: None,
            records: Vec::with_capacity(total),
            in_flight: vec![None; p * p],
            total,
            checkpoints: config.policy.checkpoints(total),
            checkpoints_evaluated: 0,
            reschedules: 0,
            failure: None,
            lost: Vec::new(),
        }
    }

    /// Why `src → dst`, priced at `dur` ms from `live`, must not start at
    /// `now`, if anything.
    fn grant_fault(
        &self,
        now: f64,
        src: usize,
        dst: usize,
        live: LinkEstimate,
        dur: f64,
    ) -> Option<RuntimeError> {
        let at = Millis::new(now);
        // A non-finite live estimate is a poisoned model, not a slow
        // link: it must never reach the `<=` comparison below (NaN
        // compares false against any threshold).
        let kbps = live.bandwidth.as_kbps();
        if !kbps.is_finite() || !dur.is_finite() {
            let detail = format!(
                "bandwidth {kbps} kbit/s, startup {}, duration {dur} ms",
                live.startup
            );
            return Some(RuntimeError::CorruptEstimate {
                src,
                dst,
                at,
                detail,
            });
        }
        // Inclusive on purpose: at the threshold the link is dead (see
        // `FaultPolicy::drop_below_kbps`).
        (self.config.faults.drop_below_kbps)
            .is_some_and(|threshold| kbps <= threshold)
            .then_some(RuntimeError::MessageDropped { src, dst, at })
    }

    /// Whether `src → dst`'s bytes arrived. Blocks until the worker has
    /// tried; a worker that is gone (its transport panicked) is a typed
    /// failure of every delivery it still owed.
    fn verdict(&mut self, src: usize, dst: usize) -> Result<(), RuntimeError> {
        let Some((from_worker, early)) = self.verdicts.get_mut(src) else {
            return Ok(());
        };
        loop {
            // A sender's verdicts come in grant order, its completions in
            // calendar order: they differ only across zero-cost transfers.
            if let Some(k) = early.iter().position(|v| v.0 == dst) {
                return early.swap_remove(k).1;
            }
            match from_worker.recv() {
                Ok(v) => early.push(v),
                Err(_) => {
                    return Err(RuntimeError::Transport {
                        detail: format!("worker {src} died delivering {src} -> {dst}"),
                    })
                }
            }
        }
    }

    /// Commits a delivered transfer: its record, and its span when the
    /// registry is on.
    fn record(&mut self, src: usize, dst: usize, start: f64, finish: f64) {
        let bytes = self.sizes[src][dst];
        self.records.push(TransferRecord {
            src,
            dst,
            bytes,
            start: Millis::new(start),
            finish: Millis::new(finish),
        });
        if let Some((registry, granted_us)) = &self.obs {
            let start_us = granted_us[src * self.sizes.len() + dst];
            let dur_us = registry.now_us().saturating_sub(start_us);
            let mut span = transfer_span(src, dst, start_us, dur_us);
            span.attrs.push(("bytes".into(), bytes.as_u64().into()));
            span.attrs.push(("modeled_ms".into(), finish.into()));
            registry.record_span(span);
        }
    }

    /// The run's verdict, from the kernel's final state, once every
    /// worker has exited.
    #[allow(clippy::result_large_err)] // see `run_shaped`
    fn finish(
        mut self,
        ports: Ports,
        end: Result<(), RunError>,
    ) -> Result<ShapedOutcome, ShapedFailure> {
        let Some((error, at)) = self.failure.take() else {
            end.unwrap_or_else(|e| panic!("{e}"));
            let run = SimRun::from_records(self.records);
            return Ok(ShapedOutcome {
                records: run.records,
                makespan: run.makespan,
                checkpoints_evaluated: self.checkpoints_evaluated,
                reschedules: self.reschedules,
            });
        };
        // Every started transfer has resolved by now: its delivery either
        // succeeded or was refused. Settle the ones whose completion the
        // stop cut off — successes into `records`, refusals into `lost` —
        // so delivered bytes are never invisible to the retry driver.
        let p = self.sizes.len();
        for e in ports.started() {
            if let Some(start) = self.in_flight[e.src * p + e.dst].take() {
                match self.verdict(e.src, e.dst) {
                    Ok(()) => self.record(e.src, e.dst, start, e.finish.as_ms()),
                    Err(_) => self.lost.push((e.src, e.dst)),
                }
            }
        }
        Err(ShapedFailure {
            error,
            records: self.records,
            remaining: (0..p).map(|src| ports.remaining(src).to_vec()).collect(),
            send_busy_until: ports.send_busy_until().to_vec(),
            recv_busy_until: ports.recv_busy_until().to_vec(),
            at: Millis::new(at),
            lost: self.lost,
        })
    }
}

impl<E, H> Policy for Live<'_, E, H>
where
    E: NetworkEvolution,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    fn price(&mut self, now: f64, senders: &[usize], dst: usize) -> f64 {
        let src = senders[0];
        let bytes = self.sizes[src][dst];
        let live = self.evolution.link_at(Millis::new(now), src, dst);
        let dur = live.message_time(bytes).as_ms();
        if let Some(error) = self.grant_fault(now, src, dst, live, dur) {
            // A price the kernel refuses: the run stops here, the message
            // still at the head of its queue.
            self.failure = Some((error, now));
            return f64::NAN;
        }
        let finish = now + dur;
        let link = src * self.sizes.len() + dst;
        self.in_flight[link] = Some(now);
        if let Some((registry, granted_us)) = &mut self.obs {
            granted_us[link] = registry.now_us();
        }
        if let Some(to_worker) = self.jobs.get(src) {
            // A worker that is gone says so at this transfer's completion.
            let _ = to_worker.send(Job {
                dst,
                physical: physical_len(bytes, self.config.payload_cap),
                start: now,
                finish,
            });
        }
        dur
    }

    fn on_completion(&mut self, ports: &mut Ports, now: f64, src: usize, dst: usize) {
        let p = self.sizes.len();
        let start = self.in_flight[src * p + dst]
            .take()
            .expect("a completion follows its start");
        // The calendar pops completions in modeled order, so of several
        // refused deliveries the earliest modeled finish becomes the
        // run's failure, whichever worker thread noticed first.
        if let Err(error) = self.verdict(src, dst) {
            self.lost.push((src, dst));
            self.failure = Some((error, now));
            return;
        }
        self.record(src, dst, start, now);

        if self.checkpoints.binary_search(&self.records.len()).is_err() {
            return;
        }
        self.checkpoints_evaluated += 1;
        let view = CheckpointView {
            completed: self.records.len(),
            total: self.total,
            now: Millis::new(now),
            ports,
            records: &self.records,
        };
        if let CheckpointAction::Replan(queues) = (self.hook)(&view) {
            assert_eq!(queues.len(), p, "replan changed processor count");
            for (src, new) in queues.iter().enumerate() {
                let mut a = ports.remaining(src).to_vec();
                let mut b = new.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "replan changed sender {src}'s remaining messages");
            }
            self.reschedules += 1;
            ports.replan(queues);
        }
    }

    fn stopped(&self) -> bool {
        self.failure.is_some()
    }
}

/// A network that never changes: wraps a parameter snapshot as a
/// [`NetworkEvolution`].
#[derive(Debug, Clone)]
pub struct FrozenNetwork(pub NetParams);

impl NetworkEvolution for FrozenNetwork {
    fn processors(&self) -> usize {
        self.0.len()
    }
    fn planning_estimates(&self) -> &NetParams {
        &self.0
    }
    fn link_at(&mut self, _t: Millis, src: usize, dst: usize) -> LinkEstimate {
        self.0.estimate(src, dst)
    }
}

/// What [`run_shaped`] would realize for `lists` from `start_at` on a
/// network frozen at `params` — the records in its order, `(finish, src,
/// dst)` — computed by the same policy on the calling thread with no
/// workers: no transport, no payloads. This is how a *predicted* timeline
/// is priced (the plan a run is judged against). `adaptcomm_sim::run_static`
/// agrees with it record for record, ties included
/// (`tests/tied_grid.rs`), but takes only full send orders from time zero.
pub fn price_frozen(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    params: &NetParams,
    start_at: Millis,
) -> Result<Vec<TransferRecord>, RuntimeError> {
    let mut frozen = FrozenNetwork(params.clone());
    let config = ShapedConfig {
        start_at,
        ..Default::default()
    };
    let mut live = Live::new(lists, sizes, &mut frozen, config, |_| {
        CheckpointAction::Continue
    });
    let (ports, end) = kernel::run_from(lists, start_at.as_ms(), &mut live);
    live.finish(ports, end)
        .map(|o| o.records)
        .map_err(|f| f.error)
}

/// Executes the per-sender send lists over `transport`, pricing every
/// transfer from `evolution` at its grant instant, invoking `hook` at
/// the checkpoints of `config.policy`. The evolution and the hook stay on
/// the calling thread; only `transport` is shared with the workers.
///
/// `lists[src]` holds `src`'s destinations in send order — pass
/// `&order.order` for a full [`adaptcomm_core::schedule::SendOrder`], or
/// a partial remainder when retrying after a fault (which a `SendOrder`,
/// validating full permutations, cannot represent).
///
/// On success the realized modeled timeline is identical to what
/// `adaptcomm_sim` would predict for the same decisions; on a fault the
/// error names the failing link and the failure state carries what a
/// retry needs. A worker whose transport panics is a
/// [`RuntimeError::Transport`] failure of the delivery it died on.
// The Err variant deliberately carries the full retry state (queues,
// port availability, settled transfers); failures are rare and boxing would
// push unwrapping noise into every retry driver.
#[allow(clippy::result_large_err)]
pub fn run_shaped<E, T, H>(
    lists: &[Vec<usize>],
    sizes: &[Vec<Bytes>],
    evolution: &mut E,
    transport: &T,
    config: ShapedConfig,
    hook: H,
) -> Result<ShapedOutcome, ShapedFailure>
where
    E: NetworkEvolution,
    T: Transport + ?Sized,
    H: FnMut(&CheckpointView<'_>) -> CheckpointAction,
{
    std::thread::scope(|s| {
        // Owned by the scope's closure: if the hook panics, unwinding
        // hangs up on the workers before the scope waits for them.
        let mut live = Live::new(lists, sizes, evolution, config, hook);
        let registry = adaptcomm_obs::global();
        if registry.is_enabled() {
            live.obs = Some((registry, vec![0; lists.len() * lists.len()]));
        }
        let workers: Vec<_> = (0..lists.len())
            .map(|src| {
                let (to_worker, jobs) = channel();
                let (verdicts, from_worker) = channel();
                live.jobs.push(to_worker);
                live.verdicts.push((from_worker, Vec::new()));
                s.spawn(move || worker(src, transport, config.pace_us_per_ms, jobs, verdicts))
            })
            .collect();
        let (ports, end) = kernel::run_from(lists, config.start_at.as_ms(), &mut live);
        // Hang up: each worker delivers what it was already handed — a
        // granted message has left its queue — and exits.
        live.jobs.clear();
        for w in workers {
            // A panic is in the ledger already, as its delivery's verdict.
            let _ = w.join();
        }
        live.finish(ports, end)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{expected_receipts, ChannelTransport};
    use adaptcomm_core::algorithms::{OpenShop, Scheduler};
    use adaptcomm_core::matrix::CommMatrix;
    use adaptcomm_model::units::Bandwidth;
    use adaptcomm_model::variation::{VariationConfig, VariationTrace};
    use adaptcomm_sim::run_static;
    use adaptcomm_sim::{Fault, ScriptedFaults};

    /// Heterogeneous network: no two links alike.
    fn hetero_net(p: usize) -> NetParams {
        NetParams::from_fn(p, |src, dst| {
            LinkEstimate::new(
                Millis::new(1.0 + (src * p + dst) as f64 * 0.37),
                Bandwidth::from_kbps(400.0 + (src * 31 + dst * 17) as f64 * 13.0),
            )
        })
    }

    fn mixed_sizes(p: usize) -> Vec<Vec<Bytes>> {
        (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        if s == d {
                            Bytes::ZERO
                        } else if (s + d) % 3 == 0 {
                            Bytes::from_kb(120)
                        } else {
                            Bytes::from_kb(3)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn still(net: NetParams) -> VariationTrace {
        VariationTrace::new(
            net,
            VariationConfig {
                volatility: 0.0,
                ..Default::default()
            },
            0,
        )
    }

    #[test]
    fn shaped_run_matches_the_simulator_exactly() {
        let p = 6;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let sim = run_static(&order, &net, &sizes);

        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let out = run_shaped(
            &order.order,
            &sizes,
            &mut evo,
            &transport,
            ShapedConfig::default(),
            |_| CheckpointAction::Continue,
        )
        .expect("clean network must not fail");

        // One mechanism: bit for bit, not within a tolerance.
        assert_eq!(out.records, sim.records);
        assert_eq!(out.makespan, sim.makespan);
        // Every payload physically arrived, intact.
        assert_eq!(transport.receipts(), expected_receipts(&sizes, None));
    }

    #[test]
    fn dropped_links_surface_as_typed_errors() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // Link 1 -> 2 collapses to ~zero bandwidth immediately.
        let mut evo = ScriptedFaults::new(
            net,
            vec![Fault {
                at: Millis::ZERO,
                src: 1,
                dst: 2,
                factor: 1e-9,
            }],
        );
        let transport = ChannelTransport::new(p);
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(0.01),
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("dead link must abort the run");
        assert_eq!(failure.error.link(), Some((1, 2)));
        assert!(matches!(failure.error, RuntimeError::MessageDropped { .. }));
        // The failed message is still owed by its sender.
        assert_eq!(failure.remaining[1].first(), Some(&2));
    }

    #[test]
    fn drop_threshold_boundary_is_inclusive() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // hetero_net's slowest link is 0 -> 1 at exactly 621 kbit/s; a
        // threshold equal to it must count the link as dead (inclusive
        // boundary), while every faster link passes.
        let min_kbps = net.estimate(0, 1).bandwidth.as_kbps();
        assert_eq!(min_kbps, 621.0);
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(min_kbps),
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("a link at the threshold is dead");
        assert_eq!(failure.error.link(), Some((0, 1)));
        assert!(matches!(failure.error, RuntimeError::MessageDropped { .. }));
        assert!(
            failure.lost.is_empty(),
            "grant-time drops keep the message queued"
        );
        assert_eq!(failure.remaining[0].first(), Some(&1));
    }

    /// A network whose live state reports a NaN startup on one link,
    /// which no public `Bandwidth`/`NetParams` constructor guards
    /// against (only `Bandwidth::from_kbps` asserts).
    struct PoisonedEstimate(NetParams);

    impl NetworkEvolution for PoisonedEstimate {
        fn processors(&self) -> usize {
            self.0.len()
        }
        fn planning_estimates(&self) -> &NetParams {
            &self.0
        }
        fn link_at(&mut self, _t: Millis, src: usize, dst: usize) -> LinkEstimate {
            let e = self.0.estimate(src, dst);
            if (src, dst) != (0, 1) {
                return e;
            }
            // Struct literal: `LinkEstimate::new` asserts, but corrupt
            // data can arrive through field access.
            LinkEstimate {
                startup: Millis::new(f64::NAN),
                bandwidth: e.bandwidth,
            }
        }
    }

    #[test]
    fn non_finite_estimates_are_rejected_with_a_typed_error() {
        let p = 3;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = PoisonedEstimate(net);
        // Even with a drop threshold configured, the NaN duration must
        // surface as CorruptEstimate, not sneak past the comparison.
        let config = ShapedConfig {
            faults: FaultPolicy {
                drop_below_kbps: Some(0.0),
            },
            ..Default::default()
        };
        let failure = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect_err("a poisoned estimate must abort the run");
        assert!(
            matches!(
                failure.error,
                RuntimeError::CorruptEstimate { src: 0, dst: 1, .. }
            ),
            "got {:?}",
            failure.error
        );
        assert_eq!(failure.error.link(), None, "not retryable by rescheduling");
    }

    /// A transport that refuses delivery on one link, without absorbing
    /// the payload: the message is popped from its queue but its bytes
    /// are genuinely lost.
    struct RefusingTransport {
        inner: ChannelTransport,
        refuse: (usize, usize),
    }

    impl Transport for RefusingTransport {
        fn name(&self) -> &'static str {
            "refusing"
        }
        fn deliver(&self, src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError> {
            if (src, dst) == self.refuse {
                return Err(RuntimeError::LinkPartitioned {
                    src,
                    dst,
                    at: Millis::ZERO,
                });
            }
            self.inner.deliver(src, dst, payload)
        }
        fn receipts(&self) -> Vec<crate::transport::ReceiptSummary> {
            self.inner.receipts()
        }
    }

    #[test]
    fn delivery_time_failures_are_flagged_lost_in_flight() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = RefusingTransport {
            inner: ChannelTransport::new(p),
            refuse: (1, 2),
        };
        let mut evo = still(net);
        let failure = run_shaped(
            &order.order,
            &sizes,
            &mut evo,
            &transport,
            ShapedConfig::default(),
            |_| CheckpointAction::Continue,
        )
        .expect_err("refused delivery must abort the run");
        assert_eq!(failure.error.link(), Some((1, 2)));
        assert_eq!(
            failure.lost,
            vec![(1, 2)],
            "a refused delivery left the queue but never arrived"
        );
        assert!(failure.lost.contains(&(1, 2)));
        // The popped message is in neither records nor remaining.
        assert!(!failure.remaining[1].contains(&2));
        assert!(!failure.records.iter().any(|r| r.src == 1 && r.dst == 2));
    }

    /// Every message is in exactly one of `records`, `lost`, `remaining`.
    fn assert_exactly_once(failure: &ShapedFailure, lists: &[Vec<usize>]) {
        let mut ledger: Vec<(usize, usize)> = failure
            .records
            .iter()
            .map(|r| (r.src, r.dst))
            .chain(failure.lost.iter().copied())
            .collect();
        for (src, queue) in failure.remaining.iter().enumerate() {
            ledger.extend(queue.iter().map(|&dst| (src, dst)));
        }
        ledger.sort_unstable();
        let mut all: Vec<(usize, usize)> = lists
            .iter()
            .enumerate()
            .flat_map(|(src, l)| l.iter().map(move |&dst| (src, dst)))
            .collect();
        all.sort_unstable();
        assert_eq!(ledger, all);
    }

    /// A transport whose `deliver` panics on one link: the worker thread
    /// dies mid-delivery.
    struct PanickingTransport {
        inner: ChannelTransport,
        panic_on: (usize, usize),
    }

    impl Transport for PanickingTransport {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn deliver(&self, src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError> {
            assert_ne!((src, dst), self.panic_on, "the transport blew up");
            self.inner.deliver(src, dst, payload)
        }
        fn receipts(&self) -> Vec<crate::transport::ReceiptSummary> {
            self.inner.receipts()
        }
    }

    #[test]
    fn a_panicking_worker_is_a_typed_failure_not_a_hang() {
        // Under a watchdog: the run must come back, whatever it says.
        let (done, watchdog) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let p = 5;
            let net = hetero_net(p);
            let sizes = mixed_sizes(p);
            let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
            let transport = PanickingTransport {
                inner: ChannelTransport::new(p),
                panic_on: (1, 2),
            };
            let result = run_shaped(
                &order.order,
                &sizes,
                &mut still(net),
                &transport,
                ShapedConfig::default(),
                |_| CheckpointAction::Continue,
            );
            done.send((result, order.order)).ok();
        });
        let (result, lists) = watchdog
            .recv_timeout(Duration::from_secs(60))
            .expect("a dead worker must not hang the run");
        let failure = result.expect_err("a dead worker must fail the run");
        assert!(
            matches!(failure.error, RuntimeError::Transport { .. }),
            "got {:?}",
            failure.error
        );
        assert!(failure.lost.contains(&(1, 2)), "its bytes never arrived");
        assert_exactly_once(&failure, &lists);
    }

    /// Refuses every delivery whose modeled finish lies in the fault
    /// window `[from, ∞)`: whatever is in flight when it opens is lost.
    struct WindowTransport {
        inner: ChannelTransport,
        from: f64,
    }

    impl Transport for WindowTransport {
        fn name(&self) -> &'static str {
            "window"
        }
        fn deliver(&self, src: usize, dst: usize, payload: &[u8]) -> Result<(), RuntimeError> {
            self.inner.deliver(src, dst, payload)
        }
        fn deliver_timed(
            &self,
            src: usize,
            dst: usize,
            payload: &[u8],
            _start: Millis,
            finish: Millis,
        ) -> Result<(), RuntimeError> {
            if finish.as_ms() >= self.from {
                return Err(RuntimeError::LinkPartitioned {
                    src,
                    dst,
                    at: finish,
                });
            }
            self.inner.deliver(src, dst, payload)
        }
        fn receipts(&self) -> Vec<crate::transport::ReceiptSummary> {
            self.inner.receipts()
        }
    }

    #[test]
    fn the_failure_ledger_does_not_depend_on_thread_scheduling() {
        let p = 6;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        // The window opens at the median completion of a clean run.
        let clean = run_static(&order, &net, &sizes).records;
        let from = clean[clean.len() / 2].finish.as_ms();
        let attempt = || {
            let transport = WindowTransport {
                inner: ChannelTransport::new(p),
                from,
            };
            run_shaped(
                &order.order,
                &sizes,
                &mut still(net.clone()),
                &transport,
                ShapedConfig::default(),
                |_| CheckpointAction::Continue,
            )
            .expect_err("the window must abort the run")
        };
        let first = attempt();
        assert!(
            first.lost.len() >= 2,
            "several deliveries in one window, got {:?}",
            first.lost
        );
        // The earliest modeled finish in the window names the failure.
        assert_eq!(first.at.as_ms(), from);
        assert_eq!(first.error.link(), Some(first.lost[0]));
        assert_exactly_once(&first, &order.order);
        for _ in 0..50 {
            let again = attempt();
            assert_eq!(again.error, first.error);
            assert_eq!(again.lost, first.lost);
            assert_eq!(again.records, first.records);
            assert_eq!(again.remaining, first.remaining);
        }
    }

    #[test]
    fn checkpoint_hook_sees_consistent_state_and_can_replan() {
        let p = 5;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            policy: CheckpointPolicy::EveryEvent,
            ..Default::default()
        };
        let total = p * (p - 1);
        let out = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |view| {
            assert!(view.completed >= 1 && view.completed < view.total);
            assert_eq!(view.total, total);
            assert_eq!(view.records.len(), view.completed);
            // Reverse every sender's remaining queue: a valid replan
            // (same multiset), deliberately different order.
            let reversed = (0..p)
                .map(|s| view.remaining(s).iter().rev().copied().collect())
                .collect();
            CheckpointAction::Replan(reversed)
        })
        .expect("replanning on a clean network must still complete");
        assert_eq!(out.records.len(), total);
        assert_eq!(out.checkpoints_evaluated, total - 1);
        assert_eq!(out.reschedules, total - 1);
        assert_eq!(transport.receipts(), expected_receipts(&sizes, None));
        // Port-model invariant on the realized records.
        for proc in 0..p {
            for port in [true, false] {
                let mut mine: Vec<_> = out
                    .records
                    .iter()
                    .filter(|r| if port { r.src == proc } else { r.dst == proc })
                    .collect();
                mine.sort_by(|a, b| a.start.as_ms().total_cmp(&b.start.as_ms()));
                for w in mine.windows(2) {
                    assert!(w[0].finish.as_ms() <= w[1].start.as_ms() + 1e-9);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "replan changed sender 0's remaining messages")]
    fn a_replan_that_changes_a_senders_remaining_set_panics() {
        let p = 4;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let config = ShapedConfig {
            policy: CheckpointPolicy::EveryEvent,
            ..Default::default()
        };
        // The hook drops what sender 0 still owes (at the first checkpoint
        // that is at least one message of its three).
        let _ = run_shaped(
            &order.order,
            &sizes,
            &mut still(net),
            &transport,
            config,
            |view| {
                let mut queues: Vec<Vec<usize>> =
                    (0..p).map(|s| view.remaining(s).to_vec()).collect();
                queues[0].clear();
                CheckpointAction::Replan(queues)
            },
        );
    }

    #[test]
    fn pacing_aligns_wall_clock_with_modeled_order() {
        let p = 3;
        let net = hetero_net(p);
        let sizes = mixed_sizes(p);
        let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
        let transport = ChannelTransport::new(p);
        let mut evo = still(net);
        let config = ShapedConfig {
            // ~1 us per modeled ms: fast, but enough to order deliveries.
            pace_us_per_ms: Some(1.0),
            ..Default::default()
        };
        let out = run_shaped(&order.order, &sizes, &mut evo, &transport, config, |_| {
            CheckpointAction::Continue
        })
        .expect("paced run completes");
        assert_eq!(out.records.len(), p * (p - 1));
    }
}
