//! The explain plane: blocking-dependency DAGs, critical paths, blame
//! tables, COZ-style what-if projections, and capture diffing.
//!
//! Everything here operates on plain [`Transfer`] records, so the module
//! has no opinion about where a run came from: `adaptcomm-core` feeds it
//! analytic [`Schedule`]s (via `core::analyze`), the CLI feeds it
//! captures of live runs. A realized transfer is recorded as a
//! [`transfer_span`] (by the runtime's kernel policy, and by `explain
//! --capture`) and read back by its inverse, [`transfers_from_snapshot`].
//!
//! # The DAG, under the §3 port model
//!
//! A processor takes part in at most one send and one receive at a time,
//! so in any realized run each transfer has at most two blocking
//! predecessors: the previous transfer on its *sender's* send port and
//! the previous transfer on its *receiver's* receive port. The gap
//! between its start and the latest predecessor finish is the event's
//! *realized gap*: scheduler-imposed idling when positive (zero under
//! ASAP execution), clock skew between a wall-clock capture's threads
//! when negative.
//! Walking back from the last-finishing event along the *binding*
//! predecessor (the later-finishing one) yields the critical path; its
//! per-hop contributions `finish(e) − finish(pred)` telescope to the
//! completion time exactly.
//!
//! # What-if semantics (and the no-resimulation caveat)
//!
//! [`CausalDag::what_if`] virtually speeds one link `k×` and re-propagates
//! finish times through the DAG with the **realized port orders held
//! fixed** — no re-simulation. This is the COZ-style question "how much
//! of the completion time is this link responsible for, all else equal".
//! A real re-execution could reorder FCFS receive grants and do better
//! (or worse), so the projection is a lower bound on achievable change
//! only in the fixed-order sense; the acceptance tests check that at
//! least half the predicted delta survives re-simulation. Each event
//! keeps its signed realized gap, so at `k = 1` the projection is the
//! realized completion bit for bit, on captures as on schedules. Two
//! more exact guarantees hold: predicted deltas are never negative and
//! never decrease with `k`, and a link with zero blame projects a zero
//! delta.
//!
//! [`Schedule`]: ../../adaptcomm_core/schedule/struct.Schedule.html

use crate::snapshot::{Snapshot, SpanRecord};
use crate::AttrValue;
use std::fmt::Write as _;

/// One realized transfer: the neutral input record of the analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Start time, milliseconds from the run origin.
    pub start_ms: f64,
    /// Duration, milliseconds.
    pub dur_ms: f64,
}

impl Transfer {
    /// Finish time in milliseconds.
    #[inline]
    pub fn finish_ms(&self) -> f64 {
        self.start_ms + self.dur_ms
    }
}

/// One hop of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// Index into [`CausalDag::transfers`].
    pub index: usize,
    /// The transfer occupying this hop.
    pub transfer: Transfer,
    /// Gap between the binding predecessor's finish (or t=0) and this
    /// transfer's start: port idle time on the critical path.
    pub wait_ms: f64,
    /// `finish − binding predecessor finish`; the per-hop contributions
    /// telescope to the completion time exactly.
    pub contribution_ms: f64,
}

/// Critical-path time attributed to one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBlame {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Transfer time this link spends on the critical path.
    pub busy_ms: f64,
    /// Port idle time preceding this link's critical-path hops.
    pub wait_ms: f64,
    /// Number of critical-path hops on this link.
    pub hops: usize,
}

/// Critical-path time attributed to one processor's ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcBlame {
    /// The processor.
    pub proc: usize,
    /// Critical-path time its send port is busy.
    pub send_ms: f64,
    /// Critical-path time its receive port is busy.
    pub recv_ms: f64,
}

/// Per-link and per-processor attribution of the completion time.
#[derive(Debug, Clone, PartialEq)]
pub struct Blame {
    /// Links on the critical path, descending by busy time.
    pub links: Vec<LinkBlame>,
    /// Processors on the critical path, descending by busy time.
    pub procs: Vec<ProcBlame>,
    /// The completion time being attributed.
    pub completion_ms: f64,
}

/// One what-if projection: speed link `src→dst` by `speedup`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIf {
    /// Sending processor of the sped link.
    pub src: usize,
    /// Receiving processor of the sped link.
    pub dst: usize,
    /// The virtual speedup factor (≥ 1).
    pub speedup: f64,
    /// Projected completion with the link sped, fixed port orders.
    pub predicted_ms: f64,
    /// Projected improvement (`baseline − predicted`, never negative).
    pub delta_ms: f64,
}

/// The blocking-dependency DAG of one completed run.
///
/// Built from realized [`Transfer`]s; see the module docs for the
/// dependency rules. All queries are pure and deterministic.
#[derive(Debug, Clone)]
pub struct CausalDag {
    /// Transfers sorted by `(start, src, dst)` — a topological order,
    /// since both predecessors of an event start no later than it.
    transfers: Vec<Transfer>,
    /// Previous transfer on the sender's send port.
    send_pred: Vec<Option<usize>>,
    /// Previous transfer on the receiver's receive port.
    recv_pred: Vec<Option<usize>>,
    /// The latest predecessor finish (0 with none). `start − ready` is
    /// the realized gap: scheduler-imposed idling when positive, a
    /// wall-clock capture's overlap when negative.
    ready: Vec<f64>,
    /// Realized finish times.
    finish: Vec<f64>,
    completion_ms: f64,
    /// The processor ids that occur, ascending; an id's port is its
    /// position here.
    procs: Vec<usize>,
}

/// The port of processor `id` among the ascending ids `procs`.
fn port(procs: &[usize], id: usize) -> usize {
    procs.partition_point(|&p| p < id)
}

impl CausalDag {
    /// Builds the DAG from realized transfers (any order; re-sorted).
    pub fn new(mut transfers: Vec<Transfer>) -> CausalDag {
        transfers.sort_by(|a, b| {
            a.start_ms
                .total_cmp(&b.start_ms)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        let m = transfers.len();
        // Ports are keyed by the id's rank among the ids that occur, so
        // no table outgrows the run it describes, whatever ids a capture
        // names.
        let mut procs: Vec<usize> = Vec::with_capacity(2 * m);
        for t in &transfers {
            procs.extend([t.src, t.dst]);
        }
        procs.sort_unstable();
        procs.dedup();
        let n = procs.len();
        let mut send_last: Vec<Option<usize>> = vec![None; n];
        let mut recv_last: Vec<Option<usize>> = vec![None; n];
        let mut send_pred = vec![None; m];
        let mut recv_pred = vec![None; m];
        let mut ready = vec![0.0; m];
        let mut finish = vec![0.0; m];
        let mut completion_ms = 0.0f64;
        for i in 0..m {
            let t = transfers[i];
            let (src, dst) = (port(&procs, t.src), port(&procs, t.dst));
            send_pred[i] = send_last[src].replace(i);
            recv_pred[i] = recv_last[dst].replace(i);
            ready[i] = f64::max(
                send_pred[i].map(|p| finish[p]).unwrap_or(0.0),
                recv_pred[i].map(|p| finish[p]).unwrap_or(0.0),
            );
            finish[i] = t.finish_ms();
            completion_ms = completion_ms.max(finish[i]);
        }
        CausalDag {
            transfers,
            send_pred,
            recv_pred,
            ready,
            finish,
            completion_ms,
            procs,
        }
    }

    /// The analyzed transfers, in `(start, src, dst)` order. Slack and
    /// path indices refer to positions in this slice.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// When the last transfer finishes (0 for an empty run).
    pub fn completion_ms(&self) -> f64 {
        self.completion_ms
    }

    /// The critical path, source to sink.
    ///
    /// Starts from the last-finishing event (ties: first in sorted
    /// order) and walks the binding predecessor — the later-finishing of
    /// the two port predecessors (ties: send side). The hop
    /// contributions sum to [`CausalDag::completion_ms`] bit-exactly.
    pub fn critical_path(&self) -> Vec<PathStep> {
        let Some(sink) = (0..self.transfers.len()).max_by(|&a, &b| {
            self.finish[a]
                .total_cmp(&self.finish[b])
                // On equal finishes keep the earlier event.
                .then(b.cmp(&a))
        }) else {
            return Vec::new();
        };
        let mut path = Vec::new();
        let mut cur = sink;
        loop {
            let pred = match (self.send_pred[cur], self.recv_pred[cur]) {
                (Some(s), Some(r)) => {
                    if self.finish[s] >= self.finish[r] {
                        Some(s)
                    } else {
                        Some(r)
                    }
                }
                (s, r) => s.or(r),
            };
            let pred_finish = pred.map(|p| self.finish[p]).unwrap_or(0.0);
            path.push(PathStep {
                index: cur,
                transfer: self.transfers[cur],
                wait_ms: self.transfers[cur].start_ms - pred_finish,
                contribution_ms: self.finish[cur] - pred_finish,
            });
            match pred {
                Some(p) => cur = p,
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// Per-event slack: how much later each transfer could finish
    /// without moving the completion time, under fixed port orders.
    /// Critical-path events have zero slack. Indices align with
    /// [`CausalDag::transfers`].
    pub fn slack(&self) -> Vec<f64> {
        let m = self.transfers.len();
        // Latest-finish backward pass: a predecessor must finish early
        // enough for each successor to absorb its extra delay and
        // duration by the successor's own latest finish.
        let mut lf = vec![self.completion_ms; m];
        for i in (0..m).rev() {
            let t = self.transfers[i];
            // Noisy wall-clock captures can overlap a predecessor by a
            // few µs; the bound takes no credit for that.
            let extra_delay = (t.start_ms - self.ready[i]).max(0.0);
            let bound = lf[i] - extra_delay - t.dur_ms;
            if let Some(p) = self.send_pred[i] {
                lf[p] = lf[p].min(bound);
            }
            if let Some(p) = self.recv_pred[i] {
                lf[p] = lf[p].min(bound);
            }
        }
        // Clamp float-subtraction noise: slack is a non-negative
        // quantity by construction.
        (0..m).map(|i| (lf[i] - self.finish[i]).max(0.0)).collect()
    }

    /// Attributes the completion time to links and processors: the time
    /// each resource spends on the critical path.
    pub fn blame(&self) -> Blame {
        let mut links: Vec<LinkBlame> = Vec::new();
        let mut procs: Vec<ProcBlame> = self
            .procs
            .iter()
            .map(|&proc| ProcBlame {
                proc,
                send_ms: 0.0,
                recv_ms: 0.0,
            })
            .collect();
        for step in self.critical_path() {
            let t = step.transfer;
            let row = match links.iter_mut().find(|l| l.src == t.src && l.dst == t.dst) {
                Some(row) => row,
                None => {
                    links.push(LinkBlame {
                        src: t.src,
                        dst: t.dst,
                        busy_ms: 0.0,
                        wait_ms: 0.0,
                        hops: 0,
                    });
                    links.last_mut().unwrap()
                }
            };
            row.busy_ms += t.dur_ms;
            row.wait_ms += step.wait_ms.max(0.0);
            row.hops += 1;
            procs[port(&self.procs, t.src)].send_ms += t.dur_ms;
            procs[port(&self.procs, t.dst)].recv_ms += t.dur_ms;
        }
        links.sort_by(|a, b| {
            b.busy_ms
                .total_cmp(&a.busy_ms)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        procs.retain(|p| p.send_ms + p.recv_ms > 0.0);
        procs.sort_by(|a, b| {
            (b.send_ms + b.recv_ms)
                .total_cmp(&(a.send_ms + a.recv_ms))
                .then(a.proc.cmp(&b.proc))
        });
        Blame {
            links,
            procs,
            completion_ms: self.completion_ms,
        }
    }

    /// Re-propagates finish times with link `src→dst` durations scaled
    /// by `dur_scale`, port orders and each event's signed realized gap
    /// held fixed: an event starts as much later or earlier than it did
    /// as its new ready time moved. At `dur_scale = 1` every finish is
    /// the realized one bit for bit, so the baseline is the completion.
    fn propagate(&self, src: usize, dst: usize, dur_scale: f64) -> f64 {
        let m = self.transfers.len();
        let mut nf = vec![0.0f64; m];
        let mut completion = 0.0f64;
        for i in 0..m {
            let t = self.transfers[i];
            let dur = if t.src == src && t.dst == dst {
                t.dur_ms * dur_scale
            } else {
                t.dur_ms
            };
            let ready = self.send_pred[i]
                .map(|p| nf[p])
                .unwrap_or(0.0)
                .max(self.recv_pred[i].map(|p| nf[p]).unwrap_or(0.0));
            nf[i] = t.start_ms + (ready - self.ready[i]) + dur;
            completion = completion.max(nf[i]);
        }
        completion
    }

    /// Projects the completion time if link `src→dst` ran `speedup`
    /// times faster, with the realized port orders held fixed (see the
    /// module docs for the caveat). At `speedup = 1` the projection is
    /// the realized completion exactly, and `delta_ms` is measured
    /// against it, so it is exactly zero for links off the critical
    /// path, never negative, and non-decreasing in `speedup`.
    pub fn what_if(&self, src: usize, dst: usize, speedup: f64) -> WhatIf {
        assert!(speedup >= 1.0, "speedup must be ≥ 1");
        let predicted = self.propagate(src, dst, 1.0 / speedup);
        WhatIf {
            src,
            dst,
            speedup,
            predicted_ms: predicted,
            delta_ms: self.completion_ms - predicted,
        }
    }

    /// The ranked top-`limit` interventions at the given speedup.
    ///
    /// Only links with nonzero blame are evaluated: under the
    /// fixed-order model a link off the critical path projects a zero
    /// delta, so skipping the other `O(P²)` links loses nothing.
    pub fn interventions(&self, speedup: f64, limit: usize) -> Vec<WhatIf> {
        let mut out: Vec<WhatIf> = self
            .blame()
            .links
            .iter()
            .map(|l| self.what_if(l.src, l.dst, speedup))
            .collect();
        out.sort_by(|a, b| {
            b.delta_ms
                .total_cmp(&a.delta_ms)
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        out.truncate(limit);
        out
    }
}

// ---------------------------------------------------------------------
// Capture extraction
// ---------------------------------------------------------------------

/// A processor id attribute. Ids that no transfer track could hold
/// (see [`transfer_span`]) are not processor ids, like negative or
/// fractional numbers.
fn attr_usize(attrs: &[(String, AttrValue)], key: &str) -> Option<usize> {
    let id = attrs
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            AttrValue::U64(x) => Some(*x),
            AttrValue::F64(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            AttrValue::F64(_) => None,
            AttrValue::Str(s) => s.parse().ok(),
        })?;
    usize::try_from(id)
        .ok()
        .filter(|_| id <= u64::MAX - TRANSFER_TRACKS)
}

/// The link a span is attributed to, when it carried `src`/`dst` attrs.
fn link_of(span: &SpanRecord) -> Option<(usize, usize)> {
    Some((
        attr_usize(&span.attrs, "src")?,
        attr_usize(&span.attrs, "dst")?,
    ))
}

fn dur_ms(span: &SpanRecord) -> f64 {
    span.dur_us as f64 / 1_000.0
}

/// Sender `s`'s transfers are recorded on track `TRANSFER_TRACKS + s`.
/// Thread tracks ([`crate::current_tid`]) count up from 1, so no span
/// or instant recorded on a thread lands on a transfer track.
pub const TRANSFER_TRACKS: u64 = 1 << 32;

/// The `transfer` span of one realized transfer `src → dst`: on its
/// sender's transfer track, with `src`/`dst` attributes (callers may
/// append more, e.g. `bytes`).
pub fn transfer_span(src: usize, dst: usize, start_us: u64, dur_us: u64) -> SpanRecord {
    SpanRecord {
        name: "transfer".into(),
        tid: TRANSFER_TRACKS + src as u64,
        start_us,
        dur_us,
        attrs: vec![("src".into(), src.into()), ("dst".into(), dst.into())],
        trace: None,
    }
}

/// The realized transfers of a capture: every span carrying `src`/`dst`
/// attrs (the inverse of [`transfer_span`]). Start times are measured
/// from the earliest transfer's start, rebased in whole microseconds
/// before the conversion to f64 milliseconds: an absolute timestamp
/// near the top of the u64 range would leave an f64 no bits for the
/// transfer's own scale.
pub fn transfers_from_snapshot(snap: &Snapshot) -> Vec<Transfer> {
    let spans: Vec<(&SpanRecord, (usize, usize))> = snap
        .spans()
        .filter_map(|s| Some((s, link_of(s)?)))
        .collect();
    let base_us = spans.iter().map(|(s, _)| s.start_us).min().unwrap_or(0);
    spans
        .into_iter()
        .map(|(s, (src, dst))| Transfer {
            src,
            dst,
            start_ms: (s.start_us - base_us) as f64 / 1_000.0,
            dur_ms: dur_ms(s),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Capture diffing
// ---------------------------------------------------------------------

/// Aggregate base/head comparison of one phase (span name).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Span name.
    pub name: String,
    /// Spans in the base capture.
    pub base_count: u64,
    /// Spans in the head capture.
    pub head_count: u64,
    /// Base time summed over aligned span pairs, milliseconds.
    pub base_ms: f64,
    /// Head time summed over aligned span pairs, milliseconds.
    pub head_ms: f64,
}

/// Aggregate base/head comparison of one link's transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDelta {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Base time summed over aligned transfer pairs, milliseconds.
    pub base_ms: f64,
    /// Head time summed over aligned transfer pairs, milliseconds.
    pub head_ms: f64,
}

/// Relative change in percent; +100 when something appeared from a zero
/// base, 0 when both sides are zero.
fn delta_pct(base_ms: f64, head_ms: f64) -> f64 {
    if base_ms > 0.0 {
        (head_ms - base_ms) / base_ms * 100.0
    } else if head_ms > 0.0 {
        100.0
    } else {
        0.0
    }
}

impl PhaseDelta {
    /// Relative change in percent (see [`CaptureDiff`]).
    pub fn delta_pct(&self) -> f64 {
        delta_pct(self.base_ms, self.head_ms)
    }
}

impl LinkDelta {
    /// Relative change in percent (see [`CaptureDiff`]).
    pub fn delta_pct(&self) -> f64 {
        delta_pct(self.base_ms, self.head_ms)
    }
}

/// The aligned comparison of two captures.
///
/// Alignment rule: spans are grouped by `(name, tid)` — same phase, same
/// track — sorted by start time, and the i-th base span is paired with
/// the i-th head span. Time sums cover paired spans only, so a
/// truncated capture skews counts (which are reported) rather than
/// totals. Link rows aggregate `transfer` spans by `(src, dst)` the
/// same way.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureDiff {
    /// Per-phase deltas, descending by base time.
    pub phases: Vec<PhaseDelta>,
    /// Per-link deltas, descending by base time.
    pub links: Vec<LinkDelta>,
}

impl CaptureDiff {
    /// The worst positive regression across phases and links, as a
    /// `(label, percent)` pair; `None` when nothing got slower and no
    /// counts changed.
    pub fn worst_regression(&self) -> Option<(String, f64)> {
        let mut worst: Option<(String, f64)> = None;
        let mut offer = |label: String, pct: f64| {
            if pct > 0.0 && worst.as_ref().map(|(_, w)| pct > *w).unwrap_or(true) {
                worst = Some((label, pct));
            }
        };
        for p in &self.phases {
            offer(format!("phase {}", p.name), p.delta_pct());
            if p.head_count > p.base_count {
                let grown =
                    (p.head_count - p.base_count) as f64 / (p.base_count.max(1)) as f64 * 100.0;
                offer(format!("phase {} span count", p.name), grown);
            }
        }
        for l in &self.links {
            offer(format!("link {}\u{2192}{}", l.src, l.dst), l.delta_pct());
        }
        worst
    }

    /// A fixed-width table of the diff — what `adaptcomm obs-diff`
    /// prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.phases.is_empty() {
            out.push_str("no spans in either capture\n");
            return out;
        }
        let width = self
            .phases
            .iter()
            .map(|p| p.name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "{:<width$}  {:>6}  {:>6}  {:>12}  {:>12}  {:>9}  {:>8}",
            "phase", "n.base", "n.head", "base_ms", "head_ms", "delta_ms", "delta%"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<width$}  {:>6}  {:>6}  {:>12.3}  {:>12.3}  {:>+9.3}  {:>+8.2}",
                p.name,
                p.base_count,
                p.head_count,
                p.base_ms,
                p.head_ms,
                p.head_ms - p.base_ms,
                p.delta_pct()
            );
        }
        if !self.links.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<8}  {:>12}  {:>12}  {:>9}  {:>8}",
                "link", "base_ms", "head_ms", "delta_ms", "delta%"
            );
            for l in &self.links {
                let _ = writeln!(
                    out,
                    "{:<8}  {:>12.3}  {:>12.3}  {:>+9.3}  {:>+8.2}",
                    format!("{}\u{2192}{}", l.src, l.dst),
                    l.base_ms,
                    l.head_ms,
                    l.head_ms - l.base_ms,
                    l.delta_pct()
                );
            }
        }
        match self.worst_regression() {
            Some((label, pct)) => {
                let _ = writeln!(out, "\nworst regression: {label} (+{pct:.2}%)");
            }
            None => {
                let _ = writeln!(out, "\nno regressions");
            }
        }
        out
    }
}

/// Diffs two captures. See [`CaptureDiff`] for the alignment rules.
pub fn diff_captures(base: &Snapshot, head: &Snapshot) -> CaptureDiff {
    // Group both sides by (name, tid), keeping capture order (spans are
    // committed in time order; re-sort by start to be safe).
    type Group<'a> = ((String, u64), Vec<&'a SpanRecord>, Vec<&'a SpanRecord>);
    let mut groups: Vec<Group> = Vec::new();
    let group_of = |key: (String, u64), groups: &mut Vec<Group>| match groups
        .iter()
        .position(|(k, _, _)| *k == key)
    {
        Some(i) => i,
        None => {
            groups.push((key, Vec::new(), Vec::new()));
            groups.len() - 1
        }
    };
    for s in base.spans() {
        let i = group_of((s.name.clone(), s.tid), &mut groups);
        groups[i].1.push(s);
    }
    for s in head.spans() {
        let i = group_of((s.name.clone(), s.tid), &mut groups);
        groups[i].2.push(s);
    }

    let mut phases: Vec<PhaseDelta> = Vec::new();
    let mut links: Vec<LinkDelta> = Vec::new();
    for (key, mut b, mut h) in groups {
        b.sort_by_key(|x| x.start_us);
        h.sort_by_key(|x| x.start_us);
        let phase = match phases.iter_mut().find(|p| p.name == key.0) {
            Some(p) => p,
            None => {
                phases.push(PhaseDelta {
                    name: key.0.clone(),
                    base_count: 0,
                    head_count: 0,
                    base_ms: 0.0,
                    head_ms: 0.0,
                });
                phases.last_mut().unwrap()
            }
        };
        phase.base_count += b.len() as u64;
        phase.head_count += h.len() as u64;
        for (bs, hs) in b.iter().zip(h.iter()) {
            let (base_ms, head_ms) = (dur_ms(bs), dur_ms(hs));
            phase.base_ms += base_ms;
            phase.head_ms += head_ms;
            if let (Some(link), Some(_)) = (link_of(bs), link_of(hs)) {
                let row = match links
                    .iter_mut()
                    .find(|l| l.src == link.0 && l.dst == link.1)
                {
                    Some(row) => row,
                    None => {
                        links.push(LinkDelta {
                            src: link.0,
                            dst: link.1,
                            base_ms: 0.0,
                            head_ms: 0.0,
                        });
                        links.last_mut().unwrap()
                    }
                };
                row.base_ms += base_ms;
                row.head_ms += head_ms;
            }
        }
    }
    phases.sort_by(|a, b| b.base_ms.total_cmp(&a.base_ms).then(a.name.cmp(&b.name)));
    links.sort_by(|a, b| {
        b.base_ms
            .total_cmp(&a.base_ms)
            .then(a.src.cmp(&b.src))
            .then(a.dst.cmp(&b.dst))
    });
    CaptureDiff { phases, links }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Event;

    /// A hand-built four-hop chain with one slack event:
    ///
    /// ```text
    /// a: 0→1 @0  dur 10          (send chain of 0, recv chain of 1)
    /// b: 0→2 @10 dur 5           (after a on 0's send port)
    /// c: 3→2 @15 dur 20          (after b on 2's receive port)
    /// d: 3→1 @35 dur 2           (after c on 3's send port)
    /// e: 1→3 @0  dur 4           (off-path, slack 33)
    /// ```
    fn pipeline() -> Vec<Transfer> {
        let t = |src, dst, start_ms: f64, dur_ms: f64| Transfer {
            src,
            dst,
            start_ms,
            dur_ms,
        };
        vec![
            t(0, 1, 0.0, 10.0),
            t(0, 2, 10.0, 5.0),
            t(3, 2, 15.0, 20.0),
            t(3, 1, 35.0, 2.0),
            t(1, 3, 0.0, 4.0),
        ]
    }

    #[test]
    fn critical_path_telescopes_to_completion() {
        let dag = CausalDag::new(pipeline());
        assert_eq!(dag.completion_ms(), 37.0);
        let path = dag.critical_path();
        let hops: Vec<(usize, usize)> = path
            .iter()
            .map(|s| (s.transfer.src, s.transfer.dst))
            .collect();
        assert_eq!(hops, [(0, 1), (0, 2), (3, 2), (3, 1)]);
        let total: f64 = path.iter().map(|s| s.contribution_ms).sum();
        assert_eq!(total, dag.completion_ms());
        assert!(path.iter().all(|s| s.wait_ms == 0.0));
    }

    #[test]
    fn slack_is_zero_on_path_and_exact_off_path() {
        let dag = CausalDag::new(pipeline());
        let slack = dag.slack();
        for step in dag.critical_path() {
            assert_eq!(slack[step.index], 0.0, "critical hop {step:?}");
        }
        let off = dag
            .transfers()
            .iter()
            .position(|t| t.src == 1 && t.dst == 3)
            .unwrap();
        assert_eq!(slack[off], 33.0);
    }

    #[test]
    fn blame_attributes_path_time_to_links_and_procs() {
        let dag = CausalDag::new(pipeline());
        let blame = dag.blame();
        let rows: Vec<(usize, usize, f64)> = blame
            .links
            .iter()
            .map(|l| (l.src, l.dst, l.busy_ms))
            .collect();
        assert_eq!(rows, [(3, 2, 20.0), (0, 1, 10.0), (0, 2, 5.0), (3, 1, 2.0)]);
        let total: f64 = blame.links.iter().map(|l| l.busy_ms).sum();
        assert_eq!(total, 37.0, "no idle in this chain: blame covers all");
        let p3 = blame.procs.iter().find(|p| p.proc == 3).unwrap();
        assert_eq!((p3.send_ms, p3.recv_ms), (22.0, 0.0));
        let p2 = blame.procs.iter().find(|p| p.proc == 2).unwrap();
        assert_eq!((p2.send_ms, p2.recv_ms), (0.0, 25.0));
        assert!(blame.procs.iter().all(|p| p.proc != 1 || p.recv_ms == 12.0));
    }

    #[test]
    fn what_if_speeds_critical_link_exactly() {
        let dag = CausalDag::new(pipeline());
        let w = dag.what_if(3, 2, 2.0);
        // c shrinks 20 → 10: a(10) b(15) c(15+10=25) d(27).
        assert_eq!(w.predicted_ms, 27.0);
        assert_eq!(w.delta_ms, 10.0);
    }

    #[test]
    fn what_if_on_zero_blame_link_is_exactly_zero() {
        let dag = CausalDag::new(pipeline());
        let slack = dag.slack();
        let off = dag
            .transfers()
            .iter()
            .position(|t| t.src == 1 && t.dst == 3)
            .unwrap();
        for k in [1.0, 2.0, 8.0, 1e6] {
            let w = dag.what_if(1, 3, k);
            assert_eq!(w.delta_ms, 0.0, "speedup {k}");
            assert!(w.delta_ms <= slack[off]);
        }
    }

    #[test]
    fn what_if_is_monotone_and_nonnegative() {
        let dag = CausalDag::new(pipeline());
        for (src, dst) in [(0, 1), (0, 2), (3, 2), (3, 1), (1, 3)] {
            let mut prev = 0.0;
            for k in [1.0, 1.5, 2.0, 4.0, 16.0] {
                let w = dag.what_if(src, dst, k);
                assert!(w.delta_ms >= prev - 1e-12, "{src}->{dst} at {k}");
                assert!(w.delta_ms >= 0.0);
                prev = w.delta_ms;
            }
        }
    }

    #[test]
    fn interventions_rank_the_critical_link_first() {
        let dag = CausalDag::new(pipeline());
        let top = dag.interventions(2.0, 3);
        assert_eq!((top[0].src, top[0].dst), (3, 2));
        assert_eq!(top[0].delta_ms, 10.0);
        assert!(top.windows(2).all(|w| w[0].delta_ms >= w[1].delta_ms));
    }

    #[test]
    fn sparse_ids_analyze_like_their_dense_relabelling() {
        // The pipeline's processors {0, 1, 2, 3} renamed, order kept.
        let ids = [0, 7, 1_000_000, usize::MAX];
        let sparse: Vec<Transfer> = pipeline()
            .into_iter()
            .map(|t| Transfer {
                src: ids[t.src],
                dst: ids[t.dst],
                ..t
            })
            .collect();
        let (dense, sparse) = (CausalDag::new(pipeline()), CausalDag::new(sparse));
        let rename = |(src, dst): (usize, usize)| (ids[src], ids[dst]);
        let hops = |dag: &CausalDag| -> Vec<_> {
            let path = dag.critical_path();
            path.iter()
                .map(|s| (s.transfer.src, s.transfer.dst, s.wait_ms, s.contribution_ms))
                .collect()
        };
        let dense_hops: Vec<_> = hops(&dense)
            .into_iter()
            .map(|(s, d, w, c)| (ids[s], ids[d], w, c))
            .collect();
        assert_eq!(hops(&sparse), dense_hops);
        assert_eq!(sparse.slack(), dense.slack());
        let (sb, db) = (sparse.blame(), dense.blame());
        assert_eq!(sb.completion_ms, db.completion_ms);
        let links: Vec<_> = db
            .links
            .iter()
            .map(|l| {
                let (src, dst) = rename((l.src, l.dst));
                LinkBlame { src, dst, ..*l }
            })
            .collect();
        assert_eq!(sb.links, links);
        let procs: Vec<_> = db
            .procs
            .iter()
            .map(|p| ProcBlame {
                proc: ids[p.proc],
                ..*p
            })
            .collect();
        assert_eq!(sb.procs, procs);
        let what_if: Vec<_> = dense
            .interventions(2.0, 10)
            .into_iter()
            .map(|w| {
                let (src, dst) = rename((w.src, w.dst));
                WhatIf { src, dst, ..w }
            })
            .collect();
        assert_eq!(sparse.interventions(2.0, 10), what_if);
    }

    #[test]
    fn ids_no_transfer_track_could_hold_are_not_transfers() {
        let span = |src: AttrValue| {
            let mut s = transfer_span(0, 1, 0, 10);
            s.attrs[0].1 = src;
            Event::Span(s)
        };
        let largest = u64::MAX - TRANSFER_TRACKS;
        let snap = Snapshot {
            events: vec![
                span(AttrValue::Str(u64::MAX.to_string())),
                span(AttrValue::U64(largest + 1)),
                span(AttrValue::F64(1e300)),
                span(AttrValue::F64(-1.0)),
                span(AttrValue::F64(0.5)),
                span(AttrValue::U64(largest)),
            ],
        };
        let transfers = transfers_from_snapshot(&snap);
        assert_eq!(transfers.len(), 1);
        assert_eq!(transfers[0].src as u64, largest);
    }

    #[test]
    fn empty_run_analyzes_to_nothing() {
        let dag = CausalDag::new(Vec::new());
        assert_eq!(dag.completion_ms(), 0.0);
        assert!(dag.critical_path().is_empty());
        assert!(dag.blame().links.is_empty());
        assert!(dag.slack().is_empty());
    }

    fn capture_snapshot() -> Snapshot {
        let span =
            |src, dst, start_us, dur_us| Event::Span(transfer_span(src, dst, start_us, dur_us));
        Snapshot {
            events: vec![
                span(0, 1, 0, 10_000),
                span(0, 2, 10_000, 5_000),
                span(3, 2, 15_000, 20_000),
                span(3, 1, 35_000, 2_000),
                span(1, 3, 0, 4_000),
            ],
        }
    }

    #[test]
    fn transfers_extract_from_both_exporter_formats() {
        // The JSONL the codec writes (integers) and the `3.0`-style
        // numbers older captures carry.
        let snap = capture_snapshot();
        let text = snap.to_jsonl();
        let older = text
            .replace(",\"start_us\"", ".0,\"start_us\"")
            .replace(",\"dur_us\"", ".0,\"dur_us\"")
            .replace(",\"attrs\"", ".0,\"attrs\"")
            .replace(",\"dst\"", ".0,\"dst\"")
            .replace("}}", ".0}}");
        assert_ne!(older, text);
        for text in [text.as_str(), &older] {
            let transfers = transfers_from_snapshot(&Snapshot::from_jsonl(text).unwrap());
            assert_eq!(transfers.len(), 5);
            let dag = CausalDag::new(transfers);
            assert_eq!(dag.completion_ms(), 37.0);
            let blame = dag.blame();
            assert_eq!((blame.links[0].src, blame.links[0].dst), (3, 2));
        }
    }

    #[test]
    fn a_capture_near_the_top_of_u64_keeps_its_transfer_scale() {
        // One 2.047 ms transfer starting 2047 us short of u64::MAX: made
        // 2x faster it saves half its time, as it would at any start.
        let snap = Snapshot {
            events: vec![Event::Span(transfer_span(0, 1, u64::MAX - 2047, 2047))],
        };
        let transfers = transfers_from_snapshot(&snap);
        assert_eq!(transfers[0].start_ms, 0.0);
        let dag = CausalDag::new(transfers);
        assert_eq!(dag.completion_ms(), 2.047);
        let w = dag.interventions(2.0, 1);
        assert_eq!((w[0].src, w[0].dst, w[0].delta_ms), (0, 1, 1.0235));
    }

    #[test]
    fn self_diff_is_all_zero() {
        let snap = capture_snapshot();
        let diff = diff_captures(&snap, &snap);
        assert!(diff.worst_regression().is_none(), "{diff:?}");
        for p in &diff.phases {
            assert_eq!(p.base_count, p.head_count);
            assert_eq!(p.base_ms, p.head_ms);
            assert_eq!(p.delta_pct(), 0.0);
        }
        for l in &diff.links {
            assert_eq!(l.delta_pct(), 0.0);
        }
        assert!(diff.render().contains("no regressions"));
    }

    #[test]
    fn diff_localizes_a_perturbed_link() {
        let base = capture_snapshot();
        let mut head = base.clone();
        // Slow the 3→2 transfer by 50%.
        for e in &mut head.events {
            if let Event::Span(s) = e {
                if attr_usize(&s.attrs, "src") == Some(3) && attr_usize(&s.attrs, "dst") == Some(2)
                {
                    s.dur_us += 10_000;
                }
            }
        }
        let diff = diff_captures(&base, &head);
        let (label, pct) = diff.worst_regression().unwrap();
        assert_eq!(label, "link 3\u{2192}2");
        assert!((pct - 50.0).abs() < 1e-9, "{pct}");
        let rendered = diff.render();
        assert!(rendered.contains("worst regression: link 3\u{2192}2"));
    }

    #[test]
    fn diff_tolerates_truncated_head() {
        let base = capture_snapshot();
        let mut head = base.clone();
        head.events.pop(); // lose the last span
        let diff = diff_captures(&base, &head);
        let phase = diff.phases.iter().find(|p| p.name == "transfer").unwrap();
        assert_eq!(phase.base_count, 5);
        assert_eq!(phase.head_count, 4);
        // Paired sums stay comparable: the orphan base span is excluded.
        assert_eq!(phase.base_ms, phase.head_ms);
    }

    #[test]
    fn wall_clock_noise_is_clamped() {
        // A capture where the receiver-port successor starts 1 µs before
        // its predecessor finished (measurement skew) still analyzes.
        let t = |src, dst, start_ms: f64, dur_ms: f64| Transfer {
            src,
            dst,
            start_ms,
            dur_ms,
        };
        let dag = CausalDag::new(vec![t(0, 1, 0.0, 10.0), t(2, 1, 9.999, 5.0)]);
        let path = dag.critical_path();
        let total: f64 = path.iter().map(|s| s.contribution_ms).sum();
        assert_eq!(total, dag.completion_ms());
        assert!(dag.what_if(0, 1, 2.0).delta_ms >= 0.0);
    }

    #[test]
    fn what_if_at_speedup_one_is_the_realized_completion() {
        // The overlapping pair above: the successor's 1 µs head start is
        // kept, so nothing sped means nothing moves.
        let t = |src, dst, start_ms: f64, dur_ms: f64| Transfer {
            src,
            dst,
            start_ms,
            dur_ms,
        };
        let dag = CausalDag::new(vec![t(0, 1, 0.0, 10.0), t(2, 1, 9.999, 5.0)]);
        assert_eq!(dag.completion_ms(), 14.999);
        for (src, dst) in [(0, 1), (2, 1), (5, 5)] {
            let w = dag.what_if(src, dst, 1.0);
            assert_eq!((w.predicted_ms, w.delta_ms), (14.999, 0.0), "{src}->{dst}");
        }
        // Sped 2x, 0->1 ends at 5 and pulls its successor 5 ms earlier.
        assert_eq!(dag.what_if(0, 1, 2.0).predicted_ms, 9.999);
        // The same on a capture and on the pipeline schedule.
        let capture = CausalDag::new(transfers_from_snapshot(&capture_snapshot()));
        for dag in [capture, CausalDag::new(pipeline())] {
            for t in dag.transfers() {
                assert_eq!(
                    dag.what_if(t.src, t.dst, 1.0).predicted_ms,
                    dag.completion_ms()
                );
            }
        }
    }
}
