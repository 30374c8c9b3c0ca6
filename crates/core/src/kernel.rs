//! The §3.2 port model, written once: one event loop that every modeled
//! execution in the workspace is a [`Policy`] over.
//!
//! The kernel owns the *mechanism*:
//!
//! * **per-sender queues** — a sender transmits its remaining
//!   destinations strictly in list order;
//! * **ports** — one send port and one receive port per node (a receive
//!   port holds up to [`Policy::fan_in`] transfers that were admitted
//!   together, one in the base model);
//! * **the pending queue** of each receiver, kept in `(arrival, sender)`
//!   order, and its FCFS grant: the first request that fits goes first;
//! * **the calendar**, totally ordered by `(time, class, key, seq)`, and
//!   its typed rejection of non-finite or backwards event times
//!   ([`ScheduleError`]);
//! * **the outcome** — transfers in start order, the order they completed
//!   in, which [`completion_order`] turns into the `(finish, src, dst)`
//!   order by re-sorting ties at one instant, and the makespan.
//!
//! A policy decides only what actually differs between the executors: how
//! a transfer is **priced** at its start, what a port **admits**
//! ([`Policy::fan_in`], [`Policy::fits`]), what happens **on completion**
//! (nothing, a checkpoint that may [`Ports::replan`], a drain that sets a
//! [`Ports::timer`]) and whether the run goes on ([`Policy::stopped`]). A
//! closure `FnMut(src, dst) -> ms` is the zero-policy instantiation (a
//! price and nothing else): that is `execute_listed`.
//!
//! # Tie order — the rule
//!
//! Events at one instant pop by class, then key, then insertion:
//!
//! | class | event | key |
//! |---|---|---|
//! | 0 | a sender requests its next destination | sender id (batch mates: the id of the first admitted, so they pop together in admission order) |
//! | 1 | a transfer completes: its receive port frees and, if no receive is left in flight, the FCFS head requests again at this instant | receiver id |
//! | 2 | a policy timer fires (a drain finished), then the port re-admits as above | receiver id |
//!
//! So a grant at time `t` sees every request that arrived at or before
//! `t`, and what remains is settled by processor id — the paper's
//! "arbitrary (but fixed) order". A sender's release is a class-0 event
//! at its transfer's finish, so a transfer that finishes at the instant it
//! starts (an exact-zero cost cell) lets its sender re-request before any
//! receiver at that instant frees (`tests/port_kernel.rs` holds the
//! 3-processor instance: 30 ms, not 20). One calendar entry per transfer
//! carries both: it pops as the release, and the completion is handled
//! straight after unless the calendar then holds an event that pops
//! before it, in which case it goes back as an entry of its own. Every
//! policy runs under this one rule.

use crate::schedule::{sort_by_instant, ScheduledEvent};
use adaptcomm_model::units::Millis;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

/// Why an event could not be scheduled: the event stream is degenerate
/// (e.g. an injected-fault scenario priced a transfer at NaN), which is a
/// property of the *scenario*, not of the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// The event time is NaN or infinite.
    NonFiniteTime {
        /// The offending time.
        time: f64,
    },
    /// The event lies in the past of the calendar clock.
    TimeTravel {
        /// The offending time.
        time: f64,
        /// The calendar's current clock.
        now: f64,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            // These strings are load-bearing: the panicking entry points
            // format them, and callers match on "finite" and "clock is
            // already".
            ScheduleError::NonFiniteTime { time } => {
                write!(f, "event time must be finite, got {time}")
            }
            ScheduleError::TimeTravel { time, now } => {
                write!(
                    f,
                    "event scheduled at {time} but the clock is already at {now}"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Why a run could not proceed: the scenario produced a degenerate event
/// stream. Fallible entry points return it so a harness thread does not
/// abort and poison shared state; the others panic with its message.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A transfer produced an unschedulable completion event.
    DegenerateEvent {
        /// Sending processor of the offending transfer.
        src: usize,
        /// Receiving processor of the offending transfer.
        dst: usize,
        /// The calendar's rejection.
        cause: ScheduleError,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RunError::DegenerateEvent { src, dst, cause } = self;
        write!(f, "degenerate event for transfer {src} -> {dst}: {cause}")
    }
}

impl std::error::Error for RunError {}

/// The decisions that differ between the modeled executors. Everything
/// has the base model's answer as its default except the price.
pub trait Policy {
    /// **Price.** Milliseconds the receive starting `now` at `dst`
    /// occupies its ports. `senders` is the one sender of the base model,
    /// or the batch admitted together (all members start and finish
    /// together). Called exactly once per start, in start order. A
    /// non-finite price stops the run before the transfer starts — its
    /// message stays at the head of its sender's queue.
    fn price(&mut self, now: f64, senders: &[usize], dst: usize) -> f64;

    /// **Admit.** How many pending requests a free port takes at once.
    fn fan_in(&self) -> usize {
        1
    }

    /// **Admit.** Whether `dst` can take `src`'s next message right now;
    /// a request that does not fit waits while later ones that do may
    /// pass it.
    fn fits(&self, _src: usize, _dst: usize) -> bool {
        true
    }

    /// `src` waits at a port that is free at `now` but that its message
    /// does not [`fit`](Self::fits) — on its request, or each time the
    /// port frees or a timer fires and it is passed over again.
    fn refused(&mut self, _now: f64, _src: usize) {}

    /// **On completion** of `src → dst`, after the port has freed and the
    /// completion has been counted, before the port re-admits.
    fn on_completion(&mut self, _ports: &mut Ports, _now: f64, _src: usize, _dst: usize) {}

    /// A [`Ports::timer`] set for `dst` fired; the port re-admits after.
    fn on_timer(&mut self, _ports: &mut Ports, _now: f64, _dst: usize) {}

    /// **Stop.** Asked after every completion and timer hook: `true` ends
    /// the run there, before the port re-admits.
    fn stopped(&self) -> bool {
        false
    }
}

/// The zero-policy instantiation: a price per `(src, dst)` and nothing
/// else.
impl<F: FnMut(usize, usize) -> f64> Policy for F {
    fn price(&mut self, _now: f64, senders: &[usize], dst: usize) -> f64 {
        self(senders[0], dst)
    }
}

/// A calendar entry; its order is the `(time, class, key, seq)` of the
/// module docs and the only event ordering in the port model. Class, key
/// and sequence number share one word, most significant first, so the
/// last three are one integer comparison and an entry is three words.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    /// `class << 62 | key << 38 | seq`.
    rank: u64,
    /// READY: the sender. TIMER: the receiver.
    who: u32,
    /// The transfer's index in [`Ports::started`]: DONE, and READY with
    /// [`CARRIES`] set when the release carries the transfer's completion.
    idx: u32,
}

/// Event classes: a sender (`who`) requests · transfer `idx` completes ·
/// a policy timer for `who` fires.
const READY: u64 = 0;
const DONE: u64 = 1;
const TIMER: u64 = 2;
const KEY_BITS: u32 = 24;
const SEQ_BITS: u32 = 38;
const CLASS_SHIFT: u32 = KEY_BITS + SEQ_BITS;
/// The flag bit of [`Entry::idx`], set on a release that carries its
/// transfer's completion: an index has 31 bits, so a run moves at most
/// 2³¹ messages (P ≤ 46 340).
const CARRIES: u32 = 1 << 31;

impl PartialEq for Entry {
    fn eq(&self, o: &Self) -> bool {
        self.cmp(o).is_eq()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Entry {
    fn cmp(&self, o: &Self) -> Ordering {
        self.time.total_cmp(&o.time).then(self.rank.cmp(&o.rank))
    }
}

/// The mechanism's state, as a policy's completion and timer hooks see
/// it.
#[derive(Debug)]
pub struct Ports {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    clock: f64,
    /// Every sender's remaining destinations, back to back: sender
    /// `src` owns `flat[head[src]..end[src]]` and starts from the front.
    flat: Vec<usize>,
    head: Vec<usize>,
    end: Vec<usize>,
    /// Per receiver: requests waiting for the port, in `(arrival,
    /// sender)` order.
    pending: Vec<Vec<(f64, usize)>>,
    /// Per receiver: receives in flight.
    receiving: Vec<usize>,
    send_busy_until: Vec<f64>,
    recv_busy_until: Vec<f64>,
    events: Vec<ScheduledEvent>,
    /// Indices into `events`, in the order the transfers completed.
    completions: Vec<u32>,
    batch: Vec<usize>,
    /// Requests made at the current instant, not yet served.
    instant: Vec<usize>,
}

impl Ports {
    /// Ports at rest at `start_at`: free from then, nothing started.
    fn new(lists: &[Vec<usize>], start_at: f64) -> Self {
        let p = lists.len();
        let messages = lists.iter().map(Vec::len).sum();
        let mut ports = Ports {
            heap: BinaryHeap::new(),
            seq: 0,
            clock: start_at,
            flat: Vec::new(),
            head: Vec::new(),
            end: Vec::new(),
            pending: vec![Vec::new(); p],
            receiving: vec![0; p],
            send_busy_until: vec![start_at; p],
            recv_busy_until: vec![start_at; p],
            events: Vec::with_capacity(messages),
            completions: Vec::with_capacity(messages),
            batch: Vec::new(),
            instant: Vec::new(),
        };
        ports.set_queues(lists.iter().map(Vec::as_slice));
        ports
    }

    /// `src`'s not-yet-started destinations, in send order.
    pub fn remaining(&self, src: usize) -> &[usize] {
        &self.flat[self.head[src]..self.end[src]]
    }

    fn set_queues<'a>(&mut self, lists: impl Iterator<Item = &'a [usize]>) {
        self.flat.clear();
        self.head.clear();
        self.end.clear();
        for list in lists {
            self.head.push(self.flat.len());
            self.flat.extend_from_slice(list);
            self.end.push(self.flat.len());
        }
    }

    /// Every transfer started so far, in start order.
    pub fn started(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// Transfers completed so far, the one being reported included.
    pub fn completed(&self) -> usize {
        self.completions.len()
    }

    /// When each send port finishes the last transfer it started.
    pub fn send_busy_until(&self) -> &[f64] {
        &self.send_busy_until
    }

    /// When each receive port finishes the last transfer it started.
    pub fn recv_busy_until(&self) -> &[f64] {
        &self.recv_busy_until
    }

    /// Replaces the remaining queues. Pending requests are cancelled —
    /// their messages are part of `queues` — and every blocked sender
    /// requests afresh at this instant (in the order the requests were
    /// waiting, which the calendar's sender key overrides). In-flight
    /// transfers are untouched.
    pub fn replan(&mut self, queues: Vec<Vec<usize>>) {
        assert_eq!(queues.len(), self.head.len(), "replan changed P");
        self.set_queues(queues.iter().map(Vec::as_slice));
        for dst in 0..self.pending.len() {
            for (_, src) in std::mem::take(&mut self.pending[dst]) {
                self.ready(src);
            }
        }
    }

    /// Schedules [`Policy::on_timer`] for `dst` at time `at`. Panics on a
    /// non-finite or past `at`: a timer is the policy's own arithmetic,
    /// not scenario input.
    pub fn timer(&mut self, at: f64, dst: usize) {
        if let Err(e) = self.schedule(at, TIMER, dst, dst, 0) {
            panic!("{e}");
        }
    }

    /// Schedules a `class` event tie-keyed by processor `key`, with the
    /// entry's `who` and `idx`.
    fn schedule(
        &mut self,
        time: f64,
        class: u64,
        key: usize,
        who: usize,
        idx: u32,
    ) -> Result<(), ScheduleError> {
        if !time.is_finite() {
            return Err(ScheduleError::NonFiniteTime { time });
        }
        if time < self.clock - 1e-9 {
            return Err(ScheduleError::TimeTravel {
                time,
                now: self.clock,
            });
        }
        assert!(self.seq < 1 << SEQ_BITS, "calendar sequence exhausted");
        self.heap.push(Reverse(Entry {
            time,
            rank: class << CLASS_SHIFT | (key as u64) << SEQ_BITS | self.seq,
            who: who as u32,
            idx,
        }));
        self.seq += 1;
        Ok(())
    }

    /// The next event.
    fn pop(&mut self) -> Option<Entry> {
        let Reverse(e) = self.heap.pop()?;
        self.clock = self.clock.max(e.time);
        Some(e)
    }

    /// The completion a popped release `e` carries, if it is due now: if
    /// an event pops before it (another at this instant, or a zero-cost
    /// transfer the release started), it goes back as an entry of its own.
    fn carried(&mut self, e: Entry) -> Option<u32> {
        if e.idx & CARRIES == 0 {
            return None;
        }
        let idx = e.idx & !CARRIES;
        let dst = self.events[idx as usize].dst as u64;
        let rank = DONE << CLASS_SHIFT | dst << SEQ_BITS | e.rank & ((1 << SEQ_BITS) - 1);
        let done = Entry { rank, idx, ..e };
        if self.heap.peek().is_some_and(|Reverse(top)| *top < done) {
            self.heap.push(Reverse(done));
            return None;
        }
        Some(idx)
    }

    /// Transfer `idx` completes at `now`; returns its receiver.
    fn complete<P: Policy>(&mut self, policy: &mut P, idx: u32, now: f64) -> usize {
        let ScheduledEvent { src, dst, .. } = self.events[idx as usize];
        self.receiving[dst] -= 1;
        self.completions.push(idx);
        policy.on_completion(self, now, src, dst);
        dst
    }

    /// `src` requests its next destination at the current instant: a
    /// class-0 event at `now`, served by [`Ports::serve_instant`].
    fn ready(&mut self, src: usize) {
        self.instant.push(src);
    }

    /// Serves the requests made at the current instant since the last
    /// call. They are class-0 events at `now`, made while a completion or
    /// a timer was handled (or before the first event) — when no other
    /// class-0 event at `now` is left in the calendar — so they would pop
    /// next, by key and then insertion, ahead of everything else. A lone
    /// request is trivially in order; only several at once need the
    /// calendar to sort them (and to slot a zero-cost transfer's release
    /// between them): the first instant, and a replan.
    fn serve_instant<P: Policy>(&mut self, policy: &mut P, now: f64) -> Result<(), RunError> {
        if self.instant.len() > 1 {
            for k in 0..self.instant.len() {
                let src = self.instant[k];
                self.schedule(now, READY, src, src, 0)
                    .expect("the current instant is finite and not in the past");
            }
            self.instant.clear();
        } else if let Some(src) = self.instant.pop() {
            self.request(policy, src, now)?;
        }
        Ok(())
    }

    /// The FCFS grant: removes the first request waiting at `dst` that
    /// fits — the earliest `(arrival, sender)` among those.
    fn take_head<P: Policy>(&mut self, policy: &P, dst: usize) -> Option<usize> {
        let head = self.pending[dst]
            .iter()
            .position(|&(_, src)| policy.fits(src, dst))?;
        Some(self.pending[dst].remove(head).1)
    }

    /// A free port re-admits: its FCFS head requests again at `now`, so
    /// that pricing and bookkeeping have the single start path of
    /// [`Ports::request`] (which also pulls the head's batch mates). The
    /// head's queue still starts with `dst`: queues pop only at a start.
    /// If requests wait and none fits, each is told it was refused.
    fn admit<P: Policy>(&mut self, policy: &mut P, dst: usize, now: f64) {
        if self.receiving[dst] > 0 {
            return;
        }
        match self.take_head(policy, dst) {
            Some(src) => self.ready(src),
            None => self.pending[dst]
                .iter()
                .for_each(|&(_, src)| policy.refused(now, src)),
        }
    }

    fn request<P: Policy>(&mut self, policy: &mut P, src: usize, now: f64) -> Result<(), RunError> {
        let Some(&dst) = self.remaining(src).first() else {
            return Ok(()); // the sender has finished its list
        };
        let port_free = self.receiving[dst] == 0;
        if !port_free || !policy.fits(src, dst) {
            // In `(arrival, sender)` order. Arrivals do not go backwards,
            // so the walk back passes only this instant's higher ids.
            let queue = &mut self.pending[dst];
            let after = |&(t, s): &(f64, usize)| t.total_cmp(&now).then(s.cmp(&src)).is_lt();
            let at = queue.iter().rposition(after).map_or(0, |k| k + 1);
            queue.insert(at, (now, src));
            if port_free {
                policy.refused(now, src);
            }
            return Ok(());
        }
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        batch.push(src);
        while batch.len() < policy.fan_in() {
            match self.take_head(policy, dst) {
                Some(mate) => batch.push(mate),
                None => break,
            }
        }
        let finish = now + policy.price(now, &batch, dst);
        for &src in &batch {
            let idx = self.events.len() as u32 | CARRIES;
            self.schedule(finish, READY, batch[0], src, idx)
                .map_err(|cause| RunError::DegenerateEvent { src, dst, cause })?;
            self.head[src] += 1;
            self.receiving[dst] += 1;
            self.send_busy_until[src] = finish;
            self.events.push(ScheduledEvent {
                src,
                dst,
                start: Millis::new(now),
                finish: Millis::new(finish),
            });
        }
        self.recv_busy_until[dst] = finish;
        self.batch = batch;
        Ok(())
    }
}

/// What a kernel run realized.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every transfer, in the order they started.
    pub events: Vec<ScheduledEvent>,
    /// Indices into `events`, in the order the transfers completed
    /// (ascending by finish; ties in the calendar's order).
    pub completions: Vec<u32>,
    /// When the last transfer finished.
    pub makespan: Millis,
}

/// Sorts transfers into completion order, in place: by the `(finish, src,
/// dst)` (unique: a message runs once) `key` reads off the caller's type;
/// in a kernel's completion sequence only each instant's ties move.
pub fn completion_order<T>(transfers: &mut [T], key: impl Fn(&T) -> (Millis, usize, usize)) {
    sort_by_instant(transfers, |t| key(t).0.as_ms(), |t| (key(t).1, key(t).2));
}

/// Executes the per-sender destination `lists` under `policy`, every
/// sender requesting at time zero.
pub fn run<P: Policy>(lists: &[Vec<usize>], policy: &mut P) -> Result<Outcome, RunError> {
    let (ports, end) = run_from(lists, 0.0, policy);
    end.map(|()| Outcome {
        makespan: (ports.events.iter().map(|e| e.finish)).fold(Millis::ZERO, Millis::max),
        events: ports.events,
        completions: ports.completions,
    })
}

/// [`run`] from `start_at` — every sender first requests then, every port
/// is free from then; `lists` may be partial (a retry's remainder). Its
/// loop is the only place in the workspace where a port-model event is
/// popped. Hands back the mechanism's state: final when the run went
/// to its end, and otherwise as it stood when the calendar refused an
/// event (`Err`) or the policy said [`stopped`](Policy::stopped) — queues
/// ([`Ports::remaining`]), port availability, transfers started.
pub fn run_from<P: Policy>(
    lists: &[Vec<usize>],
    start_at: f64,
    policy: &mut P,
) -> (Ports, Result<(), RunError>) {
    assert!(
        lists.len() <= 1 << KEY_BITS,
        "more processors than a key holds"
    );
    assert!(
        lists.iter().map(Vec::len).sum::<usize>() <= CARRIES as usize,
        "more messages than an entry's index holds"
    );
    let mut ports = Ports::new(lists, start_at);
    let end = ports.drain(policy, start_at);
    (ports, end)
}

impl Ports {
    /// The event loop.
    fn drain<P: Policy>(&mut self, policy: &mut P, start_at: f64) -> Result<(), RunError> {
        for src in 0..self.head.len() {
            self.ready(src);
        }
        self.serve_instant(policy, start_at)?;
        while let Some(e) = self.pop() {
            let now = e.time;
            let dst = match e.rank >> CLASS_SHIFT {
                READY => {
                    self.request(policy, e.who as usize, now)?;
                    let Some(idx) = self.carried(e) else {
                        continue;
                    };
                    self.complete(policy, idx, now)
                }
                DONE => self.complete(policy, e.idx, now),
                _ => {
                    policy.on_timer(self, now, e.who as usize);
                    e.who as usize
                }
            };
            if policy.stopped() {
                return Ok(());
            }
            self.admit(policy, dst, now);
            self.serve_instant(policy, now)?;
        }
        debug_assert!(self.head == self.end, "every message must run");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports() -> Ports {
        Ports::new(&[vec![], vec![], vec![]], 0.0)
    }

    /// Pops everything: `(class, who, idx)`.
    fn drain(ports: &mut Ports) -> Vec<(u64, usize, u32)> {
        std::iter::from_fn(|| ports.pop())
            .map(|e| (e.rank >> CLASS_SHIFT, e.who as usize, e.idx))
            .collect()
    }

    #[test]
    fn calendar_pops_by_time_then_class_then_processor_id() {
        let mut c = ports();
        c.schedule(5.0, READY, 0, 0, 0).unwrap();
        c.schedule(2.0, TIMER, 1, 1, 0).unwrap();
        c.schedule(2.0, DONE, 2, 0, 7).unwrap();
        c.schedule(2.0, READY, 2, 2, 0).unwrap();
        c.schedule(2.0, READY, 1, 1, 0).unwrap();
        assert_eq!(
            drain(&mut c),
            [
                (READY, 1, 0),
                (READY, 2, 0),
                (DONE, 0, 7),
                (TIMER, 1, 0),
                (READY, 0, 0)
            ]
        );
        assert_eq!(c.clock, 5.0);
    }

    #[test]
    fn degenerate_times_are_typed_errors_and_the_calendar_survives() {
        let mut c = ports();
        let err = c.schedule(f64::NAN, READY, 0, 0, 0).unwrap_err();
        assert!(matches!(err, ScheduleError::NonFiniteTime { .. }));
        assert!(format!("{err}").contains("finite"));
        c.schedule(10.0, READY, 0, 0, 0).unwrap();
        c.pop();
        let err = c.schedule(5.0, READY, 0, 0, 0).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::TimeTravel {
                time: 5.0,
                now: 10.0
            }
        );
        assert!(format!("{err}").contains("clock is already"));
        assert!(c.schedule(11.0, READY, 1, 1, 0).is_ok());
        assert_eq!(drain(&mut c), [(READY, 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn a_degenerate_timer_is_a_bug_in_the_policy() {
        ports().timer(f64::INFINITY, 0);
    }

    #[test]
    fn a_nan_price_names_its_transfer() {
        let lists = vec![vec![1, 2], vec![2, 0], vec![0, 1]];
        let mut price = |s: usize, d: usize| if (s, d) == (1, 0) { f64::NAN } else { 1.0 };
        let RunError::DegenerateEvent { src, dst, cause } = run(&lists, &mut price).unwrap_err();
        assert_eq!((src, dst), (1, 0));
        assert!(matches!(cause, ScheduleError::NonFiniteTime { .. }));
    }
}
