//! The harness's own spans (choosing-metrics §4): recorded around each
//! call into a public function of the system under test, kept in a
//! preallocated buffer, written out as JSONL when the run ends.
//!
//! Spans live in this crate on purpose: the change that defines a
//! benchmark may not edit the program, so the ledger is built from the
//! outside. A span's *self time* is its duration minus what its child
//! spans cover; the per-layer numbers are medians of self time per call.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Op id of a span recorded outside any script op (script generation).
pub const NO_OP: u32 = u32::MAX;
/// Cycle id of a span recorded by a replay after the timed cycles.
pub const REPLAY: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (see the README catalogue).
    pub name: &'static str,
    /// Timed cycle the span belongs to, or [`REPLAY`].
    pub cycle: u32,
    /// Script op the span belongs to, or [`NO_OP`].
    pub op: u32,
    /// Index of the enclosing span in the buffer, or -1 for a root.
    pub parent: i32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. Disabled it costs one predictable branch per call, so
/// the very same workload code runs traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    cycle: u32,
    op: u32,
    /// Buffer index of the open op span, or -1.
    open_op: i32,
}

impl Tracer {
    /// A recorder with room for `capacity` spans (0 when never enabled).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            cycle: 0,
            op: NO_OP,
            open_op: -1,
        }
    }

    /// Turns recording on or off (between cycles).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of script op `op` in timed cycle `cycle`.
    pub fn begin_op(&mut self, cycle: u32, op: u32) {
        self.cycle = cycle;
        self.op = op;
        if self.on {
            let now = self.now_ns();
            self.open_op = self.spans.len() as i32;
            self.spans.push(Span {
                name: "op",
                cycle,
                op,
                parent: -1,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    /// Closes the op span opened by [`Tracer::begin_op`].
    pub fn end_op(&mut self) {
        if self.on && self.open_op >= 0 {
            let now = self.now_ns();
            self.spans[self.open_op as usize].end_ns = now;
        }
        self.open_op = -1;
        self.op = NO_OP;
    }

    /// Replays run outside the timed cycles: their spans are roots that
    /// still say which script op they re-enact.
    pub fn begin_replay(&mut self, op: u32) {
        self.cycle = REPLAY;
        self.op = op;
        self.open_op = -1;
    }

    /// Runs `f` as a span named `name` under the open op span (or as a
    /// root span during a replay).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cycle: self.cycle,
            op: self.op,
            parent: self.open_op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// The median over ops of each op's median duration (ms) in spans
    /// named `name`, over the script ops `keep` accepts. Rule 3 applied
    /// to a layer: the caller keeps one op population, so the number
    /// never sits on the step between two.
    pub fn median_over_ops(&self, name: &str, keep: impl Fn(usize) -> bool) -> f64 {
        let mut by_op: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            if s.name == name && s.op != NO_OP && keep(s.op as usize) {
                by_op.entry(s.op).or_default().push(s.ms());
            }
        }
        let per_op: Vec<f64> = by_op.values().map(|d| median(d)).collect();
        median(&per_op)
    }

    /// Σ child-span time ÷ Σ op-span time over all traced ops: how much
    /// of an op the named layers account for (the rest is the harness's
    /// own glue between calls).
    pub fn layer_sum_ratio(&self) -> f64 {
        let (mut ops, mut children) = (0.0, 0.0);
        for s in &self.spans {
            if s.parent >= 0 {
                children += s.ms();
            } else if s.name == "op" {
                ops += s.ms();
            }
        }
        if ops > 0.0 {
            children / ops
        } else {
            0.0
        }
    }

    /// Writes the buffer as JSON lines, one span per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        // -1 spells "none" for the op and the cycle alike.
        let id = |v: u32| if v == u32::MAX { -1 } else { i64::from(v) };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"cycle\":{},\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                id(s.cycle),
                id(s.op),
                s.parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
