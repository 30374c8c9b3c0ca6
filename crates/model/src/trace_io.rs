//! Recording and replaying network-performance traces.
//!
//! A directory-service session — the sequence of `(time, NetParams)`
//! snapshots an application observed — fully determines a scheduling
//! experiment. [`TraceRecorder`] serializes such a session to a plain
//! text format; [`RecordedTrace`] replays it, interpolating
//! zero-order-hold between snapshots. This is what makes a "it was slow
//! on Tuesday" report reproducible: capture the trace once, replay it
//! against any scheduler version forever.
//!
//! Format (line-oriented, `#` comments):
//!
//! ```text
//! snapshot <t_ms> <P>
//! <src> <dst> <startup_ms> <bandwidth_kbps>
//! ...one line per ordered pair...
//! ```

use crate::cost::LinkEstimate;
use crate::evolution::NetworkEvolution;
use crate::params::NetParams;
use crate::units::{Bandwidth, Millis};
use std::fmt::Write as _;

/// Records a sequence of time-stamped snapshots.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    snapshots: Vec<(f64, NetParams)>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a snapshot observed at `t`. Times must be non-decreasing.
    pub fn record(&mut self, t: Millis, params: NetParams) -> &mut Self {
        if let Some(&(last, _)) = self.snapshots.last() {
            assert!(
                t.as_ms() >= last,
                "snapshots must be recorded in time order"
            );
            assert_eq!(
                self.snapshots[0].1.len(),
                params.len(),
                "snapshot covers a different system"
            );
        }
        self.snapshots.push((t.as_ms(), params));
        self
    }

    /// Number of recorded snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Serializes the trace.
    pub fn serialize(&self) -> String {
        let mut out = String::from("# adaptcomm network trace v1\n");
        for (t, params) in &self.snapshots {
            let p = params.len();
            let _ = writeln!(out, "snapshot {t} {p}");
            for (src, dst, e) in params.pairs() {
                let _ = writeln!(
                    out,
                    "{src} {dst} {} {}",
                    e.startup.as_ms(),
                    e.bandwidth.as_kbps()
                );
            }
        }
        out
    }

    /// Finishes recording, producing a replayable trace.
    pub fn finish(self) -> RecordedTrace {
        assert!(!self.snapshots.is_empty(), "cannot replay an empty trace");
        RecordedTrace {
            snapshots: self.snapshots,
        }
    }
}

/// A replayable recorded trace (zero-order hold between snapshots).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    snapshots: Vec<(f64, NetParams)>,
}

impl RecordedTrace {
    /// Parses the [`TraceRecorder::serialize`] format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut snapshots: Vec<(f64, NetParams)> = Vec::new();
        let mut lines = text.lines().enumerate().filter(|(_, l)| {
            let l = l.trim();
            !l.is_empty() && !l.starts_with('#')
        });
        while let Some((lineno, line)) = lines.next() {
            let mut parts = line.split_whitespace();
            if parts.next() != Some("snapshot") {
                return Err(format!("line {}: expected `snapshot`", lineno + 1));
            }
            let t: f64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("line {}: bad time", lineno + 1))?;
            let p: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("line {}: bad size", lineno + 1))?;
            let mut params = NetParams::uniform(p, Millis::ZERO, Bandwidth::from_kbps(1e12));
            for _ in 0..p * (p - 1) {
                let (lineno, line) = lines
                    .next()
                    .ok_or_else(|| "trace truncated mid-snapshot".to_string())?;
                let fields: Vec<&str> = line.split_whitespace().collect();
                if fields.len() != 4 {
                    return Err(format!("line {}: expected 4 fields", lineno + 1));
                }
                let parse = |s: &str| {
                    s.parse::<f64>()
                        .map_err(|_| format!("line {}: bad number", lineno + 1))
                };
                let src = fields[0]
                    .parse::<usize>()
                    .map_err(|_| format!("line {}: bad src", lineno + 1))?;
                let dst = fields[1]
                    .parse::<usize>()
                    .map_err(|_| format!("line {}: bad dst", lineno + 1))?;
                if src >= p || dst >= p || src == dst {
                    return Err(format!("line {}: pair ({src},{dst}) invalid", lineno + 1));
                }
                params.set_estimate(
                    src,
                    dst,
                    LinkEstimate::new(
                        Millis::new(parse(fields[2])?),
                        Bandwidth::from_kbps(parse(fields[3])?),
                    ),
                );
            }
            if let Some(&(last, _)) = snapshots.last() {
                if t < last {
                    return Err("snapshots out of time order".to_string());
                }
            }
            snapshots.push((t, params));
        }
        if snapshots.is_empty() {
            return Err("trace contains no snapshots".to_string());
        }
        Ok(RecordedTrace { snapshots })
    }

    /// Number of processors covered.
    pub fn processors(&self) -> usize {
        self.snapshots[0].1.len()
    }

    /// The first snapshot (scheduling-time estimates).
    pub fn initial(&self) -> &NetParams {
        &self.snapshots[0].1
    }

    /// The network state at time `t`: the latest snapshot at or before
    /// `t` (the first one for times before recording started).
    pub fn state_at(&self, t: Millis) -> &NetParams {
        // Snapshots are in time order: recorder and parser both enforce it.
        let after = self
            .snapshots
            .partition_point(|(st, _)| *st <= t.as_ms() + 1e-12);
        &self.snapshots[after.saturating_sub(1)].1
    }
}

/// A replay is a pure function of time: it answers for the instant
/// asked, in any order.
impl NetworkEvolution for RecordedTrace {
    fn processors(&self) -> usize {
        RecordedTrace::processors(self)
    }

    fn planning_estimates(&self) -> &NetParams {
        self.initial()
    }

    fn link_at(&mut self, t: Millis, src: usize, dst: usize) -> LinkEstimate {
        self.state_at(t).estimate(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;

    fn snap(bw: f64) -> NetParams {
        NetParams::uniform(3, Millis::new(7.5), Bandwidth::from_kbps(bw))
    }

    /// Off-diagonal equality: the diagonal is a never-consulted sentinel
    /// (local copies are free) and is not serialized.
    fn same(a: &NetParams, b: &NetParams) -> bool {
        a.len() == b.len() && a.pairs().all(|(s, d, e)| b.estimate(s, d) == e)
    }

    #[test]
    fn record_serialize_parse_round_trip() {
        let mut rec = TraceRecorder::new();
        rec.record(Millis::ZERO, snap(100.0))
            .record(Millis::new(1_000.0), snap(250.0))
            .record(Millis::new(5_000.0), snap(80.0));
        assert_eq!(rec.len(), 3);
        let text = rec.serialize();
        let trace = RecordedTrace::parse(&text).unwrap();
        assert_eq!(trace.processors(), 3);
        assert!(same(trace.initial(), &snap(100.0)));
        assert!(same(trace.state_at(Millis::new(999.0)), &snap(100.0)));
        assert!(same(trace.state_at(Millis::new(1_000.0)), &snap(250.0)));
        assert!(same(trace.state_at(Millis::new(4_999.9)), &snap(250.0)));
        assert!(same(trace.state_at(Millis::new(1e9)), &snap(80.0)));
    }

    #[test]
    fn zero_order_hold_before_first_snapshot() {
        let trace = TraceRecorder::new()
            .record(Millis::new(500.0), snap(42.0))
            .clone()
            .finish();
        assert!(same(trace.state_at(Millis::ZERO), &snap(42.0)));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!(RecordedTrace::parse("")
            .unwrap_err()
            .contains("no snapshots"));
        assert!(RecordedTrace::parse("bogus 1 2")
            .unwrap_err()
            .contains("expected `snapshot`"));
        assert!(RecordedTrace::parse("snapshot 0 2\n0 1 5")
            .unwrap_err()
            .contains("4 fields"));
        assert!(RecordedTrace::parse("snapshot 0 2\n0 0 5 100\n1 0 5 100")
            .unwrap_err()
            .contains("invalid"));
        let truncated = "snapshot 0 3\n0 1 5 100\n";
        assert!(RecordedTrace::parse(truncated)
            .unwrap_err()
            .contains("truncated"));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_recording_rejected() {
        let mut rec = TraceRecorder::new();
        rec.record(Millis::new(100.0), snap(1.0));
        rec.record(Millis::new(50.0), snap(1.0));
    }

    #[test]
    #[should_panic(expected = "different system")]
    fn size_change_rejected() {
        let mut rec = TraceRecorder::new();
        rec.record(Millis::ZERO, snap(1.0));
        rec.record(
            Millis::new(1.0),
            NetParams::uniform(4, Millis::ZERO, Bandwidth::from_kbps(1.0)),
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut rec = TraceRecorder::new();
        rec.record(Millis::ZERO, snap(10.0));
        let mut text = String::from("# header comment\n\n");
        text.push_str(&rec.serialize());
        let trace = RecordedTrace::parse(&text).unwrap();
        assert_eq!(trace.processors(), 3);
    }
}
