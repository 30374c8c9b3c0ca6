//! The flight recorder: an always-on bounded ring of recent events,
//! dumped to disk when something goes wrong.
//!
//! The [`crate::Registry`] is opt-in and post-hoc: unless a driver
//! enabled it *before* the interesting seconds, they are gone. The
//! flight recorder is the complement — a fixed-capacity ring that is
//! always recording (overwrite-oldest, so memory is bounded and no
//! retention policy is needed) and only touches disk when a trigger
//! fires: a chaos run breaching its SLO, the runtime detecting a
//! fault, the plan server rejecting a deadline streak. The dump is an
//! ordinary JSONL capture ([`Snapshot::to_jsonl`]), so `explain --input`
//! and `obs-diff` read it like any other.
//!
//! Two feeds fill the ring:
//!
//! * every span/instant an *enabled* registry commits is mirrored in
//!   (one mutex push on the already-allocating record path — the
//!   disabled hot path still pays only its relaxed atomic load), and
//! * [`FlightRecorder::note`] records directly — fault paths use it so
//!   the black box has the crash window even when nobody asked for
//!   observability. A note on the global recorder while the global
//!   registry is enabled is committed through the registry instead, so
//!   it lands in both exactly once.
//!
//! Timestamps inside the ring keep their source clock (registry epoch
//! for mirrored events, recorder epoch for direct notes); the dump is
//! ring order, i.e. commit order, which is what a post-mortem reads.

use crate::snapshot::{check_capture_path, Event, InstantRecord, Snapshot};
use crate::{current_tid, AttrValue};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity of the process-global recorder.
pub const DEFAULT_CAPACITY: usize = 4096;

#[derive(Debug)]
struct Ring {
    slots: Vec<Event>,
    capacity: usize,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    /// Events overwritten so far (the dump reports it, so a reader
    /// knows how much history scrolled off).
    overwritten: u64,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.next] = event;
            self.next = (self.next + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Events oldest-first.
    fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        out
    }
}

/// A bounded overwrite-oldest event ring with a JSONL dump.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    ring: Mutex<Ring>,
    /// Directory for [`FlightRecorder::auto_dump`]; `None` (the
    /// default) makes auto dumps a no-op so library tests never write
    /// surprise files.
    auto_dir: Mutex<Option<PathBuf>>,
    dump_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` recent events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                slots: Vec::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
                next: 0,
                overwritten: 0,
            }),
            auto_dir: Mutex::new(None),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// Appends an already-built event (the registry mirror path).
    pub fn record(&self, event: Event) {
        self.ring.lock().unwrap().push(event);
    }

    /// Records a named instant (attach attributes, it commits when
    /// dropped). It works even when observability is disabled; on the
    /// global recorder with the global registry enabled, the note is a
    /// registry instant that the registry mirrors into this ring.
    pub fn note(&self, name: &str) -> FlightNote<'_> {
        FlightNote {
            recorder: self,
            record: Some(InstantRecord {
                name: name.to_string(),
                tid: current_tid(),
                ts_us: self.epoch.elapsed().as_micros() as u64,
                attrs: Vec::new(),
            }),
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().slots.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten since process start.
    pub fn overwritten(&self) -> u64 {
        self.ring.lock().unwrap().overwritten
    }

    /// Freezes the ring as a snapshot: events oldest-first.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            events: self.ring.lock().unwrap().ordered(),
        }
    }

    /// Writes the ring to `path` (which must end in `.jsonl`) as JSONL,
    /// prefixed with a `flight.dump` instant naming the `reason` and
    /// how many events the ring holds (`captured`) and has overwritten
    /// (`overwritten`). The ring keeps its contents (a later trigger
    /// can dump again).
    pub fn dump(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        check_capture_path(path)?;
        let (mut events, captured, overwritten) = {
            let ring = self.ring.lock().unwrap();
            (ring.ordered(), ring.slots.len(), ring.overwritten)
        };
        events.insert(
            0,
            Event::Instant(InstantRecord {
                name: "flight.dump".into(),
                tid: current_tid(),
                ts_us: self.epoch.elapsed().as_micros() as u64,
                attrs: vec![
                    ("reason".into(), AttrValue::Str(reason.to_string())),
                    ("captured".into(), captured.into()),
                    ("overwritten".into(), overwritten.into()),
                ],
            }),
        );
        std::fs::write(path, Snapshot { events }.to_jsonl())
    }

    /// Arms (or with `None` disarms) automatic dumps into `dir`.
    pub fn set_auto_dir(&self, dir: Option<PathBuf>) {
        *self.auto_dir.lock().unwrap() = dir;
    }

    /// Dumps to `<auto_dir>/flight-<reason>-<seq>.jsonl` if an auto
    /// directory is armed; a no-op `None` otherwise. Write errors are
    /// reported on stderr rather than panicking — the recorder fires on
    /// paths that are already failing.
    pub fn auto_dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.auto_dir.lock().unwrap().clone()?;
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let slug: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("flight-{slug}-{seq}.jsonl"));
        match self.dump(&path, reason) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("flight recorder: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// A pending flight note; commits into the ring when dropped.
#[derive(Debug)]
pub struct FlightNote<'a> {
    recorder: &'a FlightRecorder,
    record: Option<InstantRecord>,
}

impl FlightNote<'_> {
    /// Attaches a key/value attribute.
    pub fn attr(mut self, key: &str, value: impl Into<AttrValue>) -> Self {
        if let Some(record) = &mut self.record {
            record.attrs.push((key.to_string(), value.into()));
        }
        self
    }

    /// Commits the note now (otherwise scope end does).
    pub fn emit(self) {}
}

impl Drop for FlightNote<'_> {
    fn drop(&mut self) {
        let Some(record) = self.record.take() else {
            return;
        };
        let registry = crate::global();
        if registry.is_enabled() && std::ptr::eq(self.recorder, flight()) {
            // `record_instant` mirrors into this ring: one event, two homes.
            registry.record_instant(InstantRecord {
                ts_us: registry.now_us(),
                ..record
            });
        } else {
            self.recorder.record(Event::Instant(record));
        }
    }
}

/// The process-global flight recorder every registry mirrors into.
pub fn flight() -> &'static FlightRecorder {
    static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();
    FLIGHT.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_dump_is_ordered() {
        let rec = FlightRecorder::new(4);
        for i in 0..6u64 {
            rec.note("tick").attr("i", i).emit();
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.overwritten(), 2);
        let snap = rec.snapshot();
        // Oldest-first: ticks 2..=5 survive.
        let order: Vec<u64> = snap
            .instants()
            .map(|i| match &i.attrs[0].1 {
                AttrValue::U64(v) => *v,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(order, [2, 3, 4, 5]);
    }

    #[test]
    fn dump_replays_through_snapshot_jsonl() {
        let rec = FlightRecorder::new(2);
        for _ in 0..3 {
            rec.note("chaos.fault").attr("kind", "crash").emit();
        }
        let path = std::env::temp_dir().join(format!("flight-test-{}.jsonl", std::process::id()));
        rec.dump(&path, "unit-test").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let snap = Snapshot::from_jsonl(&text).unwrap();
        let names: Vec<&str> = snap.instants().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["flight.dump", "chaos.fault", "chaos.fault"]);
        // The dump instant names its reason and what the ring held.
        let dump = snap.instants().next().unwrap();
        assert_eq!(
            dump.attrs,
            [
                ("reason".into(), AttrValue::Str("unit-test".into())),
                ("captured".into(), AttrValue::U64(2)),
                ("overwritten".into(), AttrValue::U64(1)),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_dump_is_inert_until_armed() {
        let rec = FlightRecorder::new(8);
        rec.note("x").emit();
        assert_eq!(rec.auto_dump("nothing"), None);
        let dir = std::env::temp_dir().join(format!("flight-auto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        rec.set_auto_dir(Some(dir.clone()));
        let p1 = rec.auto_dump("slo breach!").unwrap();
        let p2 = rec.auto_dump("slo breach!").unwrap();
        assert_ne!(p1, p2);
        assert!(p1
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("flight-slo-breach-"));
        assert!(Snapshot::from_jsonl(&std::fs::read_to_string(&p1).unwrap()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
