//! Capture codec edge cases: empty registries, concurrent writers,
//! pathological names that punish any unescaped emitter, snapshots that
//! must read back exactly, and damaged captures that must never panic
//! the reader or the analysis behind it.

use adaptcomm_obs::causal::{diff_captures, transfers_from_snapshot, CausalDag, TRANSFER_TRACKS};
use adaptcomm_obs::snapshot::{Event, InstantRecord, SpanRecord};
use adaptcomm_obs::{current_tid, AttrValue, Registry, Snapshot};
use proptest::prelude::*;

#[test]
fn empty_registry_exports_cleanly() {
    let snap = Registry::new().snapshot();
    assert_eq!(snap.to_jsonl(), "");
    assert_eq!(Snapshot::from_jsonl("").unwrap(), snap);
}

#[test]
fn concurrent_recording_loses_no_event() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 1_000;
    let reg = Registry::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let reg = reg.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    reg.span("shared").attr("i", i).end();
                    if i % 100 == 0 {
                        reg.record_instant(InstantRecord {
                            name: "tick".into(),
                            tid: current_tid(),
                            ts_us: reg.now_us(),
                            attrs: vec![],
                        });
                    }
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(snap.spans().count(), THREADS * PER_THREAD);
    assert_eq!(snap.instants().count(), THREADS * (PER_THREAD / 100));
    // Each thread's spans land on its own track, all of them.
    let mut per_track = std::collections::BTreeMap::<u64, usize>::new();
    for span in snap.spans() {
        *per_track.entry(span.tid).or_default() += 1;
    }
    assert_eq!(per_track.len(), THREADS);
    assert!(per_track.values().all(|&n| n == PER_THREAD));
}

/// Names chosen to punish naive emitters: quotes, backslashes, every
/// flavor of control character, JSON look-alikes, and non-ASCII.
const PATHOLOGICAL: &[&str] = &[
    "quote\"inside",
    "back\\slash\\",
    "new\nline and\ttab and\rreturn",
    "ctrl\u{1}\u{8}\u{c}\u{1f}chars",
    "ünïcode.链路.🚀",
    "{\"looks\":\"like json\",\"n\":[1,2]}",
    "",
];

/// A snapshot exercising every record type with every pathological
/// name, including attribute keys and values.
fn pathological_snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for (i, &name) in PATHOLOGICAL.iter().enumerate() {
        snap.events.push(Event::Span(SpanRecord {
            name: name.into(),
            tid: 1,
            start_us: 10 * i as u64,
            dur_us: 5,
            attrs: vec![(name.into(), AttrValue::Str(name.into()))],
            trace: None,
        }));
        snap.events.push(Event::Instant(InstantRecord {
            name: name.into(),
            tid: 2,
            ts_us: 10 * i as u64,
            attrs: vec![(name.into(), AttrValue::Str(name.into()))],
        }));
    }
    snap
}

#[test]
fn pathological_names_round_trip_through_jsonl() {
    let snap = pathological_snapshot();
    let text = snap.to_jsonl();
    // The format contract: one record per line, no raw control bytes.
    assert_eq!(text.lines().count(), 2 * PATHOLOGICAL.len());
    assert!(
        text.bytes().all(|b| b == b'\n' || !b.is_ascii_control()),
        "control characters must be escaped, never emitted raw"
    );
    let back = Snapshot::from_jsonl(&text).expect("pathological JSONL must parse");
    assert_eq!(back, snap);
}

#[test]
fn registry_accepts_pathological_event_names_end_to_end() {
    // The same hostile names pushed through the public Registry API
    // rather than hand-built snapshots.
    let reg = Registry::new();
    for &name in PATHOLOGICAL {
        reg.span(name).attr(name, name).end();
        reg.record_instant(InstantRecord {
            name: name.into(),
            tid: current_tid(),
            ts_us: reg.now_us(),
            attrs: vec![(name.into(), AttrValue::Str(name.into()))],
        });
    }
    let snap = reg.snapshot();
    assert_eq!(snap.events.len(), 2 * PATHOLOGICAL.len());
    let back = Snapshot::from_jsonl(&snap.to_jsonl()).unwrap();
    assert_eq!(back, snap);
}

/// Processor-id attribute values a capture may carry: ordinary ids,
/// and ones no processor has — `u64::MAX` as a string, a huge float, a
/// negative and a fraction.
const IDS: [fn() -> AttrValue; 8] = [
    || AttrValue::U64(0),
    || AttrValue::U64(1),
    || AttrValue::U64(3),
    || AttrValue::Str("2".into()),
    || AttrValue::Str("18446744073709551615".into()),
    || AttrValue::F64(1e300),
    || AttrValue::F64(-3.0),
    || AttrValue::F64(2.5),
];

/// Bytes a one-byte flip writes: digits, signs and JSON punctuation.
const FLIPS: &[u8] = b"09-+.e\"{}[],: x";

/// Everything `explain` and `obs-diff` do with a capture.
fn analyze(base: &Snapshot, head: &Snapshot) {
    let dag = CausalDag::new(transfers_from_snapshot(head));
    let _ = (dag.critical_path(), dag.slack(), dag.blame());
    let _ = dag.interventions(2.0, 5);
    diff_captures(base, head).render();
}

/// `x` shifted right by its own low six bits: draws of `any::<u64>()`
/// spread over every magnitude, not just the top few bits.
fn scaled(x: u64) -> u64 {
    x >> (x % 64)
}

/// A snapshot of one span and one instant per draw, with `u64` fields
/// across the whole range (above 2^53 included), `U64` attributes above
/// 2^53 and `F64` attributes holding integral values — what a codec
/// that reads integers through an `f64` loses.
fn wide_snapshot(draws: Vec<(u64, u64, u64, u64)>) -> Snapshot {
    let mut snap = Snapshot::default();
    for (a, b, c, d) in draws {
        let start_us = scaled(b);
        let attrs = vec![
            ("count".into(), AttrValue::U64(a)),
            ("small".into(), AttrValue::U64(scaled(d))),
            ("whole".into(), AttrValue::F64((d >> 11) as f64)),
            ("huge".into(), AttrValue::F64(-(b as f64))),
            ("frac".into(), AttrValue::F64(a as f64 / 7.0)),
        ];
        snap.events.push(Event::Span(SpanRecord {
            name: "wide".into(),
            tid: scaled(a),
            start_us,
            dur_us: scaled(c).min(u64::MAX - start_us),
            attrs: attrs.clone(),
            trace: None,
        }));
        snap.events.push(Event::Instant(InstantRecord {
            name: "wide".into(),
            tid: scaled(d),
            ts_us: scaled(c),
            attrs,
        }));
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An undamaged capture decodes back equal, whatever its numbers; a
    /// capture of transfer spans, cut at every byte or with one byte
    /// flipped, either fails to decode or analyzes without a panic.
    #[test]
    fn damaged_captures_decode_or_fail_and_never_panic_the_analysis(
        spans in proptest::collection::vec((0usize..8, 0usize..8, 0u64..1_000_000, 1u64..100_000), 5),
        flip in 0usize..16,
        wide in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 6),
    ) {
        let wide = wide_snapshot(wide);
        prop_assert_eq!(Snapshot::from_jsonl(&wide.to_jsonl()), Ok(wide));

        let transfer = |src: AttrValue, dst: AttrValue, start_us, dur_us| {
            Event::Span(SpanRecord {
                name: "transfer".into(),
                tid: TRANSFER_TRACKS,
                start_us,
                dur_us,
                attrs: vec![("src".into(), src), ("dst".into(), dst)],
                trace: None,
            })
        };
        // The out-of-range sender always rides along.
        let mut events = vec![transfer(IDS[4](), AttrValue::U64(1), 0, 10)];
        events.extend(spans.into_iter().map(|(s, d, start, dur)| {
            transfer(IDS[s](), IDS[d](), start, dur)
        }));
        let snap = Snapshot { events };
        let text = snap.to_jsonl();
        let whole = Snapshot::from_jsonl(&text).expect("an undamaged capture decodes");
        prop_assert_eq!(&whole, &snap);
        analyze(&whole, &whole);
        for i in 0..text.len() {
            if let Ok(cut) = Snapshot::from_jsonl(&text[..i]) {
                analyze(&whole, &cut);
            }
            let mut bytes = text.clone().into_bytes();
            bytes[i] = FLIPS[(i + flip) % FLIPS.len()];
            if let Ok(flipped) = String::from_utf8(bytes) {
                if let Ok(head) = Snapshot::from_jsonl(&flipped) {
                    analyze(&whole, &head);
                }
            }
        }
    }
}
