//! Frame rendering for `adaptcomm top`.
//!
//! The live view is a pure function from one status document (the JSON
//! file `run --adapt --status <path>` atomically rewrites at every
//! checkpoint — see `adaptcomm_runtime::telemetry`) to one text frame:
//! run progress, replan events, grant-queue depth, and a per-link
//! health table with sparkline bandwidth history. The polling loop in
//! `main.rs` just reads, renders, and repeats.

use adaptcomm_obs::json::Value;

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// A sparkline over `values`, one glyph per point, scaled to the
/// series' own min..max (a flat series renders mid-height).
fn sparkline(values: &[f64]) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let mut out: String = values
        .iter()
        .map(|&v| {
            let idx = if hi > lo {
                (((v - lo) / (hi - lo)) * 7.0).round() as usize
            } else {
                3
            };
            SPARK[idx.min(7)]
        })
        .collect();
    // A lone measurement still deserves a visible mark: render it at
    // the same two-glyph width a flat pair gets, instead of one
    // easily-missed character.
    if values.len() == 1 {
        let glyph = out.chars().next().unwrap();
        out.push(glyph);
    }
    out
}

/// The "slowest link" line `adaptcomm top --capture <path>` appends
/// under each frame: the link carrying the most critical-path time in
/// the captured run, from the explain-plane analyzer.
pub fn blame_line(capture: &adaptcomm_obs::Snapshot) -> String {
    use adaptcomm_obs::causal::{transfers_from_snapshot, CausalDag};
    let dag = CausalDag::new(transfers_from_snapshot(capture));
    let blame = dag.blame();
    match blame.links.first() {
        Some(l) => format!(
            "slowest link: {}->{}  {:.2} ms on the critical path \
             ({} hop(s), {:.0}% of {:.2} ms)",
            l.src,
            l.dst,
            l.busy_ms,
            l.hops,
            if blame.completion_ms > 0.0 {
                l.busy_ms / blame.completion_ms * 100.0
            } else {
                0.0
            },
            blame.completion_ms
        ),
        None => "slowest link: no transfer spans in the capture".into(),
    }
}

/// `[[t, v], ...]` JSON points → the values.
fn series_values(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_arr)
        .map(|points| {
            points
                .iter()
                .filter_map(|p| {
                    let pair = p.as_arr()?;
                    pair.get(1)?.as_f64()
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Renders one frame from a parsed status document. Errors name the
/// missing field, so a half-configured run is diagnosable.
pub fn render_frame(doc: &Value) -> Result<String, String> {
    let state = doc
        .get("state")
        .and_then(Value::as_str)
        .ok_or("status file has no `state`")?;
    let p = doc.get("p").and_then(Value::as_u64).unwrap_or(0);
    let now_ms = doc.get("now_ms").and_then(Value::as_f64).unwrap_or(0.0);
    let completed = doc.get("completed").and_then(Value::as_u64).unwrap_or(0);
    let total = doc.get("total").and_then(Value::as_u64).unwrap_or(0);
    let checkpoints = doc.get("checkpoints").and_then(Value::as_u64).unwrap_or(0);
    let replans = doc.get("replans").and_then(Value::as_arr).unwrap_or(&[]);

    let mut out = String::new();
    out.push_str(&format!(
        "adaptcomm top — {state} | P {p} | modeled {now_ms:.1} ms | \
         {completed}/{total} transfers | {checkpoints} checkpoint(s) | {} replan(s)\n",
        replans.len()
    ));

    // Progress bar over completed transfers.
    let width = 40usize;
    let frac = if total > 0 {
        completed as f64 / total as f64
    } else {
        0.0
    };
    let filled = ((frac * width as f64).round() as usize).min(width);
    out.push_str(&format!(
        "progress [{}{}] {:>3.0}%\n",
        "#".repeat(filled),
        "·".repeat(width - filled),
        frac * 100.0
    ));

    let depth = series_values(doc.get("queue_depth"));
    if !depth.is_empty() {
        out.push_str(&format!(
            "queue depth {} (now {:.0})\n",
            sparkline(&depth),
            depth.last().copied().unwrap_or(0.0)
        ));
    }

    if !replans.is_empty() {
        let marks: Vec<String> = replans
            .iter()
            .filter_map(|r| {
                let ckpt = r.get("checkpoint")?.as_u64()?;
                let at = r.get("now_ms")?.as_f64()?;
                Some(format!("#{ckpt} @ {at:.1} ms"))
            })
            .collect();
        out.push_str(&format!("replans: {}\n", marks.join(", ")));
    }

    let links = doc.get("links").and_then(Value::as_arr).unwrap_or(&[]);
    if links.is_empty() {
        out.push_str("links: no measurements published yet\n");
    } else {
        out.push_str("links (worst first):\n");
        out.push_str(&format!(
            "  {:>3} {:>3} {:<8} {:>5} {:>10} {:>7}  recent bandwidth\n",
            "src", "dst", "state", "score", "bw(kbps)", "T(ms)"
        ));
        for link in links {
            let src = link.get("src").and_then(Value::as_u64).unwrap_or(0);
            let dst = link.get("dst").and_then(Value::as_u64).unwrap_or(0);
            let state = link.get("state").and_then(Value::as_str).unwrap_or("?");
            let score = link.get("score").and_then(Value::as_f64).unwrap_or(0.0);
            let bw = link
                .get("bandwidth_kbps")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let startup = link
                .get("startup_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let history = series_values(link.get("series"));
            out.push_str(&format!(
                "  {src:>3} {dst:>3} {state:<8} {score:>5.2} {bw:>10.1} {startup:>7.2}  {}\n",
                sparkline(&history)
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = r#"{"p": 4, "state": "running", "now_ms": 104.2,
        "completed": 3, "total": 12, "checkpoints": 3,
        "replans": [{"checkpoint": 2, "now_ms": 61.0}],
        "queue_depth": [[8.3, 11.0], [14.1, 10.0], [104.2, 9.0]],
        "links": [{"src": 0, "dst": 1, "state": "degraded", "score": 0.61,
                   "bandwidth_kbps": 180.5, "startup_ms": 2.1,
                   "series": [[8.3, 510.0], [14.1, 300.0], [104.2, 180.5]]}]}"#;

    #[test]
    fn frame_shows_progress_replans_and_links() {
        let doc = Value::parse(STATUS).unwrap();
        let frame = render_frame(&doc).unwrap();
        assert!(frame.contains("running"));
        assert!(frame.contains("3/12 transfers"));
        assert!(frame.contains("1 replan(s)"));
        assert!(frame.contains("#2 @ 61.0 ms"));
        assert!(frame.contains("degraded"));
        assert!(frame.contains("180.5"));
        assert!(frame.contains("25%"));
        // Falling bandwidth renders a descending sparkline ending low.
        assert!(frame.contains('█') && frame.contains('▁'));
    }

    #[test]
    fn missing_state_is_an_error_and_no_links_is_not() {
        let doc = Value::parse(r#"{"p": 2}"#).unwrap();
        assert!(render_frame(&doc).unwrap_err().contains("state"));
        let doc = Value::parse(
            r#"{"state": "running", "p": 2, "completed": 0, "total": 2,
                "checkpoints": 0, "replans": [], "queue_depth": [], "links": []}"#,
        )
        .unwrap();
        let frame = render_frame(&doc).unwrap();
        assert!(frame.contains("no measurements published yet"));
    }

    #[test]
    fn sparkline_scales_and_handles_flat_series() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
        // One point widens to the flat-pair rendering, not one glyph.
        assert_eq!(sparkline(&[7.0]), "▄▄");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn blame_line_names_the_critical_link() {
        use adaptcomm_obs::causal::transfer_span;
        use adaptcomm_obs::{Event, Snapshot};
        let span =
            |src, dst, start_us, dur_us| Event::Span(transfer_span(src, dst, start_us, dur_us));
        let snap = Snapshot {
            events: vec![span(0, 1, 0, 10_000), span(0, 2, 10_000, 30_000)],
            ..Default::default()
        };
        let line = blame_line(&snap);
        assert!(line.contains("slowest link: 0->2"), "{line}");
        assert!(line.contains("30.00 ms"), "{line}");
        let empty = blame_line(&Snapshot::default());
        assert!(empty.contains("no transfer spans"), "{empty}");
    }
}
