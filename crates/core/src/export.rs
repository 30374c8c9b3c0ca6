//! Schedule export: the JSON event trace.
//!
//! A dependency-free writer for the document external tooling most often
//! wants (Gantt viewers, notebooks) — what `adaptcomm schedule --json`
//! prints.

use crate::schedule::Schedule;
use std::fmt::Write as _;

/// Serializes a schedule to a compact JSON document:
///
/// ```json
/// {"processors":3,"completion_ms":17.0,"lower_bound_ms":13.0,
///  "events":[{"src":0,"dst":1,"start_ms":0.0,"finish_ms":2.0}, …]}
/// ```
pub fn schedule_to_json(schedule: &Schedule) -> String {
    let mut s = String::with_capacity(64 + schedule.events().len() * 64);
    let _ = write!(
        s,
        r#"{{"processors":{},"completion_ms":{},"lower_bound_ms":{},"events":["#,
        schedule.processors(),
        fmt_f64(schedule.completion_time().as_ms()),
        fmt_f64(schedule.matrix().lower_bound().as_ms()),
    );
    for (k, e) in schedule.events().iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            r#"{{"src":{},"dst":{},"start_ms":{},"finish_ms":{}}}"#,
            e.src,
            e.dst,
            fmt_f64(e.start.as_ms()),
            fmt_f64(e.finish.as_ms()),
        );
    }
    s.push_str("]}");
    s
}

/// JSON-safe float formatting: finite values only (schedules never carry
/// NaN/inf), always with a decimal point so consumers parse a number.
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite());
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{OpenShop, Scheduler};
    use crate::matrix::CommMatrix;

    fn schedule() -> Schedule {
        let m = CommMatrix::from_rows(&[
            vec![0.0, 2.5, 3.0],
            vec![4.0, 0.0, 5.0],
            vec![6.0, 7.0, 0.0],
        ]);
        OpenShop.schedule(&m)
    }

    #[test]
    fn json_has_all_events_and_balanced_braces() {
        let s = schedule();
        let json = schedule_to_json(&s);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches(r#""src""#).count(), s.events().len());
        assert!(json.contains(r#""processors":3"#));
        assert!(json.contains(r#""completion_ms""#));
        // Fractional values keep their precision.
        assert!(json.contains("2.5"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(0.0), "0.0");
        assert_eq!(fmt_f64(1234.0625), "1234.0625");
    }
}
