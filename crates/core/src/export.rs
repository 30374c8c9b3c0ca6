//! Schedule export: the JSON event trace.
//!
//! The document external tooling most often wants (Gantt viewers,
//! notebooks) — what `adaptcomm schedule --json` prints — written through
//! the workspace's one JSON codec, [`adaptcomm_obs::json`].

use crate::schedule::Schedule;
use adaptcomm_obs::json::Value;

/// Serializes a schedule to a compact JSON document:
///
/// ```json
/// {"processors":3,"completion_ms":17.0,"lower_bound_ms":13.0,
///  "events":[{"src":0,"dst":1,"start_ms":0.0,"finish_ms":2.0}, …]}
/// ```
pub fn schedule_to_json(schedule: &Schedule) -> String {
    let field = |k: &str, v: Value| (k.to_string(), v);
    let events = schedule
        .events()
        .iter()
        .map(|e| {
            Value::Obj(vec![
                field("src", Value::Int(e.src as u64)),
                field("dst", Value::Int(e.dst as u64)),
                field("start_ms", Value::Num(e.start.as_ms())),
                field("finish_ms", Value::Num(e.finish.as_ms())),
            ])
        })
        .collect();
    Value::Obj(vec![
        field("processors", Value::Int(schedule.processors() as u64)),
        field(
            "completion_ms",
            Value::Num(schedule.completion_time().as_ms()),
        ),
        field(
            "lower_bound_ms",
            Value::Num(schedule.matrix().lower_bound().as_ms()),
        ),
        field("events", Value::Arr(events)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{all_schedulers, OpenShop, Scheduler};
    use crate::matrix::CommMatrix;
    use rand::{RngExt, SeedableRng};
    use std::fmt::Write as _;

    /// The private writer `schedule_to_json` replaced, kept as the byte
    /// oracle for the codec path.
    fn oracle(schedule: &Schedule) -> String {
        let mut s = String::new();
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

    /// The oracle's float format: always a decimal point for integral
    /// values below 1e15, `Display` otherwise.
    fn fmt_f64(v: f64) -> String {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    }

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
        assert_eq!(json, oracle(&s));
    }

    /// The codec writes a float exactly as the old writer did for zero
    /// and every magnitude in `[1e-4, 1e15)`; outside it `{:?}` switches
    /// to exponent form (`1e-5`) or keeps `.0` (`1e15` as
    /// `1000000000000000.0`).
    #[test]
    fn float_formatting() {
        for v in [
            0.0,
            2.0,
            2.5,
            1234.0625,
            1e-4,
            0.1 + 0.2,
            999_999_999_999_999.0,
        ] {
            assert_eq!(Value::Num(v).to_json(), fmt_f64(v), "{v:e}");
        }
        assert_eq!(Value::Num(1e-5).to_json(), "1e-5");
    }

    #[test]
    fn codec_bytes_equal_the_old_writer_on_random_schedules() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..40 {
            let p = rng.random_range(2..12usize);
            let rows: Vec<Vec<f64>> = (0..p)
                .map(|s| {
                    (0..p)
                        .map(|d| match (s == d, trial % 2) {
                            (true, _) => 0.0,
                            // Integral costs, then three-decimal ones.
                            (false, 0) => rng.random_range(1..500u64) as f64,
                            (false, _) => rng.random_range(1..500_000u64) as f64 / 1000.0,
                        })
                        .collect()
                })
                .collect();
            let m = CommMatrix::from_rows(&rows);
            for scheduler in all_schedulers() {
                let s = scheduler.schedule(&m);
                assert_eq!(schedule_to_json(&s), oracle(&s), "{}", scheduler.name());
            }
        }
    }
}
