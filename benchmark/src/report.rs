//! The metric catalogue (names and units, identical to `BENCHMARK.json`)
//! and the result line every run ends with.

use adaptcomm::obs::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by every `--trace 0` run.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("op_ms.p50", "ms", Better::Lower, 0.25),
    e2e("op_ms.p90", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_ms_per_op", "ms", Better::Lower, 0.25),
    e2e("ok_ratio", "ratio", Better::Higher, 1e-9),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics: `(name, unit)`, reported by every `--trace 1` run.
/// A layer that is not on a workload's path reports 0 there — which is
/// the prediction "this layer does no work on this workload", stated as
/// a number.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plansrv.rtt_ms.probe", "ms"),
    ("plansrv.rtt_ms.hit", "ms"),
    ("plansrv.rtt_ms.near", "ms"),
    ("plansrv.rtt_ms.cold", "ms"),
    ("plansrv.service_ms.hit", "ms"),
    ("plansrv.service_ms.cold", "ms"),
    ("plansrv.wire_ms.hit", "ms"),
    ("plansrv.encode_request_us", "us"),
    ("plansrv.parse_request_us", "us"),
    ("plansrv.encode_response_us", "us"),
    ("plansrv.parse_response_us", "us"),
    ("plansrv.cache_lookup_us", "us"),
    ("plansrv.cache_insert_us", "us"),
    ("plansrv.request_bytes", "B"),
    ("plansrv.hit_ratio", "ratio"),
    ("plansrv.incremental_ratio", "ratio"),
    ("plansrv.unattributed_ms", "ms"),
    ("core.fingerprint_us", "us"),
    ("core.quality_us", "us"),
    ("core.execute_listed_us", "us"),
    ("core.matching.cold_ms", "ms"),
    ("core.matching.cold_min_ms", "ms"),
    ("core.matching.replan_ms", "ms"),
    ("core.matching.replay_ms", "ms"),
    ("core.matching.servers_cold_ms", "ms"),
    ("core.matching.servers_replan_ms", "ms"),
    ("lap.col_scans_per_plan", "count"),
    ("core.list_sched_ms", "ms"),
    ("sim.run_static_ms", "ms"),
    ("sim.events_per_s", "1/s"),
    ("sim.run_adaptive_ms", "ms"),
    ("workloads.instance_ms", "ms"),
    ("directory.snapshot_us", "us"),
    ("directory.publish_us", "us"),
    ("runtime.execute_ms", "ms"),
    ("runtime.commits_per_s", "1/s"),
    ("runtime.adapt_overhead_ms", "ms"),
    ("runtime.reschedules", "count"),
    ("runtime.incremental_ratio", "ratio"),
    ("completion_over_lb", "ratio"),
    ("harness.cycles", "count"),
    ("harness.speed_spread_pct", "%"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.layer_sum_ratio", "ratio"),
];

/// The per-layer table of one traced run: every catalogue name, 0 until
/// a workload sets it.
pub struct Layers(Vec<(&'static str, &'static str, f64)>);

impl Layers {
    /// All catalogue names at 0.
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, u)| (n, u, 0.0)).collect())
    }

    /// Sets one catalogue metric. A name outside the catalogue is a bug
    /// in this crate, caught by `--self-test`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.2 = value,
            None => panic!("layer metric {name:?} is not in the catalogue"),
        }
    }

    /// `(name, unit, value)` rows in catalogue order.
    pub fn rows(&self) -> &[(&'static str, &'static str, f64)] {
        &self.0
    }
}

/// What one run reports.
pub struct RunResult {
    /// Every op verified and every cycle repeated bit-exactly.
    pub correct: bool,
    /// Ops attempted in timed cycles.
    pub attempted: u64,
    /// Ops that failed or whose output did not verify.
    pub failed: u64,
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// The single-line JSON object a run prints last.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all the digits measured. Non-finite values have
/// no JSON spelling; the runner never emits one for a correct run.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A result line parsed back (the A/A report and `--self-test` read the
/// harness's own output through this).
pub struct ParsedResult {
    /// The `correct` flag.
    pub correct: bool,
    /// The `attempted` count.
    pub attempted: u64,
    /// The `failed` count.
    pub failed: u64,
    /// `(name, unit, value)` in line order.
    pub metrics: Vec<(String, String, f64)>,
}

/// Parses a result line.
pub fn parse_result_line(line: &str) -> Result<ParsedResult, String> {
    let v = Value::parse(line.trim())?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
    let correct = match field("correct")? {
        Value::Bool(b) => *b,
        other => return Err(format!("\"correct\" is not a boolean: {other:?}")),
    };
    let attempted = field("attempted")?
        .as_u64()
        .ok_or("\"attempted\" is not a whole number")?;
    let failed = field("failed")?
        .as_u64()
        .ok_or("\"failed\" is not a whole number")?;
    let Value::Obj(entries) = field("metrics")? else {
        return Err("\"metrics\" is not an object".into());
    };
    let mut metrics = Vec::with_capacity(entries.len());
    for (name, m) in entries {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric {name:?} has no numeric value"))?;
        let unit = m
            .get("unit")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric {name:?} has no unit"))?;
        metrics.push((name.clone(), unit.to_string(), value));
    }
    Ok(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}
