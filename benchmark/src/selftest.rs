//! `e2e --self-test` (also `cargo test`): checks of the harness itself —
//! the estimators on a committed cycle trace, script determinism, the
//! rule-3 rank margins, the result line, and that verification catches
//! a wrong order.

use crate::report::{parse_result_line, Layers, RunResult, END_TO_END, PER_LAYER};
use crate::run::{op_quantile, run_cycle, set_up};
use crate::stats::{median, op_rank, over_repeats, python_iqr_share, sorted, sustained};
use crate::trace::Tracer;
use crate::workload::Workload;
use crate::workloads::live_adapt::LiveAdapt;
use crate::workloads::match_replan::MatchReplan;
use crate::workloads::plansrv_mix::PlansrvMix;
use crate::workloads::sweep_sim::SweepSim;
use crate::RUN_SECONDS;
use adaptcomm::obs::json::Value;

/// Recorded cycle times (README "Noise profile"); the headers say what
/// each shows. Two single-threaded workloads under fast episodes, and a
/// thread-hand-off workload across a level shift longer than a run.
const FAST_EPISODES_TRACE: &str = include_str!("../data/cycles_fast_episodes.txt");
const SINGLE_THREAD_TRACE: &str = include_str!("../data/cycles_single_thread.txt");
const THREAD_HANDOFF_TRACE: &str = include_str!("../data/cycles_thread_handoff.txt");

/// Rule 3: a quantile rank must sit this share of `N` away from any
/// step of more than [`CLASS_GAP`] between neighbouring op latencies.
const RANK_MARGIN: f64 = 0.08;
const CLASS_GAP: f64 = 1.20;

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

fn parse_trace(text: &str) -> Result<Vec<f64>, String> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .flat_map(str::split_whitespace)
        .map(|t| {
            t.parse()
                .map_err(|_| format!("cycle trace: bad number {t:?}"))
        })
        .collect()
}

/// Reduces the repeats of one quantity to one value.
type Estimator = fn(&[f64]) -> f64;

/// Cuts a trace into consecutive stand-in runs of `seconds` each,
/// reduces every run with `estimator`, and returns the spread of the
/// run values the way the acceptance check takes it.
fn run_to_run_spread(cycles: &[f64], seconds: f64, estimator: Estimator) -> f64 {
    let mut runs = Vec::new();
    let (mut start, mut total) = (0, 0.0);
    for (i, c) in cycles.iter().enumerate() {
        total += c / 1e3;
        if total >= seconds {
            runs.push(estimator(&cycles[start..=i]));
            (start, total) = (i + 1, 0.0);
        }
    }
    python_iqr_share(&runs)
}

/// Why rule 2 is the upper quartile, on the three recordings in full,
/// cut into runs of the benchmark's length: where episodes are shorter
/// than a run it spreads least of the five candidates, and the median
/// moves with every fast episode; where the machine's level shifts for
/// longer than a run no estimator holds, and the table says so.
fn estimators_on_the_recorded_traces() -> Result<(), String> {
    let estimators: [(&str, Estimator); 5] = [
        ("upper quartile", sustained),
        ("median", median),
        ("lower quartile", |v| over_repeats(v, 0.25)),
        ("mean", |v| v.iter().sum::<f64>() / v.len() as f64),
        ("minimum", |v| over_repeats(v, 0.0)),
    ];
    let traces = [
        parse_trace(FAST_EPISODES_TRACE)?,
        parse_trace(SINGLE_THREAD_TRACE)?,
        parse_trace(THREAD_HANDOFF_TRACE)?,
    ];
    ensure(traces.iter().all(|t| t.len() >= 300), || {
        "a cycle trace is truncated".into()
    })?;
    println!("  run-to-run spread of 26 s stand-in runs, (q3 - q1) / median:");
    println!(
        "  {:<16} {:>14} {:>14} {:>14} {:>11}",
        "estimator", "fast episodes", "single-thread", "level shift", "worst case"
    );
    let mut table = Vec::new();
    for (name, estimator) in estimators {
        let row = [0, 1, 2].map(|t| run_to_run_spread(&traces[t], RUN_SECONDS, estimator));
        println!(
            "  {name:<16} {:>13.2}% {:>13.2}% {:>13.2}% {:>10.2}%",
            row[0] * 100.0,
            row[1] * 100.0,
            row[2] * 100.0,
            row.iter().copied().fold(0.0, f64::max) * 100.0
        );
        table.push(row);
    }
    let (upper, median_row) = (table[0], table[1]);
    ensure(median_row[0] > 0.08 && upper[0] < 0.03, || {
        format!(
            "fast episodes: the median spreads {:.2} % and the sustained value {:.2} %; \
             the README says above 8 % and under 3 %",
            median_row[0] * 100.0,
            upper[0] * 100.0
        )
    })?;
    for trace in [0, 1] {
        ensure(table.iter().all(|row| row[trace] >= upper[trace]), || {
            format!("trace {trace}: the upper quartile no longer spreads least: {table:?}")
        })?;
    }
    // A shift of the machine's level that outlasts a run moves whatever
    // a run reports; no estimator is expected to survive it, and the
    // bounds of the timing metrics are sized to it instead.
    ensure(table.iter().all(|row| row[2] > 0.08), || {
        format!("level shift: an estimator now holds it, reconsider rule 2: {table:?}")
    })
}

fn scripts_are_deterministic<W: Workload>() -> Result<(), String> {
    let mut tracer = Tracer::new(0);
    let a = W::build(7, &mut tracer)?;
    let b = W::build(7, &mut tracer)?;
    let c = W::build(8, &mut tracer)?;
    ensure(a.fingerprint() == b.fingerprint(), || {
        format!("{}: same seed, different script", W::NAME)
    })?;
    ensure(a.fingerprint() != c.fingerprint(), || {
        format!("{}: the seed does not change the cells", W::NAME)
    })?;
    ensure(a.shape() == c.shape(), || {
        format!("{}: the seed changed the script shape", W::NAME)
    })?;
    println!(
        "  {}: script {:016x} repeats; seed 8 keeps the shape, changes the cells",
        W::NAME,
        a.fingerprint()
    );
    Ok(())
}

/// Runs a few cycles and checks rule 3 on the measured latencies: every
/// step of more than 20 % between neighbours in the sorted op latencies
/// is a boundary between op populations, and the p50 and p90 ranks must
/// sit at least `0.08·N` ranks from each.
fn rank_margins<W: Workload>(p50_classes: &[&str], p90_classes: &[&str]) -> Result<(), String> {
    let mut tracer = Tracer::new(0);
    let (mut w, mut reference, mut samples) = set_up::<W>(1, false, &mut tracer)?;
    for cycle in 1..=5 {
        run_cycle(&mut w, &mut tracer, cycle, &mut reference, &mut samples)?;
    }
    ensure(samples.failed == 0, || {
        format!("{}: {:?}", W::NAME, samples.failures)
    })?;
    let n = w.n();
    let t = sorted(
        &samples
            .op_ms
            .iter()
            .map(|s| sustained(s))
            .collect::<Vec<_>>(),
    );
    let margin = (RANK_MARGIN * n as f64).ceil() as usize;
    for q in [0.5, 0.9] {
        let rank = op_rank(n, q);
        // A step between ranks i−1 and i is a boundary at i, the first
        // rank of the slower population.
        for i in 1..n {
            ensure(
                !(i.abs_diff(rank) < margin && t[i] > t[i - 1] * CLASS_GAP),
                || {
                    format!(
                    "{}: rank {rank} (q = {q}) is within {margin} ranks of the step {:.3} -> {:.3} ms at rank {i}",
                    W::NAME,
                    t[i - 1],
                    t[i]
                )
                },
            )?;
        }
    }
    let (p50, p90) = (
        op_quantile(&w, &samples.op_ms, 0.5),
        op_quantile(&w, &samples.op_ms, 0.9),
    );
    println!(
        "  {}: p50 is a {} op, p90 a {} op; margins hold",
        W::NAME,
        p50.class,
        p90.class
    );
    ensure(
        p50_classes.contains(&p50.class) && p90_classes.contains(&p90.class),
        || {
            format!(
                "{}: p50/p90 land in {}/{}, documented {p50_classes:?}/{p90_classes:?}",
                W::NAME,
                p50.class,
                p90.class
            )
        },
    )
}

fn result_line_round_trips() -> Result<(), String> {
    let result = RunResult {
        correct: true,
        attempted: 4800,
        failed: 0,
        metrics: END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, m.unit, 1.2034 * (i + 1) as f64 + 1e-7))
            .collect(),
    };
    let line = result.to_json_line();
    ensure(!line.contains('\n'), || {
        "the result line spans lines".into()
    })?;
    let back = parse_result_line(&line)?;
    ensure(
        back.correct && back.attempted == 4800 && back.failed == 0,
        || "result flags changed".into(),
    )?;
    ensure(back.metrics.len() == result.metrics.len(), || {
        "result metrics lost".into()
    })?;
    for ((name, unit, value), (n, u, v)) in result.metrics.iter().zip(&back.metrics) {
        ensure(
            name == n && unit == u && value.to_bits() == v.to_bits(),
            || format!("metric {name} did not survive: {value} {unit} -> {v} {u}"),
        )?;
    }
    // The per-layer table accepts exactly the catalogue.
    let mut layers = Layers::new();
    for (name, _) in PER_LAYER {
        layers.set(name, 1.0);
    }
    Ok(())
}

/// A deliberately wrong expected order must drive `ok_ratio` below 1 and
/// `correct` to false.
fn verification_catches_a_wrong_order() -> Result<(), String> {
    let mut tracer = Tracer::new(0);
    let mut w = PlansrvMix::build(1, &mut tracer)?;
    w.corrupt_expected_order();
    let mut samples = crate::run::Samples {
        op_ms: vec![Vec::new(); w.n()],
        ..Default::default()
    };
    let mut reference = Vec::new();
    run_cycle(&mut w, &mut tracer, 0, &mut reference, &mut samples)?;
    let ok_ratio = (samples.attempted - samples.failed) as f64 / samples.attempted as f64;
    println!(
        "  corrupted expected order: {} of {} ops fail, ok_ratio {ok_ratio:.4}",
        samples.failed, samples.attempted
    );
    ensure(samples.failed >= 1 && ok_ratio < 1.0, || {
        "a corrupted expected order went unnoticed".into()
    })
}

/// If `BENCHMARK.json` is in reach, its metric names, units and bounds
/// must be this crate's catalogue.
fn catalogue_matches_benchmark_json() -> Result<(), String> {
    let Some(text) = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
    else {
        println!("  BENCHMARK.json not in reach; catalogue check skipped");
        return Ok(());
    };
    let doc = Value::parse(&text)?;
    let names = |key: &str| -> Vec<(String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    m.get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    };
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), Some(m.bound)))
        .collect();
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string(), None))
        .collect();
    ensure(names("end_to_end") == e2e, || {
        "BENCHMARK.json end_to_end differs from the catalogue".into()
    })?;
    ensure(names("per_layer") == layers, || {
        "BENCHMARK.json per_layer differs from the catalogue".into()
    })?;
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    ensure(workloads == crate::WORKLOADS, || {
        "BENCHMARK.json workloads differ from the catalogue".into()
    })?;
    ensure(
        doc.get("run_seconds").and_then(Value::as_f64) == Some(RUN_SECONDS),
        || "BENCHMARK.json run_seconds differs from RUN_SECONDS".into(),
    )?;
    println!("  BENCHMARK.json agrees with the catalogue");
    Ok(())
}

/// Runs every check; the first failure is the error.
pub fn run() -> Result<(), String> {
    println!("self-test: estimators");
    estimators_on_the_recorded_traces()?;
    println!("self-test: script determinism");
    scripts_are_deterministic::<PlansrvMix>()?;
    scripts_are_deterministic::<MatchReplan>()?;
    scripts_are_deterministic::<SweepSim>()?;
    scripts_are_deterministic::<LiveAdapt>()?;
    println!("self-test: rank margins (rule 3)");
    // Near and cold round trips cost the same at this size: one stretch.
    rank_margins::<PlansrvMix>(&["hit"], &["near", "cold"])?;
    rank_margins::<MatchReplan>(&["mixed.incremental"], &["servers.incremental"])?;
    rank_margins::<SweepSim>(&["P=30"], &["P=50"])?;
    rank_margins::<LiveAdapt>(&["P=8"], &["P=10"])?;
    println!("self-test: result line and catalogue");
    result_line_round_trips()?;
    catalogue_matches_benchmark_json()?;
    println!("self-test: verification");
    verification_catches_a_wrong_order()?;
    println!("self-test: ok");
    Ok(())
}
