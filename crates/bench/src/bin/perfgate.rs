//! The large-P scaling table: what scheduler construction costs where
//! it is large, with a target on every row.
//!
//! ```text
//! perfgate          measure every row, rewrite BENCH_sched.json keeping
//!                   its targets, fail on any row over its target
//! perfgate --check  (CI) measure the P = 256 rows once, fail on any row
//!                   over 10x its committed `ms`
//! ```
//!
//! Rows, on the Figure-10 instances (`Scenario::Large`, seed `42 + P`)
//! at `P ∈ {256, 512, 1024}`: `baseline`, `greedy`, `openshop`
//! (`send_order`), and per matching kind `.cold` (`plan_seeded(m,
//! None)`), `.one-link` (`replan_incremental` after one link costs
//! ×1.3: the diff, the per-round dual-gap certificate — which keeps
//! every round here — and the re-solved suffix, if any) and `.replay`
//! (`send_order` on a scheduler that retains the plan); plus, at `P = 256`, `obs-overhead` (the
//! matching-max replay with the registry and flight recorder recording)
//! and `explain` (the causal analyzer over a realized run). One untimed
//! warm-up, then the upper quartile of five repeats (sorted rank
//! `round(0.75·(k−1))`, benchmark/README.md "Estimator rules" 2);
//! Theorems 3 (`open shop ≤ 2·t_lb`) and 2 (`step-ordered baseline ≤
//! ⌈P/2⌉·t_lb`) are asserted on every instance built.

use adaptcomm_core::algorithms::{
    Baseline, Greedy, MatchingKind, MatchingScheduler, OpenShop, Scheduler,
};
use adaptcomm_core::analyze::dag_of;
use adaptcomm_core::depgraph::baseline_step_ordered_completion;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_obs::json::Value;
use adaptcomm_workloads::Scenario;
use std::hint::black_box;
use std::time::Instant;

const FILE: &str = "BENCH_sched.json";
const SIZES: [usize; 3] = [256, 512, 1024];
const REPEATS: usize = 5;

#[derive(Debug, Clone, PartialEq)]
struct Row {
    name: String,
    p: usize,
    ms: f64,
    target_ms: f64,
}

fn row(name: &str, p: usize, ms: f64, target_ms: f64) -> Row {
    let name = name.to_string();
    Row {
        name,
        p,
        ms,
        target_ms,
    }
}

fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = Value::parse(text)?;
    let rows = doc.as_arr().ok_or("expected an array of rows")?;
    rows.iter()
        .map(|r| {
            let num = |key: &str| r.get(key).and_then(Value::as_f64);
            let (name, p) = (r.get("name")?.as_str()?, r.get("p")?.as_u64()?);
            Some(row(name, p as usize, num("ms")?, num("target_ms")?))
        })
        .collect::<Option<Vec<Row>>>()
        .ok_or_else(|| "every row needs name, p, ms and target_ms".to_string())
}

/// One row per line, so a rebaseline diffs row by row.
fn render_rows(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("name".into(), Value::Str(r.name.clone())),
                ("p".into(), Value::Num(r.p as f64)),
                ("ms".into(), Value::Num(r.ms)),
                ("target_ms".into(), Value::Num(r.target_ms)),
            ])
            .to_json()
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

fn upper_quartile(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[(0.75 * (samples.len() - 1) as f64).round() as usize]
}

/// Wall ms of `f`: one untimed warm-up, then the upper quartile of
/// `repeats` timed calls.
fn measure(repeats: usize, mut f: impl FnMut() -> usize) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let clock = Instant::now();
            black_box(f());
            clock.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    upper_quartile(&mut samples)
}

/// What each measured row is held to — its committed `target_ms` on a
/// full run, ten times its committed `ms` under `--check` — and the
/// rows that exceed it. A measurement the committed file has no row for
/// is an error, not a pass.
fn violations(measured: &[Row], committed: &[Row], check: bool) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for m in measured {
        let c = committed
            .iter()
            .find(|c| c.name == m.name && c.p == m.p)
            .ok_or_else(|| format!("{FILE} has no row {} P={}", m.name, m.p))?;
        let limit = if check { 10.0 * c.ms } else { c.target_ms };
        if m.ms > limit {
            let rule = if check { "10x committed" } else { "target" };
            let (name, p, ms) = (&m.name, m.p, m.ms);
            out.push(format!(
                "{name} P={p}: {ms:.3} ms is over {limit:.3} ms ({rule})"
            ));
        }
    }
    Ok(out)
}

fn assert_theorems(m: &CommMatrix) {
    let (p, lb) = (m.len(), m.lower_bound().as_ms());
    let ratio = OpenShop.schedule(m).lb_ratio();
    assert!(ratio <= 2.0 * (1.0 + 1e-12), "Theorem 3 at P={p}: {ratio}");
    let stepped = baseline_step_ordered_completion(m).as_ms();
    let bound = p.div_ceil(2) as f64 * lb;
    assert!(
        stepped <= bound * (1.0 + 1e-12),
        "Theorem 2 at P={p}: {stepped}"
    );
}

/// `m` with the first link `k → k+1` that stays below the matrix
/// maximum made 1.3× dearer (a new maximum would force a full rebuild).
fn one_link_dearer(m: &CommMatrix) -> CommMatrix {
    let hi = m.max_cost().as_ms();
    let k = (0..m.len() - 1)
        .find(|&k| m.cost(k, k + 1).as_ms() * 1.3 < hi)
        .expect("some link stays below the maximum");
    CommMatrix::from_fn(m.len(), |s, d| {
        m.cost(s, d).as_ms() * if (s, d) == (k, k + 1) { 1.3 } else { 1.0 }
    })
}

fn measure_table(sizes: &[usize], repeats: usize) -> Vec<Row> {
    let obs = adaptcomm_obs::global();
    assert!(!obs.is_enabled(), "the table times uninstrumented code");
    let mut rows: Vec<Row> = Vec::new();
    let mut emit = |name: &str, p: usize, ms: f64, note: &str| {
        println!("{name:<24} P={p:<5} {ms:>10.3} ms{note}");
        rows.push(row(name, p, (ms * 1e3).round() / 1e3, 0.0));
    };
    for &p in sizes {
        let m = Scenario::Large.instance(p, 42 + p as u64).matrix;
        let dearer = one_link_dearer(&m);
        assert_theorems(&m);
        assert_theorems(&dearer);
        for s in [&Baseline as &dyn Scheduler, &Greedy, &OpenShop] {
            let ms = measure(repeats, || s.send_order(&m).order.len());
            emit(s.name(), p, ms, "");
        }
        for kind in [MatchingKind::Max, MatchingKind::Min] {
            let sched = MatchingScheduler::new(kind);
            let name = sched.name();
            let mut cold = None;
            let ms = measure(repeats, || {
                cold.insert(sched.plan_seeded(&m, None)).steps.len()
            });
            emit(&format!("{name}.cold"), p, ms, "");
            let cold = cold.expect("measured at least once");
            let mut kept = 0;
            let ms = measure(repeats, || {
                let plan = sched.replan_incremental(&cold, &dearer);
                assert_eq!(plan.disposition, "incremental");
                kept = plan.spliced_rounds;
                kept
            });
            let note = format!("   (kept {kept}/{p} rounds)");
            emit(&format!("{name}.one-link"), p, ms, &note);
            // The warm-up builds and retains the plan; the repeats replay it.
            let ms = measure(repeats, || sched.send_order(&m).order.len());
            assert_eq!(sched.construction_disposition(), Some("hit"));
            emit(&format!("{name}.replay"), p, ms, "");
        }
    }
    if sizes.contains(&256) {
        let m = Scenario::Large.instance(256, 42 + 256).matrix;
        let sched = MatchingScheduler::new(MatchingKind::Max);
        obs.clear();
        obs.set_enabled(true);
        let ms = measure(repeats, || {
            let span = obs.span("schedule").attr("algorithm", "matching-max");
            let steps = sched.send_order(&m).order.len();
            adaptcomm_obs::flight()
                .note("perfgate.cell")
                .attr("steps", steps)
                .emit();
            span.attr("steps", steps).end();
            steps
        });
        obs.set_enabled(false);
        obs.clear();
        emit("obs-overhead", 256, ms, "");
        // What `adaptcomm explain` does, on a run of ~65k transfers.
        let schedule = sched.schedule(&m);
        let ms = measure(repeats, || {
            let dag = dag_of(&schedule);
            dag.critical_path().len() ^ dag.blame().links.len() ^ dag.interventions(2.0, 5).len()
        });
        emit("explain", 256, ms, "");
    }
    rows
}

/// 1.5× the measured value at two significant digits.
fn fresh_target(ms: f64) -> f64 {
    format!("{:.1e}", 1.5 * ms)
        .parse()
        .expect("a formatted float")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args == ["--check"];
    if !check && !args.is_empty() {
        fail(2, &["usage: perfgate [--check]".to_string()]);
    }
    let committed = std::fs::read_to_string(FILE)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_rows(&text))
        .unwrap_or_else(|e| fail(2, &[format!("{FILE}: {e}")]));
    let sizes = if check { &SIZES[..1] } else { &SIZES[..] };
    let mut rows = measure_table(sizes, if check { 1 } else { REPEATS });
    if !check {
        for r in &mut rows {
            let kept = committed.iter().find(|c| c.name == r.name && c.p == r.p);
            r.target_ms = kept.map_or_else(|| fresh_target(r.ms), |c| c.target_ms);
        }
        std::fs::write(FILE, render_rows(&rows))
            .unwrap_or_else(|e| fail(2, &[format!("cannot write {FILE}: {e}")]));
        println!("wrote {FILE}");
    }
    let reference = if check { &committed } else { &rows };
    match violations(&rows, reference, check) {
        Ok(v) if v.is_empty() => println!("perfgate OK: {} rows within their limits", rows.len()),
        Ok(v) => fail(1, &v),
        Err(e) => fail(2, &[e]),
    }
}

fn fail(code: i32, lines: &[String]) -> ! {
    for line in lines {
        eprintln!("perfgate FAIL: {line}");
    }
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_is_the_upper_quartile_rank() {
        assert_eq!(upper_quartile(&mut [100.0, 1.0, 3.0, 2.0, 4.0]), 4.0);
        assert_eq!(upper_quartile(&mut [7.5]), 7.5);
        assert_eq!(fresh_target(4237.2), 6400.0);
        assert_eq!(fresh_target(0.8), 1.2);
    }

    #[test]
    fn the_committed_file_round_trips_byte_for_byte() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
        let text = std::fs::read_to_string(path).unwrap();
        let rows = parse_rows(&text).unwrap();
        assert_eq!(render_rows(&rows), text);
        assert_eq!(rows.len(), 29);
        assert!(rows.iter().all(|r| r.ms > 0.0 && r.ms <= r.target_ms));
        assert!(parse_rows("[{\"name\":\"x\",\"p\":4,\"ms\":1}]").is_err());
        assert!(parse_rows("{}").is_err());
    }

    #[test]
    fn a_row_over_its_limit_is_exactly_one_named_violation() {
        let rows = |greedy: (f64, f64), openshop: (f64, f64)| {
            let (g, o) = (greedy, openshop);
            [row("greedy", 256, g.0, g.1), row("openshop", 256, o.0, o.1)]
        };
        let committed = rows((5.0, 7.5), (19.0, 28.0));
        let measured = rows((7.0, 0.0), (30.0, 0.0));
        let v = violations(&measured, &committed, false).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("openshop P=256") && v[0].contains("target"));
        // 30 ms is within 10x of 19 ms; 51 ms is not within 10x of 5 ms.
        assert!(violations(&measured, &committed, true).unwrap().is_empty());
        let slow = rows((51.0, 0.0), (30.0, 0.0));
        let v = violations(&slow, &committed, true).unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("greedy P=256") && v[0].contains("10x"));
    }

    #[test]
    fn a_row_missing_from_the_committed_file_is_an_error() {
        let committed = [row("greedy", 256, 5.0, 7.5)];
        let measured = [row("greedy", 512, 1.0, 0.0)];
        for check in [false, true] {
            let err = violations(&measured, &committed, check).unwrap_err();
            assert!(err.contains("greedy P=512"), "{err}");
        }
    }
}
