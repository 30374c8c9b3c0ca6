//! The runner: repeated set-up, one warm-up cycle, timed cycles, and
//! the four estimator rules (README "Estimator rules").

use crate::clock::{peak_rss_mib, process_cpu_ns};
use crate::report::{Layers, RunResult, END_TO_END};
use crate::stats::{median, op_rank, sorted, spread, sustained};
use crate::trace::Tracer;
use crate::workload::{Verdict, Workload};
use std::fs::File;
use std::io::BufWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Rule 4: the full set-up is built this many times; the last instance
/// serves the timed phase.
pub const SETUP_REPEATS: usize = 5;
/// Rule 1: fewest timed cycles, whatever `--seconds` says.
pub const MIN_CYCLES: usize = 15;
/// Rule 1: fewest raw op samples, `N × cycles`.
pub const MIN_SAMPLES: usize = 1000;
/// A run whose cycle-time spread exceeds this is flagged (never dropped).
pub const SPREAD_FLAG_PCT: f64 = 15.0;

/// What the command line asked for.
pub struct RunOptions {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: timed wall time.
    pub seconds: f64,
    /// `--trace 1`: alternate traced and untraced cycles, report layers.
    pub trace: bool,
    /// `--trace-out`, already opened so a bad path fails before the run.
    pub trace_out: Option<File>,
}

/// Raw samples of one serving instance: its warm-up cycle and every
/// timed cycle.
#[derive(Debug, Default)]
pub struct Samples {
    /// `op_ms[i]` = latencies of op `i`, one per untraced timed cycle.
    pub op_ms: Vec<Vec<f64>>,
    /// Σ op latency per untraced timed cycle.
    pub cycle_ms: Vec<f64>,
    /// Σ op process-CPU time per untraced timed cycle.
    pub cycle_cpu_ms: Vec<f64>,
    /// Σ op latency per traced timed cycle (traced runs only).
    pub traced_cycle_ms: Vec<f64>,
    /// Ops attempted, warm-up cycle included.
    pub attempted: u64,
    /// Ops that failed or whose output did not verify.
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// Σ completion ÷ `t_lb` over every plan produced.
    pub ratio_sum: f64,
    /// Plans in that sum.
    pub ratio_count: u64,
}

/// A quantile over ops: which op class sits at the rank, and its value.
pub struct RankInfo {
    /// Latency at the rank, ms.
    pub ms: f64,
    /// Class of the op sitting at the rank.
    pub class: &'static str,
    /// Rank index into the sorted op latencies.
    pub rank: usize,
}

/// Rules 2 and 3: the sustained latency of each op over its repeats,
/// then rank `q·N` over the `N` ops.
pub fn op_quantile<W: Workload>(w: &W, op_ms: &[Vec<f64>], q: f64) -> RankInfo {
    let mut t: Vec<(f64, usize)> = op_ms
        .iter()
        .enumerate()
        .map(|(i, s)| (sustained(s), i))
        .collect();
    t.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = op_rank(t.len(), q);
    let (ms, op) = t.get(rank).copied().unwrap_or((0.0, 0));
    RankInfo {
        ms,
        class: W::CLASSES[w.class_of(op)],
        rank,
    }
}

/// Runs one cycle of the script and returns `(Σ op ms, Σ op cpu ms)`.
/// The warm-up cycle (`reference` still empty) records each op's
/// completion digest; every later cycle must reproduce it bit for bit.
pub fn run_cycle<W: Workload>(
    w: &mut W,
    tracer: &mut Tracer,
    cycle: u32,
    reference: &mut Vec<u64>,
    samples: &mut Samples,
) -> Result<(f64, f64), String> {
    let warm_up = reference.len() < w.n();
    let record = !warm_up && !tracer.enabled();
    w.begin_cycle()?;
    let (mut cycle_ms, mut cycle_cpu_ms) = (0.0, 0.0);
    for op in 0..w.n() {
        // A panic below a public call costs one op, not the run.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let cpu0 = process_cpu_ns();
            let t0 = Instant::now();
            tracer.begin_op(cycle, op as u32);
            let out = w.exec(op, tracer);
            tracer.end_op();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let cpu_ms = process_cpu_ns().saturating_sub(cpu0) as f64 / 1e6;
            let verdict = match out {
                Ok(out) => w.verify(op, out),
                Err(why) => {
                    let mut v = Verdict::default();
                    v.fail(why);
                    v
                }
            };
            (ms, cpu_ms, verdict)
        }));
        let (ms, cpu_ms, mut verdict) = outcome.unwrap_or_else(|_| {
            tracer.end_op();
            let mut v = Verdict::default();
            v.fail("panicked");
            (0.0, 0.0, v)
        });
        if warm_up {
            reference.push(verdict.completions.finish());
        } else if reference[op] != verdict.completions.finish() {
            verdict.fail("completion times differ from the warm-up cycle's");
        }
        cycle_ms += ms;
        cycle_cpu_ms += cpu_ms;
        if record {
            samples.op_ms[op].push(ms);
        }
        samples.attempted += 1;
        samples.ratio_sum += verdict.ratio_sum;
        samples.ratio_count += u64::from(verdict.ratio_count);
        if let Some(why) = verdict.failure {
            samples.failed += 1;
            if samples.failures.len() < 5 {
                let class = W::CLASSES[w.class_of(op)];
                samples
                    .failures
                    .push(format!("cycle {cycle} op {op} ({class}): {why}"));
            }
        }
    }
    w.end_cycle();
    Ok((cycle_ms, cycle_cpu_ms))
}

/// One full set-up: generate the script and what it is checked against,
/// then run the warm-up cycle (cycle 0).
pub fn set_up<W: Workload>(
    seed: u64,
    trace: bool,
    tracer: &mut Tracer,
) -> Result<(W, Vec<u64>, Samples), String> {
    // Generation is traced (`workloads.instance_ms`); the warm-up cycle
    // is not, or its cold-cache spans would skew the layer medians.
    tracer.set_enabled(trace);
    let mut w = W::build(seed, tracer)?;
    tracer.set_enabled(false);
    let mut samples = Samples {
        op_ms: vec![Vec::new(); w.n()],
        ..Default::default()
    };
    let mut reference = Vec::with_capacity(w.n());
    run_cycle(&mut w, tracer, 0, &mut reference, &mut samples)?;
    Ok((w, reference, samples))
}

/// One full run of workload `W`: prints the human-readable report and
/// returns the contents of the result line.
pub fn run<W: Workload>(opts: RunOptions) -> Result<RunResult, String> {
    // The span buffer exists only on traced runs, so it never shows in
    // an end-to-end run's `peak_rss_mb`.
    let mut tracer = Tracer::new(if opts.trace { 1 << 18 } else { 0 });

    // Rule 4: repeated set-up; the last instance serves.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut peak_rss_mb = None;
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(set_up::<W>(opts.seed, opts.trace, &mut tracer)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        // `peak_rss_mb` is read once, in a process that has built one
        // instance and run one cycle: what later set-ups and cycles add
        // is the allocator's history, not the workload's need.
        peak_rss_mb.get_or_insert_with(|| peak_rss_mib().unwrap_or(0.0));
    }
    let (mut w, mut reference, mut samples) = built.expect("SETUP_REPEATS is at least 1");
    let n = w.n();

    // Rule 1: whole cycles until the time is up and the floors are met.
    // A traced run alternates untraced and traced cycles, so both sides
    // of `harness.trace_overhead_pct` see the same host weather.
    let min_cycles = MIN_CYCLES.max(MIN_SAMPLES.div_ceil(n));
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut cycle = 0u32;
    while started.elapsed() < budget || samples.cycle_ms.len() < min_cycles {
        cycle += 1;
        tracer.set_enabled(opts.trace && cycle.is_multiple_of(2));
        let (ms, cpu_ms) = run_cycle(&mut w, &mut tracer, cycle, &mut reference, &mut samples)?;
        if tracer.enabled() {
            samples.traced_cycle_ms.push(ms);
        } else {
            samples.cycle_ms.push(ms);
            samples.cycle_cpu_ms.push(cpu_ms);
        }
    }

    // Rules 2 and 3.
    let p50 = op_quantile(&w, &samples.op_ms, 0.5);
    let p90 = op_quantile(&w, &samples.op_ms, 0.9);
    let cycle_ms = sustained(&samples.cycle_ms);
    let spread_pct = spread(&samples.cycle_ms) * 100.0;

    println!(
        "workload {}  seed {}  script {:016x}",
        W::NAME,
        opts.seed,
        w.fingerprint()
    );
    println!(
        "samples: N = {n} ops/cycle, {cycle} timed cycle(s) ({} untraced), {} raw op samples, {SETUP_REPEATS} set-ups",
        samples.cycle_ms.len(),
        n * samples.cycle_ms.len(),
    );
    println!(
        "ranks: op_ms.p50 = rank {} of {n}, an op of class {}; op_ms.p90 = rank {}, class {}",
        p50.rank, p50.class, p90.rank, p90.class
    );
    println!(
        "cycle time: sustained {cycle_ms:.3} ms, median {:.3} ms, spread (q75-q25)/q50 = {spread_pct:.2} %{}",
        median(&samples.cycle_ms),
        if spread_pct > SPREAD_FLAG_PCT {
            "  [FLAGGED: noisy run]"
        } else {
            ""
        }
    );
    println!(
        "resident set: peak {:.3} MiB after the first set-up, {:.3} MiB at exit",
        peak_rss_mb.unwrap_or(0.0),
        peak_rss_mib().unwrap_or(0.0)
    );
    for (class, name) in W::CLASSES.iter().enumerate() {
        let t: Vec<f64> = (0..n)
            .filter(|&op| w.class_of(op) == class)
            .map(|op| sustained(&samples.op_ms[op]))
            .collect();
        let t = sorted(&t);
        println!(
            "class {name:<12} {:>4} ops  ms: min {:.3}  median {:.3}  max {:.3}",
            t.len(),
            t.first().copied().unwrap_or(0.0),
            t.get(t.len() / 2).copied().unwrap_or(0.0),
            t.last().copied().unwrap_or(0.0)
        );
    }
    let cycles_ms: Vec<String> = samples.cycle_ms.iter().map(|c| format!("{c:.3}")).collect();
    eprintln!("cycle_ms: {}", cycles_ms.join(" "));
    for why in &samples.failures {
        println!("FAILED {why}");
    }

    let metrics: Vec<(&'static str, &'static str, f64)> = if opts.trace {
        tracer.set_enabled(true);
        w.replay(&mut tracer)
            .map_err(|why| format!("replay failed: {why}"))?;
        let mut layers = Layers::new();
        w.layers(&tracer, &mut layers);
        let traced_ms = sustained(&samples.traced_cycle_ms);
        layers.set(
            "completion_over_lb",
            samples.ratio_sum / samples.ratio_count.max(1) as f64,
        );
        layers.set("harness.cycles", f64::from(cycle));
        layers.set("harness.speed_spread_pct", spread_pct);
        layers.set(
            "harness.trace_overhead_pct",
            (traced_ms - cycle_ms) / cycle_ms * 100.0,
        );
        layers.set("harness.layer_sum_ratio", tracer.layer_sum_ratio());
        layers.rows().to_vec()
    } else {
        let values = [
            p50.ms,
            p90.ms,
            n as f64 / (cycle_ms / 1e3),
            sustained(&samples.cycle_cpu_ms) / n as f64,
            (samples.attempted - samples.failed) as f64 / samples.attempted as f64,
            peak_rss_mb.unwrap_or(0.0),
            sustained(&setup_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    };
    for (name, unit, value) in &metrics {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    if let Some(file) = opts.trace_out {
        tracer
            .write_jsonl(BufWriter::new(file))
            .map_err(|e| format!("cannot write --trace-out: {e}"))?;
    }
    Ok(RunResult {
        correct: samples.failed == 0 && metrics.iter().all(|m| m.2.is_finite()),
        attempted: samples.attempted,
        failed: samples.failed,
        metrics,
    })
}
