//! `e2e --aa R`: two interleaved sets of `R` full runs of this very
//! build, compared the way the acceptance check compares two builds.
//!
//! Every run is a fresh process; run `i` of either set has `--seed i`,
//! so the two sets differ by the machine only while a set's spread
//! includes the seeds, as the driver's does. Per workload × metric the
//! report gives both set medians, their relative difference, each set's
//! inter-quartile spread (Python's `statistics.quantiles(n=4)` cut
//! points over the median), the largest single-run deviation from its
//! set median, and the bound. A breach — and a non-zero exit — is any of:
//! the set medians differ by half the bound or more; a single run lies
//! further than the bound from its set median; a set's spread is wider
//! than the bound. No metric is exempt.

use crate::report::{parse_result_line, Better, END_TO_END};
use crate::stats::{median, python_iqr_share};
use crate::WORKLOADS;
use std::process::Command;

/// One child run: the metrics of its result line, in catalogue order.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let result = parse_result_line(line)?;
    if !result.correct || result.failed > 0 {
        return Err(format!(
            "{workload} seed {seed}: {} of {} ops failed",
            result.failed, result.attempted
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            result
                .metrics
                .iter()
                .find(|(name, _, _)| name == m.name)
                .map(|(_, _, value)| *value)
                .ok_or_else(|| format!("{workload} seed {seed}: no metric {}", m.name))
        })
        .collect()
}

/// Runs the A/A check and prints the report as Markdown.
pub fn run(runs: usize, seconds: f64) -> Result<(), String> {
    // values[workload][set][metric] = one value per run.
    let mut values = vec![
        [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()]
        ];
        WORKLOADS.len()
    ];
    for i in 0..runs {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            // A and B alternate, so both sets see the same host weather,
            // and share their seeds, so they differ by nothing else.
            for set in 0..2 {
                let seed = (i + 1) as u64;
                eprintln!(
                    "aa: run {}/{runs} set {} {workload} seed {seed}",
                    i + 1,
                    ["A", "B"][set]
                );
                for (m, v) in child_run(workload, seed, seconds)?.into_iter().enumerate() {
                    values[w][set][m].push(v);
                }
            }
        }
    }

    println!("# A/A check: two interleaved sets of {runs} runs of one build\n");
    println!(
        "`e2e --aa {runs} --seconds {seconds}` — every run a fresh process; run i of either set has \
         `--seed i`, A and B alternating; {} logical CPU(s).\n",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "`diff` is set B's median against set A's, positive = worse; `spread` is (q3 − q1) / median \
         of a set, Python `statistics.quantiles(n=4)` cut points; `max run` is the largest single-run \
         deviation from its set median. A breach is |`diff`| at or above half the bound, a `max run` \
         above the bound, or a `spread` above the bound; no metric is exempt. A row inside all three \
         whose spread is above a third of the bound says so.\n"
    );
    println!("| workload | metric | median A | median B | diff | spread A | spread B | max run | bound | verdict |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---:|---|");
    let mut breaches = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[w][0][m], &values[w][1][m]);
            let (med_a, med_b) = (median(a), median(b));
            let worse = match metric.better {
                Better::Lower => (med_b - med_a) / med_a,
                Better::Higher => (med_a - med_b) / med_a,
            };
            let (spread_a, spread_b) = (python_iqr_share(a), python_iqr_share(b));
            let max_run = [(a, med_a), (b, med_b)]
                .iter()
                .flat_map(|(set, med)| set.iter().map(move |v| ((v - med) / med).abs()))
                .fold(0.0, f64::max);
            let spread = spread_a.max(spread_b);
            let mut why = Vec::new();
            if worse.abs() >= metric.bound / 2.0 {
                why.push("diff");
            }
            if max_run > metric.bound {
                why.push("max run");
            }
            if spread > metric.bound {
                why.push("spread");
            }
            let verdict = if !why.is_empty() {
                breaches += 1;
                format!("BREACH ({})", why.join(", "))
            } else if spread > metric.bound / 3.0 {
                "ok (spread above a third of the bound)".to_string()
            } else {
                "ok".to_string()
            };
            println!(
                "| {workload} | {} | {med_a:.6} | {med_b:.6} | {:+.2} % | {:.2} % | {:.2} % | {:.2} % | {} | {verdict} |",
                metric.name,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                max_run * 100.0,
                metric.bound
            );
        }
    }
    println!("\n{breaches} breach(es).");
    if breaches > 0 {
        return Err(format!("A/A check: {breaches} breach(es)"));
    }
    Ok(())
}
