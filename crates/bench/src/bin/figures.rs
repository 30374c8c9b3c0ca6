//! Regenerates every table and figure of the paper.
//!
//! ```text
//! figures [--quick] [--table1] [--table2] [--fig9] [--fig10] [--fig11]
//!         [--fig12] [--fig12wide] [--thm2] [--thm3] [--summary]
//!         [--adaptivity] [--refine] [--incremental] [--staging]
//!         [--fluid] [--barrier] [--csv] [--all]
//!         [--threads <N>] [--serial]
//! ```
//!
//! With no selection flags, `--all` is assumed. `--quick` shrinks the
//! sweeps (fewer processor counts and trials) for CI-speed runs; `--csv`
//! emits machine-readable output after each rendered table.
//!
//! The figure and summary sweeps run on the parallel sweep engine;
//! `--threads N` pins the worker count and `--serial` forces the
//! single-threaded reference path. Per-instance seeds are derived from
//! grid coordinates, so every thread count prints identical tables.

use adaptcomm_bench::experiments::{
    adaptivity_study, barrier_ablation, check_figure_shape, render_gusto_tables, run_figure_on,
    summary_on, theorem2_series, theorem3_worst_ratio, DEFAULT_TRIALS, FIGURE_P_VALUES,
};
use adaptcomm_bench::sweep::SweepRunner;
use adaptcomm_model::generator::GeneratorConfig;
use adaptcomm_workloads::Scenario;
use std::time::Instant;

struct Options {
    quick: bool,
    csv: bool,
    selected: Vec<String>,
    threads: Option<usize>,
    serial: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        csv: false,
        selected: Vec::new(),
        threads: None,
        serial: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--csv" => opts.csv = true,
            "--serial" => opts.serial = true,
            "--threads" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                };
                opts.threads = Some(n);
            }
            "--all" => {}
            other if other.starts_with("--") => opts.selected.push(other[2..].to_string()),
            other => {
                eprintln!("unrecognized argument: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let want = |name: &str| opts.selected.is_empty() || opts.selected.iter().any(|s| s == name);
    let p_values: Vec<usize> = if opts.quick {
        vec![5, 10, 20, 30]
    } else {
        FIGURE_P_VALUES.to_vec()
    };
    let trials = if opts.quick { 2 } else { DEFAULT_TRIALS };
    let runner = if opts.serial {
        SweepRunner::serial()
    } else if let Some(n) = opts.threads {
        SweepRunner::new(n)
    } else {
        SweepRunner::auto()
    };
    let mut sweep_elapsed = std::time::Duration::ZERO;
    let mut sweep_instances = 0usize;

    if want("table1") || want("table2") {
        print!("{}", render_gusto_tables());
    }

    let figures = [
        ("fig9", Scenario::Small),
        ("fig10", Scenario::Large),
        ("fig11", Scenario::Mixed),
        ("fig12", Scenario::Servers),
    ];
    for (flag, scenario) in figures {
        if !want(flag) {
            continue;
        }
        let clock = Instant::now();
        let table = run_figure_on(
            scenario,
            &p_values,
            trials,
            GeneratorConfig::default(),
            &runner,
        );
        sweep_elapsed += clock.elapsed();
        sweep_instances += p_values.len() * trials as usize;
        print!("{}", table.render());
        if let Err(e) = check_figure_shape(&table) {
            println!("!! shape check failed: {e}");
        } else {
            println!("   shape check: OK (adaptive ≥ baseline, openshop near lb)");
        }
        if opts.csv {
            print!("{}", table.to_csv());
        }
        println!();
    }

    if want("fig12wide") {
        use adaptcomm_bench::experiments::improvement_factor;
        let clock = Instant::now();
        let table = run_figure_on(
            Scenario::Servers,
            &p_values,
            trials,
            GeneratorConfig::wide_area(),
            &runner,
        );
        sweep_elapsed += clock.elapsed();
        sweep_instances += p_values.len() * trials as usize;
        println!("# fig12 under the §3.2 wide heterogeneity range (56 kbit/s – 155 Mbit/s)");
        print!("{}", table.render());
        println!(
            "   aggregate baseline/openshop improvement: {:.2}x (paper: 2-5x)",
            improvement_factor(&table)
        );
        if opts.csv {
            print!("{}", table.to_csv());
        }
        println!();
    }

    if want("thm2") {
        println!("# Theorem 2 tightness: baseline ratio on the ε-instance (P=4, bound P/2 = 2)");
        println!("{:>12} {:>10}", "epsilon", "ratio");
        for (eps, ratio) in theorem2_series() {
            println!("{eps:>12.0e} {ratio:>10.5}");
        }
        println!();
    }

    if want("thm3") {
        let n = if opts.quick { 50 } else { 200 };
        let worst = theorem3_worst_ratio(n);
        println!("# Theorem 3: worst open shop completion / lower bound over {n} random instances");
        println!("{worst:.4}  (guarantee: ≤ 2)\n");
    }

    if want("summary") {
        let clock = Instant::now();
        let s = summary_on(&p_values, trials, &runner);
        sweep_elapsed += clock.elapsed();
        sweep_instances += s.instances;
        print!("{}", s.render());
        println!();
    }

    if sweep_instances > 0 {
        println!(
            "# sweep engine: {sweep_instances} instances in {:.2} s on {} thread(s)",
            sweep_elapsed.as_secs_f64(),
            runner.threads()
        );
        println!();
    }

    if want("adaptivity") {
        let trials = if opts.quick { 2 } else { 5 };
        println!(
            "# §6.3 checkpoint policies under a degrading network (P=12, mean over {trials} runs)"
        );
        println!("{:>12} {:>14} {:>12}", "policy", "makespan", "reschedules");
        for (name, makespan, reschedules) in adaptivity_study(12, trials) {
            println!(
                "{name:>12} {:>12.1}ms {reschedules:>12.1}",
                makespan.as_ms()
            );
        }
        println!();
    }

    if want("refine") {
        use adaptcomm_bench::experiments::refinement_study;
        let trials = if opts.quick { 2 } else { 5 };
        println!("# Refinement study: mean completion / lower bound (P=12, {trials} trials)");
        for (label, ratio) in refinement_study(12, trials) {
            println!("{label:>16} {ratio:>8.4}");
        }
        println!();
    }

    if want("incremental") {
        use adaptcomm_bench::experiments::incremental_study;
        let cycles = if opts.quick { 4 } else { 10 };
        println!(
            "# §6.2 incremental scheduling over {cycles} drifting cycles (P=12, matching-max, 5 networks)"
        );
        println!(
            "{:>12} {:>14} {:>14}",
            "strategy", "mean ratio", "rounds solved"
        );
        for (name, ratio, solved) in incremental_study(12, cycles, 5) {
            println!("{name:>12} {ratio:>14.4} {solved:>14}");
        }
        println!();
    }

    if want("staging") {
        use adaptcomm_bench::experiments::staging_study;
        println!("# Data staging: satisfaction vs deadline tightness (10-node WAN)");
        println!("{:>12} {:>12} {:>12}", "tightness", "satisfied", "weighted");
        for (tight, frac, weighted) in staging_study(7) {
            println!(
                "{tight:>12.1} {:>11.0}% {:>11.0}%",
                frac * 100.0,
                weighted * 100.0
            );
        }
        println!();
    }

    if want("fluid") {
        use adaptcomm_bench::experiments::fluid_gap_study;
        println!("# Flat cost model vs fluid topology ground truth (2 sites, shared WAN)");
        println!("{:>4} {:>14} {:>14} {:>8}", "P", "flat", "fluid", "ratio");
        for (p, flat, fluid) in fluid_gap_study(&[4, 8, 12, 16]) {
            println!(
                "{p:>4} {flat:>12.1}ms {fluid:>12.1}ms {:>8.3}",
                fluid / flat
            );
        }
        println!();
    }

    if want("barrier") {
        println!("# Ablation: ASAP vs barrier-synchronized execution of the matching schedule");
        println!("{:>4} {:>14} {:>14}", "P", "asap", "barrier");
        for (p, asap, barrier) in barrier_ablation(&p_values, trials) {
            println!(
                "{p:>4} {:>12.1}ms {:>12.1}ms",
                asap.as_ms(),
                barrier.as_ms()
            );
        }
        println!();
    }
}
