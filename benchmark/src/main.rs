//! `e2e` — the repository benchmark (see `benchmark/README.md`).
//!
//! Four fixed-script workloads measured from outside the system: every
//! layer is timed by calling its public functions, nothing in the
//! workspace is edited. One run prints a human-readable report and, as
//! its last line, one JSON object with the run's metrics.

// `forbid` could not be relaxed for the one foreign call in `clock`, so
// the crate denies unsafe code and that module alone allows it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aa;
mod clock;
mod report;
mod rng;
mod run;
mod selftest;
mod stats;
mod trace;
mod workload;
mod workloads;

use report::RunResult;
use run::RunOptions;
use std::process::ExitCode;
use workload::Workload;
use workloads::live_adapt::LiveAdapt;
use workloads::match_replan::MatchReplan;
use workloads::plansrv_mix::PlansrvMix;
use workloads::sweep_sim::SweepSim;

/// The workload names, in catalogue order.
pub const WORKLOADS: [&str; 4] = [
    PlansrvMix::NAME,
    MatchReplan::NAME,
    SweepSim::NAME,
    LiveAdapt::NAME,
];

/// The run length: `run_seconds` in `BENCHMARK.json` (`--self-test`
/// checks they agree) and `--seconds` when the caller does not say.
pub const RUN_SECONDS: f64 = 26.0;

const USAGE: &str = "\
usage: e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
       e2e --aa R [--seconds S]     two interleaved sets of R >= 5 full runs, A/A report
       e2e --self-test              estimator, script and result-line checks

workloads: plansrv-mix  match-replan  sweep-sim  live-adapt
  --seed N         script seed (default 1): instance draws and perturbed cells
  --seconds S      timed wall time per run (default 26)
  --trace 0|1      0: end-to-end metrics (default); 1: per-layer metrics
  --trace-out FILE write the harness's spans as JSON lines (traced runs)";

/// A parsed command line.
enum Command {
    Run { workload: String, opts: RunOptions },
    Aa { runs: usize, seconds: f64 },
    SelfTest,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, RUN_SECONDS, false);
    let (mut trace_out, mut aa, mut self_test) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--aa" => {
                let runs: usize = value()?.parse().map_err(|_| "--aa takes a whole number")?;
                if runs < 5 {
                    return Err("--aa needs at least 5 runs per set".into());
                }
                aa = Some(runs);
            }
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if self_test {
        return Ok(Command::SelfTest);
    }
    if let Some(runs) = aa {
        return Ok(Command::Aa { runs, seconds });
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    // Opened now, so an unwritable path fails before the run, not after.
    let trace_out = match trace_out {
        Some(path) => Some(
            std::fs::File::create(&path)
                .map_err(|e| format!("cannot write --trace-out {path}: {e}"))?,
        ),
        None => None,
    };
    Ok(Command::Run {
        workload,
        opts: RunOptions {
            seed,
            seconds,
            trace,
            trace_out,
        },
    })
}

/// Runs one workload by name.
fn run_workload(workload: &str, opts: RunOptions) -> Result<RunResult, String> {
    match workload {
        PlansrvMix::NAME => run::run::<PlansrvMix>(opts),
        MatchReplan::NAME => run::run::<MatchReplan>(opts),
        SweepSim::NAME => run::run::<SweepSim>(opts),
        LiveAdapt::NAME => run::run::<LiveAdapt>(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = match parse(&args) {
        Ok(command) => command,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::SelfTest => selftest::run(),
        Command::Aa { runs, seconds } => aa::run(runs, seconds),
        Command::Run { workload, opts } => run_workload(&workload, opts).map(|result| {
            // The result line is the last line of standard output. A run
            // that measured wrong outputs still reports them and exits 0:
            // `correct` and `failed` carry the verdict.
            println!("{}", result.to_json_line());
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    /// `cargo test` runs the same checks as `e2e --self-test`, in one
    /// test so the timing-dependent ones are not disturbed by siblings.
    #[test]
    fn self_test() {
        if let Err(why) = super::selftest::run() {
            panic!("{why}");
        }
    }
}
