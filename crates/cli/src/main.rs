//! `adaptcomm` — command-line front end.
//!
//! ```text
//! adaptcomm gusto
//! adaptcomm generate --scenario fig11 --p 20 --seed 1 > matrix.csv
//! adaptcomm schedule --algorithm openshop --matrix matrix.csv --diagram
//! adaptcomm schedule --algorithm matching-max --matrix matrix.csv --svg out.svg
//! adaptcomm compare --matrix matrix.csv
//! adaptcomm sweep --scenario all --trials 5 --threads 4
//! adaptcomm run --backend channel --p 8 --adapt
//! ```
//!
//! Matrices are plain CSV: `P` rows of `P` comma-separated costs in
//! milliseconds (sender-major; zero diagonal).

mod args;
mod csv;
mod top;

use adaptcomm_core::algorithms::{all_schedulers, Scheduler};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::timing::TimingDiagram;
use adaptcomm_workloads::Scenario;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `adaptcomm help` for usage");
            ExitCode::from(2)
        }
    }
}

const HELP: &str = "\
adaptcomm — adaptive communication scheduling (HPDC 1998)

USAGE:
  adaptcomm gusto
      Print the GUSTO latency/bandwidth tables (paper Tables 1-2).

  adaptcomm generate --scenario <fig9|fig10|fig11|fig12|transpose> --p <N>
                     [--seed <u64>] [--n <dim>]
      Emit a communication-cost matrix (CSV, ms) for a paper scenario
      over a random GUSTO-guided network.

  adaptcomm schedule --matrix <file.csv> [--algorithm <name>]
                     [--diagram] [--svg <out.svg>] [--json <out.json>] [--events]
      Schedule a total exchange. Algorithms: baseline, matching-max,
      matching-min, greedy, openshop (default).

  adaptcomm compare --matrix <file.csv> [--threads <N>] [--obs <path>]
      Run every algorithm and print the comparison table. --threads
      (default 1) parallelizes the matching LAP solves; plans are
      bit-identical at any thread count. The `construction` column
      reports how each plan was produced (cold / warm / incremental /
      hit, `-` for stateless schedulers).

  adaptcomm sweep [--scenario <all|fig9|fig10|fig11|fig12>] [--pmin <N>]
                  [--pmax <N>] [--pstep <N>] [--trials <N>] [--threads <N>]
                  [--obs <path>]
      Evaluate every algorithm over the (scenario x P x trial) grid on
      the parallel sweep engine and print lb-ratio statistics. Seeds are
      derived from grid coordinates, so any --threads value produces the
      same numbers. --threads 0 (default) uses all cores; 1 is serial.

  adaptcomm run [--backend <channel|tcp>] [--p <N>] [--scenario <name>]
                [--seed <u64>] [--algorithm <name>] [--adapt]
                [--drift <factor>] [--drift-at <ms>] [--threshold <frac>]
                [--trigger <deviation|detector>]
                [--replanner <openshop|matching-max|matching-min>]
                [--threads <N>] [--status <path>]
                [--pace <us-per-ms>] [--trace] [--obs <path>]
                [--metrics-port <port>]
      Execute a total exchange live: one OS thread per processor moving
      real bytes through the chosen transport under the paper's port
      model. --adapt attaches the measure -> schedule -> execute ->
      adapt loop (probe, publish to the directory, replan at
      checkpoints). --trigger picks the replan decision: `deviation`
      (progress slips past --threshold) or `detector` (per-link CUSUM
      change detection). --replanner picks the replan algorithm
      (default matching-max, which retains its plan across checkpoints
      and serves repeat replans via the paper's §6 incremental
      rescheduling); --threads parallelizes its LAP solves. --drift
      scales a few links' bandwidth by <factor> at --drift-at modeled
      ms to provoke adaptation. --status publishes a live JSON status
      file at every checkpoint for `adaptcomm top` to poll. --trace
      dumps the per-event wall/modeled timeline.

  adaptcomm chaos [--scenario <crash|partition|liar|mixed|spec>] [--p <N>]
                  [--seed <u64>] [--workload <name>] [--obs <path>]
                  [--flight <path>]
      Inject faults into a live total exchange and grade the recovery.
      --scenario names a generated fault class (seeded from --seed and
      scaled to the workload's fault-free makespan) or gives an explicit
      plan spec: `;`-separated `crash:PROC@AT..RESTART`,
      `partition:N,N,..@AT..HEAL`, `liar:SRC-DST@FROMxFACTOR` with times
      in modeled ms (e.g. 'crash:2@120..400;liar:1-3@50x4'). Prints the
      per-fault recovery report, the quarantine roster, the
      recovery-time histogram, and a final `SLO:` verdict line; exits
      nonzero when the SLO is blown or a message was lost or duplicated.
      On an SLO breach the always-on flight recorder dumps its recent
      event window (injected faults, runtime fault/heal notes) to
      --flight (default chaos-flight.jsonl) for post-mortem replay
      through obs-summary.

  adaptcomm top --input <status.json> [--interval <ms>] [--frames <N>]
                [--once] [--capture <obs.jsonl>]
      Watch a running `run --adapt --status <path>` live in the
      terminal: progress, replan events, grant-queue depth, and
      per-link health with sparkline bandwidth history. Refreshes every
      --interval ms (default 250) until the run reports `done`; --once
      renders a single frame and exits (non-interactive / CI).
      --capture points at an obs dump of the run; each frame then ends
      with a `slowest link` blame line from the explain-plane analyzer.

  adaptcomm report --input <obs dump> --html <out.html> [--title <text>]
      Render an observability dump (JSONL or Chrome trace) as a
      self-contained HTML dashboard: inline SVG time-series charts,
      per-phase span table, and a link-health matrix. No external
      assets — the file opens anywhere.

  adaptcomm obs-summary --input <path>
      Summarize an observability dump: per-phase span totals, instants,
      counters. The format follows the extension: `.jsonl` (event
      stream, including flight-recorder dumps), `.prom`/`.txt`
      (Prometheus text), `.json`/`.trace` (Chrome trace). Unknown
      extensions are a typed error naming the supported ones.

  adaptcomm explain (--input <obs dump> | --matrix <file.csv> |
                     --scenario <name> --p <N>) [--seed <u64>] [--n <dim>]
                     [--algorithm <name>] [--k <speedup>] [--top <N>]
                     [--capture <out.jsonl>]
      Explain where a run's completion time comes from. Builds the
      blocking-dependency DAG of the run — from a captured obs dump
      (JSONL or Chrome trace with transfer spans), a matrix scheduled
      with --algorithm (default openshop), or a generated scenario —
      and prints the critical path, the per-link/per-processor blame
      table, a slack histogram, and a COZ-style what-if table: the
      top --top (default 5) links ranked by how much speeding each one
      --k x (default 2) would move the completion, with realized port
      orders held fixed (no re-simulation). --capture writes the
      analyzed transfers back out as a deterministic JSONL capture
      (bit-identical across runs; feed it to obs-diff or report).

  adaptcomm obs-diff --base <dump> --head <dump> [--fail-over <pct>]
      Diff two captures. Spans are aligned per (phase, track) in start
      order and summed over aligned pairs, so truncation skews counts,
      not totals; transfer spans also aggregate per link. Prints
      per-phase and per-link deltas plus the worst regression line.
      With --fail-over, exits nonzero when the worst regression
      exceeds <pct> percent — wire it under perfgate to say *where* a
      regression lives, not just that one exists.

  adaptcomm obs-merge --out <trace.json> --inputs <a.jsonl,b.jsonl,..>
      Merge per-process JSONL captures into one Chrome trace, one
      process lane per input (labeled by file stem). Spans that carry
      the same propagated trace id — e.g. a plan-client request and the
      server-side admission/worker/solve spans it fanned into — line up
      as one cross-process request tree in Perfetto.

  adaptcomm plan-server [--addr <host:port>] [--workers <N>]
                        [--cache <entries>] [--near-tolerance <frac>]
                        [--est-ms <ms>] [--threads <N>] [--pace-ms <ms>]
                        [--obs <path>] [--metrics-port <port>]
                        [--flight-dir <dir>]
      Run the multi-tenant scheduling service: a TCP plan server with a
      fingerprint-keyed plan cache (exact hits replay plans; near hits
      are re-solved incrementally from the cached plan, or warm-start
      the LAP solver when no plan was retained; --threads parallelizes
      the matching solves) and QoS admission control
      (priority tiers, EDF, deadline rejection). --addr defaults to an
      ephemeral loopback port, printed on startup. Runs until a client
      sends the shutdown frame (`plan-client --shutdown`); prints cache
      statistics and each tenant's epoch on exit. --est-ms is the
      service time deadline admission assumes for an (algorithm, P) pair
      it has not timed yet (default 10). --pace-ms stretches every
      cold/warm solve for deterministic queueing demos.
      --metrics-port serves a live scrape surface on 127.0.0.1:
      GET /metrics (Prometheus text), /healthz, and /tenants (per-tenant
      JSON: requests, cache dispositions, deadline-hit ratio, rejects,
      latency digest). A streak of deadline rejections auto-dumps the
      flight recorder into --flight-dir (default: working directory).

  adaptcomm plan-client --addr <host:port>
                        (--matrix <file.csv> | --scenario <name> --p <N>)
                        [--seed <u64>] [--n <dim>] [--algorithm <name>]
                        [--tenant <name>] [--deadline <ms>] [--priority <0-255>]
                        [--critical <s-d,s-d,..>] [--repeat <N>]
                        [--probe] [--shutdown] [--obs <path>]
      Request plans from a running plan server. Prints one `cache: ..`
      line per response (cold / hit / warm / incremental) with epoch, serving
      sequence, completion estimate and solver counters. --probe sends
      a fingerprint-only request (no P^2 matrix on the wire); --repeat
      re-sends the same request to exercise the cache; --shutdown asks
      the server to drain and stop after the requests. --critical pins
      the listed src-dst links to the front of their senders' orders.
      Every request carries a deterministic trace context; --obs captures
      the client-side spans so `obs-merge` can stitch them with the
      server's capture into one cross-process trace.

  adaptcomm help
      This text.

The --obs <path> option (run, compare, sweep, chaos, plan-server,
plan-client) enables the in-process observability registry for the
duration of the command and writes the collected metrics when it
finishes. The export format follows the file extension: `.jsonl` ->
JSONL event stream, `.prom`/`.txt` -> Prometheus-style text dump,
anything else -> Chrome trace_event JSON (load in Perfetto /
chrome://tracing, or feed to obs-summary).
";

/// Every subcommand with the options it reads: `run()` dispatches on
/// it and `args::Options::parse` validates against it, so an option a
/// handler does not read cannot be passed silently.
const COMMANDS: &[args::Command] = &[
    args::Command {
        name: "gusto",
        values: &[],
        flags: &[],
        run: |_| {
            print_gusto();
            Ok(())
        },
    },
    args::Command {
        name: "generate",
        values: &["scenario", "p", "seed", "n"],
        flags: &[],
        run: generate,
    },
    args::Command {
        name: "schedule",
        values: &["matrix", "algorithm", "svg", "json"],
        flags: &["diagram", "events"],
        run: schedule,
    },
    args::Command {
        name: "compare",
        values: &["matrix", "threads", "obs"],
        flags: &[],
        run: compare,
    },
    args::Command {
        name: "sweep",
        values: &[
            "scenario", "pmin", "pmax", "pstep", "trials", "threads", "obs",
        ],
        flags: &[],
        run: sweep,
    },
    args::Command {
        name: "run",
        values: &[
            "backend",
            "p",
            "scenario",
            "seed",
            "algorithm",
            "drift",
            "drift-at",
            "threshold",
            "trigger",
            "replanner",
            "threads",
            "status",
            "pace",
            "obs",
            "metrics-port",
        ],
        flags: &["adapt", "trace"],
        run: run_live,
    },
    args::Command {
        name: "chaos",
        values: &["scenario", "p", "seed", "workload", "obs", "flight"],
        flags: &[],
        run: chaos_run,
    },
    args::Command {
        name: "top",
        values: &["input", "interval", "frames", "capture"],
        flags: &["once"],
        run: top_live,
    },
    args::Command {
        name: "report",
        values: &["input", "html", "title"],
        flags: &[],
        run: report_html,
    },
    args::Command {
        name: "explain",
        values: &[
            "input",
            "matrix",
            "scenario",
            "p",
            "seed",
            "n",
            "algorithm",
            "k",
            "top",
            "capture",
        ],
        flags: &[],
        run: explain,
    },
    args::Command {
        name: "obs-diff",
        values: &["base", "head", "fail-over"],
        flags: &[],
        run: obs_diff,
    },
    args::Command {
        name: "obs-summary",
        values: &["input"],
        flags: &[],
        run: obs_summary,
    },
    args::Command {
        name: "obs-merge",
        values: &["out", "inputs"],
        flags: &[],
        run: obs_merge,
    },
    args::Command {
        name: "plan-server",
        values: &[
            "addr",
            "workers",
            "cache",
            "near-tolerance",
            "est-ms",
            "threads",
            "pace-ms",
            "obs",
            "metrics-port",
            "flight-dir",
        ],
        flags: &[],
        run: plan_server,
    },
    args::Command {
        name: "plan-client",
        values: &[
            "addr",
            "matrix",
            "scenario",
            "p",
            "seed",
            "n",
            "algorithm",
            "tenant",
            "deadline",
            "priority",
            "critical",
            "repeat",
            "obs",
        ],
        flags: &["probe", "shutdown"],
        run: plan_client,
    },
];

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = argv.first() else {
        print!("{HELP}");
        return Ok(());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{HELP}");
        return Ok(());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`"))?;
    (command.run)(&args::Options::parse(command, &argv[1..])?)
}

fn print_gusto() {
    use adaptcomm_model::gusto::{bandwidth_kbps, latency_ms, Site};
    println!("Table 1: latency (ms)");
    for a in Site::ALL {
        let row: Vec<String> = Site::ALL
            .iter()
            .map(|b| {
                if a == *b {
                    "-".into()
                } else {
                    format!("{}", latency_ms(a.index(), b.index()))
                }
            })
            .collect();
        println!("{:>8}: {}", a.name(), row.join(", "));
    }
    println!("Table 2: bandwidth (kbit/s)");
    for a in Site::ALL {
        let row: Vec<String> = Site::ALL
            .iter()
            .map(|b| {
                if a == *b {
                    "-".into()
                } else {
                    format!("{}", bandwidth_kbps(a.index(), b.index()))
                }
            })
            .collect();
        println!("{:>8}: {}", a.name(), row.join(", "));
    }
}

/// Arms the global observability registry when `--obs <path>` was
/// given, returning the export path. The registry starts from a clean
/// slate so the dump covers exactly this command.
fn obs_begin(opts: &args::Options) -> Option<String> {
    let path = opts.get("obs")?;
    let obs = adaptcomm_obs::global();
    obs.clear();
    obs.set_enabled(true);
    Some(path)
}

/// Snapshots the global registry, disables it, and writes the dump in
/// the format implied by the file extension: `.jsonl` → JSONL event
/// stream, `.prom`/`.txt` → Prometheus text, anything else → Chrome
/// trace_event JSON.
fn obs_finish(path: &str) -> Result<(), String> {
    let obs = adaptcomm_obs::global();
    let snap = obs.snapshot();
    obs.set_enabled(false);
    let text = if path.ends_with(".jsonl") {
        snap.to_jsonl()
    } else if path.ends_with(".prom") || path.ends_with(".txt") {
        snap.to_prometheus()
    } else {
        snap.to_chrome_trace()
    };
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {path} ({} span(s), {} instant(s), {} counter(s))",
        snap.spans().count(),
        snap.instants().count(),
        snap.counters.len()
    );
    Ok(())
}

/// `adaptcomm top`: poll a status file and render frames until the run
/// reports `done` (or `--once` / `--frames` bounds the watch).
fn top_live(opts: &args::Options) -> Result<(), String> {
    let path = opts.require("input")?;
    let once = opts.flag("once");
    let interval_ms: u64 = opts.parsed_or("interval", 250)?;
    let max_frames: u64 = opts.parsed_or("frames", 0)?; // 0 = until done
                                                        // With --capture, every frame ends with a "slowest link" blame line
                                                        // from the explain-plane analyzer (computed once; the capture is a
                                                        // finished dump, not the live status file).
    let blame = match opts.get("capture") {
        Some(cpath) => {
            let text =
                std::fs::read_to_string(&cpath).map_err(|e| format!("reading {cpath}: {e}"))?;
            Some(top::blame_line(&text)?)
        }
        None => None,
    };
    let mut rendered = 0u64;
    loop {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if once => return Err(format!("reading {path}: {e}")),
            // The run may not have reached its first checkpoint yet.
            Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                continue;
            }
        };
        let doc = adaptcomm_obs::json::Value::parse(&text)
            .map_err(|e| format!("{path} is not a status document: {e}"))?;
        let frame = top::render_frame(&doc)?;
        if !once {
            // Clear and home, so the frame repaints in place.
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame}");
        if let Some(line) = &blame {
            println!("{line}");
        }
        rendered += 1;
        let done = doc
            .get("state")
            .and_then(adaptcomm_obs::json::Value::as_str)
            == Some("done");
        if once || done || (max_frames > 0 && rendered >= max_frames) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// `adaptcomm report`: observability dump → self-contained HTML
/// dashboard.
fn report_html(opts: &args::Options) -> Result<(), String> {
    let input = opts.require("input")?;
    let out_path = opts.require("html")?;
    let text = std::fs::read_to_string(&input).map_err(|e| format!("reading {input}: {e}"))?;
    let title = opts.get("title").unwrap_or_else(|| input.clone());
    let html = adaptcomm_obs::report::html_report(&text, &title)?;
    std::fs::write(&out_path, &html).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!("wrote {out_path} ({} bytes)", html.len());
    Ok(())
}

/// `adaptcomm explain`: critical-path blame, slack, and what-if
/// projections for a capture or an analytic schedule.
fn explain(opts: &args::Options) -> Result<(), String> {
    use adaptcomm_obs::causal::{transfers_from_text, CausalDag};

    let k: f64 = opts.parsed_or("k", 2.0)?;
    if k.is_nan() || k < 1.0 {
        return Err("--k is a speedup factor and must be >= 1".into());
    }
    let top_k: usize = opts.parsed_or("top", 5)?;

    // The run under analysis: a capture, or an analytic schedule (which
    // also knows the matrix lower bound, so the gap can be reported).
    let (dag, lower_bound_ms, label) = if let Some(path) = opts.get("input") {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let transfers = transfers_from_text(&text)?;
        if transfers.is_empty() {
            return Err(format!(
                "{path} holds no transfer spans (spans with src/dst attrs); \
                 capture a run with --obs <path.jsonl> first"
            ));
        }
        (CausalDag::new(transfers), None, path)
    } else {
        let matrix = if opts.get("matrix").is_some() {
            load_matrix(opts)?
        } else if let Some(name) = opts.get("scenario") {
            scenario_matrix(opts, &name)?
        } else {
            return Err(
                "give --input <obs dump>, --matrix <file.csv>, or --scenario <name> --p <N>".into(),
            );
        };
        let algorithm = opts.get("algorithm").unwrap_or_else(|| "openshop".into());
        let schedule = scheduler_by_name(&algorithm)?.schedule(&matrix);
        let label = format!("{algorithm} schedule, P = {}", matrix.len());
        (
            adaptcomm_core::analyze::dag_of(&schedule),
            Some(matrix.lower_bound().as_ms()),
            label,
        )
    };

    println!(
        "explain: {label} | {} transfer(s) | completion {:.3} ms",
        dag.transfers().len(),
        dag.completion_ms()
    );
    if let Some(lb) = lower_bound_ms {
        let gap = if lb > 0.0 {
            (dag.completion_ms() / lb - 1.0) * 100.0
        } else {
            0.0
        };
        println!("lower bound: {lb:.3} ms | gap above t_lb: {gap:.2}%");
    }

    let path = dag.critical_path();
    println!(
        "critical path: {} hop(s) explaining all {:.3} ms",
        path.len(),
        dag.completion_ms()
    );
    println!(
        "  {:>4} {:>4} {:>12} {:>10} {:>10} {:>12}",
        "src", "dst", "start(ms)", "dur(ms)", "wait(ms)", "contrib(ms)"
    );
    for step in &path {
        let t = step.transfer;
        println!(
            "  {:>4} {:>4} {:>12.3} {:>10.3} {:>10.3} {:>12.3}",
            t.src, t.dst, t.start_ms, t.dur_ms, step.wait_ms, step.contribution_ms
        );
    }

    let blame = dag.blame();
    println!("blame (critical-path time per link):");
    println!(
        "  {:>8} {:>10} {:>10} {:>5} {:>7}",
        "link", "busy(ms)", "wait(ms)", "hops", "share%"
    );
    for l in &blame.links {
        println!(
            "  {:>8} {:>10.3} {:>10.3} {:>5} {:>7.1}",
            format!("{}->{}", l.src, l.dst),
            l.busy_ms,
            l.wait_ms,
            l.hops,
            if blame.completion_ms > 0.0 {
                l.busy_ms / blame.completion_ms * 100.0
            } else {
                0.0
            }
        );
    }
    println!("processors on the path:");
    println!("  {:>5} {:>10} {:>10}", "proc", "send(ms)", "recv(ms)");
    for p in &blame.procs {
        println!("  {:>5} {:>10.3} {:>10.3}", p.proc, p.send_ms, p.recv_ms);
    }

    print!("{}", render_slack_histogram(&dag));

    println!("what-if (one link {k:.1}x faster, realized port orders fixed):");
    println!(
        "  {:>8} {:>14} {:>11}",
        "link", "predicted(ms)", "delta(ms)"
    );
    for w in dag.interventions(k, top_k.max(1)) {
        println!(
            "  {:>8} {:>14.3} {:>11.3}",
            format!("{}->{}", w.src, w.dst),
            w.predicted_ms,
            w.delta_ms
        );
    }

    // A deterministic re-emission of the analyzed transfers: timestamps
    // are rounded to whole microseconds from the modeled times, so two
    // generations of the same run are bit-identical (the committed
    // self-diff fixtures depend on this).
    if let Some(out) = opts.get("capture") {
        let snap = synthetic_capture(dag.transfers());
        std::fs::write(&out, snap.to_jsonl()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out} ({} transfer span(s))", dag.transfers().len());
    }
    Ok(())
}

/// The slack histogram block of `explain`: how much headroom each
/// transfer has before the completion time moves, bucketed as a
/// fraction of the completion time.
fn render_slack_histogram(dag: &adaptcomm_obs::causal::CausalDag) -> String {
    let slack = dag.slack();
    let comp = dag.completion_ms();
    const EDGES: [f64; 5] = [0.01, 0.05, 0.10, 0.25, 0.50];
    let mut counts = [0usize; 7]; // [critical, <=1%, <=5%, <=10%, <=25%, <=50%, >50%]
    for &s in &slack {
        if s <= 0.0 {
            counts[0] += 1;
        } else {
            let frac = if comp > 0.0 { s / comp } else { 0.0 };
            let idx = EDGES.iter().position(|&e| frac <= e).unwrap_or(5);
            counts[idx + 1] += 1;
        }
    }
    let labels = [
        "0 (critical)".to_string(),
        "<=  1%".to_string(),
        "<=  5%".to_string(),
        "<= 10%".to_string(),
        "<= 25%".to_string(),
        "<= 50%".to_string(),
        " > 50%".to_string(),
    ];
    let peak = counts.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::from("slack histogram (headroom as % of completion):\n");
    for (label, &n) in labels.iter().zip(&counts) {
        let bar = "#".repeat((n * 40).div_ceil(peak).min(40) * usize::from(n > 0));
        out.push_str(&format!("  {label:>12}: {n:>5} {bar}\n"));
    }
    out
}

/// The `--capture` output of `explain`: the analyzed transfers as
/// `transfer` spans in the exact shape `runtime::obs_bridge` records,
/// with whole-microsecond timestamps so the emission is deterministic.
fn synthetic_capture(transfers: &[adaptcomm_obs::causal::Transfer]) -> adaptcomm_obs::Snapshot {
    use adaptcomm_obs::{AttrValue, Event, Snapshot, SpanRecord};
    Snapshot {
        events: transfers
            .iter()
            .map(|t| {
                Event::Span(SpanRecord {
                    name: "transfer".into(),
                    tid: t.src as u64 + 1,
                    start_us: (t.start_ms * 1_000.0).round() as u64,
                    dur_us: (t.dur_ms * 1_000.0).round() as u64,
                    attrs: vec![
                        ("src".into(), AttrValue::U64(t.src as u64)),
                        ("dst".into(), AttrValue::U64(t.dst as u64)),
                    ],
                    trace: None,
                })
            })
            .collect(),
        ..Default::default()
    }
}

/// `adaptcomm obs-diff`: aligned base/head comparison of two captures,
/// with an optional regression threshold for CI.
fn obs_diff(opts: &args::Options) -> Result<(), String> {
    let base = opts.require("base")?;
    let head = opts.require("head")?;
    let base_text = std::fs::read_to_string(&base).map_err(|e| format!("reading {base}: {e}"))?;
    let head_text = std::fs::read_to_string(&head).map_err(|e| format!("reading {head}: {e}"))?;
    let diff = adaptcomm_obs::causal::diff_captures(&base_text, &head_text)
        .map_err(|e| format!("diffing {base} vs {head}: {e}"))?;
    print!("{}", diff.render());
    if let Some(threshold) = opts.get("fail-over") {
        let threshold: f64 = threshold
            .parse()
            .map_err(|_| "`--fail-over` has an invalid value".to_string())?;
        if let Some((label, pct)) = diff.worst_regression() {
            if pct > threshold {
                return Err(format!(
                    "regression over threshold: {label} (+{pct:.2}% > {threshold}%)"
                ));
            }
        }
    }
    Ok(())
}

fn obs_summary(opts: &args::Options) -> Result<(), String> {
    let path = opts.require("input")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // Extension-based dispatch: `.prom` parses as Prometheus text,
    // unknown extensions get a typed error naming what is supported.
    let summary =
        adaptcomm_obs::Summary::from_named_text(&path, &text).map_err(|e| e.to_string())?;
    print!("{}", summary.render());
    Ok(())
}

/// `adaptcomm obs-merge`: stitch per-process JSONL captures into one
/// Chrome trace, one process lane per input. Spans that share a
/// propagated trace id line up as a single cross-process request tree.
fn obs_merge(opts: &args::Options) -> Result<(), String> {
    let out = opts.require("out")?;
    let inputs = opts.require("inputs")?;
    let mut parts: Vec<(String, adaptcomm_obs::Snapshot)> = Vec::new();
    for path in inputs.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let snap = adaptcomm_obs::Snapshot::from_jsonl(&text)
            .map_err(|e| format!("{path} is not snapshot JSONL: {e}"))?;
        // The process label is the file stem: client.jsonl -> "client".
        let base = path.rsplit(['/', '\\']).next().unwrap_or(path);
        let label = base.strip_suffix(".jsonl").unwrap_or(base).to_string();
        parts.push((label, snap));
    }
    if parts.is_empty() {
        return Err("`--inputs` needs at least one comma-separated JSONL path".into());
    }
    let trace = adaptcomm_obs::merge_chrome_trace(&parts);
    std::fs::write(&out, &trace).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out} ({} process(es))", parts.len());
    Ok(())
}

/// Starts the scrape server when `--metrics-port` was given. Serving
/// implies an enabled registry — a scrape of a disabled one would read
/// as "all quiet" — so this enables it (obs_begin may already have).
fn metrics_begin(
    opts: &args::Options,
    endpoints: adaptcomm_obs::ScrapeEndpoints,
) -> Result<Option<adaptcomm_obs::MetricsServer>, String> {
    let Some(port) = opts.get("metrics-port") else {
        return Ok(None);
    };
    let port: u16 = port
        .parse()
        .map_err(|_| "`--metrics-port` has an invalid value".to_string())?;
    let obs = adaptcomm_obs::global();
    obs.set_enabled(true);
    let server = adaptcomm_obs::serve_metrics_with(obs.clone(), ("127.0.0.1", port), endpoints)
        .map_err(|e| format!("binding metrics port {port}: {e}"))?;
    println!("metrics on http://{}/metrics", server.local_addr());
    Ok(Some(server))
}

fn scenario_by_name(name: &str, n: usize) -> Result<Scenario, String> {
    Ok(match name {
        "fig9" | "small" => Scenario::Small,
        "fig10" | "large" => Scenario::Large,
        "fig11" | "mixed" => Scenario::Mixed,
        "fig12" | "servers" => Scenario::Servers,
        "transpose" => Scenario::Transpose { n },
        other => return Err(format!("unknown scenario `{other}`")),
    })
}

/// [`scenario_by_name`] for `p` processors, rejecting what generating
/// it would assert on: no processors, or a `transpose` with fewer
/// matrix rows `n` than processors.
fn scenario_for(name: &str, n: usize, p: usize) -> Result<Scenario, String> {
    if p == 0 {
        return Err("--p must be at least 1".into());
    }
    let scenario = scenario_by_name(name, n)?;
    if matches!(scenario, Scenario::Transpose { .. }) && n < p {
        return Err(format!(
            "transpose needs one matrix row per processor, but n = {n} < P = {p}"
        ));
    }
    Ok(scenario)
}

/// The cost matrix of `--scenario <name> --p <N> [--seed <u64>]
/// [--n <dim>]`.
fn scenario_matrix(opts: &args::Options, name: &str) -> Result<CommMatrix, String> {
    let p: usize = opts.require_parsed("p")?;
    let seed: u64 = opts.parsed_or("seed", 0)?;
    let n: usize = opts.parsed_or("n", p.saturating_mul(8))?;
    Ok(scenario_for(name, n, p)?.instance(p, seed).matrix)
}

fn generate(opts: &args::Options) -> Result<(), String> {
    let name = opts.require("scenario")?;
    print!("{}", csv::to_csv(&scenario_matrix(opts, &name)?));
    Ok(())
}

fn load_matrix(opts: &args::Options) -> Result<CommMatrix, String> {
    let path = opts.require("matrix")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    csv::from_csv(&text)
}

fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    all_schedulers()
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| {
            let names: Vec<_> = all_schedulers()
                .iter()
                .map(|s| s.name().to_string())
                .collect();
            format!(
                "unknown algorithm `{name}` (available: {})",
                names.join(", ")
            )
        })
}

fn schedule(opts: &args::Options) -> Result<(), String> {
    let matrix = load_matrix(opts)?;
    let algorithm = opts.get("algorithm").unwrap_or_else(|| "openshop".into());
    let scheduler = scheduler_by_name(&algorithm)?;
    let schedule = scheduler.schedule(&matrix);
    schedule
        .validate()
        .map_err(|e| format!("internal: invalid schedule: {e}"))?;
    println!(
        "{}: completion {} | lower bound {} | ratio {:.4}",
        scheduler.name(),
        schedule.completion_time(),
        matrix.lower_bound(),
        schedule.lb_ratio()
    );
    if opts.flag("events") {
        println!(
            "{:>6} {:>6} {:>12} {:>12}",
            "src", "dst", "start(ms)", "finish(ms)"
        );
        for e in schedule.events() {
            println!(
                "{:>6} {:>6} {:>12.2} {:>12.2}",
                e.src,
                e.dst,
                e.start.as_ms(),
                e.finish.as_ms()
            );
        }
    }
    if opts.flag("diagram") {
        println!("{}", TimingDiagram::of_schedule(&schedule).render(24));
    }
    if let Some(path) = opts.get("json") {
        let json = adaptcomm_core::export::schedule_to_json(&schedule);
        std::fs::write(&path, json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = opts.get("svg") {
        let svg = TimingDiagram::of_schedule(&schedule).render_svg(900, 600);
        std::fs::write(&path, svg).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn sweep(opts: &args::Options) -> Result<(), String> {
    use adaptcomm_bench::experiments::{DEFAULT_TRIALS, FIGURE_P_VALUES};
    use adaptcomm_bench::sweep::{summary_seed, SweepGrid, SweepRunner};
    use adaptcomm_model::generator::GeneratorConfig;

    let pmin: usize = opts.parsed_or("pmin", FIGURE_P_VALUES[0])?;
    let pmax: usize = opts.parsed_or("pmax", *FIGURE_P_VALUES.last().unwrap())?;
    let pstep: usize = opts.parsed_or("pstep", 5)?;
    if pmin < 2 || pmax < pmin || pstep == 0 {
        return Err("need 2 <= --pmin <= --pmax and --pstep >= 1".into());
    }
    let scenario_name = opts.get("scenario").unwrap_or_else(|| "all".into());
    let scenarios = if scenario_name == "all" {
        Scenario::FIGURES.to_vec()
    } else {
        vec![scenario_for(&scenario_name, 64, pmax)?]
    };
    let trials: u64 = opts.parsed_or("trials", DEFAULT_TRIALS)?;
    if trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    let threads: usize = opts.parsed_or("threads", 0)?;
    let runner = if threads == 0 {
        SweepRunner::auto()
    } else {
        SweepRunner::new(threads)
    };

    let grid = SweepGrid {
        scenarios,
        p_values: (pmin..=pmax).step_by(pstep).collect(),
        trials,
        cfg: GeneratorConfig::default(),
        seed_fn: summary_seed,
    };
    let obs_path = obs_begin(opts);
    let clock = std::time::Instant::now();
    let stats = runner.stats(&grid);
    print!("{}", stats.render());
    println!(
        "{} instances in {:.2} s on {} thread(s)",
        stats.instances,
        clock.elapsed().as_secs_f64(),
        runner.threads()
    );
    if let Some(path) = obs_path {
        obs_finish(&path)?;
    }
    Ok(())
}

fn run_live(opts: &args::Options) -> Result<(), String> {
    use adaptcomm_core::algorithms::MatchingKind;
    use adaptcomm_core::checkpointed::{CheckpointPolicy, RescheduleRule};
    use adaptcomm_directory::DirectoryService;
    use adaptcomm_model::units::Millis;
    use adaptcomm_runtime::{
        execute, execute_adaptive_monitored, AdaptSettings, BackendKind, ReplanTrigger, Replanner,
        ShapedConfig,
    };
    use adaptcomm_sim::{Fault, ScriptedFaults};

    let backend: BackendKind = opts
        .get("backend")
        .unwrap_or_else(|| "channel".into())
        .parse()?;
    let p: usize = opts.parsed_or("p", 8)?;
    if p < 2 {
        return Err("--p must be at least 2".into());
    }
    let seed: u64 = opts.parsed_or("seed", 0)?;
    let scenario_name = opts.get("scenario").unwrap_or_else(|| "mixed".into());
    let scenario = scenario_by_name(&scenario_name, p * 8)?;
    let inst = scenario.instance(p, seed);
    let sizes = inst.sizes.to_rows();
    let algorithm = opts.get("algorithm").unwrap_or_else(|| "openshop".into());

    let obs_path = obs_begin(opts);
    let metrics = metrics_begin(opts, adaptcomm_obs::ScrapeEndpoints::new())?;
    let obs = adaptcomm_obs::global();
    let run_start_us = obs.now_us();

    // The initial schedule, as its own driver-track span so a Chrome
    // trace shows scheduling next to the transfers it produced.
    let sched_start_us = obs.now_us();
    let order = scheduler_by_name(&algorithm)?.send_order(&inst.matrix);
    if obs.is_enabled() {
        obs.record_span(adaptcomm_obs::SpanRecord {
            name: "schedule".to_string(),
            tid: 0,
            start_us: sched_start_us,
            dur_us: obs.now_us().saturating_sub(sched_start_us),
            attrs: vec![
                ("algorithm".to_string(), algorithm.as_str().into()),
                ("p".to_string(), p.into()),
            ],
            trace: None,
        });
    }

    let adapt = opts.flag("adapt");
    let drift: f64 = opts.parsed_or("drift", if adapt { 0.25 } else { 1.0 })?;
    if drift <= 0.0 {
        return Err("--drift must be a positive bandwidth factor".into());
    }
    let drift_at: f64 = opts.parsed_or("drift-at", 10.0)?;
    let threshold: f64 = opts.parsed_or("threshold", 0.05)?;
    let pace: f64 = opts.parsed_or("pace", 0.0)?;
    let pace = (pace > 0.0).then_some(pace);

    // A few deterministic links lose bandwidth at the drift instant, so
    // an adaptive run has something to adapt to.
    let script: Vec<Fault> = if (drift - 1.0).abs() > f64::EPSILON {
        (0..p.div_ceil(3))
            .map(|k| Fault {
                at: Millis::new(drift_at),
                src: k,
                dst: (k + 1) % p,
                factor: drift,
            })
            .collect()
    } else {
        Vec::new()
    };
    let faulted = !script.is_empty();
    let mut evolution = ScriptedFaults::new(inst.network.clone(), script);

    let trigger_name = opts.get("trigger").unwrap_or_else(|| "deviation".into());
    let trigger = match trigger_name.as_str() {
        "deviation" => ReplanTrigger::Deviation(RescheduleRule {
            deviation_threshold: threshold,
        }),
        "detector" => ReplanTrigger::Detector,
        other => return Err(format!("unknown trigger `{other}` (deviation|detector)")),
    };
    let status_path = opts.get("status");
    if (status_path.is_some() || opts.get("trigger").is_some()) && !adapt {
        return Err("--status and --trigger require --adapt".into());
    }
    // The matching replanner is the default for adaptive runs: it
    // retains its plan and serves replans incrementally (§6). The
    // library default stays open-shop for backward compatibility.
    let replanner_name = opts.get("replanner").unwrap_or_else(|| "matching".into());
    let replanner = match replanner_name.as_str() {
        "openshop" => Replanner::OpenShop,
        "matching" | "matching-max" => Replanner::Matching(MatchingKind::Max),
        "matching-min" => Replanner::Matching(MatchingKind::Min),
        other => {
            return Err(format!(
                "unknown replanner `{other}` (openshop|matching-max|matching-min)"
            ))
        }
    };
    let threads: usize = opts.parsed_or("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if opts.get("replanner").is_some() && !adapt {
        return Err("--replanner requires --adapt".into());
    }

    let report = if adapt {
        let directory = DirectoryService::new(inst.network.clone());
        let settings = AdaptSettings {
            policy: CheckpointPolicy::EveryEvent,
            trigger,
            pace_us_per_ms: pace,
            replanner,
            threads,
            ..Default::default()
        };
        execute_adaptive_monitored(
            &order.order,
            &sizes,
            &mut evolution,
            &directory,
            backend,
            settings,
            status_path.as_deref().map(std::path::Path::new),
        )
    } else {
        let config = ShapedConfig {
            pace_us_per_ms: pace,
            ..Default::default()
        };
        execute(&order.order, &sizes, &mut evolution, backend, config)
    }
    .map_err(|e| format!("live run failed: {e}"))?;

    if obs.is_enabled() {
        // Every completed transfer becomes a span on its sender's track;
        // the whole command is one root span on the driver track.
        adaptcomm_runtime::obs_bridge::record_transfers(&report.trace, obs);
        obs.record_span(adaptcomm_obs::SpanRecord {
            name: "run".to_string(),
            tid: 0,
            start_us: run_start_us,
            dur_us: obs.now_us().saturating_sub(run_start_us),
            attrs: vec![
                ("backend".to_string(), report.backend.to_string().into()),
                ("algorithm".to_string(), algorithm.as_str().into()),
                ("p".to_string(), p.into()),
            ],
            trace: None,
        });
    }

    println!(
        "live run: backend {} | {} | P = {} | algorithm {} | seed {}",
        report.backend, scenario_name, p, algorithm, seed
    );
    println!(
        "  messages {:>6}   bytes {:>12}   receipts {}",
        report.records.len(),
        report.receipts.iter().map(|r| r.bytes).sum::<u64>(),
        if report.receipts_ok {
            "verified"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "  planned {:>10.2} ms   realized {:>10.2} ms   wall {:>8.2} ms",
        report.planned_makespan.as_ms(),
        report.makespan.as_ms(),
        report.trace.wall_elapsed_us() as f64 / 1000.0
    );
    if faulted {
        println!(
            "  drift: bandwidth x{drift:.2} on {} link(s) at {drift_at:.1} ms",
            p.div_ceil(3)
        );
    }
    if adapt {
        println!(
            "  loop: trigger {trigger_name} | replanner {replanner_name} | {} checkpoint(s), {} reschedule(s) ({} incremental), {} attempt(s), {} measurement(s) published",
            report.checkpoints_evaluated,
            report.reschedules,
            report.incremental_reschedules,
            report.attempts,
            report.measurements_published
        );
    }
    if opts.flag("trace") {
        println!(
            "{:>10} {:>6} {:>6} {:>12} {:>12}",
            "event", "src", "dst", "modeled(ms)", "wall(us)"
        );
        for e in &report.trace.events {
            println!(
                "{:>10} {:>6} {:>6} {:>12.3} {:>12}",
                format!("{:?}", e.kind),
                e.src,
                e.dst,
                e.modeled.as_ms(),
                e.wall_us
            );
        }
    }
    drop(metrics);
    if let Some(path) = obs_path {
        obs_finish(&path)?;
    }
    if !report.receipts_ok {
        return Err(
            "receipt verification failed: physical delivery does not match the size matrix".into(),
        );
    }
    Ok(())
}

/// `adaptcomm chaos`: inject a seeded fault plan into a live exchange
/// and grade the recovery against the fault-free control.
fn chaos_run(opts: &args::Options) -> Result<(), String> {
    use adaptcomm_chaos::{fault_free_makespan, run_chaos, ChaosPlan, SLO_FACTOR};

    let p: usize = opts.parsed_or("p", 8)?;
    if p < 2 {
        return Err("--p must be at least 2".into());
    }
    let seed: u64 = opts.parsed_or("seed", 0)?;
    let scenario = opts.get("scenario").unwrap_or_else(|| "mixed".into());
    let workload_name = opts.get("workload").unwrap_or_else(|| "mixed".into());
    let inst = scenario_by_name(&workload_name, p * 8)?.instance(p, seed);
    let sizes = inst.sizes.to_rows();

    let obs_path = obs_begin(opts);
    let horizon = fault_free_makespan(&inst.network, &sizes)
        .map_err(|e| format!("fault-free control failed: {e}"))?;
    let plan = match scenario.as_str() {
        class @ ("crash" | "partition" | "liar" | "mixed") => {
            ChaosPlan::generate(class, p, seed, horizon)?
        }
        spec => ChaosPlan::parse(p, spec)?,
    };
    let report = run_chaos(&inst.network, &sizes, &plan)
        .map_err(|e| format!("the run did not recover: {e}"))?;

    println!("chaos run: scenario {scenario} | workload {workload_name} | P = {p} | seed {seed}");
    let events: Vec<String> = plan.events.iter().map(|e| e.to_string()).collect();
    println!("  plan: {}", events.join("; "));
    println!(
        "  fault-free {:>10.2} ms   chaotic {:>10.2} ms   attempts {}   reschedules {}",
        report.fault_free_ms, report.chaos_ms, report.attempts, report.reschedules
    );
    if report.faults.is_empty() {
        println!("  faults: none detected");
    } else {
        println!("  faults:");
        for f in &report.faults {
            let recovered = f
                .recovery_ms
                .map(|t| format!("{t:>10.2} ms"))
                .unwrap_or_else(|| "   (never)".into());
            println!(
                "    {:>9}  link {}->{}  detected {:>10.2} ms  recovered {recovered}  parked {:>3}  probes {}",
                f.kind, f.link.0, f.link.1, f.detected_ms, f.parked, f.probes
            );
        }
    }
    if report.quarantined.is_empty() {
        println!("  quarantined: none");
    } else {
        let links: Vec<String> = report
            .quarantined
            .iter()
            .map(|(s, d)| format!("{s}->{d}"))
            .collect();
        println!("  quarantined: {}", links.join(", "));
    }
    let measured: usize = report.histogram.iter().map(|&(_, n)| n).sum();
    if measured > 0 {
        println!("  recovery-time histogram (ms):");
        for &(bound, n) in report.histogram.iter().filter(|&&(_, n)| n > 0) {
            if bound.is_finite() {
                println!("    <= {bound:>8.2}: {n}");
            } else {
                println!("    >  (last)  : {n}");
            }
        }
    }
    println!(
        "  receipts: {}",
        if report.receipts_ok {
            "verified (every payload exactly once)"
        } else {
            "MISMATCH"
        }
    );
    println!("{}", report.slo_line());
    if let Some(path) = obs_path {
        obs_finish(&path)?;
    }
    if !report.receipts_ok {
        return Err("receipt verification failed: a message was lost or duplicated".into());
    }
    if !report.slo_ok() {
        // Post-mortem black box: the recent event window (injected
        // faults, runtime fault/heal notes) goes to disk before the
        // nonzero exit, whether or not --obs was given.
        let flight_path = opts
            .get("flight")
            .unwrap_or_else(|| "chaos-flight.jsonl".into());
        let reason = format!(
            "chaos SLO breach at {:.2}x fault-free (limit {SLO_FACTOR:.2}x)",
            report.slowdown()
        );
        match adaptcomm_obs::flight().dump(std::path::Path::new(&flight_path), &reason) {
            Ok(()) => println!("  flight recorder dumped to {flight_path}"),
            Err(e) => eprintln!("  flight recorder: cannot write {flight_path}: {e}"),
        }
        return Err(format!(
            "recovery blew the SLO: {:.2}x fault-free exceeds the {SLO_FACTOR:.2}x limit",
            report.slowdown()
        ));
    }
    Ok(())
}

fn compare(opts: &args::Options) -> Result<(), String> {
    use adaptcomm_core::algorithms::all_schedulers_threaded;
    let matrix = load_matrix(opts)?;
    let threads: usize = opts.parsed_or("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let obs_path = obs_begin(opts);
    let obs = adaptcomm_obs::global();
    println!(
        "P = {}, lower bound {}, {} solver thread(s)",
        matrix.len(),
        matrix.lower_bound(),
        threads
    );
    println!(
        "{:>14} {:>14} {:>8} {:>12} {:>12}",
        "algorithm", "completion", "ratio", "sched-ms", "construction"
    );
    for scheduler in all_schedulers_threaded(threads) {
        // Construction cost is reported alongside quality — the §6.2
        // concern that run-time scheduling overhead can dominate.
        let span = obs.span("schedule").attr("algorithm", scheduler.name());
        let clock = std::time::Instant::now();
        let s = scheduler.schedule(&matrix);
        let sched_ms = clock.elapsed().as_secs_f64() * 1e3;
        span.end();
        // How the plan was produced: cold/warm/incremental/hit for the
        // matching schedulers (which retain a reuse surface), "-" for
        // algorithms without one. A second `schedule` on the same
        // scheduler value would report "hit".
        let disposition = scheduler.construction_disposition().unwrap_or("-");
        println!(
            "{:>14} {:>14} {:>8.4} {:>12.3} {:>12}",
            scheduler.name(),
            format!("{}", s.completion_time()),
            s.lb_ratio(),
            sched_ms,
            disposition
        );
    }
    if let Some(path) = obs_path {
        obs_finish(&path)?;
    }
    Ok(())
}

/// `adaptcomm plan-server`: run the scheduling service until a client
/// sends the shutdown control frame.
fn plan_server(opts: &args::Options) -> Result<(), String> {
    use adaptcomm_plansrv::{PlanServer, PlanServerConfig};

    let cache_capacity: usize = opts.parsed_or("cache", 256)?;
    if cache_capacity == 0 {
        return Err("--cache must be at least 1".into());
    }
    let near_tolerance: f64 = opts.parsed_or("near-tolerance", 0.10)?;
    if !(near_tolerance.is_finite() && near_tolerance >= 0.0) {
        return Err("--near-tolerance must be a finite, non-negative fraction".into());
    }
    let obs_path = obs_begin(opts);
    // The scrape surface: /metrics + /healthz plus the per-tenant JSON
    // rollup, all read from the global registry the service records to.
    let metrics = metrics_begin(
        opts,
        adaptcomm_obs::ScrapeEndpoints::new().json("/tenants", || {
            let snap = adaptcomm_obs::global().snapshot();
            adaptcomm_obs::json::Value::parse(&adaptcomm_plansrv::server::tenants_json(&snap))
                .expect("tenants_json emits valid JSON")
        }),
    )?;
    // Arm the black box: a deadline-rejection streak dumps the recent
    // event window into --flight-dir (default: the working directory).
    let flight_dir = opts.get("flight-dir").unwrap_or_else(|| ".".into());
    adaptcomm_obs::flight().set_auto_dir(Some(flight_dir.into()));
    let addr = opts.get("addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let pace_ms: f64 = opts.parsed_or("pace-ms", 0.0)?;
    let config = PlanServerConfig {
        workers: opts.parsed_or("workers", 2)?,
        cache_capacity,
        near_tolerance,
        default_est_ms: opts.parsed_or("est-ms", 10.0)?,
        pace: (pace_ms > 0.0).then(|| std::time::Duration::from_secs_f64(pace_ms / 1e3)),
        threads: opts.parsed_or("threads", 1)?,
    };
    let server = PlanServer::bind(&addr, config).map_err(|e| format!("binding {addr}: {e}"))?;
    println!("plan server listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let service = std::sync::Arc::clone(server.service());
    server.join();

    let stats = service.cache_stats();
    println!(
        "plan server stopped: {} plan(s) cached, {} exact hit(s), {} incremental hit(s), \
         {} warm hit(s), {} miss(es), {} eviction(s)",
        stats.inserts,
        stats.exact_hits,
        stats.incremental_hits,
        stats.warm_hits,
        stats.misses,
        stats.evictions
    );
    for (tenant, epoch) in service.tenant_epochs() {
        println!("tenant {tenant}: epoch {epoch}");
    }
    drop(metrics);
    if let Some(path) = obs_path {
        obs_finish(&path)?;
    }
    Ok(())
}

/// `adaptcomm plan-client`: request plans from a running server and
/// print one greppable `cache: ..` line per response.
fn plan_client(opts: &args::Options) -> Result<(), String> {
    use adaptcomm_plansrv::proto::{PlanResponse, QosSpec};
    use adaptcomm_plansrv::PlanClient;

    let addr = opts.require("addr")?;
    let shutdown = opts.flag("shutdown");
    // The request matrix: a CSV file, or a generated scenario. With
    // `--shutdown` alone, there is no request to send. It is built
    // before connecting, so a bad option fails without a server.
    let matrix = if opts.get("matrix").is_some() {
        Some(load_matrix(opts)?)
    } else if let Some(name) = opts.get("scenario") {
        Some(scenario_matrix(opts, &name)?)
    } else if shutdown {
        None
    } else {
        return Err("give --matrix <file.csv> or --scenario <name> --p <N> (or --shutdown)".into());
    };

    // With --obs, the client records its own `plansrv.client` spans
    // (each carrying the request's trace context); merging that dump
    // with the server's via `obs-merge` yields one cross-process tree.
    let obs_path = obs_begin(opts);
    let mut client = PlanClient::connect_retry(addr.as_str(), std::time::Duration::from_secs(5))
        .map_err(|e| format!("connecting to {addr}: {e}"))?;

    if let Some(matrix) = matrix {
        let tenant = opts.get("tenant").unwrap_or_else(|| "cli".into());
        let algorithm = opts
            .get("algorithm")
            .unwrap_or_else(|| "matching-max".into());
        scheduler_by_name(&algorithm)?; // fail fast with the name list
        let priority: u64 = opts.parsed_or("priority", 0)?;
        let qos = QosSpec {
            deadline_ms: opts
                .get("deadline")
                .map(|d| d.parse())
                .transpose()
                .map_err(|_| "`--deadline` has an invalid value".to_string())?,
            priority: u8::try_from(priority).map_err(|_| "`--priority` must fit in 0-255")?,
            critical_links: parse_critical(&opts.get("critical").unwrap_or_default())?,
        };
        let repeat: usize = opts.parsed_or("repeat", 1)?;
        for _ in 0..repeat.max(1) {
            let response = if opts.flag("probe") {
                client.probe(&tenant, &algorithm, matrix.fingerprint(), qos.clone())
            } else {
                client.plan(&tenant, &algorithm, &matrix, qos.clone())
            }
            .map_err(|e| e.to_string())?;
            print_plan_response(&response)?;
        }
    }

    if shutdown {
        match client.shutdown().map_err(|e| e.to_string())? {
            PlanResponse::Bye => println!("server acknowledged shutdown"),
            other => return Err(format!("unexpected shutdown reply: {other:?}")),
        }
    }
    if let Some(path) = obs_path {
        obs_finish(&path)?;
    }
    Ok(())
}

/// Parses `--critical "0-3,2-5"` into `(src, dst)` pairs.
fn parse_critical(spec: &str) -> Result<Vec<(usize, usize)>, String> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (s, d) = part
                .split_once('-')
                .ok_or_else(|| format!("`--critical` entries are `src-dst`, got `{part}`"))?;
            Ok((
                s.trim()
                    .parse()
                    .map_err(|_| format!("bad src in `{part}`"))?,
                d.trim()
                    .parse()
                    .map_err(|_| format!("bad dst in `{part}`"))?,
            ))
        })
        .collect()
}

fn print_plan_response(response: &adaptcomm_plansrv::proto::PlanResponse) -> Result<(), String> {
    use adaptcomm_plansrv::proto::PlanResponse;
    match response {
        PlanResponse::Ok(ok) => {
            println!(
                "cache: {}  epoch: {}  seq: {}  completion: {:.3} ms  service: {:.3} ms  \
                 round1: {} scan(s){}  total: {} scan(s){}",
                ok.cache.as_str(),
                ok.epoch,
                ok.served_seq,
                ok.completion_ms,
                ok.stats.service_ms,
                ok.stats.round1_col_scans,
                if ok.stats.round1_warm { " (warm)" } else { "" },
                ok.stats.total_col_scans,
                match ok.trace_id {
                    Some(id) => format!("  trace: {}", adaptcomm_obs::trace::id_to_hex(id)),
                    None => String::new(),
                },
            );
            if let Some(q) = &ok.quality {
                let hops: Vec<String> = q
                    .critical_path
                    .iter()
                    .map(|(s, d)| format!("{s}->{d}"))
                    .collect();
                println!(
                    "quality: lb-gap {:.2}%  critical path: {}",
                    q.lb_gap_pct,
                    hops.join(" ")
                );
            }
            Ok(())
        }
        PlanResponse::NeedMatrix => {
            println!("cache: need-matrix  (resend with --matrix or --scenario)");
            Ok(())
        }
        PlanResponse::Rejected {
            retry_after_ms,
            detail,
        } => {
            println!("rejected: retry after {retry_after_ms:.3} ms  ({detail})");
            Ok(())
        }
        PlanResponse::Error { detail } => Err(format!("server error: {detail}")),
        PlanResponse::Bye => Err("unexpected bye".into()),
    }
}
