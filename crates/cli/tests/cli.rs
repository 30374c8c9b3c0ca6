//! End-to-end tests of the `adaptcomm` binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adaptcomm"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("adaptcomm-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("generate"));
    // No arguments behaves like help.
    let out = bin().output().unwrap();
    assert!(out.status.success());
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    // ~0.7 MB of CSV: far more than a pipe buffers, so the writer is
    // still writing when its reader hangs up.
    let mut child = bin()
        .args(["generate", "--scenario", "fig12", "--p", "300"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut head = [0u8; 10];
    let mut stdout = child.stdout.take().unwrap();
    stdout.read_exact(&mut head).unwrap();
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn generate_schedule_compare_round_trip() {
    let out = bin()
        .args(["generate", "--scenario", "fig11", "--p", "6", "--seed", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let csv = String::from_utf8(out.stdout).unwrap();
    assert_eq!(csv.lines().count(), 6);

    let matrix_path = temp_path("matrix.csv");
    std::fs::write(&matrix_path, &csv).unwrap();

    let out = bin()
        .args(["compare", "--matrix", matrix_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("openshop"));
    assert!(table.contains("baseline"));

    let json_path = temp_path("sched.json");
    let out = bin()
        .args([
            "schedule",
            "--matrix",
            matrix_path.to_str().unwrap(),
            "--algorithm",
            "matching-max",
            "--events",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains(r#""events""#));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("matching-max"));
    // 6 processors → 30 event rows.
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l
                .trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit()))
            .count(),
        30
    );

    let _ = std::fs::remove_file(matrix_path);
    let _ = std::fs::remove_file(json_path);
}

#[test]
fn an_explain_capture_keeps_every_port_chain() {
    // A transfer starts when its sender's and its receiver's previous
    // transfers have finished; the re-emitted capture, rounded to whole
    // microseconds, must not make one start before either ends.
    let path = temp_path("port-chains.jsonl");
    let out = bin()
        .args(["explain", "--scenario", "mixed", "--p", "8", "--seed", "4"])
        .args(["--capture", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let snap = adaptcomm_obs::snapshot::Snapshot::from_jsonl(&text).unwrap();
    let port = |s: &adaptcomm_obs::snapshot::SpanRecord, key: &str| {
        s.attrs.iter().find_map(|(k, v)| match v {
            adaptcomm_obs::AttrValue::U64(p) if k == key => Some(*p),
            _ => None,
        })
    };
    // (out-port?, processor, start, end): each transfer busies its
    // sender's out-port and its receiver's in-port.
    let mut busy: Vec<(bool, u64, u64, u64)> = snap
        .spans()
        .flat_map(|s| {
            let end = s.start_us + s.dur_us;
            let (src, dst) = (port(s, "src").unwrap(), port(s, "dst").unwrap());
            [(true, src, s.start_us, end), (false, dst, s.start_us, end)]
        })
        .collect();
    assert_eq!(busy.len(), 2 * 56);
    busy.sort_unstable();
    for w in busy.windows(2) {
        let ((out1, p1, _, end), (out2, p2, start, _)) = (w[0], w[1]);
        if (out1, p1) == (out2, p2) {
            assert!(
                start >= end,
                "{w:?}: a transfer starts before its port's previous one ends"
            );
        }
    }
}

#[test]
fn obs_dump_and_summary_round_trip() {
    let trace_path = temp_path("obs-trace.jsonl");
    let out = bin()
        .args([
            "run",
            "--backend",
            "channel",
            "--p",
            "4",
            "--adapt",
            "--obs",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("wrote"));

    // The dump is a JSONL capture with the driver-track spans.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert!(text.lines().all(|l| l.starts_with("{\"type\":")));
    assert!(text.contains("\"schedule\""));
    assert!(text.contains("\"transfer\""));

    let ok = |args: &[&str]| -> String {
        let out = bin().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
        String::from_utf8(out.stdout).unwrap()
    };
    // The dump reads back through explain, and through obs-diff, whose
    // per-phase roll-up names the run's phases.
    let trace = trace_path.to_str().unwrap();
    assert!(ok(&["explain", "--input", trace]).contains("critical path:"));
    let phases = ok(&["obs-diff", "--base", trace, "--head", trace]);
    assert!(phases.contains("phase"), "{phases}");
    assert!(phases.contains("transfer"), "{phases}");
    assert!(phases.contains("schedule"), "{phases}");

    // Any other extension is a usage error before the run starts,
    // `.json` and `.trace` (Chrome trace names) included.
    for ext in ["json", "trace", "csv", "prom"] {
        let path = temp_path(&format!("obs-run.{ext}"));
        let out = bin()
            .args(["run", "--p", "4", "--obs", path.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(
            err.starts_with("error: unsupported capture format"),
            "{err}"
        );
        assert!(out.stdout.is_empty() && !path.exists());
        // Nor does a reader open one.
        let out = bin()
            .args([
                "obs-diff",
                "--base",
                trace,
                "--head",
                path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{ext}");
    }

    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn trigger_requires_adapt() {
    let out = bin()
        .args(["run", "--p", "4", "--trigger", "detector"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--trigger requires --adapt"));
}

/// Kills a spawned server on panic so a failed assertion cannot leak a
/// listener into later test runs. `take()` hands the child back for a
/// clean `wait_with_output` on the success path.
struct ChildGuard(Option<std::process::Child>);

impl ChildGuard {
    fn take(&mut self) -> std::process::Child {
        self.0.take().unwrap()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A real client process and a real server process, each writing its
/// own JSONL capture, in which the client's span and the server's spans
/// share one propagated trace id with correct parent/child nesting
/// across the process boundary — and a raw old-protocol request (no
/// trace field, the pre-trace wire format) still gets served.
#[test]
fn cross_process_trace_merges_into_one_request_tree() {
    use adaptcomm_obs::trace::TraceContext;
    use adaptcomm_obs::{Snapshot, SpanRecord};

    let addr = "127.0.0.1:47907";
    let server_jsonl = temp_path("xproc-server.jsonl");
    let client_jsonl = temp_path("xproc-client.jsonl");

    let mut server = ChildGuard(Some(
        bin()
            .args([
                "plan-server",
                "--addr",
                addr,
                "--obs",
                server_jsonl.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap(),
    ));

    // One traced request from a fresh client: tenant `alice`, seq 0 —
    // every id in the tree is recomputable from that pair.
    let out = bin()
        .args([
            "plan-client",
            "--addr",
            addr,
            "--scenario",
            "fig11",
            "--p",
            "6",
            "--tenant",
            "alice",
            "--obs",
            client_jsonl.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let root = TraceContext::root("alice", 0);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(&format!(
            "trace: {}",
            adaptcomm_obs::trace::id_to_hex(root.trace_id)
        )),
        "client must print the echoed trace id: {stdout}"
    );

    // An old-protocol client: encode a request with no trace field —
    // byte-identical to the pre-trace wire format — over a raw socket.
    {
        use adaptcomm_plansrv::proto::{
            encode_request, parse_response, PlanRequest, PlanResponse, QosSpec, Request, MAX_FRAME,
            PROTO_VERSION,
        };
        use adaptcomm_runtime::tcp::{read_frame, write_frame};
        let matrix = adaptcomm_core::matrix::CommMatrix::from_fn(4, |s, d| {
            if s == d {
                0.0
            } else {
                (s * 4 + d) as f64
            }
        });
        let request = Request::Plan(PlanRequest {
            tenant: "legacy".into(),
            algorithm: "matching-max".into(),
            matrix: Some(matrix.clone()),
            fingerprint: Some(matrix.fingerprint()),
            qos: QosSpec::default(),
            trace: None,
        });
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, PROTO_VERSION, &encode_request(&request)).unwrap();
        let (tag, payload) = read_frame(&mut stream, MAX_FRAME).unwrap();
        assert_eq!(tag, PROTO_VERSION);
        match parse_response(&payload).unwrap() {
            PlanResponse::Ok(ok) => assert_eq!(ok.trace_id, None, "no trace in, no trace out"),
            other => panic!("legacy request failed: {other:?}"),
        }
    }

    let out = bin()
        .args(["plan-client", "--addr", addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = server.take().wait_with_output().unwrap();
    assert!(out.status.success(), "server exit: {:?}", out.status);

    // Each process's capture, decoded by the one codec. Nesting is
    // asserted via parent ids, not timestamps — each process keeps its
    // own clock epoch.
    let decode = |path: &std::path::Path| -> Snapshot {
        Snapshot::from_jsonl(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    let (client, server) = (decode(&client_jsonl), decode(&server_jsonl));
    let trace_of = |snap: &Snapshot, name: &str| -> TraceContext {
        let span: &SpanRecord = snap
            .spans()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span {name:?}"));
        span.trace
            .unwrap_or_else(|| panic!("span {name:?} carries no trace"))
    };
    let worker_ctx = root.child(2);
    let client_span = trace_of(&client, "plansrv.client");
    let admission = trace_of(&server, "plansrv.admission");
    let worker = trace_of(&server, "plansrv.worker");
    let solve = trace_of(&server, "plansrv.solve");
    // One trace id across the process boundary.
    for (label, span) in [
        ("client", client_span),
        ("admission", admission),
        ("worker", worker),
        ("solve", solve),
    ] {
        assert_eq!(span.trace_id, root.trace_id, "{label} span trace id");
    }
    // The client's span IS the root: no parent.
    assert_eq!(client_span.span_id, root.span_id);
    assert_eq!(client_span.parent_id, None);
    // Server-side spans hang off the propagated root, children off the
    // worker — the exact derivation the client can recompute.
    assert_eq!(admission.parent_id, Some(root.span_id));
    assert_eq!(worker.span_id, worker_ctx.span_id);
    assert_eq!(worker.parent_id, Some(root.span_id));
    assert_eq!(solve.parent_id, Some(worker_ctx.span_id));
    // And the tree genuinely crosses processes: the client span is only
    // in the client's capture, the worker span only in the server's.
    assert!(!client.spans().any(|s| s.name == "plansrv.worker"));
    assert!(!server.spans().any(|s| s.name == "plansrv.client"));

    let _ = std::fs::remove_file(server_jsonl);
    let _ = std::fs::remove_file(client_jsonl);
}

/// The flight-recorder acceptance path: a chaos run that blows the SLO
/// exits nonzero AND leaves a dump of the recent event window behind,
/// containing the injected faults and the replans they provoked, and
/// the dump reads back through `obs-diff`.
#[test]
fn chaos_slo_breach_dumps_flight_recorder() {
    let flight = temp_path("chaos-flight.jsonl");
    // A ring of liar faults at 100x degradation from t=0: the run
    // completes (nothing is dead, so nothing parks), but every link
    // crawls — deterministically far past the 3x completion SLO.
    let out = bin()
        .args([
            "chaos",
            "--p",
            "6",
            "--seed",
            "0",
            "--scenario",
            "liar:0-1@0x100;liar:1-2@0x100;liar:2-3@0x100;\
             liar:3-4@0x100;liar:4-5@0x100;liar:5-0@0x100",
            "--flight",
            flight.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "an SLO breach must exit nonzero");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("blew the SLO"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("flight recorder dumped to"), "{stdout}");

    // The dump exists, names its trigger, and holds the fault window:
    // the injected specs and the replans they caused.
    let text = std::fs::read_to_string(&flight).unwrap();
    assert!(text.contains("flight.dump"), "dump must name its trigger");
    assert!(text.contains("chaos SLO breach"));
    assert!(text.contains("chaos.inject"));
    assert!(text.contains("runtime.replan"));

    // And it reads back through the one codec: the CLI's obs-diff
    // takes it, and the decoded event log holds the injected faults.
    let path = flight.to_str().unwrap();
    let out = bin()
        .args(["obs-diff", "--base", path, "--head", path])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap = adaptcomm_obs::Snapshot::from_jsonl(&text).unwrap();
    assert!(snap.instants().any(|i| i.name == "chaos.inject"));

    let _ = std::fs::remove_file(flight);
}

#[test]
fn errors_exit_nonzero_with_message() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command"));

    let out = bin()
        .args(["schedule", "--matrix", "/definitely/missing.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = bin()
        .args(["generate", "--scenario", "nope", "--p", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown scenario"));

    let out = bin().args(["generate", "--p", "4"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--scenario"));

    // Scenario options the generators would assert on are usage errors,
    // not panics; plan-client rejects them before it connects.
    for args in [
        "generate --scenario mixed --p 0",
        "explain --scenario transpose --p 8 --n 4",
        "sweep --scenario transpose --pmin 70 --pmax 70 --trials 1",
        "explain --scenario mixed --p 4 --k NaN",
        "plan-client --addr 127.0.0.1:1 --scenario mixed --p 0",
        // Unknown subcommands and unknown options.
        "top",
        "report --input run.jsonl --html run.html",
        "run --adapt --status x",
        "run --metrics-port 9100",
        "plan-server --metrics-port 9100",
        "gusto",
        "obs-summary --input run.jsonl",
        "obs-merge --out merged.json --inputs a.jsonl,b.jsonl",
        "schedule --matrix m.csv --svg out.svg",
        "sweep --obs x.jsonl",
    ] {
        let out = bin().args(args.split(' ')).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert!(err.starts_with("error:"), "{args}: {err}");
        assert!(!err.contains("panicked"), "{args}: {err}");
    }

    // A capture line of a record type the codec does not read (the
    // `series` and `counter` records older captures carry) is an error
    // naming the line.
    let capture = temp_path("unknown-type.jsonl");
    for (kind, line) in [
        ("series", "{\"type\":\"series\",\"name\":\"link.0-1.bandwidth_kbps\",\"capacity\":64,\"points\":[[0,1000]]}"),
        ("counter", "{\"type\":\"counter\",\"name\":\"sched.matching.rounds\",\"value\":8}"),
    ] {
        std::fs::write(
            &capture,
            format!("{{\"type\":\"instant\",\"name\":\"a\",\"tid\":1,\"ts_us\":0}}\n{line}\n"),
        )
        .unwrap();
        let out = bin()
            .args(["explain", "--input", capture.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(err.starts_with("error:"), "{err}");
        assert!(err.contains(&format!("line 2: unknown type {kind:?}")), "{err}");
    }
    let _ = std::fs::remove_file(capture);

    // A span whose end does not fit in a u64 is a decode error naming
    // its line, not an overflow in the analysis or the capture encoder.
    let capture = temp_path("overflow.jsonl");
    let out_path = temp_path("overflow-out.jsonl");
    std::fs::write(
        &capture,
        "{\"type\":\"span\",\"name\":\"transfer\",\"tid\":1,\
         \"start_us\":18446744073709549568,\"dur_us\":4096,\"attrs\":{\"src\":0,\"dst\":1}}\n",
    )
    .unwrap();
    let out = bin()
        .args(["explain", "--input", capture.to_str().unwrap()])
        .args(["--capture", out_path.to_str().unwrap()])
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("line 1: span end"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(capture);
    let _ = std::fs::remove_file(out_path);

    // A transfer whose sender no transfer track could hold is not a
    // transfer: `explain` says so instead of indexing by it.
    let capture = temp_path("huge-id.jsonl");
    std::fs::write(
        &capture,
        "{\"type\":\"span\",\"name\":\"transfer\",\"tid\":4294967296,\"start_us\":0,\
         \"dur_us\":10,\"attrs\":{\"src\":\"18446744073709551615\",\"dst\":1}}\n",
    )
    .unwrap();
    let out = bin()
        .args(["explain", "--input", capture.to_str().unwrap()])
        .output()
        .unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error:"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(capture);

    // A NaN regression threshold compares false against everything, so
    // it would switch the gate off; it is rejected like `explain --k`.
    let (base, head) = (temp_path("gate-base.jsonl"), temp_path("gate-head.jsonl"));
    let span = |dur_us: u64| {
        format!("{{\"type\":\"span\",\"name\":\"solve\",\"tid\":1,\"start_us\":0,\"dur_us\":{dur_us}}}\n")
    };
    std::fs::write(&base, span(1)).unwrap();
    std::fs::write(&head, span(100_000_001)).unwrap();
    for (threshold, why) in [
        ("NaN", "--fail-over is a percentage"),
        ("0", "regression over threshold"),
    ] {
        let out = bin()
            .args(["obs-diff", "--base", base.to_str().unwrap()])
            .args(["--head", head.to_str().unwrap(), "--fail-over", threshold])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{threshold}: {err}");
        assert!(
            err.starts_with("error:") && err.contains(why),
            "{threshold}: {err}"
        );
    }
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(head);
}

#[test]
fn plan_server_rejects_an_unusable_cache_before_binding() {
    // These used to panic inside `PlanCache::new` once `bind` ran.
    for (flag, value) in [
        ("--cache", "0"),
        ("--near-tolerance", "-0.5"),
        ("--near-tolerance", "NaN"),
        ("--near-tolerance", "inf"),
    ] {
        let out = bin()
            .args(["plan-server", "--addr", "127.0.0.1:0", flag, value])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err}");
        assert!(err.contains(flag), "{flag} {value}: {err}");
    }
}

#[test]
fn a_misspelt_option_is_rejected_naming_the_valid_ones() {
    // `--treshold` used to run with the default threshold, silently.
    let out = bin()
        .args(["run", "--p", "6", "--treshold", "0.5", "--adapt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("`--treshold`") && err.contains("`run`"),
        "{err}"
    );
    assert!(err.contains("--threshold"), "{err}");
}

#[test]
fn every_option_help_advertises_is_accepted_by_its_command() {
    let help = String::from_utf8(bin().arg("help").output().unwrap().stdout).unwrap();
    // A usage block is the `  adaptcomm <command> …` line plus its
    // deeper-indented continuation lines; the six-space description
    // that follows ends it.
    let mut advertised: Vec<(String, Vec<String>)> = Vec::new();
    let mut in_usage = false;
    for line in help.lines() {
        if let Some(rest) = line.strip_prefix("  adaptcomm ") {
            let command = rest.split_whitespace().next().unwrap().to_string();
            advertised.push((command, Vec::new()));
            in_usage = true;
        } else if !line.starts_with("       ") {
            in_usage = false;
        }
        if in_usage {
            let options = &mut advertised.last_mut().unwrap().1;
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if word.starts_with("--") && word.len() > 2 {
                    options.push(word.to_string());
                }
            }
        }
    }
    assert!(advertised.len() >= 11, "parsed only {advertised:?}");
    let mut checked = 0;
    let mut unlisted: Vec<String> = Vec::new();
    for (command, options) in advertised {
        if command == "help" {
            continue;
        }
        // The rejection of a sentinel lists what the command accepts,
        // without running its handler.
        let out = bin()
            .args([command.as_str(), "--no-such-option", "x"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{command} accepted the sentinel");
        let err = String::from_utf8(out.stderr).unwrap();
        let valid = err
            .split_once("valid options: ")
            .unwrap_or_else(|| panic!("{command}: {err}"))
            .1;
        let valid: Vec<&str> = valid
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect();
        for option in &options {
            assert!(
                valid.contains(&option.as_str()),
                "`adaptcomm {command}` advertises {option} but accepts only {valid:?}"
            );
            checked += 1;
        }
        // And the other way: nothing is accepted in silence.
        unlisted.extend(
            (valid.iter().filter(|v| !options.iter().any(|o| o == *v)))
                .map(|v| format!("{command} {v}")),
        );
    }
    assert!(
        checked >= 75,
        "only {checked} advertised options were checked"
    );
    assert!(
        unlisted.is_empty(),
        "accepted but missing from `adaptcomm help`: {unlisted:?}"
    );
}
