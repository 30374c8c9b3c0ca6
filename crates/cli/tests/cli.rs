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
fn gusto_prints_both_tables() {
    let out = bin().arg("gusto").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Table 1"));
    assert!(text.contains("4976"));
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

    let svg_path = temp_path("sched.svg");
    let json_path = temp_path("sched.json");
    let out = bin()
        .args([
            "schedule",
            "--matrix",
            matrix_path.to_str().unwrap(),
            "--algorithm",
            "matching-max",
            "--events",
            "--svg",
            svg_path.to_str().unwrap(),
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"));
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
    let _ = std::fs::remove_file(svg_path);
    let _ = std::fs::remove_file(json_path);
}

#[test]
fn obs_dump_and_summary_round_trip() {
    let trace_path = temp_path("obs-trace.json");
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

    // The dump is a Chrome trace document with the driver-track spans.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert!(text.contains("traceEvents"));
    assert!(text.contains("\"schedule\""));
    assert!(text.contains("\"transfer\""));

    let out = bin()
        .args(["obs-summary", "--input", trace_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8(out.stdout).unwrap();
    assert!(summary.contains("phase"));
    assert!(summary.contains("transfer"));
    assert!(summary.contains("schedule"));

    // JSONL export of the same run parses as a summary too.
    let jsonl_path = temp_path("obs-trace.jsonl");
    let out = bin()
        .args(["run", "--p", "4", "--obs", jsonl_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["obs-summary", "--input", jsonl_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let _ = std::fs::remove_file(trace_path);
    let _ = std::fs::remove_file(jsonl_path);
}

/// A self-contained HTML sanity check: one document, inline SVG, no
/// external fetches (every `http` occurrence is an SVG xmlns).
fn assert_self_contained_html(html: &str) {
    assert!(
        html.starts_with("<!DOCTYPE html>"),
        "must be a full document"
    );
    assert!(html.contains("</html>"));
    assert!(html.contains("<svg"), "charts must be inline SVG");
    assert_eq!(
        html.matches("http").count(),
        html.matches("http://www.w3.org/2000/svg").count(),
        "no external links: every http occurrence must be the SVG xmlns"
    );
    assert!(!html.contains("<script src"));
    assert!(!html.contains("<link "));
}

#[test]
fn report_renders_html_from_both_jsonl_and_chrome_dumps() {
    for (ext, name) in [("jsonl", "jsonl"), ("json", "chrome")] {
        let dump = temp_path(&format!("report-dump-{name}.{ext}"));
        let out = bin()
            .args([
                "run",
                "--p",
                "4",
                "--adapt",
                "--obs",
                dump.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );

        let html_path = temp_path(&format!("report-{name}.html"));
        let out = bin()
            .args([
                "report",
                "--input",
                dump.to_str().unwrap(),
                "--html",
                html_path.to_str().unwrap(),
                "--title",
                "smoke run",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let html = std::fs::read_to_string(&html_path).unwrap();
        assert_self_contained_html(&html);
        assert!(html.contains("smoke run"));
        // The adaptive run's prober feeds link series; both dump
        // formats must carry them into the dashboard.
        assert!(html.contains("link."), "{name}: link series missing");

        let _ = std::fs::remove_file(dump);
        let _ = std::fs::remove_file(html_path);
    }
}

#[test]
fn adaptive_run_publishes_a_status_file_top_can_render() {
    let status = temp_path("status.json");
    let out = bin()
        .args([
            "run",
            "--p",
            "4",
            "--adapt",
            "--trigger",
            "detector",
            "--status",
            status.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("trigger detector"));

    // The finished run leaves a `done` status document behind; a single
    // non-interactive frame renders from it.
    let out = bin()
        .args(["top", "--input", status.to_str().unwrap(), "--once"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let frame = String::from_utf8(out.stdout).unwrap();
    assert!(frame.contains("done"));
    assert!(frame.contains("12/12 transfers"));
    assert!(frame.contains("100%"));
    assert!(frame.contains("links"));
    // --once must not emit terminal control sequences.
    assert!(!frame.contains('\x1b'));

    let _ = std::fs::remove_file(status);
}

#[test]
fn status_and_trigger_require_adapt() {
    let out = bin()
        .args(["run", "--p", "4", "--trigger", "detector"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("require --adapt"));

    let out = bin()
        .args(["top", "--input", "/definitely/missing.json", "--once"])
        .output()
        .unwrap();
    assert!(!out.status.success());
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

/// One blocking HTTP/1.0 exchange against the scrape server, retrying
/// the connect while it races its bind. Returns `(status_line, body)`.
fn http_get(addr: &str, path: &str) -> (String, String) {
    use std::io::{Read as _, Write as _};
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut stream = loop {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) if std::time::Instant::now() >= deadline => {
                panic!("connecting to metrics server {addr}: {e}")
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// The tentpole acceptance test: a real client process and a real
/// server process, each writing its own JSONL capture, merged by
/// `obs-merge` into one Chrome trace in which the client's span and the
/// server's spans share one propagated trace id with correct
/// parent/child nesting across the process boundary — and a raw
/// old-protocol request (no trace field, the pre-trace wire format)
/// still gets served.
#[test]
fn cross_process_trace_merges_into_one_request_tree() {
    use adaptcomm_obs::json::Value;
    use adaptcomm_obs::trace::{id_to_hex, TraceContext};

    let addr = "127.0.0.1:47907";
    let server_jsonl = temp_path("xproc-server.jsonl");
    let client_jsonl = temp_path("xproc-client.jsonl");
    let merged = temp_path("xproc-merged.json");

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
        stdout.contains(&format!("trace: {}", id_to_hex(root.trace_id))),
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

    let out = bin()
        .args([
            "obs-merge",
            "--out",
            merged.to_str().unwrap(),
            "--inputs",
            &format!(
                "{},{}",
                client_jsonl.to_str().unwrap(),
                server_jsonl.to_str().unwrap()
            ),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The merged document: find each span's begin event and check the
    // propagated ids. Nesting is asserted via parent ids, not
    // timestamps — each process keeps its own clock epoch.
    let doc = Value::parse(&std::fs::read_to_string(&merged).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    let begin = |name: &str| {
        events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Value::as_str) == Some("B")
                    && e.get("name").and_then(Value::as_str) == Some(name)
            })
            .unwrap_or_else(|| panic!("no begin event for span {name:?}"))
    };
    let arg = |e: &Value, key: &str| {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let worker_ctx = root.child(2);
    let client_span = begin("plansrv.client");
    let admission = begin("plansrv.admission");
    let worker = begin("plansrv.worker");
    let solve = begin("plansrv.solve");
    // One trace id across the process boundary.
    for (label, span) in [
        ("client", client_span),
        ("admission", admission),
        ("worker", worker),
        ("solve", solve),
    ] {
        assert_eq!(
            arg(span, "trace_id").as_deref(),
            Some(id_to_hex(root.trace_id).as_str()),
            "{label} span trace id"
        );
    }
    // The client's span IS the root: no parent.
    assert_eq!(
        arg(client_span, "span_id").as_deref(),
        Some(id_to_hex(root.span_id).as_str())
    );
    assert_eq!(arg(client_span, "parent_id"), None);
    // Server-side spans hang off the propagated root, children off the
    // worker — the exact derivation the client can recompute.
    assert_eq!(
        arg(admission, "parent_id").as_deref(),
        Some(id_to_hex(root.span_id).as_str())
    );
    assert_eq!(
        arg(worker, "span_id").as_deref(),
        Some(id_to_hex(worker_ctx.span_id).as_str())
    );
    assert_eq!(
        arg(worker, "parent_id").as_deref(),
        Some(id_to_hex(root.span_id).as_str())
    );
    assert_eq!(
        arg(solve, "parent_id").as_deref(),
        Some(id_to_hex(worker_ctx.span_id).as_str())
    );
    // And the tree genuinely crosses processes: the client span and the
    // worker span live on different Chrome pids.
    assert_ne!(
        client_span.get("pid").and_then(Value::as_f64),
        worker.get("pid").and_then(Value::as_f64)
    );

    let _ = std::fs::remove_file(server_jsonl);
    let _ = std::fs::remove_file(client_jsonl);
    let _ = std::fs::remove_file(merged);
}

#[test]
fn metrics_endpoints_serve_wellformed_output() {
    use adaptcomm_obs::json::Value;

    let addr = "127.0.0.1:47911";
    let metrics_addr = "127.0.0.1:47912";
    let mut server = ChildGuard(Some(
        bin()
            .args(["plan-server", "--addr", addr, "--metrics-port", "47912"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap(),
    ));

    let out = bin()
        .args([
            "plan-client",
            "--addr",
            addr,
            "--scenario",
            "fig9",
            "--p",
            "4",
            "--tenant",
            "mtr",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // /metrics: Prometheus text with the per-tenant counter under its
    // sanitized name.
    let (status, body) = http_get(metrics_addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        body.contains("plansrv_tenant_mtr_requests 1"),
        "metrics body:\n{body}"
    );
    assert!(body.contains("# TYPE"), "metrics body:\n{body}");

    let (status, body) = http_get(metrics_addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body.trim(), "ok");

    // /tenants: JSON that parses with the workspace's own parser.
    let (status, body) = http_get(metrics_addr, "/tenants");
    assert!(status.contains("200"), "{status}");
    let doc = Value::parse(&body).expect("/tenants must be valid JSON");
    let tenants = doc.get("tenants").and_then(Value::as_arr).unwrap();
    let row = tenants
        .iter()
        .find(|t| t.get("name").and_then(Value::as_str) == Some("mtr"))
        .expect("tenant row for mtr");
    assert_eq!(row.get("requests").and_then(Value::as_u64), Some(1));

    let (status, _) = http_get(metrics_addr, "/definitely-not-a-route");
    assert!(status.contains("404"), "{status}");

    let out = bin()
        .args(["plan-client", "--addr", addr, "--shutdown"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = server.take().wait_with_output().unwrap();
    assert!(out.status.success(), "server exit: {:?}", out.status);
}

/// The flight-recorder acceptance path: a chaos run that blows the SLO
/// exits nonzero AND leaves a dump of the recent event window behind,
/// containing the injected faults and the replans they provoked, and
/// the dump replays through `obs-summary`.
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

    // And it replays through the normal summary pipeline.
    let out = bin()
        .args(["obs-summary", "--input", flight.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8(out.stdout).unwrap();
    assert!(summary.contains("chaos.inject"));

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
    ] {
        let out = bin().args(args.split(' ')).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert!(err.starts_with("error:"), "{args}: {err}");
        assert!(!err.contains("panicked"), "{args}: {err}");
    }
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
    assert!(advertised.len() >= 15, "parsed only {advertised:?}");
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
        checked >= 80,
        "only {checked} advertised options were checked"
    );
    assert!(
        unlisted.is_empty(),
        "accepted but missing from `adaptcomm help`: {unlisted:?}"
    );
}
