//! The codec's output, pinned byte for byte, and read back.
//!
//! `data/wire_fixtures.txt` was captured by running [`render`] when
//! protocol version 2 replaced the JSON matrix and order with binary
//! bodies. One message per line: `name body head`, where `body` is the
//! payload after the head's NUL as lowercase hex (`-` for a bodyless
//! message) and `head` is the JSON head verbatim. The rule for version
//! 2: any change that moves a byte here is a new protocol version — a
//! bump of `PROTO_VERSION` and a re-capture — never a silent edit.

use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_obs::trace::TraceContext;
use adaptcomm_plansrv::proto::{
    encode_request, encode_response, parse_request, parse_response, CacheDisposition, PlanOk,
    PlanQuality, PlanRequest, PlanResponse, PlanStats, QosSpec, Request,
};

/// Cells chosen to walk `{:?}`'s forms (integral, fractional, shortest
/// round-trip digits, both exponent notations) as the JSON codec wrote
/// them, plus −0.0 and a subnormal, whose bits must survive.
fn awkward_matrix(p: usize) -> CommMatrix {
    CommMatrix::from_fn(p, |s, d| match (s, d) {
        _ if s == d => 0.0,
        (0, 1) => 0.1 + 0.2,
        (1, 3) => -0.0,
        (3, 1) => f64::from_bits(1),
        (0, 2) => 1e-7,
        (0, 3) => 1e21,
        (1, 0) => 12345678.9,
        (1, 2) => f64::MIN_POSITIVE,
        (2, 0) => 1e16,
        (2, 1) => 9007199254740993.0,
        _ => ((s * 31 + d * 17) % 97) as f64 * 0.37 + (s as f64) / 3.0,
    })
}

fn rotation(p: usize) -> SendOrder {
    SendOrder::new(
        (0..p)
            .map(|s| (1..p).map(|k| (s + k) % p).collect())
            .collect(),
    )
}

fn requests() -> Vec<(&'static str, Request)> {
    let tenant = "alice \"a\"\\/链路\n\t\r\u{1}{x.y}";
    let full = awkward_matrix(8);
    vec![
        (
            "request.full",
            Request::Plan(PlanRequest {
                tenant: tenant.into(),
                algorithm: "matching-max".into(),
                fingerprint: Some(full.fingerprint()),
                matrix: Some(full),
                qos: QosSpec {
                    deadline_ms: Some(12.5),
                    priority: 255,
                    critical_links: vec![(0, 2), (7, 0), (123456, 4294967295)],
                },
                trace: Some(TraceContext::root(tenant, 42)),
            }),
        ),
        (
            "request.matrix-only",
            Request::Plan(PlanRequest {
                tenant: "t".into(),
                algorithm: "greedy".into(),
                fingerprint: None,
                matrix: Some(awkward_matrix(2)),
                qos: QosSpec {
                    deadline_ms: Some(0.0),
                    priority: 0,
                    critical_links: vec![(1, 0)],
                },
                trace: None,
            }),
        ),
        (
            "request.probe",
            Request::Plan(PlanRequest {
                tenant: "probe".into(),
                algorithm: "openshop".into(),
                fingerprint: Some(3),
                matrix: None,
                qos: QosSpec::default(),
                trace: None,
            }),
        ),
        ("request.shutdown", Request::Shutdown),
    ]
}

fn responses() -> Vec<(&'static str, PlanResponse)> {
    vec![
        (
            "response.full",
            PlanResponse::Ok(Box::new(PlanOk {
                order: rotation(12),
                completion_ms: 572941.028,
                cache: CacheDisposition::Incremental,
                epoch: 5,
                served_seq: 18446744073709551615,
                stats: PlanStats {
                    round1_warm: true,
                    round1_col_scans: 168,
                    total_col_scans: 16421,
                    service_ms: 0.052417,
                },
                trace_id: Some(0x0123_4567_89ab_cdef),
                quality: Some(PlanQuality {
                    critical_path: vec![(0, 2), (11, 2), (11, 10)],
                    lb_gap_pct: 14.830433479565901,
                }),
            })),
        ),
        (
            "response.bare",
            PlanResponse::Ok(Box::new(PlanOk {
                order: rotation(2),
                completion_ms: 1.0,
                cache: CacheDisposition::Cold,
                epoch: 0,
                served_seq: 1,
                stats: PlanStats::default(),
                trace_id: None,
                quality: None,
            })),
        ),
        (
            "response.empty-path",
            PlanResponse::Ok(Box::new(PlanOk {
                order: rotation(3),
                completion_ms: 1e-7,
                cache: CacheDisposition::Hit,
                epoch: 1,
                served_seq: 2,
                stats: PlanStats::default(),
                trace_id: None,
                quality: Some(PlanQuality {
                    critical_path: Vec::new(),
                    lb_gap_pct: 0.0,
                }),
            })),
        ),
        ("response.need-matrix", PlanResponse::NeedMatrix),
        (
            "response.rejected",
            PlanResponse::Rejected {
                retry_after_ms: 41.75,
                detail: "projected completion 90.000 ms blows the 50.000 ms deadline".into(),
            },
        ),
        (
            "response.error",
            PlanResponse::Error {
                detail: "unknown algorithm \"frob\\nicate\"\u{7}".into(),
            },
        ),
        ("response.bye", PlanResponse::Bye),
    ]
}

fn render() -> String {
    let mut out = String::new();
    let encoded = requests()
        .into_iter()
        .map(|(name, r)| (name, encode_request(&r)))
        .chain(
            responses()
                .into_iter()
                .map(|(name, r)| (name, encode_response(&r))),
        );
    for (name, bytes) in encoded {
        let (head, body) = match bytes.iter().position(|&b| b == 0) {
            Some(nul) => (&bytes[..nul], Some(&bytes[nul + 1..])),
            None => (&bytes[..], None),
        };
        let head = std::str::from_utf8(head).expect("heads are UTF-8");
        assert!(!head.contains('\n'), "{name} is not a single line");
        let body = body.map_or("-".to_string(), |b| {
            b.iter().map(|byte| format!("{byte:02x}")).collect()
        });
        out.push_str(&format!("{name} {body} {head}\n"));
    }
    out
}

/// A fixture line back to its payload bytes.
fn payload(line: &str) -> (&str, Vec<u8>) {
    let (name, rest) = line.split_once(' ').expect("name");
    let (body, head) = rest.split_once(' ').expect("body");
    let mut bytes = head.as_bytes().to_vec();
    if body != "-" {
        bytes.push(0);
        bytes.extend(
            (0..body.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&body[i..i + 2], 16).expect("hex body")),
        );
    }
    (name, bytes)
}

const FIXTURES: &str = include_str!("data/wire_fixtures.txt");

#[test]
fn writer_output_matches_the_captured_bytes() {
    let got = render();
    for (want, got) in FIXTURES.lines().zip(got.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(got.lines().count(), FIXTURES.lines().count());
}

#[test]
fn the_captured_bytes_read_back_to_their_messages() {
    let mut lines = FIXTURES.lines().map(payload);
    for (name, req) in requests() {
        let (line, bytes) = lines.next().expect("a line per request");
        assert_eq!(line, name);
        assert_eq!(parse_request(&bytes).unwrap(), req, "{name}");
    }
    for (name, resp) in responses() {
        let (line, bytes) = lines.next().expect("a line per response");
        assert_eq!(line, name);
        assert_eq!(parse_response(&bytes).unwrap(), resp, "{name}");
    }
    assert!(lines.next().is_none());
}
