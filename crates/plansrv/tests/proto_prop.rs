//! Property tests for the plan-server wire codec: no input —
//! truncated, oversized, garbage, or split at arbitrary byte
//! boundaries — may panic, and every failure is a typed
//! [`ProtocolError`]. The readers are also held to [`tree_oracle`]: a
//! `json::Value`-tree parser of every head field plus a separately
//! written body decoder. Both must give the same value or the same
//! error variant on every generated payload and on every truncation
//! and byte substitution of it, head bytes and body bytes alike.

mod tree_oracle;

use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_obs::trace::TraceContext;
use adaptcomm_plansrv::proto::{
    encode_request, encode_response, frame, parse_request, parse_response, CacheDisposition,
    FrameReader, PlanOk, PlanQuality, PlanRequest, PlanResponse, PlanStats, ProtocolError, QosSpec,
    Request, MAX_FRAME, PROTO_VERSION,
};
use proptest::prelude::*;
use std::fmt::Debug;
use std::mem::discriminant;

fn bytes(count: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u64..256, count)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (2usize..6).prop_flat_map(|p| {
        (
            proptest::collection::vec(-2.0f64..100.0, p * p),
            proptest::collection::vec((0u64..8, 0u64..8), 3),
            (0u64..4, 0u64..256, 0.0f64..50.0, 0u64..3),
        )
            .prop_map(
                move |(cells, links, (variant, priority, deadline, crit_n))| {
                    // Below zero a draw picks an awkward cell instead:
                    // −0.0 or a subnormal, which must decode bit-exactly.
                    let matrix = CommMatrix::from_fn(p, |s, d| match cells[s * p + d] {
                        _ if s == d => 0.0,
                        x if x < -1.0 => -0.0,
                        x if x < 0.0 => -x * f64::MIN_POSITIVE,
                        x => x,
                    });
                    let qos = QosSpec {
                        deadline_ms: if variant & 1 == 0 {
                            Some(deadline)
                        } else {
                            None
                        },
                        priority: priority as u8,
                        critical_links: links
                            .iter()
                            .take(crit_n as usize)
                            .map(|&(s, d)| (s as usize, d as usize))
                            .collect(),
                    };
                    let fingerprint = matrix.fingerprint();
                    Request::Plan(PlanRequest {
                        tenant: format!("tenant-{}", variant),
                        algorithm: "matching-max".into(),
                        // Keep at least one of matrix/fingerprint (both absent
                        // is rejected by the parser, by design).
                        matrix: if variant == 2 { None } else { Some(matrix) },
                        fingerprint: if variant == 3 {
                            None
                        } else {
                            Some(fingerprint)
                        },
                        qos,
                        // Traced and untraced requests both round-trip.
                        trace: if variant & 1 == 0 {
                            Some(TraceContext::root(&format!("tenant-{}", variant), priority))
                        } else {
                            None
                        },
                    })
                },
            )
    })
}

fn response_strategy() -> impl Strategy<Value = PlanResponse> {
    (
        (0usize..6, 0u64..5, 0u64..4),
        proptest::collection::vec(0u64..1000, 8),
        (0.0f64..1e6, 0.0f64..50.0),
    )
        .prop_map(
            |((p, variant, cache), n, (completion_ms, x))| match variant {
                0 => PlanResponse::NeedMatrix,
                1 => PlanResponse::Rejected {
                    retry_after_ms: x,
                    detail: format!("deadline {x} \"blown\"\n"),
                },
                _ => PlanResponse::Ok(Box::new(PlanOk {
                    // A rotation shifted per row: a valid order for any P.
                    order: SendOrder::new(
                        (0..p)
                            .map(|s| {
                                let mut row: Vec<usize> = (0..p).filter(|&d| d != s).collect();
                                row.rotate_left(n[s] as usize % p.max(2).saturating_sub(1));
                                row
                            })
                            .collect(),
                    ),
                    completion_ms,
                    cache: [
                        CacheDisposition::Cold,
                        CacheDisposition::Hit,
                        CacheDisposition::Warm,
                        CacheDisposition::Incremental,
                    ][cache as usize],
                    epoch: n[6],
                    served_seq: n[7],
                    stats: PlanStats {
                        round1_warm: variant == 2,
                        round1_col_scans: n[0],
                        total_col_scans: n[1],
                        service_ms: x,
                    },
                    trace_id: (variant != 3).then_some(n[2] << 40 | 1),
                    quality: (variant != 4).then(|| PlanQuality {
                        critical_path: n[..3].iter().map(|&h| (h as usize, p)).collect(),
                        lb_gap_pct: x,
                    }),
                })),
            },
        )
}

/// Same value, or the same [`ProtocolError`] variant.
fn agree<T: PartialEq + Debug>(
    fast: Result<T, ProtocolError>,
    tree: Result<T, ProtocolError>,
    payload: &[u8],
) {
    let shown = String::from_utf8_lossy(payload);
    match (fast, tree) {
        (Ok(fast), Ok(tree)) => assert_eq!(fast, tree, "on {shown}"),
        (Err(fast), Err(tree)) => {
            assert_eq!(discriminant(&fast), discriminant(&tree), "on {shown}")
        }
        (fast, tree) => panic!("readers disagree on {shown}: {fast:?} vs tree {tree:?}"),
    }
}

/// Both codecs, both ways, on one payload.
fn agree_on(payload: &[u8]) {
    agree(
        parse_request(payload),
        tree_oracle::parse_request(payload),
        payload,
    );
    agree(
        parse_response(payload),
        tree_oracle::parse_response(payload),
        payload,
    );
}

/// `payload`, every prefix of it, and every byte of it replaced in turn
/// by its low-bit flip and by each byte the grammar gives a meaning to.
fn agree_on_every_mutation(payload: &[u8]) {
    agree_on(payload);
    for cut in 0..payload.len() {
        agree_on(&payload[..cut]);
    }
    let mut mutated = payload.to_vec();
    for i in 0..payload.len() {
        for with in [
            payload[i] ^ 1,
            b'[',
            b']',
            b'{',
            b'}',
            b',',
            b'"',
            b'-',
            b'e',
            b'7',
            0x80,
            0,
            0xff,
        ] {
            mutated[i] = with;
            agree_on(&mutated);
        }
        mutated[i] = payload[i];
    }
}

/// `head`, then a NUL and `body` words (little-endian) when given.
fn payload(head: &str, body: Option<(u32, &[u64], usize)>) -> Vec<u8> {
    let mut out = head.as_bytes().to_vec();
    if let Some((p, words, width)) = body {
        out.push(0);
        out.extend_from_slice(&p.to_le_bytes());
        for w in words {
            out.extend_from_slice(&w.to_le_bytes()[..width]);
        }
    }
    out
}

/// Shapes no mutation of a well-formed payload reaches: duplicate keys,
/// a JSON `matrix` or `order` in the head (ignored), bodies on the wrong
/// message, bodies of the wrong size, bad cells and orders, a second
/// NUL, nesting at the depth bound.
#[test]
fn tree_free_readers_agree_with_the_tree_on_handmade_payloads() {
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let plan = r#"{"type":"plan","tenant":"t","algorithm":"a"}"#;
    let ok = r#"{"type":"plan","status":"ok","cache":"hit","epoch":1,"served_seq":1,"plan":{"completion_ms":1.0},"stats":{"round1_col_scans":0,"total_col_scans":0,"service_ms":0.5}}"#;
    let cells = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let m2 = cells(&[0.0, 1.0, 2.0, 0.0]);
    let payloads = [
        payload(r#"{"matrix":"x","type":"shutdown"}"#, None),
        payload(r#"{"type":"shutdown"}"#, Some((0, &[], 8))),
        payload("{\"type\":\"shutdown\"}\0", None),
        payload(
            r#"{"matrix":[[0,1],[2,0]],"type":"plan","tenant":"t","algorithm":"a"}"#,
            None,
        ),
        payload(plan, Some((2, &m2, 8))),
        payload(
            r#"{"type":"plan","tenant":"t","algorithm":"a","matrix":7}"#,
            Some((2, &m2, 8)),
        ),
        payload(
            r#" { "type" : "plan" , "tenant" : "t" , "algorithm" : "a" } "#,
            Some((2, &m2, 8)),
        ),
        payload(&format!("{plan} x"), Some((2, &m2, 8))),
        payload(plan, Some((2, &m2[..3], 8))),
        payload(plan, Some((2, &cells(&[0.0, 1.0, 2.0, 0.0, 0.0]), 8))),
        payload(plan, Some((1, &m2[..1], 8))),
        payload(plan, Some((0, &[], 8))),
        payload(plan, Some((u32::MAX, &[], 8))),
        payload(plan, Some((1 << 16, &[], 8))),
        payload(plan, Some((2, &cells(&[0.0, 1.0, f64::NAN, 0.0]), 8))),
        payload(plan, Some((2, &cells(&[0.0, f64::INFINITY, 2.0, 0.0]), 8))),
        payload(plan, Some((2, &cells(&[0.0, -1e-300, 2.0, 0.0]), 8))),
        payload(plan, Some((2, &cells(&[0.0, -0.0, 5e-324, 0.0]), 8))),
        payload(r#"[{"type":"shutdown"}]"#, None),
        payload(ok, Some((2, &[1, 0], 4))),
        payload(ok, None),
        payload(
            &ok.replace(r#""plan":{"#, r#""plan":7,"plan":{"#),
            Some((2, &[1, 0], 4)),
        ),
        payload(
            &ok.replace(r#""plan":{"#, r#""plan":{"order":[[1],[0]],"#),
            Some((2, &[1, 0], 4)),
        ),
        payload(ok, Some((0, &[], 4))),
        payload(ok, Some((1, &[], 4))),
        payload(ok, Some((1, &[0], 4))),
        payload(ok, Some((3, &[1, 1, 0, 2, 0, 1], 4))),
        payload(ok, Some((3, &[1, 2, 0, 2, 1, 0], 4))),
        payload(ok, Some((3, &[1, 2, 0, 2, 0, 3], 4))),
        payload(ok, Some((u32::MAX, &[], 4))),
        payload(
            r#"{"type":"plan","status":"need-matrix"}"#,
            Some((2, &[1, 0], 4)),
        ),
        payload(
            r#"{"type":"plan","status":"need-matrix","plan":{"order":"junk"}}"#,
            None,
        ),
        payload(r#"{"type":"bye"}"#, Some((0, &[], 4))),
        payload(
            &format!(r#"{{"type":"shutdown","pad":{}}}"#, deep(100)),
            None,
        ),
    ];
    for p in payloads {
        agree_on(&p);
    }
}

proptest! {
    // ~20k parses a case: fewer cases than the cheap properties below.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The readers and the oracle agree on every generated payload and
    /// on every mutation of it.
    #[test]
    fn tree_free_readers_agree_with_the_tree(req in request_strategy(), resp in response_strategy()) {
        agree_on_every_mutation(&encode_request(&req));
        agree_on_every_mutation(&encode_response(&resp));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Garbage payloads parse to a typed error, never a panic.
    #[test]
    fn garbage_payloads_never_panic(payload in bytes(40)) {
        if let Err(e) = parse_request(&payload) {
            prop_assert!(matches!(e, ProtocolError::Malformed { .. }));
        }
        if let Err(e) = parse_response(&payload) {
            prop_assert!(matches!(e, ProtocolError::Malformed { .. }));
        }
    }

    /// A garbage byte stream fed to the frame reader in arbitrary
    /// chunks yields typed errors or frames, never a panic.
    #[test]
    fn garbage_streams_never_panic(stream in bytes(96), chunks in proptest::collection::vec(1usize..24, 8)) {
        let mut reader = FrameReader::new();
        let mut offset = 0;
        let mut dead = false;
        for c in chunks {
            let end = (offset + c).min(stream.len());
            reader.push(&stream[offset..end]);
            offset = end;
            loop {
                match reader.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        // A bad header is one of the two header errors
                        // (garbage almost never spells PROTO_VERSION).
                        prop_assert!(matches!(
                            e,
                            ProtocolError::BadVersion { .. } | ProtocolError::Oversized { .. }
                        ));
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                break;
            }
        }
        let _ = reader.finish();
    }

    /// Valid requests survive encode → frame → split-at-any-boundary →
    /// reassemble → parse, bit-identically.
    #[test]
    fn round_trip_survives_arbitrary_splits(
        reqs in proptest::collection::vec(request_strategy(), 3),
        cuts in proptest::collection::vec(1usize..97, 24),
    ) {
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend_from_slice(&frame(&encode_request(r)));
        }
        let mut reader = FrameReader::new();
        let mut offset = 0;
        let mut decoded = Vec::new();
        let mut cut = cuts.into_iter();
        while offset < stream.len() {
            let step = cut.next().map_or(stream.len(), |c| c * 17);
            let end = (offset + step).min(stream.len());
            reader.push(&stream[offset..end]);
            offset = end;
            while let Some(payload) = reader.next_frame().unwrap() {
                decoded.push(parse_request(&payload).unwrap());
            }
        }
        reader.finish().unwrap();
        // `==` cannot tell −0.0 from 0.0: compare the cells' bits too.
        let bits = |rs: &[Request]| -> Vec<u64> {
            rs.iter()
                .filter_map(|r| match r {
                    Request::Plan(p) => p.matrix.as_ref(),
                    Request::Shutdown => None,
                })
                .flat_map(|m| (0..m.len()).flat_map(|s| m.row(s).iter().map(|x| x.to_bits())))
                .collect()
        };
        prop_assert_eq!(bits(&decoded), bits(&reqs));
        prop_assert_eq!(decoded, reqs);
    }

    /// Truncating a valid frame anywhere is detected at end-of-stream
    /// as `Truncated`, never mid-stream and never a panic.
    #[test]
    fn truncation_is_always_detected(req in request_strategy(), keep in 0usize..64) {
        let full = frame(&encode_request(&req));
        // At least one byte, never the whole frame: always truncated.
        let keep = keep.clamp(1, full.len() - 1);
        let mut reader = FrameReader::new();
        reader.push(&full[..keep]);
        prop_assert_eq!(reader.next_frame().unwrap(), None);
        prop_assert!(matches!(reader.finish(), Err(ProtocolError::Truncated { .. })));
    }

    /// Corrupt length prefixes are rejected before any allocation.
    #[test]
    fn oversized_headers_are_rejected(len in (MAX_FRAME + 1)..u64::MAX) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        bytes.extend_from_slice(&len.to_le_bytes());
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        prop_assert!(matches!(
            reader.next_frame(),
            Err(ProtocolError::Oversized { .. })
        ));
    }
}
