//! The oracle the wire readers are compared against. The head half is
//! the `json::Value`-tree parser of every small field as it stood
//! before the codec was rewritten (only the two `P²` fields left it);
//! the body half is a decoder written apart from `proto`'s: row by row,
//! with sizes compared in `u128` arithmetic instead of checked
//! multiplies. Do not "improve" the head half, and do not share code
//! with `proto`: an oracle that calls the code it judges judges nothing.
#![allow(dead_code)]

use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_obs::json::Value;
use adaptcomm_obs::trace::id_from_hex;
use adaptcomm_obs::TraceContext;
use adaptcomm_plansrv::proto::{
    CacheDisposition, PlanOk, PlanQuality, PlanRequest, PlanResponse, PlanStats, ProtocolError,
    QosSpec, Request,
};

fn malformed(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed {
        detail: detail.into(),
    }
}

fn parse_disposition(s: &str) -> Result<CacheDisposition, ProtocolError> {
    match s {
        "cold" => Ok(CacheDisposition::Cold),
        "hit" => Ok(CacheDisposition::Hit),
        "warm" => Ok(CacheDisposition::Warm),
        "incremental" => Ok(CacheDisposition::Incremental),
        other => Err(malformed(format!("unknown cache disposition {other:?}"))),
    }
}

/// The head before the first NUL as a tree, and the body after it.
fn parse_value(payload: &[u8]) -> Result<(Value, Option<&[u8]>), ProtocolError> {
    let mut parts = payload.splitn(2, |&b| b == 0);
    let head = parts.next().unwrap_or_default();
    let text = std::str::from_utf8(head).map_err(|e| malformed(format!("not UTF-8: {e}")))?;
    Ok((Value::parse(text).map_err(malformed)?, parts.next()))
}

/// Little-endian words taken off the front of a body.
struct Words<'a>(&'a [u8]);

impl Words<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        if self.0.len() < N {
            return None;
        }
        let (word, rest) = self.0.split_at(N);
        self.0 = rest;
        Some(word.try_into().unwrap())
    }

    fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.take().map(f64::from_le_bytes)
    }

    /// `P`, once the bytes after it are exactly `words_of(P)` words of
    /// `width` bytes.
    fn sized(&mut self, width: u128, words_of: fn(u128) -> u128) -> Result<usize, ProtocolError> {
        let p = self
            .u32()
            .ok_or_else(|| malformed("body too short for P"))?;
        if self.0.len() as u128 != words_of(p as u128) * width {
            return Err(malformed(format!("body size does not match P = {p}")));
        }
        Ok(p as usize)
    }
}

fn no_body(body: Option<&[u8]>) -> Result<(), ProtocolError> {
    match body {
        Some(_) => Err(malformed("unexpected body")),
        None => Ok(()),
    }
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, ProtocolError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| malformed(format!("missing string field {key:?}")))
}

fn num_field(v: &Value, key: &str) -> Result<f64, ProtocolError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| malformed(format!("missing numeric field {key:?}")))
}

fn index_field(v: &Value, what: &str) -> Result<usize, ProtocolError> {
    let x = v
        .as_f64()
        .ok_or_else(|| malformed(format!("{what} must be a number")))?;
    if x.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&x) {
        return Err(malformed(format!(
            "{what} must be a small non-negative integer, got {x}"
        )));
    }
    Ok(x as usize)
}

fn parse_matrix(body: &[u8]) -> Result<CommMatrix, ProtocolError> {
    let mut words = Words(body);
    let p = words.sized(8, |p| p * p)?;
    if p == 0 {
        return Err(malformed("matrix must have at least one row"));
    }
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(p);
    for i in 0..p {
        let mut parsed = Vec::with_capacity(p);
        for j in 0..p {
            let x = words.f64().unwrap();
            if !x.is_finite() || x < 0.0 {
                return Err(malformed(format!(
                    "matrix cell ({i},{j}) must be finite and non-negative, got {x}"
                )));
            }
            parsed.push(x);
        }
        out.push(parsed);
    }
    Ok(CommMatrix::from_rows(&out))
}

fn parse_qos(v: &Value) -> Result<QosSpec, ProtocolError> {
    let mut qos = QosSpec::default();
    if let Some(d) = v.get("deadline_ms") {
        let d = d
            .as_f64()
            .ok_or_else(|| malformed("deadline_ms must be a number"))?;
        if !d.is_finite() || d < 0.0 {
            return Err(malformed(format!(
                "deadline_ms must be finite and non-negative, got {d}"
            )));
        }
        qos.deadline_ms = Some(d);
    }
    if let Some(p) = v.get("priority") {
        let p = index_field(p, "priority")?;
        if p > u8::MAX as usize {
            return Err(malformed(format!("priority must fit in a u8, got {p}")));
        }
        qos.priority = p as u8;
    }
    if let Some(links) = v.get("critical") {
        let links = links
            .as_arr()
            .ok_or_else(|| malformed("critical must be an array of [src,dst] pairs"))?;
        for link in links {
            let pair = link
                .as_arr()
                .ok_or_else(|| malformed("critical entries must be [src,dst] pairs"))?;
            if pair.len() != 2 {
                return Err(malformed("critical entries must have exactly two elements"));
            }
            qos.critical_links.push((
                index_field(&pair[0], "critical src")?,
                index_field(&pair[1], "critical dst")?,
            ));
        }
    }
    Ok(qos)
}

fn parse_fingerprint(s: &str) -> Result<u64, ProtocolError> {
    if s.len() != 16 {
        return Err(malformed(format!(
            "fingerprint must be 16 hex digits, got {s:?}"
        )));
    }
    u64::from_str_radix(s, 16).map_err(|e| malformed(format!("bad fingerprint {s:?}: {e}")))
}

/// Parses the optional `trace` object (`{"id","span"}`, 16-hex ids).
fn parse_trace(v: &Value) -> Result<Option<TraceContext>, ProtocolError> {
    let Some(t) = v.get("trace") else {
        return Ok(None);
    };
    let id = |key: &str| -> Result<u64, ProtocolError> {
        t.get(key)
            .and_then(Value::as_str)
            .and_then(id_from_hex)
            .ok_or_else(|| malformed(format!("trace.{key} must be 16 hex digits")))
    };
    Ok(Some(TraceContext::from_wire(id("id")?, id("span")?)))
}

/// Parses a request payload.
pub fn parse_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let (v, body) = parse_value(payload)?;
    match str_field(&v, "type")? {
        "shutdown" => {
            no_body(body)?;
            Ok(Request::Shutdown)
        }
        "plan" => {
            let tenant = str_field(&v, "tenant")?.to_string();
            if tenant.is_empty() {
                return Err(malformed("tenant must be non-empty"));
            }
            let algorithm = str_field(&v, "algorithm")?.to_string();
            let fingerprint = match v.get("fingerprint") {
                None => None,
                Some(f) => {
                    Some(parse_fingerprint(f.as_str().ok_or_else(|| {
                        malformed("fingerprint must be a hex string")
                    })?)?)
                }
            };
            let matrix = body.map(parse_matrix).transpose()?;
            if matrix.is_none() && fingerprint.is_none() {
                return Err(malformed("a plan request needs a matrix or a fingerprint"));
            }
            let qos = match v.get("qos") {
                None => QosSpec::default(),
                Some(q) => parse_qos(q)?,
            };
            Ok(Request::Plan(PlanRequest {
                tenant,
                algorithm,
                matrix,
                fingerprint,
                qos,
                trace: parse_trace(&v)?,
            }))
        }
        other => Err(malformed(format!("unknown request type {other:?}"))),
    }
}

fn parse_order(body: &[u8]) -> Result<SendOrder, ProtocolError> {
    let mut words = Words(body);
    let p = words.sized(4, |p| p * p.saturating_sub(1))?;
    let mut order = Vec::with_capacity(p);
    for src in 0..p {
        let mut list = Vec::with_capacity(p - 1);
        let mut seen = vec![false; p];
        for _ in 1..p {
            let d = words.u32().unwrap() as usize;
            if d >= p || d == src || seen[d] {
                return Err(malformed(format!(
                    "order row {src} is not a permutation of the other processors"
                )));
            }
            seen[d] = true;
            list.push(d);
        }
        order.push(list);
    }
    Ok(SendOrder::new(order))
}

/// Parses a response payload.
pub fn parse_response(payload: &[u8]) -> Result<PlanResponse, ProtocolError> {
    let (v, body) = parse_value(payload)?;
    match str_field(&v, "type")? {
        "bye" => {
            no_body(body)?;
            Ok(PlanResponse::Bye)
        }
        "plan" => match str_field(&v, "status")? {
            status if status != "ok" && body.is_some() => {
                Err(malformed(format!("a {status:?} reply carries a body")))
            }
            "need-matrix" => Ok(PlanResponse::NeedMatrix),
            "rejected" => Ok(PlanResponse::Rejected {
                retry_after_ms: num_field(&v, "retry_after_ms")?,
                detail: str_field(&v, "detail")?.to_string(),
            }),
            "error" => Ok(PlanResponse::Error {
                detail: str_field(&v, "detail")?.to_string(),
            }),
            "ok" => {
                let plan = v
                    .get("plan")
                    .ok_or_else(|| malformed("missing plan object"))?;
                let stats = v
                    .get("stats")
                    .ok_or_else(|| malformed("missing stats object"))?;
                Ok(PlanResponse::Ok(Box::new(PlanOk {
                    order: parse_order(body.ok_or_else(|| malformed("missing order body"))?)?,
                    completion_ms: num_field(plan, "completion_ms")?,
                    cache: parse_disposition(str_field(&v, "cache")?)?,
                    epoch: num_field(&v, "epoch")? as u64,
                    served_seq: num_field(&v, "served_seq")? as u64,
                    stats: PlanStats {
                        round1_warm: matches!(stats.get("round1_warm"), Some(Value::Bool(true))),
                        round1_col_scans: num_field(stats, "round1_col_scans")? as u64,
                        total_col_scans: num_field(stats, "total_col_scans")? as u64,
                        service_ms: num_field(stats, "service_ms")?,
                    },
                    trace_id: match v.get("trace_id") {
                        None => None,
                        Some(t) => Some(
                            t.as_str()
                                .and_then(id_from_hex)
                                .ok_or_else(|| malformed("trace_id must be 16 hex digits"))?,
                        ),
                    },
                    quality: match v.get("quality") {
                        None => None,
                        Some(q) => {
                            let hops = q
                                .get("critical_path")
                                .and_then(Value::as_arr)
                                .ok_or_else(|| malformed("quality.critical_path must be an array"))?
                                .iter()
                                .map(|hop| {
                                    let pair =
                                        hop.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                                            malformed("critical-path hops must be [src,dst] pairs")
                                        })?;
                                    Ok((
                                        index_field(&pair[0], "critical-path src")?,
                                        index_field(&pair[1], "critical-path dst")?,
                                    ))
                                })
                                .collect::<Result<Vec<(usize, usize)>, ProtocolError>>()?;
                            Some(PlanQuality {
                                critical_path: hops,
                                lb_gap_pct: num_field(q, "lb_gap_pct")?,
                            })
                        }
                    },
                })))
            }
            other => Err(malformed(format!("unknown response status {other:?}"))),
        },
        other => Err(malformed(format!("unknown response type {other:?}"))),
    }
}
