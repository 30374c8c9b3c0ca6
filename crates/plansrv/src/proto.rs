//! Wire protocol: length-prefixed frames carrying a small JSON head and
//! a binary body.
//!
//! # Frame grammar
//!
//! Every message travels in one frame sharing the runtime transport's
//! layout ([`adaptcomm_runtime::tcp::write_frame`]): a 16-byte header —
//! two little-endian `u64`s, here `(PROTO_VERSION, payload length)` —
//! followed by the payload. The reader rejects other versions (a
//! version-1 frame is a typed [`ProtocolError::BadVersion`]) and
//! payloads over [`MAX_FRAME`] *before* allocating, so a corrupt or
//! hostile header cannot balloon memory.
//!
//! # Payload grammar
//!
//! A payload is a **head** — one JSON object carrying every small
//! field, read with [`adaptcomm_obs::json::Value::parse`] — and, for
//! the two messages with a `P²`-sized field, a NUL byte and a binary
//! **body**. NUL cannot occur in JSON text, so the first one ends the
//! head. Requests:
//!
//! ```json
//! {"type":"plan","tenant":"alice","algorithm":"matching-max",
//!  "fingerprint":"<16 hex digits>",
//!  "qos":{"deadline_ms":5.0,"priority":3,"critical":[[0,1]]},
//!  "trace":{"id":"<16 hex>","span":"<16 hex>"}} \0 <matrix body>
//! {"type":"shutdown"}
//! ```
//!
//! The matrix body is `P` as a `u32`, then the `P²` cells row-major as
//! `f64`s, all little-endian. The matrix and `fingerprint` are each
//! optional (a fingerprint-only request probes the cache without
//! shipping `P²` cells; the server answers `need-matrix` on a miss).
//! Fingerprints are hex *strings* because JSON numbers are `f64` and
//! lose `u64` precision; trace and span ids follow the same convention.
//! `trace` is optional, and readers ignore unknown head fields.
//! Responses:
//!
//! ```json
//! {"type":"plan","status":"ok","cache":"cold|hit|warm|incremental",
//!  "epoch":1,"served_seq":3,"plan":{"completion_ms":12.5},
//!  "stats":{"round1_warm":false,"round1_col_scans":96,
//!           "total_col_scans":480,"service_ms":3.25},
//!  "quality":{"lb_gap_pct":6.25,"critical_path":[[0,2],[1,0]]},
//!  "trace_id":"<16 hex>"} \0 <order body>
//! {"type":"plan","status":"need-matrix"}
//! {"type":"plan","status":"rejected","retry_after_ms":10.5,"detail":"..."}
//! {"type":"plan","status":"error","detail":"..."}
//! {"type":"bye"}
//! ```
//!
//! The order body is `P` as a `u32`, then each sender's `P − 1`
//! destinations in order as `u32`s. Writers copy the words straight
//! out. Readers check the size a body declares against the bytes left,
//! with a checked multiply, before they allocate; then that cells are
//! finite and non-negative, that each order row is a permutation of the
//! other processors, and that nothing trails the body. Every decode
//! failure is a typed [`ProtocolError`]; no input — truncated,
//! oversized, garbage, nested past [`adaptcomm_obs::json::MAX_DEPTH`],
//! or split at any byte — panics.

use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_obs::json::{write_string, Value};
use adaptcomm_obs::trace::{id_from_hex, id_to_hex};
use adaptcomm_obs::TraceContext;
use std::fmt::{self, Write as _};

/// Protocol version carried in every frame header's tag slot. Version
/// 1 carried the matrix and the order as JSON text; it is refused.
pub const PROTO_VERSION: u64 = 2;

/// Ceiling on one payload: 16 MiB. A matrix body is `4 + 8·P²` bytes,
/// so a request fits up to P = 1448; an order body is `4 + 4·P(P−1)`.
pub const MAX_FRAME: u64 = 16 << 20;

/// Every way a frame or payload can fail to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// Claimed payload length.
        len: u64,
        /// The enforced ceiling.
        max: u64,
    },
    /// The frame header's version tag is not [`PROTO_VERSION`].
    BadVersion {
        /// The tag that was received.
        tag: u64,
    },
    /// The stream ended mid-frame.
    Truncated {
        /// Bytes still buffered.
        have: usize,
        /// Bytes the pending frame needs.
        need: usize,
    },
    /// The payload is not a well-formed message.
    Malformed {
        /// What failed to parse.
        detail: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::BadVersion { tag } => {
                write!(
                    f,
                    "unknown protocol version {tag} (expected {PROTO_VERSION})"
                )
            }
            ProtocolError::Truncated { have, need } => {
                write!(f, "stream ended mid-frame ({have} of {need} bytes)")
            }
            ProtocolError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

fn malformed(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed {
        detail: detail.into(),
    }
}

/// Incremental frame decoder: feed arbitrary byte chunks with
/// [`FrameReader::push`], drain whole payloads with
/// [`FrameReader::next_frame`]. Split reads are the normal case — a
/// frame only emerges once every byte has arrived.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk of received bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        // Compact lazily so long sessions don't grow without bound.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// The next complete payload, `Ok(None)` while one is still
    /// partial, or a typed error on a bad header.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 16 {
            return Ok(None);
        }
        let tag = u64::from_le_bytes(pending[..8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(pending[8..16].try_into().expect("8 bytes"));
        if tag != PROTO_VERSION {
            return Err(ProtocolError::BadVersion { tag });
        }
        if len > MAX_FRAME {
            return Err(ProtocolError::Oversized {
                len,
                max: MAX_FRAME,
            });
        }
        let total = 16 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = pending[16..total].to_vec();
        self.start += total;
        Ok(Some(payload))
    }

    /// Call at end-of-stream: leftover bytes mean a truncated frame.
    pub fn finish(&self) -> Result<(), ProtocolError> {
        let pending = &self.buf[self.start..];
        if pending.is_empty() {
            return Ok(());
        }
        let need = if pending.len() >= 16 {
            16 + u64::from_le_bytes(pending[8..16].try_into().expect("8 bytes")) as usize
        } else {
            16
        };
        Err(ProtocolError::Truncated {
            have: pending.len(),
            need,
        })
    }
}

/// Builds one complete frame around a payload (the pure counterpart of
/// the socket-writing [`adaptcomm_runtime::tcp::write_frame`]).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The §6 QoS envelope on a plan request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QosSpec {
    /// Deadline for the *response*, in milliseconds from arrival.
    pub deadline_ms: Option<f64>,
    /// Priority tier, higher served first (default 0).
    pub priority: u8,
    /// `(src, dst)` links this tenant declares critical: their
    /// transfers are pinned to the front of the sender's order.
    pub critical_links: Vec<(usize, usize)>,
}

/// A plan request as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Tenant name (keys its epoch, labels the metrics).
    pub tenant: String,
    /// Scheduler name, e.g. `matching-max` (see `all_schedulers`).
    pub algorithm: String,
    /// The cost matrix; may be omitted for a fingerprint-only probe.
    pub matrix: Option<CommMatrix>,
    /// Exact cost-matrix fingerprint, for matrix-free cache probes.
    pub fingerprint: Option<u64>,
    /// QoS envelope.
    pub qos: QosSpec,
    /// The caller's trace context (`None` from old clients — the
    /// server then starts a fresh root).
    pub trace: Option<TraceContext>,
}

/// Everything a client can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Ask for a plan.
    Plan(PlanRequest),
    /// Control frame: drain and stop the server.
    Shutdown,
}

/// How the cache participated in an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Full scheduler run, nothing reused.
    Cold,
    /// Exact fingerprint hit: cached plan replayed verbatim.
    Hit,
    /// Near-hit: new solve warm-started from a cached job's duals.
    Warm,
    /// Near-hit served by §6 incremental rescheduling: the cached
    /// job's retained matching plan was patched in place and only the
    /// rounds the perturbation invalidated were re-solved; certified
    /// rounds were spliced verbatim.
    Incremental,
}

impl CacheDisposition {
    /// Stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Cold => "cold",
            CacheDisposition::Hit => "hit",
            CacheDisposition::Warm => "warm",
            CacheDisposition::Incremental => "incremental",
        }
    }

    fn parse(s: &str) -> Result<Self, ProtocolError> {
        match s {
            "cold" => Ok(CacheDisposition::Cold),
            "hit" => Ok(CacheDisposition::Hit),
            "warm" => Ok(CacheDisposition::Warm),
            "incremental" => Ok(CacheDisposition::Incremental),
            other => Err(malformed(format!("unknown cache disposition {other:?}"))),
        }
    }
}

/// Solver-side counters returned with every plan, so clients can see
/// what warm starts actually saved (`lap::SolveStats` over the wire).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanStats {
    /// Whether round 1 of the construction ran warm.
    pub round1_warm: bool,
    /// Column scans in round 1 (the cross-job savings live here).
    pub round1_col_scans: u64,
    /// Column scans across the whole construction.
    pub total_col_scans: u64,
    /// Wall time the server spent producing this answer.
    pub service_ms: f64,
}

/// Predicted schedule quality attached to a plan, so clients see *how
/// good* the plan is, not just its completion time. Optional on the
/// wire: answers from older servers parse to `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanQuality {
    /// The plan's predicted critical path as `(src, dst)` hops, source
    /// to sink — where to look first when the exchange runs slow.
    pub critical_path: Vec<(usize, usize)>,
    /// Completion gap above the matrix lower bound `t_lb`, percent
    /// (0 means provably optimal).
    pub lb_gap_pct: f64,
}

/// A successful plan answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOk {
    /// Per-sender destination order (the schedule, minus timing).
    pub order: SendOrder,
    /// Predicted completion time of the plan on the request matrix.
    pub completion_ms: f64,
    /// How the cache participated.
    pub cache: CacheDisposition,
    /// The tenant's directory snapshot epoch the plan was computed at.
    pub epoch: u64,
    /// Global completion sequence number (serving order, for QoS
    /// assertions and debugging).
    pub served_seq: u64,
    /// Solver counters.
    pub stats: PlanStats,
    /// Echo of the request's trace id (`None` when the request carried
    /// no trace, or the answer came from an old server).
    pub trace_id: Option<u64>,
    /// Predicted critical path + lower-bound gap (`None` from old
    /// servers).
    pub quality: Option<PlanQuality>,
}

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanResponse {
    /// A plan.
    Ok(Box<PlanOk>),
    /// Fingerprint-only probe missed; resend with the matrix.
    NeedMatrix,
    /// Admission control refused the request.
    Rejected {
        /// When to try again: the projected queue drain time.
        retry_after_ms: f64,
        /// Human-readable reason.
        detail: String,
    },
    /// The request was understood but could not be served.
    Error {
        /// What went wrong.
        detail: String,
    },
    /// Acknowledges a shutdown control frame.
    Bye,
}

// ---------------------------------------------------------------------
// Writers: the head streams into one pre-sized buffer, the body's words
// are copied straight after it.

/// `[[src,dst],…]`.
fn push_pairs(out: &mut String, pairs: &[(usize, usize)]) {
    out.push('[');
    for (i, (s, d)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{s},{d}]");
    }
    out.push(']');
}

/// Ends the head and appends a body: `p` as a `u32`, then the `words`
/// items of `rows`, each as its `W` little-endian bytes.
fn push_body<'a, T: Copy + 'a, const W: usize>(
    out: &mut Vec<u8>,
    p: usize,
    rows: impl Iterator<Item = &'a [T]>,
    words: usize,
    word: fn(T) -> [u8; W],
) {
    out.push(0);
    out.extend_from_slice(&(p as u32).to_le_bytes());
    let start = out.len();
    out.resize(start + W * words, 0);
    let mut slots = out[start..].as_chunks_mut::<W>().0.iter_mut();
    for row in rows {
        for (&x, slot) in row.iter().zip(slots.by_ref()) {
            *slot = word(x);
        }
    }
}

/// Serializes a request payload (no frame header). Head floats are
/// written `{:?}`, which round-trips every finite `f64` exactly; matrix
/// cells travel as their bits.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let Request::Plan(plan) = req else {
        return b"{\"type\":\"shutdown\"}".to_vec();
    };
    let cells = plan.matrix.as_ref().map_or(0, |m| m.len() * m.len());
    let mut out = String::with_capacity(256 + plan.tenant.len() + 5 + 8 * cells);
    out.push_str("{\"type\":\"plan\",\"tenant\":");
    write_string(&mut out, &plan.tenant);
    out.push_str(",\"algorithm\":");
    write_string(&mut out, &plan.algorithm);
    if let Some(fp) = plan.fingerprint {
        let _ = write!(out, ",\"fingerprint\":\"{fp:016x}\"");
    }
    out.push_str(",\"qos\":{");
    if let Some(d) = plan.qos.deadline_ms {
        let _ = write!(out, "\"deadline_ms\":{d:?},");
    }
    let _ = write!(out, "\"priority\":{}", plan.qos.priority);
    if !plan.qos.critical_links.is_empty() {
        out.push_str(",\"critical\":");
        push_pairs(&mut out, &plan.qos.critical_links);
    }
    out.push('}');
    if let Some(trace) = &plan.trace {
        let _ = write!(
            out,
            ",\"trace\":{{\"id\":\"{}\",\"span\":\"{}\"}}",
            id_to_hex(trace.trace_id),
            id_to_hex(trace.span_id)
        );
    }
    out.push('}');
    let mut out = out.into_bytes();
    if let Some(m) = &plan.matrix {
        let p = m.len();
        push_body(
            &mut out,
            p,
            (0..p).map(|src| m.row(src)),
            p * p,
            f64::to_le_bytes,
        );
    }
    out
}

/// Serializes a response payload (no frame header).
pub fn encode_response(resp: &PlanResponse) -> Vec<u8> {
    let mut out = String::new();
    match resp {
        PlanResponse::Bye => out.push_str("{\"type\":\"bye\""),
        PlanResponse::NeedMatrix => out.push_str("{\"type\":\"plan\",\"status\":\"need-matrix\""),
        PlanResponse::Rejected {
            retry_after_ms,
            detail,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"plan\",\"status\":\"rejected\",\
                 \"retry_after_ms\":{retry_after_ms:?},\"detail\":"
            );
            write_string(&mut out, detail);
        }
        PlanResponse::Error { detail } => {
            out.push_str("{\"type\":\"plan\",\"status\":\"error\",\"detail\":");
            write_string(&mut out, detail);
        }
        PlanResponse::Ok(ok) => {
            let p = ok.order.processors();
            out.reserve(512 + 5 + 4 * p * p);
            let _ = write!(
                out,
                "{{\"type\":\"plan\",\"status\":\"ok\",\"cache\":\"{}\",\"epoch\":{},\
                 \"served_seq\":{},\"plan\":{{\"completion_ms\":{:?}}},\
                 \"stats\":{{\"round1_warm\":{},\"round1_col_scans\":{},\
                 \"total_col_scans\":{},\"service_ms\":{:?}}}",
                ok.cache.as_str(),
                ok.epoch,
                ok.served_seq,
                ok.completion_ms,
                ok.stats.round1_warm,
                ok.stats.round1_col_scans,
                ok.stats.total_col_scans,
                ok.stats.service_ms,
            );
            if let Some(q) = &ok.quality {
                let _ = write!(
                    out,
                    ",\"quality\":{{\"lb_gap_pct\":{:?},\"critical_path\":",
                    q.lb_gap_pct
                );
                push_pairs(&mut out, &q.critical_path);
                out.push('}');
            }
            if let Some(id) = ok.trace_id {
                let _ = write!(out, ",\"trace_id\":\"{}\"", id_to_hex(id));
            }
            out.push('}');
            let mut out = out.into_bytes();
            let rows = ok.order.order.iter().map(Vec::as_slice);
            push_body(&mut out, p, rows, p * p.saturating_sub(1), |d| {
                (d as u32).to_le_bytes()
            });
            return out;
        }
    }
    out.push('}');
    out.into_bytes()
}

// ---------------------------------------------------------------------
// Readers: the head is one `json::Value` tree, the body is read in place.

/// Splits a payload into its parsed head and its body, if it has one.
fn split(payload: &[u8]) -> Result<(Value, Option<&[u8]>), ProtocolError> {
    let (head, body) = match payload.iter().position(|&b| b == 0) {
        Some(nul) => (&payload[..nul], Some(&payload[nul + 1..])),
        None => (payload, None),
    };
    let text = std::str::from_utf8(head).map_err(|e| malformed(format!("not UTF-8: {e}")))?;
    Ok((Value::parse(text).map_err(malformed)?, body))
}

/// Refuses a body on a message that has none.
fn no_body(body: Option<&[u8]>) -> Result<(), ProtocolError> {
    match body {
        None => Ok(()),
        Some(b) => Err(malformed(format!(
            "{} body bytes on a bodyless message",
            b.len()
        ))),
    }
}

/// A body's `P` and its words: exactly `count(P)` words of `W` bytes
/// must follow, which is checked before anything is allocated.
fn body_words<'a, const W: usize>(
    body: &'a [u8],
    count: fn(usize) -> Option<usize>,
    what: &str,
) -> Result<(usize, &'a [[u8; W]]), ProtocolError> {
    let (p, words) = body
        .split_first_chunk::<4>()
        .ok_or_else(|| malformed(format!("{what} body has no size word")))?;
    let p = u32::from_le_bytes(*p) as usize;
    match count(p).and_then(|n| n.checked_mul(W)) {
        Some(n) if n == words.len() => Ok((p, words.as_chunks().0)),
        Some(n) if n < words.len() => Err(malformed(format!(
            "{} trailing bytes after the {what}",
            words.len() - n
        ))),
        _ => Err(malformed(format!(
            "a {what} of P = {p} does not fit the {} bytes left",
            words.len()
        ))),
    }
}

fn read_matrix(body: &[u8]) -> Result<CommMatrix, ProtocolError> {
    let (p, words) = body_words(body, |p| p.checked_mul(p), "matrix")?;
    if p == 0 {
        return Err(malformed("matrix must be non-empty"));
    }
    let cells: Vec<f64> = words.iter().map(|w| f64::from_le_bytes(*w)).collect();
    // A cell is finite and non-negative exactly when its bits, −0.0 read
    // as +0.0, lie below +∞'s. An integer max over them vectorizes,
    // where a float test per cell costs ~4× as much at P = 64; the
    // culprit is searched for only on a refusal.
    let key = |x: &f64| match x.to_bits() {
        b if b == (-0.0f64).to_bits() => 0,
        b => b,
    };
    let inf = f64::INFINITY.to_bits();
    if cells.iter().map(key).max() >= Some(inf) {
        let i = cells.iter().position(|x| key(x) >= inf).unwrap_or_default();
        return Err(malformed(format!(
            "matrix cell ({},{}) must be finite and non-negative, got {}",
            i / p,
            i % p,
            cells[i]
        )));
    }
    Ok(CommMatrix::from_flat(p, cells))
}

fn read_order(body: &[u8]) -> Result<SendOrder, ProtocolError> {
    let count = |p: usize| p.checked_mul(p.saturating_sub(1));
    let (p, words) = body_words(body, count, "plan order")?;
    // `seen[d] == src` marks `d` taken in row `src`: no clearing per row.
    let mut seen = vec![usize::MAX; p];
    let order = (0..p)
        .map(|src| {
            let row: Vec<usize> = words[src * (p - 1)..(src + 1) * (p - 1)]
                .iter()
                .map(|w| u32::from_le_bytes(*w) as usize)
                .collect();
            let distinct = row
                .iter()
                .all(|&d| d < p && d != src && std::mem::replace(&mut seen[d], src) != src);
            distinct.then_some(row).ok_or_else(|| {
                malformed(format!(
                    "order row {src} is not a permutation of the other processors"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(SendOrder { order })
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
        qos.critical_links = parse_pairs(links, "critical")?;
    }
    Ok(qos)
}

/// `[[src,dst],…]` out of a tree.
fn parse_pairs(v: &Value, what: &str) -> Result<Vec<(usize, usize)>, ProtocolError> {
    v.as_arr()
        .ok_or_else(|| malformed(format!("{what} must be an array of [src,dst] pairs")))?
        .iter()
        .map(|pair| match pair.as_arr() {
            Some([s, d]) => Ok((index_field(s, what)?, index_field(d, what)?)),
            _ => Err(malformed(format!("{what} entries must be [src,dst] pairs"))),
        })
        .collect()
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
    let (v, body) = split(payload)?;
    match str_field(&v, "type")? {
        "shutdown" => no_body(body).map(|()| Request::Shutdown),
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
            let matrix = body.map(read_matrix).transpose()?;
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

/// Parses a response payload.
pub fn parse_response(payload: &[u8]) -> Result<PlanResponse, ProtocolError> {
    let (v, body) = split(payload)?;
    let bodyless = |resp| no_body(body).map(|()| resp);
    match str_field(&v, "type")? {
        "bye" => bodyless(PlanResponse::Bye),
        "plan" => match str_field(&v, "status")? {
            "need-matrix" => bodyless(PlanResponse::NeedMatrix),
            "rejected" => bodyless(PlanResponse::Rejected {
                retry_after_ms: num_field(&v, "retry_after_ms")?,
                detail: str_field(&v, "detail")?.to_string(),
            }),
            "error" => bodyless(PlanResponse::Error {
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
                    order: read_order(body.ok_or_else(|| malformed("missing plan order body"))?)?,
                    completion_ms: num_field(plan, "completion_ms")?,
                    cache: CacheDisposition::parse(str_field(&v, "cache")?)?,
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
                        Some(q) => Some(PlanQuality {
                            critical_path: parse_pairs(
                                q.get("critical_path")
                                    .ok_or_else(|| malformed("missing quality.critical_path"))?,
                                "quality.critical_path",
                            )?,
                            lb_gap_pct: num_field(q, "lb_gap_pct")?,
                        }),
                    },
                })))
            }
            other => Err(malformed(format!("unknown response status {other:?}"))),
        },
        other => Err(malformed(format!("unknown response type {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::Plan(PlanRequest {
            tenant: "alice \"a\"".into(),
            algorithm: "matching-max".into(),
            matrix: Some(CommMatrix::from_rows(&[
                vec![0.0, 1.25, 3.5],
                vec![2.0, 0.0, 0.125],
                vec![9.75, 4.5, 0.0],
            ])),
            fingerprint: Some(0xdead_beef_0123_4567),
            qos: QosSpec {
                deadline_ms: Some(12.5),
                priority: 7,
                critical_links: vec![(0, 2), (1, 0)],
            },
            trace: Some(TraceContext::root("alice \"a\"", 0)),
        })
    }

    /// `head`, the NUL and a body of `p` then `words`, all little-endian.
    fn with_body<const W: usize>(head: &str, p: u32, words: &[[u8; W]]) -> Vec<u8> {
        let mut out = head.as_bytes().to_vec();
        out.push(0);
        out.extend_from_slice(&p.to_le_bytes());
        words.iter().for_each(|w| out.extend_from_slice(w));
        out
    }

    fn cells(xs: &[f64]) -> Vec<[u8; 8]> {
        xs.iter().map(|x| x.to_le_bytes()).collect()
    }

    fn dsts(ds: &[u32]) -> Vec<[u8; 4]> {
        ds.iter().map(|d| d.to_le_bytes()).collect()
    }

    const PLAN_HEAD: &str = r#"{"type":"plan","tenant":"t","algorithm":"a"}"#;
    const OK_HEAD: &str = r#"{"type":"plan","status":"ok","cache":"cold","epoch":1,"served_seq":1,"plan":{"completion_ms":1.0},"stats":{"round1_warm":false,"round1_col_scans":0,"total_col_scans":0,"service_ms":0.5}}"#;

    #[test]
    fn requests_round_trip() {
        for req in [sample_request(), Request::Shutdown] {
            let bytes = encode_request(&req);
            assert_eq!(parse_request(&bytes).unwrap(), req);
        }
        // Fingerprint-only probe round-trips without a matrix.
        let probe = Request::Plan(PlanRequest {
            tenant: "t".into(),
            algorithm: "greedy".into(),
            matrix: None,
            fingerprint: Some(3),
            qos: QosSpec::default(),
            trace: None,
        });
        assert_eq!(parse_request(&encode_request(&probe)).unwrap(), probe);
    }

    #[test]
    fn matrix_cells_decode_bit_exactly() {
        // `==` on f64 cannot tell −0.0 from 0.0: compare the bits.
        let awkward = [
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            0.1 + 0.2,
            9007199254740993.0,
            f64::MAX,
            1e-7,
            1e21,
        ];
        let m = CommMatrix::from_flat(3, awkward.to_vec());
        let req = Request::Plan(PlanRequest {
            tenant: "t".into(),
            algorithm: "a".into(),
            matrix: Some(m.clone()),
            fingerprint: Some(m.fingerprint()),
            qos: QosSpec::default(),
            trace: None,
        });
        let Request::Plan(back) = parse_request(&encode_request(&req)).unwrap() else {
            panic!("a plan request came back as something else");
        };
        let back = back.matrix.unwrap();
        for (src, want) in awkward.chunks(3).enumerate() {
            let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(back.row(src)), bits(want));
        }
        assert_eq!(back.fingerprint(), m.fingerprint());
    }

    #[test]
    fn a_p1024_request_survives_the_frame_reader() {
        // Cells of full-length shortest digits, as real costs have: as
        // text this request ran over MAX_FRAME; in binary it fits.
        let m = CommMatrix::from_fn(1024, |s, d| 1.0 + (s * 1024 + d) as f64 / 7.0);
        let req = Request::Plan(PlanRequest {
            tenant: "big".into(),
            algorithm: "matching-max".into(),
            fingerprint: Some(m.fingerprint()),
            matrix: Some(m),
            qos: QosSpec::default(),
            trace: None,
        });
        let mut reader = FrameReader::new();
        reader.push(&frame(&encode_request(&req)));
        let payload = reader.next_frame().unwrap().expect("one whole frame");
        assert_eq!(parse_request(&payload).unwrap(), req);
    }

    #[test]
    fn trace_field_is_version_tolerant() {
        // A request with no trace field parses to `trace: None` (the
        // server will start a fresh root).
        let bare = br#"{"type":"plan","tenant":"t","algorithm":"greedy","fingerprint":"0000000000000003"}"#;
        match parse_request(bare).unwrap() {
            Request::Plan(plan) => assert_eq!(plan.trace, None),
            other => panic!("{other:?}"),
        }
        // A traced request round-trips its wire ids (the parent is a
        // client-local detail and intentionally does not travel).
        let ctx = TraceContext::root("tenant-x", 42);
        let req = Request::Plan(PlanRequest {
            tenant: "tenant-x".into(),
            algorithm: "greedy".into(),
            matrix: None,
            fingerprint: Some(9),
            qos: QosSpec::default(),
            trace: Some(ctx),
        });
        match parse_request(&encode_request(&req)).unwrap() {
            Request::Plan(plan) => {
                let got = plan.trace.unwrap();
                assert_eq!(got.trace_id, ctx.trace_id);
                assert_eq!(got.span_id, ctx.span_id);
            }
            other => panic!("{other:?}"),
        }
        // Corrupt trace ids are typed protocol errors, not panics.
        let bad = br#"{"type":"plan","tenant":"t","algorithm":"a","fingerprint":"0000000000000003","trace":{"id":"xyz","span":"0000000000000001"}}"#;
        assert!(matches!(
            parse_request(bad).unwrap_err(),
            ProtocolError::Malformed { .. }
        ));
        // Responses without trace_id parse to None.
        match parse_response(&with_body(OK_HEAD, 2, &dsts(&[1, 0]))).unwrap() {
            PlanResponse::Ok(ok) => assert_eq!(ok.trace_id, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            PlanResponse::Bye,
            PlanResponse::NeedMatrix,
            PlanResponse::Rejected {
                retry_after_ms: 41.75,
                detail: "deadline 1 ms unmeetable".into(),
            },
            PlanResponse::Error {
                detail: "unknown algorithm \"frobnicate\"".into(),
            },
            PlanResponse::Ok(Box::new(PlanOk {
                order: SendOrder::new(vec![vec![1, 2], vec![2, 0], vec![0, 1]]),
                completion_ms: 123.0625,
                cache: CacheDisposition::Warm,
                epoch: 5,
                served_seq: 17,
                stats: PlanStats {
                    round1_warm: true,
                    round1_col_scans: 42,
                    total_col_scans: 512,
                    service_ms: 1.5,
                },
                trace_id: Some(0x0123_4567_89ab_cdef),
                quality: Some(PlanQuality {
                    critical_path: vec![(0, 2), (1, 2), (1, 0)],
                    lb_gap_pct: 6.25,
                }),
            })),
        ];
        for resp in responses {
            let bytes = encode_response(&resp);
            assert_eq!(parse_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn quality_field_is_version_tolerant() {
        // Responses without a quality object parse to None — the same
        // rule as trace_id.
        match parse_response(&with_body(OK_HEAD, 2, &dsts(&[1, 0]))).unwrap() {
            PlanResponse::Ok(ok) => assert_eq!(ok.quality, None),
            other => panic!("{other:?}"),
        }
        // A malformed quality object is a typed error, not a silent None.
        let head = OK_HEAD.replace(
            "}}",
            r#"},"quality":{"lb_gap_pct":1.0,"critical_path":[[0]]}}"#,
        );
        let bad = parse_response(&with_body(&head, 2, &dsts(&[1, 0])));
        assert!(matches!(bad, Err(ProtocolError::Malformed { .. })));
    }

    #[test]
    fn frames_round_trip_through_the_reader() {
        let payloads: Vec<Vec<u8>> = vec![
            encode_request(&sample_request()),
            encode_request(&Request::Shutdown),
            Vec::new(),
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&frame(p));
        }
        let mut reader = FrameReader::new();
        reader.push(&stream);
        for p in &payloads {
            assert_eq!(reader.next_frame().unwrap().as_deref(), Some(p.as_slice()));
        }
        assert_eq!(reader.next_frame().unwrap(), None);
        reader.finish().unwrap();
    }

    #[test]
    fn bad_headers_are_typed_errors() {
        // Oversized length prefix.
        let mut reader = FrameReader::new();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        reader.push(&bytes);
        assert!(matches!(
            reader.next_frame(),
            Err(ProtocolError::Oversized { .. })
        ));
        // Wrong version tags, the retired version 1 among them.
        for tag in [1, 7] {
            let mut reader = FrameReader::new();
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&u64::to_le_bytes(tag));
            bytes.extend_from_slice(&0u64.to_le_bytes());
            reader.push(&bytes);
            assert_eq!(reader.next_frame(), Err(ProtocolError::BadVersion { tag }));
        }
        // Truncation is only an error at end-of-stream.
        let mut reader = FrameReader::new();
        reader.push(&frame(b"{}")[..10]);
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(matches!(
            reader.finish(),
            Err(ProtocolError::Truncated { have: 10, need: 16 })
        ));
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        // 200 KB of `[` — far under MAX_FRAME — used to recurse once per
        // byte and overflow the connection thread's stack, aborting the
        // whole server. Run on a thread of that default size.
        let verdict = std::thread::spawn(|| {
            let frame = vec![b'['; 200_000];
            (parse_request(&frame), parse_response(&frame))
        })
        .join()
        .expect("the parser must not take its thread down");
        assert!(matches!(verdict.0, Err(ProtocolError::Malformed { .. })));
        assert!(matches!(verdict.1, Err(ProtocolError::Malformed { .. })));
        // The same depth inside a head field.
        let deep = format!(
            r#"{{"type":"plan","tenant":"t","algorithm":"a","qos":{}}}"#,
            "[".repeat(200_000)
        );
        assert!(matches!(
            parse_request(deep.as_bytes()),
            Err(ProtocolError::Malformed { .. })
        ));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let shutdown = r#"{"type":"shutdown"}"#;
        let requests = [
            b"not json at all".to_vec(),
            br#"{"type":"plan"}"#.to_vec(),
            PLAN_HEAD.as_bytes().to_vec(),
            br#"{"type":"plan","tenant":"","algorithm":"a","fingerprint":"0000000000000000"}"#
                .to_vec(),
            br#"{"type":"plan","tenant":"t","algorithm":"a","fingerprint":"xyz"}"#.to_vec(),
            br#"{"type":"wat"}"#.to_vec(),
            // A body on a message that has none.
            with_body(shutdown, 0, &cells(&[])),
            // Bodies too short for their size word or for their P.
            [PLAN_HEAD.as_bytes(), &[0, 2, 0]].concat(),
            with_body(PLAN_HEAD, 2, &cells(&[0.0, 1.0, 2.0])),
            // P² overflows; P²·8 overflows.
            with_body(PLAN_HEAD, u32::MAX, &cells(&[])),
            with_body(PLAN_HEAD, 1 << 31, &cells(&[])),
            // Trailing bytes, an empty matrix, bad cells.
            with_body(PLAN_HEAD, 1, &cells(&[0.0, 0.0])),
            with_body(PLAN_HEAD, 0, &cells(&[])),
            with_body(PLAN_HEAD, 2, &cells(&[0.0, -1.0, 2.0, 0.0])),
            with_body(PLAN_HEAD, 2, &cells(&[0.0, f64::NAN, 2.0, 0.0])),
            with_body(PLAN_HEAD, 2, &cells(&[0.0, f64::INFINITY, 2.0, 0.0])),
        ];
        for bad in requests {
            let err = parse_request(&bad).unwrap_err();
            assert!(matches!(err, ProtocolError::Malformed { .. }), "{err}");
        }
        let responses = [
            br#"{"type":"plan","status":"wat"}"#.to_vec(),
            OK_HEAD.as_bytes().to_vec(),
            with_body(r#"{"type":"bye"}"#, 0, &dsts(&[])),
            with_body(OK_HEAD, 3, &dsts(&[1, 1, 0, 2, 0, 1])),
            with_body(OK_HEAD, 3, &dsts(&[1, 2, 0, 1, 0, 1])),
            with_body(OK_HEAD, 3, &dsts(&[1, 3, 0, 2, 0, 1])),
            with_body(OK_HEAD, 2, &dsts(&[1, 0, 0])),
            with_body(OK_HEAD, 2, &dsts(&[1])),
            with_body(OK_HEAD, u32::MAX, &dsts(&[])),
        ];
        for bad in responses {
            let err = parse_response(&bad).unwrap_err();
            assert!(matches!(err, ProtocolError::Malformed { .. }), "{err}");
        }
    }
}
