//! Client library: a thin blocking wrapper over the framed protocol,
//! sharing the runtime transport's socket plumbing
//! ([`adaptcomm_runtime::tcp::write_frame`] / `read_frame`).
//!
//! Every plan/probe request carries a deterministic [`TraceContext`]
//! root (derived from `(tenant, per-client request seq)`) and records a
//! client-side `plansrv.client` span under it, so a client capture can
//! be merged with the server's into one cross-process request tree.

use crate::proto::{
    self, PlanRequest, PlanResponse, ProtocolError, QosSpec, Request, MAX_FRAME, PROTO_VERSION,
};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_obs::trace::TraceContext;
use adaptcomm_runtime::tcp::{read_frame, write_frame};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Anything that can go wrong talking to a plan server.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(String),
    /// The server's bytes did not decode.
    Protocol(ProtocolError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(detail) => write!(f, "plan server I/O: {detail}"),
            ClientError::Protocol(e) => write!(f, "plan server protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// A blocking connection to a plan server. One request in flight at a
/// time; the connection persists across requests.
pub struct PlanClient {
    stream: TcpStream,
    /// Per-connection request counter seeding each request's trace
    /// root — deterministic, so a test can recompute every id.
    next_seq: u64,
}

impl PlanClient {
    /// Connects to a plan server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        // Frames go out as two writes (header, payload); Nagle would
        // hold the payload for the delayed ACK, ~40 ms per request.
        let _ = stream.set_nodelay(true);
        Ok(PlanClient {
            stream,
            next_seq: 0,
        })
    }

    /// Connects, retrying until `deadline` elapses — for racing a
    /// server that is still binding (CI smoke, tests).
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        deadline: Duration,
    ) -> Result<Self, ClientError> {
        let t0 = Instant::now();
        loop {
            match Self::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if t0.elapsed() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<PlanResponse, ClientError> {
        let payload = proto::encode_request(request);
        // The server would refuse the frame and hang up: say so before
        // writing rather than fail halfway with a broken pipe.
        let len = payload.len() as u64;
        if len > MAX_FRAME {
            return Err(ProtocolError::Oversized {
                len,
                max: MAX_FRAME,
            }
            .into());
        }
        write_frame(&mut self.stream, PROTO_VERSION, &payload)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let (tag, payload) =
            read_frame(&mut self.stream, MAX_FRAME).map_err(|e| ClientError::Io(e.to_string()))?;
        if tag != PROTO_VERSION {
            return Err(ClientError::Protocol(ProtocolError::BadVersion { tag }));
        }
        Ok(proto::parse_response(&payload)?)
    }

    /// One traced plan request. Its root context derives from `(tenant,
    /// per-connection seq)`, and a `plansrv.client` span (recorded into
    /// the global registry, a no-op while observability is disabled)
    /// brackets the wire roundtrip under it.
    fn request(
        &mut self,
        tenant: &str,
        algorithm: &str,
        matrix: Option<CommMatrix>,
        fingerprint: u64,
        qos: QosSpec,
    ) -> Result<PlanResponse, ClientError> {
        let ctx = TraceContext::root(tenant, self.next_seq);
        self.next_seq += 1;
        let _span = adaptcomm_obs::global()
            .span("plansrv.client")
            .attr("tenant", tenant)
            .trace(ctx);
        self.roundtrip(&Request::Plan(PlanRequest {
            tenant: tenant.to_string(),
            algorithm: algorithm.to_string(),
            matrix,
            fingerprint: Some(fingerprint),
            qos,
            trace: Some(ctx),
        }))
    }

    /// Requests a plan for a full cost matrix.
    pub fn plan(
        &mut self,
        tenant: &str,
        algorithm: &str,
        matrix: &CommMatrix,
        qos: QosSpec,
    ) -> Result<PlanResponse, ClientError> {
        let fingerprint = matrix.fingerprint();
        self.request(tenant, algorithm, Some(matrix.clone()), fingerprint, qos)
    }

    /// Fingerprint-only probe: asks whether the server can replay a
    /// cached plan without shipping the `P²` matrix. Answers
    /// [`PlanResponse::NeedMatrix`] on a miss.
    pub fn probe(
        &mut self,
        tenant: &str,
        algorithm: &str,
        fingerprint: u64,
        qos: QosSpec,
    ) -> Result<PlanResponse, ClientError> {
        self.request(tenant, algorithm, None, fingerprint, qos)
    }

    /// Sends the shutdown control frame; the server acknowledges with
    /// [`PlanResponse::Bye`], finishes in-flight requests, and stops.
    pub fn shutdown(mut self) -> Result<PlanResponse, ClientError> {
        self.roundtrip(&Request::Shutdown)
    }
}
