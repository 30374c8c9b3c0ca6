//! Scheduling-as-a-service: a multi-tenant TCP plan server with a
//! fingerprint-keyed plan cache and §6 QoS admission control.
//!
//! The paper's framework computes a schedule inside the application.
//! This crate lifts that scheduler behind a long-running network
//! service, which is where the paper's §6 quality-of-service story
//! actually lives: many applications (tenants) share one scheduling
//! brain, and that brain must husband its own compute — replaying
//! plans it has already computed, warm-starting plans it has *almost*
//! computed, and refusing work it cannot finish in time.
//!
//! Five layers, front to back:
//!
//! * [`proto`] — the framed wire protocol: 16-byte length-prefixed
//!   headers (shared with the runtime transport) around a small JSON
//!   head and, for the matrix and the order, a body of raw
//!   little-endian words; every decode failure is a typed
//!   [`proto::ProtocolError`].
//! * [`service`] — the decision core: one plain value owning the cache,
//!   the admission queue, the idle workers, the tenant epochs, the
//!   service-time estimates and the reject streak. It is driven by
//!   request and solved events with the time passed in, reads no clock,
//!   and returns the replies and solves to carry out — so its replies
//!   are a function of the event sequence.
//! * [`admission`] — §6 QoS at the door, as a plain queue the core
//!   owns: priority tiers, EDF within a tier, projected-completion
//!   deadline tests, reject-with-retry-after.
//! * [`cache`] — the fingerprint-keyed plan cache: exact keys replay
//!   plans verbatim; a per-`(algorithm, P)` recency ring nominates near
//!   matches, confirmed by direct deviation measurement and replanned
//!   from the retained matching plan (or its LAP dual potentials).
//! * [`server`] / [`client`] — the TCP shell (the core behind one lock,
//!   connection threads that move frames and answer exact hits, worker
//!   threads that only run solves, the clock, graceful drain) and its
//!   blocking client.
//!
//! # Example
//!
//! ```
//! use adaptcomm_plansrv::{PlanClient, PlanServer, PlanServerConfig};
//! use adaptcomm_plansrv::proto::{PlanResponse, QosSpec};
//! use adaptcomm_core::matrix::CommMatrix;
//!
//! let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).unwrap();
//! let mut client = PlanClient::connect(server.local_addr()).unwrap();
//! let m = CommMatrix::from_fn(4, |s, d| if s == d { 0.0 } else { (s * 3 + d + 1) as f64 });
//! let first = client.plan("tenant-a", "greedy", &m, QosSpec::default()).unwrap();
//! assert!(matches!(first, PlanResponse::Ok(_)));
//! // The identical request is now served from the plan cache.
//! match client.plan("tenant-a", "greedy", &m, QosSpec::default()).unwrap() {
//!     PlanResponse::Ok(ok) => assert_eq!(ok.cache.as_str(), "hit"),
//!     other => panic!("{other:?}"),
//! }
//! client.shutdown().unwrap();
//! server.join();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod client;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{CacheLookup, CacheStats, PlanCache};
pub use client::{ClientError, PlanClient};
pub use proto::{CacheDisposition, PlanRequest, PlanResponse, ProtocolError, QosSpec};
pub use server::{PlanServer, PlanServerConfig, PlanService};
