//! Heterogeneous network performance model.
//!
//! This crate is the substrate beneath the scheduling algorithms of
//! *Adaptive Communication Algorithms for Distributed Heterogeneous
//! Systems* (HPDC 1998). It provides:
//!
//! * strongly-typed units ([`units`]) for time, message size and bandwidth,
//! * the paper's two-parameter analytic cost model ([`cost`]):
//!   `t(i→j, m) = T_ij + m / B_ij`,
//! * dense per-pair network parameter tables ([`params`]),
//! * the GUSTO testbed measurements from Tables 1 and 2 ([`gusto`]),
//! * a hierarchical site/link topology with shared-link bandwidth
//!   division ([`topology`]),
//! * GUSTO-guided random parameter generation ([`generator`]),
//! * time-varying network performance traces ([`variation`]), and
//! * the per-link read every such time-varying network answers
//!   ([`evolution`]).
//!
//! Everything downstream (directory service, schedulers, simulator)
//! consumes network state exclusively through [`params::NetParams`] and
//! [`cost::CostModel`], mirroring the paper's assumption that applications
//! see only end-to-end send/receive performance, never topology details.

//!
//! # Example
//!
//! ```
//! use adaptcomm_model::{NetParams, Bandwidth, Bytes, Millis};
//! use adaptcomm_model::cost::CostModel;
//!
//! // A 4-node system: 10 ms start-up, 1 Mbit/s everywhere.
//! let net = NetParams::uniform(4, Millis::new(10.0), Bandwidth::from_kbps(1_000.0));
//! // t = T + m/B: 10 ms + 8e6 bits / 1000 kbit/s = 8010 ms for 1 MB.
//! let t = net.message_time(0, 1, Bytes::MB);
//! assert!((t.as_ms() - 8_010.0).abs() < 1e-9);
//! // Local copies are free by the paper's convention.
//! assert_eq!(net.message_time(2, 2, Bytes::MB), Millis::ZERO);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops mirror the published pseudocode of the ported
// algorithms; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod cost;
pub mod evolution;
pub mod generator;
pub mod gusto;
pub mod params;
pub mod topology;
pub mod units;
pub mod variation;

pub use cost::CostModel;
pub use evolution::NetworkEvolution;
pub use params::NetParams;
pub use units::{Bandwidth, Bytes, Millis};
