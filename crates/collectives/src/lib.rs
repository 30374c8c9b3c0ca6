//! Heterogeneity-aware schedules for other collective patterns.
//!
//! The paper's framework is "a general one, and can be used for different
//! collective communication patterns" (§1); the published evaluation only
//! instantiates it for total exchange. This crate instantiates it for the
//! rest of the classic collectives, under the same model (per-pair
//! `T_ij + m/B_ij` costs, one send and one receive at a time, no message
//! combining except where a pattern is defined by combining):
//!
//! * [`plan`] — the generalized schedule container and validity checker
//!   (port constraints, per-pattern coverage);
//! * [`broadcast`] — flat, binomial, and the heterogeneity-aware
//!   *fastest-completion-first* tree;
//! * [`scatter`] / [`gather`] — root-bound patterns where ordering is
//!   provably irrelevant to completion but matters for average latency;
//! * [`reduce`] — mirror of broadcast with associative combining;
//! * [`all_to_some`] — partial exchanges via a generalized open shop
//!   list scheduler.
//!
//! All-gather is intentionally *absent* as a separate implementation: a
//! no-combining all-gather is exactly a total exchange whose per-sender
//! message sizes are row-constant, so `adaptcomm-core`'s schedulers solve
//! it directly (see [`composed::allgather_matrix`]).

//!
//! # Example
//!
//! ```
//! use adaptcomm_collectives::broadcast;
//! use adaptcomm_core::matrix::CommMatrix;
//!
//! // A hub-and-spoke network: node 1 has fast links everywhere.
//! let m = CommMatrix::from_fn(6, |s, d| {
//!     if s == d { 0.0 } else if s == 1 || d == 1 { 1.0 } else { 10.0 }
//! });
//! let greedy = broadcast::fastest_first(&m, 0);
//! let naive = broadcast::flat(&m, 0);
//! assert!(greedy.completion_time().as_ms() <= naive.completion_time().as_ms());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops mirror the published pseudocode of the ported
// algorithms; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod all_to_some;
pub mod broadcast;
pub mod composed;
pub mod gather;
pub mod plan;
pub mod reduce;
pub mod scatter;

pub use plan::{CollectiveSchedule, PlanError};
