//! Adaptive communication scheduling for total exchange on distributed
//! heterogeneous systems.
//!
//! This crate implements the primary contribution of *Adaptive
//! Communication Algorithms for Distributed Heterogeneous Systems*
//! (Bhat, Prasanna, Raghavendra — HPDC 1998): run-time scheduling of
//! all-to-all personalized communication (AAPC, a.k.a. total exchange)
//! when per-pair network performance is heterogeneous.
//!
//! # The problem
//!
//! `P` processors each hold a distinct message for every other processor.
//! A `P×P` communication matrix gives the predicted time of each
//! transfer (from the directory service via the `T_ij + m/B_ij` model).
//! A node may participate in at most one send and one receive at a time.
//! Find an order for the `P·(P−1)` transfers minimizing the completion
//! time. The decision version (`TOT_EXCH`) is NP-complete for `P > 2`
//! by reduction from open shop scheduling.
//!
//! # The algorithms
//!
//! | Algorithm | Module | Complexity | Guarantee |
//! |---|---|---|---|
//! | Baseline (caterpillar) | [`algorithms::baseline`] | `O(P²)` | ≤ `⌈P/2⌉·t_lb` (tight) |
//! | Max-weight matching | [`algorithms::matching`] | `O(P⁴)` | adaptive; ~15 % of `t_lb` in practice |
//! | Min-weight matching | [`algorithms::matching`] | `O(P⁴)` | comparable to max |
//! | Greedy | [`algorithms::greedy`] | `O(P³)` | ~25 % of `t_lb` in practice |
//! | Open shop heuristic | [`algorithms::openshop`] | `O(P³)` | ≤ `2·t_lb` (Theorem 3) |
//!
//! # Quick start
//!
//! ```
//! use adaptcomm_core::prelude::*;
//!
//! // A 4-processor system with heterogeneous pairwise costs (ms).
//! let c = CommMatrix::from_rows(&[
//!     vec![0.0, 10.0, 40.0, 5.0],
//!     vec![12.0, 0.0, 8.0, 30.0],
//!     vec![45.0, 9.0, 0.0, 11.0],
//!     vec![6.0, 28.0, 13.0, 0.0],
//! ]);
//! let schedule = OpenShop.schedule(&c);
//! assert!(schedule.validate().is_ok());
//! assert!(schedule.completion_time() <= c.lower_bound() * 2.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops mirror the published pseudocode of the ported
// algorithms; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod algorithms;
pub mod analyze;
pub mod bounds;
pub mod checkpointed;
pub mod critical;
pub mod depgraph;
pub mod execution;
pub mod export;
pub mod fingerprint;
pub mod kernel;
pub mod matrix;
pub mod paper;
pub mod qos;
pub mod reduction;
pub mod schedule;
pub mod timing;

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::algorithms::{
        Baseline, Greedy, MatchingKind, MatchingScheduler, OpenShop, Scheduler,
    };
    pub use crate::execution::execute_listed;
    pub use crate::matrix::CommMatrix;
    pub use crate::schedule::{Schedule, ScheduledEvent, SendOrder};
    pub use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
}

pub use matrix::CommMatrix;
pub use schedule::{Schedule, ScheduledEvent, SendOrder};
