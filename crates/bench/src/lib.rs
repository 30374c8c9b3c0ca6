//! Experiment harness regenerating the paper's tables and figures.
//!
//! The `figures` binary drives the functions in [`experiments`] and
//! prints each table/figure as aligned text plus CSV; the `perfgate`
//! binary measures the *cost* of running the schedulers themselves at
//! large `P` and gates it against `BENCH_sched.json` (the §6.2
//! motivation: "the overhead for repeatedly calculating the
//! communication schedule at run-time can be expensive").

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops mirror the published pseudocode of the ported
// algorithms; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod experiments;
pub mod sweep;

pub use experiments::{FigureRow, FigureTable, SummaryStats};
pub use sweep::{InstanceResult, SweepGrid, SweepPoint, SweepRunner, SweepStats};
