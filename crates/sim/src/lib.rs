//! Deterministic discrete-event simulation of communication schedules.
//!
//! The paper's evaluation is simulation-based: "We have developed a
//! software simulator that executes the scheduling algorithms discussed
//! in Section 4, and calculates the completion time for each of them."
//! This crate re-implements that simulator at the network-model level and
//! extends it with the §6 model variants. Every executor below except
//! [`fluid`] is a *policy* over the one port-model event loop in
//! `adaptcomm_core::kernel` — the calendar, the ports, the FCFS grant and
//! the tie order live there, once:
//!
//! * [`executor`] — message-level execution of a send order against a
//!   static network (the kernel with a price and nothing else, as is the
//!   analytic execution in `adaptcomm-core`);
//! * [`dynamic`] — execution against a *drifting* network
//!   ([`adaptcomm_model::variation::VariationTrace`]) with the §6.3
//!   checkpoint/rescheduling policies;
//! * [`interleaved`] — §6.1 concurrent receives with `(1+α)` overhead;
//! * [`buffered`] — §6.1 finite receive buffers with decoupled drains;
//! * [`fluid`] — topology-level ground truth: dynamic equal-share link
//!   bandwidth division (§3.1), quantifying the flat model's error;
//! * [`metrics`] — per-processor busy/idle accounting and ratio reports.

//!
//! # Example
//!
//! ```
//! use adaptcomm_core::algorithms::{OpenShop, Scheduler};
//! use adaptcomm_core::matrix::CommMatrix;
//! use adaptcomm_model::{NetParams, Bandwidth, Bytes, Millis};
//! use adaptcomm_sim::run_static;
//!
//! let net = NetParams::uniform(4, Millis::new(5.0), Bandwidth::from_kbps(1_000.0));
//! let sizes: Vec<Vec<Bytes>> = (0..4).map(|s| (0..4)
//!     .map(|d| if s == d { Bytes::ZERO } else { Bytes::KB }).collect()).collect();
//! let matrix = CommMatrix::from_model(&net, &sizes);
//! let order = OpenShop.send_order(&matrix);
//! let run = run_static(&order, &net, &sizes);
//! // The simulator reproduces the analytic completion exactly.
//! assert_eq!(run.makespan, OpenShop.schedule(&matrix).completion_time());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Index-based loops mirror the published pseudocode of the ported
// algorithms; iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod buffered;
pub mod dynamic;
pub mod executor;
pub mod faults;
pub mod fluid;
pub mod interleaved;
pub mod metrics;

pub use adaptcomm_core::kernel::ScheduleError;
pub use dynamic::{
    run_adaptive, run_adaptive_checked, AdaptiveConfig, DynamicOutcome, NetworkEvolution, SimError,
};
pub use executor::{run_static, TransferRecord};
pub use faults::{Fault, ScriptedFaults};
pub use metrics::SimMetrics;
