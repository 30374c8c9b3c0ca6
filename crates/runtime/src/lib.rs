//! Live execution runtime: the paper's loop on real threads.
//!
//! Everything below `adaptcomm-sim` *predicts*; this crate *executes*.
//! A [`channel::run_shaped`] run is one more policy over the port-model
//! kernel (`adaptcomm_core::kernel`) that every simulated executor
//! shares: the kernel, on the calling thread, enforces §3 — one send and
//! one receive at a time per node, FCFS receiver grants — and the policy
//! prices each transfer's `T_ij + m/B_ij` modeled milliseconds live from
//! a [`adaptcomm_sim::NetworkEvolution`], while one OS thread per
//! processor moves the real byte buffers through a pluggable
//! [`transport::Transport`] and decides nothing. The realized modeled
//! timeline is therefore the simulator's, bit for bit, however the OS
//! schedules the threads — an equality the integration tests assert
//! record for record.
//! With the global `adaptcomm_obs` registry enabled, a threaded run also
//! records every delivered transfer once, as an `obs::causal::transfer_span`
//! on the registry's clock.
//!
//! On top of the engine:
//!
//! * [`transport`] — the physical byte path: in-process shaped channels
//!   or genuinely concurrent loopback TCP ([`tcp`]);
//! * [`prober`] — fits live `(T_ij, B_ij)` from completed transfers,
//!   cross-checks each claim against them (quarantining a link that
//!   lies) and publishes them back into the `DirectoryService`;
//! * [`adapt`] — [`adapt::CheckpointedRun`] closes the measure →
//!   schedule → execute → adapt loop of §6.4, replanning at checkpoints
//!   when progress slips past the deviation rule or the per-link CUSUM
//!   detector fires ([`ReplanTrigger`]), and retrying around typed
//!   link failures ([`error::RuntimeError`]);
//! * [`run`] — a one-call facade (`execute` / `execute_adaptive`) over
//!   either backend with receipt verification.
//!
//! # Example
//!
//! ```
//! use adaptcomm_core::algorithms::{OpenShop, Scheduler};
//! use adaptcomm_core::matrix::CommMatrix;
//! use adaptcomm_model::{Bandwidth, Bytes, Millis, NetParams};
//! use adaptcomm_runtime::channel::FrozenNetwork;
//! use adaptcomm_runtime::run::{execute, BackendKind};
//! use adaptcomm_runtime::channel::ShapedConfig;
//!
//! let p = 4;
//! let net = NetParams::uniform(p, Millis::new(5.0), Bandwidth::from_kbps(1_000.0));
//! let sizes: Vec<Vec<Bytes>> = (0..p).map(|s| (0..p)
//!     .map(|d| if s == d { Bytes::ZERO } else { Bytes::KB }).collect()).collect();
//! let order = OpenShop.send_order(&CommMatrix::from_model(&net, &sizes));
//! let report = execute(&order.order, &sizes, &mut FrozenNetwork(net),
//!     BackendKind::Channel, ShapedConfig::default()).unwrap();
//! assert!(report.receipts_ok);
//! assert_eq!(report.records.len(), p * (p - 1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

pub mod adapt;
pub mod channel;
pub mod error;
pub mod prober;
pub mod run;
pub mod tcp;
pub mod transport;

pub use adapt::{
    AdaptReport, AdaptSettings, CheckpointedRun, FaultKind, RecoveryEvent, ReplanTrigger,
};
pub use adaptcomm_sim::dynamic::Replanner;
pub use channel::{
    run_shaped, CheckpointAction, CheckpointView, FaultPolicy, FrozenNetwork, ShapedConfig,
    ShapedFailure, ShapedOutcome,
};
pub use error::RuntimeError;
pub use prober::{LinkMeasurement, MeasurementTamper, Prober, PublishOutcome};
pub use run::{execute, execute_adaptive, BackendKind, RunReport};
pub use tcp::TcpTransport;
pub use transport::{ChannelTransport, ReceiptSummary, Transport};
