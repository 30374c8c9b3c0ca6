//! Directory-service substrate (§3.1).
//!
//! "Since network load in shared environments varies with time, a
//! directory service which provides information on current network
//! performance is essential." This crate plays the role of Globus MDS /
//! ReMoS for the scheduling framework: it publishes time-stamped
//! [`DirectorySnapshot`]s of per-pair network performance: the two things
//! the framework needs from it are *query* and *publish*.
//!
//! Three pieces:
//!
//! * [`snapshot`] — immutable, time-stamped [`adaptcomm_model::NetParams`]
//!   snapshots;
//! * [`service`] — the thread-safe [`service::DirectoryService`] with
//!   query/publish, the set of quarantined links, and an optional attached
//!   [`adaptcomm_model::variation::VariationTrace`] so the directory can
//!   evolve on its own clock;
//! * [`load`] — a background-load injector that perturbs published
//!   bandwidths the way competing applications would.

//!
//! # Example
//!
//! ```
//! use adaptcomm_directory::DirectoryService;
//! use adaptcomm_model::{NetParams, Bandwidth, Millis};
//!
//! let dir = DirectoryService::new(adaptcomm_model::gusto::gusto_params());
//! let estimate = dir.snapshot().estimate(0, 1);
//! assert_eq!(estimate.startup.as_ms(), 34.5); // Table 1: AMES↔ANL
//! // Publish fresher measurements; later queries see them.
//! let mut updated = dir.snapshot().params().clone();
//! updated.scale_bandwidth(0, 1, 0.5);
//! dir.publish(updated);
//! assert_eq!(dir.snapshot().sequence(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod load;
pub mod service;
pub mod snapshot;

pub use service::{DirectoryService, PublishError};
pub use snapshot::DirectorySnapshot;
