//! `adaptcomm` — adaptive communication scheduling for distributed
//! heterogeneous systems.
//!
//! A Rust reproduction of *Bhat, Prasanna & Raghavendra, "Adaptive
//! Communication Algorithms for Distributed Heterogeneous Systems"*
//! (HPDC 1998). This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`obs`] | `adaptcomm-obs` | spans and instants; one exact JSONL capture codec; the explain plane |
//! | [`model`] | `adaptcomm-model` | cost model `T_ij + m/B_ij`, GUSTO data, topology, drift traces |
//! | [`lap`] | `adaptcomm-lap` | Jonker–Volgenant / Hungarian assignment solvers |
//! | [`directory`] | `adaptcomm-directory` | MDS-style directory service |
//! | [`scheduling`] | `adaptcomm-core` | the paper's total-exchange schedulers |
//! | [`sim`] | `adaptcomm-sim` | discrete-event execution, §6 model variants |
//! | [`runtime`] | `adaptcomm-runtime` | live execution: real threads, shaped channels / TCP, §6.4 adapt loop |
//! | [`chaos`] | `adaptcomm-chaos` | seeded fault injection: crashes, partitions, lying links, recovery SLOs |
//! | [`workloads`] | `adaptcomm-workloads` | the §5 evaluation scenarios |
//! | [`plansrv`] | `adaptcomm-plansrv` | scheduling-as-a-service: multi-tenant TCP plan server, fingerprint-keyed plan cache, §6 QoS admission |
//!
//! # Quick start
//!
//! ```
//! use adaptcomm::prelude::*;
//!
//! // Network state, as a directory service would report it.
//! let network = adaptcomm::model::gusto::gusto_params();
//! // Total exchange of 1 MB messages across the 5 GUSTO sites.
//! let matrix = CommMatrix::uniform_message(&network, Bytes::MB);
//! // Schedule it with the paper's best heuristic.
//! let schedule = OpenShop.schedule(&matrix);
//! assert!(schedule.validate().is_ok());
//! // Theorem 3: within twice the lower bound, in practice much closer.
//! assert!(schedule.lb_ratio() <= 2.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use adaptcomm_chaos as chaos;
pub use adaptcomm_core as scheduling;
pub use adaptcomm_directory as directory;
pub use adaptcomm_lap as lap;
pub use adaptcomm_model as model;
pub use adaptcomm_obs as obs;
pub use adaptcomm_plansrv as plansrv;
pub use adaptcomm_runtime as runtime;
pub use adaptcomm_sim as sim;
pub use adaptcomm_workloads as workloads;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use adaptcomm_chaos::{run_chaos, ChaosPlan, ChaosReport};
    pub use adaptcomm_core::algorithms::{
        all_schedulers, Baseline, Greedy, MatchingKind, MatchingScheduler, OpenShop, Scheduler,
    };
    pub use adaptcomm_core::matrix::CommMatrix;
    pub use adaptcomm_core::schedule::{Schedule, ScheduledEvent, SendOrder};
    pub use adaptcomm_core::timing::TimingDiagram;
    pub use adaptcomm_directory::DirectoryService;
    pub use adaptcomm_model::units::{Bandwidth, Bytes, Millis};
    pub use adaptcomm_model::NetParams;
    pub use adaptcomm_runtime::{
        execute, execute_adaptive, AdaptSettings, BackendKind, CheckpointedRun, FrozenNetwork,
        ReplanTrigger, RunReport, RuntimeError, ShapedConfig,
    };
    pub use adaptcomm_workloads::{Scenario, SizeMatrix};
}
