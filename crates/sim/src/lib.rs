#![warn(missing_docs)]

//! # custody-sim
//!
//! The end-to-end cluster simulation: the substrate that replaces the
//! paper's 100-node Linode testbed.
//!
//! A [`Simulation`] run wires together every other crate:
//!
//! 1. A [`SimConfig`] fixes the cluster ([`ClusterSpec`]), the workload
//!    ([`Campaign`] + submission schedule), the cluster manager
//!    ([`AllocatorKind`]), the per-app task scheduler
//!    ([`SchedulerKind`]), the replica placement, and the master seed.
//! 2. Datasets are registered with the NameNode ahead of their jobs.
//! 3. The discrete-event loop processes job arrivals, task completions
//!    and delayed-offer retries. At every event it (a) releases executors
//!    applications no longer need, (b) runs one allocation round through
//!    the configured [`ExecutorAllocator`](custody_core::ExecutorAllocator),
//!    and (c) offers each
//!    application's idle executors to its task scheduler.
//! 4. [`RunMetrics`] collect exactly what the paper's figures report:
//!    per-job input locality (Fig. 7), job completion times (Fig. 8),
//!    input-stage durations (Fig. 9) and scheduler delays (Fig. 10).
//!
//! Determinism: the run is a pure function of `SimConfig` — same config,
//! same metrics — which reproduces the paper's shared-schedule methodology.

pub mod analysis;
pub mod config;
pub(crate) mod demand;
pub mod driver;
pub mod experiment;
pub mod job;
pub mod metrics;
pub mod report;
pub mod trace;

pub use config::{
    ChaosConfig, ControlPlaneConfig, CorruptionConfig, FailSlowConfig, NodeFailure,
    PartitionConfig, PlacementKind, QuotaMode, SimConfig,
};
pub use driver::Simulation;
pub use metrics::{AppMetrics, RunMetrics, SimOutcome};
pub use trace::{TaskRecord, TaskTrace};

// Re-exports so downstream code can configure runs with one import.
pub use custody_cluster::ClusterSpec;
pub use custody_core::AllocatorKind;
pub use custody_scheduler::SchedulerKind;
pub use custody_workload::{Campaign, WorkloadKind};
