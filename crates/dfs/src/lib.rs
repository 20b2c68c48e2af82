#![warn(missing_docs)]

//! # custody-dfs
//!
//! An HDFS-like distributed-file-system model for the Custody reproduction.
//!
//! The paper's setting (§II, §IV-C): a distributed file system divides each
//! data file into fixed-size blocks (128 MB in the evaluation), stores each
//! block on several DataNodes (three replicas by default, placed uniformly
//! at random), and a central **NameNode** "manages the directory tree of
//! all files in the system, and tracks where the data is stored across the
//! whole cluster". Custody's only interaction with the file system is the
//! NameNode query: *given a job's input dataset, which worker nodes hold
//! each of its blocks?*
//!
//! This crate models exactly that:
//!
//! * [`Block`] / [`Dataset`] — fixed-size blocks grouped into named datasets.
//! * [`DataNode`] — per-machine stored-block set with capacity accounting.
//! * [`NameNode`] — the authoritative block → replica-locations map and
//!   dataset registry.
//! * [`placement`] — replica-placement policies: uniform random (HDFS
//!   default, used in the paper's evaluation), round-robin, and a
//!   popularity-based policy modelled on Scarlett \[9\] (the extension the
//!   paper's §VII says "will further enhance the performance of Custody").
//! * [`popularity`] — block access-frequency tracking feeding the
//!   popularity-based policy.

pub mod block;
pub mod datanode;
pub mod namenode;
pub mod placement;
pub mod popularity;

pub use block::{Block, BlockId, Dataset, DatasetId, NodeId, BYTES_PER_MB, DEFAULT_BLOCK_SIZE};
pub use datanode::{DataNode, DataNodes};
pub use namenode::NameNode;
pub use placement::{
    PlacementPolicy, PopularityPlacement, RackAwarePlacement, RandomPlacement, RoundRobinPlacement,
};
pub use popularity::AccessTracker;
