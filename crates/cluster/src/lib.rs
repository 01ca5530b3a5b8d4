//! # greenness-cluster
//!
//! The multi-node extension the paper's §VI-A asks for: "evaluation on a
//! multi-node system to study the effect of network I/O in addition to disk
//! I/O" and "multi-node systems running parallel file systems to understand
//! the impact of file system on energy consumption".
//!
//! Substrate pieces:
//!
//! * [`fabric`] — the interconnect: point-to-point transfers that occupy
//!   both endpoints' NICs and keep their virtual clocks causally consistent;
//! * [`slab`] — the row-slab decomposition: which rows each compute node
//!   owns, serializes, renders and is charged for, and the ghost rows
//!   neighbours exchange each step. The field is advanced by the
//!   workspace's one `HeatSolver` — exact for FTCS, whose update reads only
//!   the previous time level;
//! * [`pfs`] — a striped parallel filesystem over dedicated I/O server
//!   nodes, each running the full single-node storage stack (page cache,
//!   extents, journal barriers);
//! * [`pipeline`] — the distributed pipelines: post-processing writes slabs
//!   to the PFS and a visualization node reads them back; in-situ renders on
//!   the compute nodes and ships only images; in-transit stages slabs —
//!   optionally compressed on the wire — into dedicated staging nodes
//!   through bounded send queues, genuinely overlapping simulation with
//!   transfer and rendering (Bennett et al., the paper's ref [10]).
//!
//! Cluster-level accounting sums every node's timeline (compute + I/O
//! servers + viz/staging node); makespan is the latest clock. Load imbalance
//! and barrier waits therefore show up as *real static energy*, which is
//! exactly the effect the paper's single-node study could not see.

pub mod error;
pub mod fabric;
pub mod pfs;
pub mod pipeline;
pub mod slab;

pub use error::{ClusterError, FaultSummary};
pub use fabric::{barrier, Fabric};
pub use pfs::ParallelFs;
pub use pipeline::{
    run_cluster, run_cluster_traced, ClusterConfig, ClusterKind, ClusterReport, StagingConfig,
    WireCodec,
};
pub use slab::DecomposedSolver;
