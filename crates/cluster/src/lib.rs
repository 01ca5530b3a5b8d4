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
//! * [`config`] — what a run is asked to do, checked up front.
//!
//! This crate moves and stores bytes; it renders nothing and runs no
//! pipeline. The distributed pipelines are `greenness_core::pipeline::cluster`,
//! as `greenness-storage` is the substrate under `greenness_core::pipeline`.
//! A node that waits on a barrier, a transfer or a server idles forward at
//! real static power, so load imbalance and barrier waits show up as
//! energy — exactly the effect the paper's single-node study could not see.

pub mod config;
pub mod error;
pub mod fabric;
pub mod pfs;
pub mod slab;

pub use config::{ClusterConfig, ClusterKind, StagingConfig, WireCodec};
pub use error::{ClusterError, FaultSummary};
pub use fabric::{barrier, Fabric};
pub use pfs::ParallelFs;
pub use slab::DecomposedSolver;
