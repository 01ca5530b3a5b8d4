//! # greenness-storage
//!
//! The simulated storage stack under the visualization pipelines: a block
//! device holding real bytes, a Linux-style page cache with dirty-page
//! write-back, a small extent-based filesystem, an `fio`-style benchmark
//! engine (the paper's Table III), and the software-directed data
//! reorganization pass of §V-D (paper refs [30], [31]).
//!
//! Layering mirrors the paper's testbed: application data flows through the
//! page cache onto the device as *real bytes* (snapshots read back are
//! byte-identical to what was written), while the *timing and power* of every
//! device access is charged to the node via the calibrated
//! [`DiskModel`](greenness_platform::DiskModel) — including the `sync` +
//! `drop_caches` discipline the paper applies between phases (§IV-C) and the
//! journal-commit seeks that make each fsync expensive on a 7200 rpm disk.

pub mod block;
pub mod burst;
pub mod cache;
pub mod error;
pub mod fio;
mod free;
pub mod fs;
pub mod placement;
pub mod reorg;
pub mod tier;

pub use block::{block_from, Block, BlockDevice, MemBlockDevice, NullBlockDevice, BLOCK_SIZE};
pub use burst::BurstBuffer;
pub use cache::CacheStats;
pub use error::StorageError;
pub use fio::{FioJob, FioKind, FioResult};
pub use fs::{AllocMode, CostedDevice, FileSystem, FsConfig, FsError};
pub use placement::{BlockState, Move, PolicyKind, TierUsage};
pub use reorg::reorganize;
pub use tier::{TierCounters, TierSpec, TieredStore};
