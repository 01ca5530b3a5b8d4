//! Structured errors for distributed runs.
//!
//! A misconfigured or degraded cluster must report *what* went wrong and
//! *what would fix it* — never panic mid-run (the binaries print these and
//! exit 1).

use greenness_storage::FsError;

/// Why a distributed run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The parallel filesystem filled up mid-run: the workload needs more
    /// capacity than the PFS was configured with.
    PfsUndersized {
        /// The file whose write hit the wall.
        file: String,
        /// Bytes this write requested.
        requested_bytes: u64,
        /// Bytes already durably written before it (so the run needs at
        /// least `written + requested`).
        written_bytes: u64,
        /// Total configured capacity across all object servers.
        capacity_bytes: u64,
        /// Object server count behind that capacity.
        io_servers: usize,
    },
    /// A filesystem operation on an I/O server failed (including a
    /// transient-fault retry budget exhausted on a persistently bad disk).
    Fs {
        /// The PFS file involved.
        file: String,
        /// The underlying filesystem error.
        source: FsError,
    },
    /// A fabric transfer was dropped more times than the retry budget
    /// allows — the link (or its peer) is effectively down.
    FabricExhausted {
        /// Payload size of the failing transfer.
        bytes: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A staged slab could not be wire-encoded (misaligned or non-finite
    /// payload — indicates solver corruption, not a codec defect).
    WireCodec {
        /// Timestep of the failing stage.
        step: u64,
        /// Sending compute node.
        node: usize,
        /// The codec's reason.
        reason: String,
    },
    /// A snapshot read back from the PFS does not have the configured grid
    /// shape (torn or corrupt data that checksums could not repair).
    SnapshotShape {
        /// The snapshot's base name.
        file: String,
        /// Bytes actually assembled.
        got_bytes: usize,
        /// Expected grid extent.
        want: (usize, usize),
    },
    /// A [`crate::ClusterConfig`] field was out of range; the message names
    /// it. Reported before any node is built.
    Config(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::PfsUndersized {
                file,
                requested_bytes,
                written_bytes,
                capacity_bytes,
                io_servers,
            } => write!(
                f,
                "PFS undersized: writing {file} ({requested_bytes} B) after {written_bytes} B \
                 already written, but {io_servers} server(s) provide only {capacity_bytes} B — \
                 the run needs at least {} B",
                written_bytes + requested_bytes
            ),
            ClusterError::Fs { file, source } => {
                write!(f, "I/O server failed on {file}: {source}")
            }
            ClusterError::FabricExhausted { bytes, attempts } => write!(
                f,
                "fabric transfer of {bytes} B dropped {attempts} times; retry budget exhausted"
            ),
            ClusterError::WireCodec { step, node, reason } => write!(
                f,
                "wire-encoding the staged slab from node {node} at step {step} failed: {reason}"
            ),
            ClusterError::SnapshotShape {
                file,
                got_bytes,
                want,
            } => write!(
                f,
                "snapshot {file} read back {got_bytes} B, which is not a {}x{} grid",
                want.0, want.1
            ),
            ClusterError::Config(msg) => write!(f, "bad cluster parameter: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Degraded-mode accounting for one faulted run: everything the fault layer
/// injected and everything the retry layers absorbed. Reported next to the
/// run's report (not inside it, so fault-free report bytes stay identical).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Injected fsync faults across all I/O servers.
    pub storage_faults: u64,
    /// fsync retries that recovered them.
    pub storage_retries: u64,
    /// Fabric transfers dropped in flight.
    pub fabric_drops: u64,
    /// Fabric transfers delivered late.
    pub fabric_delays: u64,
    /// Fabric retransmissions.
    pub fabric_retries: u64,
    /// Staging-node frame renders torn mid-flight and redone from the
    /// still-assembled slabs (output is never corrupted, only re-rendered).
    pub staging_torn_renders: u64,
}

impl FaultSummary {
    /// Total injected faults.
    pub fn total_faults(&self) -> u64 {
        self.storage_faults + self.fabric_drops + self.fabric_delays + self.staging_torn_renders
    }

    /// One-line degraded-mode report.
    pub fn describe(&self) -> String {
        format!(
            "faults injected: {} (storage {}, fabric drops {}, fabric delays {}, \
             torn staging renders {}); retries: storage {}, fabric {}",
            self.total_faults(),
            self.storage_faults,
            self.fabric_drops,
            self.fabric_delays,
            self.staging_torn_renders,
            self.storage_retries,
            self.fabric_retries
        )
    }
}
