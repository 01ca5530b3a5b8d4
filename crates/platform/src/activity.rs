//! Descriptions of work the node performs.
//!
//! Application code (solver, storage stack, renderer) does its *actual* work
//! on real data, then reports what it did as an [`Activity`]; the node's
//! device models convert the description into virtual time and power. This
//! split keeps the computation genuine while the energy accounting stays
//! deterministic and calibrated.

use crate::time::SimDuration;

/// How a block of device I/O is laid out on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// One contiguous streaming transfer.
    Sequential,
    /// Contiguous data consumed in cold `op_bytes` chunks (a read-ahead
    /// window); each chunk pays a short settle + rotational latency.
    Chunked {
        /// Bytes fetched per chunk.
        op_bytes: u64,
    },
    /// Uniformly scattered `op_bytes` operations; each pays full positioning,
    /// amortized by NCQ when `queue_depth > 1`.
    Random {
        /// Bytes per operation.
        op_bytes: u64,
        /// Outstanding requests the device may reorder.
        queue_depth: u32,
    },
}

/// One unit of work for the node to execute and account.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activity {
    /// Floating-point computation on `cores` cores.
    Compute {
        /// Total floating-point operations performed.
        flops: f64,
        /// Cores kept busy.
        cores: u32,
        /// Arithmetic intensity in `[0, 1]`; scales per-core dynamic power
        /// (1.0 = a dense compute kernel, lower for memory- or
        /// branch-bound work such as rasterization).
        intensity: f64,
        /// DRAM traffic generated, bytes.
        dram_bytes: u64,
    },
    /// Read `bytes` from the storage device.
    DiskRead {
        /// Bytes transferred.
        bytes: u64,
        /// Device-level layout of the transfer.
        pattern: AccessPattern,
        /// Buffered (page-cache) I/O keeps one core busy copying and charges
        /// the CPU's `io_assist_w`; direct I/O (fio) does not.
        buffered: bool,
    },
    /// Write `bytes` to the storage device.
    DiskWrite {
        /// Bytes transferred.
        bytes: u64,
        /// Device-level layout of the transfer.
        pattern: AccessPattern,
        /// See [`Activity::DiskRead::buffered`].
        buffered: bool,
    },
    /// Pure positioning work: journal commits, fsync barriers.
    DiskBarrier {
        /// Number of full positioning operations.
        seeks: u32,
    },
    /// A memory-to-memory copy (in-memory staging, in-situ hand-off).
    MemTraffic {
        /// Bytes copied.
        bytes: u64,
    },
    /// Ship data over the NIC (in-transit extension).
    NetTransfer {
        /// Bytes sent.
        bytes: u64,
        /// Number of messages (latency is per message).
        messages: u32,
    },
    /// Do nothing for a fixed span of time.
    Idle {
        /// How long to idle.
        duration: SimDuration,
    },
}

impl Activity {
    /// Dense compute on `cores` cores at full intensity with no modeled DRAM
    /// traffic.
    pub fn compute(flops: f64, cores: u32) -> Activity {
        Activity::Compute {
            flops,
            cores,
            intensity: 1.0,
            dram_bytes: 0,
        }
    }

    /// Idle for `secs` seconds.
    pub fn idle_secs(secs: f64) -> Activity {
        Activity::Idle {
            duration: SimDuration::from_secs_f64(secs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_constructors() {
        match Activity::compute(1e9, 16) {
            Activity::Compute {
                flops,
                cores,
                intensity,
                dram_bytes,
            } => {
                assert_eq!(flops, 1e9);
                assert_eq!(cores, 16);
                assert_eq!(intensity, 1.0);
                assert_eq!(dram_bytes, 0);
            }
            _ => panic!("wrong variant"),
        }
        match Activity::idle_secs(2.0) {
            Activity::Idle { duration } => assert_eq!(duration, SimDuration::from_secs(2)),
            _ => panic!("wrong variant"),
        }
    }
}
