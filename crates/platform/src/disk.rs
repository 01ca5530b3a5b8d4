//! Storage-device timing and power model.
//!
//! Models the Seagate 500 GB 7200 rpm HDD of Table I, plus SSD and NVRAM
//! variants for the paper's future-work list. The HDD model is mechanism-
//! based: average seek + rotational latency per positioning, streaming media
//! rate for transfers, an on-disk write cache whose elevator scheduling makes
//! *random writes almost as fast as sequential writes* (the paper's Table III
//! shows 31.0 s vs 27.0 s for 4 GB), and NCQ-style queueing that shortens the
//! effective positioning time of queued random reads.
//!
//! Effective rates and power deltas are calibrated to Table III of the paper
//! (see DESIGN.md §4): 4 GiB sequential read in 35.9 s at +13.5 W,
//! random 4 KiB reads at ≈2.15 ms/op at +2.5 W, sequential write in 27.0 s at
//! +10.9 W, random write in ≈31 s at +13.4 W.

use crate::activity::AccessPattern;
use crate::units::GIB;

/// The device technology being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// Rotating hard disk (the paper's testbed device).
    Hdd,
    /// SATA solid-state drive (paper future work).
    Ssd,
    /// Byte-addressable non-volatile memory / PMem (paper future work).
    Nvram,
    /// A DRAM-backed staging tier (deep-memory-hierarchy burst buffers).
    Dram,
    /// PCIe NVMe solid-state drive.
    Nvme,
}

/// The direction of a device transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDir {
    /// Data moves from the device to memory.
    Read,
    /// Data moves from memory to the device.
    Write,
}

/// Cost of one device operation: how long it took and the average power the
/// device drew *above idle* while it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskOpCost {
    /// Duration of the operation in seconds.
    pub seconds: f64,
    /// Average device power above idle during the operation, watts.
    pub dyn_w: f64,
}

/// Timing and power model for the node's storage device.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    /// Device technology.
    pub kind: DiskKind,
    /// Capacity in bytes (Table I: 500 GB).
    pub capacity_bytes: u64,
    /// Average positioning time (seek, for HDDs) in seconds.
    pub avg_seek_s: f64,
    /// Short positioning time (track-to-track settle) in seconds.
    pub settle_seek_s: f64,
    /// Average rotational latency in seconds (zero for SSD/NVRAM).
    pub rot_latency_s: f64,
    /// Effective streaming read rate, bytes/s.
    pub seq_read_rate: f64,
    /// Effective streaming write rate, bytes/s (write caching makes this
    /// higher than the read rate on the paper's disk).
    pub seq_write_rate: f64,
    /// Whether the on-device write cache (and elevator reordering) is enabled.
    pub write_cache: bool,
    /// Random-write slowdown relative to sequential when the write cache
    /// reorders: `t_random = t_seq / elevator_efficiency`.
    pub elevator_efficiency: f64,
    /// NCQ scaling: effective positioning time divides by
    /// `1 + ncq_k·log2(queue_depth)`.
    pub ncq_k: f64,
    /// Idle (spinning / powered) device power, watts.
    pub idle_w: f64,
    /// Extra power while positioning (mostly rotational wait), watts.
    pub seek_w: f64,
    /// Extra power during journal-commit barriers (seeks plus platter
    /// writes), watts.
    pub journal_w: f64,
    /// Extra power while streaming reads, watts.
    pub read_w: f64,
    /// Extra power while streaming writes, watts.
    pub write_w: f64,
    /// Extra power during cached random write-back (streaming + elevator
    /// repositioning), watts.
    pub elevator_w: f64,
}

impl DiskModel {
    /// The Table I device: Seagate 500 GB 7200 rpm, calibrated to Table III.
    pub fn seagate_7200rpm_500gb() -> Self {
        DiskModel {
            kind: DiskKind::Hdd,
            capacity_bytes: 500_000_000_000,
            avg_seek_s: 8.5e-3,
            settle_seek_s: 1.0e-3,
            rot_latency_s: 60.0 / (2.0 * 7200.0), // ≈4.17 ms
            seq_read_rate: 4.0 * GIB as f64 / 35.9,
            seq_write_rate: 4.0 * GIB as f64 / 27.0,
            write_cache: true,
            elevator_efficiency: 27.0 / 31.0,
            ncq_k: 1.0,
            idle_w: 5.0,
            seek_w: 2.32,
            journal_w: 4.0,
            read_w: 13.5,
            write_w: 10.9,
            elevator_w: 13.4,
        }
    }

    /// A SATA SSD (future-work variant): no mechanical positioning, ≈0.1 ms
    /// random access, 450/400 MB/s streaming.
    pub fn sata_ssd_512gb() -> Self {
        DiskModel {
            kind: DiskKind::Ssd,
            capacity_bytes: 512_000_000_000,
            avg_seek_s: 0.1e-3,
            settle_seek_s: 0.02e-3,
            rot_latency_s: 0.0,
            seq_read_rate: 450.0e6,
            seq_write_rate: 400.0e6,
            write_cache: true,
            elevator_efficiency: 0.95,
            ncq_k: 1.0,
            idle_w: 1.2,
            seek_w: 1.0,
            journal_w: 1.5,
            read_w: 3.0,
            write_w: 3.5,
            elevator_w: 3.5,
        }
    }

    /// NVRAM / NVDIMM-class storage (future-work variant): ≈10 µs access,
    /// 2 GB/s streaming.
    pub fn nvram_256gb() -> Self {
        DiskModel {
            kind: DiskKind::Nvram,
            capacity_bytes: 256_000_000_000,
            avg_seek_s: 10.0e-6,
            settle_seek_s: 2.0e-6,
            rot_latency_s: 0.0,
            seq_read_rate: 2.0e9,
            seq_write_rate: 1.6e9,
            write_cache: false,
            elevator_efficiency: 1.0,
            ncq_k: 1.0,
            idle_w: 0.5,
            seek_w: 0.2,
            journal_w: 0.5,
            read_w: 2.0,
            write_w: 2.5,
            elevator_w: 2.5,
        }
    }

    /// A DRAM staging tier treated as a storage device (the fastest rung of
    /// the deep memory hierarchy): DDR3-1333-class streaming, sub-µs access,
    /// and a small constant power for the DIMM region it pins.
    pub fn dram_tier_32gb() -> Self {
        DiskModel {
            kind: DiskKind::Dram,
            capacity_bytes: 32_000_000_000,
            avg_seek_s: 0.2e-6,
            settle_seek_s: 0.05e-6,
            rot_latency_s: 0.0,
            seq_read_rate: 12.8e9,
            seq_write_rate: 12.8e9,
            write_cache: false,
            elevator_efficiency: 1.0,
            ncq_k: 1.0,
            idle_w: 2.0,
            seek_w: 0.5,
            journal_w: 1.0,
            read_w: 4.0,
            write_w: 4.0,
            elevator_w: 4.0,
        }
    }

    /// A PCIe NVMe SSD: ≈20 µs access, 3.2/2.2 GB/s streaming, controller
    /// write cache.
    pub fn nvme_ssd_1tb() -> Self {
        DiskModel {
            kind: DiskKind::Nvme,
            capacity_bytes: 1_000_000_000_000,
            avg_seek_s: 20.0e-6,
            settle_seek_s: 5.0e-6,
            rot_latency_s: 0.0,
            seq_read_rate: 3.2e9,
            seq_write_rate: 2.2e9,
            write_cache: true,
            elevator_efficiency: 0.97,
            ncq_k: 1.0,
            idle_w: 2.0,
            seek_w: 1.2,
            journal_w: 2.0,
            read_w: 6.0,
            write_w: 8.0,
            elevator_w: 8.0,
        }
    }

    /// The device zoo: every modeled tier technology from fastest to
    /// slowest, with its conventional short name. The placement studies and
    /// the README device table are generated from this list.
    pub fn device_zoo() -> Vec<(&'static str, DiskModel)> {
        vec![
            ("dram", Self::dram_tier_32gb()),
            ("pmem", Self::nvram_256gb()),
            ("nvme", Self::nvme_ssd_1tb()),
            ("ssd", Self::sata_ssd_512gb()),
            ("hdd", Self::seagate_7200rpm_500gb()),
        ]
    }

    /// A RAID-0 stripe over `n` copies of this device (paper future work:
    /// "evaluation on systems using RAID disks"). Streaming bandwidth scales
    /// with the member count; positioning latency does not (all members
    /// seek in parallel for a striped request); idle and active power scale
    /// with the member count.
    pub fn raid0(&self, n: u32) -> Self {
        assert!(n >= 1, "RAID-0 needs at least one member");
        let k = n as f64;
        DiskModel {
            capacity_bytes: self.capacity_bytes * n as u64,
            seq_read_rate: self.seq_read_rate * k,
            seq_write_rate: self.seq_write_rate * k,
            idle_w: self.idle_w * k,
            seek_w: self.seek_w * k,
            journal_w: self.journal_w * k,
            read_w: self.read_w * k,
            write_w: self.write_w * k,
            elevator_w: self.elevator_w * k,
            // Independent spindles service queued random ops concurrently.
            ncq_k: self.ncq_k * k,
            ..self.clone()
        }
    }

    fn ncq_factor(&self, queue_depth: u32) -> f64 {
        let qd = queue_depth.max(1) as f64;
        1.0 + self.ncq_k * qd.log2()
    }

    fn streaming_rate(&self, dir: IoDir) -> f64 {
        match dir {
            IoDir::Read => self.seq_read_rate,
            IoDir::Write => self.seq_write_rate,
        }
    }

    fn transfer_w(&self, dir: IoDir) -> f64 {
        match dir {
            IoDir::Read => self.read_w,
            IoDir::Write => self.write_w,
        }
    }

    /// Blend positioning and transfer time into one averaged cost.
    fn blended(&self, position_s: f64, transfer_s: f64, dir: IoDir) -> DiskOpCost {
        let total = position_s + transfer_s;
        if total <= 0.0 {
            return DiskOpCost {
                seconds: 0.0,
                dyn_w: 0.0,
            };
        }
        let energy_above_idle = position_s * self.seek_w + transfer_s * self.transfer_w(dir);
        DiskOpCost {
            seconds: total,
            dyn_w: energy_above_idle / total,
        }
    }

    /// Cost of transferring `bytes` in direction `dir` with the given access
    /// pattern.
    pub fn transfer(&self, bytes: u64, dir: IoDir, pattern: AccessPattern) -> DiskOpCost {
        if bytes == 0 {
            return DiskOpCost {
                seconds: 0.0,
                dyn_w: 0.0,
            };
        }
        let rate = self.streaming_rate(dir);
        match pattern {
            AccessPattern::Sequential => {
                // One initial positioning, then streaming.
                self.blended(
                    self.avg_seek_s + self.rot_latency_s,
                    bytes as f64 / rate,
                    dir,
                )
            }
            AccessPattern::Chunked { op_bytes } => {
                // Cold chunked access: a short settle + rotational miss per
                // chunk (read-ahead window), then the chunk transfer.
                let op = op_bytes.max(1).min(bytes);
                let ops = bytes.div_ceil(op) as f64;
                let position = ops * (self.settle_seek_s + self.rot_latency_s);
                self.blended(position, bytes as f64 / rate, dir)
            }
            AccessPattern::Random {
                op_bytes,
                queue_depth,
            } => {
                let op = op_bytes.max(1).min(bytes);
                let ops = bytes.div_ceil(op) as f64;
                if dir == IoDir::Write && self.write_cache {
                    // The on-disk cache absorbs random writes and the
                    // elevator writes them back in near-sequential order
                    // (Table III: 31.0 s vs 27.0 s for 4 GB).
                    let secs = bytes as f64 / rate / self.elevator_efficiency;
                    return DiskOpCost {
                        seconds: secs,
                        dyn_w: self.elevator_w,
                    };
                }
                // Uncached random access: full positioning per op, shortened
                // by NCQ for queued requests.
                let position =
                    ops * (self.avg_seek_s + self.rot_latency_s) / self.ncq_factor(queue_depth);
                self.blended(position, bytes as f64 / rate, dir)
            }
        }
    }

    /// Cost of `count` pure positioning operations (journal commits, fsync
    /// barriers): no data transfer, seek power.
    pub fn barrier(&self, count: u32) -> DiskOpCost {
        let secs = count as f64 * (self.avg_seek_s + self.rot_latency_s);
        DiskOpCost {
            seconds: secs,
            dyn_w: if count > 0 { self.journal_w } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{GIB, KIB};

    impl DiskModel {
        /// A copy with the write cache (and elevator reordering) disabled.
        fn without_write_cache(&self) -> Self {
            DiskModel {
                write_cache: false,
                ..self.clone()
            }
        }
    }

    fn hdd() -> DiskModel {
        DiskModel::seagate_7200rpm_500gb()
    }

    #[test]
    fn table3_sequential_read() {
        let c = hdd().transfer(4 * GIB, IoDir::Read, AccessPattern::Sequential);
        assert!((c.seconds - 35.9).abs() < 0.1, "got {}", c.seconds);
        assert!((c.dyn_w - 13.5).abs() < 0.1, "got {}", c.dyn_w);
    }

    #[test]
    fn table3_random_read() {
        let c = hdd().transfer(
            4 * GIB,
            IoDir::Read,
            AccessPattern::Random {
                op_bytes: 4 * KIB,
                queue_depth: 32,
            },
        );
        // Paper: 2230 s at +2.5 W.
        assert!((c.seconds - 2230.0).abs() < 50.0, "got {}", c.seconds);
        assert!((c.dyn_w - 2.5).abs() < 0.1, "got {}", c.dyn_w);
    }

    #[test]
    fn table3_sequential_write() {
        let c = hdd().transfer(4 * GIB, IoDir::Write, AccessPattern::Sequential);
        assert!((c.seconds - 27.0).abs() < 0.1, "got {}", c.seconds);
        assert!((c.dyn_w - 10.9).abs() < 0.2, "got {}", c.dyn_w);
    }

    #[test]
    fn table3_random_write_absorbed_by_write_cache() {
        let c = hdd().transfer(
            4 * GIB,
            IoDir::Write,
            AccessPattern::Random {
                op_bytes: 4 * KIB,
                queue_depth: 32,
            },
        );
        assert!((c.seconds - 31.0).abs() < 0.2, "got {}", c.seconds);
        assert!((c.dyn_w - 13.4).abs() < 0.1, "got {}", c.dyn_w);
    }

    #[test]
    fn disabling_write_cache_makes_random_writes_seek_bound() {
        let nc = hdd().without_write_cache();
        let c = nc.transfer(
            GIB,
            IoDir::Write,
            AccessPattern::Random {
                op_bytes: 4 * KIB,
                queue_depth: 1,
            },
        );
        // Every 4 KiB op pays a full seek + rotation: ≈12.7 ms × 262144 ops.
        assert!(c.seconds > 3000.0, "got {}", c.seconds);
    }

    #[test]
    fn ncq_shortens_random_reads() {
        let d = hdd();
        let qd1 = d.transfer(
            GIB,
            IoDir::Read,
            AccessPattern::Random {
                op_bytes: 4 * KIB,
                queue_depth: 1,
            },
        );
        let qd32 = d.transfer(
            GIB,
            IoDir::Read,
            AccessPattern::Random {
                op_bytes: 4 * KIB,
                queue_depth: 32,
            },
        );
        assert!(qd32.seconds < qd1.seconds / 4.0);
    }

    #[test]
    fn chunked_reads_pay_per_chunk_rotation() {
        let d = hdd();
        let seq = d.transfer(
            2 * crate::units::MIB,
            IoDir::Read,
            AccessPattern::Sequential,
        );
        let chunked = d.transfer(
            2 * crate::units::MIB,
            IoDir::Read,
            AccessPattern::Chunked { op_bytes: 8 * KIB },
        );
        assert!(
            chunked.seconds > seq.seconds,
            "{} vs {}",
            chunked.seconds,
            seq.seconds
        );
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        let c = hdd().transfer(0, IoDir::Read, AccessPattern::Sequential);
        assert_eq!(c.seconds, 0.0);
        assert_eq!(c.dyn_w, 0.0);
    }

    #[test]
    fn barriers_cost_seeks() {
        let d = hdd();
        let b = d.barrier(6);
        assert!((b.seconds - 6.0 * (8.5e-3 + 60.0 / 14400.0)).abs() < 1e-9);
        assert_eq!(b.dyn_w, d.journal_w);
        assert_eq!(d.barrier(0).seconds, 0.0);
    }

    #[test]
    fn ssd_random_reads_are_orders_of_magnitude_faster_than_hdd() {
        let hdd_cost = hdd().transfer(
            GIB,
            IoDir::Read,
            AccessPattern::Random {
                op_bytes: 4 * KIB,
                queue_depth: 32,
            },
        );
        let ssd_cost = DiskModel::sata_ssd_512gb().transfer(
            GIB,
            IoDir::Read,
            AccessPattern::Random {
                op_bytes: 4 * KIB,
                queue_depth: 32,
            },
        );
        assert!(hdd_cost.seconds / ssd_cost.seconds > 20.0);
    }

    #[test]
    fn nvram_is_faster_still() {
        let ssd = DiskModel::sata_ssd_512gb().transfer(GIB, IoDir::Read, AccessPattern::Sequential);
        let nv = DiskModel::nvram_256gb().transfer(GIB, IoDir::Read, AccessPattern::Sequential);
        assert!(nv.seconds < ssd.seconds);
    }

    #[test]
    fn op_bytes_larger_than_request_is_clamped() {
        let d = hdd();
        let c = d.transfer(
            4 * KIB,
            IoDir::Read,
            AccessPattern::Random {
                op_bytes: GIB,
                queue_depth: 1,
            },
        );
        assert!(c.seconds > 0.0 && c.seconds < 0.1);
    }
}

#[cfg(test)]
mod raid_tests {
    use super::*;
    use crate::activity::AccessPattern;
    use crate::units::{GIB, KIB};

    #[test]
    fn raid0_scales_streaming_but_not_latency() {
        let base = DiskModel::seagate_7200rpm_500gb();
        let r4 = base.raid0(4);
        let seq_base = base.transfer(4 * GIB, IoDir::Read, AccessPattern::Sequential);
        let seq_r4 = r4.transfer(4 * GIB, IoDir::Read, AccessPattern::Sequential);
        assert!(seq_r4.seconds < seq_base.seconds / 3.0);
        // Single-op positioning is unchanged.
        assert_eq!(r4.avg_seek_s, base.avg_seek_s);
        assert_eq!(r4.capacity_bytes, 4 * base.capacity_bytes);
    }

    #[test]
    fn raid0_burns_more_idle_power() {
        let base = DiskModel::seagate_7200rpm_500gb();
        assert!((base.raid0(4).idle_w - 4.0 * base.idle_w).abs() < 1e-9);
    }

    #[test]
    fn raid0_random_reads_benefit_from_parallel_spindles() {
        let base = DiskModel::seagate_7200rpm_500gb();
        let r4 = base.raid0(4);
        let pat = AccessPattern::Random {
            op_bytes: 4 * KIB,
            queue_depth: 32,
        };
        let t_base = base.transfer(GIB, IoDir::Read, pat).seconds;
        let t_r4 = r4.transfer(GIB, IoDir::Read, pat).seconds;
        assert!(t_r4 < t_base / 2.0, "{t_r4} vs {t_base}");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn raid0_of_zero_is_rejected() {
        let _ = DiskModel::seagate_7200rpm_500gb().raid0(0);
    }
}
