//! Software-directed data reorganization (§V-D; paper refs [30], [31]).
//!
//! The paper's closing argument: instead of abandoning post-processing (and
//! its exploratory-analysis capability) for in-situ, an application with
//! random I/O behavior could *reorganize its data layout* so reads become
//! sequential — paying a one-time reorganization cost and thereafter losing
//! only ≈7.3 kJ instead of ≈242 kJ per 4 GB pass. This module implements that
//! pass: copy a fragmented file into freshly-allocated contiguous extents,
//! charged honestly (one fragmented read + one sequential write).

use greenness_platform::{AccessPattern, Activity, Node, Phase};

use crate::block::BLOCK_SIZE;
use crate::fs::{CostedDevice, FileSystem, FsError, JOURNAL_SEEKS_PER_FSYNC};

/// Outcome of one reorganization pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorgReport {
    /// Contiguous device runs before the pass.
    pub runs_before: usize,
    /// Contiguous device runs after the pass (1 when space allows).
    pub runs_after: usize,
    /// Bytes relocated.
    pub bytes: u64,
    /// Virtual time the pass took, seconds.
    pub seconds: f64,
    /// Full-system energy the pass consumed, joules.
    pub energy_j: f64,
}

/// Rewrite `name` into contiguous extents. The file's content is preserved
/// byte-for-byte; the old blocks are freed. Charges `node` for the fragmented
/// read and the sequential rewrite.
pub fn reorganize<D: CostedDevice>(
    node: &mut Node,
    fs: &mut FileSystem<D>,
    name: &str,
    phase: Phase,
) -> Result<ReorgReport, FsError> {
    let runs_before = fs.fragmentation(name)?;
    let size = fs.size(name)?;
    let t0 = node.now();
    let e0 = node.timeline().total_energy_j();

    // Read the file's blocks in *device* order — a single elevator-style
    // sweep across the platter, far cheaper than reading a fragmented file
    // in logical order — and reassemble the bytes in file order.
    let file_blocks = fs.device_blocks(name)?;
    {
        let mut sweep = file_blocks.clone();
        sweep.sort_unstable();
        let runs = crate::fs::count_runs(&sweep) as u64;
        let bytes = sweep.len() as u64 * BLOCK_SIZE;
        let pattern = if runs <= 1 {
            AccessPattern::Sequential
        } else {
            AccessPattern::Chunked {
                op_bytes: (bytes / runs).max(BLOCK_SIZE),
            }
        };
        node.execute(
            Activity::DiskRead {
                bytes,
                pattern,
                buffered: true,
            },
            phase,
        );
    }
    let mut data = vec![0u8; (file_blocks.len() as u64 * BLOCK_SIZE) as usize];
    {
        let (cache, dev) = fs.cache_and_dev();
        for (i, &b) in file_blocks.iter().enumerate() {
            let (page, _) = cache.read_block(dev, b);
            data[i * BLOCK_SIZE as usize..(i + 1) * BLOCK_SIZE as usize].copy_from_slice(&page[..]);
        }
    }
    data.truncate(size as usize);

    // Allocate a fresh contiguous region and copy the bytes in.
    let blocks = size.div_ceil(BLOCK_SIZE);
    let new_extents = fs.alloc_raw(blocks)?;
    {
        let dev_blocks: Vec<u64> = new_extents
            .iter()
            .flat_map(|e| e.start..e.start + e.len)
            .collect();
        let (cache, dev) = fs.cache_and_dev();
        for (i, &b) in dev_blocks.iter().enumerate() {
            let off = i * BLOCK_SIZE as usize;
            let end = (off + BLOCK_SIZE as usize).min(data.len());
            cache.write(dev, b, 0, &data[off..end]);
        }
        // Durable sequential write-back of the new region.
        cache.flush_blocks(dev, &dev_blocks);
    }
    node.execute(
        Activity::DiskWrite {
            bytes: blocks * BLOCK_SIZE,
            pattern: AccessPattern::Sequential,
            buffered: true,
        },
        phase,
    );
    node.execute(
        Activity::DiskBarrier {
            seeks: JOURNAL_SEEKS_PER_FSYNC,
        },
        phase,
    );

    let old = fs.swap_extents(name, new_extents)?;
    fs.free_raw(&old);
    fs.drop_caches();

    Ok(ReorgReport {
        runs_before,
        runs_after: fs.fragmentation(name)?,
        bytes: size,
        seconds: (node.now() - t0).as_secs_f64(),
        energy_j: node.timeline().total_energy_j() - e0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;
    use crate::fs::{AllocMode, FsConfig};
    use greenness_platform::HardwareSpec;

    fn fragmented_setup(bytes: usize) -> (Node, FileSystem<MemBlockDevice>, Vec<u8>) {
        let mut node = Node::new(HardwareSpec::table1());
        let mut fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(64 * 1024 * 1024),
            FsConfig::default(),
        );
        fs.set_alloc_mode(AllocMode::Scattered { seed: 11 });
        let data: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
        fs.write(&mut node, "field", 0, &data, Phase::Write)
            .unwrap();
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        (node, fs, data)
    }

    #[test]
    fn reorganization_defragments_and_preserves_content() {
        let (mut node, mut fs, data) = fragmented_setup(512 * 1024);
        let before = fs.fragmentation("field").unwrap();
        assert!(before > 16);
        fs.set_alloc_mode(AllocMode::Contiguous);
        let report = reorganize(&mut node, &mut fs, "field", Phase::Other).unwrap();
        assert_eq!(report.runs_before, before);
        assert!(
            report.runs_after <= 2,
            "still fragmented: {} runs",
            report.runs_after
        );
        assert!(report.seconds > 0.0 && report.energy_j > 0.0);
        let back = fs
            .read(&mut node, "field", 0, data.len() as u64, Phase::Read)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn reorganized_reads_are_much_cheaper() {
        let (mut node, mut fs, data) = fragmented_setup(1024 * 1024);
        // Cost of a cold fragmented read.
        let t0 = node.now();
        fs.read(&mut node, "field", 0, data.len() as u64, Phase::Read)
            .unwrap();
        let fragmented_cost = (node.now() - t0).as_secs_f64();
        fs.drop_caches();

        fs.set_alloc_mode(AllocMode::Contiguous);
        reorganize(&mut node, &mut fs, "field", Phase::Other).unwrap();

        let t1 = node.now();
        fs.read(&mut node, "field", 0, data.len() as u64, Phase::Read)
            .unwrap();
        let sequential_cost = (node.now() - t1).as_secs_f64();
        assert!(
            sequential_cost < fragmented_cost / 3.0,
            "reorg did not pay off: {sequential_cost}s vs {fragmented_cost}s"
        );
    }

    #[test]
    fn reorganizing_a_contiguous_file_is_idempotent_on_layout() {
        let mut node = Node::new(HardwareSpec::table1());
        let mut fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(16 * 1024 * 1024),
            FsConfig::default(),
        );
        let data = vec![5u8; 256 * 1024];
        fs.write(&mut node, "f", 0, &data, Phase::Write).unwrap();
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        let report = reorganize(&mut node, &mut fs, "f", Phase::Other).unwrap();
        assert_eq!(report.runs_before, 1);
        assert_eq!(report.runs_after, 1);
        let back = fs
            .read(&mut node, "f", 0, data.len() as u64, Phase::Read)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn missing_file_is_an_error() {
        let mut node = Node::new(HardwareSpec::table1());
        let mut fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(1024 * 1024),
            FsConfig::default(),
        );
        assert!(reorganize(&mut node, &mut fs, "ghost", Phase::Other).is_err());
    }
}
