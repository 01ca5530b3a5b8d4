//! An NVRAM burst buffer in front of the disk — the deep-memory-hierarchy
//! organization of Gamell et al. (the paper's ref [26]).
//!
//! Writes land in a fast byte-addressable tier at NVRAM speed with no
//! journal barriers; a drain pass later streams the staged files to the
//! backing filesystem as large *sequential* writes. For the paper's
//! fsync-every-chunk workload this converts ~90 ms of positioning per
//! 128 KiB chunk into one streaming pass — the mechanism that lets a
//! post-processing pipeline keep its raw data while approaching in-situ
//! energy (see `Variant::BurstBufferPost` in `greenness-core`).
//!
//! Data honesty: staged bytes are held verbatim and written through the
//! real filesystem at drain, so read-back verification still covers the
//! whole path.

use greenness_platform::disk::{DiskModel, IoDir};
use greenness_platform::{AccessPattern, Node, Phase};

use crate::fs::{CostedDevice, FileSystem, FsError};

/// The staging tier: a capacity-bounded NVRAM region holding whole files
/// until they are drained to the backing store.
#[derive(Debug)]
pub struct BurstBuffer {
    tier: DiskModel,
    capacity_bytes: u64,
    staged: Vec<(String, Vec<u8>)>,
    staged_bytes: u64,
    drained_bytes: u64,
}

impl BurstBuffer {
    /// A burst buffer of `capacity_bytes` backed by the NVRAM device model.
    pub fn new(capacity_bytes: u64) -> BurstBuffer {
        BurstBuffer {
            tier: DiskModel::nvram_256gb(),
            capacity_bytes,
            staged: Vec::new(),
            staged_bytes: 0,
            drained_bytes: 0,
        }
    }

    /// Bytes drained to the backing store so far.
    pub fn drained_bytes(&self) -> u64 {
        self.drained_bytes
    }

    /// Charge `node` for an NVRAM-tier transfer: the node's disk stays
    /// idle; the tier's dynamic power rides on the disk channel (it is
    /// storage hardware).
    fn charge_tier(&self, node: &mut Node, bytes: u64, dir: IoDir, phase: Phase) {
        let cost = self.tier.transfer(bytes, dir, AccessPattern::Sequential);
        let mut draw = node.idle_draw();
        draw.disk_w += self.tier.idle_w + cost.dyn_w;
        // Staging also costs a memory copy.
        draw.dram_w += 0.5;
        node.execute_raw(cost.seconds, draw, phase);
    }

    /// Stage a whole file (append not supported — pipelines stage complete
    /// snapshots). If the new file would overflow the buffer, the oldest
    /// staged files are force-drained to `fs` first (a blocking partial
    /// drain, as real burst buffers do under pressure).
    pub fn stage<D: CostedDevice>(
        &mut self,
        node: &mut Node,
        fs: &mut FileSystem<D>,
        name: &str,
        data: &[u8],
        phase: Phase,
    ) -> Result<(), FsError> {
        assert!(
            data.len() as u64 <= self.capacity_bytes,
            "file larger than the burst buffer"
        );
        while self.staged_bytes + data.len() as u64 > self.capacity_bytes {
            self.drain_one(node, fs, phase)?;
        }
        self.charge_tier(node, data.len() as u64, IoDir::Write, phase);
        self.staged.push((name.to_string(), data.to_vec()));
        self.staged_bytes += data.len() as u64;
        Ok(())
    }

    /// Drain the oldest staged file into the backing filesystem as one
    /// sequential write + fsync.
    fn drain_one<D: CostedDevice>(
        &mut self,
        node: &mut Node,
        fs: &mut FileSystem<D>,
        phase: Phase,
    ) -> Result<(), FsError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let (name, data) = self.staged.remove(0);
        self.staged_bytes -= data.len() as u64;
        // Read back out of the tier...
        self.charge_tier(node, data.len() as u64, IoDir::Read, phase);
        // ...and stream it to the disk in one piece.
        fs.write(node, &name, 0, &data, phase)?;
        fs.fsync(node, &name, phase)?;
        self.drained_bytes += data.len() as u64;
        Ok(())
    }

    /// Drain everything (the end-of-phase flush).
    pub fn drain_all<D: CostedDevice>(
        &mut self,
        node: &mut Node,
        fs: &mut FileSystem<D>,
        phase: Phase,
    ) -> Result<(), FsError> {
        while !self.staged.is_empty() {
            self.drain_one(node, fs, phase)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;
    use crate::fs::FsConfig;
    use greenness_platform::HardwareSpec;

    impl BurstBuffer {
        /// Bytes currently staged.
        fn staged_bytes(&self) -> u64 {
            self.staged_bytes
        }
    }

    fn setup(buffer_bytes: u64) -> (Node, FileSystem<MemBlockDevice>, BurstBuffer) {
        (
            Node::new(HardwareSpec::table1()),
            FileSystem::format(
                MemBlockDevice::with_capacity_bytes(256 * 1024 * 1024),
                FsConfig::default(),
            ),
            BurstBuffer::new(buffer_bytes),
        )
    }

    #[test]
    fn staging_is_far_cheaper_than_chunked_fsync() {
        let (mut node, mut fs, mut bb) = setup(64 * 1024 * 1024);
        let data = vec![3u8; 2 * 1024 * 1024];
        // Staged write.
        let t0 = node.now();
        bb.stage(&mut node, &mut fs, "snap", &data, Phase::Write)
            .unwrap();
        let staged_cost = (node.now() - t0).as_secs_f64();
        // Direct chunked-fsync write of the same data.
        let t1 = node.now();
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + 128 * 1024).min(data.len());
            fs.write(
                &mut node,
                "direct",
                off as u64,
                &data[off..end],
                Phase::Write,
            )
            .unwrap();
            fs.fsync(&mut node, "direct", Phase::Write).unwrap();
            off = end;
        }
        let direct_cost = (node.now() - t1).as_secs_f64();
        assert!(
            staged_cost < direct_cost / 50.0,
            "staged {staged_cost}s vs direct {direct_cost}s"
        );
    }

    #[test]
    fn drain_preserves_bytes_through_the_real_fs() {
        let (mut node, mut fs, mut bb) = setup(64 * 1024 * 1024);
        let data: Vec<u8> = (0..500_000).map(|i| (i % 249) as u8).collect();
        bb.stage(&mut node, &mut fs, "snap", &data, Phase::Write)
            .unwrap();
        bb.drain_all(&mut node, &mut fs, Phase::Write).unwrap();
        assert_eq!(bb.staged_bytes(), 0);
        assert_eq!(bb.drained_bytes(), data.len() as u64);
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        let back = fs
            .read(&mut node, "snap", 0, data.len() as u64, Phase::Read)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn drained_files_are_contiguous_and_read_sequentially() {
        let (mut node, mut fs, mut bb) = setup(64 * 1024 * 1024);
        let data = vec![7u8; 2 * 1024 * 1024];
        bb.stage(&mut node, &mut fs, "snap", &data, Phase::Write)
            .unwrap();
        bb.drain_all(&mut node, &mut fs, Phase::Write).unwrap();
        assert_eq!(fs.fragmentation("snap").unwrap(), 1);
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        let t0 = node.now();
        fs.read(&mut node, "snap", 0, data.len() as u64, Phase::Read)
            .unwrap();
        let cold_read = (node.now() - t0).as_secs_f64();
        // One big sequential read: tens of milliseconds, not the ~1.3 s of
        // sixteen cold chunk reads.
        assert!(cold_read < 0.1, "cold read took {cold_read}s");
    }

    #[test]
    fn capacity_pressure_forces_partial_drains() {
        let (mut node, mut fs, mut bb) = setup(3 * 1024 * 1024);
        let snap = vec![1u8; 1024 * 1024];
        for k in 0..5 {
            bb.stage(&mut node, &mut fs, &format!("s{k}"), &snap, Phase::Write)
                .unwrap();
        }
        assert!(bb.staged_bytes() <= 3 * 1024 * 1024);
        assert!(
            bb.drained_bytes() >= 2 * 1024 * 1024,
            "pressure never drained"
        );
        // Everything is still readable: drained from fs, resident from tier.
        bb.drain_all(&mut node, &mut fs, Phase::Write).unwrap();
        for k in 0..5 {
            let back = fs
                .read(
                    &mut node,
                    &format!("s{k}"),
                    0,
                    snap.len() as u64,
                    Phase::Read,
                )
                .unwrap();
            assert_eq!(back, snap);
        }
    }

    #[test]
    #[should_panic(expected = "larger than the burst buffer")]
    fn oversized_files_are_rejected() {
        let (mut node, mut fs, mut bb) = setup(1024);
        let _ = bb.stage(&mut node, &mut fs, "big", &[0u8; 4096], Phase::Write);
    }
}
