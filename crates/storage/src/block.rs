//! Block devices: real byte storage under the filesystem.
//!
//! A stored block is a [`Block`]: one immutable, shared 4 KiB allocation.
//! Nobody mutates a block once anyone else can see it. The page cache may
//! write into a page only while it holds the page's only handle; write-back
//! hands the device a second handle to the same allocation (a clean page
//! *is* the device block), and a page written by handle shares the caller's
//! allocation. Once shared, a change to the page either replaces the handle
//! (full-block write) or copies it first (partial write) — see
//! `PageCache::write` in `cache`. Devices only ever swap handles.

use std::collections::HashMap;
use std::sync::Arc;

/// Device block (and page-cache page) size in bytes, matching the Linux page
/// size of the paper's testbed.
pub const BLOCK_SIZE: u64 = 4096;

/// The content of one block, shared between whoever currently holds it
/// (page cache, device, a tier of a [`crate::TieredStore`]).
pub type Block = Arc<[u8; BLOCK_SIZE as usize]>;

/// A fresh block holding a copy of the first [`BLOCK_SIZE`] bytes of
/// `data`, zero past its end: one allocation, one copy.
pub fn block_from(data: &[u8]) -> Block {
    if let Ok(whole) = <&[u8; BLOCK_SIZE as usize]>::try_from(data) {
        return Arc::new(*whole);
    }
    let mut bytes = [0; BLOCK_SIZE as usize];
    let n = data.len().min(BLOCK_SIZE as usize);
    bytes[..n].copy_from_slice(&data[..n]);
    Arc::new(bytes)
}

/// A fixed-geometry array of blocks. Devices store *data only*; all timing
/// and power accounting happens in the layers above via the platform's
/// [`DiskModel`](greenness_platform::DiskModel).
pub trait BlockDevice {
    /// Number of addressable blocks.
    fn block_count(&self) -> u64;

    /// The content of block `idx`. Unwritten and discarded blocks read as
    /// zeros.
    fn read_block(&self, idx: u64) -> Block;

    /// Make `block` the content of block `idx`. The device keeps the handle;
    /// it does not copy.
    fn write_block(&mut self, idx: u64, block: Block);

    /// Block `idx` no longer belongs to any file: forget its content (it
    /// reads as zeros until written again) and whatever else is kept per
    /// stored block.
    fn discard_block(&mut self, idx: u64);

    /// Device capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.block_count() * BLOCK_SIZE
    }
}

/// An in-memory, sparse block device: blocks materialize on first write and
/// read back exactly; untouched blocks are zero. This is the device under
/// the pipelines' filesystem — every snapshot byte is really stored.
#[derive(Debug, Clone)]
pub struct MemBlockDevice {
    blocks: HashMap<u64, Block>,
    /// What every unwritten block reads as.
    zero: Block,
    count: u64,
}

impl MemBlockDevice {
    /// A device with `count` blocks.
    pub fn new(count: u64) -> Self {
        MemBlockDevice {
            blocks: HashMap::new(),
            zero: Arc::new([0; BLOCK_SIZE as usize]),
            count,
        }
    }

    /// A device of `bytes` capacity (rounded up to whole blocks).
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(bytes.div_ceil(BLOCK_SIZE))
    }

    fn check(&self, idx: u64) {
        assert!(
            idx < self.count,
            "block {idx} out of range ({})",
            self.count
        );
    }
}

impl BlockDevice for MemBlockDevice {
    fn block_count(&self) -> u64 {
        self.count
    }

    fn read_block(&self, idx: u64) -> Block {
        self.check(idx);
        Arc::clone(self.blocks.get(&idx).unwrap_or(&self.zero))
    }

    fn write_block(&mut self, idx: u64, block: Block) {
        self.check(idx);
        self.blocks.insert(idx, block);
    }

    fn discard_block(&mut self, idx: u64) {
        self.blocks.remove(&idx);
    }
}

/// A data-less device for capacity-scale benchmark jobs (the 4 GiB Table III
/// fio runs): writes are discarded, reads return zeros. Equivalent to fio's
/// raw direct-I/O mode where content is meaningless by construction; the
/// *timing and power* model is exercised identically to [`MemBlockDevice`].
#[derive(Debug, Clone)]
pub struct NullBlockDevice {
    count: u64,
}

impl NullBlockDevice {
    /// A device with `count` blocks.
    pub fn new(count: u64) -> Self {
        NullBlockDevice { count }
    }

    /// A device of `bytes` capacity (rounded up to whole blocks).
    pub fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(bytes.div_ceil(BLOCK_SIZE))
    }
}

impl BlockDevice for NullBlockDevice {
    fn block_count(&self) -> u64 {
        self.count
    }

    fn read_block(&self, idx: u64) -> Block {
        assert!(idx < self.count);
        Arc::new([0; BLOCK_SIZE as usize])
    }

    fn write_block(&mut self, idx: u64, _block: Block) {
        assert!(idx < self.count);
    }

    fn discard_block(&mut self, _idx: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemBlockDevice {
        /// Number of blocks actually materialized (written and not discarded).
        pub(crate) fn materialized_blocks(&self) -> usize {
            self.blocks.len()
        }
    }

    #[test]
    fn mem_device_round_trips_blocks() {
        let mut d = MemBlockDevice::new(16);
        let data = block_from(&[0xab; BLOCK_SIZE as usize]);
        d.write_block(3, Arc::clone(&data));
        assert_eq!(d.read_block(3), data);
        assert_eq!(d.materialized_blocks(), 1);
    }

    #[test]
    fn a_stored_block_is_the_callers_allocation_not_a_copy() {
        let mut d = MemBlockDevice::new(16);
        let data = block_from(&[7; BLOCK_SIZE as usize]);
        d.write_block(3, Arc::clone(&data));
        assert!(Arc::ptr_eq(&d.read_block(3), &data));
        // Unwritten blocks share the device's one zero block.
        assert!(Arc::ptr_eq(&d.read_block(0), &d.read_block(9)));
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = MemBlockDevice::new(16);
        assert!(d.read_block(0).iter().all(|&b| b == 0));
    }

    #[test]
    fn discarded_blocks_read_zero_and_dematerialize() {
        let mut d = MemBlockDevice::new(16);
        d.write_block(5, block_from(&[0xaa; BLOCK_SIZE as usize]));
        d.discard_block(5);
        d.discard_block(6); // never written: a no-op
        assert!(d.read_block(5).iter().all(|&b| b == 0));
        assert_eq!(d.materialized_blocks(), 0);
    }

    #[test]
    fn capacity_rounds_up() {
        let d = MemBlockDevice::with_capacity_bytes(BLOCK_SIZE + 1);
        assert_eq!(d.block_count(), 2);
        assert_eq!(d.capacity_bytes(), 2 * BLOCK_SIZE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let d = MemBlockDevice::new(4);
        d.read_block(4);
    }

    #[test]
    fn a_short_slice_is_zero_filled_and_a_long_one_cut() {
        let short = block_from(&[5; 100]);
        assert!(short[..100].iter().all(|&b| b == 5));
        assert!(short[100..].iter().all(|&b| b == 0));
        let long = block_from(&[6; BLOCK_SIZE as usize + 1]);
        assert!(long.iter().all(|&b| b == 6));
    }

    #[test]
    fn null_device_discards_and_zeros() {
        let mut d = NullBlockDevice::with_capacity_bytes(8 * BLOCK_SIZE);
        d.write_block(1, block_from(&[7; BLOCK_SIZE as usize]));
        assert!(d.read_block(1).iter().all(|&b| b == 0));
    }
}
