//! A Linux-style page cache with dirty-page write-back.
//!
//! Reads allocate pages; writes dirty them; `sync` pushes dirty pages to the
//! device; `drop_caches` evicts *clean* pages (like `echo 3 >
//! /proc/sys/vm/drop_caches`, which skips dirty ones). The paper syncs and
//! drops caches between pipeline phases "to ensure the data does not get
//! cached in memory and is actually written to the disk" (§IV-C) — without
//! that discipline the post-processing read phase would be served from RAM
//! and the whole I/O cost the paper measures would vanish. The
//! `ablate_page_cache` bench demonstrates exactly that.
//!
//! A page holds a [`Block`] handle, not a private buffer. A clean page shares
//! its allocation with the device (a read fault clones the device's handle,
//! write-back hands the device a clone of the page's); a dirty page written
//! by copy is the only holder of its bytes until it is written back, and one
//! written by handle shares the caller's. So the one place a block's bytes
//! change is `PageCache::write`, and only on an allocation nobody
//! else holds.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::block::{block_from, Block, BlockDevice, BLOCK_SIZE};

/// Hit/miss/write-back counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block lookups served from cache.
    pub hits: u64,
    /// Block lookups that went to the device.
    pub misses: u64,
    /// Dirty pages written back by sync.
    pub writebacks: u64,
    /// Pages evicted by `drop_caches` or invalidation.
    pub evictions: u64,
}

#[derive(Debug, Clone)]
struct Page {
    data: Block,
    dirty: bool,
}

/// The page cache. Indexed by device block; page size == block size.
#[derive(Debug, Clone, Default)]
pub struct PageCache {
    pages: HashMap<u64, Page>,
    stats: CacheStats,
}

impl PageCache {
    /// An empty cache.
    pub fn new() -> Self {
        PageCache::default()
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// True if block `idx` is resident.
    pub fn contains(&self, idx: u64) -> bool {
        self.pages.contains_key(&idx)
    }

    /// Read block `idx` through the cache. Returns `(page, was_miss)`; on a
    /// miss the page takes the device's handle and becomes resident.
    pub fn read_block(&mut self, dev: &impl BlockDevice, idx: u64) -> (&Block, bool) {
        match self.pages.entry(idx) {
            Entry::Occupied(e) => {
                self.stats.hits += 1;
                (&e.into_mut().data, false)
            }
            Entry::Vacant(e) => {
                self.stats.misses += 1;
                let page = e.insert(Page {
                    data: dev.read_block(idx),
                    dirty: false,
                });
                (&page.data, true)
            }
        }
    }

    /// Make `block` the content of page `idx`, dirty: the page keeps the
    /// caller's handle and copies nothing. A whole-block write never
    /// faults, so it moves no counter.
    pub(crate) fn put_block(&mut self, idx: u64, block: Block) {
        self.pages.insert(
            idx,
            Page {
                data: block,
                dirty: true,
            },
        );
    }

    /// Write the part of `data` that fits in block `idx` at `offset` within
    /// the block, marking the page dirty. Partial writes to a non-resident
    /// page first fault it in (read-modify-write); returns whether that
    /// fault happened so the caller can charge a device read.
    ///
    /// The bytes land in an allocation only this page holds: a full-block
    /// write into an absent or shared page becomes a fresh block built from
    /// `data`, a partial write into a shared page copies the block first, and
    /// a page that is already the sole holder is written in place.
    pub(crate) fn write(
        &mut self,
        dev: &impl BlockDevice,
        idx: u64,
        offset: usize,
        data: &[u8],
    ) -> bool {
        let offset = offset.min(BLOCK_SIZE as usize);
        let data = &data[..data.len().min(BLOCK_SIZE as usize - offset)];
        let sole = |page: &mut Page| Arc::get_mut(&mut page.data).is_some();
        if data.len() == BLOCK_SIZE as usize && !self.pages.get_mut(&idx).is_some_and(sole) {
            self.put_block(idx, block_from(data));
            return false;
        }
        let mut faulted = false;
        let page = self.pages.entry(idx).or_insert_with(|| {
            // Read-modify-write: must fetch the rest of the block.
            self.stats.misses += 1;
            faulted = true;
            Page {
                data: dev.read_block(idx),
                dirty: false,
            }
        });
        Arc::make_mut(&mut page.data)[offset..offset + data.len()].copy_from_slice(data);
        page.dirty = true;
        faulted
    }

    /// All dirty block indices, sorted (the order write-back visits them).
    pub fn dirty_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|(&i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    /// Dirty blocks among `candidates`, sorted.
    pub fn dirty_among(&self, candidates: &[u64]) -> Vec<u64> {
        let mut v: Vec<u64> = candidates
            .iter()
            .copied()
            .filter(|i| self.pages.get(i).is_some_and(|p| p.dirty))
            .collect();
        v.sort_unstable();
        v
    }

    /// Hand the given dirty blocks to the device and mark them clean: device
    /// and page share the allocation from here on. Blocks that are not
    /// resident or not dirty are skipped.
    pub fn flush_blocks(&mut self, dev: &mut impl BlockDevice, blocks: &[u64]) {
        for &idx in blocks {
            if let Some(page) = self.pages.get_mut(&idx) {
                if page.dirty {
                    dev.write_block(idx, Arc::clone(&page.data));
                    page.dirty = false;
                    self.stats.writebacks += 1;
                }
            }
        }
    }

    /// Evict clean pages (`drop_caches`); dirty pages survive, as on Linux.
    /// Returns the number of pages evicted.
    pub fn drop_caches(&mut self) -> u64 {
        let before = self.pages.len();
        self.pages.retain(|_, p| p.dirty);
        let evicted = (before - self.pages.len()) as u64;
        self.stats.evictions += evicted;
        evicted
    }

    /// Discard every dirty page *without* writing it back — the crash
    /// simulation: whatever was not yet durable is gone, clean pages (which
    /// match the device) survive as if re-read after journal replay.
    /// Returns the number of dirty pages lost.
    pub fn discard_dirty(&mut self) -> u64 {
        let before = self.pages.len();
        self.pages.retain(|_, p| !p.dirty);
        let lost = (before - self.pages.len()) as u64;
        self.stats.evictions += lost;
        lost
    }

    /// Discard the given pages outright, dirty or not — the truncate/delete
    /// path, where the blocks no longer belong to any file and their
    /// contents must not leak into a future owner. Returns the number of
    /// pages discarded.
    pub fn invalidate(&mut self, blocks: &[u64]) -> u64 {
        let mut removed = 0;
        for idx in blocks {
            if self.pages.remove(idx).is_some() {
                removed += 1;
            }
        }
        self.stats.evictions += removed;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;

    impl PageCache {
        /// Write back *all* dirty pages (the `sync` syscall).
        fn sync(&mut self, dev: &mut impl BlockDevice) -> u64 {
            let dirty = self.dirty_blocks();
            let n = dirty.len() as u64;
            self.flush_blocks(dev, &dirty);
            n
        }

        /// Number of resident pages.
        fn resident_pages(&self) -> usize {
            self.pages.len()
        }

        /// True if block `idx` is resident and dirty.
        fn is_dirty(&self, idx: u64) -> bool {
            self.pages.get(&idx).is_some_and(|p| p.dirty)
        }
    }

    fn filled(b: u8) -> Vec<u8> {
        vec![b; BLOCK_SIZE as usize]
    }

    #[test]
    fn read_miss_then_hit() {
        let dev = MemBlockDevice::new(8);
        let mut c = PageCache::new();
        let (_, miss1) = c.read_block(&dev, 2);
        let (_, miss2) = c.read_block(&dev, 2);
        assert!(miss1);
        assert!(!miss2);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                writebacks: 0,
                evictions: 0
            }
        );
    }

    #[test]
    fn writes_are_cached_until_sync() {
        let mut dev = MemBlockDevice::new(8);
        let mut c = PageCache::new();
        c.write(&dev, 1, 0, &filled(0x5a));
        // Device still sees zeros.
        assert!(dev.read_block(1).iter().all(|&b| b == 0));
        assert!(c.is_dirty(1));
        // Sync pushes it through.
        assert_eq!(c.sync(&mut dev), 1);
        assert!(dev.read_block(1).iter().all(|&b| b == 0x5a));
        assert!(!c.is_dirty(1));
    }

    #[test]
    fn partial_write_faults_the_block_in() {
        let mut dev = MemBlockDevice::new(8);
        dev.write_block(0, block_from(&filled(0x11)));
        let mut c = PageCache::new();
        let faulted = c.write(&dev, 0, 100, &[0xff; 8]);
        assert!(faulted, "partial write to cold page must read-modify-write");
        c.sync(&mut dev);
        let buf = dev.read_block(0);
        assert_eq!(&buf[100..108], &[0xff; 8]);
        assert_eq!(buf[0], 0x11, "untouched bytes preserved");
    }

    #[test]
    fn full_block_write_does_not_fault() {
        let dev = MemBlockDevice::new(8);
        let mut c = PageCache::new();
        let faulted = c.write(&dev, 0, 0, &filled(1));
        assert!(!faulted);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn a_clean_page_is_the_device_block_and_writes_never_reach_it_early() {
        let mut dev = MemBlockDevice::new(8);
        let mut c = PageCache::new();
        c.write(&dev, 0, 0, &filled(1));
        c.sync(&mut dev);
        let durable = dev.read_block(0);
        let (page, miss) = c.read_block(&dev, 0);
        assert!(!miss);
        assert_eq!(page.as_ptr(), durable.as_ptr(), "write-back shares");
        // A partial write copies first; a full write replaces the handle.
        // Neither may show through the handle the device holds.
        c.write(&dev, 0, 10, &[9; 4]);
        assert!(durable.iter().all(|&b| b == 1));
        c.write(&dev, 0, 0, &filled(2));
        assert!(dev.read_block(0).iter().all(|&b| b == 1));
        // A dirty page is its bytes' only holder and is written in place.
        let before = c.read_block(&dev, 0).0.as_ptr();
        c.write(&dev, 0, 0, &filled(3));
        assert_eq!(c.read_block(&dev, 0).0.as_ptr(), before);
        // A read fault takes the device's handle instead of copying it.
        c.discard_dirty();
        let (page, miss) = c.read_block(&dev, 0);
        assert!(miss);
        assert_eq!(page.as_ptr(), durable.as_ptr());
    }

    #[test]
    fn oversized_write_is_clipped_at_the_block_end() {
        let mut dev = MemBlockDevice::new(8);
        let mut c = PageCache::new();
        assert!(c.write(&dev, 0, 100, &filled(0x77)), "a partial write");
        // An offset past the block end writes nothing, and does not panic.
        c.write(&dev, 2, BLOCK_SIZE as usize + 5, &[0x77; 4]);
        c.sync(&mut dev);
        let buf = dev.read_block(0);
        assert!(buf[..100].iter().all(|&b| b == 0), "bytes before kept");
        assert!(buf[100..].iter().all(|&b| b == 0x77), "filled to the end");
        for idx in [1, 2] {
            assert!(dev.read_block(idx).iter().all(|&b| b == 0), "block {idx}");
        }
        assert!(!c.contains(1), "nothing spills into the next block");
    }

    #[test]
    fn invalidate_counts_only_resident_pages() {
        let dev = MemBlockDevice::new(8);
        let mut c = PageCache::new();
        c.read_block(&dev, 1);
        c.write(&dev, 2, 0, &filled(9));
        assert_eq!(c.invalidate(&[1, 2, 6]), 2);
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn drop_caches_keeps_dirty_pages() {
        let mut dev = MemBlockDevice::new(8);
        let mut c = PageCache::new();
        c.read_block(&dev, 0);
        c.write(&dev, 1, 0, &filled(2));
        assert_eq!(c.drop_caches(), 1);
        assert!(!c.contains(0), "clean page must be evicted");
        assert!(c.contains(1), "dirty page must survive");
        // After sync + drop, everything is gone.
        c.sync(&mut dev);
        assert_eq!(c.drop_caches(), 1);
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn dirty_tracking_and_selective_flush() {
        let mut dev = MemBlockDevice::new(8);
        let mut c = PageCache::new();
        for i in [5u64, 1, 3] {
            c.write(&dev, i, 0, &filled(i as u8));
        }
        assert_eq!(c.dirty_blocks(), vec![1, 3, 5]);
        assert_eq!(c.dirty_among(&[3, 4, 5]), vec![3, 5]);
        c.flush_blocks(&mut dev, &[3]);
        assert_eq!(c.dirty_blocks(), vec![1, 5]);
        assert_eq!(c.stats().writebacks, 1);
    }
}
