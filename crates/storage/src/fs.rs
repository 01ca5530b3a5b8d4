//! A small extent-based filesystem over a block device.
//!
//! Provides exactly what the paper's pipelines need from ext3-on-HDD:
//! named files, buffered reads/writes through the page cache, `fsync` with
//! journal-commit barriers, whole-filesystem `sync`, and `drop_caches`. The
//! extent allocator supports a deliberately *scattered* mode so experiments
//! can create fragmented files — the precondition of the §V-D data-
//! reorganization analysis (a fragmented file forces random device I/O; the
//! reorganization pass in [`crate::reorg`] restores sequential layout).
//!
//! Every device transfer is charged to the node with an access pattern
//! derived from the actual on-device layout of the touched blocks, so the
//! filesystem — not the caller — decides whether an operation is sequential,
//! chunked-cold, or random. Calibration (DESIGN.md §4): a cold 128 KiB chunk
//! read costs ≈84 ms (read-ahead window per rotation) and a 128 KiB chunk
//! write + fsync ≈90 ms (one stream + journal seeks), reproducing the paper's
//! Figure 4 time split.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use greenness_faults::{FaultInjector, Rng};
use greenness_platform::disk::IoDir;
use greenness_platform::{AccessPattern, Activity, Node, Phase};
use greenness_trace::Value;

use crate::block::{block_from, Block, BlockDevice, MemBlockDevice, NullBlockDevice, BLOCK_SIZE};
use crate::cache::{CacheStats, PageCache};
use crate::free::FreeRuns;

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No file with that name.
    NotFound(String),
    /// The device has no free extent large enough.
    NoSpace,
    /// Read offset past end of file.
    BadOffset {
        /// Requested offset.
        offset: u64,
        /// Current file size.
        size: u64,
    },
    /// A transient device or journal error (injected by the fault layer).
    /// The operation may be retried: pages not yet durable are still dirty
    /// in the cache, so a successful retry commits the remainder.
    TransientIo {
        /// The operation that faulted (e.g. `"fsync"`).
        op: &'static str,
        /// Pages made durable before the fault hit (a *torn* writeback
        /// persisted a prefix; a clean transient error persisted none).
        flushed_pages: u64,
    },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(n) => write!(f, "no such file: {n}"),
            FsError::NoSpace => write!(f, "device full"),
            FsError::BadOffset { offset, size } => {
                write!(f, "offset {offset} beyond end of file ({size})")
            }
            FsError::TransientIo { op, flushed_pages } => {
                write!(
                    f,
                    "transient I/O error during {op} ({flushed_pages} pages durable)"
                )
            }
        }
    }
}

impl std::error::Error for FsError {}

/// How the allocator places new blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum AllocMode {
    /// First-fit contiguous extents (fresh-filesystem behavior).
    #[default]
    Contiguous,
    /// Deterministically scattered single-block extents — creates the
    /// fragmented layouts of the §V-D study.
    Scattered {
        /// RNG seed; same seed ⇒ same layout.
        seed: u64,
    },
}

/// Filesystem configuration. The layout model itself is fixed: the
/// ext3-on-HDD calibration of DESIGN.md §4 in the constants below.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FsConfig {
    /// Block placement policy.
    pub alloc_mode: AllocMode,
}

/// Read-ahead window for cold, small buffered reads, bytes.
const READAHEAD_BYTES: u64 = 8 * 1024;

/// Reads at least this large on a contiguous extent stream at full rate.
const SEQUENTIAL_THRESHOLD: u64 = 1024 * 1024;

/// Positioning operations charged per fsync (data + inode + journal
/// descriptor + commit + directory + superblock on ext3-like journals).
pub(crate) const JOURNAL_SEEKS_PER_FSYNC: u32 = 6;

/// Queue depth the kernel keeps against the device for scattered buffered
/// reads. A single-threaded buffered reader drives the disk synchronously
/// (depth 1); only explicit async engines (fio's libaio) sustain deep
/// queues.
const QUEUE_DEPTH: u32 = 1;

/// A block device that also knows how to charge a [`Node`] for its own
/// transfers. The filesystem computes *which* blocks move and in what file
/// order; the device decides what that layout costs on its medium.
///
/// The provided methods are the flat single-medium path ([`MemBlockDevice`],
/// [`NullBlockDevice`]): they charge the node's own `spec.disk` through
/// [`Activity`], exactly as the filesystem did before this trait existed —
/// byte-identical timelines and journals. A [`crate::TieredStore`] instead
/// splits the transfer across its tiers and prices each slice with that
/// tier's [`DiskModel`] (`greenness_platform::disk::DiskModel`).
pub trait CostedDevice: BlockDevice {
    /// Charge `node` for moving `blocks` (device block indices, file order)
    /// in direction `dir`. Called *before* the data actually moves through
    /// [`BlockDevice::read_block`]/[`BlockDevice::write_block`]. The flat
    /// path bumps the seek counter, then runs one buffered disk activity.
    fn charge_transfer(&mut self, node: &mut Node, blocks: &[u64], dir: IoDir, phase: Phase) {
        if blocks.is_empty() {
            return;
        }
        let bytes = blocks.len() as u64 * BLOCK_SIZE;
        let runs = count_runs(blocks);
        // Each discontinuity between runs costs the head one repositioning.
        node.tracer()
            .count("disk.seeks", runs.saturating_sub(1) as u64);
        let pattern = layout_pattern(runs, bytes, dir);
        let activity = match dir {
            IoDir::Read => Activity::DiskRead {
                bytes,
                pattern,
                buffered: true,
            },
            IoDir::Write => Activity::DiskWrite {
                bytes,
                pattern,
                buffered: true,
            },
        };
        node.execute(activity, phase);
    }

    /// Charge `node` for a journal-commit barrier of `seeks` positioning
    /// operations covering `blocks` (empty on a metadata-only commit).
    fn charge_barrier(&mut self, node: &mut Node, seeks: u32, _blocks: &[u64], phase: Phase) {
        node.execute(Activity::DiskBarrier { seeks }, phase);
    }
}

/// The layout-derived access pattern shared by every costed device: one run
/// is a stream (or a read-ahead-window chunk walk when small); multiple runs
/// degrade to chunked or random I/O by average run length. Reads keep the
/// historical single-run asymmetry (small single-run reads pay the
/// read-ahead window; single-run writes always stream).
pub(crate) fn layout_pattern(runs: usize, bytes: u64, dir: IoDir) -> AccessPattern {
    if runs <= 1 {
        return match dir {
            IoDir::Read if bytes < SEQUENTIAL_THRESHOLD => AccessPattern::Chunked {
                op_bytes: READAHEAD_BYTES,
            },
            _ => AccessPattern::Sequential,
        };
    }
    let avg_run = bytes / runs as u64;
    if dir == IoDir::Read && avg_run >= SEQUENTIAL_THRESHOLD {
        AccessPattern::Sequential
    } else if avg_run > READAHEAD_BYTES {
        AccessPattern::Chunked { op_bytes: avg_run }
    } else {
        AccessPattern::Random {
            op_bytes: avg_run.max(BLOCK_SIZE),
            queue_depth: QUEUE_DEPTH,
        }
    }
}

impl CostedDevice for MemBlockDevice {}

impl CostedDevice for NullBlockDevice {}

/// What one file block of a write receives: a whole block by handle, or
/// bytes to copy into it.
enum Piece<'d> {
    Whole(Block),
    Bytes(&'d [u8]),
}

/// A contiguous run of device blocks owned by one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First device block.
    pub start: u64,
    /// Number of blocks.
    pub len: u64,
}

#[derive(Debug, Clone, Default)]
struct Inode {
    extents: Vec<Extent>,
    size: u64,
}

impl Inode {
    fn blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Device block holding file block `fb`; `None` beyond the allocation.
    fn map_block(&self, fb: u64) -> Option<u64> {
        let mut remaining = fb;
        for e in &self.extents {
            if remaining < e.len {
                return Some(e.start + remaining);
            }
            remaining -= e.len;
        }
        None
    }

    /// Device blocks holding file blocks `first..=last`, file order.
    fn map_range(&self, first: u64, last: u64) -> Option<Vec<u64>> {
        (first..=last).map(|fb| self.map_block(fb)).collect()
    }

    /// All device blocks in file order.
    fn device_blocks(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.blocks() as usize);
        for e in &self.extents {
            v.extend(e.start..e.start + e.len);
        }
        v
    }
}

/// The filesystem: allocator + page cache + inode table over a device.
#[derive(Debug)]
pub struct FileSystem<D: CostedDevice> {
    dev: D,
    cache: PageCache,
    files: HashMap<String, Inode>,
    free: FreeRuns,
    alloc_mode: AllocMode,
    rng: Rng,
    /// Cache counters already published to a tracer (see
    /// [`Self::publish_cache_counters`]).
    published: CacheStats,
    /// Seeded fsync fault schedule; `None` (the default) is the fault-free
    /// fast path and leaves every cost and output untouched.
    faults: Option<FaultInjector>,
}

impl<D: CostedDevice> FileSystem<D> {
    /// Format `dev` with an empty filesystem.
    pub fn format(dev: D, config: FsConfig) -> Self {
        let free = FreeRuns::new(dev.block_count());
        let seed = match config.alloc_mode {
            AllocMode::Scattered { seed } => seed,
            AllocMode::Contiguous => 0,
        };
        FileSystem {
            dev,
            cache: PageCache::new(),
            files: HashMap::new(),
            free,
            alloc_mode: config.alloc_mode,
            rng: Rng::seeded(seed),
            published: CacheStats::default(),
            faults: None,
        }
    }

    /// Install (or clear) a seeded fsync fault schedule. Each
    /// [`Self::fsync`] consumes one slot of the schedule; a firing slot
    /// turns the commit into a transient error or a torn writeback.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// Switch allocation mode for subsequently written blocks.
    pub fn set_alloc_mode(&mut self, mode: AllocMode) {
        self.alloc_mode = mode;
        if let AllocMode::Scattered { seed } = mode {
            self.rng = Rng::seeded(seed);
        }
    }

    /// Page-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Push page-cache counter deltas since the last publish into `node`'s
    /// tracer (`cache.hits`, `cache.misses`, `cache.flushed_pages`,
    /// `cache.evictions`). Called by every charged filesystem operation;
    /// callers that evict without a node in hand (e.g. [`Self::drop_caches`])
    /// should call this afterwards so the eviction delta is not stranded.
    pub fn publish_cache_counters(&mut self, node: &Node) {
        let tracer = node.tracer();
        if !tracer.is_on() {
            return;
        }
        let now = self.cache.stats();
        tracer.count("cache.hits", now.hits - self.published.hits);
        tracer.count("cache.misses", now.misses - self.published.misses);
        tracer.count(
            "cache.flushed_pages",
            now.writebacks - self.published.writebacks,
        );
        tracer.count("cache.evictions", now.evictions - self.published.evictions);
        self.published = now;
    }

    /// True if `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Size of `name` in bytes.
    pub fn size(&self, name: &str) -> Result<u64, FsError> {
        self.files
            .get(name)
            .map(|i| i.size)
            .ok_or_else(|| FsError::NotFound(name.into()))
    }

    /// Number of contiguous device runs backing `name` (1 = perfectly
    /// sequential layout).
    pub fn fragmentation(&self, name: &str) -> Result<usize, FsError> {
        let inode = self
            .files
            .get(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        Ok(count_runs(&inode.device_blocks()))
    }

    /// File names, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.files.keys().cloned().collect();
        v.sort();
        v
    }

    /// Free blocks remaining.
    fn free_blocks(&self) -> u64 {
        self.free.blocks()
    }

    fn alloc(&mut self, blocks: u64) -> Result<Vec<Extent>, FsError> {
        if blocks == 0 {
            return Ok(Vec::new());
        }
        if self.free_blocks() < blocks {
            return Err(FsError::NoSpace);
        }
        match self.alloc_mode {
            AllocMode::Contiguous => self.alloc_contiguous(blocks),
            AllocMode::Scattered { .. } => self.alloc_scattered(blocks),
        }
    }

    fn alloc_contiguous(&mut self, mut blocks: u64) -> Result<Vec<Extent>, FsError> {
        // First-fit over free runs; spill across runs if no single run fits.
        let mut got = Vec::new();
        while blocks > 0 {
            let (start, len) = self.free.first_fit(blocks).ok_or(FsError::NoSpace)?;
            let take = len.min(blocks);
            self.free.take(start, start, take).ok_or(FsError::NoSpace)?;
            got.push(Extent { start, len: take });
            blocks -= take;
        }
        Ok(got)
    }

    fn alloc_scattered(&mut self, blocks: u64) -> Result<Vec<Extent>, FsError> {
        let mut got = Vec::with_capacity(blocks as usize);
        for _ in 0..blocks {
            let runs = self.free.run_count();
            if runs == 0 {
                return Err(FsError::NoSpace);
            }
            let (run_start, run_len) = self
                .free
                .nth_run(self.rng.below(runs as u64) as usize)
                .ok_or(FsError::NoSpace)?;
            let pick = run_start + self.rng.below(run_len);
            self.free.take(run_start, pick, 1).ok_or(FsError::NoSpace)?;
            got.push(Extent {
                start: pick,
                len: 1,
            });
        }
        Ok(got)
    }

    /// Return `extents` to the allocator and tell the device their blocks
    /// hold nothing any more, so it can drop the bytes (and a tiered store
    /// the mapping, the tier slot and the access score).
    fn free_extents(&mut self, extents: &[Extent]) {
        for e in extents {
            self.free.release(e.start, e.len);
            for b in e.start..e.start + e.len {
                self.dev.discard_block(b);
            }
        }
    }

    /// Write `data` at `offset` into `name` (creating or extending the file),
    /// buffered: data lands in the page cache and is charged as memory
    /// traffic; the device is touched only by read-modify-write faults here,
    /// and by [`Self::fsync`]/[`Self::sync`] later.
    pub fn write(
        &mut self,
        node: &mut Node,
        name: &str,
        offset: u64,
        data: &[u8],
        phase: Phase,
    ) -> Result<(), FsError> {
        self.write_with(node, name, offset, data.len() as u64, phase, |at, len| {
            Piece::Bytes(&data[(at - offset) as usize..][..len])
        })
    }

    /// Write bytes `range` of `blocks`, laid end to end, at the same offsets
    /// of `name`: [`Self::write`] of those bytes, charged the same, except
    /// that each block the range covers whole becomes a page by handle —
    /// the cache shares the caller's allocation and copies nothing.
    ///
    /// # Errors
    /// [`FsError::BadOffset`] when `range` runs past the end of `blocks`;
    /// otherwise as [`Self::write`].
    pub fn write_blocks(
        &mut self,
        node: &mut Node,
        name: &str,
        blocks: &[Block],
        range: Range<u64>,
        phase: Phase,
    ) -> Result<(), FsError> {
        let held = blocks.len() as u64 * BLOCK_SIZE;
        if range.start > range.end || range.end > held {
            return Err(FsError::BadOffset {
                offset: range.end,
                size: held,
            });
        }
        let len = range.end - range.start;
        self.write_with(node, name, range.start, len, phase, |at, len| {
            let block = &blocks[(at / BLOCK_SIZE) as usize];
            if len == BLOCK_SIZE as usize {
                Piece::Whole(Arc::clone(block))
            } else {
                Piece::Bytes(&block[(at % BLOCK_SIZE) as usize..][..len])
            }
        })
    }

    /// The one write loop: `len` bytes at `offset` into `name`, the bytes
    /// for the file range `at..at + n` (never crossing a block) coming from
    /// `piece(at, n)`.
    fn write_with<'d>(
        &mut self,
        node: &mut Node,
        name: &str,
        offset: u64,
        len: u64,
        phase: Phase,
        piece: impl Fn(u64, usize) -> Piece<'d>,
    ) -> Result<(), FsError> {
        if len == 0 {
            self.files.entry(name.to_string()).or_default();
            return Ok(());
        }
        // No device can hold a file that ends past `u64::MAX`.
        let end = offset.checked_add(len).ok_or(FsError::NoSpace)?;
        let needed_blocks = end.div_ceil(BLOCK_SIZE);
        let have_blocks = self.files.get(name).map_or(0, Inode::blocks);
        if needed_blocks > have_blocks {
            let new = self.alloc(needed_blocks - have_blocks)?;
            // Newly allocated blocks may hold a previous owner's bytes on the
            // device; POSIX holes must read zero, so materialize them as
            // zeroed dirty pages (they reach the device at the next sync).
            // A block this call overwrites whole needs no zeros first; a
            // partly covered one does, or the data write below would fault it
            // in from the device — a cache miss and a charged device read the
            // zero-filled page never pays.
            let whole = offset.div_ceil(BLOCK_SIZE)..end / BLOCK_SIZE;
            let mut zeros = None;
            let mut fb = have_blocks;
            for e in &new {
                for b in e.start..e.start + e.len {
                    if !whole.contains(&fb) {
                        let zero = zeros.get_or_insert_with(|| block_from(&[]));
                        self.cache.put_block(b, Arc::clone(zero));
                    }
                    fb += 1;
                }
            }
            let inode = self.files.entry(name.to_string()).or_default();
            inode.extents.extend(new);
        }
        let inode = self
            .files
            .get_mut(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let dev_blocks = inode
            .map_range(offset / BLOCK_SIZE, (end - 1) / BLOCK_SIZE)
            .ok_or(FsError::NoSpace)?;
        inode.size = inode.size.max(end);
        // Hand each block its piece, collecting RMW faults.
        let mut faults = Vec::new();
        let mut at = offset;
        for dev_block in dev_blocks {
            let in_block = (at % BLOCK_SIZE) as usize;
            let take = (BLOCK_SIZE as usize - in_block).min((end - at) as usize);
            match piece(at, take) {
                Piece::Whole(block) => self.cache.put_block(dev_block, block),
                Piece::Bytes(bytes) => {
                    if self.cache.write(&self.dev, dev_block, in_block, bytes) {
                        faults.push(dev_block);
                    }
                }
            }
            at += take as u64;
        }
        self.dev.charge_transfer(node, &faults, IoDir::Read, phase);
        node.execute(Activity::MemTraffic { bytes: len }, phase);
        self.publish_cache_counters(node);
        Ok(())
    }

    /// Append `data` to `name`.
    pub fn append(
        &mut self,
        node: &mut Node,
        name: &str,
        data: &[u8],
        phase: Phase,
    ) -> Result<(), FsError> {
        let offset = self.files.get(name).map_or(0, |i| i.size);
        self.write(node, name, offset, data, phase)
    }

    /// Read `len` bytes at `offset` from `name`. Cold blocks are charged to
    /// the device with a layout-derived pattern; the returned bytes are the
    /// real stored data.
    pub fn read(
        &mut self,
        node: &mut Node,
        name: &str,
        offset: u64,
        len: u64,
        phase: Phase,
    ) -> Result<Vec<u8>, FsError> {
        let size = self.files.get(name).map_or(0, |i| i.size);
        let mut out = Vec::with_capacity(len.min(size.saturating_sub(offset)) as usize);
        self.read_with(node, name, offset, len, phase, |page, at, take| {
            out.extend_from_slice(&page[at..at + take]);
        })?;
        Ok(out)
    }

    /// [`Self::read`] charged the same, appending to `out` the handle of
    /// each block the read touches instead of copying bytes out of them.
    /// Returns the number of bytes read.
    pub fn read_blocks(
        &mut self,
        node: &mut Node,
        name: &str,
        offset: u64,
        len: u64,
        phase: Phase,
        out: &mut Vec<Block>,
    ) -> Result<u64, FsError> {
        self.read_with(node, name, offset, len, phase, |page, _, _| {
            out.push(Arc::clone(page));
        })
    }

    /// The one read loop: charge a read of `len` bytes at `offset`, then
    /// hand `visit` each block's page with the offset and length of the
    /// bytes read from it.
    fn read_with(
        &mut self,
        node: &mut Node,
        name: &str,
        offset: u64,
        len: u64,
        phase: Phase,
        mut visit: impl FnMut(&Block, usize, usize),
    ) -> Result<u64, FsError> {
        let inode = self
            .files
            .get(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        if offset > inode.size {
            return Err(FsError::BadOffset {
                offset,
                size: inode.size,
            });
        }
        let len = len.min(inode.size - offset);
        if len == 0 {
            return Ok(0);
        }
        let dev_blocks = inode
            .map_range(offset / BLOCK_SIZE, (offset + len - 1) / BLOCK_SIZE)
            .ok_or(FsError::BadOffset {
                offset,
                size: inode.size,
            })?;
        let misses: Vec<u64> = dev_blocks
            .iter()
            .copied()
            .filter(|b| !self.cache.contains(*b))
            .collect();
        self.dev.charge_transfer(node, &misses, IoDir::Read, phase);
        // Serve the bytes through the cache.
        let mut remaining = len as usize;
        let mut in_block = (offset % BLOCK_SIZE) as usize;
        for dev_block in dev_blocks {
            let take = (BLOCK_SIZE as usize - in_block).min(remaining);
            let (page, _) = self.cache.read_block(&self.dev, dev_block);
            visit(page, in_block, take);
            remaining -= take;
            in_block = 0;
        }
        node.execute(Activity::MemTraffic { bytes: len }, phase);
        self.publish_cache_counters(node);
        Ok(len)
    }

    /// Flush `name`'s dirty pages durably: write-back charged by layout plus
    /// the journal-commit barrier (the dominant cost for small chunks on a
    /// 7200 rpm disk).
    pub fn fsync(&mut self, node: &mut Node, name: &str, phase: Phase) -> Result<(), FsError> {
        let inode = self
            .files
            .get(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let file_blocks = inode.device_blocks();
        let dirty = self.cache.dirty_among(&file_blocks);
        if let Some(entropy) = self.faults.as_mut().and_then(FaultInjector::next) {
            return Err(self.faulted_fsync(node, &dirty, entropy, phase));
        }
        self.write_back(node, &dirty, phase);
        Ok(())
    }

    /// Make `blocks` durable: their writeback charged by layout, the
    /// journal-commit barrier, then the flush of their pages to the device.
    fn commit(&mut self, node: &mut Node, blocks: &[u64], phase: Phase) {
        self.dev.charge_transfer(node, blocks, IoDir::Write, phase);
        self.dev
            .charge_barrier(node, JOURNAL_SEEKS_PER_FSYNC, blocks, phase);
        self.cache.flush_blocks(&mut self.dev, blocks);
    }

    /// A clean [`Self::commit`] of `dirty`: traced as a `cache.writeback`
    /// instant, with the cache counters published.
    fn write_back(&mut self, node: &mut Node, dirty: &[u64], phase: Phase) {
        self.commit(node, dirty, phase);
        if node.tracer().is_on() {
            node.tracer().instant(
                node.now().as_nanos(),
                "cache.writeback",
                vec![("pages", Value::from(dirty.len()))],
            );
        }
        self.publish_cache_counters(node);
    }

    /// An injected fsync fault: a *torn* writeback (entropy bit 0 set)
    /// persists a prefix of the dirty pages before the journal commit
    /// fails; a clean transient error persists none. Either way the
    /// non-durable pages stay dirty in the cache, so a retry commits the
    /// remainder — exactly the contract journal replay gives a real ext3.
    fn faulted_fsync(
        &mut self,
        node: &mut Node,
        dirty: &[u64],
        entropy: u64,
        phase: Phase,
    ) -> FsError {
        let torn = entropy & 1 == 1 && !dirty.is_empty();
        let prefix = if torn { dirty.len().div_ceil(2) } else { 0 };
        let flushed = &dirty[..prefix];
        // The failed commit still cost real work: the prefix writeback and
        // the journal seeks spent before the error surfaced.
        self.commit(node, flushed, phase);
        let tracer = node.tracer();
        tracer.count("faults.storage.fsync", 1);
        if tracer.is_on() {
            tracer.instant(
                node.now().as_nanos(),
                "fault.injected",
                vec![
                    ("site", Value::label("storage.fsync")),
                    (
                        "mode",
                        Value::label(if torn { "torn" } else { "transient" }),
                    ),
                    ("flushed_pages", Value::from(prefix)),
                ],
            );
        }
        self.publish_cache_counters(node);
        FsError::TransientIo {
            op: "fsync",
            flushed_pages: prefix as u64,
        }
    }

    /// [`Self::fsync`] with bounded retry over transient faults: each failed
    /// attempt backs off exponentially (charged to `node` as real idle
    /// time — static energy), then retries the remaining dirty pages.
    /// Returns how many backed-off attempts it took. Other errors and an
    /// exhausted budget are returned to the caller. With no fault schedule
    /// installed this is exactly one plain `fsync`.
    pub fn fsync_with_retry(
        &mut self,
        node: &mut Node,
        name: &str,
        phase: Phase,
    ) -> Result<u32, FsError> {
        let plan = match &self.faults {
            Some(f) => *f.plan(),
            None => return self.fsync(node, name, phase).map(|()| 0),
        };
        let mut attempt = 0u32;
        loop {
            match self.fsync(node, name, phase) {
                Ok(()) => return Ok(attempt),
                Err(FsError::TransientIo { .. }) if attempt < plan.max_retries => {
                    let pause = plan.backoff_s(attempt);
                    node.execute(Activity::idle_secs(pause), phase);
                    let tracer = node.tracer();
                    tracer.count("retries.storage.fsync", 1);
                    if tracer.is_on() {
                        tracer.instant(
                            node.now().as_nanos(),
                            "fault.retry",
                            vec![
                                ("site", Value::label("storage.fsync")),
                                ("attempt", Value::from(attempt + 1)),
                                ("backoff_s", Value::from(pause)),
                            ],
                        );
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Simulate a crash followed by journal replay: every page not yet
    /// durably written is lost (discarded without writeback); metadata and
    /// the device contents — everything an acknowledged `fsync` covered —
    /// survive. Returns the number of dirty pages lost. The chaos suite
    /// re-reads files after this to verify no acknowledged write is lost.
    pub fn crash_and_recover(&mut self) -> u64 {
        self.cache.discard_dirty()
    }

    /// Whole-filesystem `sync`: flush every dirty page, one barrier.
    pub fn sync(&mut self, node: &mut Node, phase: Phase) {
        let dirty = self.cache.dirty_blocks();
        self.write_back(node, &dirty, phase);
    }

    /// Evict clean pages (`drop_caches`). Call after [`Self::sync`] to leave
    /// the cache empty, as the paper does between phases. Returns the number
    /// of pages evicted.
    pub fn drop_caches(&mut self) -> u64 {
        self.cache.drop_caches()
    }

    /// Delete `name`, returning its blocks to the allocator.
    pub fn delete(&mut self, name: &str) -> Result<(), FsError> {
        let inode = self
            .files
            .remove(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        // Invalidate cached pages before the blocks can be reallocated —
        // stale dirty pages must not leak into a future owner of the blocks.
        self.cache.invalidate(&inode.device_blocks());
        self.free_extents(&inode.extents);
        Ok(())
    }

    /// Replace the extents of `name` (used by the reorganization pass).
    /// Returns the old extents; the caller is responsible for having copied
    /// the data.
    pub(crate) fn swap_extents(
        &mut self,
        name: &str,
        new: Vec<Extent>,
    ) -> Result<Vec<Extent>, FsError> {
        let inode = self
            .files
            .get_mut(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        Ok(std::mem::replace(&mut inode.extents, new))
    }

    /// Allocate raw extents (used by the reorganization pass).
    pub(crate) fn alloc_raw(&mut self, blocks: u64) -> Result<Vec<Extent>, FsError> {
        self.alloc(blocks)
    }

    /// Free raw extents (used by the reorganization pass).
    pub(crate) fn free_raw(&mut self, extents: &[Extent]) {
        let blocks: Vec<u64> = extents
            .iter()
            .flat_map(|e| e.start..e.start + e.len)
            .collect();
        self.cache.invalidate(&blocks);
        self.free_extents(extents);
    }

    /// Direct device + cache access (used by the reorganization pass).
    pub(crate) fn cache_and_dev(&mut self) -> (&mut PageCache, &mut D) {
        (&mut self.cache, &mut self.dev)
    }

    /// The underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the underlying device — how placement runners reach
    /// a [`crate::TieredStore`]'s epoch boundary (`end_epoch`) and counters.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Device blocks of `name` in file order (used by the reorganization
    /// pass and by layout assertions in tests).
    pub fn device_blocks(&self, name: &str) -> Result<Vec<u64>, FsError> {
        self.files
            .get(name)
            .map(Inode::device_blocks)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }
}

/// Number of contiguous ascending runs in `blocks`, taken in the order
/// given (sorted or not).
pub(crate) fn count_runs(blocks: &[u64]) -> usize {
    let mut runs = 0;
    let mut next = None;
    for &b in blocks {
        if next != Some(b) {
            runs += 1;
        }
        next = Some(b + 1);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::MemBlockDevice;
    use greenness_platform::HardwareSpec;
    use proptest::prelude::*;

    fn setup() -> (Node, FileSystem<MemBlockDevice>) {
        let node = Node::new(HardwareSpec::table1());
        let fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(64 * 1024 * 1024),
            FsConfig::default(),
        );
        (node, fs)
    }

    #[test]
    fn write_read_round_trip() {
        let (mut node, mut fs) = setup();
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        fs.write(&mut node, "snap", 0, &data, Phase::Write).unwrap();
        fs.fsync(&mut node, "snap", Phase::Write).unwrap();
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        let back = fs
            .read(&mut node, "snap", 0, data.len() as u64, Phase::Read)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn data_survives_cache_drop_only_after_sync() {
        let (mut node, mut fs) = setup();
        fs.write(&mut node, "f", 0, b"hello world", Phase::Write)
            .unwrap();
        // Dirty pages survive a drop (Linux semantics), so the data is still
        // there even without sync.
        fs.drop_caches();
        let back = fs.read(&mut node, "f", 0, 11, Phase::Read).unwrap();
        assert_eq!(&back, b"hello world");
    }

    #[test]
    fn unaligned_offsets_and_partial_blocks() {
        let (mut node, mut fs) = setup();
        fs.write(&mut node, "f", 0, &[1u8; 5000], Phase::Write)
            .unwrap();
        fs.write(&mut node, "f", 4090, &[2u8; 20], Phase::Write)
            .unwrap();
        let back = fs.read(&mut node, "f", 4085, 30, Phase::Read).unwrap();
        assert_eq!(&back[..5], &[1u8; 5]);
        assert_eq!(&back[5..25], &[2u8; 20]);
        assert_eq!(fs.size("f").unwrap(), 5000);
    }

    #[test]
    fn read_past_eof_is_an_error_and_reads_clip() {
        let (mut node, mut fs) = setup();
        fs.write(&mut node, "f", 0, &[7u8; 100], Phase::Write)
            .unwrap();
        assert!(matches!(
            fs.read(&mut node, "f", 101, 1, Phase::Read),
            Err(FsError::BadOffset { .. })
        ));
        let tail = fs.read(&mut node, "f", 90, 1000, Phase::Read).unwrap();
        assert_eq!(tail.len(), 10);
        assert!(matches!(
            fs.read(&mut node, "nope", 0, 1, Phase::Read),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn contiguous_allocation_yields_single_run() {
        let (mut node, mut fs) = setup();
        fs.write(&mut node, "a", 0, &[0u8; 128 * 1024], Phase::Write)
            .unwrap();
        assert_eq!(fs.fragmentation("a").unwrap(), 1);
    }

    #[test]
    fn scattered_allocation_fragments() {
        let (mut node, mut fs) = setup();
        fs.set_alloc_mode(AllocMode::Scattered { seed: 7 });
        fs.write(&mut node, "a", 0, &[1u8; 256 * 1024], Phase::Write)
            .unwrap();
        let frag = fs.fragmentation("a").unwrap();
        assert!(frag > 16, "expected heavy fragmentation, got {frag} runs");
        // Content still round-trips.
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        let back = fs.read(&mut node, "a", 0, 256 * 1024, Phase::Read).unwrap();
        assert!(back.iter().all(|&b| b == 1));
    }

    #[test]
    fn fragmented_reads_cost_more_than_sequential() {
        let (mut node_a, mut fs_a) = setup();
        fs_a.write(&mut node_a, "f", 0, &[1u8; 512 * 1024], Phase::Write)
            .unwrap();
        fs_a.sync(&mut node_a, Phase::CacheControl);
        fs_a.drop_caches();
        let t0 = node_a.now();
        fs_a.read(&mut node_a, "f", 0, 512 * 1024, Phase::Read)
            .unwrap();
        let seq_cost = (node_a.now() - t0).as_secs_f64();

        let (mut node_b, mut fs_b) = setup();
        fs_b.set_alloc_mode(AllocMode::Scattered { seed: 3 });
        fs_b.write(&mut node_b, "f", 0, &[1u8; 512 * 1024], Phase::Write)
            .unwrap();
        fs_b.sync(&mut node_b, Phase::CacheControl);
        fs_b.drop_caches();
        let t0 = node_b.now();
        fs_b.read(&mut node_b, "f", 0, 512 * 1024, Phase::Read)
            .unwrap();
        let rand_cost = (node_b.now() - t0).as_secs_f64();

        assert!(
            rand_cost > 2.0 * seq_cost,
            "fragmented read {rand_cost}s should dwarf sequential {seq_cost}s"
        );
    }

    #[test]
    fn cached_reads_are_nearly_free() {
        let (mut node, mut fs) = setup();
        fs.write(&mut node, "f", 0, &[1u8; 128 * 1024], Phase::Write)
            .unwrap();
        fs.fsync(&mut node, "f", Phase::Write).unwrap();
        // First (cold-after-drop) read pays the device.
        fs.drop_caches();
        let t0 = node.now();
        fs.read(&mut node, "f", 0, 128 * 1024, Phase::Read).unwrap();
        let cold = (node.now() - t0).as_secs_f64();
        // Second read is all hits.
        let t1 = node.now();
        fs.read(&mut node, "f", 0, 128 * 1024, Phase::Read).unwrap();
        let warm = (node.now() - t1).as_secs_f64();
        assert!(warm < cold / 100.0, "warm {warm}s vs cold {cold}s");
    }

    #[test]
    fn chunk_write_fsync_cost_matches_calibration() {
        // 128 KiB chunk + fsync ≈ 90 ms on the Table I disk (DESIGN.md §4).
        let (mut node, mut fs) = setup();
        let t0 = node.now();
        fs.write(&mut node, "chunk", 0, &[9u8; 128 * 1024], Phase::Write)
            .unwrap();
        fs.fsync(&mut node, "chunk", Phase::Write).unwrap();
        let cost = (node.now() - t0).as_secs_f64();
        assert!((cost - 0.090).abs() < 0.01, "got {cost}s");
    }

    #[test]
    fn cold_chunk_read_cost_matches_calibration() {
        // Cold 128 KiB chunk read ≈ 84 ms (read-ahead window per rotation).
        let (mut node, mut fs) = setup();
        fs.write(&mut node, "chunk", 0, &[9u8; 128 * 1024], Phase::Write)
            .unwrap();
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        let t0 = node.now();
        fs.read(&mut node, "chunk", 0, 128 * 1024, Phase::Read)
            .unwrap();
        let cost = (node.now() - t0).as_secs_f64();
        assert!((cost - 0.084).abs() < 0.01, "got {cost}s");
    }

    #[test]
    fn delete_returns_space() {
        let (mut node, mut fs) = setup();
        let before = fs.free_blocks();
        fs.write(&mut node, "f", 0, &[0u8; 1024 * 1024], Phase::Write)
            .unwrap();
        assert!(fs.free_blocks() < before);
        fs.delete("f").unwrap();
        assert_eq!(fs.free_blocks(), before);
        assert!(!fs.exists("f"));
        assert!(fs.delete("f").is_err());
    }

    #[test]
    fn no_space_is_reported() {
        let mut node = Node::new(HardwareSpec::table1());
        let mut fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(8 * BLOCK_SIZE),
            FsConfig::default(),
        );
        let r = fs.write(
            &mut node,
            "big",
            0,
            &vec![0u8; 9 * BLOCK_SIZE as usize],
            Phase::Write,
        );
        assert_eq!(r.unwrap_err(), FsError::NoSpace);
    }

    #[test]
    fn a_write_no_device_can_hold_is_no_space_and_changes_nothing() {
        let mut node = Node::new(HardwareSpec::table1());
        let mut fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(8 * BLOCK_SIZE),
            FsConfig::default(),
        );
        fs.write(&mut node, "f", 0, &[7u8; 5000], Phase::Write)
            .unwrap();
        let before = (fs.size("f"), fs.free_blocks(), fs.cache_stats(), node.now());
        // (offset, len): an end that overflows `u64`, the largest end that
        // does not, and an end just past the device on a non-empty file.
        for (offset, len) in [
            (u64::MAX - 10, 100),
            (u64::MAX - 100, 100),
            (u64::MAX, 1),
            (8 * BLOCK_SIZE - 1, 2),
        ] {
            for name in ["f", "new"] {
                let r = fs.write(&mut node, name, offset, &vec![1u8; len], Phase::Write);
                assert_eq!(r, Err(FsError::NoSpace), "{name} at {offset}+{len}");
            }
        }
        assert_eq!(
            (fs.size("f"), fs.free_blocks(), fs.cache_stats(), node.now()),
            before
        );
        assert!(!fs.exists("new"));
        let back = fs.read(&mut node, "f", 0, 5000, Phase::Read).unwrap();
        assert_eq!(back, [7u8; 5000]);
    }

    #[test]
    fn unsynced_overwrites_are_lost_in_a_crash_and_the_fsynced_bytes_are_not() {
        let (mut node, mut fs) = setup();
        let durable: Vec<u8> = (0..3 * 4096u32).map(|i| (i % 251) as u8).collect();
        fs.write(&mut node, "f", 0, &durable, Phase::Write).unwrap();
        fs.fsync(&mut node, "f", Phase::Write).unwrap();
        // Clean pages now share their bytes with the device. Overwrite block
        // 0 partially and block 1 fully, without an fsync.
        fs.write(&mut node, "f", 100, &[0xEE; 50], Phase::Write)
            .unwrap();
        fs.write(&mut node, "f", 4096, &[0xDD; 4096], Phase::Write)
            .unwrap();
        let seen = fs.read(&mut node, "f", 0, 3 * 4096, Phase::Read).unwrap();
        assert_eq!(&seen[100..150], &[0xEE; 50]);
        assert_eq!(&seen[4096..8192], &[0xDD; 4096]);
        assert_eq!(fs.crash_and_recover(), 2);
        let back = fs.read(&mut node, "f", 0, 3 * 4096, Phase::Read).unwrap();
        assert_eq!(back, durable, "an unsynced write reached the device");
    }

    #[test]
    fn deleted_blocks_leave_the_device_and_come_back_zeroed() {
        let (mut node, mut fs) = setup();
        fs.write(&mut node, "old", 0, &[0xAA; 4 * 4096], Phase::Write)
            .unwrap();
        fs.sync(&mut node, Phase::CacheControl);
        let old_blocks = fs.device_blocks("old").unwrap();
        assert_eq!(fs.device().materialized_blocks(), 4);
        fs.delete("old").unwrap();
        assert_eq!(
            fs.device().materialized_blocks(),
            0,
            "bytes outlived the file"
        );

        // A 5,000-byte file on the recycled blocks: block 0 is overwritten
        // whole (no zero-fill needed), block 1 only up to byte 904 — it must
        // still be zero-filled, so the write faults nothing in.
        let misses = fs.cache_stats().misses;
        let t0 = node.now();
        fs.write(&mut node, "new", 0, &[0x55; 5000], Phase::Write)
            .unwrap();
        // One byte two blocks on: block 1's tail and all of block 2 are holes.
        fs.write(&mut node, "new", 3 * 4096, &[0x66], Phase::Write)
            .unwrap();
        assert_eq!(fs.device_blocks("new").unwrap(), old_blocks);
        assert_eq!(fs.cache_stats().misses, misses, "a read-modify-write fault");
        // Virtual time moved by the two memory copies and nothing else.
        let mut probe = Node::new(HardwareSpec::table1());
        probe.execute(Activity::MemTraffic { bytes: 5000 }, Phase::Write);
        probe.execute(Activity::MemTraffic { bytes: 1 }, Phase::Write);
        assert_eq!((node.now() - t0).as_nanos(), probe.now().as_nanos());
        for drop_first in [false, true] {
            if drop_first {
                fs.sync(&mut node, Phase::CacheControl);
                fs.drop_caches();
            }
            let back = fs
                .read(&mut node, "new", 0, 3 * 4096 + 1, Phase::Read)
                .unwrap();
            assert_eq!(&back[..5000], &[0x55; 5000]);
            assert!(back[5000..3 * 4096].iter().all(|&b| b == 0), "stale bytes");
            assert_eq!(back[3 * 4096], 0x66);
        }
    }

    #[test]
    fn faulted_fsync_is_transient_and_retry_recovers() {
        use greenness_faults::{FaultPlan, Site};
        let (mut node, mut fs) = setup();
        // Rate 1.0: every attempt faults, so a bare fsync reports the
        // transient error to the caller.
        let always = FaultPlan {
            storage_fsync_rate: 1.0,
            ..FaultPlan::with_seed(3)
        };
        fs.set_fault_injector(Some(always.injector(Site::StorageFsync, 0)));
        fs.write(&mut node, "f", 0, &[5u8; 64 * 1024], Phase::Write)
            .unwrap();
        let r = fs.fsync(&mut node, "f", Phase::Write);
        assert!(matches!(r, Err(FsError::TransientIo { op: "fsync", .. })));
        // A moderate rate recovers within the budget.
        fs.set_fault_injector(Some(
            FaultPlan::with_seed(3).injector(Site::StorageFsync, 0),
        ));
        fs.fsync_with_retry(&mut node, "f", Phase::Write).unwrap();
        assert!(fs.cache_stats().writebacks >= 16, "pages reached the disk");
    }

    #[test]
    fn acknowledged_fsync_survives_crash_recovery() {
        use greenness_faults::{FaultPlan, Site};
        let (mut node, mut fs) = setup();
        let plan = FaultPlan {
            storage_fsync_rate: 0.5,
            ..FaultPlan::with_seed(11)
        };
        fs.set_fault_injector(Some(plan.injector(Site::StorageFsync, 0)));
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
        fs.write(&mut node, "ack", 0, &data, Phase::Write).unwrap();
        fs.fsync_with_retry(&mut node, "ack", Phase::Write).unwrap();
        // An unacknowledged sibling write is in flight when the node dies.
        fs.write(&mut node, "lost", 0, &[1u8; 4096], Phase::Write)
            .unwrap();
        fs.crash_and_recover();
        let back = fs
            .read(&mut node, "ack", 0, data.len() as u64, Phase::Read)
            .unwrap();
        assert_eq!(back, data, "acknowledged write lost in the crash");
    }

    #[test]
    fn fault_free_path_is_byte_and_cost_identical() {
        use greenness_faults::{FaultPlan, Site};
        // A quiet plan (rate 0) must not change costs or contents at all.
        let run = |inject: bool| {
            let (mut node, mut fs) = setup();
            if inject {
                let quiet = FaultPlan::quiet(9);
                fs.set_fault_injector(Some(quiet.injector(Site::StorageFsync, 0)));
            }
            fs.write(&mut node, "f", 0, &[7u8; 128 * 1024], Phase::Write)
                .unwrap();
            fs.fsync_with_retry(&mut node, "f", Phase::Write).unwrap();
            node.now().as_nanos()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn runs_grouping() {
        assert_eq!(count_runs(&[]), 0);
        assert_eq!(count_runs(&[5, 6, 7]), 1);
        assert_eq!(count_runs(&[1, 3, 4, 9]), 3);
        assert_eq!(count_runs(&[7, 6, 5]), 3, "descending is not a run");
    }

    #[test]
    fn free_run_coalescing() {
        let (mut node, mut fs) = setup();
        fs.write(&mut node, "a", 0, &[0u8; 4096 * 4], Phase::Write)
            .unwrap();
        fs.write(&mut node, "b", 0, &[0u8; 4096 * 4], Phase::Write)
            .unwrap();
        fs.write(&mut node, "c", 0, &[0u8; 4096 * 4], Phase::Write)
            .unwrap();
        fs.delete("a").unwrap();
        fs.delete("b").unwrap();
        // a and b were adjacent; their free runs must coalesce so a new
        // 8-block file allocates a single extent.
        fs.write(&mut node, "d", 0, &[0u8; 4096 * 8], Phase::Write)
            .unwrap();
        assert_eq!(fs.fragmentation("d").unwrap(), 1);
    }

    proptest! {
        /// Free-space accounting: allocate-then-delete always restores the free
        /// block count, regardless of allocation mode.
        #[test]
        fn space_accounting_balances(
            sizes in prop::collection::vec((BLOCK_SIZE as usize)..(100 * BLOCK_SIZE as usize), 1..6),
            scattered in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut node = Node::new(HardwareSpec::table1());
            let mut fs = FileSystem::format(
                MemBlockDevice::with_capacity_bytes(64 * 1024 * 1024),
                FsConfig::default(),
            );
            if scattered {
                fs.set_alloc_mode(AllocMode::Scattered { seed });
            }
            let before = fs.free_blocks();
            for (k, len) in sizes.iter().enumerate() {
                fs.write(&mut node, &format!("f{k}"), 0, &vec![1u8; *len], Phase::Write).unwrap();
            }
            for k in 0..sizes.len() {
                fs.delete(&format!("f{k}")).unwrap();
            }
            prop_assert_eq!(fs.free_blocks(), before);
        }
    }
}
