//! Property-based tests for the storage stack.

use greenness_faults::{FaultPlan, Site};
use greenness_platform::{HardwareSpec, Node, Phase};
use greenness_storage::{
    block_from, reorganize, AllocMode, Block, FileSystem, FsConfig, MemBlockDevice, BLOCK_SIZE,
};
use proptest::prelude::*;

/// A scripted filesystem operation.
#[derive(Debug, Clone)]
enum Op {
    Write {
        file: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Fsync {
        file: u8,
    },
    Sync,
    DropCaches,
    Delete {
        file: u8,
    },
    /// Power loss + journal replay: every page not yet written back is gone.
    Crash,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u16..20_000, 1u16..8_000, any::<u8>()).prop_map(|(file, offset, len, fill)| {
            Op::Write {
                file,
                offset,
                len,
                fill,
            }
        }),
        (0u8..4).prop_map(|file| Op::Fsync { file }),
        Just(Op::Sync),
        Just(Op::DropCaches),
        (0u8..4).prop_map(|file| Op::Delete { file }),
        Just(Op::Crash),
    ]
}

/// A trivial in-memory reference model: file → (bytes a read returns, bytes
/// the device holds). Sizes are metadata and survive a crash; a block that
/// was never written back reads as zeros afterwards (freed blocks are
/// discarded from the device, so no previous owner's bytes can show).
#[derive(Default)]
struct Model {
    files: std::collections::HashMap<u8, (Vec<u8>, Vec<u8>)>,
}

impl Model {
    fn write(&mut self, file: u8, offset: usize, len: usize, fill: u8) {
        let (f, _) = self.files.entry(file).or_default();
        if f.len() < offset + len {
            f.resize(offset + len, 0);
        }
        f[offset..offset + len].fill(fill);
    }

    fn make_durable(&mut self, file: Option<u8>) {
        for (name, (now, durable)) in &mut self.files {
            if file.map_or(true, |f| f == *name) {
                durable.clone_from(now);
            }
        }
    }

    fn crash(&mut self) {
        for (now, durable) in self.files.values_mut() {
            let size = now.len();
            now.clone_from(durable);
            now.resize(size, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The filesystem agrees with a byte-array reference model under any
    /// sequence of writes, syncs, cache drops, deletes and crashes — after
    /// every single step, not only at the end: pages share their bytes with
    /// the device, so a write leaking into a block it does not own would
    /// show up as soon as a crash or a cache drop makes the device's copy
    /// the visible one.
    #[test]
    fn fs_matches_reference_model(ops in prop::collection::vec(arb_op(), 1..40)) {
        let mut node = Node::new(HardwareSpec::table1());
        let mut fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(32 * 1024 * 1024),
            FsConfig::default(),
        );
        let mut model = Model::default();
        for op in &ops {
            match *op {
                Op::Write { file, offset, len, fill } => {
                    let data = vec![fill; len as usize];
                    fs.write(&mut node, &format!("f{file}"), offset as u64, &data, Phase::Write)
                        .unwrap();
                    model.write(file, offset as usize, len as usize, fill);
                }
                Op::Fsync { file } => {
                    let name = format!("f{file}");
                    if fs.exists(&name) {
                        fs.fsync(&mut node, &name, Phase::Write).unwrap();
                        model.make_durable(Some(file));
                    }
                }
                Op::Sync => {
                    fs.sync(&mut node, Phase::CacheControl);
                    model.make_durable(None);
                }
                Op::DropCaches => {
                    fs.drop_caches();
                }
                Op::Delete { file } => {
                    let name = format!("f{file}");
                    if fs.exists(&name) {
                        fs.delete(&name).unwrap();
                        model.files.remove(&file);
                    }
                }
                Op::Crash => {
                    fs.crash_and_recover();
                    model.crash();
                }
            }
            for (file, (expect, _)) in &model.files {
                let name = format!("f{file}");
                prop_assert_eq!(fs.size(&name).unwrap(), expect.len() as u64);
                let got = fs
                    .read(&mut node, &name, 0, expect.len() as u64, Phase::Read)
                    .unwrap();
                prop_assert_eq!(&got, expect, "file {} diverged after {:?}", file, op);
            }
        }
        // And once more with nothing cached.
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        for (file, (expect, _)) in &model.files {
            let name = format!("f{file}");
            let got = fs
                .read(&mut node, &name, 0, expect.len() as u64, Phase::Read)
                .unwrap();
            prop_assert_eq!(&got, expect, "file {} diverged", file);
        }
    }

    /// Scattered allocation never loses data, and reorganization restores a
    /// near-contiguous layout while preserving every byte.
    #[test]
    fn reorg_preserves_bytes(
        len in (BLOCK_SIZE as usize)..(600 * BLOCK_SIZE as usize),
        seed in any::<u64>(),
    ) {
        let mut node = Node::new(HardwareSpec::table1());
        let mut fs = FileSystem::format(
            MemBlockDevice::with_capacity_bytes(64 * 1024 * 1024),
            FsConfig::default(),
        );
        fs.set_alloc_mode(AllocMode::Scattered { seed });
        let data: Vec<u8> = (0..len).map(|i| (i as u64).wrapping_mul(31).to_le_bytes()[0]).collect();
        fs.write(&mut node, "f", 0, &data, Phase::Write).unwrap();
        fs.sync(&mut node, Phase::CacheControl);
        fs.drop_caches();
        fs.set_alloc_mode(AllocMode::Contiguous);
        let report = reorganize(&mut node, &mut fs, "f", Phase::Other).unwrap();
        prop_assert!(report.runs_after <= report.runs_before);
        let back = fs.read(&mut node, "f", 0, len as u64, Phase::Read).unwrap();
        prop_assert_eq!(back, data);
    }

    /// Device virtual-time cost of an fs read is monotone: reading more bytes
    /// cold never takes less time.
    #[test]
    fn cold_read_cost_monotone(a in 1u64..400_000, b in 1u64..400_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let cost = |bytes: u64| {
            let mut node = Node::new(HardwareSpec::table1());
            let mut fs = FileSystem::format(
                MemBlockDevice::with_capacity_bytes(8 * 1024 * 1024),
                FsConfig::default(),
            );
            fs.write(&mut node, "f", 0, &vec![3u8; 400_000], Phase::Write).unwrap();
            fs.sync(&mut node, Phase::CacheControl);
            fs.drop_caches();
            let t0 = node.now();
            fs.read(&mut node, "f", 0, bytes, Phase::Read).unwrap();
            (node.now() - t0).as_secs_f64()
        };
        prop_assert!(cost(hi) >= cost(lo) - 1e-12);
    }
}

/// One scripted write: `len` bytes of a seeded pattern at `offset` of
/// `file`, issued in `chunk`-byte pieces with an fsync after each.
type ChunkedWrite = (u8, u16, u16, u16, u8);

/// Run `writes` on a fresh filesystem under `plan`, by block handle or by
/// copy, then sync, drop caches and read every file back: the bytes, the
/// cache counters, and the node's clock, energy and segment count.
fn run_writes(
    writes: &[ChunkedWrite],
    plan: FaultPlan,
    by_handle: bool,
) -> (Vec<Vec<u8>>, String, (u64, u64, usize)) {
    let mut node = Node::new(HardwareSpec::table1());
    let mut fs = FileSystem::format(MemBlockDevice::new(256), FsConfig::default());
    fs.set_fault_injector(Some(plan.injector(Site::StorageFsync, 0)));
    let mut outcomes = Vec::new();
    for &(file, offset, len, chunk, fill) in writes {
        let name = format!("f{file}");
        let (offset, len, chunk) = (offset as usize, len as usize, chunk as usize);
        // The file's bytes from offset 0: zeros, then the pattern.
        let mut bytes = vec![0u8; offset + len];
        for (i, b) in bytes[offset..].iter_mut().enumerate() {
            *b = fill.wrapping_add((i * 7) as u8);
        }
        let blocks: Vec<Block> = bytes.chunks(BLOCK_SIZE as usize).map(block_from).collect();
        for start in (offset..offset + len).step_by(chunk) {
            let end = (start + chunk).min(offset + len);
            let wrote = if by_handle {
                fs.write_blocks(
                    &mut node,
                    &name,
                    &blocks,
                    start as u64..end as u64,
                    Phase::Write,
                )
            } else {
                fs.write(
                    &mut node,
                    &name,
                    start as u64,
                    &bytes[start..end],
                    Phase::Write,
                )
            };
            outcomes.push(format!(
                "{wrote:?} {:?}",
                fs.fsync_with_retry(&mut node, &name, Phase::Write)
            ));
        }
    }
    fs.sync(&mut node, Phase::CacheControl);
    fs.drop_caches();
    let files = fs
        .list()
        .iter()
        .map(|name| {
            let size = fs.size(name).expect("listed");
            fs.read(&mut node, name, 0, size, Phase::Read)
                .expect("in range")
        })
        .collect();
    let tl = node.timeline();
    let charged = (
        node.now().as_nanos(),
        tl.total_energy_j().to_bits(),
        tl.segments().len(),
    );
    (
        files,
        format!("{outcomes:?} {:?}", fs.cache_stats()),
        charged,
    )
}

proptest! {
    /// Writing shared block handles is writing their bytes: the same bytes
    /// read back, cache counters, fsync outcomes and node charges, for
    /// random offsets, partial tails, chunk boundaries inside blocks, and a
    /// fault plan dense enough to tear writebacks and retry.
    #[test]
    fn handle_writes_match_copying_writes(
        writes in prop::collection::vec(
            (0u8..3, 0u16..12_000, 1u16..20_000, 1u16..9_000, any::<u8>()),
            1..6,
        ),
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan { storage_fsync_rate: 0.3, ..FaultPlan::with_seed(seed) };
        prop_assert_eq!(run_writes(&writes, plan, true), run_writes(&writes, plan, false));
    }
}

#[test]
fn a_range_past_the_blocks_is_refused() {
    let mut node = Node::new(HardwareSpec::table1());
    let mut fs = FileSystem::format(MemBlockDevice::new(8), FsConfig::default());
    let blocks = [block_from(&[1; 10])];
    let refused = fs.write_blocks(&mut node, "f", &blocks, 0..BLOCK_SIZE + 1, Phase::Write);
    assert!(refused.is_err());
    assert!(!fs.exists("f"));
    assert!(node.timeline().is_empty());
}
