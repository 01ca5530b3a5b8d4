//! A multi-tier block store behind the [`crate::FileSystem`] path.
//!
//! A [`TieredStore`] stacks real block devices fastest-first (e.g. DRAM →
//! NVMe → HDD) behind one logical block address space. Data honesty is the
//! ground rule: every logical block lives on exactly one tier's
//! [`MemBlockDevice`], reads return the real stored bytes, and migrations
//! copy-then-commit so an interrupted move can never lose the only copy.
//!
//! Costing goes through the [`CostedDevice`] trait: the filesystem hands
//! over the touched blocks in file order, the store splits them by tier,
//! derives each slice's access pattern from the *physical* layout with the
//! same heuristics a flat device uses, and prices it with the tier's own
//! [`DiskModel`]. With a single tier equal to the node's `spec.disk` the
//! resulting time and energy are bit-identical to the flat path — the
//! Table III regression anchor.
//!
//! Migration happens only at explicit **epoch boundaries**
//! ([`TieredStore::end_epoch`]): scores decay, the [`PolicyKind`] plans
//! (a pure function — no wall clock), and the store executes the
//! moves, charging each copy honestly and emitting `tier.promote` /
//! `tier.demote` instants plus `tier.<name>.bytes` / `tier.<name>.hits`
//! counters. Determinism end to end: same workload, same policy, same
//! fault seed ⇒ byte-identical journal at any `--jobs` value.

use std::collections::BTreeMap;
use std::sync::Arc;

use greenness_faults::FaultInjector;
use greenness_platform::disk::{DiskModel, DiskOpCost, IoDir};
use greenness_platform::{Node, Phase};
use greenness_trace::Value;

use crate::block::{Block, BlockDevice, MemBlockDevice, BLOCK_SIZE};
use crate::free::FreeRuns;
use crate::fs::{count_runs, layout_pattern, CostedDevice};
use crate::placement::{BlockState, PolicyKind, TierUsage, RANDOM_TOUCH};

/// One epoch's clean migrations, batched by (from, to) tier pair into
/// (source phys, destination phys) block lists for elevator-sweep charging.
type SweepAccumulator = BTreeMap<(usize, usize), (Vec<u64>, Vec<u64>)>;

/// Score decay applied at each epoch boundary before planning.
const DECAY: f64 = 0.5;

/// Declarative description of one tier.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Short name used in counters and reports (`"dram"`, `"nvme"`, …).
    pub name: String,
    /// The tier's device model.
    pub model: DiskModel,
    /// Physical capacity in blocks.
    pub capacity_blocks: u64,
}

impl TierSpec {
    /// A tier named `name` of `capacity_bytes`, priced by `model`.
    pub fn new(name: &str, model: DiskModel, capacity_bytes: u64) -> Self {
        TierSpec {
            name: name.to_string(),
            model,
            capacity_blocks: capacity_bytes.div_ceil(BLOCK_SIZE),
        }
    }
}

/// Per-tier transfer totals, for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierCounters {
    /// Tier name.
    pub name: String,
    /// Bytes read from this tier.
    pub bytes_read: u64,
    /// Bytes written to this tier (including migration landings).
    pub bytes_written: u64,
    /// Logical-block touches served by this tier.
    pub hits: u64,
}

/// Intern a counter name: `MetricsRegistry` keys are `&'static str`, tier
/// names are runtime strings. The set of distinct names is tiny (one per
/// device-zoo entry), so a global dedup table bounds the leak.
fn intern(s: String) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, PoisonError};
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = set.get(s.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    set.insert(leaked);
    leaked
}

struct Tier {
    dev: MemBlockDevice,
    free: FreeRuns,
    bytes_counter: &'static str,
    hits_counter: &'static str,
    bytes_read: u64,
    bytes_written: u64,
    hits: u64,
}

/// The part of one [`TieredStore::charge_transfer`] that lands on one tier:
/// how many blocks, in how many physically contiguous runs (file order).
#[derive(Clone, Copy, Default)]
struct TierSlice {
    blocks: u64,
    runs: usize,
    next_phys: Option<u64>,
}

/// The multi-tier store. See the module docs for the contract.
pub struct TieredStore {
    tiers: Vec<Tier>,
    /// Name, model, capacity and occupancy of each tier, fastest first — the
    /// view policies get, kept current by [`Self::alloc_on`] /
    /// [`Self::release_on`] rather than rebuilt per call.
    usage: Vec<TierUsage>,
    /// Every mapped logical block: its home (tier, physical block), decayed
    /// score and this epoch's hits. The one per-block structure: epochs decay
    /// it in place and policies plan straight from it.
    blocks: BTreeMap<u64, BlockState>,
    /// What an unmapped logical block reads as.
    zero: Block,
    policy: PolicyKind,
    promotes: u64,
    demotes: u64,
    migration_faults: u64,
    io_retries: u64,
    io_fault_injector: Option<FaultInjector>,
    migration_fault_injector: Option<FaultInjector>,
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field(
                "tiers",
                &self
                    .usage
                    .iter()
                    .map(|t| t.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("policy", &self.policy)
            .field("mapped_blocks", &self.blocks.len())
            .finish()
    }
}

impl TieredStore {
    /// Stack `tiers` (fastest first; the last is the bottom/slowest tier,
    /// conventionally the node's `spec.disk`) under `policy`.
    pub fn new(tiers: Vec<TierSpec>, policy: PolicyKind) -> Self {
        assert!(!tiers.is_empty(), "a TieredStore needs at least one tier");
        TieredStore {
            tiers: tiers
                .iter()
                .map(|spec| Tier {
                    dev: MemBlockDevice::new(spec.capacity_blocks),
                    free: FreeRuns::new(spec.capacity_blocks),
                    bytes_counter: intern(format!("tier.{}.bytes", spec.name)),
                    hits_counter: intern(format!("tier.{}.hits", spec.name)),
                    bytes_read: 0,
                    bytes_written: 0,
                    hits: 0,
                })
                .collect(),
            usage: tiers
                .into_iter()
                .map(|spec| TierUsage {
                    name: spec.name,
                    model: spec.model,
                    capacity_blocks: spec.capacity_blocks,
                    used_blocks: 0,
                })
                .collect(),
            blocks: BTreeMap::new(),
            zero: Arc::new([0; BLOCK_SIZE as usize]),
            policy,
            promotes: 0,
            demotes: 0,
            migration_faults: 0,
            io_retries: 0,
            io_fault_injector: None,
            migration_fault_injector: None,
        }
    }

    /// Install (or clear) the per-tier fault schedules: `io` drives
    /// transparent transfer retries (`Site::TierIo`), `migration` drives
    /// torn/aborted migrations (`Site::TierMigration`).
    pub fn set_fault_injectors(
        &mut self,
        io: Option<FaultInjector>,
        migration: Option<FaultInjector>,
    ) {
        self.io_fault_injector = io;
        self.migration_fault_injector = migration;
    }

    /// Promotions executed.
    pub fn promotes(&self) -> u64 {
        self.promotes
    }

    /// Demotions executed.
    pub fn demotes(&self) -> u64 {
        self.demotes
    }

    /// Migrations lost to injected faults (torn or aborted).
    pub fn migration_faults(&self) -> u64 {
        self.migration_faults
    }

    /// Transparent transfer retries forced by injected device errors.
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Per-tier transfer totals.
    pub fn counters(&self) -> Vec<TierCounters> {
        self.tiers
            .iter()
            .zip(&self.usage)
            .map(|(t, u)| TierCounters {
                name: u.name.clone(),
                bytes_read: t.bytes_read,
                bytes_written: t.bytes_written,
                hits: t.hits,
            })
            .collect()
    }

    /// Combined idle draw of every tier *above* the bottom one, watts. The
    /// bottom tier is assumed to be the node's `spec.disk` (already part of
    /// `idle_draw`); the faster tiers' idle power is charged on top during
    /// store operations, and reported as extra static power by the
    /// placement report for the whole makespan.
    pub fn idle_w_above_bottom(&self) -> f64 {
        self.usage[..self.usage.len() - 1]
            .iter()
            .map(|t| t.model.idle_w)
            .sum()
    }

    /// Which tier currently holds `logical`, if mapped.
    fn tier_of(&self, logical: u64) -> Option<usize> {
        self.blocks.get(&logical).map(|st| st.tier)
    }

    /// Take the lowest free physical block of tier `t`.
    fn alloc_on(&mut self, t: usize) -> Option<u64> {
        let (phys, _) = self.tiers[t].free.nth_run(0)?;
        self.tiers[t].free.take(phys, phys, 1)?;
        self.usage[t].used_blocks += 1;
        Some(phys)
    }

    /// Return physical block `phys` of tier `t`, dropping whatever it holds.
    fn release_on(&mut self, t: usize, phys: u64) {
        self.tiers[t].free.release(phys, 1);
        self.tiers[t].dev.discard_block(phys);
        self.usage[t].used_blocks -= 1;
    }

    /// Give `logical` a physical home on first touch: the bottom tier, or
    /// the nearest tier above it with a free block. A new block is a write of
    /// unknown future temperature; it earns promotion through its score.
    /// Total physical capacity equals the logical space, so a slot always
    /// exists for a logical block in range, and `None` is never returned.
    fn place(&mut self, logical: u64) -> Option<&mut BlockState> {
        let (tier, phys) = (0..self.tiers.len())
            .rev()
            .find_map(|t| Some((t, self.alloc_on(t)?)))?;
        Some(self.blocks.entry(logical).or_insert(BlockState {
            phys,
            ..BlockState::new(tier, 0.0)
        }))
    }

    /// One priced buffered span on tier `t`, drawn by `Node::disk_draw`
    /// like the flat path's so a single-tier store matches it bit for bit.
    fn charge_span(
        &mut self,
        node: &mut Node,
        t: usize,
        bytes: u64,
        dir: IoDir,
        cost: DiskOpCost,
        phase: Phase,
    ) {
        let draw = node.disk_draw(cost, self.idle_w_above_bottom(), Some((dir, bytes)));
        node.execute_raw(cost.seconds, draw, phase);
        let tier = &mut self.tiers[t];
        match dir {
            IoDir::Read => tier.bytes_read += bytes,
            IoDir::Write => tier.bytes_written += bytes,
        }
        node.tracer().count(tier.bytes_counter, bytes);
    }

    /// Charge one migrated block (`4 KiB` random touch) on tier `t`.
    fn charge_migration_block(&mut self, node: &mut Node, t: usize, dir: IoDir, phase: Phase) {
        let cost = self.usage[t].model.transfer(BLOCK_SIZE, dir, RANDOM_TOUCH);
        self.charge_span(node, t, BLOCK_SIZE, dir, cost, phase);
    }

    /// Close the current epoch: decay scores, let the policy plan, execute
    /// the migrations (copy-then-commit, fault-aware), and reset per-epoch
    /// hit counts. Deterministic: decisions depend only on (access stats,
    /// occupancy) — never on wall clock or thread timing.
    pub fn end_epoch(&mut self, node: &mut Node, phase: Phase) {
        for st in self.blocks.values_mut() {
            st.score = st.score * DECAY + st.epoch_hits as f64;
            st.epoch_hits = 0;
        }
        let plan = self.policy.plan(&self.blocks, &self.usage);
        let mut sweeps: SweepAccumulator = BTreeMap::new();
        for m in plan {
            self.execute_move(node, m.logical, m.to, phase, &mut sweeps);
        }
        // Migration I/O is charged as per-tier elevator sweeps: all the
        // epoch's clean moves between one (from, to) pair, sorted by
        // physical address and priced with the layout-derived pattern — a
        // background mover streams runs, it does not pay a full seek per
        // 4 KiB block. Sweep order is the BTreeMap's (from, to) order:
        // deterministic, independent of plan order.
        for ((from, to), (src, dst)) in sweeps {
            self.charge_sweep(node, from, src, IoDir::Read, phase);
            self.charge_sweep(node, to, dst, IoDir::Write, phase);
        }
    }

    /// Charge one side of a migration sweep on tier `t` over `phys` blocks.
    fn charge_sweep(
        &mut self,
        node: &mut Node,
        t: usize,
        mut phys: Vec<u64>,
        dir: IoDir,
        phase: Phase,
    ) {
        if phys.is_empty() {
            return;
        }
        phys.sort_unstable();
        let bytes = phys.len() as u64 * BLOCK_SIZE;
        let pattern = layout_pattern(count_runs(&phys), bytes, dir);
        let cost = self.usage[t].model.transfer(bytes, dir, pattern);
        self.charge_span(node, t, bytes, dir, cost, phase);
    }

    /// Execute one planned migration. Copy-then-commit: the destination is
    /// written before the mapping flips and the source is freed, so a torn
    /// or aborted move always leaves the source copy authoritative. Clean
    /// moves accumulate into `sweeps` for batched charging; faulted moves
    /// charge their own wasted work immediately.
    fn execute_move(
        &mut self,
        node: &mut Node,
        logical: u64,
        to: usize,
        phase: Phase,
        sweeps: &mut SweepAccumulator,
    ) {
        let Some(&BlockState {
            tier: from,
            phys: src_phys,
            ..
        }) = self.blocks.get(&logical)
        else {
            return;
        };
        if to == from || to >= self.tiers.len() {
            return;
        }
        let Some(dst_phys) = self.alloc_on(to) else {
            return; // destination full; the block simply stays put
        };
        if let Some(entropy) = self
            .migration_fault_injector
            .as_mut()
            .and_then(FaultInjector::next)
        {
            let torn = entropy & 1 == 1;
            if torn {
                // The copy ran (and cost real work) but tore before the
                // commit; the half-written destination is abandoned.
                self.charge_migration_block(node, from, IoDir::Read, phase);
                self.charge_migration_block(node, to, IoDir::Write, phase);
            }
            self.release_on(to, dst_phys);
            self.migration_faults += 1;
            let tracer = node.tracer();
            tracer.count("faults.tier.migration", 1);
            if tracer.is_on() {
                tracer.instant(
                    node.now().as_nanos(),
                    "fault.injected",
                    vec![
                        ("site", Value::label("tier.migration")),
                        (
                            "mode",
                            Value::label(if torn { "torn" } else { "transient" }),
                        ),
                        ("logical", Value::from(logical as usize)),
                    ],
                );
            }
            return;
        }
        // The move hands the block's handle over; no byte is copied.
        let block = self.tiers[from].dev.read_block(src_phys);
        self.tiers[to].dev.write_block(dst_phys, block);
        let sweep = sweeps.entry((from, to)).or_default();
        sweep.0.push(src_phys);
        sweep.1.push(dst_phys);
        // Commit: flip the mapping, then release the source copy.
        if let Some(st) = self.blocks.get_mut(&logical) {
            (st.tier, st.phys) = (to, dst_phys);
        }
        self.release_on(from, src_phys);
        let promote = to < from;
        if promote {
            self.promotes += 1;
        } else {
            self.demotes += 1;
        }
        let ev = if promote {
            "tier.promote"
        } else {
            "tier.demote"
        };
        let tracer = node.tracer();
        tracer.count(
            if promote {
                "tier.promotes"
            } else {
                "tier.demotes"
            },
            1,
        );
        if tracer.is_on() {
            let from_name = self.usage[from].name.clone();
            let to_name = self.usage[to].name.clone();
            tracer.instant(
                node.now().as_nanos(),
                ev,
                vec![
                    ("logical", Value::from(logical as usize)),
                    ("from", Value::from(from_name)),
                    ("to", Value::from(to_name)),
                ],
            );
        }
    }
}

impl BlockDevice for TieredStore {
    fn block_count(&self) -> u64 {
        self.usage.iter().map(|t| t.capacity_blocks).sum()
    }

    fn read_block(&self, idx: u64) -> Block {
        assert!(idx < self.block_count(), "block {idx} out of range");
        match self.blocks.get(&idx) {
            Some(st) => self.tiers[st.tier].dev.read_block(st.phys),
            None => Arc::clone(&self.zero),
        }
    }

    fn write_block(&mut self, idx: u64, block: Block) {
        assert!(idx < self.block_count(), "block {idx} out of range");
        let state = match self.blocks.get_mut(&idx) {
            Some(st) => Some(st),
            None => self.place(idx),
        };
        if let Some(&mut BlockState { tier, phys, .. }) = state {
            self.tiers[tier].dev.write_block(phys, block);
        }
    }

    fn discard_block(&mut self, idx: u64) {
        if let Some(st) = self.blocks.remove(&idx) {
            self.release_on(st.tier, st.phys);
        }
    }
}

impl CostedDevice for TieredStore {
    fn charge_transfer(&mut self, node: &mut Node, blocks: &[u64], dir: IoDir, phase: Phase) {
        if blocks.is_empty() {
            return;
        }
        // One walk over the blocks: the first device touch decides a home
        // (writebacks are charged before the pages physically land), every
        // touch feeds the policy's access statistics, and each tier's slice
        // keeps its block and run counts in file order.
        let mut slices = vec![TierSlice::default(); self.tiers.len()];
        for &lb in blocks {
            let st = match self.blocks.get_mut(&lb) {
                Some(st) => st,
                None => match self.place(lb) {
                    Some(st) => st,
                    None => continue,
                },
            };
            st.epoch_hits += 1;
            let slice = &mut slices[st.tier];
            if slice.next_phys != Some(st.phys) {
                slice.runs += 1;
            }
            slice.blocks += 1;
            slice.next_phys = Some(st.phys + 1);
        }
        for (t, slice) in slices.into_iter().enumerate() {
            if slice.blocks == 0 {
                continue;
            }
            let bytes = slice.blocks * BLOCK_SIZE;
            node.tracer()
                .count("disk.seeks", slice.runs.saturating_sub(1) as u64);
            let pattern = layout_pattern(slice.runs, bytes, dir);
            let cost = self.usage[t].model.transfer(bytes, dir, pattern);
            self.charge_span(node, t, bytes, dir, cost, phase);
            self.tiers[t].hits += slice.blocks;
            node.tracer()
                .count(self.tiers[t].hits_counter, slice.blocks);
            // A transient device error forces one transparent controller
            // retry: the transfer is paid twice, the data is fine.
            if self
                .io_fault_injector
                .as_mut()
                .and_then(FaultInjector::next)
                .is_some()
            {
                self.charge_span(node, t, bytes, dir, cost, phase);
                self.io_retries += 1;
                let tracer = node.tracer();
                tracer.count("faults.tier.io", 1);
                tracer.count("retries.tier.io", 1);
                if tracer.is_on() {
                    let name = self.usage[t].name.clone();
                    tracer.instant(
                        node.now().as_nanos(),
                        "fault.injected",
                        vec![
                            ("site", Value::label("tier.io")),
                            ("mode", Value::label("transient")),
                            ("tier", Value::from(name)),
                        ],
                    );
                }
            }
        }
    }

    fn charge_barrier(&mut self, node: &mut Node, seeks: u32, blocks: &[u64], phase: Phase) {
        // The journal commit lands on the slowest tier involved in the
        // flush (the commit record lives with the data); a metadata-only
        // barrier pays the bottom tier.
        let t = blocks
            .iter()
            .filter_map(|lb| self.tier_of(*lb))
            .max()
            .unwrap_or(self.tiers.len() - 1);
        let cost = self.usage[t].model.barrier(seeks);
        // A commit that seeks keeps the kernel busy; it moves no bytes.
        let busy = (seeks > 0).then_some((IoDir::Write, 0));
        let draw = node.disk_draw(cost, self.idle_w_above_bottom(), busy);
        node.execute_raw(cost.seconds, draw, phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FileSystem, FsConfig};
    use greenness_platform::HardwareSpec;

    impl TieredStore {
        /// Occupancy snapshot, fastest first.
        fn usage(&self) -> &[TierUsage] {
            &self.usage
        }
    }

    impl TieredStore {
        /// A single-tier store over the node's own disk model — the flat
        /// baseline expressed in tiered clothing (used by the Table III
        /// regression oracle below).
        fn single(name: &str, model: DiskModel, capacity_bytes: u64) -> Self {
            TieredStore::new(
                vec![TierSpec::new(name, model, capacity_bytes)],
                PolicyKind::Noop,
            )
        }
    }

    fn dram_hdd() -> TieredStore {
        TieredStore::new(
            vec![
                TierSpec::new("dram", DiskModel::dram_tier_32gb(), 16 * BLOCK_SIZE),
                TierSpec::new("hdd", DiskModel::seagate_7200rpm_500gb(), 1024 * BLOCK_SIZE),
            ],
            PolicyKind::FreqRecency,
        )
    }

    fn node() -> Node {
        Node::new(HardwareSpec::table1())
    }

    #[test]
    fn blocks_round_trip_and_unwritten_reads_zero() {
        let mut store = dram_hdd();
        let data = Arc::new([7u8; BLOCK_SIZE as usize]);
        store.write_block(42, Arc::clone(&data));
        assert_eq!(store.read_block(42), data);
        assert!(store.read_block(43).iter().all(|&b| b == 0));
    }

    #[test]
    fn hot_blocks_promote_and_survive_with_bytes_intact() {
        let mut store = dram_hdd();
        let mut n = node();
        let mut payload = [0u8; BLOCK_SIZE as usize];
        for lb in 0..8u64 {
            payload[0] = lb as u8;
            store.write_block(lb, Arc::new(payload));
        }
        assert_eq!(store.tier_of(3), Some(1), "new blocks land on the bottom");
        // Hammer blocks 0..4 across two epochs.
        for _ in 0..3 {
            store.charge_transfer(&mut n, &[0, 1, 2, 3], IoDir::Read, Phase::Read);
            store.end_epoch(&mut n, Phase::Read);
        }
        assert!(store.promotes() > 0, "hot blocks must promote");
        assert_eq!(store.tier_of(0), Some(0), "block 0 is hot → dram");
        assert_eq!(store.tier_of(7), Some(1), "block 7 is cold → hdd");
        for lb in 0..8u64 {
            let back = store.read_block(lb);
            assert_eq!(back[0], lb as u8, "block {lb} corrupted by migration");
        }
    }

    #[test]
    fn torn_migration_never_loses_the_only_copy() {
        use greenness_faults::{FaultPlan, Site};
        let mut store = dram_hdd();
        let plan = FaultPlan {
            tier_migration_rate: 1.0,
            ..FaultPlan::with_seed(13)
        };
        store.set_fault_injectors(None, Some(plan.injector(Site::TierMigration, 0)));
        let mut n = node();
        let mut payload = [0u8; BLOCK_SIZE as usize];
        for lb in 0..6u64 {
            payload[0] = 0xA0 | lb as u8;
            store.write_block(lb, Arc::new(payload));
        }
        for _ in 0..4 {
            store.charge_transfer(&mut n, &[0, 1, 2], IoDir::Read, Phase::Read);
            store.end_epoch(&mut n, Phase::Read);
        }
        assert!(store.migration_faults() > 0, "rate-1.0 plan must fire");
        assert_eq!(store.promotes(), 0, "every migration was torn or aborted");
        for lb in 0..6u64 {
            let back = store.read_block(lb);
            assert_eq!(back[0], 0xA0 | lb as u8, "block {lb} lost to a torn move");
        }
    }

    #[test]
    fn single_hdd_tier_matches_flat_charging_bit_for_bit() {
        // The Table III anchor: one tier, same model as spec.disk, noop
        // policy ⇒ the same virtual time and energy as the flat device.
        let blocks: Vec<u64> = (100..164).collect();
        let mut flat = node();
        MemBlockDevice::new(512).charge_transfer(&mut flat, &blocks, IoDir::Read, Phase::Read);
        let mut tiered = node();
        let mut store =
            TieredStore::single("hdd", DiskModel::seagate_7200rpm_500gb(), 512 * 1024 * 1024);
        for &lb in &blocks {
            store.write_block(lb, Arc::new([0u8; BLOCK_SIZE as usize]));
        }
        store.charge_transfer(&mut tiered, &blocks, IoDir::Read, Phase::Read);
        assert_eq!(flat.now().as_nanos(), tiered.now().as_nanos());
        assert_eq!(
            flat.timeline().total_energy_j().to_bits(),
            tiered.timeline().total_energy_j().to_bits()
        );
    }

    #[test]
    fn epoch_boundaries_are_deterministic() {
        let run = || {
            let mut store = dram_hdd();
            let mut n = node();
            for lb in 0..12u64 {
                store.write_block(lb, Arc::new([1u8; BLOCK_SIZE as usize]));
            }
            for round in 0..5u64 {
                let touched: Vec<u64> = (0..4 + (round % 3)).collect();
                store.charge_transfer(&mut n, &touched, IoDir::Read, Phase::Read);
                store.end_epoch(&mut n, Phase::Read);
            }
            (
                n.now().as_nanos(),
                store.promotes(),
                store.demotes(),
                store
                    .counters()
                    .iter()
                    .map(|c| (c.bytes_read, c.bytes_written, c.hits))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn noop_policy_never_migrates() {
        let mut store = TieredStore::new(
            vec![
                TierSpec::new("dram", DiskModel::dram_tier_32gb(), 16 * BLOCK_SIZE),
                TierSpec::new("hdd", DiskModel::seagate_7200rpm_500gb(), 256 * BLOCK_SIZE),
            ],
            PolicyKind::Noop,
        );
        let mut n = node();
        for lb in 0..8u64 {
            store.write_block(lb, Arc::new([2u8; BLOCK_SIZE as usize]));
        }
        for _ in 0..4 {
            store.charge_transfer(&mut n, &[0, 1], IoDir::Read, Phase::Read);
            store.end_epoch(&mut n, Phase::Read);
        }
        assert_eq!(store.promotes() + store.demotes(), 0);
        assert!(store.usage()[0].used_blocks == 0, "dram tier stays empty");
    }

    /// Hammer `name` cold across `epochs` epoch boundaries so an active
    /// policy migrates its blocks.
    fn heat(fs: &mut FileSystem<TieredStore>, n: &mut Node, name: &str, epochs: usize) {
        let size = fs.size(name).unwrap();
        for _ in 0..epochs {
            for _ in 0..3 {
                fs.drop_caches();
                fs.read(n, name, 0, size, Phase::Read).unwrap();
            }
            fs.device_mut().end_epoch(n, Phase::Read);
        }
    }

    #[test]
    fn a_deleted_files_blocks_give_their_tier_slots_back() {
        let mut fs = FileSystem::format(dram_hdd(), FsConfig::default());
        let mut n = node();
        fs.write(&mut n, "hot", 0, &[0xAA; 8 * 4096], Phase::Write)
            .unwrap();
        fs.write(&mut n, "cold", 0, &[0xBB; 8 * 4096], Phase::Write)
            .unwrap();
        fs.sync(&mut n, Phase::CacheControl);
        heat(&mut fs, &mut n, "hot", 3);
        let used = |fs: &FileSystem<TieredStore>| -> Vec<u64> {
            fs.device().usage().iter().map(|t| t.used_blocks).collect()
        };
        let hot_blocks = fs.device_blocks("hot").unwrap();
        let on_dram = |fs: &FileSystem<TieredStore>, lb: &u64| fs.device().tier_of(*lb) == Some(0);
        assert!(hot_blocks.iter().all(|lb| on_dram(&fs, lb)), "not promoted");
        let before = used(&fs);
        fs.delete("hot").unwrap();
        assert_eq!(used(&fs), [before[0] - 8, before[1]], "dram not given back");
        assert!(hot_blocks
            .iter()
            .all(|&lb| fs.device().tier_of(lb).is_none()));
        // The blocks' next owner is placed afresh (bottom tier, no inherited
        // dram slot or score) and reads zeros where it has holes.
        fs.write(&mut n, "next", 4096 + 10, &[0xCC; 10], Phase::Write)
            .unwrap();
        fs.sync(&mut n, Phase::CacheControl);
        assert_eq!(fs.device_blocks("next").unwrap(), hot_blocks[..2]);
        assert_eq!(used(&fs), [before[0] - 8, before[1] + 2]);
        fs.drop_caches();
        let back = fs.read(&mut n, "next", 0, 4096 + 20, Phase::Read).unwrap();
        assert!(back[..4096 + 10].iter().all(|&b| b == 0));
        assert_eq!(&back[4096 + 10..], &[0xCC; 10]);
        let cold = fs.read(&mut n, "cold", 0, 8 * 4096, Phase::Read).unwrap();
        assert!(cold.iter().all(|&b| b == 0xBB));
    }

    #[test]
    fn fsynced_bytes_survive_a_crash_across_migrations() {
        let mut fs = FileSystem::format(dram_hdd(), FsConfig::default());
        let mut n = node();
        let durable: Vec<u8> = (0..4 * 4096u32).map(|i| (i % 251) as u8).collect();
        fs.write(&mut n, "f", 0, &durable, Phase::Write).unwrap();
        fs.fsync(&mut n, "f", Phase::Write).unwrap();
        // Promote the file: its blocks' handles move hdd → dram while the
        // page cache still shares them.
        heat(&mut fs, &mut n, "f", 3);
        assert_eq!(fs.device().promotes(), 4);
        // Overwrite block 0 partially and block 1 fully without an fsync,
        // then let the store migrate again underneath the dirty pages.
        fs.write(&mut n, "f", 100, &[0xEE; 50], Phase::Write)
            .unwrap();
        fs.write(&mut n, "f", 4096, &[0xDD; 4096], Phase::Write)
            .unwrap();
        fs.write(&mut n, "pressure", 0, &[1; 16 * 4096], Phase::Write)
            .unwrap();
        fs.fsync(&mut n, "pressure", Phase::Write).unwrap();
        heat(&mut fs, &mut n, "pressure", 4);
        assert!(
            fs.device().demotes() > 0,
            "nothing moved under the dirty pages"
        );
        assert_eq!(fs.crash_and_recover(), 2);
        let back = fs.read(&mut n, "f", 0, 4 * 4096, Phase::Read).unwrap();
        assert_eq!(back, durable, "an unsynced write reached a tier");
    }

    #[test]
    fn tier_io_faults_cost_time_but_not_data() {
        use greenness_faults::{FaultPlan, Site};
        let run = |rate: f64| {
            let mut store = dram_hdd();
            if rate > 0.0 {
                let plan = FaultPlan {
                    tier_io_rate: rate,
                    ..FaultPlan::with_seed(7)
                };
                store.set_fault_injectors(Some(plan.injector(Site::TierIo, 0)), None);
            }
            let mut n = node();
            for lb in 0..32u64 {
                store.write_block(lb, Arc::new([9u8; BLOCK_SIZE as usize]));
            }
            let blocks: Vec<u64> = (0..32).collect();
            for _ in 0..8 {
                store.charge_transfer(&mut n, &blocks, IoDir::Read, Phase::Read);
            }
            (n.now().as_nanos(), store.io_retries())
        };
        let (clean_t, clean_retries) = run(0.0);
        let (faulted_t, faulted_retries) = run(1.0);
        assert_eq!(clean_retries, 0);
        assert!(faulted_retries > 0);
        assert!(faulted_t > clean_t, "retries are real time");
    }
}
