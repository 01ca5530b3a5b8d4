//! Policy-oracle suite for the multi-tier storage hierarchy.
//!
//! The contract a placement policy must honor is *data honesty*: a policy
//! decides **where** bytes live and **what** they cost, never **what** they
//! are. Every test here runs the same operation schedule against a
//! `FileSystem<TieredStore>` and a plain single-device reference
//! `FileSystem<MemBlockDevice>`, then demands bit-identical read-back —
//! across every tier stack, every policy, fault injection, crashes, and
//! randomized proptest schedules. A policy that loses or corrupts a byte to
//! win energy is cheating, and this suite is the referee.

use greenness_faults::{FaultPlan, Site};
use greenness_platform::{DiskModel, HardwareSpec, Node, Phase};
use greenness_storage::{
    BlockState, FileSystem, FsConfig, MemBlockDevice, Move, PolicyKind, TierSpec, TierUsage,
    TieredStore,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const MIB: u64 = 1024 * 1024;

/// The tier stacks under test, fastest first. Stack 0 is the degenerate
/// single-HDD hierarchy — the configuration that must be indistinguishable
/// from the paper's flat testbed.
fn stack(kind: usize) -> Vec<TierSpec> {
    match kind {
        0 => vec![TierSpec::new(
            "hdd",
            DiskModel::seagate_7200rpm_500gb(),
            64 * MIB,
        )],
        1 => vec![
            TierSpec::new("dram", DiskModel::dram_tier_32gb(), MIB),
            TierSpec::new("hdd", DiskModel::seagate_7200rpm_500gb(), 64 * MIB),
        ],
        _ => vec![
            TierSpec::new("dram", DiskModel::dram_tier_32gb(), MIB),
            TierSpec::new("nvme", DiskModel::nvme_ssd_1tb(), 4 * MIB),
            TierSpec::new("hdd", DiskModel::seagate_7200rpm_500gb(), 64 * MIB),
        ],
    }
}

fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64 * 7 + tag * 131 + 11) % 251) as u8)
        .collect()
}

/// A scripted filesystem operation, applied identically to the tiered
/// store and the flat reference.
#[derive(Debug, Clone)]
enum Op {
    Write {
        file: u8,
        offset: u16,
        len: u16,
    },
    Read {
        file: u8,
        offset: u16,
        len: u16,
    },
    Fsync {
        file: u8,
    },
    Sync,
    DropCaches,
    EndEpoch,
    /// `sync` then crash + journal recovery on both sides: after a clean
    /// sync, a crash must lose nothing anywhere in the hierarchy.
    SyncCrash,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u16..40_000, 1u16..12_000).prop_map(|(file, offset, len)| Op::Write {
            file,
            offset,
            len
        }),
        (0u8..4, 0u16..40_000, 1u16..12_000).prop_map(|(file, offset, len)| Op::Read {
            file,
            offset,
            len
        }),
        (0u8..4).prop_map(|file| Op::Fsync { file }),
        Just(Op::Sync),
        Just(Op::DropCaches),
        Just(Op::EndEpoch),
        Just(Op::SyncCrash),
    ]
}

/// Drive one schedule through both filesystems and assert byte equality of
/// every file at the end. Returns the tiered node for energy inspection.
fn run_oracle(
    stack_kind: usize,
    policy: PolicyKind,
    fault_seed: Option<u64>,
    ops: &[Op],
) -> (Node, FileSystem<TieredStore>) {
    let mut store = TieredStore::new(stack(stack_kind), policy);
    if let Some(seed) = fault_seed {
        let plan = FaultPlan {
            tier_io_rate: 0.25,
            tier_migration_rate: 0.5,
            ..FaultPlan::with_seed(seed)
        };
        store.set_fault_injectors(
            Some(plan.injector(Site::TierIo, 0)),
            Some(plan.injector(Site::TierMigration, 0)),
        );
    }
    let mut tiered_node = Node::new(HardwareSpec::table1());
    let mut tiered = FileSystem::format(store, FsConfig::default());
    let mut flat_node = Node::new(HardwareSpec::table1());
    let mut flat = FileSystem::format(
        MemBlockDevice::with_capacity_bytes(64 * MIB),
        FsConfig::default(),
    );

    let mut tag = 0u64;
    for op in ops {
        match *op {
            Op::Write { file, offset, len } => {
                tag += 1;
                let name = format!("f{file}");
                let data = payload(tag, len as usize);
                tiered
                    .write(&mut tiered_node, &name, offset as u64, &data, Phase::Write)
                    .expect("tiered write");
                flat.write(&mut flat_node, &name, offset as u64, &data, Phase::Write)
                    .expect("flat write");
            }
            Op::Read { file, offset, len } => {
                let name = format!("f{file}");
                let t = tiered.read(
                    &mut tiered_node,
                    &name,
                    offset as u64,
                    len as u64,
                    Phase::Read,
                );
                let f = flat.read(
                    &mut flat_node,
                    &name,
                    offset as u64,
                    len as u64,
                    Phase::Read,
                );
                match (t, f) {
                    (Ok(tb), Ok(fb)) => assert_eq!(tb, fb, "read divergence on {name}"),
                    (Err(_), Err(_)) => {}
                    (t, f) => panic!("read outcome divergence on {name}: {t:?} vs {f:?}"),
                }
            }
            Op::Fsync { file } => {
                let name = format!("f{file}");
                if tiered.exists(&name) {
                    tiered
                        .fsync(&mut tiered_node, &name, Phase::Write)
                        .expect("tiered fsync");
                    flat.fsync(&mut flat_node, &name, Phase::Write)
                        .expect("flat fsync");
                }
            }
            Op::Sync => {
                tiered.sync(&mut tiered_node, Phase::CacheControl);
                flat.sync(&mut flat_node, Phase::CacheControl);
            }
            Op::DropCaches => {
                tiered.drop_caches();
                flat.drop_caches();
            }
            Op::EndEpoch => {
                // Only the hierarchy has epochs; the reference is static.
                tiered
                    .device_mut()
                    .end_epoch(&mut tiered_node, Phase::CacheControl);
            }
            Op::SyncCrash => {
                tiered.sync(&mut tiered_node, Phase::CacheControl);
                flat.sync(&mut flat_node, Phase::CacheControl);
                let lost_t = tiered.crash_and_recover();
                let lost_f = flat.crash_and_recover();
                assert_eq!(lost_t, 0, "crash after sync lost tiered pages");
                assert_eq!(lost_f, 0, "crash after sync lost flat pages");
            }
        }
    }

    // Final oracle: every file reads back bit-identically, cold (no page
    // cache help) and at full length.
    tiered.drop_caches();
    flat.drop_caches();
    let mut names = tiered.list();
    names.sort();
    let mut flat_names = flat.list();
    flat_names.sort();
    assert_eq!(names, flat_names, "file sets diverged");
    for name in &names {
        let size = tiered.size(name).expect("size");
        assert_eq!(size, flat.size(name).expect("size"), "{name} size");
        let tb = tiered
            .read(&mut tiered_node, name, 0, size, Phase::Read)
            .expect("tiered read-back");
        let fb = flat
            .read(&mut flat_node, name, 0, size, Phase::Read)
            .expect("flat read-back");
        assert_eq!(tb, fb, "{name} bytes diverged");
    }
    (tiered_node, tiered)
}

/// A fixed, migration-heavy schedule: write four files, rescan one of them
/// hot across several epochs so freq-recency and energy-greedy actually
/// move blocks, then overwrite and rescan.
fn migration_heavy_schedule() -> Vec<Op> {
    let mut ops = Vec::new();
    for file in 0..4u8 {
        ops.push(Op::Write {
            file,
            offset: 0,
            len: 30_000,
        });
        ops.push(Op::Fsync { file });
    }
    ops.push(Op::Sync);
    for epoch in 0..6 {
        for _ in 0..4 {
            ops.push(Op::Read {
                file: 0,
                offset: 0,
                len: 30_000,
            });
            ops.push(Op::DropCaches);
        }
        if epoch == 3 {
            ops.push(Op::Write {
                file: 0,
                offset: 5_000,
                len: 10_000,
            });
            ops.push(Op::Fsync { file: 0 });
        }
        ops.push(Op::EndEpoch);
    }
    ops.push(Op::SyncCrash);
    ops.push(Op::Read {
        file: 0,
        offset: 0,
        len: 30_000,
    });
    ops
}

/// Exhaustive data-honesty oracle: every stack × every policy, no faults.
#[test]
fn every_stack_and_policy_reads_back_identical() {
    for stack_kind in 0..3 {
        for policy in PolicyKind::ALL {
            run_oracle(stack_kind, policy, None, &migration_heavy_schedule());
        }
    }
}

/// The same, under aggressive per-tier fault injection (25% transient I/O,
/// 50% torn migrations): faults cost energy, never bytes.
#[test]
fn faults_cost_energy_but_never_bytes() {
    for seed in 0..8u64 {
        for policy in PolicyKind::ALL {
            let (node, fs) = run_oracle(2, policy, Some(seed), &migration_heavy_schedule());
            let _ = node;
            if policy != PolicyKind::Noop {
                // The active policies must have attempted migrations for
                // the 50% torn rate to have bitten anything.
                assert!(
                    fs.device().promotes() + fs.device().migration_faults() > 0,
                    "seed {seed}: schedule never exercised migration"
                );
            }
        }
    }
}

/// An active policy never charges *less* than the work requires: the
/// degenerate single-HDD stack costs the same under every policy, because
/// with one tier there is nowhere to move.
#[test]
fn single_tier_is_policy_invariant() {
    let schedule = migration_heavy_schedule();
    let baseline = run_oracle(0, PolicyKind::Noop, None, &schedule).0;
    let base_e = baseline.into_timeline().total_energy_j();
    for policy in [PolicyKind::FreqRecency, PolicyKind::EnergyGreedy] {
        let node = run_oracle(0, policy, None, &schedule).0;
        let e = node.into_timeline().total_energy_j();
        assert_eq!(
            e.to_bits(),
            base_e.to_bits(),
            "{} diverged on a single tier",
            policy.label()
        );
    }
}

/// Policies are pure functions of (access stats, occupancy): the same
/// inputs produce the same plan. This is the determinism contract the
/// sweep's byte-identical journals rest on.
#[test]
fn plans_are_pure_functions_of_stats_and_occupancy() {
    let tiers: Vec<TierUsage> = stack(2)
        .iter()
        .enumerate()
        .map(|(i, s)| TierUsage {
            name: s.name.clone(),
            model: s.model.clone(),
            capacity_blocks: s.capacity_blocks,
            used_blocks: [12, 40, 300][i],
        })
        .collect();
    let mut blocks: BTreeMap<u64, BlockState> = BTreeMap::new();
    for b in 0..352u64 {
        let tier = if b < 12 {
            0
        } else if b < 52 {
            1
        } else {
            2
        };
        blocks.insert(b, BlockState::new(tier, ((b * 37 + 5) % 17) as f64 / 3.0));
    }
    for policy in PolicyKind::ALL {
        let p1: Vec<Move> = policy.plan(&blocks, &tiers);
        let p2: Vec<Move> = policy.plan(&blocks, &tiers);
        assert_eq!(p1, p2, "{} replans differently", policy.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized schedules over every stack × policy, with and without
    /// per-tier faults: the tiered store always reads back bit-identical
    /// to the flat reference.
    #[test]
    fn random_schedules_read_back_identical(
        ops in proptest::collection::vec(arb_op(), 1..40),
        stack_kind in 0usize..3,
        policy_kind in 0usize..3,
        seed in 0u64..1_000,
        faulty in any::<bool>(),
    ) {
        let fault_seed = if faulty { Some(seed) } else { None };
        run_oracle(stack_kind, PolicyKind::ALL[policy_kind], fault_seed, &ops);
    }
}
