//! Chaos suite: seeded fault injection with retry/recovery across the
//! storage, cluster, and serve layers.
//!
//! The properties under test are the ones the paper's energy argument
//! depends on: a degraded run costs *more time and energy* (retries and
//! backoff are real static power) but never changes *what* was computed —
//! and with no fault plan configured, nothing changes at all.

use greenness_cluster::{ClusterConfig, ClusterKind};
use greenness_core::pipeline::cluster::{run_cluster, run_cluster_traced};
use greenness_core::{experiment, ExperimentSetup, PipelineConfig, PipelineKind};
use greenness_faults::{FaultPlan, Site};
use greenness_platform::{DiskModel, HardwareSpec, Node, Phase};
use greenness_serve::{replay_workload, run_replay, ServiceConfig};
use greenness_storage::{
    FileSystem, FsConfig, FsError, MemBlockDevice, PolicyKind, TierSpec, TieredStore,
};
use greenness_trace::Tracer;

fn fresh_fs() -> (Node, FileSystem<MemBlockDevice>) {
    let node = Node::new(HardwareSpec::table1());
    let fs = FileSystem::format(
        MemBlockDevice::with_capacity_bytes(64 * 1024 * 1024),
        FsConfig::default(),
    );
    (node, fs)
}

fn payload(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64 * 31 + seed * 17) % 251) as u8)
        .collect()
}

/// The core durability property: any write whose `fsync` was acknowledged
/// (within the retry budget) survives a crash plus journal replay, for
/// every fault seed. Unacknowledged files promise nothing and are skipped.
#[test]
fn acknowledged_fsyncs_survive_crash_and_recovery() {
    for seed in 0..24u64 {
        let (mut node, mut fs) = fresh_fs();
        let plan = FaultPlan {
            storage_fsync_rate: 0.5,
            ..FaultPlan::with_seed(seed)
        };
        fs.set_fault_injector(Some(plan.injector(Site::StorageFsync, 0)));
        let mut acked = Vec::new();
        for f in 0..4 {
            let name = format!("snap{f}");
            let data = payload(seed + f, 200_000 + f as usize * 777);
            fs.write(&mut node, &name, 0, &data, Phase::Write)
                .expect("write buffers in cache");
            match fs.fsync_with_retry(&mut node, &name, Phase::Write) {
                Ok(_) => acked.push((name, data)),
                // Budget exhausted (p ≈ 0.5^9 per file): durability was
                // never acknowledged, so the property says nothing.
                Err(FsError::TransientIo { .. }) => {}
                Err(e) => panic!("unexpected fsync error: {e}"),
            }
        }
        fs.crash_and_recover();
        for (name, data) in &acked {
            let back = fs
                .read(&mut node, name, 0, data.len() as u64, Phase::Read)
                .expect("acknowledged file survives the crash");
            assert_eq!(&back, data, "seed {seed}: {name} lost acknowledged bytes");
        }
    }
}

/// A crash before the fsync is acknowledged may lose the dirty pages — and
/// `crash_and_recover` reports how many. This pins the negative space of
/// the property above: the suite would be vacuous if nothing were ever at
/// risk.
#[test]
fn unsynced_writes_are_genuinely_at_risk() {
    let (mut node, mut fs) = fresh_fs();
    let data = payload(7, 300_000);
    fs.write(&mut node, "volatile", 0, &data, Phase::Write)
        .expect("write buffers in cache");
    let lost = fs.crash_and_recover();
    assert!(lost > 0, "dirty pages must be discarded by the crash");
}

/// A faulted cluster run converges to the fault-free result: same bytes
/// shipped, same useful work, same verification verdict — only slower and
/// hungrier. Same seed twice is bit-identical.
#[test]
fn faulted_cluster_converges_to_the_fault_free_image() {
    let cfg = ClusterConfig::small(4, 2);
    for kind in [
        ClusterKind::PostProcessing,
        ClusterKind::InSitu,
        ClusterKind::InTransit,
    ] {
        let clean = run_cluster(kind, &cfg).expect("fault-free run fits its PFS");
        let (faulted, summary) =
            run_cluster_traced(kind, &cfg, Some(FaultPlan::with_seed(11)), &Tracer::off())
                .expect("degraded run completes within the retry budget");
        assert_eq!(faulted.bytes_out, clean.bytes_out, "{kind:?}");
        assert_eq!(
            faulted.work_units.to_bits(),
            clean.work_units.to_bits(),
            "{kind:?}"
        );
        assert_eq!(faulted.verified, clean.verified, "{kind:?}");
        if summary.total_faults() > 0 {
            assert!(
                faulted.makespan_s > clean.makespan_s,
                "{kind:?}: retries are real time"
            );
            assert!(
                faulted.total_energy_j > clean.total_energy_j,
                "{kind:?}: degraded I/O is real static energy"
            );
        }
        let (again, summary2) =
            run_cluster_traced(kind, &cfg, Some(FaultPlan::with_seed(11)), &Tracer::off())
                .expect("rerun completes");
        assert_eq!(faulted.makespan_s.to_bits(), again.makespan_s.to_bits());
        assert_eq!(
            faulted.total_energy_j.to_bits(),
            again.total_energy_j.to_bits()
        );
        assert_eq!(summary, summary2, "{kind:?}: same seed, same schedule");
    }
}

/// At least one cluster pipeline must actually absorb faults at the default
/// rates, or the convergence test above proves nothing.
#[test]
fn default_fault_rates_actually_fire_in_the_cluster() {
    let cfg = ClusterConfig::small(4, 2);
    let total: u64 = [
        ClusterKind::PostProcessing,
        ClusterKind::InSitu,
        ClusterKind::InTransit,
    ]
    .into_iter()
    .map(|kind| {
        run_cluster_traced(kind, &cfg, Some(FaultPlan::with_seed(11)), &Tracer::off())
            .expect("degraded run completes")
            .1
            .total_faults()
    })
    .sum();
    assert!(total > 0, "seed 11 must inject at least one fault");
}

/// A quiet plan (all rates zero) is indistinguishable from no plan at all:
/// the golden outputs stay byte-identical. This is the "no plan configured
/// → nothing changes" guarantee, exercised through the whole core pipeline.
#[test]
fn quiet_fault_plan_leaves_golden_outputs_untouched() {
    let cfg = PipelineConfig::small(1);
    let baseline = experiment::run(
        PipelineKind::PostProcessing,
        &cfg,
        &ExperimentSetup {
            trace: true,
            ..ExperimentSetup::noiseless()
        },
    )
    .expect("run ok");
    let quiet = experiment::run(
        PipelineKind::PostProcessing,
        &cfg,
        &ExperimentSetup {
            trace: true,
            faults: Some(FaultPlan::quiet(99)),
            ..ExperimentSetup::noiseless()
        },
    )
    .expect("run ok");
    assert_eq!(
        baseline.metrics.energy_j.to_bits(),
        quiet.metrics.energy_j.to_bits()
    );
    assert_eq!(
        baseline.metrics.execution_time_s.to_bits(),
        quiet.metrics.execution_time_s.to_bits()
    );
    assert_eq!(baseline.journal, quiet.journal, "journals byte-identical");
}

/// Core pipeline runs under default fault rates keep their data invariants
/// across a sweep of seeds: all reads verify, byte counts match the clean
/// run, and cost only ever goes up.
#[test]
fn faulted_pipeline_output_is_intact_across_seeds() {
    let cfg = PipelineConfig::small(1);
    let clean = experiment::run(
        PipelineKind::PostProcessing,
        &cfg,
        &ExperimentSetup::noiseless(),
    )
    .expect("run ok");
    for seed in [1u64, 2, 3] {
        let faulted = experiment::run(
            PipelineKind::PostProcessing,
            &cfg,
            &ExperimentSetup {
                faults: Some(FaultPlan {
                    storage_fsync_rate: 0.3,
                    ..FaultPlan::with_seed(seed)
                }),
                ..ExperimentSetup::noiseless()
            },
        )
        .expect("run ok");
        assert!(faulted.output.verified, "seed {seed}");
        assert_eq!(faulted.output.bytes_written, clean.output.bytes_written);
        assert_eq!(faulted.output.bytes_read, clean.output.bytes_read);
        assert!(faulted.metrics.energy_j >= clean.metrics.energy_j);
    }
}

/// Faulted serve replay is schedule-independent: responses, metrics, and
/// the retry count are byte-identical across `--jobs` values, for several
/// seeds.
#[test]
fn faulted_replay_is_schedule_independent() {
    let requests = replay_workload(12);
    for seed in [5u64, 7, 13] {
        let faults = Some(FaultPlan::with_seed(seed));
        let narrow = run_replay(
            ServiceConfig {
                jobs: 1,
                faults,
                ..ServiceConfig::default()
            },
            &requests,
        );
        let wide = run_replay(
            ServiceConfig {
                jobs: 8,
                faults,
                ..ServiceConfig::default()
            },
            &requests,
        );
        assert_eq!(narrow.responses, wide.responses, "seed {seed}");
        assert_eq!(narrow.metrics, wide.metrics, "seed {seed}");
        assert_eq!(narrow.retries, wide.retries, "seed {seed}");
    }
}

/// A tiered DRAM → NVMe → HDD filesystem with hostile per-tier fault
/// rates, used by the hierarchy chaos tests below.
fn tiered_fs(seed: u64) -> (Node, FileSystem<TieredStore>) {
    let mib = 1024 * 1024;
    let mut store = TieredStore::new(
        vec![
            TierSpec::new("dram", DiskModel::dram_tier_32gb(), mib),
            TierSpec::new("nvme", DiskModel::nvme_ssd_1tb(), 4 * mib),
            TierSpec::new("hdd", DiskModel::seagate_7200rpm_500gb(), 64 * mib),
        ],
        PolicyKind::FreqRecency,
    );
    let plan = FaultPlan {
        storage_fsync_rate: 0.5,
        tier_io_rate: 0.25,
        tier_migration_rate: 0.5,
        ..FaultPlan::with_seed(seed)
    };
    store.set_fault_injectors(
        Some(plan.injector(Site::TierIo, 0)),
        Some(plan.injector(Site::TierMigration, 0)),
    );
    let node = Node::new(HardwareSpec::table1());
    let mut fs = FileSystem::format(store, FsConfig::default());
    fs.set_fault_injector(Some(plan.injector(Site::StorageFsync, 0)));
    (node, fs)
}

/// The durability property, on the hierarchy: an acknowledged fsync
/// survives a crash even when epoch boundaries between the writes keep
/// migrating (and half-tearing) the very blocks being persisted. Torn
/// promotions abandon the copy in flight; they must never touch the one
/// the journal acknowledged.
#[test]
fn acked_fsyncs_survive_crash_mid_migration() {
    for seed in 0..24u64 {
        let (mut node, mut fs) = tiered_fs(seed);
        let mut acked = Vec::new();
        for f in 0..4 {
            let name = format!("snap{f}");
            let data = payload(seed + f, 150_000 + f as usize * 777);
            fs.write(&mut node, &name, 0, &data, Phase::Write)
                .expect("write buffers in cache");
            let synced = match fs.fsync_with_retry(&mut node, &name, Phase::Write) {
                Ok(_) => true,
                Err(FsError::TransientIo { .. }) => false,
                Err(e) => panic!("unexpected fsync error: {e}"),
            };
            // Rescan what's there so the policy has heat to act on, then
            // force a migration epoch *between* the acked fsyncs.
            for done in &acked {
                let (n, d): &(String, Vec<u8>) = done;
                let back = fs
                    .read(&mut node, n, 0, d.len() as u64, Phase::Read)
                    .expect("interleaved read");
                assert_eq!(&back, d, "seed {seed}: {n} corrupted before crash");
            }
            fs.device_mut().end_epoch(&mut node, Phase::CacheControl);
            if synced {
                acked.push((name, data));
            }
        }
        fs.crash_and_recover();
        for (name, data) in &acked {
            let back = fs
                .read(&mut node, name, 0, data.len() as u64, Phase::Read)
                .expect("acknowledged file survives the crash");
            assert_eq!(&back, data, "seed {seed}: {name} lost acknowledged bytes");
        }
    }
}

/// A torn promotion never loses the only copy: with every migration
/// guaranteed to fault (rate 1.0), every block stays where it was, every
/// byte reads back, and the store counted the carnage.
#[test]
fn torn_promotions_never_lose_the_only_copy() {
    let mib = 1024 * 1024;
    let mut store = TieredStore::new(
        vec![
            TierSpec::new("dram", DiskModel::dram_tier_32gb(), mib),
            TierSpec::new("hdd", DiskModel::seagate_7200rpm_500gb(), 64 * mib),
        ],
        PolicyKind::FreqRecency,
    );
    let plan = FaultPlan {
        tier_migration_rate: 1.0,
        ..FaultPlan::with_seed(99)
    };
    store.set_fault_injectors(None, Some(plan.injector(Site::TierMigration, 0)));
    let mut node = Node::new(HardwareSpec::table1());
    let mut fs = FileSystem::format(store, FsConfig::default());
    let data = payload(3, 200_000);
    fs.write(&mut node, "hot", 0, &data, Phase::Write)
        .expect("write");
    fs.fsync(&mut node, "hot", Phase::Write).expect("fsync");
    for _ in 0..4 {
        let back = fs
            .read(&mut node, "hot", 0, data.len() as u64, Phase::Read)
            .expect("read");
        assert_eq!(back, data);
        fs.drop_caches();
        fs.device_mut().end_epoch(&mut node, Phase::CacheControl);
    }
    assert!(
        fs.device().migration_faults() > 0,
        "rate-1.0 plan must tear every attempted move"
    );
    assert_eq!(
        fs.device().promotes() + fs.device().demotes(),
        0,
        "no migration may commit when every copy is torn"
    );
    let back = fs
        .read(&mut node, "hot", 0, data.len() as u64, Phase::Read)
        .expect("final read");
    assert_eq!(back, data, "torn promotions lost the only copy");
}

/// The in-transit chaos sweep: 24 fault seeds, alternating the wire codec,
/// with staged-slab drops retransmitting from the still-live send buffer
/// and torn staging renders re-rendering from the assembled slabs. Every
/// degraded run must converge bit-identically to the fault-free frame
/// images (same chained image hash), and across the sweep both fault
/// classes must actually fire — otherwise the convergence proves nothing.
#[test]
fn intransit_chaos_sweep_converges_to_fault_free_images() {
    use greenness_cluster::WireCodec;
    let mut clean_hash = std::collections::BTreeMap::new();
    for codec in [WireCodec::None, WireCodec::DeltaRle] {
        let mut cfg = ClusterConfig::small(4, 2);
        cfg.staging.wire_codec = codec;
        let clean = run_cluster(ClusterKind::InTransit, &cfg).expect("clean run");
        clean_hash.insert(codec.label(), (clean.image_hash, clean.bytes_out));
    }
    let (mut staged_faults, mut torn_renders) = (0u64, 0u64);
    for seed in 0..24u64 {
        let codec = if seed % 2 == 0 {
            WireCodec::None
        } else {
            WireCodec::DeltaRle
        };
        let mut cfg = ClusterConfig::small(4, 2);
        cfg.staging.wire_codec = codec;
        let plan = FaultPlan {
            fabric_fault_rate: 0.15,
            staging_render_rate: 0.15,
            ..FaultPlan::with_seed(seed)
        };
        let (faulted, summary) =
            run_cluster_traced(ClusterKind::InTransit, &cfg, Some(plan), &Tracer::off())
                .unwrap_or_else(|e| panic!("seed {seed}: degraded run must recover: {e}"));
        let &(hash, bytes) = &clean_hash[codec.label()];
        assert_eq!(
            faulted.image_hash,
            hash,
            "seed {seed} ({}): degraded frames must be bit-identical",
            codec.label()
        );
        assert_eq!(
            faulted.bytes_out, bytes,
            "seed {seed}: output volume changed"
        );
        assert!(faulted.verified, "seed {seed}: verification failed");
        staged_faults += summary.fabric_drops + summary.fabric_delays;
        torn_renders += summary.staging_torn_renders;
    }
    assert!(staged_faults > 0, "no staged transfer ever faulted");
    assert!(torn_renders > 0, "no staging render was ever torn");
}

/// The `fault.injected` instants in the journal `tracer` drained.
fn injected_instants(tracer: &Tracer) -> u64 {
    let journal = tracer.drain().expect("tracing is on").journal;
    journal
        .lines()
        .filter(|line| line.contains("\"ev\":\"event\",\"name\":\"fault.injected\""))
        .count() as u64
}

/// Regression for the untraced-terminal-drop bug: every injected fabric or
/// staging fault — drops, delays, torn renders, including the *terminal*
/// drop that exhausts the retry budget — must land in the journal as a
/// `fault.injected` instant, in lockstep with the summary counters.
#[test]
fn fault_journal_instants_match_the_summary_counters() {
    let cfg = ClusterConfig::small(4, 2);
    let plan = FaultPlan {
        fabric_fault_rate: 0.15,
        staging_render_rate: 0.15,
        ..FaultPlan::with_seed(7)
    };
    let tracer = Tracer::jsonl();
    let (_, summary) = run_cluster_traced(ClusterKind::InTransit, &cfg, Some(plan), &tracer)
        .expect("degraded run recovers");
    let injected = summary.fabric_drops + summary.fabric_delays + summary.staging_torn_renders;
    assert!(injected > 0, "seed 7 must inject at least one fabric fault");
    let instants = injected_instants(&tracer);
    assert_eq!(
        instants, injected,
        "journal fault.injected instants must match the summary counters"
    );
}

/// The terminal drop itself is traced: when the retry budget is exhausted
/// the final drop must still emit its `fault.injected` instant before the
/// structured error surfaces, so `fault_counts()` and the journal agree.
#[test]
fn terminal_fabric_drop_still_lands_in_the_journal() {
    use greenness_cluster::{ClusterError, Fabric};
    use greenness_platform::NetModel;
    let plan = FaultPlan {
        fabric_fault_rate: 1.0,
        max_retries: 0,
        ..FaultPlan::with_seed(3)
    };
    let mut fabric = Fabric::new(NetModel::ten_gbe());
    fabric.set_fault_injector(Some(plan.injector(Site::FabricTransfer, 0)));
    let tracer = Tracer::jsonl();
    let mut src = Node::new(HardwareSpec::table1());
    src.set_tracer(tracer.clone());
    let mut dst = Node::new(HardwareSpec::table1());
    // Every transfer faults; with a zero retry budget the first drop is
    // terminal. Delays (odd entropy) recover on their own, so push until
    // the budget actually exhausts.
    let err = loop {
        match fabric.transfer_reliable(&mut src, &mut dst, 4096, 1, Phase::Network) {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    assert!(
        matches!(err, ClusterError::FabricExhausted { attempts: 1, .. }),
        "zero retry budget must exhaust on the first drop: {err}"
    );
    let (drops, delays, _) = fabric.fault_counts();
    assert!(drops > 0, "a drop must have occurred");
    let instants = injected_instants(&tracer);
    assert_eq!(
        instants,
        drops + delays,
        "the terminal drop must be journaled like every other injected fault"
    );
}
