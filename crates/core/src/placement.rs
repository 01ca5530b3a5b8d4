//! The placement grid: tiered storage × placement policy × workload, on the
//! crate's one grid runner (the private `grid` module states the contract —
//! unique keys, submission-order results, key-derived seeds, lowest-id
//! failure).
//!
//! The paper's §V-D "reorganization" argument is a statement about *where
//! bytes live*: a random-access visualization against a 7200 rpm disk costs
//! 238.6 kJ where the sequential equivalent costs 4.2 kJ (Table III), so
//! moving the hot working set somewhere cheap-to-seek is worth real energy.
//! This module turns that observation into an experiment grid: every
//! workload (the three case studies, a sequential scan, and a random-access
//! exploratory reader) runs against the same DRAM → NVMe → HDD tier stack
//! under each [`PolicyKind`], and the sweep reports which policy closes
//! the sequential-vs-random cliff.
//!
//! What this module adds (pinned by `tests/placement_determinism.rs`): the
//! random reader derives its access stream from its *workload* label alone,
//! so every policy sees the identical sequence; fault schedules derive
//! per-job from the sweep plan; and migration decisions are pure functions
//! of (epoch, access stats) — so the journal, metrics, and manifest are
//! byte-identical for any `--jobs` value and across repeated runs with the
//! same `--fault-seed`.

pub use greenness_storage::PolicyKind;

use greenness_faults::{fnv1a64, splitmix64, FaultPlan, Site};
use greenness_platform::{DiskModel, HardwareSpec, Node, Phase};
use greenness_storage::{FileSystem, FsConfig, StorageError, TierCounters, TierSpec, TieredStore};
use greenness_trace::{escape_json, MetricsRegistry, Value};

use crate::driver::snapshot_name;
use crate::experiment::MONITORING_OVERHEAD_W;
use crate::grid::{self, JobView};
use crate::sweep::{Progress, SweepError};

/// Workload scale: `Small` keeps CI and the golden tests fast; `Paper`
/// matches the §IV-C data volumes (2 MiB snapshots, 50 timesteps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlacementScale {
    /// Scaled-down grid for tests and smoke runs.
    #[default]
    Small,
    /// Paper-scale data volumes.
    Paper,
}

impl PlacementScale {
    /// Stable label used in manifests.
    pub fn label(self) -> &'static str {
        match self {
            PlacementScale::Small => "small",
            PlacementScale::Paper => "paper",
        }
    }

    /// Parse a CLI argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(PlacementScale::Small),
            "paper" => Some(PlacementScale::Paper),
            _ => None,
        }
    }
}

/// The workloads of the placement grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementWorkload {
    /// Case study 1: I/O every iteration.
    Case1,
    /// Case study 2: I/O every 2 iterations.
    Case2,
    /// Case study 3: I/O every 8 iterations.
    Case3,
    /// Sequential full-dataset scans (Table III's cheap side).
    SeqScan,
    /// Random-access exploratory reader with an 80/20 hot set (Table III's
    /// expensive side — the workload placement is supposed to rescue).
    RandomAccess,
}

impl PlacementWorkload {
    /// All workloads, grid order.
    pub const ALL: [PlacementWorkload; 5] = [
        PlacementWorkload::Case1,
        PlacementWorkload::Case2,
        PlacementWorkload::Case3,
        PlacementWorkload::SeqScan,
        PlacementWorkload::RandomAccess,
    ];

    /// Stable label (part of job keys — renaming reshuffles seeds).
    pub fn label(self) -> &'static str {
        match self {
            PlacementWorkload::Case1 => "case1",
            PlacementWorkload::Case2 => "case2",
            PlacementWorkload::Case3 => "case3",
            PlacementWorkload::SeqScan => "seqscan",
            PlacementWorkload::RandomAccess => "random",
        }
    }

    fn shape(self, scale: PlacementScale) -> WorkloadShape {
        let small = scale == PlacementScale::Small;
        let mib = 1024 * 1024;
        let timesteps: u64 = if small { 10 } else { 50 };
        let case = |interval: u64| WorkloadShape {
            snapshots: timesteps.div_ceil(interval),
            snapshot_bytes: if small { 256 * 1024 } else { 2 * mib },
            chunk_bytes: 128 * 1024,
            read_passes: 1,
            whole_file_reads: false,
            random_reads: 0,
            poke_bytes: 0,
            epoch_every_reads: 0,
        };
        // SeqScan and RandomAccess share one dataset and read the same byte
        // volume — the noop-policy energy ratio between the two is a pure
        // access-pattern effect: the Table III cliff at sweep scale.
        // Snapshots are ≥ the sequential threshold so a whole-file read is
        // charged at full streaming rate; random pokes are 8 KiB, each cold
        // (the exploratory dataset dwarfs the page cache).
        let scan_snapshots = if small { 4 } else { 16 };
        let scan_snapshot_bytes = if small { mib } else { 2 * mib };
        let scan_passes = if small { 4 } else { 8 };
        match self {
            PlacementWorkload::Case1 => case(1),
            PlacementWorkload::Case2 => case(2),
            PlacementWorkload::Case3 => case(8),
            PlacementWorkload::SeqScan => WorkloadShape {
                snapshots: scan_snapshots,
                snapshot_bytes: scan_snapshot_bytes,
                chunk_bytes: 128 * 1024,
                read_passes: scan_passes,
                whole_file_reads: true,
                random_reads: 0,
                poke_bytes: 0,
                epoch_every_reads: 0,
            },
            PlacementWorkload::RandomAccess => {
                let poke_bytes = 8 * 1024;
                WorkloadShape {
                    snapshots: scan_snapshots,
                    snapshot_bytes: scan_snapshot_bytes,
                    chunk_bytes: 128 * 1024,
                    read_passes: 0,
                    whole_file_reads: false,
                    random_reads: scan_snapshots * scan_snapshot_bytes * scan_passes / poke_bytes,
                    poke_bytes,
                    epoch_every_reads: if small { 128 } else { 1024 },
                }
            }
        }
    }
}

struct WorkloadShape {
    snapshots: u64,
    snapshot_bytes: u64,
    chunk_bytes: u64,
    read_passes: u64,
    whole_file_reads: bool,
    random_reads: u64,
    poke_bytes: u64,
    epoch_every_reads: u64,
}

/// One cell of the placement grid.
#[derive(Debug, Clone, Copy)]
pub struct PlacementJob {
    /// The workload.
    pub workload: PlacementWorkload,
    /// The policy under test.
    pub policy: PolicyKind,
}

impl PlacementJob {
    /// The job's stable identity — everything that distinguishes one cell,
    /// nothing about how the grid executes.
    pub fn key(&self) -> String {
        format!("{}/{}", self.workload.label(), self.policy.label())
    }

    /// The deterministic seed driving the job's access stream: a pure
    /// function of the *workload* (not the policy, not the fault seed, not
    /// the worker count), so every policy sees the identical access
    /// sequence and comparisons isolate the policy effect.
    fn access_seed(&self) -> u64 {
        splitmix64(fnv1a64(self.workload.label().as_bytes()))
    }
}

/// Rig for a placement sweep. Every job runs on a Table I node with the
/// paper's monitoring overhead attached ([`MONITORING_OVERHEAD_W`]).
#[derive(Debug, Clone, Default)]
pub struct PlacementSetup {
    /// Workload scale.
    pub scale: PlacementScale,
    /// Record per-job journals and metrics registries.
    pub trace: bool,
    /// Seeded fault schedule; derives per-job sub-plans like the main sweep.
    pub faults: Option<FaultPlan>,
}

impl PlacementSetup {
    /// The DRAM → NVMe → HDD stack the grid runs against. Bottom tier is
    /// the Table I node's own disk model so the noop policy is exactly the
    /// flat single-device system.
    fn tier_stack(&self) -> Vec<TierSpec> {
        let mib = 1024 * 1024;
        let (dram, nvme, hdd) = match self.scale {
            PlacementScale::Small => (mib, 4 * mib, 64 * mib),
            PlacementScale::Paper => (8 * mib, 32 * mib, 512 * mib),
        };
        vec![
            TierSpec::new("dram", DiskModel::dram_tier_32gb(), dram),
            TierSpec::new("nvme", DiskModel::nvme_ssd_1tb(), nvme),
            TierSpec::new("hdd", HardwareSpec::table1().disk, hdd),
        ]
    }
}

/// One finished placement cell.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// Submission index (manifest primary key).
    pub id: usize,
    /// Stable identity string.
    pub key: String,
    /// Workload label.
    pub workload: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// The access-stream seed the job ran with.
    pub seed: u64,
    /// Virtual makespan, seconds.
    pub time_s: f64,
    /// Full-system energy over the makespan, joules (bottom-tier static
    /// power included; see `extra_tier_idle_j` for the upper tiers).
    pub energy_j: f64,
    /// `energy_j / time_s`.
    pub avg_power_w: f64,
    /// Time spent in the read phase, seconds (the Table III quantity).
    pub read_time_s: f64,
    /// Full-system energy of the read phase, joules — the cliff is measured
    /// here, where the write side (identical across the pair) cannot dilute
    /// the pattern effect.
    pub read_energy_j: f64,
    /// Static energy of the tiers above the bottom one over the makespan
    /// (idle watts × time), reported separately so the "is the extra
    /// hardware worth it" trade-off stays visible.
    pub extra_tier_idle_j: f64,
    /// Logical bytes the workload wrote.
    pub bytes_written: u64,
    /// Logical bytes the workload read back.
    pub bytes_read: u64,
    /// Migrations up / down executed by the store.
    pub promotes: u64,
    /// Demotions executed.
    pub demotes: u64,
    /// Migrations lost to injected faults.
    pub migration_faults: u64,
    /// Transparent per-tier transfer retries.
    pub io_retries: u64,
    /// Every byte read back matched what was written.
    pub verified: bool,
    /// Per-tier transfer totals, fastest first.
    pub tiers: Vec<TierCounters>,
    /// Virtual end time, nanoseconds (journal assembly).
    pub end_ns: u64,
    /// Event journal when tracing (headerless `greenness-trace/v1` JSONL).
    pub journal: Option<String>,
    /// Metrics registry when tracing.
    pub trace_metrics: Option<MetricsRegistry>,
}

impl PlacementResult {
    fn view(&self) -> JobView<'_> {
        JobView {
            id: self.id,
            key: &self.key,
            seed: Some(self.seed),
            end_ns: self.end_ns,
            journal: self.journal.as_deref(),
            metrics: self.trace_metrics.as_ref(),
        }
    }
}

/// The full grid: every workload under every policy, workload-major — the
/// column order of the placement report.
pub fn placement_grid() -> Vec<PlacementJob> {
    let mut jobs = Vec::with_capacity(PlacementWorkload::ALL.len() * PolicyKind::ALL.len());
    for workload in PlacementWorkload::ALL {
        for policy in PolicyKind::ALL {
            jobs.push(PlacementJob { workload, policy });
        }
    }
    jobs
}

/// The verification payload is a pure function of (snapshot, chunk index,
/// byte index) — byte `i` of a chunk is `(snap·131 + chunk·29 + i·7) mod 251`
/// — so checking a read needs no retained copy. 7 and 251 are coprime, so
/// every chunk is the same 251-byte period entered at a different point.
const PERIOD: usize = 251;

/// `CYCLE[i] = 7·i mod 251`, twice round: any period is a window of it.
const CYCLE: [u8; 2 * PERIOD] = {
    let mut cycle = [0; 2 * PERIOD];
    let mut i = 0;
    while i < 2 * PERIOD {
        cycle[i] = (7 * i % PERIOD) as u8;
        i += 1;
    }
    cycle
};

/// One period, as it runs from byte `within` of chunk `chunk` of `snap`:
/// the window of [`CYCLE`] whose first byte is that byte's value `v`,
/// which starts at `v·36 mod 251` (36 is 7⁻¹ mod 251).
fn period_at(snap: u64, chunk: u64, within: u64) -> &'static [u8] {
    let first = (snap * 131 + chunk * 29 + within * 7) % PERIOD as u64;
    let at = (first * 36 % PERIOD as u64) as usize;
    &CYCLE[at..at + PERIOD]
}

/// Fill `out` with the `len` payload bytes of chunk `chunk` of `snap`.
fn fill_chunk_payload(out: &mut Vec<u8>, snap: u64, chunk: u64, len: usize) {
    out.clear();
    out.extend_from_slice(&period_at(snap, chunk, 0)[..len.min(PERIOD)]);
    while out.len() < len {
        // `out` holds whole periods so far, so its own prefix continues it.
        let more = out.len().min(len - out.len());
        out.extend_from_within(..more);
    }
}

/// Whether `got` is the payload as written from byte `offset` of `snap` on
/// (within one chunk): every byte is compared, against the period in place.
fn payload_matches(got: &[u8], snap: u64, offset: u64, chunk_bytes: u64) -> bool {
    let period = period_at(snap, offset / chunk_bytes, offset % chunk_bytes);
    got.chunks(PERIOD).all(|part| part == &period[..part.len()])
}

/// Execute placement job `id` on a fresh node. A storage error (the workload
/// outgrew the tier stack, a fault outlasted its retry budget) fails the job.
fn execute(
    id: usize,
    job: PlacementJob,
    setup: &PlacementSetup,
) -> Result<PlacementResult, StorageError> {
    let key = job.key();
    let shape = job.workload.shape(setup.scale);
    let mut node = Node::new(HardwareSpec::table1());
    node.set_monitoring_overhead_w(MONITORING_OVERHEAD_W);
    if setup.trace {
        node.set_tracer(grid::begin_run(vec![
            ("workload", Value::label(job.workload.label())),
            ("policy", Value::label(job.policy.label())),
        ]));
    }

    let mut store = TieredStore::new(setup.tier_stack(), job.policy);
    if let Some(plan) = &setup.faults {
        let plan = plan.derive(&key);
        store.set_fault_injectors(
            Some(plan.injector(Site::TierIo, 0)),
            Some(plan.injector(Site::TierMigration, 0)),
        );
    }
    let extra_idle_w = store.idle_w_above_bottom();
    let mut fs = FileSystem::format(store, FsConfig::default());
    if let Some(plan) = &setup.faults {
        fs.set_fault_injector(Some(plan.derive(&key).injector(Site::StorageFsync, 0)));
    }

    let chunks_per_snap = shape.snapshot_bytes / shape.chunk_bytes;
    let chunk_len = shape.chunk_bytes as usize;
    let mut bytes_written = 0u64;
    let mut bytes_read = 0u64;
    let mut verified = true;

    // Write phase: every workload produces its snapshots chunk-by-chunk
    // with a durability barrier per chunk (the paper's I/O discipline).
    let mut data = Vec::with_capacity(chunk_len);
    for snap in 0..shape.snapshots {
        let name = snapshot_name(snap);
        for c in 0..chunks_per_snap {
            fill_chunk_payload(&mut data, snap, c, chunk_len);
            fs.append(&mut node, &name, &data, Phase::Write)?;
            fs.fsync_with_retry(&mut node, &name, Phase::Write)?;
            bytes_written += shape.chunk_bytes;
        }
        fs.device_mut().end_epoch(&mut node, Phase::Write);
    }
    fs.sync(&mut node, Phase::CacheControl);
    fs.drop_caches();

    // Read phase.
    if shape.random_reads > 0 {
        // 8 KiB exploratory pokes over the whole dataset, 80% against the
        // first-fifth hot region, every poke cold: the dataset this models
        // dwarfs the page cache, so placement — not caching — is the only
        // lever. The draw stream is a pure function of the access seed.
        let slots_per_snap = shape.snapshot_bytes / shape.poke_bytes;
        let total_slots = shape.snapshots * slots_per_snap;
        let hot_slots = (total_slots / 5).max(1);
        let mut rng = job.access_seed();
        let mut draw = |n: u64| {
            rng = splitmix64(rng);
            rng % n
        };
        for i in 0..shape.random_reads {
            let slot = if draw(100) < 80 {
                draw(hot_slots)
            } else {
                draw(total_slots)
            };
            let (snap, offset) = (
                slot / slots_per_snap,
                (slot % slots_per_snap) * shape.poke_bytes,
            );
            let got = fs.read(
                &mut node,
                &snapshot_name(snap),
                offset,
                shape.poke_bytes,
                Phase::Read,
            )?;
            bytes_read += got.len() as u64;
            verified &= got.len() as u64 == shape.poke_bytes
                && payload_matches(&got, snap, offset, shape.chunk_bytes);
            fs.drop_caches();
            if shape.epoch_every_reads > 0 && (i + 1) % shape.epoch_every_reads == 0 {
                fs.device_mut().end_epoch(&mut node, Phase::Read);
            }
        }
    } else {
        for _pass in 0..shape.read_passes {
            for snap in 0..shape.snapshots {
                let name = snapshot_name(snap);
                if shape.whole_file_reads {
                    let got = fs.read(&mut node, &name, 0, shape.snapshot_bytes, Phase::Read)?;
                    bytes_read += got.len() as u64;
                    verified &= got.len() as u64 == shape.snapshot_bytes;
                    for (c, chunk) in (0..).zip(got.chunks(chunk_len)) {
                        let offset = c * shape.chunk_bytes;
                        verified &= payload_matches(chunk, snap, offset, shape.chunk_bytes);
                    }
                } else {
                    for c in 0..chunks_per_snap {
                        let got = fs.read(
                            &mut node,
                            &name,
                            c * shape.chunk_bytes,
                            shape.chunk_bytes,
                            Phase::Read,
                        )?;
                        bytes_read += got.len() as u64;
                        let offset = c * shape.chunk_bytes;
                        verified &= got.len() == chunk_len
                            && payload_matches(&got, snap, offset, shape.chunk_bytes);
                    }
                }
                fs.device_mut().end_epoch(&mut node, Phase::Read);
            }
            // Paper §IV-C discipline between passes: nothing warm survives,
            // so tier placement (not the page cache) carries the savings.
            fs.drop_caches();
        }
    }

    let store = fs.device();
    let tiers = store.counters();
    let (promotes, demotes) = (store.promotes(), store.demotes());
    let (migration_faults, io_retries) = (store.migration_faults(), store.io_retries());

    node.finish_trace();
    let tracer = node.tracer().clone();
    let timeline = node.into_timeline();
    let time_s = timeline.end().as_secs_f64();
    let energy_j = timeline.total_energy_j();
    let read_time_s = timeline.phase_duration(Phase::Read).as_secs_f64();
    let read_energy_j = timeline.phase_energy(Phase::Read).system_j();
    let end_ns = timeline.end().as_nanos();
    let (journal, trace_metrics) = grid::finish_run(&tracer, end_ns, time_s, energy_j);

    Ok(PlacementResult {
        id,
        key,
        workload: job.workload.label(),
        policy: job.policy.label(),
        seed: job.access_seed(),
        time_s,
        energy_j,
        avg_power_w: energy_j / time_s.max(1e-300),
        read_time_s,
        read_energy_j,
        extra_tier_idle_j: extra_idle_w * time_s,
        bytes_written,
        bytes_read,
        promotes,
        demotes,
        migration_faults,
        io_retries,
        verified,
        tiers,
        end_ns,
        journal,
        trace_metrics,
    })
}

/// Run the placement grid on `workers` threads; results come back in
/// submission order regardless of scheduling.
///
/// # Errors
/// [`SweepError::DuplicateKey`] when two jobs share a key;
/// [`SweepError::JobFailed`] when a job's storage stack reported an error;
/// [`SweepError::JobPanicked`] when a job panicked (lowest id reported).
pub fn run_placement(
    jobs: Vec<PlacementJob>,
    setup: &PlacementSetup,
    workers: usize,
    on_done: Progress<'_>,
) -> Result<Vec<PlacementResult>, SweepError> {
    let keys: Vec<String> = jobs.iter().map(PlacementJob::key).collect();
    grid::run_grid(&keys, workers, on_done, &|id| {
        execute(id, jobs[id], setup).map_err(|e| e.to_string())
    })
}

/// Read-phase energy ratio random / sequential under `policy`. Under
/// [`PolicyKind::Noop`] it is the Table III cliff at sweep scale (both
/// workloads read the same byte volume, so the ratio is a pure
/// access-pattern effect); under a moving policy, how much of the cliff
/// that policy closes. `None` if either cell is absent.
pub fn gap_ratio_under(results: &[PlacementResult], policy: PolicyKind) -> Option<f64> {
    let cell = |w: PlacementWorkload| {
        results
            .iter()
            .find(|r| r.workload == w.label() && r.policy == policy.label())
            .map(|r| r.read_energy_j)
    };
    Some(cell(PlacementWorkload::RandomAccess)? / cell(PlacementWorkload::SeqScan)?)
}

/// Assemble the placement-sweep journal: schema header, then each traced
/// job's journal in a `job` span, job-id order — byte-identical across
/// worker counts. `None` when no job was traced.
pub fn placement_journal(results: &[PlacementResult]) -> Option<String> {
    grid::journal(results.iter().map(PlacementResult::view))
}

/// Render the placement metrics file (`greenness-metrics/v1`): one labeled
/// registry per traced job, job-id order. `None` when no job was traced.
pub fn placement_metrics_json(results: &[PlacementResult]) -> Option<String> {
    grid::metrics_json(results.iter().map(PlacementResult::view))
}

/// Render the structured placement manifest
/// (`repro_out/placement.json`) — a pure function of the results.
pub fn placement_manifest_json(scale: PlacementScale, results: &[PlacementResult]) -> String {
    let mut s = String::with_capacity(1024 + 768 * results.len());
    s.push_str("{\n  \"schema\": \"greenness-placement-manifest/v1\",\n");
    s.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"jobs\": [\n",
        scale.label()
    ));
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"id\": {},\n", r.id));
        s.push_str(&format!("      \"key\": \"{}\",\n", escape_json(&r.key)));
        s.push_str(&format!("      \"workload\": \"{}\",\n", r.workload));
        s.push_str(&format!("      \"policy\": \"{}\",\n", r.policy));
        s.push_str(&format!("      \"seed\": {},\n", r.seed));
        s.push_str(&format!("      \"time_s\": {:?},\n", r.time_s));
        s.push_str(&format!("      \"energy_j\": {:?},\n", r.energy_j));
        s.push_str(&format!("      \"avg_power_w\": {:?},\n", r.avg_power_w));
        s.push_str(&format!("      \"read_time_s\": {:?},\n", r.read_time_s));
        s.push_str(&format!(
            "      \"read_energy_j\": {:?},\n",
            r.read_energy_j
        ));
        s.push_str(&format!(
            "      \"extra_tier_idle_j\": {:?},\n",
            r.extra_tier_idle_j
        ));
        s.push_str(&format!(
            "      \"bytes_written\": {},\n      \"bytes_read\": {},\n",
            r.bytes_written, r.bytes_read
        ));
        s.push_str(&format!(
            "      \"promotes\": {},\n      \"demotes\": {},\n",
            r.promotes, r.demotes
        ));
        s.push_str(&format!(
            "      \"migration_faults\": {},\n      \"io_retries\": {},\n",
            r.migration_faults, r.io_retries
        ));
        s.push_str(&format!("      \"verified\": {},\n", r.verified));
        s.push_str("      \"tiers\": [");
        for (j, t) in r.tiers.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"bytes_read\": {}, \"bytes_written\": {}, \"hits\": {}}}",
                escape_json(&t.name),
                t.bytes_read,
                t.bytes_written,
                t.hits
            ));
        }
        s.push_str("]\n");
        s.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::silent_progress;

    /// The payload as it was generated before the period was reused: the formula,
    /// byte by byte. `within` shifts it to a poke inside the chunk.
    fn payload_reference(snap: u64, chunk: u64, within: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((snap * 131 + chunk * 29 + (within + i as u64) * 7) % 251) as u8)
            .collect()
    }

    #[test]
    fn period_payload_equals_the_per_byte_formula() {
        let mut out = Vec::new();
        // Every start residue (snap·131 covers all 251) at every edge length.
        for snap in 0..251u64 {
            for len in [0usize, 1, 250, 251, 252, 8_192, 131_072] {
                let chunk = snap % 5;
                fill_chunk_payload(&mut out, snap, chunk, len);
                let want = payload_reference(snap, chunk, 0, len);
                assert_eq!(out, want, "snap {snap} len {len}");
                let offset = chunk * 131_072;
                assert!(payload_matches(&want, snap, offset, 131_072));
            }
        }
        // Every poke offset of a 1 MiB snapshot, as the random reader draws them.
        let (chunk_bytes, poke) = (128 * 1024u64, 8 * 1024u64);
        for snap in [0u64, 3, 250] {
            for offset in (0..1024 * 1024).step_by(poke as usize) {
                let want = payload_reference(
                    snap,
                    offset / chunk_bytes,
                    offset % chunk_bytes,
                    poke as usize,
                );
                assert!(
                    payload_matches(&want, snap, offset, chunk_bytes),
                    "snap {snap} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn payload_check_sees_every_byte() {
        let (snap, offset, chunk_bytes) = (7u64, 3 * 131_072 + 8_192, 131_072u64);
        let good = payload_reference(snap, 3, 8_192, 8_192);
        assert!(payload_matches(&good, snap, offset, chunk_bytes));
        for at in [0usize, 1, 250, 251, 4_095, 8_191] {
            let mut bad = good.clone();
            bad[at] ^= 1;
            assert!(!payload_matches(&bad, snap, offset, chunk_bytes), "{at}");
        }
        assert!(!payload_matches(&good, snap + 1, offset, chunk_bytes));
        assert!(!payload_matches(&good, snap, offset + 8_192, chunk_bytes));
    }

    fn small_run(policy: PolicyKind, workload: PlacementWorkload) -> PlacementResult {
        let mut r = run_placement(
            vec![PlacementJob { workload, policy }],
            &PlacementSetup::default(),
            1,
            &silent_progress(),
        )
        .expect("single job runs");
        r.remove(0)
    }

    #[test]
    fn grid_covers_every_cell_exactly_once() {
        let jobs = placement_grid();
        assert_eq!(jobs.len(), 15);
        let mut keys: Vec<String> = jobs.iter().map(PlacementJob::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 15);
    }

    #[test]
    fn every_cell_reads_back_verified_data() {
        let setup = PlacementSetup::default();
        let results =
            run_placement(placement_grid(), &setup, 4, &silent_progress()).expect("grid runs");
        assert_eq!(results.len(), 15);
        for r in &results {
            assert!(r.verified, "{} read back corrupted data", r.key);
            assert!(r.bytes_read > 0, "{} read nothing", r.key);
        }
    }

    #[test]
    fn noop_gap_reproduces_the_table3_cliff_direction() {
        let setup = PlacementSetup::default();
        let results =
            run_placement(placement_grid(), &setup, 4, &silent_progress()).expect("grid runs");
        let ratio = gap_ratio_under(&results, PolicyKind::Noop).expect("both cells present");
        assert!(
            ratio > 10.0,
            "random/seq read-energy ratio {ratio} too small for a 7200 rpm bottom tier"
        );
    }

    #[test]
    fn placement_policies_close_the_random_access_gap() {
        let noop = small_run(PolicyKind::Noop, PlacementWorkload::RandomAccess);
        let freq = small_run(PolicyKind::FreqRecency, PlacementWorkload::RandomAccess);
        let greedy = small_run(PolicyKind::EnergyGreedy, PlacementWorkload::RandomAccess);
        assert_eq!(noop.promotes, 0);
        assert!(freq.promotes > 0, "freq-recency must promote the hot set");
        assert!(
            greedy.promotes > 0,
            "energy-greedy must promote the hot set"
        );
        assert!(
            freq.energy_j < noop.energy_j,
            "freq-recency {} J !< noop {} J",
            freq.energy_j,
            noop.energy_j
        );
        assert!(
            greedy.energy_j < noop.energy_j,
            "energy-greedy {} J !< noop {} J",
            greedy.energy_j,
            noop.energy_j
        );
    }

    #[test]
    fn policies_see_the_identical_access_stream() {
        // Same workload, different policy ⇒ same seed, same logical bytes.
        let a = small_run(PolicyKind::Noop, PlacementWorkload::RandomAccess);
        let b = small_run(PolicyKind::EnergyGreedy, PlacementWorkload::RandomAccess);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.bytes_read, b.bytes_read);
        assert_eq!(a.bytes_written, b.bytes_written);
    }

    #[test]
    fn a_fault_that_outlasts_its_retries_fails_the_job_as_a_value() {
        let setup = PlacementSetup {
            faults: Some(FaultPlan {
                storage_fsync_rate: 1.0,
                ..FaultPlan::with_seed(1)
            }),
            ..PlacementSetup::default()
        };
        let err = run_placement(placement_grid(), &setup, 2, &silent_progress())
            .expect_err("every fsync faults");
        match err {
            SweepError::JobFailed { id, key, .. } => {
                assert_eq!((id, key.as_str()), (0, "case1/noop"))
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
    }

    #[test]
    fn manifest_is_schedule_invariant() {
        let setup = PlacementSetup::default();
        let a = placement_manifest_json(
            setup.scale,
            &run_placement(placement_grid(), &setup, 1, &silent_progress()).expect("ok"),
        );
        let b = placement_manifest_json(
            setup.scale,
            &run_placement(placement_grid(), &setup, 8, &silent_progress()).expect("ok"),
        );
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"greenness-placement-manifest/v1\""));
    }
}
