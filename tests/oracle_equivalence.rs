//! Oracle-equivalence suite: every optimized hot path must stay
//! bit-for-bit the retained straight-line reference it replaced.
//!
//! Sixteen properties are pinned here:
//!
//! * the fast stencil path (including the row-parallel step at any `jobs`
//!   value) is bit-for-bit the naive reference on arbitrary grids,
//!   including the thinnest legal slabs;
//! * the blocked single-pass transpose encoder is bit-for-bit the retained
//!   strided reference on arbitrary payloads;
//! * the table-driven rasterizer (`render_field`: per-frame column taps,
//!   exact colour step table, the same-size path) is byte-for-byte
//!   `render_field_reference` on arbitrary grid and image shapes, ranges
//!   and non-finite cells, its frame holds the PPM the encoder formatted,
//!   and the hashed render returns the FNV-1a chain over those bytes;
//! * the storage path (shared block handles, narrowed zero-fill, incremental
//!   tier bookkeeping) charges a scripted op mix exactly what the copying
//!   implementation charged — clock, energy, cache counters, per-tier
//!   transfers and migrations against values recorded before the change —
//!   and, under a seeded fsync fault plan, what torn and failed commits
//!   charged;
//! * the request path (borrowed request view, span-canonical cache key, slab
//!   LRU) replays a Zipfian stream through a fleet with caches small enough
//!   to evict, plain and under seeded drops and churn, into the very bytes
//!   the owned-tree parser and the queue-of-keys cache produced — responses,
//!   router metrics, every shard's metrics and the report, against digests
//!   recorded before the change;
//! * the cluster grid (the slab view over the one `HeatSolver`, the folded
//!   fabric fault loop) reports, cell by cell, the makespan, energy, image
//!   hash, byte channels and fault counters the cluster's private stencil
//!   and twin fault loops reported, plain and under a seeded fault plan,
//!   against values recorded before they were deleted — and the staging
//!   variants and traced journals the one-function cluster driver produced
//!   before it was split into stage methods;
//! * the seeded streams behind every noisy artifact — the raw generator,
//!   the Wattsup accuracy noise, the scattered allocator and a noisy sweep
//!   manifest — draw what the `rand` stand-in drew, against values recorded
//!   before the workspace took the generator over;
//! * the placement grid (every workload under every tier policy, traced,
//!   plain and under a seeded fault plan) writes the manifest, journal and
//!   metrics file it wrote while the policies were trait objects;
//! * a traced single-node sweep (the benchmark's `journal_audit` cells,
//!   plain and under a seeded fault plan) writes the journal and metrics
//!   file it wrote before the journal writer memoized float text and the
//!   registry kept flat counters — and no journal recorded here holds a
//!   `true`, `false` or negative integer value;
//! * every steering transcript below holds no `cached=` token (the
//!   recordings were made with it dropped), and every steering metrics file
//!   is pinned with its `steer.delta.*` values cut out and listed beside
//!   the digest;
//! * the `greenness bench-serve` replays — serve, fleet and steering
//!   sessions, plain and faulted — write the files they wrote while the
//!   command still had a live TCP mode beside them;
//! * the §V-C estimator splits a case comparison into what it split it
//!   into while it ran Table II's probes itself, and the probes read what
//!   they read then;
//! * every frame byte — the steering CLI's transcript, plain and faulted,
//!   case study 3's in-situ frames and an auto-ranged frame — is what the
//!   renderer wrote while it filled a framebuffer, copied it into a PPM
//!   and hashed the copy in three separate passes;
//! * a steering walk across every boundary of frame reuse (repeated renders
//!   at one step, renders after each kind of adjustment, renders that
//!   advance onto an I/O step) and sixteen interleaved `bench-serve`
//!   sessions write the transcripts they wrote while every render
//!   rasterised its frame;
//! * eight interleaved steering sessions (one a phase behind, one under
//!   another camera range, one under another resolution, then a refused
//!   re-attach and a late session) write, through one engine and through a
//!   4-shard fleet, the transcripts they wrote while each session made its
//!   own frames;
//! * every frame of a three-interval grid (both kinds, `--jobs 1` and `4`,
//!   plain and under a seeded fsync fault plan) and of a `CaseComparison`
//!   pair is what the cells wrote while each rendered every frame itself;
//! * bad command-line input handed to either binary (an invalid solver
//!   config, an unknown artifact, a flag without its value, a fleet of no
//!   shards) is a *usage*
//!   error: exit 2 with a one-line message, before any work runs — and the
//!   `--flag=value` spelling is accepted by every subcommand.

use std::collections::BTreeSet;
use std::process::Command;

use greenness_cluster::{ClusterKind, StagingConfig, WireCodec};
use greenness_codec::transpose::TransposeRle;
use greenness_codec::Codec;
use greenness_core::breakdown::case_savings;
use greenness_core::cluster_sweep::{
    cluster_jobs, cluster_journal, cluster_metrics_json, run_cluster_sweep, ClusterSetup,
};
use greenness_core::placement::{self, PlacementSetup};
use greenness_core::steering::Adjustment;
use greenness_core::{probes, sweep, CaseComparison, ExperimentSetup, PipelineConfig};
use greenness_faults::{fnv1a64, fnv1a64_extend, splitmix64, FaultPlan, Rng, Site};
use greenness_fleet::{fleet_workload, run_fleet_replay, Fleet, FleetConfig};
use greenness_heatsim::{Boundary, Grid, HeatSolver};
use greenness_platform::disk::IoDir;
use greenness_platform::{
    DiskModel, HardwareSpec, Node, Phase, PowerDraw, Segment, SimDuration, SimTime, Timeline,
};
use greenness_power::WattsupMeter;
use greenness_steer::{AttachSpec, EngineConfig, SessionEngine};
use greenness_storage::{
    AllocMode, Block, BlockDevice, CostedDevice, FileSystem, FsConfig, MemBlockDevice, PolicyKind,
    TierSpec, TieredStore,
};
use greenness_trace::hash::{blake2s256, hex, Blake2s256};
use greenness_trace::json::object_spans;
use greenness_trace::Tracer;
use greenness_viz::{
    encode_ppm, render_field, render_field_hashed, render_field_reference, Colormap, RenderOptions,
};
use proptest::prelude::*;

proptest! {
    /// The interior fast path + boundary peeling in `HeatSolver::step` must
    /// reproduce the naive reference exactly — same expression tree, same
    /// rounding — on every shape, boundary, and step count. `Grid` requires
    /// at least one interior cell (>= 3x3), so the thinnest slabs exercised
    /// are 3xN and Nx3: every interior cell is then also boundary-adjacent,
    /// the shape most likely to expose a peeling bug.
    #[test]
    fn fast_stencil_matches_reference_bit_for_bit(shape in any::<u64>(), steps_seed in any::<u64>()) {
        let m = 3 + (shape >> 8) as usize % 10;
        let n = 3 + (shape >> 16) as usize % 10;
        let (nx, ny) = match shape % 3 {
            0 => (3, n),
            1 => (m, 3),
            _ => (m, n),
        };
        let boundary = if shape & 8 == 0 {
            Boundary::Dirichlet(0.25)
        } else {
            Boundary::Neumann
        };
        let steps = 1 + steps_seed % 4;

        let mut cfg = PipelineConfig::default_solver(nx, ny);
        cfg.boundary = boundary;
        let field = Grid::from_fn(nx, ny, |x, y| {
            0.5 + 0.25 * (x * 6.0).sin() * (y * 4.0).cos()
        });
        let mut fast = HeatSolver::new(field.clone(), cfg.clone()).expect("stable config");
        let mut threaded = HeatSolver::new(field.clone(), cfg.clone()).expect("stable config");
        threaded.set_jobs(8);
        let mut naive = HeatSolver::new(field, cfg).expect("stable config");
        for _ in 0..steps {
            fast.step();
            threaded.step();
            naive.step_reference();
        }
        prop_assert_eq!(
            &fast.grid().to_bytes()[..],
            &naive.grid().to_bytes()[..],
            "divergence on {}x{} after {} step(s)", nx, ny, steps
        );
        prop_assert_eq!(
            &threaded.grid().to_bytes()[..],
            &naive.grid().to_bytes()[..],
            "jobs=8 divergence on {}x{} after {} step(s)", nx, ny, steps
        );
    }

    /// The cache-blocked single-pass transpose in `TransposeRle::encode`
    /// must emit the exact bytes of the retained strided reference — the
    /// pinned energy goldens hash these streams — at every length,
    /// including lengths that are not a multiple of the 8-value tile.
    #[test]
    fn blocked_transpose_matches_reference_bit_for_bit(values in proptest::collection::vec(-1e12f64..1e12, 0..200)) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let codec = TransposeRle;
        let fast = codec.encode(&bytes);
        let reference = codec.encode_reference(&bytes).expect("aligned input");
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(codec.decode(&fast).expect("round trip"), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `render_field` hoists the column taps into a per-frame table and maps
    /// colours through an exact step table, or reads the cells directly
    /// when every tap is exact; `render_field_reference` samples and maps
    /// pixel by pixel. Same bytes on every shape (square, thin, non-square
    /// grids; 1x1 images, up- and down-sampling, same size), every colormap,
    /// every kind of range (auto, fixed, empty, inverted, and spans so large
    /// or small that `t` overflows to ±inf or collapses to 0) and with
    /// NaN/±inf cells in the field. `render_field_hashed` draws the same
    /// image and returns the FNV-1a of its PPM bytes, header first, for
    /// several chain seeds.
    #[test]
    fn fast_raster_matches_reference_byte_for_byte(
        shape in any::<u64>(),
        knobs in any::<u64>(),
        cells in proptest::collection::vec(-2.0f64..3.0, 9..64),
    ) {
        let m = 3 + (shape >> 8) as usize % 38;
        let n = 3 + (shape >> 16) as usize % 38;
        let (nx, ny) = match shape % 4 {
            0 => (3, n),
            1 => (m, 3),
            2 => (m, m),
            _ => (m, n),
        };
        let width = 1 + (shape >> 24) as usize % 70;
        let height = match (shape >> 32) % 3 {
            0 => 1,
            1 => width,
            _ => 1 + (shape >> 40) as usize % 70,
        };
        // One case in three draws the grid at its own size, from sizes
        // whose taps are all exact (the same-size path) and sizes whose
        // taps round off a cell (the bilinear loop).
        let (nx, ny, width, height) = if (shape >> 48) % 3 == 0 {
            let sizes = [11, 13, 19, 32, 33, 64];
            let nx = sizes[(shape >> 52) as usize % sizes.len()];
            let ny = sizes[(shape >> 56) as usize % sizes.len()];
            (nx, ny, nx, ny)
        } else {
            (nx, ny, width, height)
        };
        let mut field = Grid::from_fn(nx, ny, |x, y| {
            let k = ((x * 7.0 + y * 13.0) * cells.len() as f64) as usize % cells.len();
            cells[k] + 0.3 * (x * 5.0).sin() * (y * 3.0).cos()
        });
        // Poison up to three cells; bit 2 leaves one field in four finite.
        if knobs & 4 != 0 {
            let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for (k, bad) in poison.iter().enumerate().take((knobs >> 3) as usize % 4) {
                let at = (knobs >> (8 + 8 * k)) as usize;
                field.set(at % nx, (at / nx) % ny, *bad);
            }
        }
        let colormap = [Colormap::Viridis, Colormap::Hot, Colormap::CoolWarm, Colormap::Gray]
            [(knobs & 3) as usize];
        let range = match (knobs >> 32) % 8 {
            0 | 1 => None,
            2 => Some((0.0, 1.0)),
            3 => Some((0.5, 0.5)),
            4 => Some((1.0, -1.0)),
            5 => Some((-f64::MAX, f64::MAX)),
            6 => Some((-1e300, -1e300)),
            _ => Some((1e300, 1e300)),
        };
        let opts = RenderOptions { width, height, colormap, range };
        let fast = render_field(&field, &opts);
        let reference = render_field_reference(&field, &opts);
        prop_assert!(
            fast == reference,
            "{}x{} grid -> {}x{} image, {:?}, range {:?}", nx, ny, width, height, colormap, range
        );
        // The frame holds its PPM: the header the encoder once formatted,
        // then the pixels. The hashed render continues any FNV-1a chain
        // over exactly those bytes.
        let header = format!("P6\n{} {}\n255\n", width, height);
        let ppm = [header.as_bytes(), reference.as_bytes()].concat();
        prop_assert_eq!(fast.ppm(), &ppm[..]);
        for chain in [fnv1a64(&[]), 0, splitmix64(knobs), fnv1a64(&ppm)] {
            let (hashed, hash) = render_field_hashed(&field, &opts, chain);
            prop_assert!(hashed == reference, "hashed render differs from the reference");
            prop_assert_eq!(hash, fnv1a64_extend(chain, &ppm));
        }
    }
}

/// Drive the real binaries: each row is `(binary, args, exit code, stderr
/// needle)`. A CFL-violating or non-finite solver override, an unknown
/// `repro` artifact, a flag missing its value, a fleet of zero shards, a
/// flag `bench-serve` no longer has and a paper artifact asked of
/// `greenness` instead of `repro` must be rejected as usage errors (exit 2,
/// one-line message) without running the workload; the `--flag=value`
/// spelling must work on a subcommand that used to reject it, and a session
/// replay handed a shard count runs through a fleet.
#[test]
fn usage_errors_and_flag_spellings_are_uniform_in_both_binaries() {
    let greenness = env!("CARGO_BIN_EXE_greenness");
    let repro = env!("CARGO_BIN_EXE_repro");
    let transcript = std::env::temp_dir().join(format!("steer-{}.ndjson", std::process::id()));
    let transcript = transcript.to_str().expect("utf-8 temp path");
    let no_shards = "--shards must be at least 1";
    let gone = "usage: greenness";
    let cases: [(&str, &[&str], i32, &str); 14] = [
        (
            repro,
            &["--alpha", "nan", "fig7"],
            2,
            "invalid solver config",
        ),
        (repro, &["--dt", "1e9", "fig7"], 2, "invalid solver config"),
        (
            repro,
            &["--alpha", "-1.0", "table1"],
            2,
            "invalid solver config",
        ),
        (
            repro,
            &["nosuch"],
            2,
            "unknown artifact 'nosuch'; available:",
        ),
        (repro, &["--jobs"], 2, "--jobs needs a value"),
        (greenness, &["case", "1"], 2, gone),
        (greenness, &["sweep"], 2, gone),
        (greenness, &["fio"], 2, gone),
        (greenness, &["probes"], 2, gone),
        (greenness, &["bench-serve", "--shards", "0"], 2, no_shards),
        (greenness, &["steer", "--shards=0"], 2, no_shards),
        (
            greenness,
            &["bench-serve", "--sessions", "2", "--shards", "2"],
            0,
            "20 session op(s) through 2 shard(s): 20 ok",
        ),
        (greenness, &["bench-serve", "--replay"], 2, gone),
        (
            greenness,
            &["steer", "--jobs=2", "--out", transcript],
            0,
            "op(s) ok",
        ),
    ];
    for (bin, args, code, needle) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{bin} {args:?} must exit {code}, got {:?}; stderr: {stderr}",
            out.status
        );
        assert!(stderr.contains(needle), "{bin} {args:?} stderr: {stderr}");
    }
    std::fs::remove_file(transcript).expect("steer wrote its transcript");
}

/// What the storage transcript needs of a device beyond [`CostedDevice`].
trait Scripted: CostedDevice {
    /// An epoch boundary, where the device has them.
    fn end_epoch(&mut self, _node: &mut Node) {}

    /// Per-tier transfer totals and migrations, where the device has them.
    fn summary(&self) -> String {
        String::new()
    }
}

impl Scripted for MemBlockDevice {}

impl Scripted for TieredStore {
    fn end_epoch(&mut self, node: &mut Node) {
        TieredStore::end_epoch(self, node, Phase::CacheControl);
    }

    fn summary(&self) -> String {
        let per_tier: Vec<String> = self
            .counters()
            .iter()
            .map(|t| format!("{}/{}/{}", t.bytes_read, t.bytes_written, t.hits))
            .collect();
        format!(
            " [{}] +{} -{}",
            per_tier.join(" "),
            self.promotes(),
            self.demotes()
        )
    }
}

/// A tiered store that never hears about deleted blocks — what every device
/// was before `BlockDevice::discard_block` existed. At the recorded commit a
/// deleted file's blocks stayed mapped, scored and on their tier, so the
/// recording's post-delete lines are reproducible only through this.
struct KeepDeleted(TieredStore);

impl BlockDevice for KeepDeleted {
    fn block_count(&self) -> u64 {
        self.0.block_count()
    }
    fn read_block(&self, idx: u64) -> Block {
        self.0.read_block(idx)
    }
    fn write_block(&mut self, idx: u64, block: Block) {
        self.0.write_block(idx, block);
    }
    fn discard_block(&mut self, _idx: u64) {}
}

impl CostedDevice for KeepDeleted {
    fn charge_transfer(&mut self, node: &mut Node, blocks: &[u64], dir: IoDir, phase: Phase) {
        self.0.charge_transfer(node, blocks, dir, phase);
    }
    fn charge_barrier(&mut self, node: &mut Node, seeks: u32, blocks: &[u64], phase: Phase) {
        self.0.charge_barrier(node, seeks, blocks, phase);
    }
}

impl Scripted for KeepDeleted {
    fn end_epoch(&mut self, node: &mut Node) {
        Scripted::end_epoch(&mut self.0, node);
    }
    fn summary(&self) -> String {
        self.0.summary()
    }
}

/// One scripted storage run, boiled down to everything the journals and
/// manifests are computed from: virtual clock, total energy, page-cache
/// counters, per-tier transfer totals, migrations, and a checksum over every
/// byte read back. Two lines: the state after 200 delete-free steps, and the
/// state after 120 more with deletes (and reuse of the freed blocks) live.
///
/// Every fsync goes through `fsync_with_retry`, which is one plain `fsync`
/// unless `faults` installs the plan's fsync schedule. Then the run is
/// traced, and the second value counts the injected commits that tore and
/// those that failed clean. `label` names the device in each line: `flat`,
/// or the tiered store's policy.
fn storage_transcript<D: Scripted>(
    seed: u64,
    label: &str,
    dev: D,
    faults: Option<FaultPlan>,
) -> ([String; 2], [usize; 2]) {
    let mut node = Node::new(HardwareSpec::table1());
    let mut fs = FileSystem::format(dev, FsConfig::default());
    if let Some(plan) = faults {
        node.set_tracer(Tracer::jsonl());
        fs.set_fault_injector(Some(plan.injector(Site::StorageFsync, 0)));
    }
    let mut rng = seed;
    let mut draw = |n: u64| {
        rng = splitmix64(rng);
        rng % n
    };
    let mut read_sum = 0u64;
    let line = |node: &Node, fs: &FileSystem<D>, read_sum: u64| {
        let c = fs.cache_stats();
        format!(
            "{} {:016x} {}/{}/{}/{} {label}{} {read_sum:016x}",
            node.now().as_nanos(),
            node.timeline().total_energy_j().to_bits(),
            c.hits,
            c.misses,
            c.writebacks,
            c.evictions,
            fs.device().summary(),
        )
    };
    let mut before_deletes = String::new();
    for tag in 0..320u64 {
        if tag == 200 {
            before_deletes = line(&node, &fs, read_sum);
        }
        let name = format!("f{}", draw(4));
        let payload = |len: u64| -> Vec<u8> {
            (0..len)
                .map(|i| ((i * 7 + tag * 131) % 251) as u8)
                .collect()
        };
        match draw(16) {
            0..=3 => {
                let (offset, len) = (draw(256 * 1024), 1 + draw(96 * 1024));
                fs.write(&mut node, &name, offset, &payload(len), Phase::Write)
                    .expect("write fits");
            }
            4..=6 => {
                let len = [128 * 1024, 4096, 1 + draw(40_000)][draw(3) as usize];
                fs.append(&mut node, &name, &payload(len), Phase::Write)
                    .expect("append fits");
            }
            7 | 8 if fs.exists(&name) => {
                fs.fsync_with_retry(&mut node, &name, Phase::Write)
                    .expect("fsync");
            }
            9 => fs.sync(&mut node, Phase::CacheControl),
            10 => {
                fs.drop_caches();
            }
            11..=13 if fs.exists(&name) => {
                let size = fs.size(&name).expect("exists");
                let (offset, len) = (draw(size + 1), 1 + draw(300 * 1024));
                let got = fs
                    .read(&mut node, &name, offset, len, Phase::Read)
                    .expect("offset within the file");
                read_sum = fnv1a64_extend(read_sum ^ got.len() as u64, &got);
            }
            14 if tag >= 200 && fs.exists(&name) => fs.delete(&name).expect("exists"),
            15 => fs.device_mut().end_epoch(&mut node),
            _ => {}
        }
    }
    let modes = node.tracer().drain().map_or([0, 0], |out| {
        ["torn", "transient"].map(|mode| {
            let needle = format!("\"site\":\"storage.fsync\",\"mode\":\"{mode}\"");
            out.journal.matches(&needle).count()
        })
    });
    ([before_deletes, line(&node, &fs, read_sum)], modes)
}

/// The storage path's cost transcript: a scripted mix of write / append /
/// fsync / sync / drop_caches / read / delete (and epoch boundaries on the
/// tiered store) per seed, over the flat device and over the DRAM → NVMe →
/// HDD stack under each policy. Every line of `RECORDED` was produced by this
/// script on the commit *before* blocks became shared handles, the zero-fill
/// was narrowed and the tier bookkeeping went incremental (PR 17's tree), so
/// a storage optimisation that moves virtual time, a joule, a cache counter
/// or a migration by one fails here.
///
/// The one intended difference is the discard hook: a real `TieredStore` now
/// unmaps deleted blocks, so its post-delete lines (`AFTER_DISCARD`, recorded
/// on this commit) differ from the recording, which [`KeepDeleted`] still
/// reproduces line for line. Nothing on a flat device's cost depends on it.
///
/// The faulted rows (`FAULTED`) run the same script on the flat device and
/// on the stack under `freq-recency` with `FaultPlan::with_seed(seed)`'s
/// fsync schedule, so a failed commit's partial writeback and barrier are
/// pinned on both kinds of device.
#[test]
fn storage_cost_transcript_matches_the_pre_optimisation_recording() {
    const MIB: u64 = 1024 * 1024;
    let flat = || MemBlockDevice::with_capacity_bytes(64 * MIB);
    let store = |policy: PolicyKind| {
        let stack = vec![
            TierSpec::new("dram", DiskModel::dram_tier_32gb(), MIB),
            TierSpec::new("nvme", DiskModel::nvme_ssd_1tb(), 4 * MIB),
            TierSpec::new("hdd", DiskModel::seagate_7200rpm_500gb(), 64 * MIB),
        ];
        TieredStore::new(stack, policy)
    };
    let mut recorded = RECORDED.iter();
    let mut after_discard = AFTER_DISCARD.iter();
    let mut faulted = FAULTED.iter();
    let mut modes = [0, 0];
    for seed in [1u64, 7, 42] {
        let (lines, _) = storage_transcript(seed, "flat", flat(), None);
        assert_eq!(&lines, recorded.next().expect("a row per device"));
        for policy in PolicyKind::ALL {
            let want = recorded.next().expect("a row per device");
            let (lines, _) =
                storage_transcript(seed, policy.label(), KeepDeleted(store(policy)), None);
            assert_eq!(&lines, want);
            let ([before_deletes, after_deletes], _) =
                storage_transcript(seed, policy.label(), store(policy), None);
            assert_eq!(before_deletes, want[0]);
            assert_eq!(
                &after_deletes,
                after_discard.next().expect("a row per store")
            );
        }
        let plan = Some(FaultPlan::with_seed(seed));
        for (lines, [torn, transient]) in [
            storage_transcript(seed, "flat", flat(), plan),
            storage_transcript(
                seed,
                PolicyKind::FreqRecency.label(),
                store(PolicyKind::FreqRecency),
                plan,
            ),
        ] {
            assert_eq!(&lines, faulted.next().expect("a faulted row per device"));
            modes = [modes[0] + torn, modes[1] + transient];
        }
    }
    assert!(
        modes.iter().all(|&n| n > 0),
        "the faulted rows must tear some commits and fail others clean: {modes:?}"
    );
}

/// Recorded at commit `f7214b8`: per seed, the flat device then the
/// `freq-recency` stack, each under `FaultPlan::with_seed(seed)`.
const FAULTED: [[&str; 2]; 6] = [
    [
        "4600270217 40807ea83978da22 721/417/1293/1134 flat 341089bdf39ab012",
        "7138237725 40899918d395b60b 1132/584/2001/1940 flat 5ddef8e8d60973a8",
    ],
    [
        "3136765424 40774de70d3126fe 721/417/1293/1134 freq-recency [2162688/4059136/573 1761280/3297280/371 2834432/2990080/766] +875 -358 341089bdf39ab012",
        "5971732962 40862e6943b520dc 1132/584/2001/1940 freq-recency [2793472/5808128/759 2125824/3645440/469 4141056/5410816/1357] +1213 -415 5ddef8e8d60973a8",
    ],
    [
        "4265406731 407e959454390221 1012/365/1417/1188 flat f9f12f4ad634fdb3",
        "7002396135 40891c3da08dd598 1215/814/2093/2131 flat a973c05357e6bfbc",
    ],
    [
        "4104324234 407e7d89b33ef053 1012/365/1417/1188 freq-recency [1851392/3477504/449 1183744/3166208/454 2609152/3309568/879] +702 -311 f9f12f4ad634fdb3",
        "6289273170 40875ccc35825b8a 1215/814/2093/2131 freq-recency [3825664/5959680/647 3477504/5918720/859 4497408/5160960/1401] +1363 -704 a973c05357e6bfbc",
    ],
    [
        "5972236721 40856bd67479b758 273/867/1334/1787 flat d4c14c45dde5b7b4",
        "8293880718 408dc0044d97daae 435/1318/1898/3109 flat 497d07e808d3dbcb",
    ],
    [
        "4734742616 4081953d7c58b361 273/867/1334/1787 freq-recency [1662976/2543616/581 1110016/2236416/309 4136960/4042752/1311] +712 -108 d4c14c45dde5b7b4",
        "6627628990 40889df4ea4588ee 435/1318/1898/3109 freq-recency [3350528/5238784/915 2957312/3969024/547 6152192/5627904/1754] +1402 -322 497d07e808d3dbcb",
    ],
];

/// Recorded on PR 17's tree: per seed, the flat device then the three
/// policies; per device, the line before the first delete and the last line.
const RECORDED: [[&str; 2]; 12] = [
    [
        "4442270217 407fdbce9b15bfbc 721/417/1293/1134 flat 341089bdf39ab012",
        "6824237725 40887944a7591720 1132/584/2001/1940 flat 5ddef8e8d60973a8",
    ],
    [
        "4431936883 4080725ac0fa7ada 721/417/1293/1134 noop [0/0/0 0/0/0 1708032/5296128/1710] +0 -0 341089bdf39ab012",
        "6844904391 40896701b87f0ffe 1132/584/2001/1940 noop [0/0/0 0/0/0 2392064/8196096/2585] +0 -0 5ddef8e8d60973a8",
    ],
    [
        "2978765424 407622aad71ff2f9 721/417/1293/1134 freq-recency [2162688/4059136/573 1761280/3297280/371 2834432/2990080/766] +875 -358 341089bdf39ab012",
        "3668780866 407b4393b42672ea 1132/584/2001/1940 freq-recency [4288512/6967296/940 3850240/6819840/879 2834432/2990080/766] +1306 -789 5ddef8e8d60973a8",
    ],
    [
        "4690956876 408165f4abcc8dcd 721/417/1293/1134 energy-greedy [184320/1224704/206 0/0/0 2088960/4636672/1504] +138 -0 341089bdf39ab012",
        "7157600208 408a8b5f739b3519 1132/584/2001/1940 energy-greedy [389120/2572288/537 0/0/0 2764800/6385664/2048] +186 -0 5ddef8e8d60973a8",
    ],
    [
        "4109406731 407d776dd39bb8d0 1012/365/1417/1188 flat f9f12f4ad634fdb3",
        "6846396135 40888d2a603f30f0 1215/814/2093/2131 flat a973c05357e6bfbc",
    ],
    [
        "4057740065 407e1cf9564912ec 1012/365/1417/1188 noop [0/0/0 0/0/0 1495040/5804032/1782] +0 -0 f9f12f4ad634fdb3",
        "6761896135 4089182c307958f7 1215/814/2093/2131 noop [0/0/0 0/0/0 3334144/8572928/2907] +0 -0 a973c05357e6bfbc",
    ],
    [
        "3948324234 407d55a8d46c6786 1012/365/1417/1188 freq-recency [1851392/3477504/449 1183744/3166208/454 2609152/3309568/879] +702 -311 f9f12f4ad634fdb3",
        "4916209525 408243faf0a9b2f8 1215/814/2093/2131 freq-recency [4427776/6610944/829 4218880/7442432/1097 3792896/3624960/981] +1405 -818 a973c05357e6bfbc",
    ],
    [
        "4151425759 407eceae91b77686 1012/365/1417/1188 energy-greedy [8192/110592/5 0/0/0 1585152/5791744/1777] +24 -0 f9f12f4ad634fdb3",
        "6982229159 4089e75ff9a032f8 1215/814/2093/2131 energy-greedy [225280/1777664/263 0/0/0 4034560/7720960/2644] +226 -0 a973c05357e6bfbc",
    ],
    [
        "5627403388 40842ff2bce99fb9 273/867/1334/1787 flat d4c14c45dde5b7b4",
        "7949047385 408c84209607c30f 435/1318/1898/3109 flat 497d07e808d3dbcb",
    ],
    [
        "5627403388 4084e3f275fcfd3c 273/867/1334/1787 noop [0/0/0 0/0/0 3551232/5464064/2201] +0 -0 d4c14c45dde5b7b4",
        "8005880719 408db86fc06abae8 435/1318/1898/3109 noop [0/0/0 0/0/0 5398528/7774208/3216] +0 -0 497d07e808d3dbcb",
    ],
    [
        "4473407883 40809de524f210ba 273/867/1334/1787 freq-recency [1662976/2543616/581 1110016/2236416/309 4136960/4042752/1311] +712 -108 d4c14c45dde5b7b4",
        "5198447251 408350094d13e6a8 435/1318/1898/3109 freq-recency [4362240/5910528/1076 4280320/5906432/822 4870144/4071424/1318] +1380 -601 497d07e808d3dbcb",
    ],
    [
        "5358538843 4083e36590c0db25 273/867/1334/1787 energy-greedy [327680/1486848/239 0/0/0 4059136/4812800/1962] +204 -0 d4c14c45dde5b7b4",
        "7648285194 408c62fc3df93356 435/1318/1898/3109 energy-greedy [868352/2908160/692 0/90112/0 5562368/5808128/2524] +252 -0 497d07e808d3dbcb",
    ],
];

/// Recorded on this commit: the last line of each tiered run above, with
/// deleted blocks unmapped.
const AFTER_DISCARD: [&str; 9] = [
    "6814404392 40894a67b0db94f3 1132/584/2001/1940 noop [0/0/0 0/0/0 2392064/8196096/2585] +0 -0 5ddef8e8d60973a8",
    "5657732962 408504dab9434273 1132/584/2001/1940 freq-recency [2793472/5808128/759 2125824/3645440/469 4141056/5410816/1357] +1213 -415 5ddef8e8d60973a8",
    "7126948785 408a70abb34805ff 1132/584/2001/1940 energy-greedy [311296/1392640/268 0/0/0 2686976/7409664/2317] +148 -0 5ddef8e8d60973a8",
    "6798070431 40893a18dd6d97f3 1215/814/2093/2131 noop [0/0/0 0/0/0 3334144/8572928/2907] +0 -0 a973c05357e6bfbc",
    "6133273170 4086c8dbc6191722 1215/814/2093/2131 freq-recency [3825664/5959680/647 3477504/5918720/859 4497408/5160960/1401] +1363 -704 a973c05357e6bfbc",
    "7028310622 408a13659dd31f75 1215/814/2093/2131 energy-greedy [118784/1392640/149 0/0/0 4116480/8081408/2758] +220 -0 a973c05357e6bfbc",
    "8073547387 408df838e8112d29 435/1318/1898/3109 noop [0/0/0 0/0/0 5398528/7774208/3216] +0 -0 497d07e808d3dbcb",
    "6366294257 4087a69c92dee648 435/1318/1898/3109 freq-recency [3350528/5238784/915 2957312/3969024/547 6152192/5627904/1754] +1402 -322 497d07e808d3dbcb",
    "7682186957 408c82aa91d99939 435/1318/1898/3109 energy-greedy [663552/2043904/417 0/0/0 5734400/6729728/2799] +244 -0 497d07e808d3dbcb",
];

/// Everything a fleet replay produces, under per-shard caches of 24 KiB (so
/// the LRU evicts: which keys survive decides every later hit, miss and
/// fill), for workload-and-ring seeds 42 and 7, each plain and under the
/// seeded fault plan (connection drops, slow handlers, shard churn with
/// rebalancing). A cache key that moved, a reply that changed a byte, an
/// eviction out of order or a counter off by one changes a digest.
#[test]
fn fleet_replay_output_matches_the_pre_borrowed_request_recording() {
    let mut recorded = REPLAY_RECORDED.iter();
    for seed in [42u64, 7] {
        for faults in [None, Some(FaultPlan::with_seed(seed))] {
            let out = run_fleet_replay(
                FleetConfig {
                    jobs: 1,
                    ring_seed: seed,
                    cache_bytes: 24 << 10,
                    faults,
                    ..FleetConfig::default()
                },
                &fleet_workload(3000, 1024, 1.1, seed),
                20_000.0,
            );
            let mut digest = Blake2s256::default();
            for artifact in [
                &out.responses,
                &out.fleet_metrics,
                &out.shard_metrics,
                &out.report,
            ] {
                digest.update(&(artifact.len() as u64).to_le_bytes());
                digest.update(artifact.as_bytes());
            }
            assert_eq!(
                hex(&digest.finalize()),
                *recorded.next().expect("a digest per run"),
                "seed {seed}, faulted {}",
                faults.is_some()
            );
            if faults.is_none() {
                assert!(out.shard_metrics.contains("serve.cache.evictions"));
            }
        }
    }
}

/// Recorded on PR 20's tree (`6056b05`): per seed, the plain run then the
/// faulted one.
const REPLAY_RECORDED: [&str; 4] = [
    "3045578f99f60263d0b5ea3c5ca4982190bc146d0f525b95e5b1a58336d9113d",
    "0f96bf393ff23149bd76694e73db620f47819491f1cac91281652672b888ff2d",
    "bdc2461a5e035e0fba95abaae7b78ddbbb595afbd2efd53686bc675065143a0c",
    "aaecabc0dd9aa8403d2ec59e959193ce1ac3570651ecc44991800d928226875a",
];

/// One line per cell of the cluster grid as `greenness cluster` runs it: the
/// nine case-study cells on the raw wire, then the three in-transit cells
/// under `quant8` — key, makespan and energy bit patterns, image hash, fabric
/// and PFS bytes, and the [`greenness_cluster::FaultSummary`] counters.
fn cluster_transcript(faults: Option<FaultPlan>) -> Vec<String> {
    let wire = |wire_codec| StagingConfig {
        wire_codec,
        ..StagingConfig::default()
    };
    staged_transcript(
        &[
            (wire(WireCodec::None), None),
            (wire(WireCodec::Quant8), Some(ClusterKind::InTransit)),
        ],
        faults,
    )
}

/// [`cluster_transcript`]'s rows for each `(staging, kind filter)` sweep.
fn staged_transcript(
    sweeps: &[(StagingConfig, Option<ClusterKind>)],
    faults: Option<FaultPlan>,
) -> Vec<String> {
    let mut rows = Vec::new();
    for &(staging, kind) in sweeps {
        let wire_codec = staging.wire_codec;
        let setup = ClusterSetup {
            staging,
            faults,
            trace: false,
        };
        let results = run_cluster_sweep(cluster_jobs(kind), &setup, 1, &|_, _, _| {})
            .expect("every cell completes");
        for r in results {
            let (rep, f) = (&r.report, &r.summary);
            rows.push(format!(
                "{}/{} {:016x} {:016x} {:016x} {} {} {}/{}/{}/{}/{}/{}",
                r.key,
                wire_codec.label(),
                rep.makespan_s.to_bits(),
                rep.total_energy_j.to_bits(),
                rep.image_hash,
                rep.fabric_bytes,
                rep.pfs_bytes,
                f.storage_faults,
                f.storage_retries,
                f.fabric_drops,
                f.fabric_delays,
                f.fabric_retries,
                f.staging_torn_renders,
            ));
        }
    }
    rows
}

/// The parent's `decomposed_matches_single_node_bitwise` proved the cluster's
/// own stencil and `HeatSolver::step` agree; this recording proves that
/// deleting the former moved nothing downstream of the field — no virtual
/// second, joule, pixel, byte or fault slot.
#[test]
fn cluster_grid_matches_the_pre_slab_view_recording() {
    assert_eq!(cluster_transcript(None), CLUSTER_RECORDED[0]);
    assert_eq!(
        cluster_transcript(Some(FaultPlan::with_seed(11))),
        CLUSTER_RECORDED[1]
    );
}

/// The staging configurations [`cluster_transcript`] leaves out — a
/// synchronous queue, two stagers (which every kind allocates, so the whole
/// grid), the lossless wire codec — plain and under `--fault-seed 11`, and
/// a digest of the traced sweep's journal and metrics file for the plain
/// grid and for `--fault-seed 11 --wire-codec quant8`. A charge, fault slot
/// or trace event that moves by one place changes a row or a digest.
#[test]
fn cluster_staging_variants_and_journals_match_the_recording() {
    let transit = Some(ClusterKind::InTransit);
    let sweeps = [
        (
            StagingConfig {
                queue_depth: 0,
                ..StagingConfig::default()
            },
            transit,
        ),
        (
            StagingConfig {
                staging_nodes: 2,
                ..StagingConfig::default()
            },
            None,
        ),
        (
            StagingConfig {
                wire_codec: WireCodec::DeltaRle,
                ..StagingConfig::default()
            },
            transit,
        ),
    ];
    let mut rows = staged_transcript(&sweeps, None);
    rows.extend(staged_transcript(&sweeps, Some(FaultPlan::with_seed(11))));
    assert_eq!(rows, STAGING_RECORDED);

    let journals: Vec<String> = [
        (WireCodec::None, None),
        (WireCodec::Quant8, Some(FaultPlan::with_seed(11))),
    ]
    .into_iter()
    .map(|(wire_codec, faults)| {
        let setup = ClusterSetup {
            staging: StagingConfig {
                wire_codec,
                ..StagingConfig::default()
            },
            faults,
            trace: true,
        };
        let results = run_cluster_sweep(cluster_jobs(None), &setup, 1, &|_, _, _| {})
            .expect("every cell completes");
        let journal = cluster_journal(&results).expect("a traced sweep");
        let (injected, lanes) = journal_census(&journal);
        assert_eq!(injected > 0, faults.is_some(), "fault.injected instants");
        assert!(lanes > 1, "one lane per node, not {lanes}");
        let mut digest = Blake2s256::default();
        for artifact in [Some(journal), cluster_metrics_json(&results)] {
            let artifact = artifact.expect("a traced sweep has both");
            digest.update(&(artifact.len() as u64).to_le_bytes());
            digest.update(artifact.as_bytes());
        }
        hex(&digest.finalize())
    })
    .collect();
    assert_eq!(journals, JOURNAL_RECORDED);
}

/// Recorded at commit `f12f497`, before the cluster driver was split into
/// stages: the three sweeps plain, then under `--fault-seed 11`.
const STAGING_RECORDED: [&str; 30] = [
    "case1:intransit/none 4040ed4d70baecea 40d99f6a3c525c35 5f1ce5c6559c40e4 8388608 3145968 0/0/0/0/0/0",
    "case2:intransit/none 40343db8d537ef1e 40cf510a68fb23e3 1ad9458c65c9ea1a 4194304 1572984 0/0/0/0/0/0",
    "case3:intransit/none 4024101e9812fe2c 40c05eb2dd3bf47f a11d15c4724ef9ca 1048576 393246 0/0/0/0/0/0",
    "case1:post/none 4043a06831e4f6dd 40e0db23994e2b12 5f1ce5c6559c40e4 0 8388608 0/0/0/0/0/0",
    "case1:insitu/none 402af6126c7a62d9 40c878962f38a6a2 95e7d0ac5295d3ec 0 3146624 0/0/0/0/0/0",
    "case1:intransit/none 402aead87ba407a9 40c8c09fdbeb941e 5f1ce5c6559c40e4 8388608 3145968 0/0/0/0/0/0",
    "case2:post/none 4036f0d39661f911 40d40add7ccddd43 1ad9458c65c9ea1a 0 4194304 0/0/0/0/0/0",
    "case2:insitu/none 40241bdfff3735d5 40c29bbede9bb7b2 a33a8b3e578a938e 0 1573312 0/0/0/0/0/0",
    "case2:intransit/none 40231b9b474c4d69 40c1f2583b6b1a56 1ad9458c65c9ea1a 4194304 1572984 0/0/0/0/0/0",
    "case3:post/none 402569abf8a80325 40c3949c68e60536 a11d15c4724ef9ca 0 1048576 0/0/0/0/0/0",
    "case3:insitu/none 401df0745a89a824 40bc6c3ac44c0902 31d69fe0e8358592 0 393328 0/0/0/0/0/0",
    "case3:intransit/none 4021026dae7ba057 40bfd875a0414d60 a11d15c4724ef9ca 1048576 393246 0/0/0/0/0/0",
    "case1:intransit/delta-rle 4038a7fa65c4217a 40d3051b5e238da6 5f1ce5c6559c40e4 8061528 3145968 0/0/0/0/0/0",
    "case2:intransit/delta-rle 402a2103b5dbde51 40c5045091b3c65c 1ad9458c65c9ea1a 4030693 1572984 0/0/0/0/0/0",
    "case3:intransit/delta-rle 4020ee1057de5ab6 40bc3e302fd966f3 a11d15c4724ef9ca 1007573 393246 0/0/0/0/0/0",
    "case1:intransit/none 404175868e86e356 40da681da3872960 5f1ce5c6559c40e4 8388608 3145968 3/3/3/9/3/2",
    "case2:intransit/none 4034e84e4416ec67 40d025935404588f 1ad9458c65c9ea1a 4194304 1572984 0/0/4/3/4/1",
    "case3:intransit/none 402414a40c16ed35 40c061f7059c1ae6 a11d15c4724ef9ca 1048576 393246 0/0/1/2/1/0",
    "case1:post/none 4044021ed9679873 40e12c8e85620080 5f1ce5c6559c40e4 0 8388608 6/6/4/7/4/0",
    "case1:insitu/none 402c473769dfd3cc 40c990498ed2b011 95e7d0ac5295d3ec 0 3146624 7/7/2/1/2/0",
    "case1:intransit/none 402d03595a282e61 40ca82f872862544 5f1ce5c6559c40e4 8388608 3145968 3/3/3/9/3/2",
    "case2:post/none 4037395d84da33ac 40d4474843ef41de 1ad9458c65c9ea1a 0 4194304 1/1/4/7/4/0",
    "case2:insitu/none 4024f5ce01efde0e 40c35092a56f4833 a33a8b3e578a938e 0 1573312 4/4/5/6/5/0",
    "case2:intransit/none 4023d7b56244652c 40c291f6756a1147 1ad9458c65c9ea1a 4194304 1572984 0/0/4/3/4/1",
    "case3:post/none 40256f3791892149 40c3992df94b8a61 a11d15c4724ef9ca 0 1048576 0/0/1/3/1/0",
    "case3:insitu/none 401e08af07c87ee8 40bc802eb181734a 31d69fe0e8358592 0 393328 0/0/2/7/2/0",
    "case3:intransit/none 402106f3227f8f60 40bfdfeb156d021a a11d15c4724ef9ca 1048576 393246 0/0/1/2/1/0",
    "case1:intransit/delta-rle 4039b523c27ce7b2 40d3cb6c5dc45d6e 5f1ce5c6559c40e4 8061528 3145968 3/3/3/9/3/2",
    "case2:intransit/delta-rle 402b171b61409de6 40c5ba30992653a9 1ad9458c65c9ea1a 4030693 1572984 0/0/4/3/4/1",
    "case3:intransit/delta-rle 4020f295cbe249bf 40bc44b88099b3c2 a11d15c4724ef9ca 1007573 393246 0/0/1/2/1/0",
];

/// Recorded at commit `f12f497`: the plain traced grid, then
/// `--fault-seed 11 --wire-codec quant8`.
const JOURNAL_RECORDED: [&str; 2] = [
    "eacf74839ac3fa04b653cf7bc4fb54f4b65a3af2085c36e85e06446928d6b92c",
    "4ec4f7caec14361ea852978e6450a105f625a6b9026e4ec00641c087f0979beb",
];

/// Recorded on PR 21's tree (`6cd2f11`): the plain grid, then `--fault-seed 11`.
const CLUSTER_RECORDED: [[&str; 12]; 2] = [
    [
        "case1:post/none 4043a06831e4f6dd 40ddb0dd0cc9c68f 5f1ce5c6559c40e4 0 8388608 0/0/0/0/0/0",
        "case1:insitu/none 402af6126c7a62d9 40c5b58758dbd041 95e7d0ac5295d3ec 0 3146624 0/0/0/0/0/0",
        "case1:intransit/none 40391695f6aa7466 40d3564068da5b58 5f1ce5c6559c40e4 8388608 3145968 0/0/0/0/0/0",
        "case2:post/none 4036f0d39661f911 40d1b13e9cb94720 1ad9458c65c9ea1a 0 4194304 0/0/0/0/0/0",
        "case2:insitu/none 40241bdfff3735d5 40c08c63d916afcf a33a8b3e578a938e 0 1573312 0/0/0/0/0/0",
        "case2:intransit/none 402a9150e22bead1 40c556acc0929d02 1ad9458c65c9ea1a 4194304 1572984 0/0/0/0/0/0",
        "case3:post/none 402569abf8a80325 40c1630f9159cf17 a11d15c4724ef9ca 0 1048576 0/0/0/0/0/0",
        "case3:insitu/none 401df0745a89a824 40b95b127285aef5 31d69fe0e8358592 0 393328 0/0/0/0/0/0",
        "case3:intransit/none 4021026dae7ba057 40bc5c4fdaa812c7 a11d15c4724ef9ca 1048576 393246 0/0/0/0/0/0",
        "case1:intransit/quant8 402e52b4bcad1168 40c81ccb772a9cab fbd5b53e7a5975e4 1050144 3145968 0/0/0/0/0/0",
        "case2:intransit/quant8 40207d0745214fe4 40bbe5a132255297 92bac7e111ba5dfd 525072 1572984 0/0/0/0/0/0",
        "case3:intransit/quant8 401e5ae085552dc9 40b9a6ea44ec173d 5d07f8251e3ac85f 131268 393246 0/0/0/0/0/0",
    ],
    [
        "case1:post/none 4044021ed9679873 40de3fadd252ba9e 5f1ce5c6559c40e4 0 8388608 6/6/4/7/4/0",
        "case1:insitu/none 402c473769dfd3cc 40c6aab11b33bbcc 95e7d0ac5295d3ec 0 3146624 7/7/2/1/2/0",
        "case1:intransit/none 403a23bf53633a9e 40d41c98d53d7d30 5f1ce5c6559c40e4 8388608 3145968 3/3/3/9/3/2",
        "case2:post/none 4037395d84da33ac 40d1e63b0f666786 1ad9458c65c9ea1a 0 4194304 1/1/4/7/4/0",
        "case2:insitu/none 4024f5ce01efde0e 40c12ae46ae2e27a a33a8b3e578a938e 0 1573312 4/4/5/6/5/0",
        "case2:intransit/none 402b87688d90aa65 40c60c9b9b98a0f4 1ad9458c65c9ea1a 4194304 1572984 0/0/4/3/4/1",
        "case3:post/none 40256f3791892149 40c1670fb4cfaaf2 a11d15c4724ef9ca 0 1048576 0/0/1/3/1/0",
        "case3:insitu/none 401e08af07c87ee8 40b96c8af688894a 31d69fe0e8358592 0 393328 0/0/2/7/2/0",
        "case3:intransit/none 402106f3227f8f60 40bc62d82b685f93 a11d15c4724ef9ca 1048576 393246 0/0/1/2/1/0",
        "case1:intransit/quant8 40303683bb0f4eec 40c9a82f9f3bde7f fbd5b53e7a5975e4 1050144 3145968 3/3/3/9/3/2",
        "case2:intransit/quant8 4021731ef0860f79 40bd4ee586c756c1 92bac7e111ba5dfd 525072 1572984 0/0/4/3/4/1",
        "case3:intransit/quant8 401e63eb6d5d0bdb 40b9ad7295ac640d 5d07f8251e3ac85f 131268 393246 0/0/1/2/1/0",
    ],
];

/// The first eight raw words of the seeded generator for three seeds.
fn generator_transcript() -> Vec<String> {
    [0, 2015, 0x9e37_79b9_7f4a_7c15]
        .into_iter()
        .map(|seed| {
            let mut rng = Rng::seeded(seed);
            let words: Vec<String> = (0..8).map(|_| format!("{:016x}", rng.next_u64())).collect();
            words.join(" ")
        })
        .collect()
}

/// A default (noisy) Wattsup log over a fixed 600 s timeline, folded into
/// one FNV-1a digest of every reading's `(t, watts)` bits. The five spans
/// end off the one-second grid, so readings straddle two draws.
fn wattsup_digest() -> (usize, u64) {
    let mut timeline = Timeline::new();
    let mut start_ms = 0;
    for (ms, board_w) in [
        (37_500, 104.9),
        (120_250, 131.7),
        (90_000, 118.2),
        (200_000, 142.0),
        (152_250, 109.5),
    ] {
        timeline.push(Segment {
            start: SimTime::from_nanos(start_ms * 1_000_000),
            duration: SimDuration::from_millis(ms),
            draw: PowerDraw {
                board_w,
                ..PowerDraw::ZERO
            },
            phase: Phase::Other,
        });
        start_ms += ms;
    }
    let log = WattsupMeter::default().sample(&timeline);
    let digest = log.iter().fold(fnv1a64(&[]), |h, (t, w)| {
        let h = fnv1a64_extend(h, &t.to_bits().to_le_bytes());
        fnv1a64_extend(h, &w.to_bits().to_le_bytes())
    });
    (log.len(), digest)
}

/// The device blocks of two files written under the scattered allocator,
/// the second after a third file was deleted and its blocks freed, folded
/// into one FNV-1a digest.
fn scattered_blocks_digest() -> (usize, u64) {
    let mut node = Node::new(HardwareSpec::table1());
    let config = FsConfig {
        alloc_mode: AllocMode::Scattered { seed: 2015 },
    };
    let mut fs = FileSystem::format(MemBlockDevice::new(2048), config);
    for (name, blocks) in [("a", 300), ("b", 150)] {
        let data = vec![7u8; blocks * 4096];
        fs.write(&mut node, name, 0, &data, Phase::Other)
            .expect("room on the device");
    }
    fs.delete("a").expect("a exists");
    fs.write(&mut node, "c", 0, &vec![9u8; 400 * 4096], Phase::Other)
        .expect("room on the device");
    let mut blocks = fs.device_blocks("b").expect("b exists");
    blocks.extend(fs.device_blocks("c").expect("c exists"));
    let digest = blocks
        .iter()
        .fold(fnv1a64(&[]), |h, b| fnv1a64_extend(h, &b.to_le_bytes()));
    (blocks.len(), digest)
}

/// `blake2s256` of the sweep manifest for three small configs under `setup`.
fn small_manifest_digest(setup: &ExperimentSetup) -> String {
    let configs: Vec<_> = [(1u32, 1u64), (2, 2), (3, 8)]
        .into_iter()
        .map(|(n, interval)| (n, PipelineConfig::small(interval)))
        .collect();
    let results = sweep::run_sweep(
        sweep::config_grid(setup, &configs),
        1,
        &sweep::silent_progress(),
    )
    .expect("sweep ok");
    hex(&blake2s256(sweep::manifest_json(&results).as_bytes()))
}

/// The seeded streams behind every noisy artifact — the raw generator, the
/// Wattsup accuracy noise (both uniforms and the Box–Muller step), the
/// scattered allocator's two range draws, and a manifest's `avg_system_w`
/// under the default noisy meter — against values recorded at `f690629`,
/// while they still came from the `rand` stand-in. Any change to seeding,
/// the xoshiro step or a draw's mapping moves one of them.
#[test]
fn seeded_streams_match_the_recording() {
    assert_eq!(generator_transcript(), GENERATOR_RECORDED);
    assert_eq!(wattsup_digest(), WATTSUP_RECORDED);
    assert_eq!(scattered_blocks_digest(), SCATTERED_RECORDED);
    let noisy = small_manifest_digest(&ExperimentSetup::default());
    assert_ne!(
        noisy,
        small_manifest_digest(&ExperimentSetup::noiseless()),
        "the meter noise reaches the manifest"
    );
    assert_eq!(noisy, MANIFEST_RECORDED);
}

/// Recorded at commit `f690629`: seeds 0, 2015 and `0x9e3779b97f4a7c15`.
const GENERATOR_RECORDED: [&str; 3] = [
    "53175d61490b23df 61da6f3dc380d507 5c0fdf91ec9a7bfc 02eebf8c3bbe5e1a 7eca04ebaf4a5eea 0543c37757f08d9a db7490c75ab5026e d87343e6464bc959",
    "6d335627880c16b6 29253e2d9723f5c9 805cae1b548ab3fc 439544d3e6900c72 2b151f5619045e17 20a590b8a154aaf2 607c31c27e0ba9dc be7ed62bad21a90d",
    "58f24f57e97e3f07 5f9a9d6f9a653406 6534ee33d1fd29d7 2e89656c364e9184 f3f9cb7e6c53ebbb 69e9c62bd0cff7bc c1fb792c96d6d61c 9a03ca445c7289c7",
];

/// Recorded at commit `f690629`: reading count and digest.
const WATTSUP_RECORDED: (usize, u64) = (600, 0xe6f8cb1f70da219d);

/// Recorded at commit `f690629`: block count and digest.
const SCATTERED_RECORDED: (usize, u64) = (550, 0xa1355bfa12cc4dc1);

/// Recorded at commit `f690629`.
const MANIFEST_RECORDED: &str = "d20dd0fbaaeacff21d6c0f15b67f162fd81ea727783ca73ed4e40fe1c5f89ef4";

/// `blake2s256` of the placement grid's manifest, journal and metrics file at
/// small scale with tracing on, and the grid's summed promotions, demotions,
/// lost migrations and tier-I/O retries.
fn placement_digests(faults: Option<FaultPlan>) -> (Vec<String>, [u64; 4]) {
    let setup = PlacementSetup {
        trace: true,
        faults,
        ..PlacementSetup::default()
    };
    let results = placement::run_placement(
        placement::placement_grid(),
        &setup,
        1,
        &sweep::silent_progress(),
    )
    .expect("every cell completes");
    let journal = placement::placement_journal(&results).expect("a traced grid");
    let (injected, lanes) = journal_census(&journal);
    assert_eq!((injected > 0, lanes), (faults.is_some(), 0));
    let digests = [
        Some(placement::placement_manifest_json(setup.scale, &results)),
        Some(journal),
        placement::placement_metrics_json(&results),
    ]
    .into_iter()
    .map(|artifact| hex(&blake2s256(artifact.expect("a traced grid").as_bytes())))
    .collect();
    let moved = results.iter().fold([0; 4], |[p, d, m, r], c| {
        [
            p + c.promotes,
            d + c.demotes,
            m + c.migration_faults,
            r + c.io_retries,
        ]
    });
    (digests, moved)
}

/// The placement grid plain and under `--fault-seed 11`: every policy's
/// migration plan, every tier charge and every fault slot reaches one of the
/// three artifacts, so a decision or a joule that moves changes a digest.
#[test]
fn placement_grid_matches_the_recording() {
    let (plain, moved) = placement_digests(None);
    assert_eq!(plain, PLACEMENT_RECORDED[0]);
    assert!(
        moved[0] > 0 && moved[1] > 0,
        "plain grid migrates: {moved:?}"
    );
    let (faulted, moved) = placement_digests(Some(FaultPlan::with_seed(11)));
    assert_eq!(faulted, PLACEMENT_RECORDED[1]);
    assert!(moved.iter().all(|&n| n > 0), "faults bite: {moved:?}");
}

/// Recorded at commit `3b33614`: manifest, journal, metrics; plain, then
/// `--fault-seed 11`.
const PLACEMENT_RECORDED: [[&str; 3]; 2] = [
    [
        "ea6ded9306dbdda3126da9ec8f58b89c6a727ea11716811163c5f06d33c3388a",
        "9b4af38bbfd55fffc6308f9d590130fd67ba408dca8b889f415654b510b884b8",
        "bb03cd4eed75cddf5a0af7ae6502986b1ad32b297d6f9af81675dc9a6d2a5d30",
    ],
    [
        "dcea43122678c99bfd7ee94d13ddbe6571288372efefcfb1bf31607c7c69fdae",
        "2bc006f06278eb1deb6c63c972589af0757734af4b12b19eea4792d6123eb65b",
        "7fc412560785b1db7d6c55dcb6a7d14b9cf71eef3431756e76096fc180bb9044",
    ],
];

/// The single-node journal and metrics file of the `journal_audit` cells:
/// post-processing and in-situ on the small config at 1000 steps, seed-42
/// meter, traced.
fn single_node_artifacts(faults: Option<FaultPlan>) -> [String; 2] {
    let setup = ExperimentSetup {
        meter: WattsupMeter {
            seed: 42,
            ..WattsupMeter::default()
        },
        trace: true,
        faults,
        ..ExperimentSetup::default()
    };
    let mut cfg = PipelineConfig::small(1);
    cfg.timesteps = 1000;
    let jobs = sweep::config_grid(&setup, &[(1, cfg)]);
    let results = sweep::run_sweep(jobs, 1, &sweep::silent_progress()).expect("small runs");
    [
        sweep::sweep_journal(&results),
        sweep::sweep_metrics_json(&results),
    ]
    .map(|artifact| artifact.expect("tracing was on"))
}

/// Every byte the journal writer and the metrics registry produce for one
/// traced single-node sweep, plain and under `--fault-seed 11`: labels,
/// integers, floats in plain and exponent form, counters and snapshots.
#[test]
fn single_node_journal_matches_the_recording() {
    for (faults, recorded) in [None, Some(FaultPlan::with_seed(11))]
        .into_iter()
        .zip(SINGLE_NODE_RECORDED)
    {
        let faulted = faults.is_some();
        let [journal, metrics] = single_node_artifacts(faults);
        let mut events = vec![
            "activity",
            "segment",
            "disk.state",
            "rapl.poll",
            "wattsup.sample",
            "phase_summary",
            "cache.writeback",
        ];
        if faulted {
            events.extend(["fault.injected", "fault.retry"]);
        }
        for name in events {
            let tag = format!("\"name\":\"{name}\"");
            assert!(journal.contains(&tag), "{name} fires (faults: {faulted})");
        }
        assert!(journal.contains(":0.0,"), "a float prints as 0.0");
        let exponent = journal.split([',', '}']).any(|field| {
            let value = field.rsplit(':').next().unwrap_or("");
            value.contains("e-") && value.parse::<f64>().is_ok()
        });
        assert!(exponent, "a float prints in exponent form");
        let (injected, lanes) = journal_census(&journal);
        assert_eq!((injected > 0, lanes), (faulted, 0));
        let digests = [&journal, &metrics].map(|a| hex(&blake2s256(a.as_bytes())));
        assert_eq!(digests, recorded, "faults: {faulted}");
    }
}

/// Recorded at commit `32f8ed1`: journal, metrics; plain, then
/// `--fault-seed 11`.
const SINGLE_NODE_RECORDED: [[&str; 2]; 2] = [
    [
        "b09a45beae18c692b682f5ffc225aced26bf8f10461757f1a49053a4cb991862",
        "2c16efa522c95e2ffbb801d43abcd652c78952661eeda5f6fbc0f43046fe3704",
    ],
    [
        "be0372664bdd308bbab404218dd9e6bef4c074d7fe9f8cbf5b0061abe0e9a3ad",
        "2fbf3defab8880c24abf72588a02961029c76a28063b155decc7c4bee6b27487",
    ],
];

/// `counter`'s value in a metrics file, 0 when absent.
fn counter(metrics: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    metrics.find(&key).map_or(0, |at| {
        let digits: String = metrics[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("a counter value")
    })
}

/// `text`, asserting that no reply in it says whether its what-if was
/// `cached=`: a steering reply is a function of its own session alone.
fn tokenless(text: &str) -> &str {
    assert!(!text.contains("cached="), "{text}");
    text
}

/// `metrics` with the values of `steer.delta.cached` and
/// `steer.delta.computed` cut out, and those values: the digests pin the
/// rest of the file, and each test lists the two beside its digests.
fn delta_counters_apart(metrics: &str) -> (String, [u64; 2]) {
    let names = ["steer.delta.cached", "steer.delta.computed"];
    let counts = names.map(|name| counter(metrics, name));
    let mut rest = metrics.to_string();
    for (name, n) in names.iter().zip(counts) {
        rest = rest.replace(&format!("\"{name}\":{n},"), &format!("\"{name}\":_,"));
    }
    (rest, counts)
}

/// A journal's `fault.injected` instants and its distinct `node` lanes. On
/// the way, every field value must be an unsigned integer, a float or a
/// string: no emitter writes `true`, `false` or a negative integer.
fn journal_census(journal: &str) -> (usize, usize) {
    let mut injected = 0;
    let mut lanes = BTreeSet::new();
    for line in journal.lines() {
        let members = object_spans(line).expect("a JSON line").expect("an object");
        for (key, value) in &members {
            let negative = value
                .strip_prefix('-')
                .is_some_and(|digits| digits.bytes().all(|b| b.is_ascii_digit()));
            assert!(
                !matches!(*value, "true" | "false") && !negative,
                "{key}: {value} in {line}"
            );
            if key == "node" {
                lanes.insert(*value);
            }
        }
        let has = |k: &str, v: &str| members.iter().any(|(key, value)| key == k && *value == v);
        if has("ev", "\"event\"") && has("name", "\"fault.injected\"") {
            injected += 1;
        }
    }
    (injected, lanes.len())
}

/// Run `greenness bench-serve` with `args` plus one `--flag path` per named
/// output file, then return each file's bytes in `outputs` order.
fn bench_serve(args: &[&str], outputs: &[&str]) -> Vec<String> {
    // Tests run on parallel threads of one process: one directory per call.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bench-serve-{}-{call}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let paths: Vec<_> = outputs
        .iter()
        .map(|flag| dir.join(flag.trim_start_matches("--")))
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_greenness"));
    cmd.arg("bench-serve").args(args).args(["--jobs", "1"]);
    for (flag, path) in outputs.iter().zip(&paths) {
        cmd.arg(flag).arg(path);
    }
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "bench-serve {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("output written"))
        .collect();
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    files
}

/// The `greenness bench-serve` replays as the binary runs them — argument
/// parsing, dispatch and every output file included: the serve replay under
/// `--fault-seed 7`, the fleet replay at four shards under `--fault-seed 7`
/// and at two unfaulted, and three interleaved steering sessions, unfaulted
/// and under `--fault-seed 2`. Each faulted run must take its fault path: a
/// serve drop retried to an ok reply, a fleet reroute, and a seq-replay
/// beyond the plain sessions' own re-attach replays.
#[test]
fn bench_serve_replays_match_the_recording() {
    let serve = ["--out", "--metrics-out"];
    let rows: [(&[&str], &[&str]); 5] = [
        (&["--requests", "20", "--fault-seed", "7"], &serve),
        (
            &["--shards", "4", "--requests", "200", "--fault-seed", "7"],
            &[
                "--out",
                "--metrics-out",
                "--report-out",
                "--shard-metrics-out",
            ],
        ),
        (
            &["--shards", "2", "--requests", "200"],
            &["--out", "--metrics-out", "--report-out"],
        ),
        (&["--sessions", "3"], &serve),
        (&["--sessions", "3", "--fault-seed", "2"], &serve),
    ];
    let runs: Vec<Vec<String>> = rows
        .iter()
        .map(|(args, outputs)| bench_serve(args, outputs))
        .collect();
    let mut deltas = Vec::new();
    let pinned: Vec<Vec<String>> = runs
        .iter()
        .map(|files| match &files[..] {
            [log, metrics] if log.contains("\"steer\":") => {
                let (metrics, counts) = delta_counters_apart(metrics);
                deltas.push(counts);
                vec![tokenless(log).to_string(), metrics]
            }
            _ => files.clone(),
        })
        .collect();
    // `[cached, computed]`: the first session's camera what-if leaves its
    // schedule alone, so the book holds both projections (`[6, 3]` while a
    // second cache keyed what-ifs by session history).
    assert_eq!(
        deltas,
        [[7, 2], [7, 2]],
        "`--sessions 3`, plain and faulted"
    );
    let digests: Vec<String> = pinned
        .iter()
        .map(|files| {
            let mut digest = Blake2s256::default();
            for file in files {
                digest.update(&(file.len() as u64).to_le_bytes());
                digest.update(file.as_bytes());
            }
            hex(&digest.finalize())
        })
        .collect();
    assert_eq!(digests, BENCH_SERVE_RECORDED);

    let serve = &runs[0];
    assert!(counter(&serve[1], "faults.serve.conn") > 0, "{}", serve[1]);
    assert_eq!(serve[0].lines().count(), 20);
    assert!(serve[0].lines().all(|l| l.contains("\"ok\":true")));
    assert!(counter(&runs[1][1], "retries.fleet.reroute") > 0);
    let (plain, faulted) = (&runs[3], &runs[4]);
    assert_eq!(
        plain[0], faulted[0],
        "drops are invisible in the transcript"
    );
    assert!(counter(&faulted[1], "faults.serve.conn") > 0);
    assert!(
        counter(&faulted[1], "steer.replayed") > counter(&plain[1], "steer.replayed"),
        "a dropped op is resent into the seq-replay path"
    );
}

/// Recorded at commit `2efb286`, in `rows` order; the two session rows
/// re-recorded at `011b62c` with each reply's `cached=` token dropped and
/// the `steer.delta.*` values cut out of the metrics.
const BENCH_SERVE_RECORDED: [&str; 5] = [
    "f8133891def9be5c1d09177bcca28474459e02bbc4e5f33f4ef1febf70f2f3e6",
    "60b70689c173628758dea5bbc8ee62de9aedd97120973768d5ef6524b2e949e7",
    "be9d555ccf755c7e280da2ec2c7a1265add447e7f2ecdd717eaa7d2d346bca00",
    "270b93ffb7ab6a83963611e5c34ee7003a7c34dad5214217edbea6e415ec016b",
    "01e9a637b87328450a2ea62ba492d8f96023171d06f53fde08f940f7028353ec",
];

/// `bench-serve --sessions N --shards M --shard-metrics-out F` writes each
/// shard's registry, as the fleet replay does: every session's three
/// adjusts are counted on exactly one shard.
#[test]
fn fleet_sessions_write_every_shards_steering_counters() {
    let sessions = 16;
    let n = sessions.to_string();
    let args = ["--sessions", n.as_str(), "--shards", "4"];
    let files = bench_serve(&args, &["--out", "--shard-metrics-out"]);
    let shards = &files[1];
    assert_eq!(shards.matches("\"label\": \"shard/").count(), 4, "{shards}");
    let adjusts: u64 = shards
        .lines()
        .filter(|line| line.contains("\"label\": \"shard/"))
        .map(|section| counter(section, "steer.adjust"))
        .sum();
    assert_eq!(adjusts, sessions * 3, "{shards}");
}

/// Table II's two probes at the paper's 128 KiB / 50 s on the noiseless
/// setup, and the §V-C split they give the small case-1 comparison.
#[test]
fn case_breakdown_matches_the_recording() {
    let setup = ExperimentSetup::noiseless();
    let read = probes::nnread(&setup, 128 * 1024, 50.0).expect("probe runs");
    let write = probes::nnwrite(&setup, 128 * 1024, 50.0).expect("probe runs");
    let cmp = CaseComparison::run_config(1, &PipelineConfig::small(1), &setup).expect("case runs");
    let savings = case_savings(&cmp, &read, &write);
    let bits = [
        read.avg_total_w,
        read.avg_dynamic_w,
        write.avg_total_w,
        write.avg_dynamic_w,
        savings.total_j,
        savings.dynamic_j,
        savings.static_j,
    ]
    .map(|v| format!("{:016x}", v.to_bits()));
    assert_eq!(bits, CASE_BREAKDOWN_RECORDED);
    assert!(
        savings.static_pct() > 80.0,
        "static share {:.1}% (paper: 91%)",
        savings.static_pct()
    );
}

/// Recorded at commit `3483764`: nnread total/dynamic W, nnwrite
/// total/dynamic W, then the split's total/dynamic/static J.
const CASE_BREAKDOWN_RECORDED: [&str; 7] = [
    "405ccac5ce368600",
    "40248961a4e76330",
    "405cbb5fa8388727",
    "40240e3074f76c68",
    "406c7db7c456f740",
    "403421a3d8c6caf8",
    "4069f983493e1de1",
];

/// Run `greenness steer` with `args` and return its transcript and stderr.
fn steer_transcript(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_greenness"))
        .arg("steer")
        .args(args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "steer {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
    (text(out.stdout), text(out.stderr))
}

/// Every frame byte the three frame paths emit. The CLI's scripted
/// steering transcript (it prints each frame's FNV-1a), plain and under
/// `--fault-seed 2`, whose dropped ops come back through a re-attach: its
/// 64x64 frames of the 64x64 field take the same-size raster path and its
/// 96x96 frames the bilinear one. Then the PPM bytes of case study 3's
/// in-situ frames, in step order, and one auto-ranged frame.
#[test]
fn frame_bytes_match_the_recording() {
    let (plain, _) = steer_transcript(&[]);
    let (faulted, log) = steer_transcript(&["--fault-seed", "2"]);
    assert!(
        plain.contains(" 64x64 ") && plain.contains(" 96x96 "),
        "{plain}"
    );
    assert!(
        !log.contains(" 0 drop-resume retr"),
        "the faulted session re-attached: {log}"
    );

    let mut cfg = PipelineConfig::case_study(3);
    cfg.keep_frames = true;
    let mut node = Node::new(HardwareSpec::table1());
    let out = greenness_core::pipeline::run(
        greenness_core::pipeline::PipelineKind::InSitu,
        &mut node,
        &cfg,
    )
    .expect("case study runs");
    assert_eq!(out.frames.len(), 6);
    let mut frames = Blake2s256::default();
    for frame in &out.frames {
        frames.update(&encode_ppm(&frame.image));
    }

    let auto = RenderOptions {
        width: 80,
        height: 60,
        colormap: Colormap::CoolWarm,
        range: None,
    };
    let auto = encode_ppm(&render_field(&Grid::warm_patch(64, 64), &auto));

    let digests = [
        hex(&blake2s256(tokenless(&plain).as_bytes())),
        hex(&blake2s256(tokenless(&faulted).as_bytes())),
        hex(&frames.finalize()),
        hex(&blake2s256(&auto)),
    ];
    assert_eq!(digests, FRAMES_RECORDED);
}

/// Recorded at commit `845c636`: the plain and faulted steering
/// transcripts, case study 3's in-situ frames, the auto-ranged frame. The
/// transcripts re-recorded at `011b62c` with each reply's `cached=` token
/// dropped.
const FRAMES_RECORDED: [&str; 4] = [
    "bac2eb4c00d814b6d3fa0489078cf35150061da83ff9478e2d82ce1b30ea03e3",
    "bac2eb4c00d814b6d3fa0489078cf35150061da83ff9478e2d82ce1b30ea03e3",
    "a10110c158840dfc9bf7f348e1dad5b18b2e31ef4383f9f918aecb8073e763e4",
    "c6b4169f1b72bd93e6f377be890c7bb552929398a30eba09a864770dc9ce3e6f",
];

/// One steering session through the engine that walks every boundary of
/// frame reuse: two `steps 0` renders at one step; an I/O-interval adjust,
/// then a render at the unchanged step; camera and resolution adjusts, each
/// followed by a render at an unchanged step; a camera adjust back to an
/// earlier look; a resolution adjust to the live resolution; renders that
/// advance onto an I/O step and past one. Each reply line carries its
/// session energy's bits. Then `greenness bench-serve --sessions 16`'s
/// response log and metrics. Some line must show a scheduled frame whose
/// hash is that line's own frame: a render at the step a scheduled frame
/// was just made.
#[test]
fn steering_walks_match_the_recording() {
    let mut engine = SessionEngine::new(EngineConfig::default());
    let spec = AttachSpec {
        interval: 2,
        timesteps: 16,
    };
    let camera = |colormap, range| Adjustment::Camera { colormap, range };
    let resolution = |width, height| Adjustment::Resolution { width, height };
    let mut lines = vec![engine.attach("w", &spec).expect("attach")];
    let ops: [(Option<Adjustment>, u64); 13] = [
        (None, 2),
        (None, 0),
        (None, 0),
        (Some(Adjustment::IoInterval(3)), 0),
        (Some(camera(Colormap::Viridis, Some((0.0, 0.3)))), 0),
        (Some(resolution(96, 80)), 0),
        (None, 1),
        (Some(camera(Colormap::Viridis, Some((0.0, 0.3)))), 0),
        (Some(camera(Colormap::CoolWarm, None)), 0),
        (Some(camera(Colormap::Viridis, Some((0.0, 0.3)))), 0),
        (Some(resolution(96, 80)), 0),
        (None, 4),
        (None, 2),
    ];
    let mut seq = 0;
    for (adj, steps) in &ops {
        if let Some(adj) = adj {
            seq += 1;
            lines.push(engine.adjust("w", seq, adj).expect("adjust"));
        }
        seq += 1;
        lines.push(engine.render("w", seq, *steps).expect("render"));
    }
    lines.push(engine.detach("w", seq + 1).expect("detach"));
    let transcript: String = lines
        .iter()
        .map(|(line, j)| format!("{line} energy_j={:016x}\n", j.to_bits()))
        .collect();
    let own_frame_scheduled = transcript.lines().filter(|line| {
        let hash = line.split_whitespace().nth(5).unwrap_or_default();
        line.starts_with("frame ")
            && line
                .split(" scheduled=[")
                .nth(1)
                .is_some_and(|rest| rest.contains(hash))
    });
    assert!(own_frame_scheduled.count() >= 2, "{transcript}");

    let sessions = bench_serve(&["--sessions", "16"], &["--out", "--metrics-out"]);
    assert_eq!(sessions[0].lines().count(), 16 * 10);
    assert!(sessions[0].lines().all(|l| l.contains("\"ok\":true")));
    let (walk, log) = (tokenless(&transcript), tokenless(&sessions[0]));
    let (metrics, deltas) = delta_counters_apart(&sessions[1]);
    assert_eq!(deltas, [46, 2], "[45, 3] when keyed by session history");
    let digests = [
        hex(&blake2s256(walk.as_bytes())),
        hex(&blake2s256(log.as_bytes())),
        hex(&blake2s256(metrics.as_bytes())),
    ];
    assert_eq!(digests, STEERING_WALKS_RECORDED);
}

/// The walk's transcript, then the sixteen sessions' response log and
/// metrics. Recorded at commit `28c97cc`, while every render rasterised its
/// frame; re-recorded at `011b62c` with each reply's `cached=` token dropped
/// and the `steer.delta.*` values cut out of the metrics.
const STEERING_WALKS_RECORDED: [&str; 3] = [
    "32f15247f15513ffd4bc66525c56da2058c34caefb8923fe41d060f3967f80d6",
    "f7a61c6a173a86e417e294acfdd1c54ec281d2e19d4aa419b95994b93d7bc5db",
    "83afd17b60f8b0bbe271fdd8aa18dec82bdead4def0cf2e220a830f190c0556a",
];

/// One op of the CLI's scripted steering session.
enum WalkOp {
    Attach,
    Render(u64),
    Adjust(Adjustment),
    Detach,
}

/// `greenness steer`'s script as `(seq, op)` phases (attach is seq 0),
/// with `resolution` and `range` in place of its 96x96 and `0.0..0.3`.
fn cli_walk(resolution: usize, range: (f64, f64)) -> Vec<(u64, WalkOp)> {
    vec![
        (0, WalkOp::Attach),
        (1, WalkOp::Render(3)),
        (2, WalkOp::Adjust(Adjustment::IoInterval(3))),
        (3, WalkOp::Render(3)),
        (
            4,
            WalkOp::Adjust(Adjustment::Resolution {
                width: resolution,
                height: resolution,
            }),
        ),
        (5, WalkOp::Render(2)),
        (
            6,
            WalkOp::Adjust(Adjustment::Camera {
                colormap: Colormap::Viridis,
                range: Some(range),
            }),
        ),
        (0, WalkOp::Attach),
        (7, WalkOp::Render(4)),
        (8, WalkOp::Detach),
    ]
}

/// The request line `op` of `session` sends to a service or fleet.
fn walk_line(session: &str, id: usize, seq: u64, op: &WalkOp) -> String {
    let body = match op {
        WalkOp::Attach => {
            format!(
                r#""op":"steer.attach","params":{{"session":"{session}","interval":2,"timesteps":12}}"#
            )
        }
        WalkOp::Render(steps) => format!(
            r#""op":"steer.render","params":{{"session":"{session}","seq":{seq},"steps":{steps}}}"#
        ),
        WalkOp::Adjust(Adjustment::IoInterval(n)) => format!(
            r#""op":"steer.adjust","params":{{"session":"{session}","seq":{seq},"kind":"io_interval","io_interval":{n}}}"#
        ),
        WalkOp::Adjust(Adjustment::Resolution { width, height }) => format!(
            r#""op":"steer.adjust","params":{{"session":"{session}","seq":{seq},"kind":"resolution","width":{width},"height":{height}}}"#
        ),
        WalkOp::Adjust(Adjustment::Camera { range, .. }) => {
            let (lo, hi) = range.expect("the walk fixes its ranges");
            format!(
                r#""op":"steer.adjust","params":{{"session":"{session}","seq":{seq},"kind":"camera","colormap":"viridis","range":[{lo:?},{hi:?}]}}"#
            )
        }
        WalkOp::Detach => {
            format!(r#""op":"steer.detach","params":{{"session":"{session}","seq":{seq}}}"#)
        }
    };
    format!(
        "{{\"schema\":\"{}\",\"id\":{id},{body}}}",
        greenness_serve::SCHEMA
    )
}

/// The multi-session walk as `(session, phase)` steps: eight CLI sessions
/// phase by phase, each phase in a seeded shuffled order, with `s7` one
/// phase behind the rest; then the detached `s0` asks to attach again and
/// a late `s8` walks the whole script alone.
fn multi_session_walk() -> Vec<(usize, usize)> {
    let phases = cli_walk(96, (0.0, 0.3)).len();
    let mut rng = Rng::seeded(44);
    let mut order = Vec::new();
    for round in 0..=phases {
        let mut due: Vec<(usize, usize)> = (0..7)
            .filter(|_| round < phases)
            .map(|s| (s, round))
            .collect();
        if round > 0 {
            due.push((7, round - 1));
        }
        for k in (1..due.len()).rev() {
            due.swap(k, rng.below(k as u64 + 1) as usize);
        }
        order.extend(due);
    }
    order.push((0, 0));
    order.extend((0..phases).map(|phase| (8, phase)));
    order
}

/// Eight CLI-script sessions interleaved phase by phase in a seeded order,
/// one of them a phase behind, one under another camera range (`s5`) and
/// one under another resolution (`s6`); then a refused re-attach of a
/// detached name and a late session in a freed slot. The whole walk runs
/// through a bare engine (each reply with its energy's bits) and through a
/// 4-shard fleet (its reply lines). Sessions showing one step under equal
/// options show one hash; other options show another.
#[test]
fn multi_session_steering_matches_the_recording() {
    let scripts: Vec<Vec<(u64, WalkOp)>> = (0..9)
        .map(|s| match s {
            5 => cli_walk(96, (0.0, 0.5)),
            6 => cli_walk(80, (0.0, 0.3)),
            _ => cli_walk(96, (0.0, 0.3)),
        })
        .collect();
    let walk = multi_session_walk();
    let spec = AttachSpec {
        interval: 2,
        timesteps: 12,
    };
    let mut engine = SessionEngine::new(EngineConfig {
        session_slots: 16,
        ..EngineConfig::default()
    });
    let fleet = Fleet::new(FleetConfig {
        shards: 4,
        session_slots: 16,
        ..FleetConfig::default()
    });
    let (mut engine_lines, mut fleet_lines) = (Vec::new(), Vec::new());
    for (id, &(s, phase)) in walk.iter().enumerate() {
        let name = format!("s{s}");
        let (seq, op) = &scripts[s][phase];
        let reply = match op {
            WalkOp::Attach => engine.attach(&name, &spec),
            WalkOp::Render(steps) => engine.render(&name, *seq, *steps),
            WalkOp::Adjust(adj) => engine.adjust(&name, *seq, adj),
            WalkOp::Detach => engine.detach(&name, *seq),
        };
        engine_lines.push(match reply {
            Ok((line, j)) => format!("{line} energy_j={:016x}", j.to_bits()),
            Err(e) => format!("refused {e}"),
        });
        fleet_lines.push(fleet.handle_line(&walk_line(&name, id + 1, *seq, op)).line);
    }
    assert_eq!(engine_lines.len(), 9 * 10 + 1);
    let refused: Vec<&String> = engine_lines
        .iter()
        .filter(|l| l.starts_with("refused"))
        .collect();
    assert_eq!(refused.len(), 1, "only the detached s0 is refused");
    let fleet_ok = fleet_lines.iter().filter(|l| l.contains("\"ok\":true"));
    assert_eq!(fleet_ok.count(), 9 * 10);

    // The frame hash of session `s`'s reply at `phase`.
    let hash = |s: usize, phase: usize| {
        let at = walk
            .iter()
            .position(|&step| step == (s, phase))
            .expect("walked");
        let line = &engine_lines[at];
        assert!(line.starts_with("frame "), "{line}");
        line.split_whitespace().nth(5).expect("hash").to_string()
    };
    for (phase, shown_alike, shown_otherwise) in [(5, 2, 6), (8, 7, 5), (8, 8, 6)] {
        assert_eq!(hash(0, phase), hash(shown_alike, phase), "phase {phase}");
        assert_ne!(
            hash(0, phase),
            hash(shown_otherwise, phase),
            "phase {phase}"
        );
    }

    let digest = |lines: &[String]| hex(&blake2s256(tokenless(&lines.join("\n")).as_bytes()));
    let digests = [digest(&engine_lines), digest(&fleet_lines)];
    assert_eq!(digests, MULTI_SESSION_RECORDED);
}

/// The engine transcript, recorded at commit `222a779` while each session
/// made its own frames, then the fleet's reply lines; both re-recorded at
/// `011b62c` with each reply's `cached=` token dropped.
const MULTI_SESSION_RECORDED: [&str; 2] = [
    "e3bd0b87e5a5e8a63634a296a8acf2140894f31d987d670359c1c85605b45258",
    "8253b19c6b03316e14d4b4e6f69f2f3c0bebd3668cfd5eb80c08241721bf702f",
];

/// The small config at 50 steps with its frames kept: at 64² consecutive
/// frames differ in a few hundred bytes, so a grid of its intervals shows
/// the same fields over and over.
fn fifty_step_frames(io_interval: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::small(io_interval);
    cfg.timesteps = 50;
    cfg.keep_frames = true;
    cfg
}

/// `blake2s256` of a run's kept frames' PPM bytes, in step order.
fn frames_digest(output: &greenness_core::pipeline::PipelineOutput) -> String {
    let mut frames = Blake2s256::default();
    for frame in &output.frames {
        frames.update(frame.image.ppm());
    }
    hex(&frames.finalize())
}

/// Every frame of a three-interval grid (I/O every 1, 2 and 8 steps, both
/// kinds) at `--jobs 1` and `--jobs 4`, plain and under a seeded fsync
/// fault plan, and of one `CaseComparison` pair: the bytes a grid shows
/// when every cell renders each of its frames itself.
#[test]
fn grid_frames_match_the_recording() {
    let configs: Vec<_> = [(1u32, 1u64), (2, 2), (3, 8)]
        .into_iter()
        .map(|(n, interval)| (n, fifty_step_frames(interval)))
        .collect();
    let mut plain_end_s = Vec::new();
    for faults in [None, Some(FaultPlan::with_seed(11))] {
        let setup = ExperimentSetup {
            faults,
            ..ExperimentSetup::noiseless()
        };
        for jobs in [1, 4] {
            let grid = sweep::config_grid(&setup, &configs);
            let results = sweep::run_sweep(grid, jobs, &sweep::silent_progress()).expect("grid");
            let counts: Vec<usize> = results
                .iter()
                .map(|r| r.report.output.frames.len())
                .collect();
            assert_eq!(counts, [50, 50, 25, 25, 6, 6], "jobs {jobs}");
            assert!(results.iter().all(|r| r.report.output.verified));
            let digests: Vec<String> = results
                .iter()
                .map(|r| frames_digest(&r.report.output))
                .collect();
            assert_eq!(
                digests,
                GRID_FRAMES_RECORDED,
                "jobs {jobs}, faulted {}",
                faults.is_some()
            );
            let end_s: Vec<f64> = results
                .iter()
                .map(|r| r.report.metrics.execution_time_s)
                .collect();
            if faults.is_none() {
                plain_end_s = end_s;
            } else {
                assert_ne!(end_s, plain_end_s, "the fault plan stretched a run");
            }
        }
    }
    let pair = CaseComparison::run_config(1, &fifty_step_frames(1), &ExperimentSetup::noiseless())
        .expect("pair");
    assert_eq!(pair.post.output.frames.len(), 50);
    assert_eq!(pair.insitu.output.frames.len(), 50);
    assert_eq!(
        [&pair.post.output, &pair.insitu.output].map(frames_digest),
        [GRID_FRAMES_RECORDED[0], GRID_FRAMES_RECORDED[1]]
    );
}

/// Recorded at commit `2c99110`: per cell, in submission order (I/O every
/// 1, 2, 8 steps; post-processing, then in-situ).
const GRID_FRAMES_RECORDED: [&str; 6] = [
    "43f7d6132d32a0878accf0f6586e3872bea7413267bb058f0a227e76876ba900",
    "43f7d6132d32a0878accf0f6586e3872bea7413267bb058f0a227e76876ba900",
    "a61574f1a324fb8b0a51b82dcd9d9ac162d5b1cac48c6c5d9b3a0ebf3baa295b",
    "a61574f1a324fb8b0a51b82dcd9d9ac162d5b1cac48c6c5d9b3a0ebf3baa295b",
    "517de5a835fb6d6f998ea49074a9d2f4cdccec1d33cce2ab48ab478feef1ca2c",
    "517de5a835fb6d6f998ea49074a9d2f4cdccec1d33cce2ab48ab478feef1ca2c",
];

/// The traced three-interval grid of [`grid_frames_match_the_recording`]
/// plus one post-processing cell whose 18,000-byte snapshot ends inside a
/// 4 KiB block and whose 5,000-byte chunks end inside blocks too; its
/// journal and metrics file under `setup`, at `jobs` workers.
fn grid_journal_artifacts(setup: &ExperimentSetup, jobs: usize) -> [String; 2] {
    let configs: Vec<_> = [(1u32, 1u64), (2, 2), (3, 8)]
        .into_iter()
        .map(|(n, interval)| (n, fifty_step_frames(interval)))
        .collect();
    let mut grid = sweep::config_grid(setup, &configs);
    let mut ragged = fifty_step_frames(2);
    (ragged.grid_nx, ragged.grid_ny, ragged.chunk_bytes) = (45, 50, 5000);
    ragged.solver = PipelineConfig::default_solver(45, 50);
    ragged.label = "ragged".to_string();
    grid.push(sweep::SweepJob {
        case: 4,
        kind: greenness_core::pipeline::PipelineKind::PostProcessing,
        cfg: ragged,
        setup: setup.clone(),
    });
    let results = sweep::run_sweep(grid, jobs, &sweep::silent_progress()).expect("grid");
    assert!(results.iter().all(|r| r.report.output.verified));
    [
        sweep::sweep_journal(&results),
        sweep::sweep_metrics_json(&results),
    ]
    .map(|artifact| artifact.expect("tracing was on"))
}

/// Every journal and metrics byte of a traced grid whose cells step the
/// same trajectory at I/O intervals 1, 2 and 8, plus a ragged
/// post-processing cell: cache counters, flushed pages and seeks of the
/// partial-block path, at `--jobs 1` and `4`, plain and faulted.
#[test]
fn grid_journal_matches_the_recording() {
    for (faults, recorded) in [None, Some(FaultPlan::with_seed(11))]
        .into_iter()
        .zip(GRID_JOURNAL_RECORDED)
    {
        let faulted = faults.is_some();
        let setup = ExperimentSetup {
            meter: WattsupMeter {
                seed: 42,
                ..WattsupMeter::default()
            },
            trace: true,
            faults,
            ..ExperimentSetup::default()
        };
        for jobs in [1, 4] {
            let [journal, metrics] = grid_journal_artifacts(&setup, jobs);
            let mut events = vec!["cache.writeback", "cache.drop"];
            if faulted {
                events.extend(["fault.injected", "fault.retry"]);
            }
            for name in events {
                let tag = format!("\"name\":\"{name}\"");
                assert!(journal.contains(&tag), "{name} fires (faults: {faulted})");
            }
            let per_cell: Vec<&str> = metrics.split("{\"label\": ").skip(1).collect();
            assert_eq!(per_cell.len(), 7);
            for cell in &per_cell {
                assert_eq!(counter(cell, "solver.steps"), 50, "{cell:.60}");
                assert!(counter(cell, "cache.flushed_pages") > 0, "{cell:.60}");
            }
            assert!(counter(per_cell[6], "disk.seeks") > 0);
            let (injected, lanes) = journal_census(&journal);
            assert_eq!((injected > 0, lanes), (faulted, 0));
            let digests = [&journal, &metrics].map(|a| hex(&blake2s256(a.as_bytes())));
            assert_eq!(digests, recorded, "faults: {faulted}, jobs {jobs}");
        }
    }
}

/// Recorded at commit `27c4c8f`: journal, metrics; plain, then
/// `--fault-seed 11`.
const GRID_JOURNAL_RECORDED: [[&str; 2]; 2] = [
    [
        "685915a693b201a91fd8251d8ef12fe9531a3b0ef84802c56f2154fd55c97d17",
        "93c7daf13224be57e9fd3b7c94184cff0d8623db19c3740da008046e67b7ffad",
    ],
    [
        "84220aa6916ed7ee128e847fe90ef9e0beb7bfa96955effc2117e99f3160df88",
        "92f0c5eab55903d0a3b965f6b90149b50ba3194856b41412cef0d2862a67e169",
    ],
];
