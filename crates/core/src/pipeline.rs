//! The visualization pipelines (Figure 2).
//!
//! Both pipelines drive the *same* solver, storage stack, and renderer over
//! the *same* node; they differ only in where the visualization stage gets
//! its data — which is exactly the comparison the paper isolates:
//!
//! * **post-processing** (Fig. 2a): every I/O step serializes the field and
//!   writes it to disk in 128 KiB fsync'd chunks; after the simulation
//!   finishes (and a `sync; drop_caches`, §IV-C), a second phase reads every
//!   snapshot back chunk-by-chunk and renders it;
//! * **in-situ** (Fig. 2b): every I/O step renders straight from the
//!   solver's memory and persists only the (much smaller) image;
//! * **in-transit** (extension, after Bennett et al., the paper's ref [10]):
//!   every I/O step ships the raw snapshot to a staging node over the NIC
//!   and does no local rendering. Only the compute-node side is metered,
//!   matching the single-node scope of the paper.
//!
//! The loop itself — solver, store, phase order, the `sync; drop_caches`
//! between phases — is the crate's one private `driver`; this module adds
//! only what each kind does on an I/O step (write the snapshot / hand the
//! field to the renderer and write the image / ship the field) and the
//! post-processing write-time checksums the read-back is verified against.
//! A grid's cells share what they would each recompute, rendered frames and
//! stored snapshots, through one memo.
//!
//! Data honesty: snapshots are real solver output; the post-processing
//! pipeline re-renders from the bytes it reads back from the simulated disk
//! and *verifies* them against a checksum taken at write time, so any
//! storage-stack corruption fails loudly.
//! The same pipelines at cluster scale are [`cluster`]; the tests below
//! cover both.

use greenness_heatsim::SolverError;
use greenness_platform::{Activity, Node, Phase};
use greenness_storage::FsError;
use greenness_viz::Framebuffer;

use crate::config::PipelineConfig;
use crate::driver::{self, Stepper, Store, Stored};
use crate::memo::{GridMemo, Reader};

pub mod cluster;

/// Why a pipeline run could not complete. All of these are reachable from
/// caller-supplied configuration (and, through the serve layer, from network
/// requests), so they are reported as values instead of panics — the
/// "no panic on request paths" invariant the deny test in
/// `tests/no_panic_paths.rs` pins.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The solver rejected its configuration (unstable CFL, bad source…).
    Solver(SolverError),
    /// A storage operation failed terminally: the device is too small for
    /// the workload, a snapshot vanished, or the fsync retry budget ran out.
    Storage {
        /// What the pipeline was doing (`"write"`, `"fsync"`, `"read"`…).
        op: &'static str,
        /// The filesystem's error.
        source: FsError,
    },
    /// A read-back snapshot did not have the configured grid shape.
    CorruptSnapshot {
        /// The snapshot file name.
        name: String,
    },
    /// A caller-supplied parameter was out of range.
    Config(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Solver(e) => write!(f, "solver config rejected: {e}"),
            PipelineError::Storage { op, source } => {
                write!(f, "storage {op} failed: {source}")
            }
            PipelineError::CorruptSnapshot { name } => {
                write!(
                    f,
                    "snapshot '{name}' does not match the configured grid shape"
                )
            }
            PipelineError::Config(msg) => write!(f, "bad pipeline parameter: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SolverError> for PipelineError {
    fn from(e: SolverError) -> Self {
        PipelineError::Solver(e)
    }
}

/// Which pipeline organization to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// Simulate → write raw data → read back → visualize (Fig. 2a).
    PostProcessing,
    /// Simulate → visualize in memory → write images (Fig. 2b).
    InSitu,
    /// Simulate → ship raw data to a staging node (extension).
    InTransit,
}

impl PipelineKind {
    /// Label used in reports ("Traditional" is the paper's term for
    /// post-processing in Figures 7–11).
    pub fn label(self) -> &'static str {
        match self {
            PipelineKind::PostProcessing => "Traditional",
            PipelineKind::InSitu => "In-situ",
            PipelineKind::InTransit => "In-transit",
        }
    }
}

impl std::str::FromStr for PipelineKind {
    type Err = String;

    /// Parse the names used across the CLI and the serve protocol:
    /// `post`/`post-processing`/`traditional`, `insitu`/`in-situ`, and
    /// `intransit`/`in-transit` (case-insensitive).
    fn from_str(s: &str) -> Result<PipelineKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "post" | "post-processing" | "postprocessing" | "traditional" => {
                Ok(PipelineKind::PostProcessing)
            }
            "insitu" | "in-situ" => Ok(PipelineKind::InSitu),
            "intransit" | "in-transit" => Ok(PipelineKind::InTransit),
            other => Err(format!(
                "unknown pipeline '{other}' (expected post|insitu|intransit)"
            )),
        }
    }
}

/// A rendered frame and the timestep it shows.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// The solver timestep the frame renders.
    pub step: u64,
    /// The image.
    pub image: Framebuffer,
}

/// What a pipeline run produced (beyond the node's power timeline).
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Which pipeline ran.
    pub kind: PipelineKind,
    /// Useful work performed (cell updates).
    pub work_units: f64,
    /// Timesteps that performed I/O + visualization.
    pub io_steps: u64,
    /// Raw bytes written to the filesystem.
    pub bytes_written: u64,
    /// Raw bytes read back from the filesystem.
    pub bytes_read: u64,
    /// Rendered frames (only if `keep_frames` was set).
    pub frames: Vec<FrameRecord>,
    /// Post-processing only: every read-back snapshot matched its write-time
    /// checksum.
    pub verified: bool,
}

/// Run the chosen pipeline over `node`. The node accumulates the power
/// timeline; the returned output carries the data-side results.
///
/// # Errors
/// [`PipelineError`] when the solver rejects its configuration, the device
/// is too small for the workload, or a read-back snapshot is malformed.
pub fn run(
    kind: PipelineKind,
    node: &mut Node,
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let (mut stepper, mut store) = driver::open(cfg, None)?;
    drive(kind, node, cfg, (&mut stepper, &mut store), None)
}

/// [`run`] over an opened stepper and store. A `memo` shares frames and
/// fields with the other runs of a grid; the output is the same.
pub(crate) fn drive(
    kind: PipelineKind,
    node: &mut Node,
    cfg: &PipelineConfig,
    (stepper, store): (&mut Stepper, &mut Store),
    memo: Option<&GridMemo>,
) -> Result<PipelineOutput, PipelineError> {
    let mut reader = memo.map(|memo| Reader::new(memo, cfg));
    let mut out = PipelineOutput {
        kind,
        work_units: cfg.work_units(),
        io_steps: 0,
        bytes_written: 0,
        bytes_read: 0,
        frames: Vec::new(),
        verified: true,
    };
    let mut checksums: Vec<(String, u64, u64)> = Vec::new();

    // ---- Phase 1: simulation (+ per-step I/O or in-situ visualization) ----
    while let Some(step) = stepper.next_io_step(node, cfg) {
        out.io_steps += 1;
        match kind {
            PipelineKind::PostProcessing => {
                let held = reader.as_ref().and_then(|reader| reader.take(step));
                let (snapshot, checksum) = held.unwrap_or_else(|| {
                    let snapshot = Stored::of_grid(stepper.grid());
                    let checksum = snapshot.checksum64();
                    if let Some(reader) = &reader {
                        reader.offer(step, &snapshot, checksum);
                    }
                    (snapshot, checksum)
                });
                let name = store.write_snapshot(node, step, &snapshot)?;
                out.bytes_written += snapshot.len as u64;
                checksums.push((name, step, checksum));
            }
            PipelineKind::InSitu => {
                // Hand the live field to the renderer (in-memory).
                node.execute(
                    Activity::MemTraffic {
                        bytes: cfg.snapshot_bytes(),
                    },
                    Phase::Visualization,
                );
                let memo = reader.as_mut().map(|reader| (reader, step));
                let image = driver::render(node, cfg, stepper, &cfg.render, memo);
                out.bytes_written += store.write_frame(node, &driver::frame_name(step), &image)?;
                if cfg.keep_frames {
                    out.frames.push(FrameRecord { step, image });
                }
            }
            PipelineKind::InTransit => {
                let bytes = cfg.snapshot_bytes();
                let messages = bytes.div_ceil(cfg.chunk_bytes as u64) as u32;
                node.execute(Activity::NetTransfer { bytes, messages }, Phase::Network);
                out.bytes_written += bytes;
            }
        }
    }
    store.end_phase_one(node);

    // ---- Phase 2 (post-processing only): read back and visualize ----
    let shape = (cfg.grid_nx, cfg.grid_ny);
    for (name, step, checksum) in checksums {
        let snapshot = store.read(node, &name)?;
        out.bytes_read += snapshot.len as u64;
        let memo = reader.as_mut().map(|reader| (reader, step));
        let (image, verified) =
            driver::render_snapshot(node, cfg, shape, (&name, &snapshot), Some(checksum), memo)?;
        out.verified &= verified;
        if cfg.keep_frames {
            out.frames.push(FrameRecord { step, image });
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{run_cluster, run_cluster_traced};
    use greenness_cluster::{ClusterConfig, ClusterError, ClusterKind, FaultSummary, WireCodec};
    use greenness_faults::{fnv1a64, FaultPlan};
    use greenness_platform::HardwareSpec;
    use greenness_trace::Tracer;

    fn run_small(kind: PipelineKind, interval: u64) -> (Node, PipelineOutput) {
        let mut node = Node::new(HardwareSpec::table1());
        let cfg = PipelineConfig::small(interval);
        let out = run(kind, &mut node, &cfg).expect("small config runs");
        (node, out)
    }

    #[test]
    fn post_processing_has_all_four_phases() {
        let (node, out) = run_small(PipelineKind::PostProcessing, 1);
        let tl = node.timeline();
        for phase in [
            Phase::Simulation,
            Phase::Write,
            Phase::Read,
            Phase::Visualization,
        ] {
            assert!(!tl.phase_duration(phase).is_zero(), "{phase} missing");
        }
        assert!(
            out.verified,
            "read-back snapshots must match write-time checksums"
        );
        assert_eq!(out.io_steps, 10);
        assert_eq!(out.bytes_read, out.bytes_written);
    }

    #[test]
    fn insitu_has_no_read_phase_and_writes_only_images() {
        let (node, out) = run_small(PipelineKind::InSitu, 1);
        let tl = node.timeline();
        assert!(tl.phase_duration(Phase::Read).is_zero());
        assert!(tl.phase_duration(Phase::Write).is_zero());
        assert!(!tl.phase_duration(Phase::ImageWrite).is_zero());
        assert!(!tl.phase_duration(Phase::Visualization).is_zero());
        assert_eq!(out.bytes_read, 0);
        assert_eq!(
            out.bytes_written,
            10 * greenness_viz::image::ppm_size_bytes(64, 64)
        );
    }

    #[test]
    fn intransit_only_computes_and_ships() {
        let (node, out) = run_small(PipelineKind::InTransit, 1);
        let tl = node.timeline();
        assert!(!tl.phase_duration(Phase::Network).is_zero());
        assert!(tl.phase_duration(Phase::Visualization).is_zero());
        assert!(tl.phase_duration(Phase::Write).is_zero());
        assert_eq!(out.bytes_written, 10 * 64 * 64 * 8);
    }

    #[test]
    fn io_interval_scales_io_work() {
        let (_, every) = run_small(PipelineKind::PostProcessing, 1);
        let (_, eighth) = run_small(PipelineKind::PostProcessing, 8);
        assert_eq!(every.io_steps, 10);
        assert_eq!(eighth.io_steps, 1);
        assert!(eighth.bytes_written < every.bytes_written / 5);
    }

    #[test]
    fn insitu_beats_post_processing_on_time_and_energy() {
        let (post_node, _) = run_small(PipelineKind::PostProcessing, 1);
        let (insitu_node, _) = run_small(PipelineKind::InSitu, 1);
        assert!(insitu_node.now() < post_node.now());
        assert!(insitu_node.timeline().total_energy_j() < post_node.timeline().total_energy_j());
    }

    #[test]
    fn both_pipelines_render_identical_frames() {
        let mut cfg = PipelineConfig::small(2);
        cfg.keep_frames = true;
        let mut a = Node::new(HardwareSpec::table1());
        let post = run(PipelineKind::PostProcessing, &mut a, &cfg).expect("post runs");
        let mut b = Node::new(HardwareSpec::table1());
        let insitu = run(PipelineKind::InSitu, &mut b, &cfg).expect("insitu runs");
        assert_eq!(post.frames.len(), insitu.frames.len());
        for (p, i) in post.frames.iter().zip(&insitu.frames) {
            assert_eq!(p.step, i.step);
            assert_eq!(
                p.image, i.image,
                "frame {} differs between pipelines",
                p.step
            );
        }
    }

    #[test]
    fn undersized_device_is_an_error_not_a_panic() {
        let mut cfg = PipelineConfig::small(1);
        cfg.device_bytes = 16 * 1024;
        let mut node = Node::new(HardwareSpec::table1());
        let err = run(PipelineKind::PostProcessing, &mut node, &cfg).expect_err("device too small");
        assert!(matches!(err, PipelineError::Storage { .. }), "{err}");
        assert!(err.to_string().contains("storage"));
    }

    #[test]
    fn zero_io_interval_is_an_error_not_a_divide_by_zero() {
        let mut cfg = PipelineConfig::small(1);
        cfg.io_interval = 0;
        let mut node = Node::new(HardwareSpec::table1());
        let err = run(PipelineKind::InSitu, &mut node, &cfg).expect_err("bad interval");
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
    }

    #[test]
    fn zero_chunk_bytes_is_an_error_not_a_hang() {
        let mut cfg = PipelineConfig::small(1);
        cfg.chunk_bytes = 0;
        for kind in [
            PipelineKind::PostProcessing,
            PipelineKind::InSitu,
            PipelineKind::InTransit,
        ] {
            let mut node = Node::new(HardwareSpec::table1());
            let err = run(kind, &mut node, &cfg).expect_err("bad chunk size");
            assert!(matches!(err, PipelineError::Config(_)), "{kind:?}: {err}");
            assert!(
                node.timeline().is_empty(),
                "{kind:?} charged before failing"
            );
        }
    }

    #[test]
    fn a_read_back_that_fails_its_checksum_renders_from_its_own_bytes() {
        use crate::memo::recall;
        use greenness_heatsim::Grid;
        use greenness_platform::SimDuration;

        let cfg = PipelineConfig::small(1);
        let memo = GridMemo::default();
        let mut reader = Reader::new(&memo, &cfg);
        let stand_in = Framebuffer::new(64, 64);
        recall::<()>(Some((&mut reader, 1)), || Ok(stand_in.clone())).expect("infallible");
        let field = Grid::warm_patch(64, 64);
        let bytes = field.to_bytes();
        let sum = greenness_faults::checksum64(&bytes);
        let mut node = Node::new(HardwareSpec::table1());
        let mut read = |checksum, bytes: &[u8]| {
            let before = node.now();
            let memo = Some((&mut reader, 1));
            let snapshot = Stored::copy_of(bytes);
            let read = driver::render_snapshot(
                &mut node,
                &cfg,
                (64, 64),
                ("s", &snapshot),
                checksum,
                memo,
            );
            (read, node.now() - before)
        };
        let (served, charge) = read(Some(sum), &bytes);
        assert_eq!(
            served,
            Ok((stand_in, true)),
            "matching bytes may use the memo"
        );
        let own = greenness_viz::render_field(&field, &cfg.render);
        for (checksum, matched) in [(Some(sum ^ 1), false), (None, true)] {
            let (rendered, same) = read(checksum, &bytes);
            assert_eq!(
                rendered,
                Ok((own.clone(), matched)),
                "{checksum:?} renders as read"
            );
            assert_eq!(charge, same, "a hit is charged as a render");
        }
        let (corrupt, none) = read(Some(sum ^ 1), &bytes[..100]);
        assert_eq!(
            corrupt,
            Err(PipelineError::CorruptSnapshot { name: "s".into() })
        );
        assert_eq!(none, SimDuration::ZERO);
    }

    #[test]
    fn simulation_work_is_identical_across_pipelines() {
        let (post_node, post) = run_small(PipelineKind::PostProcessing, 1);
        let (insitu_node, insitu) = run_small(PipelineKind::InSitu, 1);
        assert_eq!(post.work_units, insitu.work_units);
        let sim_post = post_node.timeline().phase_duration(Phase::Simulation);
        let sim_insitu = insitu_node.timeline().phase_duration(Phase::Simulation);
        assert_eq!(sim_post, sim_insitu);
    }

    // ---- The distributed pipelines (`cluster`) ----

    fn small() -> ClusterConfig {
        ClusterConfig {
            timesteps: 6,
            ..ClusterConfig::small(4, 2)
        }
    }

    #[test]
    fn post_processing_round_trips_and_verifies() {
        let r = run_cluster(ClusterKind::PostProcessing, &small()).unwrap();
        assert!(r.verified, "PFS corrupted a snapshot");
        assert!(r.makespan_s > 0.0);
        // Byte channels are split: post-processing ships nothing over the
        // staging fabric; the PFS holds every raw snapshot.
        assert_eq!(r.fabric_bytes, 0);
        assert_eq!(r.pfs_bytes, 6 * 128 * 128 * 8);
        assert_eq!(r.bytes_out, r.fabric_bytes + r.pfs_bytes);
        assert!(r.viz_energy_j > 0.0, "viz node never worked");
        assert_ne!(r.image_hash, fnv1a64(&[]), "no frames were rendered");
    }

    #[test]
    fn insitu_beats_post_processing_on_cluster_energy_too() {
        let cfg = small();
        let post = run_cluster(ClusterKind::PostProcessing, &cfg).unwrap();
        let insitu = run_cluster(ClusterKind::InSitu, &cfg).unwrap();
        assert!(
            insitu.total_energy_j < post.total_energy_j,
            "in-situ {} J vs post {} J",
            insitu.total_energy_j,
            post.total_energy_j
        );
        assert!(insitu.makespan_s < post.makespan_s);
        let per_joule = |r: &cluster::ClusterReport| r.work_units / r.total_energy_j;
        assert!(per_joule(&insitu) > per_joule(&post));
    }

    #[test]
    fn intransit_also_beats_post_processing() {
        // Staging avoids writing raw data to disk: far cheaper than
        // post-processing. Against in-situ the comparison is close and can
        // go either way — staging consolidates image output into one
        // full-frame write while per-node in-situ pays N smaller fsync'd
        // writes — so we only pin the robust ordering and the rough parity.
        let cfg = small();
        let post = run_cluster(ClusterKind::PostProcessing, &cfg).unwrap();
        let transit = run_cluster(ClusterKind::InTransit, &cfg).unwrap();
        let insitu = run_cluster(ClusterKind::InSitu, &cfg).unwrap();
        assert!(transit.total_energy_j < post.total_energy_j);
        assert!(insitu.total_energy_j < post.total_energy_j);
        let ratio = transit.total_energy_j / insitu.total_energy_j;
        assert!((0.7..=1.3).contains(&ratio), "transit/insitu ratio {ratio}");
    }

    #[test]
    fn overlap_beats_synchronous_staging() {
        // queue_depth 0 is the serialized legacy organization: every sender
        // waits out the stager's render. Any real queue must beat it.
        let overlapped = small();
        let mut synchronous = small();
        synchronous.staging.queue_depth = 0;
        let fast = run_cluster(ClusterKind::InTransit, &overlapped).unwrap();
        let slow = run_cluster(ClusterKind::InTransit, &synchronous).unwrap();
        assert!(
            fast.makespan_s < slow.makespan_s,
            "overlap {} s vs synchronous {} s",
            fast.makespan_s,
            slow.makespan_s
        );
        // Same images either way: flow control never touches content.
        assert_eq!(fast.image_hash, slow.image_hash);
    }

    #[test]
    fn backpressure_blocks_are_traced() {
        let tracer = Tracer::jsonl();
        let mut cfg = small();
        cfg.staging.queue_depth = 1;
        run_cluster_traced(ClusterKind::InTransit, &cfg, None, &tracer).unwrap();
        assert!(
            tracer.counter("staging.queue.blocks") > 0,
            "a depth-1 queue against a render-bound stager must block"
        );
        assert!(tracer.counter("staging.bytes.wire") > 0);
        assert_eq!(
            tracer.counter("staging.bytes.raw"),
            6 * 128 * 128 * 8,
            "raw staged bytes are the full snapshot stream"
        );
    }

    #[test]
    fn lossless_wire_codec_preserves_images_and_verifies() {
        let raw = small();
        let mut coded = small();
        coded.staging.wire_codec = WireCodec::DeltaRle;
        let a = run_cluster(ClusterKind::InTransit, &raw).unwrap();
        let b = run_cluster(ClusterKind::InTransit, &coded).unwrap();
        assert!(b.verified, "lossless wire failed checksum verification");
        assert_eq!(a.image_hash, b.image_hash, "lossless wire changed pixels");
        assert_eq!(a.staging_raw_bytes, b.staging_raw_bytes);
        assert_ne!(
            a.fabric_bytes, b.fabric_bytes,
            "codec did not touch the wire"
        );
    }

    #[test]
    fn extra_stagers_share_frames_without_changing_them() {
        let one = small();
        let mut two = small();
        two.staging.staging_nodes = 2;
        let a = run_cluster(ClusterKind::InTransit, &one).unwrap();
        let b = run_cluster(ClusterKind::InTransit, &two).unwrap();
        assert_eq!(a.image_hash, b.image_hash, "round-robin changed content");
        assert!(
            b.makespan_s <= a.makespan_s,
            "a second stager should never slow the pipeline: {} vs {}",
            b.makespan_s,
            a.makespan_s
        );
    }

    #[test]
    fn insitu_partition_is_exact_on_odd_grids() {
        // 130 rows over 4 slabs: 33+33+32+32. The pixel-row partition must
        // telescope to the full frame height with no truncation bias.
        let heights = [(130usize, 130usize), (100, 130), (64, 30)];
        for (height, ny) in heights {
            let base = ny / 4;
            let extra = ny % 4;
            let mut j0 = 0usize;
            let mut total = 0usize;
            for k in 0..4 {
                let rows = base + usize::from(k < extra);
                total += greenness_cluster::slab::slab_rows_px(height, ny, j0, rows);
                j0 += rows;
            }
            assert_eq!(total, height, "height {height} over ny {ny}");
        }

        // And end to end: an odd grid renders and accounts cleanly.
        let mut cfg = ClusterConfig::small(4, 2);
        cfg.grid_nx = 130;
        cfg.grid_ny = 130;
        cfg.solver = PipelineConfig::default_solver(130, 130);
        cfg.render.width = 130;
        cfg.render.height = 130;
        cfg.timesteps = 2;
        let r = run_cluster(ClusterKind::InSitu, &cfg).unwrap();
        // 4 PPM slab images per step, heights summing to 130 rows exactly:
        // payload bytes are 3*w*h, headers are "P6\n130 H\n255\n".
        let payload = 2 * 3 * 130 * 130;
        let headers: usize = [33, 33, 32, 32]
            .iter()
            .map(|h| format!("P6\n130 {h}\n255\n").len())
            .sum::<usize>()
            * 2;
        assert_eq!(r.pfs_bytes, (payload + headers) as u64);
    }

    #[test]
    fn energy_partition_sums() {
        let r = run_cluster(ClusterKind::PostProcessing, &small()).unwrap();
        let sum = r.compute_energy_j + r.io_energy_j + r.viz_energy_j;
        assert!((sum - r.total_energy_j).abs() < 1e-6);
    }

    #[test]
    fn faulted_run_converges_and_pays_static_energy() {
        // Same physics, same data — the degraded run just takes longer and
        // burns more (idle) energy. `verified` attests the final images:
        // every snapshot read back matches its pre-write checksum.
        let cfg = small();
        let clean = run_cluster(ClusterKind::PostProcessing, &cfg).unwrap();
        let (faulted, summary) = run_cluster_traced(
            ClusterKind::PostProcessing,
            &cfg,
            Some(FaultPlan::with_seed(42)),
            &Tracer::off(),
        )
        .unwrap();
        assert!(summary.total_faults() > 0, "seed 42 injected nothing");
        assert!(faulted.verified, "faults corrupted data");
        assert_eq!(faulted.bytes_out, clean.bytes_out);
        assert_eq!(faulted.image_hash, clean.image_hash);
        assert!(
            faulted.makespan_s > clean.makespan_s,
            "degraded run should be slower: {} vs {}",
            faulted.makespan_s,
            clean.makespan_s
        );
        assert!(faulted.total_energy_j > clean.total_energy_j);
    }

    #[test]
    fn same_fault_seed_is_bit_identical() {
        let cfg = small();
        let run = || {
            run_cluster_traced(
                ClusterKind::InTransit,
                &cfg,
                Some(FaultPlan::with_seed(7)),
                &Tracer::off(),
            )
            .unwrap()
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(sa, sb);
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
        assert_eq!(a.total_energy_j.to_bits(), b.total_energy_j.to_bits());
        assert_eq!(a.image_hash, b.image_hash);
    }

    #[test]
    fn no_plan_leaves_the_report_bit_identical() {
        let cfg = small();
        let plain = run_cluster(ClusterKind::InSitu, &cfg).unwrap();
        let (gated, summary) =
            run_cluster_traced(ClusterKind::InSitu, &cfg, None, &Tracer::off()).unwrap();
        assert_eq!(summary, FaultSummary::default());
        assert_eq!(plain.makespan_s.to_bits(), gated.makespan_s.to_bits());
        assert_eq!(
            plain.total_energy_j.to_bits(),
            gated.total_energy_j.to_bits()
        );
    }

    /// Every `ClusterConfig` that used to divide by zero, trip a constructor
    /// or framebuffer `assert!` mid-run, or run with other nodes than it
    /// reports is refused up front, by field name, on each kind it breaks.
    #[test]
    fn a_bad_config_is_an_error_naming_the_field_not_a_panic() {
        use ClusterKind::{InSitu, InTransit, PostProcessing};
        type Break = fn(&mut ClusterConfig);
        const ALL: &[ClusterKind] = &[PostProcessing, InSitu, InTransit];
        let rows: [(&[ClusterKind], &str, Break); 12] = [
            (ALL, "io_interval must be at least 1, got 0", |c| {
                c.io_interval = 0
            }),
            (ALL, "compute_nodes", |c| c.compute_nodes = 0),
            (ALL, "io_servers", |c| c.io_servers = 0),
            (ALL, "stripe_bytes", |c| c.stripe_bytes = 0),
            (ALL, "grid_nx", |c| c.grid_nx = 2),
            // An 8-row grid over 4 nodes: 2 rows per slab.
            (ALL, "grid_ny / compute_nodes", |c| c.grid_ny = 8),
            (ALL, "solver: FTCS unstable", |c| c.solver.dt *= 2.0),
            (ALL, "solver: source (128, 42) outside 128x128", |c| {
                c.solver.sources[0].i = 128
            }),
            // Used to run one stager while reporting none.
            (ALL, "staging_nodes must be at least 1, got 0", |c| {
                c.staging.staging_nodes = 0
            }),
            // Used to panic in `Framebuffer::new`.
            (ALL, "render.width must be at least 1, got 0", |c| {
                c.render.width = 0
            }),
            (ALL, "render.height must be at least 1, got 0", |c| {
                c.render.height = 0
            }),
            // Two pixel rows over four 32-row slabs: slabs 0 and 2 get none.
            (&[InSitu], "render.height: pixel rows of slab 0", |c| {
                c.render.height = 2
            }),
        ];
        for (kinds, needle, break_it) in rows {
            let mut cfg = small();
            break_it(&mut cfg);
            for &kind in kinds {
                match run_cluster(kind, &cfg) {
                    Err(ClusterError::Config(msg)) => {
                        assert!(msg.contains(needle), "{kind:?} {needle}: {msg}")
                    }
                    other => panic!("{kind:?} {needle}: expected Config, got {other:?}"),
                }
            }
        }
        // A two-row frame is fine where one node renders it whole.
        let mut short = small();
        short.render.height = 2;
        assert!(run_cluster(InTransit, &short).is_ok());
        let err = ClusterError::Config("io_interval must be at least 1, got 0".to_string());
        assert_eq!(
            err.to_string(),
            "bad cluster parameter: io_interval must be at least 1, got 0"
        );
    }

    #[test]
    fn more_io_servers_speed_up_the_write_phase() {
        let mut one = small();
        one.io_servers = 1;
        let mut four = small();
        four.io_servers = 4;
        let slow = run_cluster(ClusterKind::PostProcessing, &one).unwrap();
        let fast = run_cluster(ClusterKind::PostProcessing, &four).unwrap();
        assert!(
            fast.makespan_s < slow.makespan_s,
            "{} vs {}",
            fast.makespan_s,
            slow.makespan_s
        );
    }
}
