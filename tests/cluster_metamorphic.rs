//! Metamorphic laws of the distributed pipelines: relations between runs
//! that hold whatever the calibration, so a change to the cluster driver may
//! move a charge between nodes but not what is computed, written or drawn.
//!
//! * Decomposition changes who pays, not the picture: on one grid,
//!   post-processing and in-transit over 1, 2 and 4 compute nodes render the
//!   same frames, and post-processing writes the same number of snapshot
//!   bytes.
//! * A one-compute-node, one-I/O-server post-processing cluster writes as
//!   many snapshot bytes as the single-node `pipeline::run` of the same
//!   grid, interval and solver, and renders the same frames from what it
//!   reads back. Both start from `Grid::warm_patch`.
//! * On every kind, plain and faulted, the node classes partition the total:
//!   compute + I/O + visualization = total energy, to 1e-9 J + 1e-12·total.
//!
//! Deliberately not shared with the single-node pipeline, and so never
//! compared: the PFS cost model (each stripe crosses the fabric to a
//! dedicated I/O server with its own page cache, disk and fsync, where the
//! single node writes `chunk_bytes` pieces to one local disk), and the
//! `Network` phase (ghost exchange, striping and staging cross the fabric; a
//! single node has no neighbours). Seconds and joules therefore differ
//! between the two; bytes and pixels may not.

use greenness_cluster::{ClusterConfig, ClusterKind};
use greenness_core::pipeline::cluster::{run_cluster, run_cluster_traced};
use greenness_core::pipeline::{run, PipelineKind};
use greenness_core::PipelineConfig;
use greenness_faults::{fnv1a64, fnv1a64_extend, FaultPlan};
use greenness_platform::{HardwareSpec, Node};
use greenness_trace::Tracer;
use greenness_viz::encode_ppm;

/// A 128×128, 6-step cluster, I/O every step.
fn cluster(compute_nodes: usize, io_servers: usize) -> ClusterConfig {
    ClusterConfig {
        timesteps: 6,
        ..ClusterConfig::small(compute_nodes, io_servers)
    }
}

#[test]
fn decomposition_changes_who_pays_not_the_picture() {
    let run = |kind, n| run_cluster(kind, &cluster(n, 2)).expect("the cluster runs");
    let base = run(ClusterKind::PostProcessing, 1);
    assert_ne!(base.image_hash, fnv1a64(&[]), "no frame was rendered");
    for n in [1, 2, 4] {
        let post = run(ClusterKind::PostProcessing, n);
        let transit = run(ClusterKind::InTransit, n);
        assert!(post.verified && transit.verified, "{n} nodes");
        assert_eq!(post.image_hash, base.image_hash, "post on {n} nodes");
        assert_eq!(
            transit.image_hash, base.image_hash,
            "in-transit on {n} nodes"
        );
        assert_eq!(post.pfs_bytes, base.pfs_bytes, "post on {n} nodes");
    }
}

#[test]
fn one_node_post_processing_writes_what_the_single_node_pipeline_writes() {
    let cfg = cluster(1, 1);
    let report = run_cluster(ClusterKind::PostProcessing, &cfg).expect("the cluster runs");
    let single = PipelineConfig {
        grid_nx: cfg.grid_nx,
        grid_ny: cfg.grid_ny,
        timesteps: cfg.timesteps,
        io_interval: cfg.io_interval,
        solver: cfg.solver.clone(),
        render: cfg.render,
        keep_frames: true,
        device_bytes: 64 << 20,
        ..PipelineConfig::small(cfg.io_interval)
    };
    let mut node = Node::new(HardwareSpec::table1());
    let out = run(PipelineKind::PostProcessing, &mut node, &single).expect("the node runs");
    assert!(report.verified && out.verified);
    assert_eq!(report.pfs_bytes, out.bytes_written);
    assert_eq!(out.bytes_read, out.bytes_written);
    assert_eq!(out.frames.len() as u64, cfg.timesteps / cfg.io_interval);
    let frames = out.frames.iter().fold(fnv1a64(&[]), |hash, frame| {
        fnv1a64_extend(hash, &encode_ppm(&frame.image))
    });
    assert_eq!(report.image_hash, frames, "the read-back frames differ");
}

#[test]
fn node_classes_partition_the_total_on_every_kind() {
    let kinds = [
        ClusterKind::PostProcessing,
        ClusterKind::InSitu,
        ClusterKind::InTransit,
    ];
    for kind in kinds {
        for faults in [None, Some(FaultPlan::with_seed(11))] {
            let (r, _) =
                run_cluster_traced(kind, &cluster(4, 2), faults, &Tracer::off()).expect("runs");
            let parts = r.compute_energy_j + r.io_energy_j + r.viz_energy_j;
            let tolerance = 1e-9 + 1e-12 * r.total_energy_j;
            assert!(
                (parts - r.total_energy_j).abs() <= tolerance,
                "{kind:?} (faulted {}): parts {parts} J, total {} J",
                faults.is_some(),
                r.total_energy_j
            );
            assert!(r.compute_energy_j > 0.0 && r.io_energy_j > 0.0 && r.viz_energy_j > 0.0);
        }
    }
}
