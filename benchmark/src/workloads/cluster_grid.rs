//! `cluster_grid` — the 3×3 cluster grid (three case studies × post / in-situ
//! / in-transit) under the default staging config, then the three in-transit
//! cells again under the `delta-rle` and `quant8` wire codecs: 15 cells.
//!
//! Why: the only workload where `cluster` (slab solver, fabric, PFS, staging
//! queues) and `codec` encode/decode do the work; `paper_grid` bypasses both.

use std::time::Instant;

use greenness_cluster::{
    ClusterConfig, ClusterKind, DecomposedSolver, Fabric, ParallelFs, StagingConfig, WireCodec,
};
use greenness_codec::delta::DeltaVarint;
use greenness_codec::quant::Quant8;
use greenness_codec::transpose::TransposeRle;
use greenness_codec::Codec;
use greenness_core::cluster_sweep::{
    cluster_jobs, cluster_manifest_json, run_cluster_sweep, ClusterJob, ClusterJobResult,
    ClusterSetup,
};
use greenness_core::sweep::silent_progress;
use greenness_heatsim::Grid;
use greenness_platform::{Node, Phase};

use super::{
    digest_str, keep_going, replay, set_energy_match, Checks, Ctx, Iter, Stamps, Untraced, Workload,
};
use crate::report::Values;
use crate::spans::Recorder;

/// One sweep of the iteration: a staging setup and the cells run under it.
type Part = (ClusterSetup, Vec<ClusterJob>);

#[derive(Default)]
pub struct ClusterGrid {
    parts: Vec<Part>,
}

fn staged(codec: WireCodec) -> ClusterSetup {
    ClusterSetup {
        staging: StagingConfig {
            wire_codec: codec,
            ..StagingConfig::default()
        },
        ..ClusterSetup::default()
    }
}

/// The 15 cells; `--smoke` keeps case study 3 only (two I/O steps, not 26).
fn parts(smoke: bool) -> Vec<Part> {
    let keep = |jobs: Vec<ClusterJob>| -> Vec<ClusterJob> {
        jobs.into_iter().filter(|j| !smoke || j.case == 3).collect()
    };
    vec![
        (staged(WireCodec::None), keep(cluster_jobs(None))),
        (
            staged(WireCodec::DeltaRle),
            keep(cluster_jobs(Some(ClusterKind::InTransit))),
        ),
        (
            staged(WireCodec::Quant8),
            keep(cluster_jobs(Some(ClusterKind::InTransit))),
        ),
    ]
}

fn sweep(parts: &[Part]) -> (Vec<ClusterJobResult>, String) {
    let mut all = Vec::new();
    let mut manifest = String::new();
    for (setup, jobs) in parts {
        let results = run_cluster_sweep(jobs.clone(), setup, 1, &silent_progress())
            .expect("the cluster grid runs to completion");
        manifest.push_str(&cluster_manifest_json(setup, &results));
        all.extend(results);
    }
    (all, manifest)
}

impl Workload for ClusterGrid {
    fn setup(&mut self, ctx: &Ctx) {
        self.parts = parts(ctx.smoke);
        // Warm-up: the case-study-3 cells (in smoke, its raw-wire cells).
        let mut warm = parts(true);
        if ctx.smoke {
            warm.truncate(1);
        }
        std::hint::black_box(sweep(&warm));
    }

    fn iterate(&mut self, checks: &mut Checks) -> Iter {
        let t = Instant::now();
        let (results, manifest) = sweep(&self.parts);
        let wall_s = t.elapsed().as_secs_f64();
        for r in &results {
            checks.check(r.report.verified, || {
                format!("{}: staged or read-back slabs failed verification", r.key)
            });
            let rep = &r.report;
            let parts = rep.compute_energy_j + rep.io_energy_j + rep.viz_energy_j;
            checks.check((rep.total_energy_j - parts).abs() <= 1e-9, || {
                format!(
                    "{}: cluster total {} J differs from its node classes' sum {parts} J",
                    r.key, rep.total_energy_j
                )
            });
        }
        let energy: f64 = results.iter().map(|r| r.report.total_energy_j).sum();
        let wire: u64 = results.iter().map(|r| r.report.fabric_bytes).sum();
        Iter {
            wall_s,
            items: results.len() as u64,
            items_s: wall_s,
            digest: digest_str(&manifest),
            note: format!(
                "virtual: {} cells, {energy:.3} J, {wire} staged bytes on the wire",
                results.len()
            ),
        }
    }

    fn traced(
        &mut self,
        ctx: &Ctx,
        baseline: &Untraced,
        rec: &mut Recorder,
        checks: &mut Checks,
        out: &mut Values,
    ) {
        let (real, _) = sweep(&self.parts);
        // The same sweeps, their cells timed from outside through the
        // sweep's progress callback: one span per cell, named by kind.
        let started = Instant::now();
        let mut iterations = 0usize;
        let mut matching = 0usize;
        while keep_going(started, iterations, 2, ctx.seconds / 3.0) {
            let it = rec.enter("iteration");
            let mut all = Vec::new();
            for (setup, jobs) in &self.parts {
                let names: Vec<&'static str> = jobs
                    .iter()
                    .map(|job| match job.kind {
                        ClusterKind::PostProcessing => "cluster.cell.post",
                        ClusterKind::InSitu => "cluster.cell.insitu",
                        ClusterKind::InTransit => "cluster.cell.intransit",
                    })
                    .collect();
                let stamps = Stamps::default();
                let sweep_started = Instant::now();
                let results = run_cluster_sweep(jobs.clone(), setup, 1, &stamps.callback())
                    .expect("the cluster grid runs to completion");
                stamps.record(rec, sweep_started, &names);
                rec.leaf("core.manifest", || cluster_manifest_json(setup, &results));
                all.extend(results);
            }
            rec.exit(it);
            if iterations == 0 {
                matching = all
                    .iter()
                    .zip(&real)
                    .filter(|(a, b)| {
                        a.report.total_energy_j.to_bits() == b.report.total_energy_j.to_bits()
                    })
                    .count();
            }
            iterations += 1;
        }
        set_energy_match(matching, real.len(), checks, out);
        let n = iterations as f64;
        for kind in ["post", "insitu", "intransit"] {
            let s = rec.self_s(&format!("cluster.cell.{kind}")) / n;
            out.set(&format!("cluster.cell_s.{kind}"), s);
        }
        out.set("core.manifest_s", rec.self_s("core.manifest") / n);
        replay::set_unattributed(rec, baseline.wall_s, out);
        let virtual_s: f64 = real.iter().map(|r| r.report.makespan_s).sum();
        out.set("core.sim_s_per_wall_s", virtual_s / baseline.wall_s);

        isolated_layers(real.len() as f64, checks, out);
    }
}

/// Inside a cell: the cluster's own layers and the codecs in isolation on
/// the case-study-1 inputs, scaled to one iteration's worth of calls
/// (`cells` cells).
fn isolated_layers(cells: f64, checks: &mut Checks, out: &mut Values) {
    let cfg = ClusterConfig::case_study(1);
    let initial = Grid::from_fn(cfg.grid_nx, cfg.grid_ny, |x, y| {
        0.3 * (-((x - 0.5).powi(2) + (y - 0.4).powi(2)) * 40.0).exp()
    });
    let mut solver = DecomposedSolver::new(&initial, cfg.solver.clone(), cfg.compute_nodes);
    let t = Instant::now();
    solver.run(cfg.timesteps);
    out.set("cluster.slab_step_s", t.elapsed().as_secs_f64() * cells);
    let ghost = solver.ghost_traffic();
    out.set(
        "cluster.ghost_bytes",
        (ghost.bytes_per_direction * 2 * ghost.pairs as u64 * cfg.timesteps) as f64 * cells,
    );

    let fabric = Fabric::new(cfg.net.clone());
    let mut spec = cfg.spec.clone();
    spec.net = cfg.net.clone();
    let (mut a, mut b) = (Node::new(spec.clone()), Node::new(spec.clone()));
    const TRANSFERS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..TRANSFERS {
        std::hint::black_box(fabric.transfer(&mut a, &mut b, 2048, 1, Phase::Network));
    }
    out.set(
        "cluster.fabric_transfer_ns",
        t.elapsed().as_nanos() as f64 / f64::from(TRANSFERS),
    );

    // One post-processing cell's PFS traffic: every slab of every step
    // written, then read back.
    let slabs: Vec<Vec<u8>> = (0..cfg.compute_nodes)
        .map(|k| solver.slab_bytes(k))
        .collect();
    let mut pfs = ParallelFs::new(cfg.io_servers, &spec, cfg.stripe_bytes, 1 << 30);
    let mut client = Node::new(spec);
    let t = Instant::now();
    for step in 0..cfg.timesteps {
        for (k, slab) in slabs.iter().enumerate() {
            pfs.write(
                &mut client,
                &fabric,
                &format!("snap{step:04}.n{k:02}"),
                slab,
                Phase::Write,
            )
            .expect("the PFS holds one cell's snapshots");
        }
    }
    out.set("cluster.pfs_write_s", t.elapsed().as_secs_f64());
    pfs.sync_and_drop_all(Phase::CacheControl);
    let t = Instant::now();
    for step in 0..cfg.timesteps {
        for (k, slab) in slabs.iter().enumerate() {
            let back = pfs
                .read(
                    &mut client,
                    &fabric,
                    &format!("snap{step:04}.n{k:02}"),
                    Phase::Read,
                )
                .expect("the snapshot was written");
            checks.check(&back == slab, || {
                format!("PFS returned other bytes for step {step} slab {k}")
            });
        }
    }
    out.set("cluster.pfs_read_s", t.elapsed().as_secs_f64());

    // Codecs on the final slab of the same run.
    let slab = &slabs[0];
    for (codec, name) in [
        (&Quant8 as &dyn Codec, "quant8"),
        (&DeltaVarint, "delta"),
        (&TransposeRle, "transpose_rle"),
    ] {
        let (enc, dec, ratio, exact) = codec_rates(codec, slab);
        out.set(&format!("codec.{name}_enc_mb_per_s"), enc);
        out.set(&format!("codec.{name}_dec_mb_per_s"), dec);
        if name != "transpose_rle" {
            out.set(&format!("codec.ratio.{name}"), ratio);
        }
        if name != "quant8" {
            checks.check(exact, || format!("{name} did not round-trip the slab"));
        }
    }
}

/// Encode and decode MB/s of `codec` on `input` (raw megabytes per second),
/// the compression ratio, and whether decoding returned the input exactly.
fn codec_rates(codec: &dyn Codec, input: &[u8]) -> (f64, f64, f64, bool) {
    const REPS: u32 = 20;
    let mb = input.len() as f64 / 1e6 * f64::from(REPS);
    let mut scratch = greenness_codec::Scratch::default();
    let mut encoded = Vec::new();
    let t = Instant::now();
    for _ in 0..REPS {
        codec
            .encode_into(input, &mut scratch, &mut encoded)
            .expect("slabs are finite f64 streams");
        std::hint::black_box(&encoded);
    }
    let enc = mb / t.elapsed().as_secs_f64();
    let mut decoded = Vec::new();
    let t = Instant::now();
    for _ in 0..REPS {
        decoded = codec.decode(&encoded).expect("own encoding decodes");
        std::hint::black_box(&decoded);
    }
    let dec = mb / t.elapsed().as_secs_f64();
    (
        enc,
        dec,
        input.len() as f64 / encoded.len().max(1) as f64,
        decoded == input,
    )
}
