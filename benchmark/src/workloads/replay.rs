//! Layered replay of the single-node pipelines.
//!
//! `experiment::run` is one opaque call; to attribute its host seconds the
//! traced pass re-drives the same job step by step through each layer's
//! public functions — solver step, node charging, snapshot serialisation,
//! filesystem write/fsync/read, cache control, raster, PPM encode, power
//! measurement, journal dump — with a span around each call. The replay is
//! kept honest two ways: the job result it assembles goes through the real
//! `manifest_json` / `sweep_journal`, whose digest must equal the real
//! run's, and its `total_energy_j` must bit-equal `experiment::run`'s
//! (`core.replay_energy_match`).
//!
//! What the replay does *not* do is the pipeline's own snapshot
//! checksumming (a private helper): that work, the sweep executor, and the
//! replay's own glue are what `core.unattributed_s` measures as the
//! remainder against the untraced run.

use greenness_core::config::PipelineConfig;
use greenness_core::experiment::PipelineReport;
use greenness_core::pipeline::{PipelineKind, PipelineOutput};
use greenness_core::sweep::{JobResult, SweepJob};
use greenness_heatsim::{Grid, HeatSolver};
use greenness_platform::{Activity, Node, Phase, Timeline};
use greenness_power::{GreenMetrics, PowerProfile};
use greenness_storage::{FileSystem, FsConfig, MemBlockDevice};
use greenness_trace::{Tracer, Value};
use greenness_viz::{encode_ppm, render_field};

use crate::report::Values;
use crate::spans::Recorder;

/// Counts the replay gathers at the layer boundaries of one iteration.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    pub cell_updates: u64,
    pub pixels: u64,
    pub write_bytes: u64,
    pub read_bytes: u64,
    pub fsyncs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub segments: u64,
    pub power_samples: u64,
    pub virtual_s: f64,
}

/// `pipeline::write_chunked`: one write + fsync per chunk. Returns the bytes
/// written and the fsyncs issued.
fn write_chunked(
    rec: &mut Recorder,
    node: &mut Node,
    fs: &mut FileSystem<MemBlockDevice>,
    name: &str,
    data: &[u8],
    chunk: usize,
    phase: Phase,
) -> (u64, u64) {
    for (i, part) in data.chunks(chunk).enumerate() {
        rec.leaf("storage.write", || {
            fs.write(node, name, (i * chunk) as u64, part, phase)
                .expect("replayed write fits the device");
            fs.fsync_with_retry(node, name, phase)
                .expect("fault-free fsync");
        });
    }
    (data.len() as u64, data.len().div_ceil(chunk) as u64)
}

fn read_chunked(
    rec: &mut Recorder,
    node: &mut Node,
    fs: &mut FileSystem<MemBlockDevice>,
    name: &str,
    chunk: usize,
) -> Vec<u8> {
    let size = fs.size(name).expect("snapshot exists");
    let mut out = Vec::with_capacity(size as usize);
    let mut off = 0u64;
    while off < size {
        let part = rec.leaf("storage.read", || {
            fs.read(node, name, off, chunk as u64, Phase::Read)
                .expect("replayed read is in range")
        });
        off += part.len() as u64;
        out.extend_from_slice(&part);
    }
    out
}

/// `pipeline::run` for post-processing and in-situ, layer by layer.
fn replay_pipeline(
    rec: &mut Recorder,
    counts: &mut LayerCounts,
    kind: PipelineKind,
    node: &mut Node,
    cfg: &PipelineConfig,
) -> PipelineOutput {
    let mut fs = FileSystem::format(
        MemBlockDevice::with_capacity_bytes(cfg.device_bytes),
        FsConfig::default(),
    );
    let initial = Grid::from_fn(cfg.grid_nx, cfg.grid_ny, |x, y| {
        0.3 * (-((x - 0.5).powi(2) + (y - 0.4).powi(2)) * 40.0).exp()
    });
    let mut solver = HeatSolver::new(initial, cfg.solver.clone()).expect("stable solver config");
    let cells = (cfg.grid_nx * cfg.grid_ny) as u64;
    let pixels = (cfg.render.width * cfg.render.height) as u64;
    let mut out = PipelineOutput {
        kind,
        work_units: cfg.work_units(),
        io_steps: 0,
        bytes_written: 0,
        bytes_read: 0,
        frames: Vec::new(),
        verified: true,
    };
    let mut snapshots: Vec<String> = Vec::new();

    for step in 1..=cfg.timesteps {
        rec.leaf("heatsim.step", || solver.step());
        node.tracer().count("solver.steps", 1);
        rec.leaf("platform.charge", || {
            node.execute(cfg.sim_cost.activity(cells), Phase::Simulation)
        });
        if step % cfg.io_interval != 0 {
            continue;
        }
        out.io_steps += 1;
        match kind {
            PipelineKind::PostProcessing => {
                let bytes = rec.leaf("heatsim.serialize", || solver.grid().to_bytes());
                let name = format!("snap{step:04}");
                let (bytes, fsyncs) = write_chunked(
                    rec,
                    node,
                    &mut fs,
                    &name,
                    &bytes,
                    cfg.chunk_bytes,
                    Phase::Write,
                );
                out.bytes_written += bytes;
                counts.fsyncs += fsyncs;
                snapshots.push(name);
            }
            PipelineKind::InSitu => {
                rec.leaf("platform.charge", || {
                    node.execute(
                        Activity::MemTraffic {
                            bytes: cfg.snapshot_bytes(),
                        },
                        Phase::Visualization,
                    );
                    node.execute(cfg.render_cost.activity(pixels), Phase::Visualization)
                });
                let image = rec.leaf("viz.raster", || render_field(solver.grid(), &cfg.render));
                counts.pixels += pixels;
                let ppm = rec.leaf("viz.ppm", || encode_ppm(&image));
                let (bytes, fsyncs) = write_chunked(
                    rec,
                    node,
                    &mut fs,
                    &format!("frame{step:04}.ppm"),
                    &ppm,
                    cfg.chunk_bytes,
                    Phase::ImageWrite,
                );
                out.bytes_written += bytes;
                counts.fsyncs += fsyncs;
            }
            PipelineKind::InTransit => unreachable!("the benchmark grids hold no in-transit cell"),
        }
    }

    rec.leaf("storage.cache_ctl", || {
        fs.sync(node, Phase::CacheControl);
        let evicted = fs.drop_caches();
        if node.tracer().is_on() {
            node.tracer().instant(
                node.now().as_nanos(),
                "cache.drop",
                vec![("evicted", Value::from(evicted))],
            );
            fs.publish_cache_counters(node);
        }
    });

    for name in &snapshots {
        let bytes = read_chunked(rec, node, &mut fs, name, cfg.chunk_bytes);
        out.bytes_read += bytes.len() as u64;
        let grid = rec.leaf("heatsim.serialize", || {
            Grid::from_bytes(cfg.grid_nx, cfg.grid_ny, &bytes).expect("snapshot has the grid shape")
        });
        rec.leaf("platform.charge", || {
            node.execute(cfg.render_cost.activity(pixels), Phase::Visualization)
        });
        rec.leaf("viz.raster", || render_field(&grid, &cfg.render));
        counts.pixels += pixels;
    }

    counts.cell_updates += solver.cell_updates();
    counts.write_bytes += out.bytes_written;
    counts.read_bytes += out.bytes_read;
    let cache = fs.cache_stats();
    counts.cache_hits += cache.hits;
    counts.cache_misses += cache.misses;
    out
}

/// `experiment::run`'s journal dump of the power history, event for event.
fn dump_timeline(tracer: &Tracer, timeline: &Timeline, end_ns: u64) {
    for seg in timeline.segments() {
        tracer.instant(
            end_ns,
            "segment",
            vec![
                ("start_ns", Value::from(seg.start.as_nanos())),
                ("dur_ns", Value::from(seg.duration.as_nanos())),
                ("phase", Value::from(seg.phase.label())),
                ("package_w", Value::from(seg.draw.package_w)),
                ("dram_w", Value::from(seg.draw.dram_w)),
                ("disk_w", Value::from(seg.draw.disk_w)),
                ("net_w", Value::from(seg.draw.net_w)),
                ("board_w", Value::from(seg.draw.board_w)),
            ],
        );
    }
    for phase in Phase::ALL {
        let duration = timeline.phase_duration(phase);
        if duration.is_zero() {
            continue;
        }
        let e = timeline.phase_energy(phase);
        tracer.instant(
            end_ns,
            "phase_summary",
            vec![
                ("phase", Value::from(phase.label())),
                ("time_s", Value::from(duration.as_secs_f64())),
                ("package_j", Value::from(e.package_j)),
                ("dram_j", Value::from(e.dram_j)),
                ("disk_j", Value::from(e.disk_j)),
                ("net_j", Value::from(e.net_j)),
                ("board_j", Value::from(e.board_j)),
                ("system_j", Value::from(e.system_j())),
            ],
        );
    }
}

/// One sweep job, replayed: `SweepJob::execute` + `experiment::run`.
pub fn replay_job(
    rec: &mut Recorder,
    counts: &mut LayerCounts,
    id: usize,
    job: &SweepJob,
) -> JobResult {
    let cell = rec.enter("core.cell");
    let mut setup = job.setup.clone();
    setup.meter.seed = job.derived_seed();
    let mut node = Node::new(setup.spec.clone());
    node.set_monitoring_overhead_w(setup.monitoring_overhead_w);
    if setup.trace {
        let tracer = Tracer::jsonl();
        tracer.begin(
            0,
            "run",
            vec![
                ("pipeline", Value::from(job.kind.label())),
                ("config", Value::from(job.cfg.label.as_str())),
            ],
        );
        node.set_tracer(tracer);
    }
    let output = replay_pipeline(rec, counts, job.kind, &mut node, &job.cfg);
    node.finish_trace();
    let tracer = node.tracer().clone();
    let timeline = node.into_timeline();
    counts.segments += timeline.len() as u64;
    let end_ns = timeline.end().as_nanos();
    let (metrics, profile) = rec.leaf("power.measure", || {
        let metrics = GreenMetrics::from_timeline(&timeline, job.cfg.work_units());
        if tracer.is_on() {
            tracer.begin(end_ns, "measure", Vec::new());
        }
        let profile = PowerProfile::measure_traced(&timeline, &setup.meter, &tracer);
        (metrics, profile)
    });
    counts.power_samples += profile.len() as u64;
    counts.virtual_s += metrics.execution_time_s;
    let (journal, trace_metrics) = if tracer.is_on() {
        rec.leaf("trace.dump", || {
            tracer.end(end_ns, "measure", Vec::new());
            dump_timeline(&tracer, &timeline, end_ns);
            tracer.gauge("run.end_s", timeline.end().as_secs_f64());
            tracer.gauge("energy.system_j", timeline.total_energy_j());
            tracer.snapshot("run");
            tracer.end(end_ns, "run", Vec::new());
            let out = tracer.drain().expect("tracer is on");
            (Some(out.journal), Some(out.metrics))
        })
    } else {
        (None, None)
    };
    let result = JobResult {
        id,
        key: job.key(),
        group: job.group(),
        seed: setup.meter.seed,
        case: job.case,
        kind: job.kind,
        report: PipelineReport {
            kind: job.kind,
            config_label: job.cfg.label.clone(),
            metrics,
            profile,
            timeline,
            output,
            journal,
            trace_metrics,
        },
    };
    rec.exit(cell);
    result
}

/// Seconds a layer span took per replay iteration (mean).
pub fn per_iter(rec: &Recorder, name: &str, iterations: usize) -> f64 {
    rec.self_s(name) / iterations.max(1) as f64
}

/// The spans that are a layer's work, as opposed to the replay's own
/// scaffolding (`iteration`, `core.cell`).
fn is_layer(name: &str) -> bool {
    !matches!(name, "iteration" | "core.cell")
}

/// The per-layer metrics every single-node replay produces, per iteration,
/// and the reconciliation against the untraced run: what the layer spans
/// do not cover of `wall_s` is `core.unattributed_s`.
pub fn fill_pipeline_layers(
    rec: &Recorder,
    counts: &LayerCounts,
    iterations: usize,
    wall_s: f64,
    out: &mut Values,
) {
    let n = iterations.max(1) as f64;
    let s = |name: &str| per_iter(rec, name, iterations);
    let step_s = s("heatsim.step");
    out.set("heatsim.step_s", step_s);
    out.set("heatsim.cell_updates", counts.cell_updates as f64 / n);
    out.set(
        "heatsim.cells_per_s",
        counts.cell_updates as f64 / n / step_s.max(1e-12),
    );
    out.set("heatsim.serialize_s", s("heatsim.serialize"));
    let raster_s = s("viz.raster");
    out.set("viz.raster_s", raster_s);
    out.set("viz.pixels", counts.pixels as f64 / n);
    out.set(
        "viz.mpix_per_s",
        counts.pixels as f64 / n / 1e6 / raster_s.max(1e-12),
    );
    out.set("viz.ppm_s", s("viz.ppm"));
    out.set("storage.write_s", s("storage.write"));
    out.set("storage.read_s", s("storage.read"));
    out.set("storage.cache_ctl_s", s("storage.cache_ctl"));
    out.set("storage.write_bytes", counts.write_bytes as f64 / n);
    out.set("storage.read_bytes", counts.read_bytes as f64 / n);
    out.set("storage.fsyncs", counts.fsyncs as f64 / n);
    let lookups = counts.cache_hits + counts.cache_misses;
    out.set(
        "storage.cache_hit_ratio",
        counts.cache_hits as f64 / lookups.max(1) as f64,
    );
    out.set("platform.charge_s", s("platform.charge"));
    out.set("platform.segments", counts.segments as f64 / n);
    out.set("power.measure_s", s("power.measure"));
    out.set("power.samples", counts.power_samples as f64 / n);
    out.set("core.manifest_s", s("core.manifest"));
    out.set("core.sim_s_per_wall_s", counts.virtual_s / n / wall_s);
    set_unattributed(rec, wall_s, out);
}

/// `core.unattributed_*`: the untraced `wall_s` minus the median, over the
/// replayed iterations, of the time their layer spans cover.
pub fn set_unattributed(rec: &Recorder, wall_s: f64, out: &mut Values) {
    let attributed = crate::stats::median(&rec.self_s_by_root(is_layer));
    out.set("core.unattributed_s", wall_s - attributed);
    out.set("core.unattributed_share", (wall_s - attributed) / wall_s);
}

/// `Node::execute` in an isolated loop, nanoseconds per call.
pub fn node_execute_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let mut node = Node::new(greenness_platform::HardwareSpec::table1());
    let t = std::time::Instant::now();
    for i in 0..CALLS {
        // Alternate phases so segments are pushed, not merged away.
        let phase = if i % 2 == 0 {
            Phase::Simulation
        } else {
            Phase::Visualization
        };
        std::hint::black_box(node.execute(Activity::compute(1.0e6, 4), phase));
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(CALLS);
    std::hint::black_box(node.timeline().len());
    ns
}

/// Checks on a sweep's results: post-processing cells verified their
/// read-back snapshots, and each timeline's total energy equals the sum of
/// its per-phase energies to 1e-9 J — plus 1e-12 of the total, because the
/// two sums add the same segments in different orders (on `journal_audit`'s
/// 3×10⁵ J, 10⁵-segment timelines that alone moves the total by 6×10⁻⁸ J).
pub fn check_results(results: &[JobResult], checks: &mut crate::workloads::Checks) {
    for r in results {
        if r.kind == PipelineKind::PostProcessing {
            checks.check(r.report.output.verified, || {
                format!("{}: read-back snapshots failed verification", r.key)
            });
        }
        let tl = &r.report.timeline;
        let by_phase: f64 = Phase::ALL
            .iter()
            .map(|&p| tl.phase_energy(p).system_j())
            .sum();
        let total = tl.total_energy_j();
        checks.check(
            (total - by_phase).abs() <= 1e-9 + 1e-12 * total.abs(),
            || {
                format!(
                    "{}: timeline total {total} J differs from the phase sum {by_phase} J",
                    r.key
                )
            },
        );
    }
}

/// One replayed iteration of a job list, as the child spans of an
/// `iteration` span the caller opened.
pub fn replay_jobs(
    rec: &mut Recorder,
    counts: &mut LayerCounts,
    jobs: &[SweepJob],
) -> Vec<JobResult> {
    jobs.iter()
        .enumerate()
        .map(|(id, job)| replay_job(rec, counts, id, job))
        .collect()
}
