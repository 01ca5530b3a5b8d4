//! Distributed visualization pipelines over the cluster substrate.
//!
//! The single-node story of the paper, replayed at cluster scale:
//!
//! * **post-processing**: compute nodes advance their slabs (ghost exchange
//!   over the fabric, barrier per step) and write raw slabs to the parallel
//!   filesystem every I/O step; afterwards a visualization node reads every
//!   snapshot back and renders it;
//! * **in-situ**: compute nodes render their own slabs and write only PPM
//!   images to the PFS;
//! * **in-transit**: compute nodes stage slabs — optionally compressed on
//!   the wire — into dedicated staging nodes through bounded per-stager
//!   send queues. A compute node only blocks (real static idle, charged, and
//!   visible as `staging.queue.block` in the trace) when its stager's queue
//!   is full; otherwise its clock advances into the next simulation step
//!   while the stager drains transfers and renders the *previous* frame at
//!   its own clock — the Bennett et al. staging organization (paper ref
//!   [10]), with genuine simulate/transfer/render overlap.
//!
//! Wire compression replays the paper's own dynamic-vs-static trade at
//! cluster scale: encode/decode are charged as CPU dynamic energy against
//! the fabric-byte and both-endpoint static-time savings.
//!
//! Energy is accounted across *every* node (compute + I/O servers +
//! staging); the run ends at the makespan, and nodes that finish early idle
//! — at real static power — until it, as in any space-shared allocation.

use std::collections::VecDeque;

use greenness_codec::delta::DeltaVarint;
use greenness_codec::quant::Quant8;
use greenness_codec::{Codec, CodecCostModel, ScratchCodec};
use greenness_faults::{checksum64, fnv1a64, FaultInjector, FaultPlan, Site};
use greenness_heatsim::{Grid, SimCostModel, SolverConfig};
use greenness_platform::{HardwareSpec, NetModel, Node, Phase, SimTime};
use greenness_trace::{Tracer, Value};
use greenness_viz::{render_field_hashed, Framebuffer, RenderCostModel, RenderOptions};

use crate::error::{ClusterError, FaultSummary};
use crate::fabric::{barrier, sync_to, Fabric};
use crate::pfs::ParallelFs;
use crate::slab::{row_slabs, DecomposedSolver};

/// Which distributed pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    /// Write raw slabs to the PFS; visualize later on a viz node.
    PostProcessing,
    /// Render on the compute nodes; persist only images.
    InSitu,
    /// Stage slabs to the staging nodes over the fabric.
    InTransit,
}

impl ClusterKind {
    /// CLI label (`post` / `insitu` / `intransit`).
    pub fn label(self) -> &'static str {
        match self {
            ClusterKind::PostProcessing => "post",
            ClusterKind::InSitu => "insitu",
            ClusterKind::InTransit => "intransit",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<ClusterKind> {
        match s {
            "post" | "post-processing" => Some(ClusterKind::PostProcessing),
            "insitu" | "in-situ" => Some(ClusterKind::InSitu),
            "intransit" | "in-transit" => Some(ClusterKind::InTransit),
            _ => None,
        }
    }
}

/// Compression applied to staged slabs on the fabric (in-transit only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireCodec {
    /// Raw little-endian f64 slabs on the wire.
    None,
    /// Lossless bit-delta + zigzag varint (`greenness_codec::delta`).
    DeltaRle,
    /// Lossy 255-level quantization + delta coding
    /// (`greenness_codec::quant::Quant8`): bounded error, large byte wins
    /// on smooth fields.
    Quant8,
}

impl WireCodec {
    /// CLI label (`none` / `delta-rle` / `quant8`).
    pub fn label(self) -> &'static str {
        match self {
            WireCodec::None => "none",
            WireCodec::DeltaRle => "delta-rle",
            WireCodec::Quant8 => "quant8",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<WireCodec> {
        match s {
            "none" => Some(WireCodec::None),
            "delta-rle" => Some(WireCodec::DeltaRle),
            "quant8" => Some(WireCodec::Quant8),
            _ => None,
        }
    }

    /// Whether decoded payloads are bit-identical to the originals (gates
    /// checksum verification of staged slabs).
    pub fn lossless(self) -> bool {
        !matches!(self, WireCodec::Quant8)
    }

    /// Instantiate the codec; `None` for the raw wire.
    fn build(self) -> Option<Box<dyn Codec>> {
        match self {
            WireCodec::None => None,
            WireCodec::DeltaRle => Some(Box::new(DeltaVarint)),
            WireCodec::Quant8 => Some(Box::new(Quant8)),
        }
    }
}

/// In-transit staging topology and flow control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagingConfig {
    /// Dedicated staging nodes; frames are distributed round-robin.
    pub staging_nodes: usize,
    /// Frames that may be in flight per stager before the *senders* block
    /// (charged static idle). `0` degenerates to the synchronous legacy
    /// organization — every compute node waits for the stager to finish
    /// each frame — which doubles as the serialized baseline the overlap
    /// goldens compare against.
    pub queue_depth: usize,
    /// Compression applied to staged slabs on the wire.
    pub wire_codec: WireCodec,
}

impl Default for StagingConfig {
    fn default() -> Self {
        StagingConfig {
            staging_nodes: 1,
            queue_depth: 2,
            wire_codec: WireCodec::None,
        }
    }
}

/// Cluster workload description.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Compute nodes (= solver slabs).
    pub compute_nodes: usize,
    /// PFS object servers.
    pub io_servers: usize,
    /// Global grid extent.
    pub grid_nx: usize,
    /// Global grid extent.
    pub grid_ny: usize,
    /// Simulation timesteps.
    pub timesteps: u64,
    /// I/O + visualization every `io_interval` steps.
    pub io_interval: u64,
    /// PFS stripe size, bytes.
    pub stripe_bytes: usize,
    /// Solver physics.
    pub solver: SolverConfig,
    /// Per-node compute cost model.
    pub sim_cost: SimCostModel,
    /// Rendering cost model.
    pub render_cost: RenderCostModel,
    /// Rendering controls (full-frame; slab renders scale by row share).
    pub render: RenderOptions,
    /// Node hardware (all nodes identical).
    pub spec: HardwareSpec,
    /// Interconnect link model (fabric transfers and PFS traffic).
    pub net: NetModel,
    /// In-transit staging topology. The other pipelines read only
    /// `staging_nodes`, the size of their non-compute allocation
    /// (post-processing renders on the first of those nodes).
    pub staging: StagingConfig,
}

impl ClusterConfig {
    /// A 4-compute-node, 2-server cluster running the case-study-1 workload
    /// at reduced grid scale (128×128; per-step modeled work matches the
    /// full-scale calibration via the area-scaled cost constants).
    pub fn small(compute_nodes: usize, io_servers: usize) -> ClusterConfig {
        ClusterConfig {
            compute_nodes,
            io_servers,
            timesteps: 10,
            ..ClusterConfig::scaled(128, 1, NetModel::ten_gbe())
        }
    }

    /// The paper's case-study workloads (§IV: I/O every 1 / 2 / 8 steps) on
    /// a 4-compute-node, 2-server cluster at 256×256 grid scale, over a
    /// deliberately narrow staging fabric (a per-node share of a heavily
    /// oversubscribed link) so wire time is a first-order term — the regime
    /// where compression-on-the-wire earns or loses its keep.
    pub fn case_study(n: u32) -> ClusterConfig {
        let io_interval = match n {
            1 => 1,
            2 => 2,
            3 => 8,
            _ => panic!("the paper defines case studies 1-3, got {n}"),
        };
        let net = NetModel {
            bandwidth_bytes_per_s: 0.75e6,
            active_w: 2.5,
            latency_s: 100e-6,
        };
        ClusterConfig::scaled(256, io_interval, net)
    }

    /// A 4-compute-node, 2-server, 16-step cluster on an `n × n` grid
    /// rendered at `n × n`. The cost constants are area-scaled so that one
    /// *cluster* step's modeled work equals one full-scale (512×512) step;
    /// each node handles `1/compute_nodes` of it on its own 16 cores.
    fn scaled(n: usize, io_interval: u64, net: NetModel) -> ClusterConfig {
        let scale = (512.0 * 512.0) / (n * n) as f64;
        let mut sim_cost = SimCostModel::default();
        sim_cost.flops_per_cell_update *= scale;
        sim_cost.dram_bytes_per_cell_update *= scale;
        let mut render_cost = RenderCostModel::default();
        render_cost.flops_per_pixel *= scale;
        render_cost.dram_bytes_per_pixel *= scale;
        ClusterConfig {
            compute_nodes: 4,
            io_servers: 2,
            grid_nx: n,
            grid_ny: n,
            timesteps: 16,
            io_interval,
            stripe_bytes: 128 * 1024,
            solver: default_solver(n, n),
            sim_cost,
            render_cost,
            render: RenderOptions {
                width: n,
                height: n,
                range: Some((0.0, 1.0)),
                ..Default::default()
            },
            spec: HardwareSpec::table1(),
            net,
            staging: StagingConfig::default(),
        }
    }

    /// Reject what a `kind` run would otherwise trip over mid-flight — a
    /// division by `io_interval`, the slab and PFS constructors' contracts,
    /// an empty frame or in-situ slab image, the solver's stability
    /// condition — naming the offending field.
    fn validate(&self, kind: ClusterKind) -> Result<(), ClusterError> {
        let at_least = |name: &str, value: u64, min: u64| {
            if value >= min {
                return Ok(());
            }
            let reason = format!("{name} must be at least {min}, got {value}");
            Err(ClusterError::Config(reason))
        };
        at_least("compute_nodes", self.compute_nodes as u64, 1)?;
        at_least("io_servers", self.io_servers as u64, 1)?;
        at_least("staging_nodes", self.staging.staging_nodes as u64, 1)?;
        at_least("stripe_bytes", self.stripe_bytes as u64, 1)?;
        at_least("io_interval", self.io_interval, 1)?;
        at_least("grid_nx", self.grid_nx as u64, 3)?;
        let rows = self.grid_ny / self.compute_nodes;
        at_least("grid_ny / compute_nodes (rows per node)", rows as u64, 3)?;
        at_least("render.width", self.render.width as u64, 1)?;
        at_least("render.height", self.render.height as u64, 1)?;
        if kind == ClusterKind::InSitu {
            let (height, ny) = (self.render.height, self.grid_ny);
            for (k, (j0, rows)) in row_slabs(ny, self.compute_nodes).into_iter().enumerate() {
                let field = format!("render.height: pixel rows of slab {k}");
                at_least(&field, slab_rows_px(height, ny, j0, rows) as u64, 1)?;
            }
        }
        self.solver
            .validate(self.grid_nx, self.grid_ny)
            .map_err(|e| ClusterError::Config(format!("solver: {e}")))
    }

    /// Total useful work (cell updates).
    pub fn work_units(&self) -> f64 {
        (self.grid_nx * self.grid_ny) as f64 * self.timesteps as f64
    }
}

/// A CFL-stable configuration: `greenness_core`'s alpha, time step and
/// walls, but only the first of its two point sources (the hot one at a
/// third of the grid), which is the field the cluster recordings pin.
fn default_solver(nx: usize, ny: usize) -> SolverConfig {
    let limit = 0.5 / ((nx * nx + ny * ny) as f64);
    let alpha = 1.0e-4;
    SolverConfig {
        alpha,
        dt: 0.8 * limit / alpha,
        boundary: greenness_heatsim::Boundary::Neumann,
        sources: vec![greenness_heatsim::PointSource {
            i: nx / 3,
            j: ny / 3,
            rate: 40.0 / (0.8 * limit / alpha) / 50.0,
        }],
    }
}

/// Results of one distributed run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Which pipeline ran.
    pub kind: ClusterKind,
    /// Wall time to the last node's completion, seconds.
    pub makespan_s: f64,
    /// Energy summed over every node, joules.
    pub total_energy_j: f64,
    /// `total_energy / makespan`, watts.
    pub average_power_w: f64,
    /// Energy of the compute nodes alone, joules.
    pub compute_energy_j: f64,
    /// Energy of the PFS servers alone, joules.
    pub io_energy_j: f64,
    /// Energy of the visualization/staging nodes alone, joules.
    pub viz_energy_j: f64,
    /// Bytes staged over the fabric to the staging nodes (post-compression
    /// wire bytes; zero outside in-transit — ghost exchange and PFS striping
    /// are accounted in their own channels, not here).
    pub fabric_bytes: u64,
    /// Bytes written into the parallel filesystem (raw snapshots or images).
    pub pfs_bytes: u64,
    /// Total output: `fabric_bytes + pfs_bytes`. Kept for compatibility;
    /// the split fields are the comparable quantities across pipelines.
    pub bytes_out: u64,
    /// Pre-compression size of the staged slabs (equals `fabric_bytes` on a
    /// raw wire; zero outside in-transit).
    pub staging_raw_bytes: u64,
    /// FNV-1a over every emitted PPM image, in emission order — the
    /// pipeline's visual output fingerprint (chaos tests assert faulted
    /// runs converge to it).
    pub image_hash: u64,
    /// All integrity checks passed: post-processing snapshot round-trips,
    /// and (for a lossless wire) staged slabs decoded bit-identically.
    pub verified: bool,
    /// Useful work (cell updates).
    pub work_units: f64,
}

impl ClusterReport {
    /// Energy efficiency, work per joule.
    pub fn efficiency(&self) -> f64 {
        if self.total_energy_j <= 0.0 {
            0.0
        } else {
            self.work_units / self.total_energy_j
        }
    }
}

/// Exact pixel-row partition for slab renders: slab rows `[j0, j0+rows)` of
/// a `ny`-row grid own pixel rows `[height*j0/ny, height*(j0+rows)/ny)`.
/// The boundaries telescope, so per-slab heights (and pixel charges) sum to
/// exactly the full frame — no truncation bias on odd grids.
fn slab_rows_px(height: usize, ny: usize, j0: usize, rows: usize) -> usize {
    height * (j0 + rows) / ny - height * j0 / ny
}

/// Run the distributed pipeline described by `cfg`, fault-free.
pub fn run_cluster(kind: ClusterKind, cfg: &ClusterConfig) -> Result<ClusterReport, ClusterError> {
    run_cluster_traced(kind, cfg, None, &Tracer::off()).map(|(report, _)| report)
}

/// Run the distributed pipeline under an optional seeded fault plan. A
/// degraded run completes slower (retries and backoff are real idle time —
/// static energy in every node's timeline) and reports what it absorbed in
/// the [`FaultSummary`]; only an exhausted retry budget or a genuinely
/// undersized PFS aborts the run with a structured [`ClusterError`].
///
/// `tracer` is attached to every compute and staging node: phase spans,
/// `fault.injected` instants, and the staging vocabulary
/// (`staging.queue.block` / `staging.frame.render` instants,
/// `staging.bytes.wire` / `staging.bytes.raw` counters) land in it.
/// Every kind runs the same `Run` stages; only the I/O step differs.
pub fn run_cluster_traced(
    kind: ClusterKind,
    cfg: &ClusterConfig,
    faults: Option<FaultPlan>,
    tracer: &Tracer,
) -> Result<(ClusterReport, FaultSummary), ClusterError> {
    cfg.validate(kind)?;
    let mut run = Run::new(kind, cfg, faults, tracer);
    for step in 1..=cfg.timesteps {
        run.simulate()?;
        if step % cfg.io_interval != 0 {
            continue;
        }
        match kind {
            ClusterKind::PostProcessing => run.write_snapshots(step)?,
            ClusterKind::InSitu => run.render_slabs(step)?,
            ClusterKind::InTransit => {
                let stager = run.wait_for_slot(step);
                let staged = run.ship(step)?;
                run.drain(step, stager, staged)?;
            }
        }
        barrier(&mut run.compute, Phase::Idle);
    }
    run.pfs.sync_and_drop_all(Phase::CacheControl);
    if kind == ClusterKind::PostProcessing {
        run.read_back()?;
    }
    Ok(run.finish())
}

/// One slab on its way to a stager: arrival instant, message count, wire
/// payload, raw length and raw checksum.
type Staged = (SimTime, u32, Vec<u8>, u64, u64);

/// One distributed run in flight, and the report and fault summary its
/// stages fill in. Every stage charges its nodes in node-index order, the
/// PFS contention model (a write serves one client's file, then the next).
struct Run<'a> {
    cfg: &'a ClusterConfig,
    /// Journal lanes `0..N`, one slab each.
    compute: Vec<Node>,
    /// The next lanes; post-processing's visualization node is the first.
    stagers: Vec<Node>,
    fabric: Fabric,
    pfs: ParallelFs,
    solver: DecomposedSolver,
    render_inj: Option<FaultInjector>,
    codec_cost: CodecCostModel,
    /// One warm buffer set per sender; empty, like `decoder`, on a raw wire.
    encoders: Vec<ScratchCodec>,
    decoder: Option<Box<dyn Codec>>,
    /// Per stager, the release instants (stager clock at frame completion)
    /// of the frames still occupying a send-queue slot.
    inflight: Vec<VecDeque<SimTime>>,
    /// Post-processing: per I/O step, each slab's checksum at write time.
    checksums: Vec<(u64, Vec<u64>)>,
    report: ClusterReport,
    faults: FaultSummary,
}

impl<'a> Run<'a> {
    fn new(
        kind: ClusterKind,
        cfg: &'a ClusterConfig,
        faults: Option<FaultPlan>,
        tracer: &Tracer,
    ) -> Self {
        let mut fabric = Fabric::new(cfg.net.clone());
        fabric.set_fault_injector(faults.map(|p| p.injector(Site::FabricTransfer, 0)));
        // NetTransfer activities are priced by the endpoint NICs, so the
        // cluster's link model must live on every node's spec.
        let mut spec = cfg.spec.clone();
        spec.net = cfg.net.clone();
        let nodes = |n: usize| -> Vec<Node> { (0..n).map(|_| Node::new(spec.clone())).collect() };
        let (mut compute, mut stagers) =
            (nodes(cfg.compute_nodes), nodes(cfg.staging.staging_nodes));
        // Each node stamps its own clock into the shared journal, on its own lane.
        for (lane, node) in compute.iter_mut().chain(&mut stagers).enumerate() {
            node.set_tracer(tracer.with_node(lane));
        }
        let mut pfs = ParallelFs::new(cfg.io_servers, &spec, cfg.stripe_bytes, 1 << 30);
        pfs.set_fault_plan(faults);
        let initial = Grid::warm_patch(cfg.grid_nx, cfg.grid_ny);
        let wire = cfg.staging.wire_codec;
        Run {
            cfg,
            compute,
            stagers,
            fabric,
            pfs,
            solver: DecomposedSolver::new(&initial, cfg.solver.clone(), cfg.compute_nodes),
            render_inj: faults.map(|p| p.injector(Site::StagingRender, 0)),
            codec_cost: CodecCostModel::default(),
            encoders: (0..cfg.compute_nodes)
                .filter_map(|_| wire.build().map(ScratchCodec::new))
                .collect(),
            decoder: wire.build(),
            inflight: vec![VecDeque::new(); cfg.staging.staging_nodes],
            checksums: Vec::new(),
            report: ClusterReport {
                kind,
                makespan_s: 0.0,
                total_energy_j: 0.0,
                average_power_w: 0.0,
                compute_energy_j: 0.0,
                io_energy_j: 0.0,
                viz_energy_j: 0.0,
                fabric_bytes: 0,
                pfs_bytes: 0,
                bytes_out: 0,
                staging_raw_bytes: 0,
                image_hash: fnv1a64(&[]),
                verified: true,
                work_units: cfg.work_units(),
            },
            faults: FaultSummary::default(),
        }
    }

    /// One step of the global field by the workspace's one solver (`slab`
    /// says why that is exact): each node charges its slab's updates, each
    /// neighbour pair exchanges ghost rows both ways, then a barrier.
    fn simulate(&mut self) -> Result<(), ClusterError> {
        self.solver.step();
        for (k, node) in self.compute.iter_mut().enumerate() {
            let cells = self.solver.slab_info(k).cells;
            node.execute(self.cfg.sim_cost.activity(cells), Phase::Simulation);
        }
        let ghost = self.solver.ghost_traffic();
        let (f, bytes) = (&self.fabric, ghost.bytes_per_direction);
        for k in 0..ghost.pairs {
            let (a, b) = self.compute.split_at_mut(k + 1);
            let (lo, hi) = (&mut a[k], &mut b[0]);
            f.transfer_reliable(lo, hi, bytes, 1, Phase::Network)?;
            f.transfer_reliable(hi, lo, bytes, 1, Phase::Network)?;
        }
        barrier(&mut self.compute, Phase::Idle);
        Ok(())
    }

    /// Post-processing I/O: every node writes its raw slab to the PFS.
    fn write_snapshots(&mut self, step: u64) -> Result<(), ClusterError> {
        let mut sums = Vec::with_capacity(self.compute.len());
        for (k, node) in self.compute.iter_mut().enumerate() {
            let bytes = self.solver.slab_bytes(k);
            sums.push(checksum64(&bytes));
            let name = format!("snap{step:04}.n{k:02}");
            self.pfs
                .write(node, &self.fabric, &name, &bytes, Phase::Write)?;
        }
        self.checksums.push((step, sums));
        Ok(())
    }

    /// In-situ I/O: every node renders its share of the frame — an exact
    /// partition of the pixel rows, so charges and output sum to one full
    /// frame even on odd grids — and writes that image to the PFS.
    fn render_slabs(&mut self, step: u64) -> Result<(), ClusterError> {
        let (cfg, f) = (self.cfg, &self.fabric);
        for (k, node) in self.compute.iter_mut().enumerate() {
            let info = self.solver.slab_info(k);
            let mut opts = cfg.render;
            opts.height = slab_rows_px(opts.height, cfg.grid_ny, info.j0, info.rows);
            let hash = &mut self.report.image_hash;
            let frame = render_frame(node, cfg, &self.solver.slab_grid(k), &opts, hash);
            let name = format!("frame{step:04}.n{k:02}.ppm");
            self.pfs
                .write(node, f, &name, frame.ppm(), Phase::ImageWrite)?;
        }
        Ok(())
    }

    /// In-transit backpressure: frames are dealt round-robin over the
    /// stagers; with every queue slot of this frame's stager occupied, the
    /// senders wait for its oldest in-flight frame to release — real static
    /// idle, charged and traced. Returns the stager.
    fn wait_for_slot(&mut self, step: u64) -> usize {
        let s = (step / self.cfg.io_interval - 1) as usize % self.stagers.len();
        let depth = self.cfg.staging.queue_depth;
        let full = depth > 0 && self.inflight[s].len() >= depth;
        let Some(release) = full.then(|| self.inflight[s].pop_front()).flatten() else {
            return s;
        };
        for node in self.compute.iter_mut().filter(|n| n.now() < release) {
            let wait = release.duration_since(node.now()).as_secs_f64();
            let tracer = node.tracer();
            tracer.count("staging.queue.blocks", 1);
            let fields = vec![
                ("step", Value::from(step)),
                ("stager", Value::from(s)),
                ("wait_s", Value::from(wait)),
            ];
            tracer.instant(node.now().as_nanos(), "staging.queue.block", fields);
            sync_to(node, release, Phase::Network);
        }
        s
    }

    /// In-transit send: encode every slab and stage it with a one-sided
    /// send, which occupies only the sender's NIC, so compute clocks advance
    /// into the next step while the stager drains at its own pace.
    fn ship(&mut self, step: u64) -> Result<Vec<Staged>, ClusterError> {
        let mut staged = Vec::with_capacity(self.compute.len());
        for (k, node) in self.compute.iter_mut().enumerate() {
            let raw = self.solver.slab_bytes(k);
            let (raw_len, sum) = (raw.len() as u64, checksum64(&raw));
            self.report.staging_raw_bytes += raw_len;
            node.tracer().count("staging.bytes.raw", raw_len);
            let payload = match self.encoders.get_mut(k) {
                Some(enc) => {
                    node.execute(self.codec_cost.encode_activity(raw_len), Phase::Network);
                    let encoded = enc.try_encode(&raw).map_err(|e| ClusterError::WireCodec {
                        step,
                        node: k,
                        reason: e.to_string(),
                    })?;
                    encoded.to_vec()
                }
                None => raw,
            };
            let wire_len = payload.len() as u64;
            self.report.fabric_bytes += wire_len;
            node.tracer().count("staging.bytes.wire", wire_len);
            let messages = payload.len().div_ceil(self.cfg.stripe_bytes).max(1) as u32;
            let f = &self.fabric;
            let arrival = f.send_reliable(node, wire_len, messages, Phase::Network)?;
            staged.push((arrival, messages, payload, raw_len, sum));
        }
        Ok(staged)
    }

    /// In-transit receive, at stager `s`'s own clock (the senders' overlap
    /// window): receive, decode and verify each slab, assemble the field,
    /// pay any torn re-renders, render and write the frame, then release
    /// its queue slot — or, on a depth-0 queue, hold every sender until now.
    fn drain(&mut self, step: u64, s: usize, staged: Vec<Staged>) -> Result<(), ClusterError> {
        let (cfg, f) = (self.cfg, &self.fabric);
        let stager = &mut self.stagers[s];
        let mut slabs = Vec::with_capacity(staged.len());
        for (arrival, messages, payload, raw_len, sum) in staged {
            sync_to(stager, arrival, Phase::Network);
            f.recv(stager, payload.len() as u64, messages, Phase::Network);
            let raw = match &self.decoder {
                Some(codec) => {
                    stager.execute(self.codec_cost.decode_activity(raw_len), Phase::Network);
                    let failed = || shape_error(cfg, "stage", step, 0);
                    codec.decode(&payload).ok_or_else(failed)?
                }
                None => payload,
            };
            self.report.verified &= !cfg.staging.wire_codec.lossless() || checksum64(&raw) == sum;
            slabs.push(raw);
        }
        let grid = assemble(cfg, "stage", step, slabs)?;
        // A torn render is redone from the still-live field: paid again,
        // never corrupting the output, bounded by the retry budget.
        let mut torn = 0u32;
        if let Some(inj) = self.render_inj.as_mut() {
            while torn < inj.plan().max_retries && inj.next().is_some() {
                let pixels = (cfg.render.width * cfg.render.height) as u64;
                stager.execute(cfg.render_cost.activity(pixels), Phase::Visualization);
                let tracer = stager.tracer();
                tracer.count("faults.staging.render", 1);
                let fields = vec![
                    ("site", Value::label(Site::StagingRender.label())),
                    ("mode", Value::label("torn")),
                    ("attempt", Value::from(torn)),
                    ("backoff_s", Value::from(0.0)),
                ];
                tracer.instant(stager.now().as_nanos(), "fault.injected", fields);
                torn += 1;
            }
        }
        self.faults.staging_torn_renders += u64::from(torn);
        let frame = render_frame(stager, cfg, &grid, &cfg.render, &mut self.report.image_hash);
        let fields = vec![
            ("step", Value::from(step)),
            ("stager", Value::from(s)),
            ("torn", Value::from(torn)),
        ];
        let (t_ns, tracer) = (stager.now().as_nanos(), stager.tracer());
        tracer.instant(t_ns, "staging.frame.render", fields);
        let name = format!("frame{step:04}.ppm");
        self.pfs
            .write(stager, f, &name, frame.ppm(), Phase::ImageWrite)?;
        let release = stager.now();
        if cfg.staging.queue_depth == 0 {
            for node in &mut self.compute {
                sync_to(node, release, Phase::Network);
            }
        } else {
            self.inflight[s].push_back(release);
        }
        Ok(())
    }

    /// Post-processing's second phase: after the simulation allocation
    /// completes, the visualization node reads every snapshot back, checks
    /// it against its write-time checksum and renders it.
    fn read_back(&mut self) -> Result<(), ClusterError> {
        let viz = &mut self.stagers[0];
        let sim_done = self.compute.iter().map(Node::now).max();
        sync_to(viz, sim_done.unwrap_or(SimTime::ZERO), Phase::Idle);
        for (step, sums) in &self.checksums {
            let mut slabs = Vec::with_capacity(sums.len());
            for (k, sum) in sums.iter().enumerate() {
                let name = format!("snap{step:04}.n{k:02}");
                let bytes = self.pfs.read(viz, &self.fabric, &name, Phase::Read)?;
                self.report.verified &= checksum64(&bytes) == *sum;
                slabs.push(bytes);
            }
            let grid = assemble(self.cfg, "snap", *step, slabs)?;
            let hash = &mut self.report.image_hash;
            render_frame(viz, self.cfg, &grid, &self.cfg.render, hash);
        }
        Ok(())
    }

    /// The allocation ends at the makespan: every node idles until it (PFS
    /// servers are charged that tail here); then the totals are filled in.
    fn finish(mut self) -> (ClusterReport, FaultSummary) {
        let servers = self.pfs.servers();
        let nodes = self.compute.iter().chain(&self.stagers).map(Node::now);
        let server_clocks = servers.iter().map(|s| s.node.now());
        let makespan = nodes.chain(server_clocks).max().unwrap_or(SimTime::ZERO);
        for node in self.compute.iter_mut().chain(&mut self.stagers) {
            sync_to(node, makespan, Phase::Idle);
        }
        for node in self.compute.iter_mut().chain(&mut self.stagers) {
            node.finish_trace();
        }
        let energy =
            |nodes: &[Node]| -> f64 { nodes.iter().map(|n| n.timeline().total_energy_j()).sum() };
        let r = &mut self.report;
        r.compute_energy_j = energy(&self.compute);
        r.io_energy_j = servers
            .iter()
            .map(|s| {
                let tail = makespan.duration_since(s.node.now()).as_secs_f64();
                s.node.timeline().total_energy_j() + s.node.spec().static_w() * tail
            })
            .sum();
        r.viz_energy_j = energy(&self.stagers);
        r.total_energy_j = r.compute_energy_j + r.io_energy_j + r.viz_energy_j;
        r.makespan_s = makespan.as_secs_f64();
        if r.makespan_s > 0.0 {
            r.average_power_w = r.total_energy_j / r.makespan_s;
        }
        r.pfs_bytes = self.pfs.written_bytes();
        r.bytes_out = r.fabric_bytes + r.pfs_bytes;
        let f = &mut self.faults;
        f.storage_faults = self.pfs.fsync_retries();
        f.storage_retries = f.storage_faults;
        (f.fabric_drops, f.fabric_delays, f.fabric_retries) = self.fabric.fault_counts();
        (self.report, self.faults)
    }
}

/// The error for step `step`'s `prefix` snapshot not being a grid.
fn shape_error(cfg: &ClusterConfig, prefix: &str, step: u64, got_bytes: usize) -> ClusterError {
    let (file, want) = (format!("{prefix}{step:04}"), (cfg.grid_nx, cfg.grid_ny));
    ClusterError::SnapshotShape {
        file,
        got_bytes,
        want,
    }
}

/// One step's slabs, in node order, decoded straight into the global
/// field.
fn assemble(
    cfg: &ClusterConfig,
    prefix: &str,
    step: u64,
    slabs: Vec<Vec<u8>>,
) -> Result<Grid, ClusterError> {
    Grid::from_byte_parts(cfg.grid_nx, cfg.grid_ny, &slabs).ok_or_else(|| {
        let got_bytes = slabs.iter().map(Vec::len).sum();
        shape_error(cfg, prefix, step, got_bytes)
    })
}

/// Charge `node` for an `opts`-sized render and render `grid`, continuing
/// the run's image hash `chain` over the frame's PPM bytes as they are
/// written.
fn render_frame(
    node: &mut Node,
    cfg: &ClusterConfig,
    grid: &Grid,
    opts: &RenderOptions,
    chain: &mut u64,
) -> Framebuffer {
    let pixels = (opts.width * opts.height) as u64;
    node.execute(cfg.render_cost.activity(pixels), Phase::Visualization);
    let (frame, hash) = render_field_hashed(grid, opts, *chain);
    *chain = hash;
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(insitu.efficiency() > post.efficiency());
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
                total += slab_rows_px(height, ny, j0, rows);
                j0 += rows;
            }
            assert_eq!(total, height, "height {height} over ny {ny}");
        }

        // And end to end: an odd grid renders and accounts cleanly.
        let mut cfg = ClusterConfig::small(4, 2);
        cfg.grid_nx = 130;
        cfg.grid_ny = 130;
        cfg.solver = default_solver(130, 130);
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
