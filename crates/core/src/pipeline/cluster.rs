//! Distributed visualization pipelines over `greenness-cluster`'s substrate.
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

use greenness_cluster::fabric::sync_to;
use greenness_cluster::slab::slab_rows_px;
use greenness_cluster::{
    barrier, ClusterConfig, ClusterError, ClusterKind, DecomposedSolver, Fabric, FaultSummary,
    ParallelFs, WireCodec,
};
use greenness_codec::delta::DeltaVarint;
use greenness_codec::quant::Quant8;
use greenness_codec::{Codec, CodecCostModel, ScratchCodec};
use greenness_faults::{checksum64, fnv1a64, FaultInjector, FaultPlan, Site};
use greenness_heatsim::Grid;
use greenness_platform::{Node, Phase, SimTime};
use greenness_trace::{Tracer, Value};
use greenness_viz::{render_field_hashed, Framebuffer, RenderOptions};

use crate::driver::charge_render;

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
                .filter_map(|_| build(wire).map(ScratchCodec::new))
                .collect(),
            decoder: build(wire),
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
                charge_render(
                    stager,
                    &cfg.render_cost,
                    cfg.render.width,
                    cfg.render.height,
                );
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
    charge_render(node, &cfg.render_cost, opts.width, opts.height);
    let (frame, hash) = render_field_hashed(grid, opts, *chain);
    *chain = hash;
    frame
}

/// Instantiate `wire`'s codec; `None` for the raw wire.
fn build(wire: WireCodec) -> Option<Box<dyn Codec>> {
    match wire {
        WireCodec::None => None,
        WireCodec::DeltaRle => Some(Box::new(DeltaVarint)),
        WireCodec::Quant8 => Some(Box::new(Quant8)),
    }
}
