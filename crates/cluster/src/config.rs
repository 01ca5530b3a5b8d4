//! What a distributed run (`greenness_core::pipeline::cluster`) is asked to
//! do: the pipeline kind, the staging topology, the workload and cluster.

use greenness_heatsim::{SimCostModel, SolverConfig};
use greenness_platform::{HardwareSpec, NetModel};
use greenness_viz::{RenderCostModel, RenderOptions};

use crate::error::ClusterError;
use crate::slab::{row_slabs, slab_rows_px};

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
    pub fn validate(&self, kind: ClusterKind) -> Result<(), ClusterError> {
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
