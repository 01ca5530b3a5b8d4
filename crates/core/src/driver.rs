//! The one single-node pipeline driver.
//!
//! Every single-node run — the three [`pipeline`](crate::pipeline) kinds, the
//! five [`variants`](crate::variants), the [`adaptive`](crate::adaptive)
//! runtime, the [`capping`](crate::capping) governor and a
//! [`steering`](crate::steering) session — is the same loop in the same
//! phase order (Figure 2):
//!
//! 1. **simulate** one timestep ([`Stepper::tick`]: the calibrated
//!    `Simulation` charge; the stencil itself runs when a stage asks for the
//!    field, [`Stepper::grid`]);
//! 2. on an I/O step, **store** what the pipeline keeps — a raw snapshot
//!    ([`Store::write_snapshot`]) or a frame rendered in memory ([`render`] +
//!    [`Store::write_frame`]) — in fsync'd chunks, as the [`Stored`] blocks
//!    the page cache keeps by handle;
//! 3. after the last step, **sync and drop caches**
//!    ([`Store::end_phase_one`], §IV-C);
//! 4. **read back** every kept snapshot chunk by chunk ([`Store::read`]) and
//!    **render** it ([`render_snapshot`]).
//!
//! The pipelines differ only in which of these stages they compose and what
//! they put between them, so each is a short planner over this module and
//! the solver, the filesystem format, the chunked fsync'd write and the
//! sync/drop tail exist exactly once (`tests/workspace_hygiene.rs` pins
//! that). Nothing here branches on which pipeline is calling.

use std::sync::Arc;

use greenness_faults::{checksum64_parts, FaultPlan, Site};
use greenness_heatsim::{Grid, HeatSolver, SolverConfig};
use greenness_platform::{Activity, Node, Phase, PowerDraw};
use greenness_storage::{
    block_from, Block, FileSystem, FsConfig, FsError, MemBlockDevice, BLOCK_SIZE,
};
use greenness_trace::Value;
use greenness_viz::{render_field, Framebuffer, RenderCostModel, RenderOptions};

use crate::config::PipelineConfig;
use crate::memo::{recall, Reader};
use crate::pipeline::PipelineError;

/// Start a batch run: the live solver and a freshly formatted store.
///
/// # Errors
/// Whatever [`Stepper::new`] rejects.
pub(crate) fn open(
    cfg: &PipelineConfig,
    faults: Option<FaultPlan>,
) -> Result<(Stepper, Store), PipelineError> {
    let stepper = Stepper::new(cfg)?;
    let mut fs = FileSystem::format(
        MemBlockDevice::with_capacity_bytes(cfg.device_bytes),
        FsConfig::default(),
    );
    fs.set_fault_injector(faults.map(|plan| plan.injector(Site::StorageFsync, 0)));
    let store = Store {
        fs,
        chunk: cfg.chunk_bytes,
    };
    Ok((stepper, store))
}

/// A [`Stepper`]'s stencil, started only when a stage first asks for the
/// field: a steering session whose every frame another session already
/// made never copies the step-0 field it shares.
#[derive(Debug, Clone)]
enum Stencil {
    /// Validated and not yet started: the step-0 field, the solver
    /// configuration and the thread count to start with.
    Pending(Arc<Grid>, SolverConfig, usize),
    Running(HeatSolver),
}

impl Stencil {
    /// The solver, started from the step-0 field on first use.
    fn start(&mut self) -> &mut HeatSolver {
        if let Stencil::Pending(initial, config, jobs) = self {
            let started = HeatSolver::new(Grid::clone(initial), config.clone());
            let mut solver = started
                .unwrap_or_else(|e| unreachable!("validated by `Stepper::from_initial`: {e}"));
            solver.set_jobs(*jobs);
            *self = Stencil::Running(solver);
        }
        match self {
            Stencil::Running(solver) => solver,
            Stencil::Pending(..) => unreachable!("started above"),
        }
    }
}

/// The one `io_interval` range check (a zero interval divides by zero).
pub(crate) fn check_io_interval(io_interval: u64) -> Result<(), PipelineError> {
    if io_interval == 0 {
        return Err(PipelineError::Config(
            "io_interval must be at least 1".to_string(),
        ));
    }
    Ok(())
}

/// The live simulation: solver, step counter, and the per-step charge.
/// Resumable — a steering session ticks it a slice at a time, and a clone
/// carries the remaining run onto a scratch node. Lazy: a tick charges the
/// step, and the stencil catches up only when a stage asks for the field.
#[derive(Debug, Clone)]
pub(crate) struct Stepper {
    stencil: Stencil,
    step: u64,
    sim: Activity,
    /// The `(seconds, draw)` of `sim` on a DVFS-scaled CPU, when re-clocked.
    reclocked: Option<(f64, PowerDraw)>,
}

impl Stepper {
    /// The solver at step 0 over the workspace's one initial condition.
    /// This is the constructor every single-node run goes through, so the
    /// workload parameters that would otherwise hang or divide by zero are
    /// rejected here, once.
    ///
    /// # Errors
    /// [`PipelineError::Config`] for a zero `io_interval` or `chunk_bytes`;
    /// [`PipelineError::Solver`] when the solver rejects its configuration.
    pub(crate) fn new(cfg: &PipelineConfig) -> Result<Stepper, PipelineError> {
        Stepper::from_initial(cfg, |nx, ny| Arc::new(Grid::warm_patch(nx, ny)))
    }

    /// [`new`](Self::new), with the step-0 field made by
    /// `initial(grid_nx, grid_ny)` once the workload has passed its checks:
    /// [`Grid::warm_patch`] itself, or a kept field shared with other
    /// steppers. The stencil starts from it only when a stage first asks for
    /// the field.
    ///
    /// # Errors
    /// As [`new`](Self::new).
    pub(crate) fn from_initial(
        cfg: &PipelineConfig,
        initial: impl FnOnce(usize, usize) -> Arc<Grid>,
    ) -> Result<Stepper, PipelineError> {
        check_io_interval(cfg.io_interval)?;
        if cfg.chunk_bytes == 0 {
            return Err(PipelineError::Config(
                "chunk_bytes must be at least 1".to_string(),
            ));
        }
        cfg.solver.validate(cfg.grid_nx, cfg.grid_ny)?;
        let initial = initial(cfg.grid_nx, cfg.grid_ny);
        Ok(Stepper {
            stencil: Stencil::Pending(initial, cfg.solver.clone(), 1),
            step: 0,
            sim: cfg.sim_cost.activity((cfg.grid_nx * cfg.grid_ny) as u64),
            reclocked: None,
        })
    }

    /// Price the simulation step on `node`'s hardware with the CPU clock
    /// scaled by `freq_scale` (I/O and rendering are disk- and memory-bound
    /// and stay at full clock).
    pub(crate) fn reclocked(mut self, node: &Node, freq_scale: f64) -> Stepper {
        let mut spec = node.spec().clone();
        spec.cpu = spec.cpu.with_freq_scale(freq_scale);
        self.reclocked = Some(Node::new(spec).cost_of(self.sim));
        self
    }

    /// Solver threads: wall-clock speed only, never output bytes.
    pub(crate) fn set_jobs(&mut self, jobs: usize) {
        match &mut self.stencil {
            Stencil::Pending(_, _, pending) => *pending = jobs,
            Stencil::Running(solver) => solver.set_jobs(jobs),
        }
    }

    /// Steps simulated so far: the stencil steps the solver has run or owes.
    pub(crate) fn step(&self) -> u64 {
        self.step
    }

    /// The field at the current step, running the stencil steps owed first.
    pub(crate) fn grid(&mut self) -> &Grid {
        let solver = self.stencil.start();
        while solver.steps_taken() < self.step {
            solver.step();
        }
        solver.grid()
    }

    /// Charge one simulation step on `node` without running the stencil —
    /// what [`tick`](Self::tick) charges, and all a schedule replay needs.
    pub(crate) fn charge(&self, node: &mut Node) {
        match self.reclocked {
            Some((secs, draw)) => node.execute_raw(secs, draw, Phase::Simulation),
            None => node.execute(self.sim, Phase::Simulation),
        };
    }

    /// Simulate one step of `cfg`'s run on `node`. Returns the step just
    /// taken and whether it is an I/O step, or `None` once the timestep
    /// budget is spent.
    pub(crate) fn tick(&mut self, node: &mut Node, cfg: &PipelineConfig) -> Option<(u64, bool)> {
        if self.step >= cfg.timesteps {
            return None;
        }
        self.step += 1;
        node.tracer().count("solver.steps", 1);
        self.charge(node);
        Some((self.step, self.step % cfg.io_interval == 0))
    }

    /// Simulate up to and including the next I/O step; `None` when the run
    /// ends first.
    pub(crate) fn next_io_step(&mut self, node: &mut Node, cfg: &PipelineConfig) -> Option<u64> {
        while let Some((step, io_due)) = self.tick(node, cfg) {
            if io_due {
                return Some(step);
            }
        }
        None
    }
}

/// A file's bytes as the blocks that hold them: every block full but the
/// last, which holds the rest of the `len` bytes.
#[derive(Debug, Clone)]
pub(crate) struct Stored {
    pub(crate) blocks: Vec<Block>,
    pub(crate) len: usize,
}

impl Stored {
    /// `bytes`, copied into fresh blocks.
    pub(crate) fn copy_of(bytes: &[u8]) -> Stored {
        let blocks = bytes.chunks(BLOCK_SIZE as usize).map(block_from).collect();
        Stored {
            blocks,
            len: bytes.len(),
        }
    }

    /// `grid`'s snapshot ([`Grid::to_bytes`]), serialised straight into
    /// fresh blocks.
    pub(crate) fn of_grid(grid: &Grid) -> Stored {
        let cells = grid.as_slice();
        let fill = |values: &[f64]| {
            let mut bytes = [0; BLOCK_SIZE as usize];
            for (word, v) in bytes.chunks_exact_mut(8).zip(values) {
                word.copy_from_slice(&v.to_le_bytes());
            }
            Arc::new(bytes)
        };
        Stored {
            blocks: cells.chunks(BLOCK_SIZE as usize / 8).map(fill).collect(),
            len: cells.len() * 8,
        }
    }

    /// The bytes, block by block.
    pub(crate) fn parts(&self) -> Vec<&[u8]> {
        let mut left = self.len;
        let parts = self.blocks.iter().map(|block| {
            let take = left.min(block.len());
            left -= take;
            &block[..take]
        });
        parts.collect()
    }

    /// The bytes' `checksum64`.
    pub(crate) fn checksum64(&self) -> u64 {
        checksum64_parts(&self.parts())
    }
}

/// The run's simulated disk: one formatted filesystem, written and read in
/// `chunk_bytes` pieces.
pub(crate) struct Store {
    fs: FileSystem<MemBlockDevice>,
    chunk: usize,
}

impl Store {
    /// The filesystem itself, for stages that bring their own I/O shape
    /// (the burst buffer drains whole files).
    pub(crate) fn fs_mut(&mut self) -> &mut FileSystem<MemBlockDevice> {
        &mut self.fs
    }

    /// Write `data` to `name` chunk by chunk, fsyncing each chunk; the page
    /// cache keeps every block a chunk covers whole by handle. Returns the
    /// bytes written.
    fn write(
        &mut self,
        node: &mut Node,
        name: &str,
        data: &Stored,
        phase: Phase,
    ) -> Result<u64, PipelineError> {
        let len = data.len as u64;
        for start in (0..len).step_by(self.chunk) {
            let range = start..len.min(start + self.chunk as u64);
            self.fs
                .write_blocks(node, name, &data.blocks, range, phase)
                .map_err(|source| PipelineError::Storage {
                    op: "write",
                    source,
                })?;
            // Transient fsync faults (when a schedule is installed) are
            // retried with backoff inside the filesystem; only budget
            // exhaustion or a genuine metadata error surfaces, and either
            // is terminal here.
            self.fs
                .fsync_with_retry(node, name, phase)
                .map_err(|source| PipelineError::Storage {
                    op: "fsync",
                    source,
                })?;
        }
        Ok(len)
    }

    /// Read all of `name` back chunk by chunk, in the `Read` phase, as the
    /// blocks the page cache holds.
    pub(crate) fn read(&mut self, node: &mut Node, name: &str) -> Result<Stored, PipelineError> {
        let read = |source: FsError| PipelineError::Storage { op: "read", source };
        let size = self
            .fs
            .size(name)
            .map_err(|source| PipelineError::Storage { op: "stat", source })?;
        let mut blocks = Vec::with_capacity(size.div_ceil(BLOCK_SIZE) as usize);
        let mut off = 0u64;
        while off < size {
            if off % BLOCK_SIZE != 0 {
                // This chunk starts in the block the last one ended in.
                blocks.pop();
            }
            off += self
                .fs
                .read_blocks(node, name, off, self.chunk as u64, Phase::Read, &mut blocks)
                .map_err(read)?;
        }
        let len = size as usize;
        Ok(Stored { blocks, len })
    }

    /// Persist `step`'s snapshot in the `Write` phase. Returns the file name
    /// to read it back by.
    pub(crate) fn write_snapshot(
        &mut self,
        node: &mut Node,
        step: u64,
        snapshot: &Stored,
    ) -> Result<String, PipelineError> {
        let name = snapshot_name(step);
        self.write(node, &name, snapshot, Phase::Write)?;
        Ok(name)
    }

    /// Persist `image`'s PPM bytes in the `ImageWrite` phase. Returns the
    /// bytes written.
    pub(crate) fn write_frame(
        &mut self,
        node: &mut Node,
        name: &str,
        image: &Framebuffer,
    ) -> Result<u64, PipelineError> {
        self.write(node, name, &Stored::copy_of(image.ppm()), Phase::ImageWrite)
    }

    /// §IV-C: `sync` and drop caches between the simulation phase and the
    /// read-back phase, so nothing is served from memory that a separate
    /// visualization job would have to fetch from disk.
    pub(crate) fn end_phase_one(&mut self, node: &mut Node) {
        self.fs.sync(node, Phase::CacheControl);
        let evicted = self.fs.drop_caches();
        if node.tracer().is_on() {
            node.tracer().instant(
                node.now().as_nanos(),
                "cache.drop",
                vec![("evicted", Value::from(evicted))],
            );
            self.fs.publish_cache_counters(node);
        }
    }
}

/// The name `step`'s raw snapshot is stored under.
pub(crate) fn snapshot_name(step: u64) -> String {
    format!("snap{step:04}")
}

/// The name `step`'s frame is stored under when there is one per I/O step.
pub(crate) fn frame_name(step: u64) -> String {
    format!("frame{step:04}.ppm")
}

/// Charge `node` for rasterising one `width × height` frame under `cost`:
/// the one render charge of every pipeline, on one node or on a cluster.
pub(crate) fn charge_render(node: &mut Node, cost: &RenderCostModel, width: usize, height: usize) {
    let pixels = (width * height) as u64;
    node.execute(cost.activity(pixels), Phase::Visualization);
}

/// Charge one frame and recall it through `memo` (the run's reader and the
/// step), or render `stepper`'s field through `opts`: the stencil catches up
/// only when the memo does not hold the frame.
pub(crate) fn render(
    node: &mut Node,
    cfg: &PipelineConfig,
    stepper: &mut Stepper,
    opts: &RenderOptions,
    memo: Option<(&mut Reader<'_>, u64)>,
) -> Framebuffer {
    charge_render(node, &cfg.render_cost, cfg.render.width, cfg.render.height);
    let frame = recall::<std::convert::Infallible>(memo, || Ok(render_field(stepper.grid(), opts)));
    frame.unwrap_or_else(|never| match never {})
}

/// Rebuild an `nx × ny` field from a read-back `snapshot` and render it; say
/// whether it matches its write-time `checksum`, if one was taken. Only a
/// matching snapshot may recall the frame through `memo`.
///
/// # Errors
/// [`PipelineError::CorruptSnapshot`] when the bytes do not have that shape.
pub(crate) fn render_snapshot(
    node: &mut Node,
    cfg: &PipelineConfig,
    (nx, ny): (usize, usize),
    (name, snapshot): (&str, &Stored),
    checksum: Option<u64>,
    memo: Option<(&mut Reader<'_>, u64)>,
) -> Result<(Framebuffer, bool), PipelineError> {
    let matched = checksum.map(|sum| snapshot.checksum64() == sum);
    let frame = recall::<PipelineError>(memo.filter(|_| matched == Some(true)), || {
        let grid = Grid::from_byte_parts(nx, ny, &snapshot.parts()).ok_or_else(|| {
            PipelineError::CorruptSnapshot {
                name: name.to_string(),
            }
        })?;
        Ok(render_field(&grid, &cfg.render))
    })?;
    charge_render(node, &cfg.render_cost, cfg.render.width, cfg.render.height);
    Ok((frame, matched != Some(false)))
}

#[cfg(test)]
/// What the crate's tests read off a stepper.
mod test_support {
    use super::{Stencil, Stepper};

    impl Stepper {
        /// Stencil steps the solver has actually run.
        pub(crate) fn stencil_steps(&self) -> u64 {
            match &self.stencil {
                Stencil::Pending(..) => 0,
                Stencil::Running(solver) => solver.steps_taken(),
            }
        }
    }
}
