//! Interactive steering: a resumable in-situ pipeline that renders
//! incrementally and answers what-if questions about the *remaining* run.
//!
//! The batch pipelines in [`crate::pipeline`] run start-to-finish and report
//! afterwards. A steering session instead holds the solver live: the client
//! advances virtual time in slices, re-renders the current field on demand,
//! and adjusts parameters (I/O interval, render resolution, camera) mid-run.
//! Before committing an adjustment, the client can ask for the **energy
//! delta** it would cause. That delta is computed by replaying only the
//! affected phase spans — the per-step activity schedule — on a scratch
//! [`Node`], never by re-running the solver or renderer: per-step costs in
//! this model are state-independent, so the replay is bit-identical to a
//! full recompute while doing none of the stencil or rasterization work.
//!
//! A session holds the shared single-node driver's stepper open instead of
//! running it to completion. What this module adds: the adjustable
//! configuration, the per-frame charge made directly on the node (one
//! `charge_frame` for the live render, the full recompute and the replay —
//! no filesystem, so the cost is state-independent), and the replay itself.
//!
//! Sessions over one workload share their frames. A [`StampBook`] holds the
//! stamps of the frames made most recently, keyed by trajectory (grid size
//! and solver), step and [`RenderOptions`] and compared with `==`, and a
//! render whose key it holds returns that stamp instead of rasterising
//! again — the on-demand render right after a scheduled frame, a second
//! `steps 0` render, or any render another session of the engine already
//! made. The stepper is lazy, so a session whose frames all come from the
//! book never runs the stencil. The sharing is exact: every session starts
//! from [`Grid::warm_patch`] and the stencil gives the same bits at any
//! `jobs`, so the field at a step depends on the trajectory alone — nothing
//! an adjustment changes reaches it — and a frame's bytes are a function of
//! that field and the options (the only values `==` conflates are signed
//! zeros in the range, which the rasteriser colours alike; the grid memo
//! keys frames the same way). A camera or resolution adjust changes the
//! options and so forces a fresh frame; an I/O-interval change does not. A
//! frame from the book is charged, counted and written exactly as a fresh
//! one; only a fresh one counts `steer.frames.rasterised` on the session
//! node's tracer (off unless a caller attaches one). The book holds at most
//! `BOOK_FRAMES` stamps, oldest out first, so it stays bounded however
//! many sessions share it and however long they run.
//!
//! The book also keeps the step-0 field the first [`SteeringPipeline::open`]
//! evaluates and shares it with each later one, which copies it only when
//! its stencil first runs: a session whose every frame comes from the book
//! holds no field of its own. And it keeps the last `BOOK_PROJECTIONS`
//! answers of [`SteeringPipeline::projected_remaining_j`], keyed by all the
//! schedule replay reads: trajectory, step, step budget, I/O interval,
//! resolution, chunk size and both cost models (every session runs on Table
//! I's node). A projection from the book is the replay's own bits, so a
//! what-if ([`SteeringPipeline::whatif_with`]) is two projections through
//! it: the live schedule's and the adjusted one's.
//!
//! A book is a handle: its clones share one book behind one lock, so every
//! engine of a fleet can render through the same frames. The lock is held
//! only to look a key up and to put an entry in, never across the stencil,
//! the rasteriser or a replay; two sessions that miss at once both make the
//! entry, and the bytes are the same. A poisoned lock is a miss.
//!
//! Everything here is deterministic. Frames are hashed with byte-serial
//! FNV-1a, folded in by the renderer as it writes the PPM bytes
//! (`render_field_hashed`; snapshot checksums use the four-lane
//! `checksum64` instead), so two sessions that apply the same
//! adjustments at the same steps produce byte-identical transcripts for any
//! solver thread count and across reruns.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::config::PipelineConfig;
use crate::driver::{charge_render, check_io_interval, Stepper};
use crate::memo::{trajectory, Trajectory};
use crate::pipeline::PipelineError;
use greenness_faults::fnv1a64;
use greenness_heatsim::{Grid, SimCostModel};
use greenness_platform::{AccessPattern, Activity, Node, Phase};
use greenness_viz::{
    ppm_size_bytes, render_field, render_field_hashed, Colormap, RenderCostModel, RenderOptions,
};

/// Largest image, in pixels, a [`Adjustment::Resolution`] may ask for
/// (16 Mpx: a 48 MiB framebuffer, 32x the paper's 512x512 frame).
const MAX_RENDER_PIXELS: usize = 16 << 20;

/// Stamps a [`StampBook`] holds: sessions over one workload show a handful
/// of distinct frames at a time (the CLI script shows six in all).
const BOOK_FRAMES: usize = 32;

/// Projections a [`StampBook`] holds: a step of a workload under one
/// schedule is one projection, whichever session asks.
const BOOK_PROJECTIONS: usize = 32;

/// A parameter change a steering client may apply mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum Adjustment {
    /// Render every `n`-th step from now on (must be ≥ 1).
    IoInterval(u64),
    /// Change the output image resolution.
    Resolution {
        /// New image width, pixels (must be ≥ 1).
        width: usize,
        /// New image height, pixels (must be ≥ 1; `width * height` at most
        /// 16 Mpx).
        height: usize,
    },
    /// Re-aim the "camera": colormap and value range of the transfer
    /// function. Free in the energy model (same pixel count), but changes
    /// the bytes of every subsequent frame.
    Camera {
        /// New colormap.
        colormap: Colormap,
        /// New explicit value range, or `None` for auto-scaling.
        range: Option<(f64, f64)>,
    },
}

impl Adjustment {
    /// A stable lowercase label for transcripts and trace events.
    pub fn label(&self) -> &'static str {
        match self {
            Adjustment::IoInterval(_) => "io_interval",
            Adjustment::Resolution { .. } => "resolution",
            Adjustment::Camera { .. } => "camera",
        }
    }

    /// Canonical encoding used in cache keys and transcripts. Floats are
    /// rendered through their shortest round-trip form, so equal values
    /// always encode identically.
    pub fn canonical(&self) -> String {
        match self {
            Adjustment::IoInterval(n) => format!("io_interval={n}"),
            Adjustment::Resolution { width, height } => {
                format!("resolution={width}x{height}")
            }
            Adjustment::Camera { colormap, range } => match range {
                Some((lo, hi)) => format!("camera={colormap:?}/{lo}..{hi}"),
                None => format!("camera={colormap:?}/auto"),
            },
        }
    }
}

/// What a render produced: enough to reproduce and compare transcripts
/// without shipping pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStamp {
    /// Simulation step the frame shows.
    pub step: u64,
    /// Image width, pixels.
    pub width: usize,
    /// Image height, pixels.
    pub height: usize,
    /// FNV-1a hash of the encoded PPM bytes.
    pub hash: u64,
    /// Encoded size, bytes.
    pub bytes: u64,
}

/// One-line transcript form: `step=12 1024x768 5fa3… (786447 B)`.
impl fmt::Display for FrameStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step={} {}x{} {:016x} ({} B)",
            self.step, self.width, self.height, self.hash, self.bytes
        )
    }
}

/// What-if answer: the projected remaining energy before and after an
/// adjustment, computed by schedule replay (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIfDelta {
    /// Projected energy to finish the run under the current parameters, J.
    pub baseline_j: f64,
    /// Projected energy to finish under the adjusted parameters, J.
    pub adjusted_j: f64,
}

/// What a frame depends on: trajectory, step and render options.
type FrameKey = (Trajectory, u64, RenderOptions);

/// What a projection depends on besides the trajectory: the step it starts
/// after and every value of the live configuration the replay reads (the
/// field's size, which the trajectory fixes, included: a frame's charge
/// reads it). The replay's only input besides the stepper's step charge.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Schedule {
    step: u64,
    snapshot_bytes: u64,
    timesteps: u64,
    io_interval: u64,
    width: usize,
    height: usize,
    chunk_bytes: usize,
    sim_cost: SimCostModel,
    render_cost: RenderCostModel,
}

impl Schedule {
    fn of(cfg: &PipelineConfig, step: u64) -> Schedule {
        Schedule {
            step,
            snapshot_bytes: cfg.snapshot_bytes(),
            timesteps: cfg.timesteps,
            io_interval: cfg.io_interval,
            width: cfg.render.width,
            height: cfg.render.height,
            chunk_bytes: cfg.chunk_bytes,
            sim_cost: cfg.sim_cost,
            render_cost: cfg.render_cost,
        }
    }
}

/// What a [`StampBook`] holds: the step-0 field of the last grid size asked
/// for, and the last `BOOK_FRAMES` stamps and `BOOK_PROJECTIONS`
/// projections made, each list oldest first.
#[derive(Debug, Default)]
struct Held {
    initial: Option<Arc<Grid>>,
    frames: VecDeque<(FrameKey, FrameStamp)>,
    projections: VecDeque<((Trajectory, Schedule), f64)>,
}

/// What sessions over one workload share (module docs): a handle whose
/// clones share one book.
#[derive(Debug, Clone, Default)]
pub struct StampBook(Arc<Mutex<Held>>);

impl StampBook {
    /// The book, or `None` when a panic poisoned its lock.
    fn held(&self) -> Option<MutexGuard<'_, Held>> {
        self.0.lock().ok()
    }

    /// [`Grid::warm_patch`] at `nx × ny`: the kept field, shared, when it
    /// has that size, else evaluated and kept.
    fn initial(&self, nx: usize, ny: usize) -> Arc<Grid> {
        let kept = self.held().and_then(|held| held.initial.clone());
        if let Some(grid) = kept.filter(|grid| (grid.nx(), grid.ny()) == (nx, ny)) {
            return grid;
        }
        let grid = Arc::new(Grid::warm_patch(nx, ny));
        if let Some(mut held) = self.held() {
            held.initial = Some(Arc::clone(&grid));
        }
        grid
    }

    /// The stamp held under the key of `trajectory`, `step` and `options`,
    /// newest first.
    fn stamp(
        &self,
        trajectory: &Trajectory,
        step: u64,
        options: &RenderOptions,
    ) -> Option<FrameStamp> {
        let held = self.held()?;
        let mut frames = held.frames.iter().rev();
        frames
            .find(|((t, s, o), _)| *s == step && o == options && t == trajectory)
            .map(|&(_, stamp)| stamp)
    }

    /// Hold `stamp` under `key`, dropping the oldest stamp when full.
    fn keep(&self, key: FrameKey, stamp: FrameStamp) {
        if let Some(mut held) = self.held() {
            push_bounded(&mut held.frames, BOOK_FRAMES, (key, stamp));
        }
    }

    /// The projection held under `trajectory` and `schedule`, newest first.
    fn projection(&self, trajectory: &Trajectory, schedule: &Schedule) -> Option<f64> {
        let held = self.held()?;
        let mut projections = held.projections.iter().rev();
        projections
            .find(|((t, s), _)| s == schedule && t == trajectory)
            .map(|&(_, joules)| joules)
    }

    /// Hold `joules` under `key`, dropping the oldest projection when full.
    fn keep_projection(&self, key: (Trajectory, Schedule), joules: f64) {
        if let Some(mut held) = self.held() {
            push_bounded(&mut held.projections, BOOK_PROJECTIONS, (key, joules));
        }
    }
}

/// Append `entry` to `fifo`, first dropping its oldest when it holds `bound`.
fn push_bounded<T>(fifo: &mut VecDeque<T>, bound: usize, entry: T) {
    if fifo.len() == bound {
        fifo.pop_front();
    }
    fifo.push_back(entry);
}

/// An in-situ pipeline held open for steering: live solver, live energy
/// timeline, adjustable parameters.
#[derive(Debug, Clone)]
pub struct SteeringPipeline {
    cfg: PipelineConfig,
    /// `cfg`'s trajectory, which no [`Adjustment`] changes.
    trajectory: Trajectory,
    node: Node,
    stepper: Stepper,
    frames_rendered: u64,
    bytes_written: u64,
}

impl SteeringPipeline {
    /// Open a session over `cfg` with `jobs` solver threads. The thread
    /// count changes wall-clock speed only — never output bytes.
    ///
    /// # Errors
    /// [`PipelineError::Config`] for a zero `io_interval` or `chunk_bytes`,
    /// and solver validation errors as [`PipelineError::Solver`].
    pub fn new(cfg: &PipelineConfig, jobs: usize) -> Result<SteeringPipeline, PipelineError> {
        SteeringPipeline::open(cfg, jobs, &StampBook::default())
    }

    /// [`new`](Self::new), starting from `book`'s step-0 field instead of
    /// evaluating it again.
    ///
    /// # Errors
    /// As [`new`](Self::new).
    pub fn open(
        cfg: &PipelineConfig,
        jobs: usize,
        book: &StampBook,
    ) -> Result<SteeringPipeline, PipelineError> {
        let mut stepper = Stepper::from_initial(cfg, |nx, ny| book.initial(nx, ny))?;
        stepper.set_jobs(jobs.max(1));
        Ok(SteeringPipeline {
            cfg: cfg.clone(),
            trajectory: trajectory(cfg),
            node: Node::new(greenness_platform::HardwareSpec::table1()),
            stepper,
            frames_rendered: 0,
            bytes_written: 0,
        })
    }

    /// Current simulation step (0 before the first [`advance`](Self::advance)).
    pub fn step(&self) -> u64 {
        self.stepper.step()
    }

    /// Total steps the run was configured for.
    pub fn timesteps(&self) -> u64 {
        self.cfg.timesteps
    }

    /// Energy spent so far, J.
    pub fn energy_j(&self) -> f64 {
        self.node.timeline().total_energy_j()
    }

    /// Stencil steps the live solver has run or owes (the expensive work
    /// what-if replay avoids). The solver runs them when a frame needs the
    /// field, so this counts the steps taken, as [`step`](Self::step) does.
    pub fn solver_steps(&self) -> u64 {
        self.stepper.step()
    }

    /// Frames rendered so far (scheduled and on-demand).
    pub fn frames_rendered(&self) -> u64 {
        self.frames_rendered
    }

    /// Image bytes charged to the virtual disk so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The live configuration (reflects applied adjustments).
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Apply an adjustment to the remaining run.
    ///
    /// # Errors
    /// [`PipelineError::Config`] for a zero interval or a zero-pixel
    /// resolution.
    pub fn adjust(&mut self, adj: &Adjustment) -> Result<(), PipelineError> {
        apply(&mut self.cfg.io_interval, &mut self.cfg.render, adj)
    }

    /// Advance up to `steps` simulation steps (clamped to the configured
    /// budget), rendering at every step divisible by the live `io_interval`.
    /// Returns the stamps of the frames produced, in step order. Each frame
    /// is rasterised: [`advance_with`](Self::advance_with) shares them.
    pub fn advance(&mut self, steps: u64) -> Vec<FrameStamp> {
        self.advance_with(steps, &StampBook::default())
    }

    /// [`advance`](Self::advance), rendering each frame through `book` as
    /// [`render_now`](Self::render_now) does.
    pub fn advance_with(&mut self, steps: u64, book: &StampBook) -> Vec<FrameStamp> {
        let mut frames = Vec::new();
        for _ in 0..steps {
            match self.stepper.tick(&mut self.node, &self.cfg) {
                Some((_, true)) => frames.push(self.render_now(book)),
                Some(_) => {}
                None => break,
            }
        }
        frames
    }

    /// Render the current field immediately — the incremental re-render a
    /// client requests right after an adjustment, without waiting for the
    /// next scheduled frame. The frame comes from `book` when it holds it,
    /// and a fresh one is kept there; either is charged alike.
    pub fn render_now(&mut self, book: &StampBook) -> FrameStamp {
        let step = self.step();
        let stamp = match book.stamp(&self.trajectory, step, &self.cfg.render) {
            Some(stamp) => stamp,
            None => {
                let (frame, hash) =
                    render_field_hashed(self.stepper.grid(), &self.cfg.render, fnv1a64(&[]));
                self.node.tracer().count("steer.frames.rasterised", 1);
                let stamp = FrameStamp {
                    step,
                    width: self.cfg.render.width,
                    height: self.cfg.render.height,
                    hash,
                    bytes: frame.ppm().len() as u64,
                };
                book.keep((self.trajectory.clone(), step, self.cfg.render), stamp);
                stamp
            }
        };
        charge_frame(&mut self.node, &Schedule::of(&self.cfg, step), stamp.bytes);
        self.frames_rendered += 1;
        self.bytes_written += stamp.bytes;
        stamp
    }

    /// Projected energy to finish the run under the live parameters, J.
    /// Pure schedule replay, no solver or renderer work, made once per key
    /// of `book` (module docs) while the book holds it.
    pub fn projected_remaining_j(&self, book: &StampBook) -> f64 {
        self.project(&Schedule::of(&self.cfg, self.step()), book).0
    }

    /// What-if: projected remaining energy before/after `adj`, without
    /// applying it. Both sides are schedule replays, so the answer costs no
    /// stencil or rasterization work. Each replay is made afresh:
    /// [`whatif_with`](Self::whatif_with) shares them.
    ///
    /// # Errors
    /// Same validation as [`adjust`](Self::adjust).
    pub fn whatif(&self, adj: &Adjustment) -> Result<WhatIfDelta, PipelineError> {
        self.whatif_with(adj, &StampBook::default())
            .map(|(delta, _)| delta)
    }

    /// [`whatif`](Self::whatif), both sides projected through `book` as
    /// [`projected_remaining_j`](Self::projected_remaining_j) projects, and
    /// whether the book held both, so that no replay ran.
    ///
    /// # Errors
    /// As [`whatif`](Self::whatif); an invalid `adj` leaves `book` alone.
    pub fn whatif_with(
        &self,
        adj: &Adjustment,
        book: &StampBook,
    ) -> Result<(WhatIfDelta, bool), PipelineError> {
        let (mut io_interval, mut render) = (self.cfg.io_interval, self.cfg.render);
        apply(&mut io_interval, &mut render, adj)?;
        let live = Schedule::of(&self.cfg, self.step());
        let trial = Schedule {
            io_interval,
            width: render.width,
            height: render.height,
            ..live
        };
        let (baseline_j, baseline_held) = self.project(&live, book);
        let (adjusted_j, adjusted_held) = self.project(&trial, book);
        let delta = WhatIfDelta {
            baseline_j,
            adjusted_j,
        };
        Ok((delta, baseline_held && adjusted_held))
    }

    /// The remaining run's energy under `schedule`: the projection `book`
    /// holds under it, or a fresh replay kept there, and whether it was held.
    fn project(&self, schedule: &Schedule, book: &StampBook) -> (f64, bool) {
        if let Some(joules) = book.projection(&self.trajectory, schedule) {
            return (joules, true);
        }
        let joules = self.replay_remaining(schedule);
        book.keep_projection((self.trajectory.clone(), *schedule), joules);
        (joules, false)
    }

    /// Ground truth for tests and audits: actually run the remaining steps
    /// (cloned solver, real stencil and renderer) under `cfg` and measure
    /// the energy. Bit-identical to [`projected_remaining_j`](Self::projected_remaining_j)
    /// because per-step costs are state-independent — but it pays for every
    /// stencil update and rasterized pixel the replay skips.
    pub fn full_recompute_remaining_j(&self, cfg: &PipelineConfig) -> f64 {
        let mut stepper = self.stepper.clone();
        let mut probe = Node::new(self.node.spec().clone());
        while let Some(step) = stepper.next_io_step(&mut probe, cfg) {
            let frame = render_field(stepper.grid(), &cfg.render);
            let schedule = Schedule::of(cfg, step);
            charge_frame(&mut probe, &schedule, frame.ppm().len() as u64);
        }
        probe.timeline().total_energy_j()
    }

    /// Replay the activity `schedule` leaves after its step on a scratch
    /// node and return its total energy. Frame sizes come from
    /// [`ppm_size_bytes`], which is exact for the PPM encoder, so the
    /// replayed charges are the same bytes the live path would write.
    fn replay_remaining(&self, schedule: &Schedule) -> f64 {
        let frame_bytes = ppm_size_bytes(schedule.width, schedule.height) as u64;
        let mut probe = Node::new(self.node.spec().clone());
        for k in schedule.step + 1..=schedule.timesteps {
            self.stepper.charge(&mut probe);
            if k % schedule.io_interval == 0 {
                charge_frame(&mut probe, schedule, frame_bytes);
            }
        }
        probe.timeline().total_energy_j()
    }
}

/// Validate `adj` and fold it into a configuration's I/O interval and
/// render options, all an adjustment changes.
fn apply(
    io_interval: &mut u64,
    render: &mut RenderOptions,
    adj: &Adjustment,
) -> Result<(), PipelineError> {
    match *adj {
        Adjustment::IoInterval(n) => {
            check_io_interval(n)?;
            *io_interval = n;
        }
        Adjustment::Resolution { width, height } => {
            if width == 0 || height == 0 {
                return Err(PipelineError::Config(format!(
                    "render resolution must be at least 1x1, got {width}x{height}"
                )));
            }
            // The product sizes the framebuffer and the render charge;
            // unchecked, one request line could overflow or exhaust memory.
            if !matches!(width.checked_mul(height), Some(px) if px <= MAX_RENDER_PIXELS) {
                return Err(PipelineError::Config(format!(
                    "render resolution must be at most {MAX_RENDER_PIXELS} pixels, got {width}x{height}"
                )));
            }
            render.width = width;
            render.height = height;
        }
        Adjustment::Camera { colormap, range } => {
            render.colormap = colormap;
            render.range = range;
        }
    }
    Ok(())
}

/// Charge one in-situ frame of `frame_bytes` encoded bytes under
/// `schedule`: the in-memory hand-off, the rasterisation, and the chunked
/// image write. Steering charges the write activity directly (no
/// [`greenness_storage::FileSystem`]) precisely so that per-frame cost is
/// independent of filesystem state and the schedule replay stays exact.
fn charge_frame(node: &mut Node, schedule: &Schedule, frame_bytes: u64) {
    node.execute(
        Activity::MemTraffic {
            bytes: schedule.snapshot_bytes,
        },
        Phase::Visualization,
    );
    charge_render(node, &schedule.render_cost, schedule.width, schedule.height);
    node.execute(
        Activity::DiskWrite {
            bytes: frame_bytes,
            pattern: AccessPattern::Chunked {
                op_bytes: schedule.chunk_bytes as u64,
            },
            buffered: true,
        },
        Phase::ImageWrite,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_trace::Tracer;

    fn session() -> SteeringPipeline {
        SteeringPipeline::new(&PipelineConfig::small(2), 1).expect("session opens")
    }

    #[test]
    fn advance_renders_on_the_interval_and_tracks_progress() {
        let mut s = session();
        let frames = s.advance(5);
        assert_eq!(s.step(), 5);
        assert_eq!(
            frames.iter().map(|f| f.step).collect::<Vec<_>>(),
            vec![2, 4]
        );
        assert_eq!(s.frames_rendered(), 2);
        assert!(s.energy_j() > 0.0);
        // Clamped at the configured budget.
        let rest = s.advance(100);
        assert_eq!(s.step(), s.timesteps());
        assert_eq!(rest.last().map(|f| f.step), Some(10));
    }

    #[test]
    fn transcripts_are_identical_across_jobs() {
        let run = |jobs: usize| -> Vec<String> {
            let mut s = SteeringPipeline::new(&PipelineConfig::small(2), jobs).expect("opens");
            let book = StampBook::default();
            let mut lines = Vec::new();
            lines.extend(s.advance(4).iter().map(FrameStamp::to_string));
            s.adjust(&Adjustment::Resolution {
                width: 96,
                height: 96,
            })
            .expect("valid");
            lines.push(s.render_now(&book).to_string());
            lines.extend(s.advance(6).iter().map(FrameStamp::to_string));
            lines
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn camera_changes_frame_bytes_but_not_energy_projection() {
        let mut s = session();
        let book = StampBook::default();
        s.advance(2);
        let before = s.render_now(&book);
        let wi = s
            .whatif(&Adjustment::Camera {
                colormap: Colormap::Viridis,
                range: None,
            })
            .expect("valid");
        assert_eq!(
            wi.adjusted_j, wi.baseline_j,
            "camera is free in the energy model"
        );
        s.adjust(&Adjustment::Camera {
            colormap: Colormap::Viridis,
            range: None,
        })
        .expect("valid");
        let after = s.render_now(&book);
        assert_eq!(before.bytes, after.bytes);
        assert_ne!(before.hash, after.hash, "colormap must change the pixels");
    }

    #[test]
    fn whatif_replay_matches_full_recompute_without_solver_work() {
        let mut s = session();
        s.advance(3);
        let steps_before = s.solver_steps();
        let adj = Adjustment::IoInterval(5);
        let wi = s.whatif(&adj).expect("valid");
        // The replay did no stencil work on the live solver.
        assert_eq!(s.solver_steps(), steps_before);
        // Ground truth: run the remainder for real, both ways.
        let full_base = s.full_recompute_remaining_j(s.config());
        let mut trial = s.config().clone();
        trial.io_interval = 5;
        let full_adj = s.full_recompute_remaining_j(&trial);
        assert!(
            (wi.baseline_j - full_base).abs() <= 1e-9,
            "baseline drifted"
        );
        assert!((wi.adjusted_j - full_adj).abs() <= 1e-9, "adjusted drifted");
        // Thinning I/O from every 2nd to every 5th step must save energy.
        assert!(wi.adjusted_j < wi.baseline_j);
    }

    #[test]
    fn a_steered_session_conserves_energy_across_phases() {
        let mut s = session();
        s.advance(3);
        s.adjust(&Adjustment::Resolution {
            width: 96,
            height: 80,
        })
        .expect("valid");
        s.render_now(&StampBook::default());
        s.adjust(&Adjustment::IoInterval(3)).expect("valid");
        s.advance(100);
        assert_eq!(s.step(), s.timesteps());
        let timeline = s.node.timeline();
        let by_phase: f64 = Phase::ALL
            .iter()
            .map(|&p| timeline.phase_energy(p).system_j())
            .sum();
        let total = s.energy_j();
        assert!(
            (by_phase - total).abs() <= 1e-9 + 1e-12 * total,
            "phases sum to {by_phase} J, timeline total {total} J"
        );
    }

    /// `greenness steer`'s script, as the engine drives it (a re-attach
    /// leaves the pipeline alone): `(adjustment, steps to advance)` before
    /// each on-demand render.
    fn cli_script() -> [(Option<Adjustment>, u64); 4] {
        [
            (None, 3),
            (Some(Adjustment::IoInterval(3)), 3),
            (
                Some(Adjustment::Resolution {
                    width: 96,
                    height: 96,
                }),
                2,
            ),
            (
                Some(Adjustment::Camera {
                    colormap: Colormap::Viridis,
                    range: Some((0.0, 0.3)),
                }),
                4,
            ),
        ]
    }

    /// Drive a traced session through [`cli_script`], returning every stamp,
    /// the projection after each on-demand render, and the frames the
    /// session rasterised. With `forget`, it renders through a fresh book at
    /// every step and render, so each frame is rasterised.
    fn drive(forget: bool) -> (SteeringPipeline, Vec<FrameStamp>, Vec<u64>, u64) {
        let mut cfg = PipelineConfig::small(2);
        cfg.timesteps = 12;
        let mut s = SteeringPipeline::new(&cfg, 1).expect("opens");
        s.node.set_tracer(Tracer::jsonl());
        let (mut stamps, mut proj) = (Vec::new(), Vec::new());
        let mut book = StampBook::default();
        for (adj, steps) in cli_script() {
            if let Some(adj) = &adj {
                s.adjust(adj).expect("valid");
            }
            // One step per call, then the on-demand render.
            for last in (0..=steps).map(|k| k == steps) {
                if forget {
                    book = StampBook::default();
                }
                if last {
                    stamps.push(s.render_now(&book));
                } else {
                    stamps.extend(s.advance_with(1, &book));
                }
            }
            proj.push(s.projected_remaining_j(&book).to_bits());
        }
        let rasterised = s.node.tracer().counter("steer.frames.rasterised");
        (s, stamps, proj, rasterised)
    }

    #[test]
    fn a_frame_shown_again_is_charged_but_not_rasterised_again() {
        let (reusing, stamps, proj, rasterised) = drive(false);
        let (fresh, fresh_stamps, fresh_proj, fresh_rasterised) = drive(true);
        assert_eq!((reusing.frames_rendered(), rasterised), (8, 6));
        assert_eq!((fresh.frames_rendered(), fresh_rasterised), (8, 8));
        assert_eq!(stamps, fresh_stamps);
        assert_eq!(proj, fresh_proj);
        assert_eq!(reusing.bytes_written(), fresh.bytes_written());
        assert_eq!(reusing.energy_j().to_bits(), fresh.energy_j().to_bits());
    }

    #[test]
    fn sessions_opened_from_one_initial_field_match_fresh_ones() {
        let book = StampBook::default();
        assert!(matches!(
            SteeringPipeline::open(&PipelineConfig::small(0), 1, &book),
            Err(PipelineError::Config(_))
        ));
        assert!(
            book.held().expect("unpoisoned").initial.is_none(),
            "a refused interval evaluates nothing"
        );
        let mut wide = PipelineConfig::small(2);
        wide.grid_nx = 48;
        for cfg in [PipelineConfig::small(2), PipelineConfig::small(3), wide] {
            let mut kept = SteeringPipeline::open(&cfg, 1, &book).expect("opens");
            let mut fresh = SteeringPipeline::new(&cfg, 1).expect("opens");
            assert_eq!(kept.advance_with(4, &book), fresh.advance(4));
            let alone = &StampBook::default();
            assert_eq!(kept.render_now(&book), fresh.render_now(alone));
        }
        let kept = book.held().expect("unpoisoned").initial.clone();
        let kept = kept.expect("kept");
        assert_eq!((kept.nx(), kept.ny()), (48, 64));
    }

    /// `(frames, projections)` `book` holds.
    fn held_counts(book: &StampBook) -> (usize, usize) {
        let held = book.held().expect("unpoisoned");
        (held.frames.len(), held.projections.len())
    }

    #[test]
    fn projections_from_the_book_are_the_replays_own_bits() {
        let mut cfg = PipelineConfig::small(2);
        cfg.timesteps = 12;
        let book = StampBook::default();
        let mut walks = Vec::new();
        // The second session asks every question the first asked.
        for _ in 0..2 {
            let mut s = SteeringPipeline::open(&cfg, 1, &book).expect("opens");
            let mut walk = Vec::new();
            for (adj, steps) in cli_script() {
                if let Some(adj) = &adj {
                    s.adjust(adj).expect("valid");
                }
                s.advance_with(steps, &book);
                s.render_now(&book);
                let read = s.projected_remaining_j(&book).to_bits();
                let schedule = Schedule::of(s.config(), s.step());
                assert_eq!(read, s.replay_remaining(&schedule).to_bits());
                walk.push(read);
            }
            walks.push(walk);
            assert_eq!(held_counts(&book), (6, 4), "the second made nothing");
        }
        assert_eq!(walks[0], walks[1]);
        // Each step of the script sits under another schedule.
        let (a, b, c) = (walks[0][0], walks[0][1], walks[0][2]);
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn projections_differing_in_any_key_are_not_shared() {
        let book = StampBook::default();
        let base = {
            let mut cfg = PipelineConfig::small(2);
            cfg.timesteps = 12;
            cfg
        };
        let variant = |change: fn(&mut PipelineConfig)| {
            let mut cfg = base.clone();
            change(&mut cfg);
            cfg
        };
        let sessions = [
            (base.clone(), 3),
            (base.clone(), 4),
            (variant(|c| c.timesteps = 13), 3),
            (variant(|c| c.render.width = 96), 3),
            (variant(|c| c.render.height = 80), 3),
            (variant(|c| c.io_interval = 3), 3),
            (variant(|c| c.chunk_bytes *= 2), 3),
            (variant(|c| c.render_cost.flops_per_pixel *= 2.0), 3),
            (variant(|c| c.sim_cost.flops_per_cell_update *= 2.0), 3),
        ];
        let mut seen = Vec::new();
        for (cfg, steps) in &sessions {
            let mut s = SteeringPipeline::open(cfg, 1, &book).expect("opens");
            s.advance_with(*steps, &book);
            let read = s.projected_remaining_j(&book).to_bits();
            let schedule = Schedule::of(cfg, s.step());
            assert_eq!(read, s.replay_remaining(&schedule).to_bits(), "{cfg:?}");
            assert!(!seen.contains(&read), "{cfg:?} shares a projection");
            seen.push(read);
        }
        assert_eq!(held_counts(&book).1, sessions.len());
    }

    #[test]
    fn the_book_holds_a_bounded_number_of_projections() {
        let mut cfg = PipelineConfig::small(1);
        cfg.timesteps = 120;
        let book = StampBook::default();
        let mut s = SteeringPipeline::open(&cfg, 1, &book).expect("opens");
        for _ in 0..120 {
            s.advance_with(1, &book);
            s.projected_remaining_j(&book);
        }
        assert_eq!(held_counts(&book), (BOOK_FRAMES, BOOK_PROJECTIONS));
        // Oldest out first: the last `BOOK_PROJECTIONS` steps are held.
        let held = book.held().expect("unpoisoned");
        let steps: Vec<u64> = held.projections.iter().map(|((_, s), _)| s.step).collect();
        let last = 120 - BOOK_PROJECTIONS as u64 + 1;
        assert_eq!(steps, (last..=120).collect::<Vec<u64>>());
    }

    #[test]
    fn a_whatif_is_two_projections_through_the_book() {
        let mut s = session();
        s.advance(3);
        let book = StampBook::default();
        let adj = Adjustment::IoInterval(5);
        let bits = |d: WhatIfDelta| (d.baseline_j.to_bits(), d.adjusted_j.to_bits());
        let reference = bits(s.whatif(&adj).expect("valid"));
        let bad = Adjustment::Resolution {
            width: 0,
            height: 1,
        };
        assert!(s.whatif_with(&bad, &book).is_err());
        assert_eq!(
            held_counts(&book),
            (0, 0),
            "a refused question keeps nothing"
        );
        let (asked, held) = s.whatif_with(&adj, &book).expect("valid");
        assert_eq!((bits(asked), held), (reference, false));
        let (again, held) = s.whatif_with(&adj, &book).expect("valid");
        assert_eq!((bits(again), held), (reference, true));
        // The baseline is the live projection; a camera leaves the schedule.
        let live = s.projected_remaining_j(&book).to_bits();
        assert_eq!(live, reference.0);
        let camera = Adjustment::Camera {
            colormap: Colormap::Viridis,
            range: None,
        };
        let (look, held) = s.whatif_with(&camera, &book).expect("valid");
        assert_eq!((bits(look), held), ((live, live), true));
        assert_eq!(held_counts(&book), (0, 2));
    }

    #[test]
    fn a_poisoned_book_is_a_miss() {
        let book = StampBook::default();
        let poisoner = book.clone();
        let _ = std::thread::spawn(move || {
            let _held = poisoner.0.lock();
            panic!("poison the book");
        })
        .join();
        let mut s = SteeringPipeline::open(&PipelineConfig::small(2), 1, &book).expect("opens");
        let mut fresh = session();
        assert_eq!(s.advance_with(4, &book), fresh.advance(4));
        assert_eq!(
            s.projected_remaining_j(&book).to_bits(),
            fresh.projected_remaining_j(&StampBook::default()).to_bits()
        );
        assert!(book.held().is_none());
    }

    #[test]
    fn invalid_adjustments_are_rejected_as_values() {
        let mut s = session();
        assert!(matches!(
            s.adjust(&Adjustment::IoInterval(0)),
            Err(PipelineError::Config(_))
        ));
        assert!(matches!(
            s.whatif(&Adjustment::Resolution {
                width: 0,
                height: 64
            }),
            Err(PipelineError::Config(_))
        ));
    }
}
