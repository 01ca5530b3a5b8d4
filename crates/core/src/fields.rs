//! The field memo a grid run shares, so each distinct field is stepped,
//! serialised and stored once: per step and trajectory the snapshot's blocks
//! and write-time checksum, held while later cells still need them (DESIGN
//! §2).

use std::collections::BTreeMap;
use std::sync::Mutex;

use greenness_heatsim::SolverConfig;

use crate::config::PipelineConfig;
use crate::driver::Stored;
use crate::pipeline::PipelineKind;

/// A field the grid's cells will read: its trajectory — `(grid_nx,
/// grid_ny, solver)`, all it depends on but its step, since every run
/// starts from `Grid::warm_patch` — the reads still to come, and the
/// snapshot with its write-time checksum once a cell has offered it.
struct Field {
    trajectory: (usize, usize, SolverConfig),
    demand: u32,
    held: Option<(Stored, u64)>,
}

impl Field {
    fn follows(&self, cfg: &PipelineConfig) -> bool {
        let (nx, ny, solver) = &self.trajectory;
        (*nx, *ny, solver) == (cfg.grid_nx, cfg.grid_ny, &cfg.solver)
    }
}

/// The fields one grid run's cells will read, by step, shared by its jobs.
#[derive(Default)]
pub(crate) struct FieldMemo(Mutex<BTreeMap<u64, Vec<Field>>>);

impl FieldMemo {
    /// A memo expecting one read of every I/O step of each post-processing
    /// run among `runs`: the cells that store the field.
    pub(crate) fn expecting<'c>(
        runs: impl IntoIterator<Item = (PipelineKind, &'c PipelineConfig)>,
    ) -> FieldMemo {
        let mut steps: BTreeMap<u64, Vec<Field>> = BTreeMap::new();
        for (kind, cfg) in runs {
            if kind != PipelineKind::PostProcessing || cfg.io_interval == 0 {
                continue;
            }
            for step in (cfg.io_interval..=cfg.timesteps).step_by(cfg.io_interval as usize) {
                let fields = steps.entry(step).or_default();
                match fields.iter_mut().find(|f| f.follows(cfg)) {
                    Some(field) => field.demand += 1,
                    None => fields.push(Field {
                        trajectory: (cfg.grid_nx, cfg.grid_ny, cfg.solver.clone()),
                        demand: 1,
                        held: None,
                    }),
                }
            }
        }
        FieldMemo(Mutex::new(steps))
    }

    /// Read the field of `cfg`'s run at `step`: its snapshot and write-time
    /// checksum when held. Each read uses up one expected read; the last one
    /// drops the field. A poisoned lock is a miss.
    pub(crate) fn take(&self, cfg: &PipelineConfig, step: u64) -> Option<(Stored, u64)> {
        let mut steps = self.0.lock().ok()?;
        let fields = steps.get_mut(&step)?;
        let at = fields.iter().position(|f| f.follows(cfg))?;
        fields[at].demand -= 1;
        if fields[at].demand > 0 {
            return fields[at].held.clone();
        }
        let field = fields.swap_remove(at);
        if fields.is_empty() {
            steps.remove(&step);
        }
        field.held
    }

    /// Offer `snapshot`, the field of `cfg`'s run at `step`, and its
    /// `checksum` to the cells still to read it; with none left it is not
    /// kept.
    pub(crate) fn offer(&self, cfg: &PipelineConfig, step: u64, snapshot: &Stored, checksum: u64) {
        let Ok(mut steps) = self.0.lock() else {
            return;
        };
        let fields = steps.get_mut(&step);
        if let Some(field) = fields.and_then(|fields| fields.iter_mut().find(|f| f.follows(cfg))) {
            field
                .held
                .get_or_insert_with(|| (snapshot.clone(), checksum));
        }
    }
}

#[cfg(test)]
impl FieldMemo {
    /// `(step, snapshot, checksum)` of every field held.
    fn held(&self) -> Vec<(u64, Stored, u64)> {
        let steps = self.0.lock().expect("unpoisoned");
        let fields = steps
            .iter()
            .flat_map(|(&step, fields)| fields.iter().map(move |f| (step, f)));
        fields
            .filter_map(|(step, f)| f.held.clone().map(|(snapshot, sum)| (step, snapshot, sum)))
            .collect()
    }

    /// Fields still expected to be read, held or not.
    fn expected(&self) -> usize {
        self.0
            .lock()
            .expect("unpoisoned")
            .values()
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use greenness_faults::checksum64;
    use greenness_heatsim::{Boundary, Grid, HeatSolver};
    use greenness_platform::{HardwareSpec, Node};
    use greenness_viz::{render_field, Framebuffer};

    use super::*;
    use crate::driver;
    use crate::frames::{recall, Cursor, FrameMemo};
    use crate::pipeline::{drive, run, PipelineOutput};

    const KINDS: [PipelineKind; 2] = [PipelineKind::PostProcessing, PipelineKind::InSitu];

    /// The oracle suite's three-interval grid: the small config at 50 steps
    /// with I/O every 1, 2 and 8 steps, frames kept.
    fn pinned(io_interval: u64) -> PipelineConfig {
        let mut cfg = PipelineConfig::small(io_interval);
        (cfg.timesteps, cfg.keep_frames) = (50, true);
        cfg
    }

    /// Run `cells` in order through `frames` and `fields`; each output must
    /// equal the cell's run with no memo. Returns the stencil steps each
    /// cell ran.
    fn run_cells(
        cells: &[(PipelineKind, PipelineConfig)],
        frames: &FrameMemo,
        fields: &FieldMemo,
    ) -> Vec<u64> {
        cells
            .iter()
            .map(|(kind, cfg)| {
                let mut node = Node::new(HardwareSpec::table1());
                let (mut stepper, mut store) = driver::open(cfg, None).expect("opens");
                let shared = drive(
                    *kind,
                    &mut node,
                    cfg,
                    (&mut stepper, &mut store),
                    Some((frames, fields)),
                )
                .expect("runs");
                let mut alone_node = Node::new(HardwareSpec::table1());
                let alone = run(*kind, &mut alone_node, cfg).expect("runs");
                let pixels = |out: &PipelineOutput| {
                    out.frames
                        .iter()
                        .map(|f| (f.step, f.image.clone()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(pixels(&shared), pixels(&alone), "{kind:?} {}", cfg.label);
                let charged =
                    |node: &Node| (node.now(), node.timeline().total_energy_j().to_bits());
                assert_eq!(
                    charged(&node),
                    charged(&alone_node),
                    "{kind:?} {}",
                    cfg.label
                );
                stepper.stencil_steps()
            })
            .collect()
    }

    fn grid_cells(configs: &[PipelineConfig]) -> Vec<(PipelineKind, PipelineConfig)> {
        configs
            .iter()
            .flat_map(|cfg| KINDS.map(|kind| (kind, cfg.clone())))
            .collect()
    }

    fn memo_for(cells: &[(PipelineKind, PipelineConfig)]) -> FieldMemo {
        FieldMemo::expecting(cells.iter().map(|(kind, cfg)| (*kind, cfg)))
    }

    /// At `--jobs 1` the pinned grid's post-processing cells step the field
    /// 50 times, not 150: the first steps and stores every field, the later
    /// ones store its blocks. An in-situ cell steps only for the frames its
    /// memo does not hold (at 64² a frame chain closes within a few dozen
    /// steps). Every field is held only until its last reader, so the memo
    /// ends empty.
    #[test]
    fn the_pinned_grid_steps_each_stored_field_once_and_ends_empty() {
        let cells = grid_cells(&[1, 2, 8].map(pinned));
        let fields = memo_for(&cells);
        assert_eq!(fields.expected(), 50);
        let stencil = run_cells(&cells, &FrameMemo::default(), &fields);
        let [post, insitu] = [0, 1].map(|k| stencil.iter().skip(k).step_by(2).sum::<u64>());
        assert_eq!((post, stencil[0]), (50, 50));
        assert!(insitu < 150, "{stencil:?}");
        assert_eq!(fields.expected(), 0);
        assert!(fields.held().is_empty());
    }

    /// When the frame memo holds every frame, as it does on the paper grid
    /// (one 512² chain of all 50 steps), the whole grid steps the field 50
    /// times, not 300: the in-situ cells never ask for it.
    #[test]
    fn with_every_frame_held_the_grid_steps_each_field_once() {
        let cells = grid_cells(&[1, 2, 8].map(pinned));
        let (frames, fields) = (FrameMemo::default(), memo_for(&cells));
        let mut seeder = Cursor::new(&frames, &cells[0].1);
        for step in 1..=50 {
            let frame = Framebuffer::new(64, 64);
            recall::<()>(Some((&mut seeder, step)), || Ok(frame)).expect("infallible");
        }
        let mut stencil = 0;
        for (kind, cfg) in &cells {
            let mut node = Node::new(HardwareSpec::table1());
            let (mut stepper, mut store) = driver::open(cfg, None).expect("opens");
            let cell = (&mut stepper, &mut store);
            drive(*kind, &mut node, cfg, cell, Some((&frames, &fields))).expect("runs");
            stencil += stepper.stencil_steps();
        }
        assert_eq!(stencil, 50);
    }

    /// However the cells of the pinned grid interleave (here two threads
    /// take them from opposite ends, as `--jobs 4` might), each shows what it
    /// shows alone and the memo still ends empty: a miss steps its own
    /// solver.
    #[test]
    fn any_interleaving_shows_the_same_fields_and_ends_empty() {
        let cells = grid_cells(&[1, 2, 8].map(pinned));
        let (frames, fields) = (FrameMemo::default(), memo_for(&cells));
        let reversed: Vec<_> = cells.iter().rev().cloned().collect();
        std::thread::scope(|scope| {
            scope.spawn(|| run_cells(&cells[..3], &frames, &fields));
            scope.spawn(|| run_cells(&reversed[..3], &frames, &fields));
        });
        assert_eq!(fields.expected(), 0);
    }

    /// Every field the memo holds is the bytes an independent solver run
    /// to that step serialises, with their checksum.
    #[test]
    fn every_held_field_is_an_independent_run_to_its_step() {
        let cells = grid_cells(&[1, 2, 8].map(pinned));
        let fields = memo_for(&cells);
        run_cells(&cells[..1], &FrameMemo::default(), &fields);
        let held = fields.held();
        assert_eq!(held.len(), 25, "the later cells store every even step");
        let cfg = pinned(1);
        let mut solver =
            HeatSolver::new(Grid::warm_patch(64, 64), cfg.solver.clone()).expect("stable");
        for (step, snapshot, sum) in held {
            while solver.steps_taken() < step {
                solver.step();
            }
            let bytes = solver.grid().to_bytes();
            assert_eq!(snapshot.parts().concat(), bytes, "step {step}");
            assert_eq!(sum, checksum64(&bytes), "step {step}");
        }
    }

    /// Configurations that differ in one source's rate, in `alpha` or in
    /// the boundary are different trajectories: each steps its own fields.
    #[test]
    fn trajectories_that_differ_in_a_source_alpha_or_boundary_never_share() {
        let base = pinned(2);
        let mut rate = base.clone();
        rate.solver.sources[1].rate *= 1.5;
        let mut alpha = base.clone();
        alpha.solver.alpha *= 0.5;
        let mut boundary = base.clone();
        boundary.solver.boundary = Boundary::Dirichlet(0.0);
        let configs = [base, rate, alpha, boundary];
        let cells: Vec<_> = configs
            .iter()
            .map(|cfg| (PipelineKind::PostProcessing, cfg.clone()))
            .collect();
        let fields = memo_for(&cells);
        assert_eq!(fields.0.lock().expect("unpoisoned")[&2].len(), 4);
        let stencil = run_cells(&cells, &FrameMemo::default(), &fields);
        assert_eq!(stencil, [50; 4]);
        assert_eq!(fields.expected(), 0);
    }

    /// A memo seeded with stand-in blocks for every step shows up in the
    /// frames of the post-processing cells that read it, with no frame
    /// memo to serve them instead.
    #[test]
    fn seeded_fields_show_up_in_the_later_cells_frames() {
        let configs = [2, 8].map(pinned);
        let cells: Vec<_> = configs
            .iter()
            .map(|cfg| (PipelineKind::PostProcessing, cfg.clone()))
            .collect();
        let fields = memo_for(&cells);
        let stand_in = Grid::filled(64, 64, 0.25);
        let snapshot = Stored::of_grid(&stand_in);
        for step in 1..=50 {
            fields.offer(&configs[0], step, &snapshot, snapshot.checksum64());
        }
        let expected: Framebuffer = render_field(&stand_in, &configs[0].render);
        let mut hits = 0;
        for (kind, cfg) in &cells {
            let mut node = Node::new(HardwareSpec::table1());
            let (mut stepper, mut store) = driver::open(cfg, None).expect("opens");
            let frames = FrameMemo::default();
            let out = drive(
                *kind,
                &mut node,
                cfg,
                (&mut stepper, &mut store),
                Some((&frames, &fields)),
            )
            .expect("runs");
            assert!(out.verified);
            assert_eq!(stepper.stencil_steps(), 0);
            hits += out.frames.iter().filter(|f| f.image == expected).count();
        }
        assert_eq!(hits, 25 + 6);
    }
}
