//! The memo a grid run shares, so each distinct frame is rasterised once and
//! each distinct field stepped, serialised and stored once: per trajectory
//! and render options a chain of frame diffs, per step and trajectory the
//! snapshot later cells will still store, and per run a reader (DESIGN §2).

use std::collections::BTreeMap;
use std::sync::Mutex;

use greenness_heatsim::SolverConfig;
use greenness_viz::{Framebuffer, RenderOptions};

use crate::config::PipelineConfig;
use crate::driver::Stored;
use crate::pipeline::PipelineKind;

/// A chain closes when its runs would pass this many frames' worth of bytes.
const CAP_FRAMES: usize = 4;

/// What one run costs beyond its bytes.
const RUN_HEADER: usize = std::mem::size_of::<(usize, usize)>();

/// `(grid_nx, grid_ny, solver)`: all a field depends on but its step, since
/// every run starts from `Grid::warm_patch` and the stencil gives the same
/// bits at any `jobs`. A frame depends on its render options too.
pub(crate) type Trajectory = (usize, usize, SolverConfig);

pub(crate) fn trajectory(cfg: &PipelineConfig) -> Trajectory {
    (cfg.grid_nx, cfg.grid_ny, cfg.solver.clone())
}

/// One trajectory's frames, step by step, as byte runs from an all-zero frame.
#[derive(Default)]
struct Chain {
    key: (Trajectory, RenderOptions),
    /// The steps held, ascending, each with the end of its runs.
    steps: Vec<(u64, usize)>,
    /// The frame at the last step; emptied when the chain closes.
    last: Vec<u8>,
    /// `(offset in the frame, end in data)` of each run.
    runs: Vec<(usize, usize)>,
    data: Vec<u8>,
}

impl Chain {
    /// Add `frame` at `step` past the last step, closing when over the cap.
    fn append(&mut self, step: u64, frame: &[u8]) {
        let ahead = self.steps.last().map_or(true, |&(last, _)| step > last);
        if !ahead || self.last.len() != frame.len() {
            return;
        }
        let held = (self.runs.len(), self.data.len());
        push_runs(&self.last, frame, &mut self.runs, &mut self.data);
        if self.data.len() + RUN_HEADER * self.runs.len() > CAP_FRAMES * frame.len() {
            self.runs.truncate(held.0);
            self.data.truncate(held.1);
            self.runs.shrink_to_fit();
            self.data.shrink_to_fit();
            self.last = Vec::new();
            return;
        }
        self.last.copy_from_slice(frame);
        self.steps.push((step, self.runs.len()));
    }
}

/// Append the byte runs that turn `old` into `new` (equal lengths). A gap
/// shorter than a run header joins its neighbours.
fn push_runs(old: &[u8], new: &[u8], runs: &mut Vec<(usize, usize)>, data: &mut Vec<u8>) {
    let differing = |at: usize| {
        old[at..]
            .chunks(256)
            .zip(new[at..].chunks(256))
            .position(|(a, b)| a != b)
    };
    let mut at = 0;
    while let Some(block) = differing(at) {
        at += 256 * block;
        while old[at] == new[at] {
            at += 1;
        }
        let mut end = at + 1;
        while let Some(next) = (end..new.len().min(end + RUN_HEADER)).find(|&i| old[i] != new[i]) {
            end = next + 1;
        }
        data.extend_from_slice(&new[at..end]);
        runs.push((at, data.len()));
        at = end;
    }
}

/// A field the grid's cells will store: the reads still to come, and the
/// snapshot with its write-time checksum once a cell has offered it.
struct Field {
    trajectory: Trajectory,
    demand: u32,
    held: Option<(Stored, u64)>,
}

/// The frames and fields one grid run shares between its jobs.
#[derive(Default)]
pub(crate) struct GridMemo {
    /// The fields still to be stored, by step.
    fields: Mutex<BTreeMap<u64, Vec<Field>>>,
    chains: Mutex<Vec<Chain>>,
}

impl GridMemo {
    /// A memo expecting one read of every I/O step of each post-processing
    /// run among `runs`: the cells that store the field.
    pub(crate) fn expecting<'c>(
        runs: impl IntoIterator<Item = (PipelineKind, &'c PipelineConfig)>,
    ) -> GridMemo {
        let mut steps: BTreeMap<u64, Vec<Field>> = BTreeMap::new();
        for (kind, cfg) in runs {
            if kind != PipelineKind::PostProcessing || cfg.io_interval == 0 {
                continue;
            }
            let trajectory = trajectory(cfg);
            for step in (cfg.io_interval..=cfg.timesteps).step_by(cfg.io_interval as usize) {
                let fields = steps.entry(step).or_default();
                match fields.iter_mut().find(|f| f.trajectory == trajectory) {
                    Some(field) => field.demand += 1,
                    None => fields.push(Field {
                        trajectory: trajectory.clone(),
                        demand: 1,
                        held: None,
                    }),
                }
            }
        }
        GridMemo {
            fields: Mutex::new(steps),
            chains: Mutex::default(),
        }
    }
}

/// One run's reader of a [`GridMemo`], at the frame of the last step it read.
pub(crate) struct Reader<'m> {
    memo: &'m GridMemo,
    key: (Trajectory, RenderOptions),
    /// The position of `frame` in its chain's steps.
    at: Option<usize>,
    frame: Vec<u8>,
}

impl<'m> Reader<'m> {
    /// A reader of `memo` for the run `cfg` describes.
    pub(crate) fn new(memo: &'m GridMemo, cfg: &PipelineConfig) -> Reader<'m> {
        Reader {
            memo,
            key: (trajectory(cfg), cfg.render),
            at: None,
            frame: Vec::new(),
        }
    }

    /// The frame at `step`, if held. A poisoned lock is a miss.
    fn get(&mut self, step: u64) -> Option<Framebuffer> {
        let (width, height) = (self.key.1.width, self.key.1.height);
        let chains = self.memo.chains.lock().ok()?;
        let chain = chains.iter().find(|c| c.key == self.key)?;
        let to = chain.steps.binary_search_by_key(&step, |&(s, _)| s).ok()?;
        let from = match self.at {
            Some(at) if at <= to => chain.steps[at].1,
            _ => {
                self.frame = vec![0; width * height * 3];
                0
            }
        };
        let mut start = from.checked_sub(1).map_or(0, |run| chain.runs[run].1);
        for &(offset, end) in &chain.runs[from..chain.steps[to].1] {
            self.frame[offset..offset + end - start].copy_from_slice(&chain.data[start..end]);
            start = end;
        }
        self.at = Some(to);
        drop(chains);
        Framebuffer::from_bytes(width, height, &self.frame)
    }

    /// The field at `step`: its snapshot and write-time checksum when held.
    /// Each take uses up one expected read; the last one drops the field. A
    /// poisoned lock is a miss.
    pub(crate) fn take(&self, step: u64) -> Option<(Stored, u64)> {
        let mut steps = self.memo.fields.lock().ok()?;
        let fields = steps.get_mut(&step)?;
        let at = fields.iter().position(|f| f.trajectory == self.key.0)?;
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

    /// Offer `snapshot`, the field at `step`, and its `checksum` to the cells
    /// still to read it; with none left it is not kept.
    pub(crate) fn offer(&self, step: u64, snapshot: &Stored, checksum: u64) {
        let Ok(mut steps) = self.memo.fields.lock() else {
            return;
        };
        let mut fields = steps.get_mut(&step).into_iter().flatten();
        if let Some(field) = fields.find(|f| f.trajectory == self.key.0) {
            field
                .held
                .get_or_insert_with(|| (snapshot.clone(), checksum));
        }
    }
}

/// The frame at `step`: copied out of the reader's memo when it holds one,
/// else made by `render` and offered to the memo. No reader: `render`.
pub(crate) fn recall<E>(
    memo: Option<(&mut Reader<'_>, u64)>,
    render: impl FnOnce() -> Result<Framebuffer, E>,
) -> Result<Framebuffer, E> {
    let Some((reader, step)) = memo else {
        return render();
    };
    if let Some(frame) = reader.get(step) {
        return Ok(frame);
    }
    let frame = render()?;
    let opts = &reader.key.1;
    let sized = (frame.width(), frame.height()) == (opts.width, opts.height);
    if let (true, Ok(mut chains)) = (sized, reader.memo.chains.lock()) {
        let known = chains.iter().position(|c| c.key == reader.key);
        let c = known.unwrap_or_else(|| {
            let (key, last) = (reader.key.clone(), vec![0; frame.as_bytes().len()]);
            chains.push(Chain {
                key,
                last,
                ..Chain::default()
            });
            chains.len() - 1
        });
        chains[c].append(step, frame.as_bytes());
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use greenness_faults::{checksum64, Rng};
    use greenness_heatsim::{Boundary, Grid, HeatSolver};
    use greenness_platform::{HardwareSpec, Node};
    use greenness_viz::{render_field, Colormap};
    use proptest::prelude::*;

    use super::*;
    use crate::driver;
    use crate::pipeline::{drive, run, PipelineOutput};

    impl GridMemo {
        /// `(step, snapshot, checksum)` of every field held.
        fn held(&self) -> Vec<(u64, Stored, u64)> {
            let steps = self.fields.lock().expect("unpoisoned");
            let fields = steps
                .iter()
                .flat_map(|(&step, fields)| fields.iter().map(move |f| (step, f)));
            fields
                .filter_map(|(step, f)| f.held.clone().map(|(snapshot, sum)| (step, snapshot, sum)))
                .collect()
        }

        /// Fields still expected to be read, held or not.
        fn expected(&self) -> usize {
            self.fields
                .lock()
                .expect("unpoisoned")
                .values()
                .map(Vec::len)
                .sum()
        }
    }

    const KINDS: [PipelineKind; 2] = [PipelineKind::PostProcessing, PipelineKind::InSitu];

    /// A 16×8 render of the small config, for synthetic frames.
    fn tiny() -> PipelineConfig {
        let mut cfg = PipelineConfig::small(1);
        (cfg.render.width, cfg.render.height) = (16, 8);
        cfg
    }

    /// The oracle suite's three-interval grid: the small config at 50 steps
    /// with I/O every 1, 2 and 8 steps, frames kept.
    fn pinned(io_interval: u64) -> PipelineConfig {
        let mut cfg = PipelineConfig::small(io_interval);
        (cfg.timesteps, cfg.keep_frames) = (50, true);
        cfg
    }

    /// Frames for steps `1..=steps` of `cfg`'s size: each edits a few bytes
    /// of the one before, and a few rewrite most of it, so chains close.
    fn synthetic_frames(cfg: &PipelineConfig, steps: u64, seed: u64) -> HashMap<u64, Framebuffer> {
        let (w, h) = (cfg.render.width, cfg.render.height);
        let mut rng = Rng::seeded(seed);
        let mut pixels = vec![0u8; w * h * 3];
        let mut frames = HashMap::new();
        for step in 1..=steps {
            let edits = if rng.below(8) == 0 { pixels.len() } else { 4 };
            for _ in 0..edits {
                let at = rng.below(pixels.len() as u64) as usize;
                pixels[at] = rng.next_u64() as u8;
            }
            let frame = Framebuffer::from_bytes(w, h, &pixels).expect("sized");
            frames.insert(step, frame);
        }
        frames
    }

    /// `step`'s frame through `reader`, rendering `oracle`'s on a miss;
    /// returns it and whether it was rendered.
    fn read(
        reader: &mut Reader<'_>,
        oracle: &HashMap<u64, Framebuffer>,
        step: u64,
    ) -> (Framebuffer, bool) {
        let mut rendered = false;
        let frame = recall::<()>(Some((reader, step)), || {
            rendered = true;
            Ok(oracle[&step].clone())
        })
        .expect("infallible");
        (frame, rendered)
    }

    fn steps_of(chain: &Chain) -> Vec<u64> {
        chain.steps.iter().map(|&(step, _)| step).collect()
    }

    fn frames(out: &PipelineOutput) -> Vec<(u64, Framebuffer)> {
        out.frames
            .iter()
            .map(|f| (f.step, f.image.clone()))
            .collect()
    }

    /// Run `kind` over `cfg` through `memo`: the node, the output and the
    /// stencil steps the run took.
    fn shared(
        kind: PipelineKind,
        cfg: &PipelineConfig,
        memo: &GridMemo,
    ) -> (Node, PipelineOutput, u64) {
        let mut node = Node::new(HardwareSpec::table1());
        let (mut stepper, mut store) = driver::open(cfg, None).expect("opens");
        let cell = (&mut stepper, &mut store);
        let out = drive(kind, &mut node, cfg, cell, Some(memo)).expect("runs");
        (node, out, stepper.stencil_steps())
    }

    /// Run `cells` in order through `memo`; each output must equal the
    /// cell's run with no memo. Returns the stencil steps each cell ran.
    fn run_cells(cells: &[(PipelineKind, PipelineConfig)], memo: &GridMemo) -> Vec<u64> {
        cells
            .iter()
            .map(|(kind, cfg)| {
                let (node, shared, stencil) = shared(*kind, cfg, memo);
                let mut alone_node = Node::new(HardwareSpec::table1());
                let alone = run(*kind, &mut alone_node, cfg).expect("runs");
                assert_eq!(frames(&shared), frames(&alone), "{kind:?} {}", cfg.label);
                let charged =
                    |node: &Node| (node.now(), node.timeline().total_energy_j().to_bits());
                assert_eq!(
                    charged(&node),
                    charged(&alone_node),
                    "{kind:?} {}",
                    cfg.label
                );
                stencil
            })
            .collect()
    }

    fn grid_cells(configs: &[PipelineConfig]) -> Vec<(PipelineKind, PipelineConfig)> {
        configs
            .iter()
            .flat_map(|cfg| KINDS.map(|kind| (kind, cfg.clone())))
            .collect()
    }

    fn memo_for(cells: &[(PipelineKind, PipelineConfig)]) -> GridMemo {
        GridMemo::expecting(cells.iter().map(|(kind, cfg)| (*kind, cfg)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Two readers walk one trajectory, each ascending with gaps and
        /// restarting from a lower step when it runs off the end: every
        /// frame either gets back is the oracle's.
        #[test]
        fn recalled_frames_match_a_map_of_every_frame(
            seed in any::<u64>(),
            ops in prop::collection::vec((any::<bool>(), 0u64..6), 1..120),
        ) {
            const STEPS: u64 = 40;
            let cfg = tiny();
            let oracle = synthetic_frames(&cfg, STEPS, seed);
            let memo = GridMemo::default();
            let mut readers = [Reader::new(&memo, &cfg), Reader::new(&memo, &cfg)];
            let mut at = [0u64; 2];
            for (second, jump) in ops {
                let r = usize::from(second);
                at[r] = if jump == 0 || at[r] + jump > STEPS { 1 + jump } else { at[r] + jump };
                let (frame, _) = read(&mut readers[r], &oracle, at[r]);
                prop_assert_eq!(&frame, &oracle[&at[r]]);
            }
        }
    }

    #[test]
    fn a_chain_serves_every_step_it_holds_and_closes_at_the_cap() {
        let cfg = tiny();
        let frame_len = 16 * 8 * 3;
        let oracle = synthetic_frames(&cfg, 60, 7);
        let memo = GridMemo::default();
        let mut writer = Reader::new(&memo, &cfg);
        for step in 1..=60 {
            assert!(read(&mut writer, &oracle, step).1, "step {step} was new");
        }
        let held = {
            let chains = memo.chains.lock().expect("unpoisoned");
            let chain = &chains[0];
            assert!(chain.last.is_empty(), "60 frames overflow the cap");
            assert!(chain.data.len() + RUN_HEADER * chain.runs.len() <= CAP_FRAMES * frame_len);
            steps_of(chain)
        };
        assert!(held.len() > 1 && held.len() < 60, "{held:?}");
        let mut reader = Reader::new(&memo, &cfg);
        for step in (1..=60).rev().chain(1..=60) {
            let (frame, rendered) = read(&mut reader, &oracle, step);
            assert_eq!(frame, oracle[&step], "step {step}");
            assert_eq!(rendered, !held.contains(&step), "step {step}");
        }

        // An open chain takes only steps past its last one.
        let memo = GridMemo::default();
        for step in [2, 1, 2, 4, 3] {
            read(&mut Reader::new(&memo, &cfg), &oracle, step);
        }
        assert_eq!(
            steps_of(&memo.chains.lock().expect("unpoisoned")[0]),
            [2, 4]
        );
    }

    #[test]
    fn trajectories_that_differ_in_render_options_or_one_source_never_share() {
        let base = PipelineConfig::small(1);
        let mut recoloured = base.clone();
        recoloured.render.colormap = Colormap::CoolWarm;
        let mut moved = base.clone();
        moved.solver.sources[0].rate *= 2.0;
        let memo = GridMemo::default();
        run_cells(&[(PipelineKind::InSitu, base)], &memo);
        for other in [&recoloured, &moved] {
            assert!(Reader::new(&memo, other).get(1).is_none());
            let mut other = other.clone();
            other.keep_frames = true;
            run_cells(&[(PipelineKind::InSitu, other)], &memo);
        }
        assert_eq!(memo.chains.lock().expect("unpoisoned").len(), 3);
    }

    #[test]
    fn an_auto_ranged_trajectory_stays_exact_and_its_chain_closes() {
        let mut cfg = PipelineConfig::small(1);
        (cfg.timesteps, cfg.keep_frames, cfg.render.range) = (40, true, None);
        let memo = GridMemo::default();
        run_cells(&grid_cells(&[cfg]), &memo);
        let chains = memo.chains.lock().expect("unpoisoned");
        assert!(chains[0].last.is_empty(), "the chain closed");
        assert!(chains[0].steps.len() < 40, "{:?}", steps_of(&chains[0]));
    }

    /// The pinned grid's cells in sweep order share one memo with no field
    /// demand and show what they show alone. The first cell leaves its early
    /// steps in the memo (at 64² a chain reaches the cap within a couple of
    /// dozen steps), so the later cells copy those frames; and a memo seeded
    /// with stand-in frames for every step shows up in all 162.
    #[test]
    fn the_pinned_grid_reads_its_repeated_frames_from_the_memo() {
        let configs = [1, 2, 8].map(pinned);
        let memo = GridMemo::default();
        run_cells(&grid_cells(&configs), &memo);
        let held = steps_of(&memo.chains.lock().expect("unpoisoned")[0]);
        assert!(held.len() >= 10, "{held:?}");
        let mut node = Node::new(HardwareSpec::table1());
        let first = run(PipelineKind::PostProcessing, &mut node, &configs[0]).expect("runs");
        let mut reader = Reader::new(&memo, &configs[0]);
        for (step, frame) in frames(&first)
            .iter()
            .filter(|(step, _)| held.contains(step))
        {
            assert_eq!(reader.get(*step).as_ref(), Some(frame), "step {step}");
        }

        let seeded = GridMemo::default();
        let stand_in = Framebuffer::new(64, 64);
        let mut seeder = Reader::new(&seeded, &configs[0]);
        for step in 1..=50 {
            recall::<()>(Some((&mut seeder, step)), || Ok(stand_in.clone())).expect("infallible");
        }
        let mut hits = 0;
        for (kind, cfg) in grid_cells(&configs) {
            let (_, out, _) = shared(kind, &cfg, &seeded);
            hits += out.frames.iter().filter(|f| f.image == stand_in).count();
        }
        assert_eq!(hits, 162);
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
        let memo = memo_for(&cells);
        assert_eq!(memo.expected(), 50);
        let stencil = run_cells(&cells, &memo);
        let [post, insitu] = [0, 1].map(|k| stencil.iter().skip(k).step_by(2).sum::<u64>());
        assert_eq!((post, stencil[0]), (50, 50));
        assert!(insitu < 150, "{stencil:?}");
        assert_eq!(memo.expected(), 0);
        assert!(memo.held().is_empty());
    }

    /// When the memo holds every frame, as it does on the paper grid (one
    /// 512² chain of all 50 steps), the whole grid steps the field 50 times,
    /// not 300: the in-situ cells never ask for it.
    #[test]
    fn with_every_frame_held_the_grid_steps_each_field_once() {
        let cells = grid_cells(&[1, 2, 8].map(pinned));
        let memo = memo_for(&cells);
        let mut seeder = Reader::new(&memo, &cells[0].1);
        for step in 1..=50 {
            let frame = Framebuffer::new(64, 64);
            recall::<()>(Some((&mut seeder, step)), || Ok(frame)).expect("infallible");
        }
        let stencil: u64 = cells
            .iter()
            .map(|(kind, cfg)| shared(*kind, cfg, &memo).2)
            .sum();
        assert_eq!(stencil, 50);
    }

    /// However the cells of the pinned grid interleave (here two threads
    /// take them from opposite ends, as `--jobs 4` might), each shows what it
    /// shows alone and the memo still ends empty: a miss steps its own
    /// solver.
    #[test]
    fn any_interleaving_shows_the_same_fields_and_ends_empty() {
        let cells = grid_cells(&[1, 2, 8].map(pinned));
        let memo = memo_for(&cells);
        let reversed: Vec<_> = cells.iter().rev().cloned().collect();
        std::thread::scope(|scope| {
            scope.spawn(|| run_cells(&cells[..3], &memo));
            scope.spawn(|| run_cells(&reversed[..3], &memo));
        });
        assert_eq!(memo.expected(), 0);
    }

    /// Every field the memo holds is the bytes an independent solver run
    /// to that step serialises, with their checksum.
    #[test]
    fn every_held_field_is_an_independent_run_to_its_step() {
        let cells = grid_cells(&[1, 2, 8].map(pinned));
        let memo = memo_for(&cells);
        run_cells(&cells[..1], &memo);
        let held = memo.held();
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
        let memo = memo_for(&cells);
        assert_eq!(memo.fields.lock().expect("unpoisoned")[&2].len(), 4);
        let stencil = run_cells(&cells, &memo);
        assert_eq!(stencil, [50; 4]);
        assert_eq!(memo.expected(), 0);
    }

    /// A memo seeded with stand-in blocks for every step shows up in the
    /// frames of the post-processing cell that reads it, with no frame chain
    /// to serve them instead.
    #[test]
    fn seeded_fields_show_up_in_the_later_cells_frames() {
        let configs = [2, 8].map(pinned);
        let stand_in = Grid::from_fn(64, 64, |_, _| 0.25);
        let snapshot = Stored::of_grid(&stand_in);
        let expected: Framebuffer = render_field(&stand_in, &configs[0].render);
        let mut hits = 0;
        for cfg in &configs {
            let kind = PipelineKind::PostProcessing;
            let memo = GridMemo::expecting([(kind, cfg)]);
            let seeder = Reader::new(&memo, &configs[0]);
            for step in 1..=50 {
                seeder.offer(step, &snapshot, snapshot.checksum64());
            }
            let (_, out, stencil) = shared(kind, cfg, &memo);
            assert!(out.verified);
            assert_eq!(stencil, 0);
            hits += out.frames.iter().filter(|f| f.image == expected).count();
        }
        assert_eq!(hits, 25 + 6);
    }

    /// A `CaseComparison::run_config` pair has one post-processing cell, so
    /// no later cell could read a field it stored: after either cell, a memo
    /// with no field demand (the pair's) and one expecting the pair's reads
    /// both hold no field.
    #[test]
    fn a_pair_memo_holds_no_field_after_either_cell() {
        let cells = grid_cells(&[pinned(2)]);
        for memo in [GridMemo::default(), memo_for(&cells)] {
            for cell in &cells {
                run_cells(std::slice::from_ref(cell), &memo);
                assert!(memo.held().is_empty(), "{:?}", cell.0);
                assert_eq!(memo.expected(), 0, "{:?}", cell.0);
            }
        }
    }
}
