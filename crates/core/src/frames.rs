//! The frame memo a grid run shares, so each distinct frame is rasterised
//! once: per trajectory a chain of byte diffs, per reader a cursor (DESIGN §2).

use std::sync::Mutex;

use greenness_heatsim::SolverConfig;
use greenness_viz::{Framebuffer, RenderOptions};

use crate::config::PipelineConfig;

/// A chain closes when its runs would pass this many frames' worth of bytes.
const CAP_FRAMES: usize = 4;

/// What one run costs beyond its bytes.
const RUN_HEADER: usize = std::mem::size_of::<(usize, usize)>();

/// `(grid_nx, grid_ny, solver, render options)`: all a frame depends on but
/// its step, since every run starts from `Grid::warm_patch`.
type Trajectory = (usize, usize, SolverConfig, RenderOptions);

/// One trajectory's frames, step by step, as byte runs from an all-zero frame.
#[derive(Default)]
pub(crate) struct Chain {
    trajectory: Trajectory,
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

/// The frames one grid run has rendered, shared by its jobs.
pub(crate) type FrameMemo = Mutex<Vec<Chain>>;

/// One reader of a [`FrameMemo`], at the frame of the last step it read.
pub(crate) struct Cursor<'m> {
    memo: &'m FrameMemo,
    trajectory: Trajectory,
    /// The position of `frame` in its chain's steps.
    at: Option<usize>,
    frame: Vec<u8>,
}

impl<'m> Cursor<'m> {
    /// A reader of `memo` for the run `cfg` describes.
    pub(crate) fn new(memo: &'m FrameMemo, cfg: &PipelineConfig) -> Cursor<'m> {
        Cursor {
            memo,
            trajectory: (cfg.grid_nx, cfg.grid_ny, cfg.solver.clone(), cfg.render),
            at: None,
            frame: Vec::new(),
        }
    }

    /// The frame at `step`, if held. A poisoned lock is a miss.
    fn get(&mut self, step: u64) -> Option<Framebuffer> {
        let (width, height) = (self.trajectory.3.width, self.trajectory.3.height);
        let chains = self.memo.lock().ok()?;
        let chain = chains.iter().find(|c| c.trajectory == self.trajectory)?;
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
}

/// The frame at `step`: copied out of the cursor's memo when it holds one,
/// else made by `render` and offered to the memo. No cursor: `render`.
pub(crate) fn recall<E>(
    memo: Option<(&mut Cursor<'_>, u64)>,
    render: impl FnOnce() -> Result<Framebuffer, E>,
) -> Result<Framebuffer, E> {
    let Some((cursor, step)) = memo else {
        return render();
    };
    if let Some(frame) = cursor.get(step) {
        return Ok(frame);
    }
    let frame = render()?;
    let opts = &cursor.trajectory.3;
    let sized = (frame.width(), frame.height()) == (opts.width, opts.height);
    if let (true, Ok(mut chains)) = (sized, cursor.memo.lock()) {
        let known = chains
            .iter()
            .position(|c| c.trajectory == cursor.trajectory);
        let c = known.unwrap_or_else(|| {
            let (trajectory, last) = (cursor.trajectory.clone(), vec![0; frame.as_bytes().len()]);
            chains.push(Chain {
                trajectory,
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

    use greenness_faults::Rng;
    use greenness_platform::{HardwareSpec, Node};
    use greenness_viz::Colormap;
    use proptest::prelude::*;

    use super::*;
    use crate::fields::FieldMemo;
    use crate::pipeline::{run, run_with_faults, PipelineKind, PipelineOutput};

    const KINDS: [PipelineKind; 2] = [PipelineKind::PostProcessing, PipelineKind::InSitu];

    /// A 16×8 render of the small config, for synthetic frames.
    fn tiny() -> PipelineConfig {
        let mut cfg = PipelineConfig::small(1);
        (cfg.render.width, cfg.render.height) = (16, 8);
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

    /// `step`'s frame through `cursor`, rendering `oracle`'s on a miss;
    /// returns it and whether it was rendered.
    fn read(
        cursor: &mut Cursor<'_>,
        oracle: &HashMap<u64, Framebuffer>,
        step: u64,
    ) -> (Framebuffer, bool) {
        let mut rendered = false;
        let frame = recall::<()>(Some((cursor, step)), || {
            rendered = true;
            Ok(oracle[&step].clone())
        })
        .expect("infallible");
        (frame, rendered)
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
            let memo = FrameMemo::default();
            let mut cursors = [Cursor::new(&memo, &cfg), Cursor::new(&memo, &cfg)];
            let mut at = [0u64; 2];
            for (second, jump) in ops {
                let r = usize::from(second);
                at[r] = if jump == 0 || at[r] + jump > STEPS { 1 + jump } else { at[r] + jump };
                let (frame, _) = read(&mut cursors[r], &oracle, at[r]);
                prop_assert_eq!(&frame, &oracle[&at[r]]);
            }
        }
    }

    #[test]
    fn a_chain_serves_every_step_it_holds_and_closes_at_the_cap() {
        let cfg = tiny();
        let frame_len = 16 * 8 * 3;
        let oracle = synthetic_frames(&cfg, 60, 7);
        let memo = FrameMemo::default();
        let mut writer = Cursor::new(&memo, &cfg);
        for step in 1..=60 {
            assert!(read(&mut writer, &oracle, step).1, "step {step} was new");
        }
        let held = {
            let chains = memo.lock().expect("unpoisoned");
            let chain = &chains[0];
            assert!(chain.last.is_empty(), "60 frames overflow the cap");
            assert!(chain.data.len() + RUN_HEADER * chain.runs.len() <= CAP_FRAMES * frame_len);
            steps_of(chain)
        };
        assert!(held.len() > 1 && held.len() < 60, "{held:?}");
        let mut reader = Cursor::new(&memo, &cfg);
        for step in (1..=60).rev().chain(1..=60) {
            let (frame, rendered) = read(&mut reader, &oracle, step);
            assert_eq!(frame, oracle[&step], "step {step}");
            assert_eq!(rendered, !held.contains(&step), "step {step}");
        }

        // An open chain takes only steps past its last one.
        let memo = FrameMemo::default();
        for step in [2, 1, 2, 4, 3] {
            read(&mut Cursor::new(&memo, &cfg), &oracle, step);
        }
        assert_eq!(steps_of(&memo.lock().expect("unpoisoned")[0]), [2, 4]);
    }

    #[test]
    fn trajectories_that_differ_in_render_options_or_one_source_never_share() {
        let base = PipelineConfig::small(1);
        let mut recoloured = base.clone();
        recoloured.render.colormap = Colormap::CoolWarm;
        let mut moved = base.clone();
        moved.solver.sources[0].rate *= 2.0;
        let memo = FrameMemo::default();
        let mut node = Node::new(HardwareSpec::table1());
        run_with_faults(
            PipelineKind::InSitu,
            &mut node,
            &base,
            None,
            Some((&memo, &FieldMemo::default())),
        )
        .expect("runs");
        for other in [&recoloured, &moved] {
            assert!(Cursor::new(&memo, other).get(1).is_none());
            let mut other = other.clone();
            other.keep_frames = true;
            let mut node = Node::new(HardwareSpec::table1());
            let shared = run_with_faults(
                PipelineKind::InSitu,
                &mut node,
                &other,
                None,
                Some((&memo, &FieldMemo::default())),
            );
            let mut node = Node::new(HardwareSpec::table1());
            let alone = run(PipelineKind::InSitu, &mut node, &other).expect("runs");
            assert_eq!(frames(&shared.expect("runs")), frames(&alone));
        }
        assert_eq!(memo.lock().expect("unpoisoned").len(), 3);
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

    /// Run `cfg`'s cells of both kinds through `memo` and alone; the frames
    /// must agree. Returns the shared runs' frames.
    fn shared_and_alone(cfg: &PipelineConfig, memo: &FrameMemo) -> Vec<Vec<(u64, Framebuffer)>> {
        KINDS
            .map(|kind| {
                let mut node = Node::new(HardwareSpec::table1());
                let shared = run_with_faults(
                    kind,
                    &mut node,
                    cfg,
                    None,
                    Some((memo, &FieldMemo::default())),
                )
                .expect("runs");
                let mut node = Node::new(HardwareSpec::table1());
                let alone = run(kind, &mut node, cfg).expect("runs");
                assert_eq!(frames(&shared), frames(&alone), "{kind:?}");
                frames(&shared)
            })
            .to_vec()
    }

    #[test]
    fn an_auto_ranged_trajectory_stays_exact_and_its_chain_closes() {
        let mut cfg = PipelineConfig::small(1);
        (cfg.timesteps, cfg.keep_frames, cfg.render.range) = (40, true, None);
        let memo = FrameMemo::default();
        shared_and_alone(&cfg, &memo);
        let chains = memo.lock().expect("unpoisoned");
        assert!(chains[0].last.is_empty(), "the chain closed");
        assert!(chains[0].steps.len() < 40, "{:?}", steps_of(&chains[0]));
    }

    /// The oracle suite's three-interval grid: cells in sweep order share
    /// one memo and show what they show alone. The first cell leaves its
    /// early steps in the memo (at 64² a chain reaches the cap within a
    /// couple of dozen steps), so the later cells copy those frames; and a
    /// memo seeded with stand-in frames for every step shows up in all 162.
    #[test]
    fn the_pinned_grid_reads_its_repeated_frames_from_the_memo() {
        let configs = [1, 2, 8].map(|io_interval| {
            let mut cfg = PipelineConfig::small(io_interval);
            (cfg.timesteps, cfg.keep_frames) = (50, true);
            cfg
        });
        let memo = FrameMemo::default();
        let first = shared_and_alone(&configs[0], &memo);
        shared_and_alone(&configs[1], &memo);
        shared_and_alone(&configs[2], &memo);
        let held = steps_of(&memo.lock().expect("unpoisoned")[0]);
        assert!(held.len() >= 10, "{held:?}");
        let mut reader = Cursor::new(&memo, &configs[0]);
        for (step, frame) in first[0].iter().filter(|(step, _)| held.contains(step)) {
            assert_eq!(reader.get(*step).as_ref(), Some(frame), "step {step}");
        }

        let seeded = FrameMemo::default();
        let stand_in = Framebuffer::new(64, 64);
        let mut seeder = Cursor::new(&seeded, &configs[0]);
        for step in 1..=50 {
            recall::<()>(Some((&mut seeder, step)), || Ok(stand_in.clone())).expect("infallible");
        }
        let mut hits = 0;
        for cfg in &configs {
            for kind in KINDS {
                let mut node = Node::new(HardwareSpec::table1());
                let out = run_with_faults(
                    kind,
                    &mut node,
                    cfg,
                    None,
                    Some((&seeded, &FieldMemo::default())),
                )
                .expect("runs");
                hits += out.frames.iter().filter(|f| f.image == stand_in).count();
            }
        }
        assert_eq!(hits, 162);
    }
}
