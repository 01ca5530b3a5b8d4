//! `paper_grid` — the paper's six cells: three case studies × post-processing
//! and in-situ at 512², 50 steps, tracing off, then the manifest.
//!
//! Why: the headline science path. Raster does about half the work, then
//! snapshot checksumming/serialising, storage, and the solver.

use std::time::Instant;

use greenness_core::experiment::ExperimentSetup;
use greenness_core::pipeline::PipelineKind;
use greenness_core::sweep::{self, JobResult, SweepJob};
use greenness_power::WattsupMeter;

use super::replay::{self, LayerCounts};
use super::{digest_str, keep_going, set_energy_match, Checks, Ctx, Iter, Untraced, Workload};
use crate::report::Values;
use crate::spans::Recorder;

#[derive(Default)]
pub struct PaperGrid {
    jobs: Vec<SweepJob>,
}

/// The six cells, their meter noise seeded from `seed`. `shrink` divides the
/// step count (the warm-up and `--smoke` run shortened cells).
fn grid(seed: u64, shrink: u64) -> Vec<SweepJob> {
    let setup = ExperimentSetup {
        meter: WattsupMeter {
            seed,
            ..WattsupMeter::default()
        },
        ..ExperimentSetup::default()
    };
    let mut jobs = sweep::case_grid(&setup, &[1, 2, 3]);
    for job in &mut jobs {
        job.cfg.timesteps = (job.cfg.timesteps / shrink).max(job.cfg.io_interval);
    }
    jobs
}

fn sweep_and_manifest(jobs: Vec<SweepJob>, workers: usize) -> (Vec<JobResult>, String) {
    let results = sweep::run_sweep(jobs, workers, &sweep::silent_progress())
        .expect("the paper grid runs to completion");
    let manifest = sweep::manifest_json(&results);
    (results, manifest)
}

/// *Virtual* energy savings of in-situ per case study, percent.
fn savings(results: &[JobResult]) -> Vec<(u32, f64)> {
    sweep::comparisons(results)
        .iter()
        .map(|c| (c.case, c.energy_savings_pct()))
        .collect()
}

impl Workload for PaperGrid {
    fn setup(&mut self, ctx: &Ctx) {
        let shrink = if ctx.smoke { 10 } else { 1 };
        self.jobs = grid(ctx.seed, shrink);
        // Warm-up: the same six cells at a tenth of the steps.
        std::hint::black_box(sweep_and_manifest(grid(ctx.seed, shrink * 10), 1));
    }

    fn iterate(&mut self, checks: &mut Checks) -> Iter {
        let jobs = self.jobs.clone();
        let cells = jobs.len() as u64;
        let t = Instant::now();
        let (results, manifest) = sweep_and_manifest(jobs, 1);
        let wall_s = t.elapsed().as_secs_f64();
        replay::check_results(&results, checks);
        let note = "virtual: ".to_string()
            + &savings(&results)
                .iter()
                .map(|(case, pct)| format!("case {case} saves {pct:.1} %"))
                .collect::<Vec<_>>()
                .join(", ")
            + " (paper: 43 / 30 / 18 %)";
        Iter {
            wall_s,
            items: cells,
            items_s: wall_s,
            digest: digest_str(&manifest),
            note,
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
        // Layered replay of the same six cells.
        let started = Instant::now();
        let mut counts = LayerCounts::default();
        let mut iterations = 0usize;
        let mut replayed = Vec::new();
        while keep_going(started, iterations, 2, ctx.seconds / 3.0) {
            let it = rec.enter("iteration");
            replayed = replay::replay_jobs(rec, &mut counts, &self.jobs);
            let manifest = rec.leaf("core.manifest", || sweep::manifest_json(&replayed));
            rec.exit(it);
            iterations += 1;
            checks.check(digest_str(&manifest) == baseline.digest, || {
                "the layered replay's manifest differs from the real run's".to_string()
            });
        }
        replay::fill_pipeline_layers(rec, &counts, iterations, baseline.wall_s, out);
        out.set("platform.execute_ns", replay::node_execute_ns());

        // The real run once more: cell-by-cell energy against the replay,
        // and — on two workers — the pool's speed-up over the untraced
        // jobs=1 pass.
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let t = Instant::now();
        let (real, _) = sweep_and_manifest(self.jobs.clone(), workers);
        let parallel_s = t.elapsed().as_secs_f64();
        let speedup = baseline.wall_s / parallel_s;
        out.set("pool.speedup_jobs2", speedup);
        out.set("pool.efficiency_jobs2", speedup / workers as f64);
        let matching = real
            .iter()
            .zip(&replayed)
            .filter(|(a, b)| {
                a.report.metrics.energy_j.to_bits() == b.report.metrics.energy_j.to_bits()
                    && a.report.timeline.total_energy_j().to_bits()
                        == b.report.timeline.total_energy_j().to_bits()
            })
            .count();
        set_energy_match(matching, real.len(), checks, out);
        for (case, pct) in savings(&real) {
            out.set(&format!("core.savings_pct_case{case}"), pct);
        }
        let posts = real
            .iter()
            .filter(|r| r.kind == PipelineKind::PostProcessing)
            .count();
        println!(
            "paper_grid: {iterations} replayed iteration(s) of {} cells ({posts} post-processing), pool on {workers} worker(s) {parallel_s:.3} s",
            real.len()
        );
    }
}
