//! `tiered_placement` — the placement grid: five workloads × three policies
//! on the DRAM → NVMe → HDD tier stack.
//!
//! Why: `storage::tier` / `placement` under sequential writes (case 1–3),
//! streaming reads (`seqscan`) and 8 KiB random reads (`random`) in one run —
//! same layer, three uses — with no solver or renderer at all.
//!
//! The grid runs at `PlacementScale::Small`: the paper scale takes 6 s per
//! iteration here, which the run-time cap does not leave room for.

use std::time::Instant;

use greenness_core::placement::{
    placement_grid, placement_manifest_json, run_placement, PlacementJob, PlacementResult,
    PlacementScale, PlacementSetup, PlacementWorkload, PolicyKind,
};
use greenness_core::sweep::silent_progress;

use super::{
    digest_str, keep_going, replay, set_energy_match, Checks, Ctx, Iter, Stamps, Untraced, Workload,
};
use crate::report::Values;
use crate::spans::Recorder;

const SCALE: PlacementScale = PlacementScale::Small;

#[derive(Default)]
pub struct TieredPlacement {
    jobs: Vec<PlacementJob>,
}

fn setup() -> PlacementSetup {
    PlacementSetup {
        scale: SCALE,
        ..PlacementSetup::default()
    }
}

fn sweep(jobs: Vec<PlacementJob>) -> (Vec<PlacementResult>, String) {
    let results = run_placement(jobs, &setup(), 1, &silent_progress())
        .expect("the placement grid runs to completion");
    let manifest = placement_manifest_json(SCALE, &results);
    (results, manifest)
}

fn check(results: &[PlacementResult], checks: &mut Checks) {
    for r in results {
        checks.check(r.verified, || {
            format!("{}: bytes read back differ from bytes written", r.key)
        });
    }
}

impl Workload for TieredPlacement {
    fn setup(&mut self, ctx: &Ctx) {
        // `--smoke` keeps the case-study-3 cells (1 snapshot each, not ~30).
        self.jobs = placement_grid()
            .into_iter()
            .filter(|j| !ctx.smoke || j.workload == PlacementWorkload::Case3)
            .collect();
        // Warm-up: one full iteration (it is a quarter of a second).
        std::hint::black_box(sweep(self.jobs.clone()));
    }

    fn iterate(&mut self, checks: &mut Checks) -> Iter {
        let jobs = self.jobs.clone();
        let t = Instant::now();
        let (results, manifest) = sweep(jobs);
        let wall_s = t.elapsed().as_secs_f64();
        check(&results, checks);
        let energy: f64 = results.iter().map(|r| r.energy_j).sum();
        let moves: u64 = results.iter().map(|r| r.promotes + r.demotes).sum();
        Iter {
            wall_s,
            items: results.len() as u64,
            items_s: wall_s,
            digest: digest_str(&manifest),
            note: format!(
                "virtual: {} cells, {energy:.3} J, {moves} migrations",
                results.len()
            ),
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
        let (real, _) = sweep(self.jobs.clone());
        // The same sweep, its cells timed from outside through the sweep's
        // progress callback: one span per cell, named by the policy under
        // test.
        let names: Vec<&'static str> = self
            .jobs
            .iter()
            .map(|job| match job.policy {
                PolicyKind::Noop => "storage.tier_cell.noop",
                PolicyKind::FreqRecency => "storage.tier_cell.freq_recency",
                PolicyKind::EnergyGreedy => "storage.tier_cell.energy_greedy",
            })
            .collect();
        let started = Instant::now();
        let mut iterations = 0usize;
        let mut matching = 0usize;
        while keep_going(started, iterations, 2, ctx.seconds / 3.0) {
            let it = rec.enter("iteration");
            let stamps = Stamps::default();
            let sweep_started = Instant::now();
            let results = run_placement(self.jobs.clone(), &setup(), 1, &stamps.callback())
                .expect("the placement grid runs to completion");
            stamps.record(rec, sweep_started, &names);
            rec.leaf("core.manifest", || placement_manifest_json(SCALE, &results));
            rec.exit(it);
            if iterations == 0 {
                check(&results, checks);
                matching = results
                    .iter()
                    .zip(&real)
                    .filter(|(a, b)| a.energy_j.to_bits() == b.energy_j.to_bits())
                    .count();
            }
            iterations += 1;
        }
        set_energy_match(matching, real.len(), checks, out);
        let n = iterations as f64;
        for policy in ["noop", "freq_recency", "energy_greedy"] {
            let s = rec.self_s(&format!("storage.tier_cell.{policy}")) / n;
            out.set(&format!("storage.tier_cell_s.{policy}"), s);
        }
        out.set("core.manifest_s", rec.self_s("core.manifest") / n);
        replay::set_unattributed(rec, baseline.wall_s, out);
        let virtual_s: f64 = real.iter().map(|r| r.time_s).sum();
        out.set("core.sim_s_per_wall_s", virtual_s / baseline.wall_s);
        let touches: u64 = real
            .iter()
            .flat_map(|r| r.tiers.iter().map(|t| t.hits))
            .sum();
        out.set("storage.tier_ops_per_s", touches as f64 / baseline.wall_s);
        out.set(
            "storage.tier_promotes",
            real.iter().map(|r| r.promotes).sum::<u64>() as f64,
        );
        out.set(
            "storage.tier_demotes",
            real.iter().map(|r| r.demotes).sum::<u64>() as f64,
        );
        out.set(
            "storage.write_bytes",
            real.iter().map(|r| r.bytes_written).sum::<u64>() as f64,
        );
        out.set(
            "storage.read_bytes",
            real.iter().map(|r| r.bytes_read).sum::<u64>() as f64,
        );
    }
}
