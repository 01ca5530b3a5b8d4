//! `journal_audit` — post-processing and in-situ on the small config
//! stretched to 1000 steps with tracing on, then journal assembly →
//! `summarize` → `audit_ok`.
//!
//! Why: raster and solver shrink 64×, so journal emit, journal parse, `Node`
//! charging and `FileSystem` bookkeeping dominate — the workload where a
//! JSON / trace / platform change shows and a raster change does not. Emit
//! (write) sits beside summarize (read), so a gain for one that costs the
//! other is caught.

use std::time::Instant;

use greenness_core::config::PipelineConfig;
use greenness_core::experiment::ExperimentSetup;
use greenness_core::sweep::{self, JobResult, SweepJob};
use greenness_power::WattsupMeter;
use greenness_trace::hash::blake2s256;
use greenness_trace::summarize::{summarize, Summary};
use greenness_trace::Histogram;

use super::replay::{self, LayerCounts};
use super::{digest_str, keep_going, Checks, Ctx, Iter, Untraced, Workload};
use crate::report::Values;
use crate::spans::Recorder;
use crate::stats::median;

const TIMESTEPS: u64 = 1000;

#[derive(Default)]
pub struct JournalAudit {
    jobs: Vec<SweepJob>,
}

fn grid(seed: u64, timesteps: u64, trace: bool) -> Vec<SweepJob> {
    let setup = ExperimentSetup {
        meter: WattsupMeter {
            seed,
            ..WattsupMeter::default()
        },
        trace,
        ..ExperimentSetup::default()
    };
    let mut cfg = PipelineConfig::small(1);
    cfg.timesteps = timesteps;
    sweep::config_grid(&setup, &[(1, cfg)])
}

fn run(jobs: Vec<SweepJob>) -> Vec<JobResult> {
    sweep::run_sweep(jobs, 1, &sweep::silent_progress()).expect("the small pipelines run")
}

fn audit(results: &[JobResult]) -> (String, Summary) {
    let journal = sweep::sweep_journal(results).expect("tracing was on");
    let summary = summarize(&journal).expect("the journal parses");
    (journal, summary)
}

impl Workload for JournalAudit {
    fn setup(&mut self, ctx: &Ctx) {
        let steps = if ctx.smoke { TIMESTEPS / 10 } else { TIMESTEPS };
        self.jobs = grid(ctx.seed, steps, true);
        // Warm-up: the same two cells at a tenth of the steps.
        std::hint::black_box(audit(&run(grid(ctx.seed, steps / 10, true))));
    }

    fn iterate(&mut self, checks: &mut Checks) -> Iter {
        let jobs = self.jobs.clone();
        let cells = jobs.len() as u64;
        let t = Instant::now();
        let results = run(jobs);
        let (journal, summary) = audit(&results);
        let ok = summary.audit_ok();
        let wall_s = t.elapsed().as_secs_f64();
        checks.check(ok, || {
            format!("journal audit failed: {:?}", summary.audit_errors.first())
        });
        replay::check_results(&results, checks);
        Iter {
            wall_s,
            items: cells,
            items_s: wall_s,
            digest: digest_str(&journal),
            note: format!(
                "virtual: {} events, {} journal bytes, {:.3} J reconstructed",
                summary.events,
                journal.len(),
                summary.total_energy_j
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
        let started = Instant::now();
        let mut counts = LayerCounts::default();
        let mut iterations = 0usize;
        let mut journal = String::new();
        let mut events = 0usize;
        while keep_going(started, iterations, 2, ctx.seconds / 3.0) {
            let it = rec.enter("iteration");
            let replayed = replay::replay_jobs(rec, &mut counts, &self.jobs);
            journal = rec.leaf("core.manifest", || {
                sweep::sweep_journal(&replayed).expect("tracing was on")
            });
            let summary = rec.leaf("trace.summarize", || {
                summarize(&journal).expect("the journal parses")
            });
            rec.exit(it);
            iterations += 1;
            events = summary.events;
            checks.check(summary.audit_ok(), || {
                "the replayed journal fails its audit".to_string()
            });
            checks.check(digest_str(&journal) == baseline.digest, || {
                "the layered replay's journal differs from the real run's".to_string()
            });
        }
        replay::fill_pipeline_layers(rec, &counts, iterations, baseline.wall_s, out);
        out.set("platform.execute_ns", replay::node_execute_ns());

        // Emit cost: the real run with tracing on against the identical
        // config with tracing off.
        let untraced_jobs: Vec<SweepJob> = self
            .jobs
            .iter()
            .cloned()
            .map(|mut job| {
                job.setup.trace = false;
                job
            })
            .collect();
        let time = |jobs: &Vec<SweepJob>| {
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    let jobs = jobs.clone();
                    let t = Instant::now();
                    std::hint::black_box(run(jobs));
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        };
        let emit_s = time(&self.jobs) - time(&untraced_jobs);
        let mb = journal.len() as f64 / 1e6;
        let summarize_s = replay::per_iter(rec, "trace.summarize", iterations);
        out.set("trace.emit_s", emit_s);
        out.set("trace.emit_mb_per_s", mb / emit_s.max(1e-9));
        out.set("trace.events", events as f64);
        out.set("trace.journal_bytes", journal.len() as f64);
        out.set("trace.summarize_s", summarize_s);
        out.set("trace.parse_mb_per_s", mb / summarize_s.max(1e-9));

        let results = run(self.jobs.clone());
        let t = Instant::now();
        std::hint::black_box(sweep::sweep_metrics_json(&results));
        out.set("trace.metrics_json_s", t.elapsed().as_secs_f64());

        out.set("trace.histogram_observe_ns", histogram_observe_ns());
        let t = Instant::now();
        std::hint::black_box(blake2s256(journal.as_bytes()));
        out.set("trace.blake2s_mb_per_s", mb / t.elapsed().as_secs_f64());
    }
}

/// `Histogram::observe` in an isolated loop over a log-spread of values,
/// nanoseconds per call.
pub fn histogram_observe_ns() -> f64 {
    const CALLS: u32 = 1_000_000;
    let mut h = Histogram::default();
    let t = Instant::now();
    for i in 0..CALLS {
        h.observe(1e-6 * f64::from(1 + i % 4096));
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(CALLS);
    std::hint::black_box(h.count());
    ns
}
