//! The case-study grid: the paper's 3 case studies × pipeline kinds ×
//! hardware/interval variants (Figures 4–11, Tables II–III), submitted
//! through the crate's one grid runner (the private `grid` module, which
//! states the contract every grid here shares).
//!
//! The paper's results are a grid of *independent* runs, so reproduction
//! wall-clock should be bounded by the slowest job, not the sum. What this
//! module adds to the runner:
//!
//! * a [`SweepJob`] is one pipeline run: `(case, PipelineKind,
//!   PipelineConfig, ExperimentSetup)`, keyed by all four;
//! * every job reseeds its meter noise and its fault schedule from its own
//!   *job key* and the sweep-level base seed, so a sweep is **bit-identical
//!   for any worker count, including 1** (pinned by
//!   `tests/parallel_determinism.rs`);
//! * [`comparisons`] pairs post-processing and in-situ cells back up;
//! * [`manifest_json`] renders the per-job results manifest the `repro`
//!   binary writes to `repro_out/manifest.json` and the golden tests
//!   consume;
//! * [`SweepError`] and [`Progress`] are the error and progress types all
//!   three grids report through.

use greenness_faults::{fnv1a64, splitmix64};
use greenness_trace::escape_json;

use crate::compare::CaseComparison;
use crate::config::PipelineConfig;
use crate::experiment::{run_sharing, ExperimentSetup, PipelineReport};
use crate::grid::{self, JobView};
use crate::memo::GridMemo;
use crate::pipeline::{PipelineError, PipelineKind};

/// One cell of the experiment grid.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Case-study number the job belongs to (1–3 for the paper grid;
    /// synthetic grids may use other values).
    pub case: u32,
    /// Which pipeline to run.
    pub kind: PipelineKind,
    /// The workload.
    pub cfg: PipelineConfig,
    /// The measurement rig. The meter seed in here acts as the sweep-level
    /// *base* seed; the job reseeds it via [`SweepJob::derived_seed`].
    pub setup: ExperimentSetup,
}

impl SweepJob {
    /// The job's stable identity: every field that distinguishes one grid
    /// cell from another, and nothing about *how* the grid is executed.
    pub fn key(&self) -> String {
        format!(
            "case{}/{}/{}",
            self.case,
            self.kind.label(),
            self.group_tail()
        )
    }

    /// The identity shared by both pipeline kinds of one grid cell —
    /// everything in the key except the pipeline kind. Comparison pairing
    /// matches on `(case, group)`.
    pub fn group(&self) -> String {
        format!("case{}/{}", self.case, self.group_tail())
    }

    fn group_tail(&self) -> String {
        format!("{}/{}", self.cfg.label, self.setup.spec.name)
    }

    /// Seed for this job's meter noise, derived from the job key and the
    /// sweep's base seed only. Worker identity and execution order never
    /// enter, which is what makes sweeps schedule-independent.
    pub fn derived_seed(&self) -> u64 {
        splitmix64(fnv1a64(self.key().as_bytes()) ^ self.setup.meter.seed)
    }

    /// Run the job (on whatever thread the executor picked) through the
    /// grid's `memo`.
    fn execute(&self, memo: &GridMemo) -> Result<PipelineReport, PipelineError> {
        let mut setup = self.setup.clone();
        setup.meter.seed = self.derived_seed();
        // Fault schedules reseed the same way meter noise does: from the job
        // key and the sweep-level base plan only, never from scheduling.
        setup.faults = setup.faults.map(|plan| plan.derive(&self.key()));
        run_sharing(self.kind, &self.cfg, &setup, Some(memo))
    }
}

/// One finished grid cell, in submission order.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index of the job in the submitted batch (the manifest's primary key).
    pub id: usize,
    /// The job's stable identity string.
    pub key: String,
    /// The key minus the pipeline kind (shared by a post/in-situ pair).
    pub group: String,
    /// The meter seed the job actually ran with.
    pub seed: u64,
    /// Case-study number (copied from the job).
    pub case: u32,
    /// Pipeline kind (copied from the job).
    pub kind: PipelineKind,
    /// Everything the instrumented run produced.
    pub report: PipelineReport,
}

impl JobResult {
    fn view(&self) -> JobView<'_> {
        JobView {
            id: self.id,
            key: &self.key,
            seed: Some(self.seed),
            end_ns: self.report.timeline.end().as_nanos(),
            journal: self.report.journal.as_deref(),
            metrics: self.report.trace_metrics.as_ref(),
        }
    }
}

/// Progress notification passed to the `on_done` callback of [`run_sweep`]:
/// `(jobs finished so far, total jobs, key of the job that just finished)`.
pub type Progress<'a> = &'a (dyn Fn(usize, usize, &str) + Sync);

/// No-op progress callback for callers that don't report.
pub fn silent_progress() -> impl Fn(usize, usize, &str) + Sync {
    |_, _, _| {}
}

/// Why a sweep batch could not produce a complete result set.
///
/// The executor never panics on caller input: a job that panics is caught on
/// its worker thread and reported as a value, so one bad batch fails only its
/// own caller — a long-lived server keeps serving, and the pool state (which
/// is all per-call) cannot be poison-cascaded into later sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// Two submitted jobs share a key; they would silently collapse into one
    /// manifest entry.
    DuplicateKey {
        /// The colliding key.
        key: String,
    },
    /// A job panicked while executing; the rest of the batch still ran.
    JobPanicked {
        /// Job id (submission index).
        id: usize,
        /// The job's key.
        key: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A job's pipeline run reported an error (bad solver config, device too
    /// small…); the rest of the batch still ran.
    JobFailed {
        /// Job id (submission index).
        id: usize,
        /// The job's key.
        key: String,
        /// The pipeline error, rendered.
        message: String,
    },
    /// A job neither returned nor reported a panic (a worker died without
    /// delivering — should be unreachable).
    JobLost {
        /// Job id (submission index).
        id: usize,
        /// The job's key.
        key: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::DuplicateKey { key } => {
                write!(f, "sweep jobs must have unique keys; '{key}' repeats")
            }
            SweepError::JobPanicked { id, key, message } => {
                write!(f, "sweep job {id} ({key}) panicked: {message}")
            }
            SweepError::JobFailed { id, key, message } => {
                write!(f, "sweep job {id} ({key}) failed: {message}")
            }
            SweepError::JobLost { id, key } => {
                write!(f, "sweep job {id} ({key}) finished without a result")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Execute `jobs` on `workers` threads and return results ordered by job id.
///
/// `workers` is clamped to `1..=jobs.len()`; `workers == 1` degenerates to a
/// serial run on one spawned thread. `on_done` fires on the *calling* thread
/// as results arrive (arrival order is scheduling-dependent; the returned
/// `Vec` is not).
///
/// # Errors
/// [`SweepError::DuplicateKey`] when two jobs share a key;
/// [`SweepError::JobFailed`] when a job's pipeline run reported an error;
/// [`SweepError::JobPanicked`] when a job panicked (the panic is caught on
/// the worker — the remaining jobs still run, and the lowest-id failure is
/// reported for determinism).
pub fn run_sweep(
    jobs: Vec<SweepJob>,
    workers: usize,
    on_done: Progress<'_>,
) -> Result<Vec<JobResult>, SweepError> {
    let keys: Vec<String> = jobs.iter().map(SweepJob::key).collect();
    let memo = GridMemo::expecting(jobs.iter().map(|job| (job.kind, &job.cfg)));
    grid::run_grid(&keys, workers, on_done, &|id| {
        let job = &jobs[id];
        let report = job.execute(&memo).map_err(|e| e.to_string())?;
        Ok(JobResult {
            id,
            key: keys[id].clone(),
            group: job.group(),
            seed: job.derived_seed(),
            case: job.case,
            kind: job.kind,
            report,
        })
    })
}

/// The standard figure grid: both measured pipelines over each requested
/// case study, in deterministic submission order (case-major, then
/// post-processing before in-situ — the column order of Figures 7–11).
pub fn case_grid(setup: &ExperimentSetup, cases: &[u32]) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(cases.len() * 2);
    for &n in cases {
        for kind in [PipelineKind::PostProcessing, PipelineKind::InSitu] {
            jobs.push(SweepJob {
                case: n,
                kind,
                cfg: PipelineConfig::case_study(n),
                setup: setup.clone(),
            });
        }
    }
    jobs
}

/// Same grid over an explicit `(case, cfg)` list — tests use scaled-down
/// configs, the extension studies use per-spec setups.
pub fn config_grid(setup: &ExperimentSetup, configs: &[(u32, PipelineConfig)]) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(configs.len() * 2);
    for (n, cfg) in configs {
        for kind in [PipelineKind::PostProcessing, PipelineKind::InSitu] {
            jobs.push(SweepJob {
                case: *n,
                kind,
                cfg: cfg.clone(),
                setup: setup.clone(),
            });
        }
    }
    jobs
}

/// Pair post-processing and in-situ results back into [`CaseComparison`]s,
/// in job-id order of the post-processing half. Jobs that lack a partner of
/// the other kind (e.g. in-transit runs) are skipped.
pub fn comparisons(results: &[JobResult]) -> Vec<CaseComparison> {
    let mut out = Vec::new();
    for r in results {
        if r.kind != PipelineKind::PostProcessing {
            continue;
        }
        let partner = results
            .iter()
            .find(|p| p.kind == PipelineKind::InSitu && p.group == r.group);
        if let Some(insitu) = partner {
            out.push(CaseComparison {
                case: r.case,
                post: r.report.clone(),
                insitu: insitu.report.clone(),
            });
        }
    }
    out
}

/// Assemble the sweep-level event journal: the `greenness-trace/v1` schema
/// header, then each traced job's journal wrapped in a `job` span, in job-id
/// order. Per-job journals use job-local virtual time (every job starts at
/// t = 0); the `job` begin event marks the clock reset for consumers.
///
/// Like [`manifest_json`], the output is a pure function of the results —
/// byte-identical across worker counts (`tests/parallel_determinism.rs`).
/// Returns `None` when no job was traced.
pub fn sweep_journal(results: &[JobResult]) -> Option<String> {
    grid::journal(results.iter().map(JobResult::view))
}

/// Render the sweep-level metrics file (`greenness-metrics/v1`): one labeled
/// registry per traced job, in job-id order, labeled by job key. Returns
/// `None` when no job was traced.
pub fn sweep_metrics_json(results: &[JobResult]) -> Option<String> {
    grid::metrics_json(results.iter().map(JobResult::view))
}

/// Render the structured per-job manifest (`repro_out/manifest.json`).
///
/// The output is a pure function of the job results: ids, keys, derived
/// seeds, metrics, per-phase accounting, and data-side outputs — nothing
/// about wall-clock, worker count, or host. Byte-identical manifests across
/// `--jobs` values are an acceptance gate (`tests/parallel_determinism.rs`).
pub fn manifest_json(results: &[JobResult]) -> String {
    let mut s = String::with_capacity(1024 + 1024 * results.len());
    s.push_str("{\n  \"schema\": \"greenness-sweep-manifest/v1\",\n  \"jobs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let m = &r.report.metrics;
        let o = &r.report.output;
        s.push_str("    {\n");
        s.push_str(&format!("      \"id\": {},\n", r.id));
        s.push_str(&format!("      \"key\": \"{}\",\n", escape_json(&r.key)));
        s.push_str(&format!("      \"case\": {},\n", r.case));
        s.push_str(&format!(
            "      \"pipeline\": \"{}\",\n",
            escape_json(r.kind.label())
        ));
        s.push_str(&format!(
            "      \"config\": \"{}\",\n",
            escape_json(&r.report.config_label)
        ));
        s.push_str(&format!("      \"seed\": {},\n", r.seed));
        s.push_str(&format!(
            "      \"execution_time_s\": {:?},\n",
            m.execution_time_s
        ));
        s.push_str(&format!(
            "      \"average_power_w\": {:?},\n",
            m.average_power_w
        ));
        s.push_str(&format!("      \"peak_power_w\": {:?},\n", m.peak_power_w));
        s.push_str(&format!("      \"energy_j\": {:?},\n", m.energy_j));
        s.push_str(&format!("      \"work_units\": {:?},\n", m.work_units));
        s.push_str("      \"phases\": [");
        for (j, row) in r.report.phase_rows().iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"phase\": \"{:?}\", \"time_s\": {:?}, \"time_pct\": {:?}, \
                 \"energy_j\": {:?}, \"avg_power_w\": {:?}}}",
                row.phase,
                row.duration.as_secs_f64(),
                row.time_pct,
                row.energy_j,
                row.avg_power_w
            ));
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "      \"output\": {{\"io_steps\": {}, \"bytes_written\": {}, \
             \"bytes_read\": {}, \"frames\": {}, \"verified\": {}}},\n",
            o.io_steps,
            o.bytes_written,
            o.bytes_read,
            o.frames.len(),
            o.verified
        ));
        s.push_str(&format!(
            "      \"profile\": {{\"samples\": {}, \"avg_system_w\": {:?}}}\n",
            r.report.profile.len(),
            r.report.profile.average_system_w()
        ));
        s.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    fn small_grid() -> Vec<SweepJob> {
        let setup = ExperimentSetup::noiseless();
        config_grid(
            &setup,
            &[
                (1, PipelineConfig::small(1)),
                (2, PipelineConfig::small(2)),
                (3, PipelineConfig::small(8)),
            ],
        )
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs = small_grid();
        let expected: Vec<String> = jobs.iter().map(SweepJob::key).collect();
        let results = run_sweep(jobs, 4, &silent_progress()).expect("sweep ok");
        let got: Vec<String> = results.iter().map(|r| r.key.clone()).collect();
        assert_eq!(got, expected);
        assert!(results.iter().enumerate().all(|(i, r)| r.id == i));
    }

    #[test]
    fn seeds_depend_on_key_not_schedule() {
        let jobs = small_grid();
        let direct: Vec<u64> = jobs.iter().map(SweepJob::derived_seed).collect();
        let serial = run_sweep(jobs.clone(), 1, &silent_progress()).expect("sweep ok");
        let wide = run_sweep(jobs, 3, &silent_progress()).expect("sweep ok");
        assert_eq!(serial.iter().map(|r| r.seed).collect::<Vec<_>>(), direct);
        assert_eq!(wide.iter().map(|r| r.seed).collect::<Vec<_>>(), direct);
        // Distinct keys get distinct seeds.
        let mut sorted = direct.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), direct.len());
    }

    #[test]
    fn progress_reports_every_job_exactly_once() {
        let seen = Mutex::new(Vec::new());
        let jobs = small_grid();
        let total = jobs.len();
        run_sweep(jobs, 2, &|done, of, key| {
            seen.lock().unwrap().push((done, of, key.to_string()));
        })
        .expect("sweep ok");
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), total);
        assert!(seen.iter().all(|(_, of, _)| *of == total));
        assert_eq!(seen.last().unwrap().0, total);
    }

    #[test]
    fn comparisons_pair_pipelines_per_case() {
        let results = run_sweep(small_grid(), 2, &silent_progress()).expect("sweep ok");
        let cmps = comparisons(&results);
        assert_eq!(
            cmps.iter().map(|c| c.case).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for c in &cmps {
            assert!(c.post.metrics.energy_j > c.insitu.metrics.energy_j);
        }
    }

    #[test]
    fn manifest_is_schedule_invariant() {
        let a = manifest_json(&run_sweep(small_grid(), 1, &silent_progress()).expect("sweep ok"));
        let b = manifest_json(&run_sweep(small_grid(), 3, &silent_progress()).expect("sweep ok"));
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"greenness-sweep-manifest/v1\""));
    }

    #[test]
    fn traced_sweeps_are_schedule_invariant_and_untraced_emit_nothing() {
        let plain = run_sweep(small_grid(), 2, &silent_progress()).expect("sweep ok");
        assert!(sweep_journal(&plain).is_none());
        assert!(sweep_metrics_json(&plain).is_none());

        let traced_grid = || {
            let setup = ExperimentSetup {
                trace: true,
                ..ExperimentSetup::noiseless()
            };
            config_grid(&setup, &[(1, PipelineConfig::small(2))])
        };
        let serial = run_sweep(traced_grid(), 1, &silent_progress()).expect("sweep ok");
        let wide = run_sweep(traced_grid(), 2, &silent_progress()).expect("sweep ok");
        let (ja, jb) = (
            sweep_journal(&serial).unwrap(),
            sweep_journal(&wide).unwrap(),
        );
        assert_eq!(ja, jb, "journal must not depend on worker count");
        assert!(ja.starts_with("{\"schema\":\"greenness-trace/v1\"}\n"));
        assert_eq!(
            sweep_metrics_json(&serial).unwrap(),
            sweep_metrics_json(&wide).unwrap()
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let setup = ExperimentSetup::noiseless();
        let job = SweepJob {
            case: 1,
            kind: PipelineKind::InSitu,
            cfg: PipelineConfig::small(1),
            setup,
        };
        let err = run_sweep(vec![job.clone(), job], 2, &silent_progress())
            .expect_err("duplicates must be rejected");
        assert!(matches!(err, SweepError::DuplicateKey { .. }));
        assert!(err.to_string().contains("unique keys"));
    }

    /// A job whose run fails deterministically: the device is far too small
    /// for the post-processing pipeline's snapshot writes. Since the serve
    /// panic sweep this surfaces as a `PipelineError`, not a panic.
    fn poisoned_job() -> SweepJob {
        let mut cfg = PipelineConfig::small(1);
        cfg.label = "poisoned".into();
        cfg.device_bytes = 16 * 1024;
        SweepJob {
            case: 9,
            kind: PipelineKind::PostProcessing,
            cfg,
            setup: ExperimentSetup::noiseless(),
        }
    }

    #[test]
    fn a_failing_job_fails_its_batch_as_a_value_not_a_panic() {
        let mut jobs = small_grid();
        jobs.insert(1, poisoned_job());
        let err = run_sweep(jobs, 3, &silent_progress()).expect_err("bad job must surface");
        match &err {
            SweepError::JobFailed { id, key, .. } => {
                assert_eq!(*id, 1);
                assert!(key.contains("poisoned"), "key {key}");
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
        assert!(err.to_string().contains("failed"));
    }

    #[test]
    fn a_failing_batch_does_not_poison_later_sweeps() {
        // The server-relevant guarantee: after a request's batch fails, the
        // next request's batch runs normally — no cascaded poisoning.
        let bad = run_sweep(vec![poisoned_job()], 1, &silent_progress());
        assert!(bad.is_err());
        let good = run_sweep(small_grid(), 2, &silent_progress()).expect("healthy batch runs");
        assert_eq!(good.len(), 6);
    }

    #[test]
    fn panic_and_lost_errors_render_their_ids() {
        // The panic-catch path in `run_pool` is exercised by the pool crate;
        // here we pin the rendered shapes the serve layer forwards.
        let p = SweepError::JobPanicked {
            id: 3,
            key: "k".into(),
            message: "boom".into(),
        };
        assert!(p.to_string().contains("panicked: boom"));
        let l = SweepError::JobLost {
            id: 4,
            key: "k".into(),
        };
        assert!(l.to_string().contains("without a result"));
    }
}
