//! The cluster grid: three case-study workloads × three distributed
//! pipelines, on the crate's one grid runner (the private `grid` module
//! states the contract — unique keys, submission-order results, key-derived
//! seeds, lowest-id failure).
//!
//! The paper's single-node verdict (in-situ wins because it shortens the
//! occupied window) gets its cluster-scale counterpart here: post-processing
//! vs in-situ vs overlapped in-transit staging, each over the paper's three
//! I/O cadences, with energy split per node class and the staging byte
//! channels reported separately. The `greenness cluster` subcommand renders
//! this sweep as the `greenness-cluster-manifest/v1` artifact.
//!
//! What this module adds: each job runs on its own virtual cluster, and the
//! only per-job randomness is the fault schedule derived from the sweep plan
//! and the job key (byte-identical artifacts for any `--jobs` value and
//! across reruns with one `--fault-seed` are pinned by
//! `tests/determinism.rs`). There is no per-job meter seed, so the journal's
//! `job` begin event carries none.

use greenness_cluster::{ClusterConfig, ClusterKind, FaultSummary, StagingConfig};
use greenness_faults::FaultPlan;
use greenness_platform::SimTime;
use greenness_trace::{escape_json, MetricsRegistry, Tracer, Value};

use crate::grid::{self, JobView};
use crate::pipeline::cluster::{run_cluster_traced, ClusterReport};
use crate::sweep::{Progress, SweepError};

/// The paper's case-study numbers, grid order.
const CASES: [u32; 3] = [1, 2, 3];

/// The three pipelines, grid order.
const KINDS: [ClusterKind; 3] = [
    ClusterKind::PostProcessing,
    ClusterKind::InSitu,
    ClusterKind::InTransit,
];

/// One cell of the cluster grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterJob {
    /// Case-study number (1–3).
    pub case: u32,
    /// Which pipeline.
    pub kind: ClusterKind,
}

impl ClusterJob {
    /// Stable job key — the only per-job seed source.
    pub fn key(&self) -> String {
        format!("case{}:{}", self.case, self.kind.label())
    }
}

/// The full grid (or a kind-filtered slice of it), submission order.
pub fn cluster_jobs(kind: Option<ClusterKind>) -> Vec<ClusterJob> {
    let mut jobs = Vec::new();
    for case in CASES {
        for k in KINDS {
            if kind.map_or(true, |only| only == k) {
                jobs.push(ClusterJob { case, kind: k });
            }
        }
    }
    jobs
}

/// Sweep-wide knobs shared by every job.
#[derive(Debug, Clone, Default)]
pub struct ClusterSetup {
    /// Staging topology applied to the in-transit cells.
    pub staging: StagingConfig,
    /// Sweep-level fault plan; each job derives its own schedule from its
    /// key, so schedules are independent of job order and worker count.
    pub faults: Option<FaultPlan>,
    /// Capture per-job journals and metrics.
    pub trace: bool,
}

/// One finished cell: the cluster report plus trace artifacts.
#[derive(Debug, Clone)]
pub struct ClusterJobResult {
    /// Submission-order id (also the manifest order).
    pub id: usize,
    /// The job key.
    pub key: String,
    /// Case-study number.
    pub case: u32,
    /// Pipeline label.
    pub kind: &'static str,
    /// The distributed run's report.
    pub report: ClusterReport,
    /// Degraded-mode accounting for the run.
    pub summary: FaultSummary,
    /// Virtual end instant, nanoseconds (for the job span's end event).
    pub end_ns: u64,
    /// The job's journal (when traced).
    pub journal: Option<String>,
    /// The job's metrics registry (when traced).
    pub trace_metrics: Option<MetricsRegistry>,
}

impl ClusterJobResult {
    fn view(&self) -> JobView<'_> {
        JobView {
            id: self.id,
            key: &self.key,
            seed: None,
            end_ns: self.end_ns,
            journal: self.journal.as_deref(),
            metrics: self.trace_metrics.as_ref(),
        }
    }
}

/// Execute cell `id` on a fresh virtual cluster.
fn execute(id: usize, job: ClusterJob, setup: &ClusterSetup) -> Result<ClusterJobResult, String> {
    let key = job.key();
    let mut cfg = ClusterConfig::case_study(job.case);
    cfg.staging = setup.staging;
    let plan = setup.faults.map(|p| p.derive(&key));
    let tracer = if setup.trace {
        grid::begin_run(vec![
            ("case", Value::from(job.case)),
            ("kind", Value::label(job.kind.label())),
        ])
    } else {
        Tracer::off()
    };
    let (report, summary) =
        run_cluster_traced(job.kind, &cfg, plan, &tracer).map_err(|e| e.to_string())?;
    let end_ns = SimTime::from_secs_f64(report.makespan_s).as_nanos();
    let (journal, trace_metrics) =
        grid::finish_run(&tracer, end_ns, report.makespan_s, report.total_energy_j);
    Ok(ClusterJobResult {
        id,
        key,
        case: job.case,
        kind: job.kind.label(),
        report,
        summary,
        end_ns,
        journal,
        trace_metrics,
    })
}

/// Run the cluster grid on `workers` threads; results come back in
/// submission order regardless of scheduling.
///
/// # Errors
/// [`SweepError::DuplicateKey`] when two jobs share a key;
/// [`SweepError::JobFailed`] when a job's cluster run reported an error;
/// [`SweepError::JobPanicked`] when a job panicked (lowest id reported).
pub fn run_cluster_sweep(
    jobs: Vec<ClusterJob>,
    setup: &ClusterSetup,
    workers: usize,
    on_done: Progress<'_>,
) -> Result<Vec<ClusterJobResult>, SweepError> {
    let keys: Vec<String> = jobs.iter().map(ClusterJob::key).collect();
    grid::run_grid(&keys, workers, on_done, &|id| execute(id, jobs[id], setup))
}

/// Assemble the cluster-sweep journal: schema header, then each traced
/// job's journal in a `job` span, job-id order — byte-identical across
/// worker counts. `None` when no job was traced.
pub fn cluster_journal(results: &[ClusterJobResult]) -> Option<String> {
    grid::journal(results.iter().map(ClusterJobResult::view))
}

/// Render the cluster metrics file (`greenness-metrics/v1`): one labeled
/// registry per traced job, job-id order. `None` when no job was traced.
pub fn cluster_metrics_json(results: &[ClusterJobResult]) -> Option<String> {
    grid::metrics_json(results.iter().map(ClusterJobResult::view))
}

/// Render the structured cluster manifest (`repro_out/cluster.json`) — a
/// pure function of the setup and results.
pub fn cluster_manifest_json(setup: &ClusterSetup, results: &[ClusterJobResult]) -> String {
    let mut s = String::with_capacity(1024 + 640 * results.len());
    s.push_str("{\n  \"schema\": \"greenness-cluster-manifest/v1\",\n");
    s.push_str(&format!(
        "  \"staging_nodes\": {},\n  \"queue_depth\": {},\n  \"wire_codec\": \"{}\",\n",
        setup.staging.staging_nodes,
        setup.staging.queue_depth,
        setup.staging.wire_codec.label()
    ));
    match setup.faults {
        Some(plan) => s.push_str(&format!("  \"fault_seed\": {},\n", plan.seed)),
        None => s.push_str("  \"fault_seed\": null,\n"),
    }
    s.push_str("  \"jobs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let rep = &r.report;
        s.push_str("    {\n");
        s.push_str(&format!("      \"id\": {},\n", r.id));
        s.push_str(&format!("      \"key\": \"{}\",\n", escape_json(&r.key)));
        s.push_str(&format!("      \"case\": {},\n", r.case));
        s.push_str(&format!("      \"kind\": \"{}\",\n", r.kind));
        s.push_str(&format!("      \"makespan_s\": {:?},\n", rep.makespan_s));
        s.push_str(&format!(
            "      \"total_energy_j\": {:?},\n",
            rep.total_energy_j
        ));
        s.push_str(&format!(
            "      \"avg_power_w\": {:?},\n",
            rep.average_power_w
        ));
        s.push_str(&format!(
            "      \"compute_energy_j\": {:?},\n",
            rep.compute_energy_j
        ));
        s.push_str(&format!("      \"io_energy_j\": {:?},\n", rep.io_energy_j));
        s.push_str(&format!(
            "      \"viz_energy_j\": {:?},\n",
            rep.viz_energy_j
        ));
        s.push_str(&format!(
            "      \"fabric_bytes\": {},\n      \"pfs_bytes\": {},\n      \"bytes_out\": {},\n",
            rep.fabric_bytes, rep.pfs_bytes, rep.bytes_out
        ));
        s.push_str(&format!(
            "      \"staging_raw_bytes\": {},\n",
            rep.staging_raw_bytes
        ));
        s.push_str(&format!("      \"image_hash\": {},\n", rep.image_hash));
        s.push_str(&format!("      \"verified\": {},\n", rep.verified));
        s.push_str(&format!(
            "      \"faults\": {{\"total\": {}, \"storage\": {}, \"fabric_drops\": {}, \
             \"fabric_delays\": {}, \"torn_renders\": {}, \"storage_retries\": {}, \
             \"fabric_retries\": {}}}\n",
            r.summary.total_faults(),
            r.summary.storage_faults,
            r.summary.fabric_drops,
            r.summary.fabric_delays,
            r.summary.staging_torn_renders,
            r.summary.storage_retries,
            r.summary.fabric_retries
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
    use super::*;

    #[test]
    fn grid_covers_three_by_three() {
        let jobs = cluster_jobs(None);
        assert_eq!(jobs.len(), 9);
        let keys: Vec<String> = jobs.iter().map(ClusterJob::key).collect();
        assert_eq!(keys[0], "case1:post");
        assert_eq!(keys[8], "case3:intransit");
        let filtered = cluster_jobs(Some(ClusterKind::InTransit));
        assert_eq!(filtered.len(), 3);
        assert!(filtered.iter().all(|j| j.kind == ClusterKind::InTransit));
    }

    #[test]
    fn a_cluster_run_that_cannot_complete_fails_the_job_as_a_value() {
        // Every fabric transfer faults and a dropped one is never retried, so
        // no cell survives its first few ghost exchanges.
        let setup = ClusterSetup {
            faults: Some(FaultPlan {
                fabric_fault_rate: 1.0,
                max_retries: 0,
                ..FaultPlan::with_seed(1)
            }),
            ..ClusterSetup::default()
        };
        let err = run_cluster_sweep(cluster_jobs(None), &setup, 2, &|_, _, _| {})
            .expect_err("no cell can complete");
        match err {
            SweepError::JobFailed { id, key, .. } => {
                assert_eq!((id, key.as_str()), (0, "case1:post"))
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
    }

    #[test]
    fn manifest_shape_is_stable() {
        let setup = ClusterSetup::default();
        let jobs = vec![ClusterJob {
            case: 1,
            kind: ClusterKind::InSitu,
        }];
        let results = run_cluster_sweep(jobs, &setup, 1, &|_, _, _| {}).unwrap();
        let manifest = cluster_manifest_json(&setup, &results);
        assert!(manifest.contains("\"schema\": \"greenness-cluster-manifest/v1\""));
        assert!(manifest.contains("\"key\": \"case1:insitu\""));
        assert!(manifest.contains("\"fault_seed\": null"));
        assert!(manifest.ends_with("  ]\n}\n"));
    }
}
