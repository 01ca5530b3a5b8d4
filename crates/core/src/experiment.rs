//! Instrumented experiment runs.
//!
//! One experiment = one pipeline on one *fresh* node with the paper's
//! measurement rig attached: the Wattsup wall meter out-of-band, RAPL polled
//! on-node at 1 Hz with the measured +0.2 W overhead (§IV-B). Everything
//! needed by the figures comes back in one [`PipelineReport`].

use greenness_faults::FaultPlan;
use greenness_platform::{HardwareSpec, Node, Phase, SimDuration, Timeline};
use greenness_power::{GreenMetrics, PowerProfile, WattsupMeter};
use greenness_trace::{MetricsRegistry, Tracer, Value};

use crate::config::PipelineConfig;
use crate::driver;
use crate::grid;
use crate::memo::GridMemo;
use crate::pipeline::{self, PipelineError, PipelineKind, PipelineOutput};

/// Extra package power of the on-node energy monitor, watts: the paper
/// measured +0.2 W for 1 Hz RAPL polling (§IV-B).
pub const MONITORING_OVERHEAD_W: f64 = 0.2;

/// The measurement rig and hardware for a run.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// The node under test.
    pub spec: HardwareSpec,
    /// Wall meter configuration (noise, cadence, seed).
    pub meter: WattsupMeter,
    /// On-node monitoring overhead, watts ([`MONITORING_OVERHEAD_W`] by
    /// default; 0.0 detaches the monitor).
    pub monitoring_overhead_w: f64,
    /// Record an event journal + metrics registry for the run (the
    /// `greenness-trace` observability layer). Off by default; tracing is
    /// deterministic but costs allocation per event.
    pub trace: bool,
    /// Seeded storage-fault schedule (transient fsync errors, retried with
    /// backoff inside the run). `None` — the default — is the untouched
    /// fault-free fast path.
    pub faults: Option<FaultPlan>,
}

impl Default for ExperimentSetup {
    fn default() -> Self {
        ExperimentSetup {
            spec: HardwareSpec::table1(),
            meter: WattsupMeter::default(),
            monitoring_overhead_w: MONITORING_OVERHEAD_W,
            trace: false,
            faults: None,
        }
    }
}

impl ExperimentSetup {
    /// A noise-free rig for exact regression tests.
    pub fn noiseless() -> Self {
        ExperimentSetup {
            meter: WattsupMeter::noiseless(),
            ..Self::default()
        }
    }
}

/// Per-phase accounting row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRow {
    /// The pipeline stage.
    pub phase: Phase,
    /// Time spent in it.
    pub duration: SimDuration,
    /// Share of total execution time, percent (Figure 4's quantity).
    pub time_pct: f64,
    /// Full-system energy it consumed, joules.
    pub energy_j: f64,
    /// Its average full-system power, watts.
    pub avg_power_w: f64,
}

/// Everything one instrumented run produced.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Which pipeline ran.
    pub kind: PipelineKind,
    /// Workload label ("case study 1").
    pub config_label: String,
    /// The Figure 7–11 quantities.
    pub metrics: GreenMetrics,
    /// The sampled Figure 5-style profile (system / package / DRAM).
    pub profile: PowerProfile,
    /// The exact power history (for downstream analyses).
    pub timeline: Timeline,
    /// Data-side results (bytes moved, frames, verification).
    pub output: PipelineOutput,
    /// The run's event journal (headerless JSONL, `greenness-trace/v1`
    /// events) when [`ExperimentSetup::trace`] was set.
    pub journal: Option<String>,
    /// The run's metrics registry (counters, gauges, per-phase snapshots)
    /// when [`ExperimentSetup::trace`] was set.
    pub trace_metrics: Option<MetricsRegistry>,
}

impl PipelineReport {
    /// Per-phase accounting over the run, Figure-4 style.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let total = self.timeline.end().as_secs_f64().max(1e-300);
        self.timeline
            .phase_breakdown()
            .into_iter()
            .map(|(phase, duration)| PhaseRow {
                phase,
                duration,
                time_pct: duration.as_secs_f64() / total * 100.0,
                energy_j: self.timeline.phase_energy(phase).system_j(),
                avg_power_w: self.timeline.phase_average_power_w(phase),
            })
            .collect()
    }

    /// Share of execution time spent in `phase`, percent.
    pub fn time_pct(&self, phase: Phase) -> f64 {
        self.phase_rows()
            .iter()
            .find(|r| r.phase == phase)
            .map_or(0.0, |r| r.time_pct)
    }
}

/// Run `kind` over `cfg` on a fresh instrumented node.
///
/// # Errors
/// Propagates [`PipelineError`] from the pipeline run — the serve layer maps
/// it into a protocol error envelope instead of panicking.
pub fn run(
    kind: PipelineKind,
    cfg: &PipelineConfig,
    setup: &ExperimentSetup,
) -> Result<PipelineReport, PipelineError> {
    run_sharing(kind, cfg, setup, None)
}

/// [`run`], reading and offering frames and fields through a grid's `memo`.
pub(crate) fn run_sharing(
    kind: PipelineKind,
    cfg: &PipelineConfig,
    setup: &ExperimentSetup,
    memo: Option<&GridMemo>,
) -> Result<PipelineReport, PipelineError> {
    let mut node = Node::new(setup.spec.clone());
    node.set_monitoring_overhead_w(setup.monitoring_overhead_w);
    if setup.trace {
        node.set_tracer(grid::begin_run(vec![
            ("pipeline", Value::label(kind.label())),
            ("config", Value::from(cfg.label.as_str())),
        ]));
    }
    // The run's solver and device are dropped here, so the snapshots they
    // hold do not add to the heap that measuring and the journal take.
    let output = {
        let (mut stepper, mut store) = driver::open(cfg, setup.faults)?;
        pipeline::drive(kind, &mut node, cfg, (&mut stepper, &mut store), memo)?
    };
    node.finish_trace();
    let tracer = node.tracer().clone();
    let timeline = node.into_timeline();
    let metrics = GreenMetrics::from_timeline(&timeline, cfg.work_units());
    let end_ns = timeline.end().as_nanos();
    if tracer.is_on() {
        tracer.begin(end_ns, "measure", Vec::new());
    }
    let profile = PowerProfile::measure_traced(&timeline, &setup.meter, &tracer);
    if tracer.is_on() {
        tracer.end(end_ns, "measure", Vec::new());
        dump_timeline(&tracer, &timeline, end_ns);
    }
    let (journal, trace_metrics) = grid::finish_run(
        &tracer,
        end_ns,
        timeline.end().as_secs_f64(),
        timeline.total_energy_j(),
    );
    Ok(PipelineReport {
        kind,
        config_label: cfg.label.clone(),
        metrics,
        profile,
        timeline,
        output,
        journal,
        trace_metrics,
    })
}

/// Journal the exact power history: one `segment` event per timeline segment
/// (the ground truth `trace summarize` reconstructs energy from) and one
/// `phase_summary` event per phase with the timeline's own accounting (the
/// figure the reconstruction is audited against).
fn dump_timeline(tracer: &Tracer, timeline: &Timeline, end_ns: u64) {
    for seg in timeline.segments() {
        tracer.instant(
            end_ns,
            "segment",
            vec![
                ("start_ns", Value::from(seg.start.as_nanos())),
                ("dur_ns", Value::from(seg.duration.as_nanos())),
                ("phase", Value::label(seg.phase.label())),
                ("package_w", Value::from(seg.draw.package_w)),
                ("dram_w", Value::from(seg.draw.dram_w)),
                ("disk_w", Value::from(seg.draw.disk_w)),
                ("net_w", Value::from(seg.draw.net_w)),
                ("board_w", Value::from(seg.draw.board_w)),
            ],
        );
    }
    for phase in Phase::ALL {
        let duration = timeline.phase_duration(phase);
        if duration.is_zero() {
            continue;
        }
        let e = timeline.phase_energy(phase);
        tracer.instant(
            end_ns,
            "phase_summary",
            vec![
                ("phase", Value::label(phase.label())),
                ("time_s", Value::from(duration.as_secs_f64())),
                ("package_j", Value::from(e.package_j)),
                ("dram_j", Value::from(e.dram_j)),
                ("disk_j", Value::from(e.disk_j)),
                ("net_j", Value::from(e.net_j)),
                ("board_j", Value::from(e.board_j)),
                ("system_j", Value::from(e.system_j())),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_consistent_metrics() {
        let cfg = PipelineConfig::small(1);
        let r = run(
            PipelineKind::PostProcessing,
            &cfg,
            &ExperimentSetup::noiseless(),
        )
        .expect("run ok");
        assert!((r.metrics.execution_time_s - r.timeline.end().as_secs_f64()).abs() < 1e-9);
        assert!((r.metrics.energy_j - r.timeline.total_energy_j()).abs() < 1e-6);
        // The 1 Hz profile covers the run (minus the partial last second).
        assert!(r.profile.len() as f64 <= r.metrics.execution_time_s + 1.0);
        assert!(r.profile.len() as f64 >= r.metrics.execution_time_s - 1.0);
    }

    #[test]
    fn phase_rows_partition_time_and_energy() {
        let cfg = PipelineConfig::small(2);
        let r = run(
            PipelineKind::PostProcessing,
            &cfg,
            &ExperimentSetup::noiseless(),
        )
        .expect("run ok");
        let rows = r.phase_rows();
        let pct: f64 = rows.iter().map(|x| x.time_pct).sum();
        assert!((pct - 100.0).abs() < 1e-6, "phases cover {pct}%");
        let e: f64 = rows.iter().map(|x| x.energy_j).sum();
        assert!((e - r.metrics.energy_j).abs() < 1e-6);
    }

    #[test]
    fn monitoring_overhead_shows_up_in_energy() {
        let cfg = PipelineConfig::small(1);
        let with = run(PipelineKind::InSitu, &cfg, &ExperimentSetup::noiseless()).expect("run ok");
        let without = run(
            PipelineKind::InSitu,
            &cfg,
            &ExperimentSetup {
                monitoring_overhead_w: 0.0,
                ..ExperimentSetup::noiseless()
            },
        )
        .expect("run ok");
        let dt = with.metrics.execution_time_s;
        let de = with.metrics.energy_j - without.metrics.energy_j;
        assert!(
            (de - 0.2 * dt).abs() < 1e-6,
            "overhead energy {de} J over {dt} s"
        );
    }

    #[test]
    fn traced_runs_carry_journal_and_metrics() {
        let cfg = PipelineConfig::small(1);
        let plain = run(
            PipelineKind::PostProcessing,
            &cfg,
            &ExperimentSetup::noiseless(),
        )
        .expect("run ok");
        assert!(plain.journal.is_none());
        assert!(plain.trace_metrics.is_none());

        let traced = run(
            PipelineKind::PostProcessing,
            &cfg,
            &ExperimentSetup {
                trace: true,
                ..ExperimentSetup::noiseless()
            },
        )
        .expect("run ok");
        let journal = traced.journal.as_deref().expect("journal recorded");
        assert!(journal.starts_with("{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"run\""));
        assert!(journal.contains("\"name\":\"phase_summary\""));
        let m = traced.trace_metrics.as_ref().expect("metrics recorded");
        assert!(m.counter("solver.steps") > 0);
        assert!(m.counter("disk.writes") > 0);
        assert!(m.counter("cache.evictions") > 0);
        // Tracing must not perturb the simulated physics.
        assert_eq!(plain.metrics.energy_j, traced.metrics.energy_j);
        assert_eq!(plain.profile.samples, traced.profile.samples);
    }

    #[test]
    fn storage_faults_stretch_the_run_but_not_its_output() {
        let cfg = PipelineConfig::small(1);
        let clean = run(
            PipelineKind::PostProcessing,
            &cfg,
            &ExperimentSetup::noiseless(),
        )
        .expect("run ok");
        let setup = ExperimentSetup {
            faults: Some(FaultPlan {
                storage_fsync_rate: 0.5,
                ..FaultPlan::with_seed(21)
            }),
            ..ExperimentSetup::noiseless()
        };
        let faulted = run(PipelineKind::PostProcessing, &cfg, &setup).expect("run ok");
        let again = run(PipelineKind::PostProcessing, &cfg, &setup).expect("run ok");
        // Faults and retries cost time and energy but never change the data.
        assert!(faulted.output.verified);
        assert_eq!(faulted.output.bytes_written, clean.output.bytes_written);
        assert_eq!(faulted.output.bytes_read, clean.output.bytes_read);
        assert!(faulted.metrics.execution_time_s > clean.metrics.execution_time_s);
        assert!(faulted.metrics.energy_j > clean.metrics.energy_j);
        // Same seed, same schedule: bit-identical reruns.
        assert_eq!(
            faulted.metrics.energy_j.to_bits(),
            again.metrics.energy_j.to_bits()
        );
    }

    #[test]
    fn seeded_meter_noise_is_reproducible() {
        let cfg = PipelineConfig::small(1);
        let a = run(PipelineKind::InSitu, &cfg, &ExperimentSetup::default()).expect("run ok");
        let b = run(PipelineKind::InSitu, &cfg, &ExperimentSetup::default()).expect("run ok");
        assert_eq!(a.profile.samples, b.profile.samples);
    }
}
