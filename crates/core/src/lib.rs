//! # greenness-core
//!
//! The reproduction of *"On the Greenness of In-Situ and Post-Processing
//! Visualization Pipelines"* (Adhinarayanan, Feng, Woodring, Rogers, Ahrens;
//! IEEE IPDPSW 2015): both visualization pipelines, the three case-study
//! configurations, the instrumented experiment runner, and the paper's
//! analyses.
//!
//! * [`pipeline`] — the **post-processing** pipeline (simulate → write raw
//!   snapshots → read back → visualize, Figure 2a) and the **in-situ**
//!   pipeline (simulate → visualize in memory → write only images,
//!   Figure 2b), plus an **in-transit** extension (ship snapshots to a
//!   staging node over the NIC) from the paper's future-work list; and
//!   [`pipeline::cluster`], all three on a cluster (§VI-A).
//! * [`config`] — the §IV-C application configurations: 50 timesteps,
//!   128 KiB chunks, I/O every 1 / 2 / 8 iterations (case studies 1–3).
//! * [`experiment`] — runs a pipeline on a fresh instrumented node (Wattsup +
//!   RAPL with the paper's +0.2 W monitoring overhead) and reports
//!   [`GreenMetrics`](greenness_power::GreenMetrics), power profiles, and
//!   per-phase accounting.
//! * [`probes`] — the isolated `nnread`/`nnwrite` stages of Figure 6 /
//!   Table II.
//! * [`compare`] — head-to-head comparison (Figures 7–11).
//! * [`sweep`] — the case-study experiment grid on the one private `grid`
//!   runner ([`cluster_sweep`] and [`placement`] are its other two callers):
//!   per-job seeds derive from job keys, so results are bit-identical for
//!   any worker count.
//! * [`breakdown`] — the §V-C static/dynamic energy-savings decomposition.
//! * [`whatif`] — the §V-D fio-based analysis: in-situ vs data
//!   reorganization for a random-I/O application.
//! * [`advisor`] — the runtime the paper sketches as future work: a power
//!   model over (access count, size, pattern) that picks the optimization
//!   technique.
//! * [`report`] — fixed-width table rendering shared by the `repro` binary.
//!
//! Every single-node run ([`pipeline`], [`variants`], [`adaptive`],
//! [`capping`], [`steering`]) is a composition of one private `driver`
//! module — the live solver stepper, the formatted store, and the
//! simulate → store → sync/drop → read-back → render phase order.
//!
//! ## Quickstart
//!
//! ```
//! use greenness_core::{config::PipelineConfig, experiment, pipeline::PipelineKind};
//!
//! // A scaled-down case study 1 (full scale is PipelineConfig::case_study(1)).
//! let cfg = PipelineConfig::small(1);
//! let setup = experiment::ExperimentSetup::default();
//! let post = experiment::run(PipelineKind::PostProcessing, &cfg, &setup).expect("run ok");
//! let insitu = experiment::run(PipelineKind::InSitu, &cfg, &setup).expect("run ok");
//! assert!(insitu.metrics.energy_j < post.metrics.energy_j);
//! ```

pub mod adaptive;
pub mod advisor;
pub mod breakdown;
pub mod capping;
pub mod cluster_sweep;
pub mod compare;
pub mod config;
mod driver;
pub mod experiment;
mod grid;
mod memo;
pub mod pipeline;
pub mod placement;
pub mod probes;
pub mod report;
pub mod steering;
pub mod sweep;
pub mod variants;
pub mod whatif;

pub use compare::CaseComparison;
pub use config::PipelineConfig;
pub use experiment::{ExperimentSetup, PipelineReport};
pub use pipeline::PipelineKind;
