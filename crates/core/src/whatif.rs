//! The §V-D what-if analysis.
//!
//! The paper's pipelines do sequential I/O, but real applications often
//! don't. Using the fio measurements (Table III), §V-D argues: an
//! application with *random* I/O behavior (one 4 GB read + one 4 GB write
//! pass) would save **242.2 kJ** (238.6 + 3.6) by going in-situ — but if it
//! instead adopted software-directed data reorganization, its passes become
//! sequential and the residual I/O cost is only **7.3 kJ** (4.2 + 3.1),
//! while exploratory analysis is retained.

use greenness_platform::Node;
use greenness_storage::{fio, FioJob, FioKind, FioResult, NullBlockDevice, StorageError};

use crate::experiment::ExperimentSetup;

/// Why the §V-D analysis could not be derived. Reachable from the serve
/// `whatif` op, so reported as a value (surfaced as a protocol error
/// envelope) rather than a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum WhatIfError {
    /// A fio job failed to run (malformed configuration).
    Fio(StorageError),
    /// The result set was missing one of the four Table III kinds — the
    /// analysis would have nothing to sum for that column.
    MissingKind(FioKind),
}

impl std::fmt::Display for WhatIfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WhatIfError::Fio(e) => write!(f, "fio failed: {e}"),
            WhatIfError::MissingKind(k) => {
                write!(f, "fio results missing the {k:?} column of Table III")
            }
        }
    }
}

impl std::error::Error for WhatIfError {}

impl From<StorageError> for WhatIfError {
    fn from(e: StorageError) -> Self {
        WhatIfError::Fio(e)
    }
}

/// The §V-D numbers, derived from freshly-run fio jobs.
#[derive(Debug, Clone)]
pub struct WhatIfAnalysis {
    /// All four Table III results, in table column order.
    pub fio: Vec<FioResult>,
    /// Energy a random-I/O application spends on its I/O passes — what
    /// in-situ would eliminate, kJ (paper: 242.2).
    pub random_io_energy_kj: f64,
    /// Energy the same passes cost after data reorganization, kJ
    /// (paper: 7.3).
    pub reorganized_io_energy_kj: f64,
}

impl WhatIfAnalysis {
    /// Run the four Table III fio jobs at `total_bytes` (paper: 4 GiB) and
    /// derive the §V-D comparison. A malformed job configuration or an
    /// incomplete result set is reported as a [`WhatIfError`] instead of
    /// panicking.
    pub fn run(setup: &ExperimentSetup, total_bytes: u64) -> Result<WhatIfAnalysis, WhatIfError> {
        let mut fio_results = Vec::with_capacity(4);
        for kind in FioKind::ALL {
            // Each job on a fresh node, as separate fio invocations would be.
            let mut node = Node::new(setup.spec.clone());
            node.set_monitoring_overhead_w(setup.monitoring_overhead_w);
            let mut dev = NullBlockDevice::with_capacity_bytes(total_bytes);
            let job = FioJob {
                total_bytes,
                ..FioJob::table3(kind)
            };
            fio_results.push(fio::run(&mut node, &mut dev, &job)?);
        }
        Self::from_results(fio_results)
    }

    /// Derive the comparison from an already-run result set. Each Table III
    /// column must be present exactly once; a missing kind surfaces as
    /// [`WhatIfError::MissingKind`] — the condition the old code turned into
    /// a process-killing `.expect("all four kinds ran")`.
    fn from_results(fio_results: Vec<FioResult>) -> Result<WhatIfAnalysis, WhatIfError> {
        let energy = |k: FioKind| -> Result<f64, WhatIfError> {
            fio_results
                .iter()
                .find(|r| r.kind == k)
                .map(|r| r.full_system_energy_kj)
                .ok_or(WhatIfError::MissingKind(k))
        };
        Ok(WhatIfAnalysis {
            random_io_energy_kj: energy(FioKind::RandomRead)? + energy(FioKind::RandomWrite)?,
            reorganized_io_energy_kj: energy(FioKind::SequentialRead)?
                + energy(FioKind::SequentialWrite)?,
            fio: fio_results,
        })
    }

    /// The headline ratio: how much of the random-I/O energy reorganization
    /// retains (the paper: 7.3 / 242.2 ≈ 3%).
    pub fn retained_fraction(&self) -> f64 {
        if self.random_io_energy_kj <= 0.0 {
            0.0
        } else {
            self.reorganized_io_energy_kj / self.random_io_energy_kj
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_at_4gib() {
        let w = WhatIfAnalysis::run(&ExperimentSetup::noiseless(), 4 * 1024 * 1024 * 1024).unwrap();
        // Paper: 242.2 kJ vs 7.3 kJ.
        assert!(
            (w.random_io_energy_kj - 242.2).abs() < 10.0,
            "{}",
            w.random_io_energy_kj
        );
        assert!(
            (w.reorganized_io_energy_kj - 7.3).abs() < 0.4,
            "{}",
            w.reorganized_io_energy_kj
        );
        assert!(w.retained_fraction() < 0.05);
        assert_eq!(w.fio.len(), 4);
    }

    #[test]
    fn missing_kind_is_a_structured_error_not_a_panic() {
        let full = WhatIfAnalysis::run(&ExperimentSetup::noiseless(), 64 * 1024 * 1024)
            .unwrap()
            .fio;
        // Drop one column: the analysis must refuse as a value.
        let partial: Vec<FioResult> = full
            .into_iter()
            .filter(|r| r.kind != FioKind::RandomWrite)
            .collect();
        let err = WhatIfAnalysis::from_results(partial).expect_err("incomplete set");
        assert_eq!(err, WhatIfError::MissingKind(FioKind::RandomWrite));
        assert!(err.to_string().contains("missing"));
        // An empty set fails on the first column it looks for.
        assert!(matches!(
            WhatIfAnalysis::from_results(Vec::new()),
            Err(WhatIfError::MissingKind(_))
        ));
    }

    #[test]
    fn scales_down_with_job_size() {
        let big =
            WhatIfAnalysis::run(&ExperimentSetup::noiseless(), 4 * 1024 * 1024 * 1024).unwrap();
        let small = WhatIfAnalysis::run(&ExperimentSetup::noiseless(), 1024 * 1024 * 1024).unwrap();
        assert!(small.random_io_energy_kj < big.random_io_energy_kj / 3.0);
    }
}
