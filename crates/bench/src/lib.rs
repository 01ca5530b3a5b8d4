//! # greenness-bench
//!
//! The reproduction harness: `repro`, the one front end for the paper's
//! tables and figures, and `greenness`, the lab CLI for everything beyond
//! them. Wall-clock measurement lives in the stand-alone `benchmark/`
//! package, not here.
//!
//! All grid execution goes through `greenness_core`'s one grid runner:
//! results (and the manifest written by `repro`) are bit-identical for any
//! `--jobs` value. Both binaries read their flags through [`cli`].

pub mod cli;

/// Default worker count: one per available core, capped by the job count
/// inside the executor.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use greenness_core::{sweep, ExperimentSetup};

    #[test]
    fn parallel_case_runs_are_ordered_and_complete() {
        // Scaled-down smoke test of the parallel runner path.
        let setup = ExperimentSetup::noiseless();
        let configs: Vec<_> = [(1u32, 1u64), (2, 2), (3, 8)]
            .into_iter()
            .map(|(n, interval)| (n, greenness_core::PipelineConfig::small(interval)))
            .collect();
        let jobs = sweep::config_grid(&setup, &configs);
        let results = sweep::run_sweep(jobs, 4, &sweep::silent_progress()).expect("sweep ok");
        let cases = sweep::comparisons(&results);
        assert_eq!(
            cases.iter().map(|c| c.case).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for c in &cases {
            assert!(c.post.metrics.energy_j > 0.0);
        }
    }
}
