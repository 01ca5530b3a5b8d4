//! Head-to-head pipeline comparison — Figures 7–11.

use crate::config::PipelineConfig;
use crate::experiment::{run_sharing, ExperimentSetup, PipelineReport};
use crate::memo::GridMemo;
use crate::pipeline::{PipelineError, PipelineKind};

/// Both pipelines run over the same case-study workload.
#[derive(Debug, Clone)]
pub struct CaseComparison {
    /// Case-study number (1–3).
    pub case: u32,
    /// The post-processing ("Traditional") run.
    pub post: PipelineReport,
    /// The in-situ run.
    pub insitu: PipelineReport,
}

impl CaseComparison {
    /// Run both pipelines over an arbitrary workload, sharing their frames.
    /// The pair's one post-processing cell leaves no later cell to share a
    /// field with, so the memo expects none.
    ///
    /// # Errors
    /// Propagates [`PipelineError`] from either run.
    pub fn run_config(
        n: u32,
        cfg: &PipelineConfig,
        setup: &ExperimentSetup,
    ) -> Result<CaseComparison, PipelineError> {
        let memo = GridMemo::default();
        Ok(CaseComparison {
            case: n,
            post: run_sharing(PipelineKind::PostProcessing, cfg, setup, Some(&memo))?,
            insitu: run_sharing(PipelineKind::InSitu, cfg, setup, Some(&memo))?,
        })
    }

    /// Figure 7: execution-time pair `(in-situ, traditional)`, seconds.
    pub fn execution_times_s(&self) -> (f64, f64) {
        (
            self.insitu.metrics.execution_time_s,
            self.post.metrics.execution_time_s,
        )
    }

    /// Figure 8: average-power pair `(in-situ, traditional)`, watts.
    pub fn average_powers_w(&self) -> (f64, f64) {
        (
            self.insitu.metrics.average_power_w,
            self.post.metrics.average_power_w,
        )
    }

    /// Figure 9: peak-power pair `(in-situ, traditional)`, watts.
    pub fn peak_powers_w(&self) -> (f64, f64) {
        (
            self.insitu.metrics.peak_power_w,
            self.post.metrics.peak_power_w,
        )
    }

    /// Figure 10: energy pair `(in-situ, traditional)`, joules.
    pub fn energies_j(&self) -> (f64, f64) {
        (self.insitu.metrics.energy_j, self.post.metrics.energy_j)
    }

    /// Figure 11: efficiency pair normalized to the in-situ run
    /// `(in-situ = 1.0, traditional < 1.0)`.
    pub fn normalized_efficiencies(&self) -> (f64, f64) {
        (
            1.0,
            self.post
                .metrics
                .normalized_efficiency(&self.insitu.metrics),
        )
    }

    /// Headline: percent energy the in-situ pipeline saves (the paper's
    /// 43 / 30 / 18%).
    pub fn energy_savings_pct(&self) -> f64 {
        self.insitu.metrics.energy_reduction_vs(&self.post.metrics)
    }

    /// Percent execution-time reduction from in-situ.
    pub fn time_reduction_pct(&self) -> f64 {
        self.insitu.metrics.time_reduction_vs(&self.post.metrics)
    }

    /// Percent average-power increase of in-situ (the paper's 8 / 5 / 3%).
    pub fn power_increase_pct(&self) -> f64 {
        self.insitu.metrics.power_increase_vs(&self.post.metrics)
    }

    /// Percent efficiency improvement from in-situ (the paper's 22–72%).
    pub fn efficiency_improvement_pct(&self) -> f64 {
        (self
            .insitu
            .metrics
            .normalized_efficiency(&self.post.metrics)
            - 1.0)
            * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_case(interval: u64) -> CaseComparison {
        let cfg = PipelineConfig::small(interval);
        CaseComparison::run_config(1, &cfg, &ExperimentSetup::noiseless()).expect("runs ok")
    }

    #[test]
    fn insitu_wins_energy_and_time_but_draws_more_power() {
        let c = small_case(1);
        assert!(c.energy_savings_pct() > 0.0);
        assert!(c.time_reduction_pct() > 0.0);
        assert!(c.power_increase_pct() > 0.0);
        assert!(c.efficiency_improvement_pct() > 0.0);
    }

    #[test]
    fn peak_power_is_nearly_equal() {
        // Figure 9: "no significant difference in the peak power" — both
        // pipelines peak in the (identical) simulation phase.
        let c = small_case(1);
        let (pi, pt) = c.peak_powers_w();
        assert!((pi - pt).abs() < 1.0, "{pi} vs {pt}");
    }

    #[test]
    fn savings_shrink_as_io_thins() {
        let dense = small_case(1);
        let sparse = small_case(5);
        assert!(
            dense.energy_savings_pct() > sparse.energy_savings_pct(),
            "{} !> {}",
            dense.energy_savings_pct(),
            sparse.energy_savings_pct()
        );
    }

    #[test]
    fn figure_accessors_are_consistent() {
        let c = small_case(2);
        let (ei, et) = c.energies_j();
        assert!((c.energy_savings_pct() - (1.0 - ei / et) * 100.0).abs() < 1e-9);
        let (ni, nt) = c.normalized_efficiencies();
        assert_eq!(ni, 1.0);
        assert!(nt < 1.0);
    }
}
