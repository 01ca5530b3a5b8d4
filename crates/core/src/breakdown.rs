//! The §V-C energy-savings breakdown for a case study.
//!
//! Combines the probe measurements (Table II) with a case comparison
//! (Figures 7/10) through the estimator in
//! [`greenness_power::breakdown`]: dynamic savings = probe dynamic power ×
//! execution-time difference; static savings = the rest. For case study 1
//! the paper reports 12.8 kJ static vs 1.2 kJ dynamic — *91% of the savings
//! come from not idling*, only 9% from moving less data.

use greenness_power::SavingsBreakdown;

use crate::compare::CaseComparison;
use crate::probes::ProbeResult;

/// Apply the estimator to a comparison, pricing the removed I/O at the
/// Table II probes' dynamic power.
pub fn case_savings(
    cmp: &CaseComparison,
    nnread: &ProbeResult,
    nnwrite: &ProbeResult,
) -> SavingsBreakdown {
    // The I/O being removed is a mix of reads and writes; the paper uses
    // the (nearly equal) stage powers — we average them.
    let probe_dyn_w = 0.5 * (nnread.avg_dynamic_w + nnwrite.avg_dynamic_w);
    SavingsBreakdown::estimate(
        cmp.post.metrics.energy_j,
        cmp.post.metrics.execution_time_s,
        cmp.insitu.metrics.energy_j,
        cmp.insitu.metrics.execution_time_s,
        probe_dyn_w,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::experiment::ExperimentSetup;
    use crate::probes::{nnread, nnwrite};

    #[test]
    fn static_share_dominates() {
        let setup = ExperimentSetup::noiseless();
        let cmp = CaseComparison::run_config(1, &PipelineConfig::small(1), &setup).expect("runs");
        let read = nnread(&setup, 8 * 1024, 5.0).expect("probe ok");
        let write = nnwrite(&setup, 8 * 1024, 5.0).expect("probe ok");
        let b = case_savings(&cmp, &read, &write);
        assert!(b.total_j > 0.0);
        // The paper's qualitative headline: most savings are static.
        assert!(
            b.static_pct() > 60.0,
            "static share only {:.1}%",
            b.static_pct()
        );
        assert!((b.static_pct() + b.dynamic_pct() - 100.0).abs() < 1e-9);
    }
}
