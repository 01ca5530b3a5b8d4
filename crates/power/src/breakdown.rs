//! The §V-C energy-savings decomposition.
//!
//! The paper's key analytical contribution: of the energy in-situ saves, how
//! much comes from *moving less data* (the dynamic component) and how much
//! from *running for less time* (the static component)? The method:
//!
//! 1. run isolated `nnread`/`nnwrite` probe stages and measure their average
//!    *dynamic* power (total minus the system's static floor) — Table II
//!    reports ≈10.3 / 10.0 W;
//! 2. dynamic savings = probe dynamic power × the execution-time difference
//!    between the pipelines;
//! 3. static savings = total savings − dynamic savings.
//!
//! For case study 1 the paper finds 12.8 kJ static vs 1.2 kJ dynamic — i.e.
//! ≈91% of the benefit is simply not idling, which motivates its §V-D
//! argument that data reorganization could green the post-processing
//! pipeline without giving up exploratory analysis.

use greenness_platform::Timeline;

/// Average dynamic power of an I/O probe run: its mean system power above
/// the machine's static floor, watts.
pub fn probe_dynamic_power_w(probe: &Timeline, static_floor_w: f64) -> f64 {
    (probe.average_power_w() - static_floor_w).max(0.0)
}

/// The static/dynamic split of the energy one pipeline saves over another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsBreakdown {
    /// Total energy saved, joules.
    pub total_j: f64,
    /// Savings attributable to reduced data movement (dynamic), joules.
    pub dynamic_j: f64,
    /// Savings attributable to reduced idle/elapsed time (static), joules.
    pub static_j: f64,
}

impl SavingsBreakdown {
    /// Apply the paper's §V-C estimator.
    ///
    /// * `baseline_*` — the post-processing run;
    /// * `improved_*` — the in-situ run;
    /// * `probe_dynamic_w` — average dynamic power of the I/O stages being
    ///   eliminated (from [`probe_dynamic_power_w`], Table II ≈10 W).
    pub fn estimate(
        baseline_energy_j: f64,
        baseline_time_s: f64,
        improved_energy_j: f64,
        improved_time_s: f64,
        probe_dynamic_w: f64,
    ) -> SavingsBreakdown {
        let total_j = baseline_energy_j - improved_energy_j;
        let dt = (baseline_time_s - improved_time_s).max(0.0);
        // Dynamic savings cannot exceed the total (the estimator is a bound,
        // not an oracle).
        let dynamic_j = (probe_dynamic_w * dt).min(total_j.max(0.0));
        SavingsBreakdown {
            total_j,
            dynamic_j,
            static_j: total_j - dynamic_j,
        }
    }

    /// Static share of the savings, percent (the paper's headline 91%).
    pub fn static_pct(&self) -> f64 {
        if self.total_j <= 0.0 {
            0.0
        } else {
            self.static_j / self.total_j * 100.0
        }
    }

    /// Dynamic share of the savings, percent (the paper's 9%).
    pub fn dynamic_pct(&self) -> f64 {
        if self.total_j <= 0.0 {
            0.0
        } else {
            self.dynamic_j / self.total_j * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::{Phase, PowerDraw, Segment, SimDuration, SimTime};

    #[test]
    fn probe_dynamic_power_subtracts_static_floor() {
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(50),
            draw: PowerDraw {
                board_w: 115.1,
                ..PowerDraw::ZERO
            },
            phase: Phase::IoBench,
        });
        let dyn_w = probe_dynamic_power_w(&tl, 104.8);
        assert!((dyn_w - 10.3).abs() < 1e-9);
        // Floor above the probe ⇒ clamped to zero, not negative.
        assert_eq!(probe_dynamic_power_w(&tl, 120.0), 0.0);
    }

    #[test]
    fn paper_case1_arithmetic() {
        // E_post ≈ 29.7 kJ over 238 s; E_insitu ≈ 17.0 kJ over 127 s;
        // probe ≈ 10.15 W ⇒ dynamic ≈ 1.13 kJ, static ≈ 11.6 kJ (≈91%).
        let b = SavingsBreakdown::estimate(29_700.0, 238.0, 17_000.0, 127.0, 10.15);
        assert!((b.total_j - 12_700.0).abs() < 1.0);
        assert!((b.dynamic_j - 10.15 * 111.0).abs() < 1.0);
        assert!(
            (b.static_pct() - 91.1).abs() < 1.0,
            "got {}",
            b.static_pct()
        );
        assert!((b.static_pct() + b.dynamic_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dynamic_is_capped_at_total() {
        let b = SavingsBreakdown::estimate(1000.0, 100.0, 990.0, 10.0, 50.0);
        assert!((b.dynamic_j - 10.0).abs() < 1e-9);
        assert_eq!(b.static_j, 0.0);
    }

    #[test]
    fn no_improvement_means_no_shares() {
        let b = SavingsBreakdown::estimate(1000.0, 100.0, 1000.0, 100.0, 10.0);
        assert_eq!(b.total_j, 0.0);
        assert_eq!(b.static_pct(), 0.0);
        assert_eq!(b.dynamic_pct(), 0.0);
    }
}
