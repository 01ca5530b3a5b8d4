//! Green metrics: the quantities of Figures 7–11.
//!
//! The paper compares pipelines on execution time (Fig. 7), average power
//! (Fig. 8), peak power (Fig. 9), energy (Fig. 10), and normalized energy
//! efficiency (Fig. 11). [`GreenMetrics`] derives all five, plus the
//! energy-delay products commonly used alongside them, from a completed
//! power timeline and a count of useful work units.

use greenness_platform::Timeline;

/// Summary metrics of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreenMetrics {
    /// Wall-clock (virtual) execution time, seconds.
    pub execution_time_s: f64,
    /// Time-averaged full-system power, watts.
    pub average_power_w: f64,
    /// Peak full-system power, watts.
    pub peak_power_w: f64,
    /// Full-system energy, joules.
    pub energy_j: f64,
    /// Useful work accomplished (e.g. cell-updates × timesteps); the basis
    /// of the efficiency metric.
    pub work_units: f64,
}

impl GreenMetrics {
    /// Derive metrics from a run's timeline. `work_units` is the useful work
    /// the run accomplished; both pipelines in a comparison must count it the
    /// same way.
    pub fn from_timeline(timeline: &Timeline, work_units: f64) -> GreenMetrics {
        GreenMetrics {
            execution_time_s: timeline.end().as_secs_f64(),
            average_power_w: timeline.average_power_w(),
            peak_power_w: timeline.peak_power_w(),
            energy_j: timeline.total_energy_j(),
            work_units,
        }
    }

    /// Energy efficiency: useful work per joule.
    fn efficiency(&self) -> f64 {
        if self.energy_j <= 0.0 {
            0.0
        } else {
            self.work_units / self.energy_j
        }
    }

    /// This run's efficiency normalized against `baseline` (Fig. 11 plots
    /// efficiency normalized to the best performer).
    pub fn normalized_efficiency(&self, baseline: &GreenMetrics) -> f64 {
        let b = baseline.efficiency();
        if b <= 0.0 {
            0.0
        } else {
            self.efficiency() / b
        }
    }

    /// Percentage by which `self` improves on `other` for a
    /// lower-is-better quantity, e.g. `time_reduction_vs` = 43 means 43% less.
    pub fn energy_reduction_vs(&self, other: &GreenMetrics) -> f64 {
        percent_reduction(self.energy_j, other.energy_j)
    }

    /// Percent execution-time reduction relative to `other`.
    pub fn time_reduction_vs(&self, other: &GreenMetrics) -> f64 {
        percent_reduction(self.execution_time_s, other.execution_time_s)
    }

    /// Percent average-power *increase* relative to `other` (the paper
    /// reports in-situ drawing 8/5/3% more).
    pub fn power_increase_vs(&self, other: &GreenMetrics) -> f64 {
        if other.average_power_w <= 0.0 {
            0.0
        } else {
            (self.average_power_w / other.average_power_w - 1.0) * 100.0
        }
    }
}

fn percent_reduction(ours: f64, theirs: f64) -> f64 {
    if theirs <= 0.0 {
        0.0
    } else {
        (1.0 - ours / theirs) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::{Phase, PowerDraw, Segment, SimDuration, SimTime};

    fn run(avg_w: f64, secs: u64) -> GreenMetrics {
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(secs),
            draw: PowerDraw {
                board_w: avg_w,
                ..PowerDraw::ZERO
            },
            phase: Phase::Other,
        });
        GreenMetrics::from_timeline(&tl, 1000.0)
    }

    #[test]
    fn basic_derivation() {
        let m = run(125.0, 238);
        assert_eq!(m.execution_time_s, 238.0);
        assert!((m.average_power_w - 125.0).abs() < 1e-9);
        assert!((m.energy_j - 29750.0).abs() < 1e-6);
        assert!((m.efficiency() - 1000.0 / 29750.0).abs() < 1e-12);
    }

    #[test]
    fn paper_case1_shape() {
        // Post-processing ≈125 W × 238 s, in-situ ≈133 W × 127 s:
        // energy −43%, time −47%, power +6–8%.
        let post = run(125.0, 238);
        let insitu = run(133.0, 127);
        let esave = insitu.energy_reduction_vs(&post);
        assert!((esave - 43.2).abs() < 1.5, "got {esave}");
        let tsave = insitu.time_reduction_vs(&post);
        assert!((tsave - 46.6).abs() < 1.0, "got {tsave}");
        let pinc = insitu.power_increase_vs(&post);
        assert!((pinc - 6.4).abs() < 1.0, "got {pinc}");
        assert!(insitu.normalized_efficiency(&post) > 1.5);
    }

    #[test]
    fn degenerate_runs_do_not_divide_by_zero() {
        let m = GreenMetrics {
            execution_time_s: 0.0,
            average_power_w: 0.0,
            peak_power_w: 0.0,
            energy_j: 0.0,
            work_units: 0.0,
        };
        assert_eq!(m.efficiency(), 0.0);
        assert_eq!(m.normalized_efficiency(&m), 0.0);
        assert_eq!(m.energy_reduction_vs(&m), 0.0);
        assert_eq!(m.power_increase_vs(&m), 0.0);
    }
}
