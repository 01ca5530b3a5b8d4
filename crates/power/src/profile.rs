//! Combined power profiles — the data behind Figures 5 and 6.
//!
//! A [`PowerProfile`] merges the two instruments the paper deploys: the
//! Wattsup wall meter gives the *system* channel, RAPL gives *package* and
//! *DRAM*, and the *rest of system* (disk, network, motherboard, fans) is
//! estimated by subtraction, exactly as §IV-B describes.

use greenness_platform::Timeline;
use greenness_trace::Tracer;

use crate::rapl::{RaplDomain, RaplMsr, RaplReader};
use crate::wattsup::WattsupMeter;

/// One row of a profile: power per channel at the end of a sampling interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSample {
    /// End of the sampling interval, seconds since the run started.
    pub t_s: f64,
    /// Full-system power (wall meter), watts.
    pub system_w: f64,
    /// Processor package power (RAPL PKG), watts.
    pub package_w: f64,
    /// DRAM power (RAPL DRAM), watts.
    pub dram_w: f64,
}

impl ProfileSample {
    /// The paper's "rest of system" estimate: `system − package − dram`.
    pub fn rest_w(&self) -> f64 {
        self.system_w - self.package_w - self.dram_w
    }
}

/// A sampled power profile of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PowerProfile {
    /// Samples in time order, equally spaced.
    pub samples: Vec<ProfileSample>,
    /// Sampling period, seconds.
    pub period_s: f64,
}

impl PowerProfile {
    /// Measure a completed run with the paper's instrument pair. The meter
    /// supplies noise configuration and cadence; RAPL is polled at the same
    /// cadence.
    pub fn measure(timeline: &Timeline, meter: &WattsupMeter) -> PowerProfile {
        Self::measure_traced(timeline, meter, &Tracer::off())
    }

    /// [`Self::measure`] with instrumentation routed through `tracer`: both
    /// instruments journal their samples and bump their counters (RAPL wrap
    /// events, dropped wall-meter samples, poll counts).
    pub fn measure_traced(
        timeline: &Timeline,
        meter: &WattsupMeter,
        tracer: &Tracer,
    ) -> PowerProfile {
        let wall = meter.sample_traced(timeline, tracer);
        let msr = RaplMsr::new(timeline);
        let reader = RaplReader {
            period_s: meter.period_s,
        };
        let pkg = reader.poll_traced(&msr, RaplDomain::Package, tracer);
        let dram = reader.poll_traced(&msr, RaplDomain::Dram, tracer);
        let n = wall.len().min(pkg.len()).min(dram.len());
        let samples = (0..n)
            .map(|i| ProfileSample {
                t_s: wall[i].0,
                system_w: wall[i].1,
                package_w: pkg[i].1,
                dram_w: dram[i].1,
            })
            .collect();
        PowerProfile {
            samples,
            period_s: meter.period_s,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the profile holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Average system power over the profile, watts.
    pub fn average_system_w(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.system_w).sum::<f64>() / self.samples.len() as f64
    }

    /// Peak system power over the profile, watts.
    fn peak_system_w(&self) -> f64 {
        self.samples.iter().map(|s| s.system_w).fold(0.0, f64::max)
    }

    /// Energy implied by the profile (reading × period summed), joules.
    pub fn energy_j(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.system_w * self.period_s)
            .sum()
    }

    /// Render as CSV with a header — the format the `repro` binary emits for
    /// the Figure 5/6 series.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_s,system_w,package_w,dram_w,rest_w\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{:.1},{:.1},{:.1},{:.1},{:.1}\n",
                s.t_s,
                s.system_w,
                s.package_w,
                s.dram_w,
                s.rest_w()
            ));
        }
        out
    }

    /// Render a coarse ASCII sparkline of the system channel (used by the
    /// `repro` binary to show the Figure 5 phase structure in a terminal).
    pub fn ascii_sparkline(&self, width: usize) -> String {
        if self.samples.is_empty() || width == 0 {
            return String::new();
        }
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let lo = self
            .samples
            .iter()
            .map(|s| s.system_w)
            .fold(f64::INFINITY, f64::min);
        let hi = self.peak_system_w();
        let span = (hi - lo).max(1e-9);
        let stride = (self.samples.len() as f64 / width as f64).max(1.0);
        let mut out = String::with_capacity(width);
        let mut i = 0.0;
        while (i as usize) < self.samples.len() && out.chars().count() < width {
            let s = &self.samples[i as usize];
            let level = (((s.system_w - lo) / span) * 7.0).round() as usize;
            out.push(GLYPHS[level.min(7)]);
            i += stride;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::{Phase, PowerDraw, Segment, SimDuration, SimTime};

    fn two_phase_timeline() -> Timeline {
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(10),
            draw: PowerDraw {
                package_w: 71.8,
                dram_w: 16.3,
                disk_w: 5.0,
                net_w: 0.0,
                board_w: 49.9,
            },
            phase: Phase::Simulation,
        });
        tl.push(Segment {
            start: SimTime::from_secs_f64(10.0),
            duration: SimDuration::from_secs(10),
            draw: PowerDraw {
                package_w: 46.0,
                dram_w: 11.0,
                disk_w: 13.0,
                net_w: 0.0,
                board_w: 49.9,
            },
            phase: Phase::Write,
        });
        tl
    }

    #[test]
    fn measure_combines_both_instruments() {
        let tl = two_phase_timeline();
        let p = PowerProfile::measure(&tl, &WattsupMeter::noiseless());
        assert_eq!(p.len(), 20);
        let first = &p.samples[0];
        assert!((first.system_w - 143.0).abs() < 1.0);
        assert!((first.package_w - 71.8).abs() < 0.1);
        assert!((first.dram_w - 16.3).abs() < 0.1);
        // Rest-of-system = system − package − dram ≈ disk + board.
        assert!((first.rest_w() - 54.9).abs() < 1.5);
    }

    #[test]
    fn profile_sees_the_phase_transition() {
        let tl = two_phase_timeline();
        let p = PowerProfile::measure(&tl, &WattsupMeter::noiseless());
        let early = p.samples[4].system_w;
        let late = p.samples[15].system_w;
        assert!(
            early > late + 15.0,
            "sim phase {early} should exceed write phase {late}"
        );
    }

    #[test]
    fn summary_statistics() {
        let tl = two_phase_timeline();
        let p = PowerProfile::measure(&tl, &WattsupMeter::noiseless());
        assert!((p.peak_system_w() - 143.0).abs() < 1.0);
        assert!((p.average_system_w() - (143.0 + 119.9) / 2.0).abs() < 1.0);
        assert!((p.energy_j() - tl.total_energy_j()).abs() < 30.0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let tl = two_phase_timeline();
        let csv = PowerProfile::measure(&tl, &WattsupMeter::noiseless()).to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t_s,system_w,package_w,dram_w,rest_w"));
        assert_eq!(lines.count(), 20);
    }

    #[test]
    fn sparkline_is_width_bounded_and_shows_contrast() {
        let tl = two_phase_timeline();
        let p = PowerProfile::measure(&tl, &WattsupMeter::noiseless());
        let s = p.ascii_sparkline(10);
        assert_eq!(s.chars().count(), 10);
        // High phase then low phase ⇒ first glyph taller than last.
        let first = s.chars().next().unwrap();
        let last = s.chars().last().unwrap();
        assert!(first > last, "{s}");
        assert!(p.ascii_sparkline(0).is_empty());
    }

    #[test]
    fn empty_timeline_gives_empty_profile() {
        let tl = Timeline::new();
        let p = PowerProfile::measure(&tl, &WattsupMeter::noiseless());
        assert!(p.is_empty());
        assert_eq!(p.average_system_w(), 0.0);
        assert_eq!(p.energy_j(), 0.0);
    }
}
