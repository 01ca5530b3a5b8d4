//! The node's power history: a sequence of piecewise-constant power segments.
//!
//! Every [`Activity`](crate::Activity) the node executes appends one segment
//! `(start, duration, per-subsystem draw, phase)`. Segments are contiguous and
//! non-overlapping by construction (the node is a single sequential workload,
//! as in the paper's single-application testbed). Energy integration over a
//! piecewise-constant function is exact — no quadrature error — so the
//! instrumentation layer can be validated against closed-form sums.

use crate::phase::Phase;
use crate::power::{EnergyBreakdown, PowerDraw};
use crate::time::{SimDuration, SimTime};

/// One piecewise-constant span of the node's power history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// When the span begins.
    pub start: SimTime,
    /// How long the draw is held.
    pub duration: SimDuration,
    /// Per-subsystem power during the span.
    pub draw: PowerDraw,
    /// Pipeline stage this span belongs to.
    pub phase: Phase,
}

impl Segment {
    /// The instant the span ends.
    #[inline]
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Energy consumed during the span, per subsystem.
    fn energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::ZERO;
        e.accumulate(self.draw, self.duration.as_secs_f64());
        e
    }
}

/// The complete, ordered power history of a node run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    segments: Vec<Segment>,
}

impl Timeline {
    /// An empty timeline starting at `t = 0`.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// All segments, in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments recorded.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The instant the recorded history ends (total run time).
    pub fn end(&self) -> SimTime {
        self.segments.last().map_or(SimTime::ZERO, Segment::end)
    }

    /// Append a segment. Panics if it does not start exactly where the
    /// previous one ended — the node is a single sequential workload and a gap
    /// or overlap indicates an accounting bug. The *first* segment may start
    /// anywhere: a timeline can describe a history that begins mid-run (e.g.
    /// a clipped view), and instants before that start draw zero power.
    pub fn push(&mut self, seg: Segment) {
        if let Some(last) = self.segments.last() {
            assert_eq!(
                seg.start,
                last.end(),
                "timeline segments must be contiguous (gap/overlap at {})",
                seg.start
            );
        }
        assert!(
            seg.draw.is_physical(),
            "non-physical power draw {:?}",
            seg.draw
        );
        if seg.duration.is_zero() {
            return; // zero-length spans carry no energy and only bloat the history
        }
        // Merge with the previous segment when the draw and phase are
        // identical; long runs of identical I/O chunks collapse to one span.
        if let Some(last) = self.segments.last_mut() {
            if last.draw == seg.draw && last.phase == seg.phase {
                last.duration += seg.duration;
                return;
            }
        }
        self.segments.push(seg);
    }

    /// Exact full-system energy of the whole run, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy().system_j()
    }

    /// Exact per-subsystem energy of the whole run.
    fn energy(&self) -> EnergyBreakdown {
        self.segments.iter().map(Segment::energy).sum()
    }

    /// Exact per-subsystem energy between two instants (clipping segments).
    pub fn energy_between(&self, from: SimTime, to: SimTime) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::ZERO;
        if to <= from {
            return e;
        }
        // Segments are sorted and contiguous, so the first one that overlaps
        // the window is found by bisection; the ones before it add nothing.
        let first = self.segments.partition_point(|seg| seg.end() <= from);
        for seg in &self.segments[first..] {
            if seg.start >= to {
                break;
            }
            let lo = seg.start.max(from);
            let hi = seg.end().min(to);
            e.accumulate(seg.draw, hi.duration_since(lo).as_secs_f64());
        }
        e
    }

    /// The draw in effect at instant `t` (the segment containing `t`;
    /// zero draw before the history starts and past its end).
    pub fn draw_at(&self, t: SimTime) -> PowerDraw {
        // Binary search over segment starts; segments are sorted and contiguous.
        let idx = self.segments.partition_point(|s| s.start <= t);
        if idx == 0 {
            // `t` precedes the first segment: nothing was drawing yet.
            return PowerDraw::ZERO;
        }
        let seg = &self.segments[idx - 1];
        if t < seg.end() {
            seg.draw
        } else {
            PowerDraw::ZERO
        }
    }

    /// Time-averaged full-system power over the whole run, in watts.
    pub fn average_power_w(&self) -> f64 {
        let t = self.end().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.total_energy_j() / t
        }
    }

    /// Peak full-system power over the whole run, in watts. For a
    /// piecewise-constant history this is exact (the max over segments).
    pub fn peak_power_w(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.draw.system_w())
            .fold(0.0, f64::max)
    }

    /// Total time spent in `phase`.
    pub fn phase_duration(&self, phase: Phase) -> SimDuration {
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.duration)
            .sum()
    }

    /// Total energy consumed in `phase`.
    pub fn phase_energy(&self, phase: Phase) -> EnergyBreakdown {
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .map(Segment::energy)
            .sum()
    }

    /// Time-averaged full-system power while in `phase`, in watts
    /// (zero if the phase never ran).
    pub fn phase_average_power_w(&self, phase: Phase) -> f64 {
        let t = self.phase_duration(phase).as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.phase_energy(phase).system_j() / t
        }
    }

    /// `(phase, duration)` for every phase that appears, in [`Phase::ALL`] order.
    pub fn phase_breakdown(&self) -> Vec<(Phase, SimDuration)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.phase_duration(p)))
            .filter(|(_, d)| !d.is_zero())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start_s: u64, dur_s: u64, system_w: f64, phase: Phase) -> Segment {
        Segment {
            start: SimTime::from_nanos(start_s * 1_000_000_000),
            duration: SimDuration::from_secs(dur_s),
            draw: PowerDraw {
                board_w: system_w,
                ..PowerDraw::ZERO
            },
            phase,
        }
    }

    #[test]
    fn push_and_integrate() {
        let mut tl = Timeline::new();
        tl.push(seg(0, 10, 100.0, Phase::Simulation));
        tl.push(seg(10, 5, 120.0, Phase::Write));
        assert_eq!(tl.end().as_secs_f64(), 15.0);
        assert!((tl.total_energy_j() - (1000.0 + 600.0)).abs() < 1e-9);
        assert!((tl.average_power_w() - 1600.0 / 15.0).abs() < 1e-9);
        assert!((tl.peak_power_w() - 120.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn push_rejects_gaps() {
        let mut tl = Timeline::new();
        tl.push(seg(0, 10, 100.0, Phase::Simulation));
        tl.push(seg(11, 5, 120.0, Phase::Write));
    }

    #[test]
    fn identical_adjacent_segments_merge() {
        let mut tl = Timeline::new();
        tl.push(seg(0, 1, 100.0, Phase::Write));
        tl.push(seg(1, 1, 100.0, Phase::Write));
        tl.push(seg(2, 1, 100.0, Phase::Read));
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.phase_duration(Phase::Write), SimDuration::from_secs(2));
    }

    #[test]
    fn zero_length_segments_are_dropped() {
        let mut tl = Timeline::new();
        tl.push(seg(0, 0, 100.0, Phase::Idle));
        assert!(tl.is_empty());
    }

    #[test]
    fn energy_between_clips_segments() {
        let mut tl = Timeline::new();
        tl.push(seg(0, 10, 100.0, Phase::Simulation));
        tl.push(seg(10, 10, 200.0, Phase::Write));
        let e = tl
            .energy_between(SimTime::from_secs_f64(5.0), SimTime::from_secs_f64(15.0))
            .system_j();
        assert!((e - (5.0 * 100.0 + 5.0 * 200.0)).abs() < 1e-9);
        // Degenerate and out-of-range windows.
        let z = tl.energy_between(SimTime::from_secs_f64(7.0), SimTime::from_secs_f64(7.0));
        assert_eq!(z.system_j(), 0.0);
        let tail = tl
            .energy_between(SimTime::from_secs_f64(19.0), SimTime::from_secs_f64(99.0))
            .system_j();
        assert!((tail - 200.0).abs() < 1e-9);
    }

    #[test]
    fn draw_at_finds_the_containing_segment() {
        let mut tl = Timeline::new();
        tl.push(seg(0, 10, 100.0, Phase::Simulation));
        tl.push(seg(10, 10, 200.0, Phase::Write));
        assert_eq!(tl.draw_at(SimTime::ZERO).system_w(), 100.0);
        assert_eq!(tl.draw_at(SimTime::from_secs_f64(9.999)).system_w(), 100.0);
        assert_eq!(tl.draw_at(SimTime::from_secs_f64(10.0)).system_w(), 200.0);
        assert_eq!(tl.draw_at(SimTime::from_secs_f64(25.0)).system_w(), 0.0);
    }

    #[test]
    fn draw_at_is_zero_before_the_history_starts() {
        // A timeline that begins mid-run (first segment at t = 5 s).
        let mut tl = Timeline::new();
        tl.push(seg(5, 10, 100.0, Phase::Simulation));
        tl.push(seg(15, 5, 200.0, Phase::Write));
        // Before the first segment: zero, not the first segment's draw.
        assert_eq!(tl.draw_at(SimTime::ZERO), PowerDraw::ZERO);
        assert_eq!(tl.draw_at(SimTime::from_secs_f64(4.999)), PowerDraw::ZERO);
        // Exact start boundary belongs to the first segment.
        assert_eq!(tl.draw_at(SimTime::from_secs_f64(5.0)).system_w(), 100.0);
        // Interior boundary belongs to the later segment; exact end is past-end.
        assert_eq!(tl.draw_at(SimTime::from_secs_f64(15.0)).system_w(), 200.0);
        assert_eq!(tl.draw_at(SimTime::from_secs_f64(20.0)), PowerDraw::ZERO);
        assert_eq!(tl.draw_at(SimTime::from_secs_f64(99.0)), PowerDraw::ZERO);
        // An empty timeline draws nothing anywhere.
        assert_eq!(Timeline::new().draw_at(SimTime::ZERO), PowerDraw::ZERO);
    }

    #[test]
    fn phase_accounting() {
        let mut tl = Timeline::new();
        tl.push(seg(0, 6, 143.0, Phase::Simulation));
        tl.push(seg(6, 4, 115.0, Phase::Write));
        tl.push(seg(10, 6, 143.0, Phase::Simulation));
        assert_eq!(
            tl.phase_duration(Phase::Simulation),
            SimDuration::from_secs(12)
        );
        assert!((tl.phase_average_power_w(Phase::Simulation) - 143.0).abs() < 1e-9);
        assert!((tl.phase_energy(Phase::Write).system_j() - 460.0).abs() < 1e-9);
        let breakdown = tl.phase_breakdown();
        assert_eq!(breakdown.len(), 2);
        assert_eq!(tl.phase_average_power_w(Phase::Read), 0.0);
    }
}
