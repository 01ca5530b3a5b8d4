//! MSR-level emulation of Intel's Running Average Power Limit interface.
//!
//! RAPL (David et al., ISLPED'10 — the paper's ref [5]) exposes per-domain
//! energy through model-specific registers: `MSR_RAPL_POWER_UNIT` declares the
//! energy quantum (Sandy Bridge default: 2⁻¹⁶ J ≈ 15.26 µJ) and
//! `MSR_*_ENERGY_STATUS` hold 32-bit counters of consumed quanta that wrap
//! around silently (on a busy Sandy Bridge, roughly once an hour). Tools that
//! read RAPL must handle the units and the wrap; this module reproduces both
//! so that the downstream profile code is exercised exactly like a real
//! RAPL consumer.

use std::cell::Cell;

use greenness_platform::power::EnergyBreakdown;
use greenness_platform::{SimTime, Timeline};
use greenness_trace::{Tracer, Value};

/// A RAPL power domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaplDomain {
    /// The whole processor package (both sockets summed, as the paper plots).
    Package,
    /// Power-plane 0: the cores. Modeled as package minus a constant uncore
    /// floor.
    Pp0,
    /// The DRAM domain.
    Dram,
}

/// Emulated RAPL model-specific registers over a completed power timeline.
#[derive(Debug, Clone)]
pub struct RaplMsr<'a> {
    timeline: &'a Timeline,
    /// `(n, energy of the first n segments)` as of the last read: a poller
    /// reads at increasing instants, so the next read resumes the fold here.
    folded: Cell<(usize, EnergyBreakdown)>,
}

/// Energy-status-unit exponent from `MSR_RAPL_POWER_UNIT` bits 12:8. Sandy
/// Bridge reports 16 ⇒ quantum `2⁻¹⁶ J`.
const ENERGY_UNIT_EXP: i32 = 16;

/// Constant uncore power subtracted from the package to model PP0, watts.
const UNCORE_FLOOR_W: f64 = 14.0;

impl<'a> RaplMsr<'a> {
    /// RAPL registers for a node run, with the Sandy Bridge default unit.
    pub fn new(timeline: &'a Timeline) -> Self {
        RaplMsr {
            timeline,
            folded: Cell::new((0, EnergyBreakdown::ZERO)),
        }
    }

    /// The energy quantum in joules (`2^-exp`).
    fn energy_unit_j(&self) -> f64 {
        (0.5f64).powi(ENERGY_UNIT_EXP)
    }

    /// True (unquantized, unwrapped) energy consumed by `domain` up to `t`,
    /// joules: `Timeline::energy_between(SimTime::ZERO, t)`, bit for bit.
    /// Whole segments are folded once, in order, and the one containing `t`
    /// is added last on a copy: the order and arithmetic of integrating
    /// afresh (DESIGN.md, `greenness-power`). A read behind the last one
    /// refolds from the first segment.
    fn true_energy_j(&self, domain: RaplDomain, t: SimTime) -> f64 {
        let segments = self.timeline.segments();
        let (mut n, mut e) = self.folded.get();
        if n > 0 && segments[n - 1].end() > t {
            (n, e) = (0, EnergyBreakdown::ZERO);
        }
        while let Some(seg) = segments.get(n).filter(|seg| seg.end() <= t) {
            e.accumulate(seg.draw, seg.duration.as_secs_f64());
            n += 1;
        }
        self.folded.set((n, e));
        if let Some(seg) = segments.get(n).filter(|seg| seg.start < t) {
            e.accumulate(seg.draw, t.duration_since(seg.start).as_secs_f64());
        }
        match domain {
            RaplDomain::Package => e.package_j,
            RaplDomain::Pp0 => (e.package_j - UNCORE_FLOOR_W * t.as_secs_f64()).max(0.0),
            RaplDomain::Dram => e.dram_j,
        }
    }

    /// Raw value of the domain's `ENERGY_STATUS` MSR at virtual time `t`:
    /// consumed quanta, truncated to 32 bits (the hardware counter wraps).
    fn read_energy_status_msr(&self, domain: RaplDomain, t: SimTime) -> u64 {
        let quanta = (self.true_energy_j(domain, t) / self.energy_unit_j()) as u64;
        quanta & 0xffff_ffff
    }
}

/// A software RAPL poller: reads the energy-status MSRs at a fixed period and
/// reconstructs average power per interval, handling counter wrap-around —
/// the standard consumer-side algorithm.
#[derive(Debug, Clone)]
pub struct RaplReader {
    /// Polling period, seconds (the paper polls at 1 Hz to minimize
    /// interference).
    pub period_s: f64,
}

impl Default for RaplReader {
    fn default() -> Self {
        RaplReader { period_s: 1.0 }
    }
}

impl RaplReader {
    /// Poll `domain` over the whole run and return `(interval_end_s, watts)`
    /// per interval.
    ///
    /// Interval boundaries come from an integer interval index (`t = k ×
    /// period`), never from a floating accumulator: over a 10,000 s run at a
    /// 1 kHz period an accumulated `t += period` drifts by whole intervals,
    /// skipping or double-sampling near the end. If the run does not end on
    /// an interval boundary a final *partial* interval `(end_s, watts)` is
    /// emitted so the energy tail is not dropped; its power is averaged over
    /// the true remaining width.
    ///
    /// Instrumentation goes to `tracer`: one `rapl.poll` event per
    /// interval, plus `rapl.polls` / `rapl.wraps` / `rapl.partial_intervals`
    /// counters. Poll events happen after the run is over, so they carry the
    /// end-of-run virtual timestamp and the interval time in a `t_s` field.
    pub fn poll_traced(
        &self,
        msr: &RaplMsr<'_>,
        domain: RaplDomain,
        tracer: &Tracer,
    ) -> Vec<(f64, f64)> {
        assert!(self.period_s > 0.0, "polling period must be positive");
        let end = msr.timeline.end();
        let end_s = end.as_secs_f64();
        let unit = msr.energy_unit_j();
        let domain_label = match domain {
            RaplDomain::Package => "package",
            RaplDomain::Pp0 => "pp0",
            RaplDomain::Dram => "dram",
        };
        let t_ns = end.as_nanos();
        let mut out = Vec::new();
        let mut prev = msr.read_energy_status_msr(domain, SimTime::ZERO);
        let full = ((end_s + 1e-9) / self.period_s).floor() as u64;
        let sample = |t: f64, at: SimTime, width: f64, prev: &mut u64| -> f64 {
            let now = msr.read_energy_status_msr(domain, at);
            if now < *prev {
                tracer.count("rapl.wraps", 1);
            }
            // 32-bit wrap-aware delta.
            let delta = now.wrapping_sub(*prev) & 0xffff_ffff;
            *prev = now;
            let w = delta as f64 * unit / width;
            tracer.count("rapl.polls", 1);
            if tracer.is_on() {
                tracer.instant(
                    t_ns,
                    "rapl.poll",
                    vec![
                        ("domain", Value::label(domain_label)),
                        ("t_s", Value::from(t)),
                        ("watts", Value::from(w)),
                    ],
                );
            }
            w
        };
        for k in 1..=full {
            let t = k as f64 * self.period_s;
            let w = sample(t, SimTime::from_secs_f64(t), self.period_s, &mut prev);
            out.push((t, w));
        }
        let covered = full as f64 * self.period_s;
        let tail = end_s - covered;
        if tail > 1e-9 {
            let w = sample(end_s, end, tail, &mut prev);
            out.push((end_s, w));
            tracer.count("rapl.partial_intervals", 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::{Phase, PowerDraw, Segment, SimDuration};
    use proptest::prelude::*;

    /// Build a timeline holding `package_w`/`dram_w` constant for `secs`.
    fn constant_timeline(package_w: f64, dram_w: f64, secs: u64) -> Timeline {
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(secs),
            draw: PowerDraw {
                package_w,
                dram_w,
                disk_w: 5.0,
                net_w: 0.0,
                board_w: 50.0,
            },
            phase: Phase::Other,
        });
        tl
    }

    #[test]
    fn sandy_bridge_energy_unit() {
        let tl = constant_timeline(70.0, 15.0, 10);
        let msr = RaplMsr::new(&tl);
        assert!((msr.energy_unit_j() - 15.258789e-6).abs() < 1e-9);
    }

    #[test]
    fn counter_tracks_true_energy_within_one_quantum() {
        let tl = constant_timeline(70.0, 15.0, 10);
        let msr = RaplMsr::new(&tl);
        let t = SimTime::from_secs_f64(7.0);
        let raw = msr.read_energy_status_msr(RaplDomain::Package, t);
        let reconstructed = raw as f64 * msr.energy_unit_j();
        let truth = msr.true_energy_j(RaplDomain::Package, t);
        assert!(
            (reconstructed - truth).abs() <= msr.energy_unit_j(),
            "{reconstructed} vs {truth}"
        );
    }

    #[test]
    fn reader_reconstructs_constant_power() {
        let tl = constant_timeline(71.8, 16.3, 20);
        let msr = RaplMsr::new(&tl);
        let samples = RaplReader::default().poll_traced(&msr, RaplDomain::Package, &Tracer::off());
        assert_eq!(samples.len(), 20);
        for (_, w) in &samples {
            assert!((w - 71.8).abs() < 1e-3, "got {w}");
        }
        let dram = RaplReader::default().poll_traced(&msr, RaplDomain::Dram, &Tracer::off());
        assert!((dram[5].1 - 16.3).abs() < 1e-3);
    }

    #[test]
    fn reader_survives_counter_wraparound() {
        // 2^32 quanta ≈ 65536 J; at 100 W package the counter wraps every
        // ≈655 s. Run for 2000 s and check every reconstructed interval.
        let tl = constant_timeline(100.0, 10.0, 2000);
        let msr = RaplMsr::new(&tl);
        // Confirm at least two wraps actually occur.
        let quanta_total = msr.true_energy_j(RaplDomain::Package, tl.end()) / msr.energy_unit_j();
        assert!(quanta_total > 2.0 * 2f64.powi(32));
        let samples = RaplReader::default().poll_traced(&msr, RaplDomain::Package, &Tracer::off());
        assert_eq!(samples.len(), 2000);
        for (t, w) in &samples {
            assert!((w - 100.0).abs() < 1e-3, "at t={t}: got {w}");
        }
    }

    #[test]
    fn pp0_is_package_minus_uncore_floor() {
        let tl = constant_timeline(70.0, 10.0, 10);
        let msr = RaplMsr::new(&tl);
        let pkg = msr.true_energy_j(RaplDomain::Package, tl.end());
        let pp0 = msr.true_energy_j(RaplDomain::Pp0, tl.end());
        assert!((pkg - pp0 - 14.0 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn pp0_never_goes_negative() {
        let tl = constant_timeline(5.0, 1.0, 10); // package below uncore floor
        let msr = RaplMsr::new(&tl);
        assert_eq!(msr.true_energy_j(RaplDomain::Pp0, tl.end()), 0.0);
    }

    #[test]
    fn long_run_polled_energy_matches_timeline_within_one_quantum() {
        // Regression for the float-drift + dropped-tail bug: a ≥10,000 s run
        // at 100 W package wraps the 32-bit counter every ≈655 s (15 times
        // here) and ends 0.4 s past an interval boundary. The integer-index
        // poller must visit every 1 s boundary exactly (no skipped or
        // doubled intervals) and emit the trailing partial interval; summed
        // polled energy then telescopes to the final counter value, i.e.
        // matches `Timeline::energy_between` within one 15.26 µJ quantum
        // per interval.
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs_f64(10_000.4),
            draw: PowerDraw {
                package_w: 100.0,
                dram_w: 10.0,
                disk_w: 5.0,
                net_w: 0.0,
                board_w: 50.0,
            },
            phase: Phase::Other,
        });
        let msr = RaplMsr::new(&tl);
        let quanta_total = msr.true_energy_j(RaplDomain::Package, tl.end()) / msr.energy_unit_j();
        assert!(quanta_total > 15.0 * 2f64.powi(32), "want ≥15 wraps");

        let tracer = Tracer::jsonl();
        let reader = RaplReader::default();
        let samples = reader.poll_traced(&msr, RaplDomain::Package, &tracer);

        // 10,000 full intervals + 1 partial; boundaries exactly at k·1 s.
        assert_eq!(samples.len(), 10_001);
        for (k, (t, _)) in samples.iter().take(10_000).enumerate() {
            assert!(
                (t - (k + 1) as f64).abs() < 1e-9,
                "interval {k} ends at {t}, drifted off the boundary"
            );
        }
        let (last_t, last_w) = *samples.last().unwrap();
        assert!((last_t - 10_000.4).abs() < 1e-9, "partial tail at {last_t}");
        assert!((last_w - 100.0).abs() < 0.1, "tail power {last_w}");

        // Summed polled energy vs exact timeline energy. Every wrap was
        // observed (power × period ≪ 2^32 quanta), so the quantization
        // error telescopes: well under one quantum per interval.
        let mut polled_j = 0.0;
        let mut prev_t = 0.0;
        for &(t, w) in &samples {
            polled_j += w * (t - prev_t);
            prev_t = t;
        }
        let truth_j = tl.energy_between(SimTime::ZERO, tl.end()).package_j;
        let budget_j = msr.energy_unit_j() * samples.len() as f64;
        assert!(
            (polled_j - truth_j).abs() <= budget_j,
            "polled {polled_j} J vs true {truth_j} J (budget {budget_j} J)"
        );
        // The counters saw every wrap and the one partial interval.
        assert_eq!(tracer.counter("rapl.wraps"), 15);
        assert_eq!(tracer.counter("rapl.partial_intervals"), 1);
        assert_eq!(tracer.counter("rapl.polls"), 10_001);
    }

    #[test]
    fn partial_final_interval_is_emitted_with_true_width() {
        // 10.5 s run, 1 s period: 10 full intervals plus a 0.5 s tail whose
        // energy the old poller silently dropped.
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs_f64(10.5),
            draw: PowerDraw {
                package_w: 80.0,
                dram_w: 10.0,
                disk_w: 5.0,
                net_w: 0.0,
                board_w: 50.0,
            },
            phase: Phase::Other,
        });
        let msr = RaplMsr::new(&tl);
        let samples = RaplReader::default().poll_traced(&msr, RaplDomain::Package, &Tracer::off());
        assert_eq!(samples.len(), 11);
        let (t, w) = *samples.last().unwrap();
        assert!((t - 10.5).abs() < 1e-9);
        // Tail power is averaged over the true 0.5 s width, not the period.
        assert!((w - 80.0).abs() < 0.1, "got {w}");
        // And a run that ends exactly on a boundary gains no extra sample.
        let exact = constant_timeline(80.0, 10.0, 10);
        let msr = RaplMsr::new(&exact);
        assert_eq!(
            RaplReader::default()
                .poll_traced(&msr, RaplDomain::Package, &Tracer::off())
                .len(),
            10
        );
    }

    #[test]
    fn subsecond_polling_is_supported() {
        let tl = constant_timeline(70.0, 10.0, 5);
        let msr = RaplMsr::new(&tl);
        let reader = RaplReader { period_s: 0.001 }; // RAPL updates at ~1 kHz
        let samples = reader.poll_traced(&msr, RaplDomain::Package, &Tracer::off());
        assert_eq!(samples.len(), 5000);
        // Quantization error at 1 kHz is unit/period = ~15 mW.
        for (_, w) in &samples {
            assert!((w - 70.0).abs() < 0.05, "got {w}");
        }
    }

    fn arb_timeline() -> impl Strategy<Value = Timeline> {
        prop::collection::vec(
            (
                1u64..30_000_000_000,
                20.0..120.0f64,
                1.0..30.0f64,
                30.0..80.0f64,
            ),
            1..25,
        )
        .prop_map(|spans| {
            let mut tl = Timeline::new();
            let mut t = SimTime::ZERO;
            for (ns, package_w, dram_w, board_w) in spans {
                let duration = SimDuration::from_nanos(ns);
                tl.push(Segment {
                    start: t,
                    duration,
                    draw: PowerDraw {
                        package_w,
                        dram_w,
                        disk_w: 5.0,
                        net_w: 0.0,
                        board_w,
                    },
                    phase: Phase::Other,
                });
                t += duration;
            }
            tl
        })
    }

    /// `[0, t]` integrated afresh, every segment from the first, in order: what
    /// `true_energy_j` did on every read before it kept a running fold.
    fn energy_until_from_scratch(tl: &Timeline, t: SimTime) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::ZERO;
        for seg in tl.segments() {
            if seg.start >= t {
                break;
            }
            let clipped = seg.end().min(t).duration_since(seg.start);
            e.accumulate(seg.draw, clipped.as_secs_f64());
        }
        e
    }

    fn bits(e: EnergyBreakdown) -> [u64; 5] {
        [e.package_j, e.dram_j, e.disk_j, e.net_j, e.board_j].map(f64::to_bits)
    }

    #[test]
    fn an_empty_timeline_reads_zero_at_every_instant() {
        let tl = Timeline::new();
        let msr = RaplMsr::new(&tl);
        for ns in [0, 1_000_000_000, 5, u64::MAX] {
            for domain in [RaplDomain::Package, RaplDomain::Pp0, RaplDomain::Dram] {
                let e = msr.true_energy_j(domain, SimTime::from_nanos(ns));
                assert_eq!(e.to_bits(), 0.0f64.to_bits());
            }
        }
    }

    proptest! {
        /// `true_energy_j` resumes a running fold between reads. Whatever order
        /// the reads come in (a poll per domain, the same instant twice, an
        /// earlier instant, one before the first segment or past the end) each
        /// answers with the exact bits of integrating `[0, t]` afresh.
        #[test]
        fn rapl_running_total_is_bit_equal_to_integrating_afresh(
            tl in arb_timeline(),
            late_by in prop_oneof![Just(0u64), 1u64..3_000_000_000],
            fracs in prop::collection::vec(0.0..1.2f64, 1..30),
        ) {
            // The same history, possibly beginning mid-run.
            let mut shifted = Timeline::new();
            for seg in tl.segments() {
                shifted.push(Segment { start: seg.start + SimDuration::from_nanos(late_by), ..*seg });
            }
            let tl = shifted;
            let msr = RaplMsr::new(&tl);
            let instants: Vec<SimTime> = fracs
                .iter()
                .map(|f| SimTime::from_nanos((tl.end().as_nanos() as f64 * f) as u64))
                .collect();
            let mut monotone = instants.clone();
            monotone.sort();
            for &t in monotone.iter().chain(&instants) {
                let afresh = energy_until_from_scratch(&tl, t);
                prop_assert_eq!(bits(afresh), bits(tl.energy_between(SimTime::ZERO, t)));
                for (domain, want) in [
                    (RaplDomain::Package, afresh.package_j),
                    (RaplDomain::Dram, afresh.dram_j),
                    (RaplDomain::Package, afresh.package_j),
                ] {
                    prop_assert_eq!(msr.true_energy_j(domain, t).to_bits(), want.to_bits(),
                        "{:?} at {}", domain, t);
                }
            }
        }
    }
}
