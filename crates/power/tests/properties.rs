//! Property-based tests for the instrumentation layer.

use greenness_platform::{Phase, PowerDraw, Segment, SimDuration, SimTime, Timeline};
use greenness_power::{
    probe_dynamic_power_w, PowerProfile, RaplDomain, RaplMsr, RaplReader, SavingsBreakdown,
    WattsupMeter,
};
use greenness_trace::Tracer;
use proptest::prelude::*;

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

proptest! {
    /// RAPL reconstruction matches true energy within quantization, across
    /// arbitrary timelines (including ones long enough to wrap the counter).
    #[test]
    fn rapl_reconstruction_tracks_truth(tl in arb_timeline()) {
        let msr = RaplMsr::new(&tl);
        let reader = RaplReader::default();
        for domain in [RaplDomain::Package, RaplDomain::Dram] {
            let samples = reader.poll_traced(&msr, domain, &Tracer::off());
            // Integrate with each interval's actual width: the final
            // interval may be partial (the poller emits the energy tail).
            let mut reconstructed = 0.0;
            let mut prev_t = 0.0;
            for &(t, w) in &samples {
                reconstructed += w * (t - prev_t);
                prev_t = t;
            }
            let e = tl.energy_between(SimTime::ZERO, SimTime::from_secs_f64(prev_t));
            let truth = if domain == RaplDomain::Package { e.package_j } else { e.dram_j };
            // Each interval can lose at most one 2⁻¹⁶ J quantum to truncation.
            let n = samples.len() as f64;
            let tol = (n + 1.0) * 0.5f64.powi(16) + 1e-9;
            prop_assert!((reconstructed - truth).abs() <= tol,
                "{domain:?}: {reconstructed} vs {truth} (tol {tol})");
        }
    }

    /// The noiseless wall meter integrates back to true energy within the
    /// integer-watt rounding budget (0.5 J per sample) plus the dropped
    /// partial final interval.
    #[test]
    fn wattsup_integration_error_is_bounded(tl in arb_timeline()) {
        let meter = WattsupMeter::noiseless();
        let log = meter.sample(&tl);
        let measured: f64 = log.iter().map(|(_, w)| w * meter.period_s).sum();
        let covered_s = log.len() as f64 * meter.period_s;
        let truth = tl
            .energy_between(SimTime::ZERO, SimTime::from_secs_f64(covered_s))
            .system_j();
        prop_assert!((measured - truth).abs() <= 0.5 * log.len() as f64 + 1e-6,
            "{measured} vs {truth}");
    }

    /// Profile channels satisfy system = package + dram + rest by
    /// construction, and rest stays non-negative for physical timelines
    /// (modulo rounding of the integer-watt system channel).
    #[test]
    fn profile_channels_are_consistent(tl in arb_timeline()) {
        let p = PowerProfile::measure(&tl, &WattsupMeter::noiseless());
        for s in &p.samples {
            prop_assert!((s.system_w - s.package_w - s.dram_w - s.rest_w()).abs() < 1e-9);
            prop_assert!(s.rest_w() >= -1.0, "rest went negative: {}", s.rest_w());
        }
    }

    /// Savings breakdown always partitions: static + dynamic = total, and the
    /// percentage shares sum to 100 when there are savings.
    #[test]
    fn breakdown_partitions(
        be in 1000.0..100_000.0f64,
        bt in 10.0..1000.0f64,
        frac_e in 0.1..1.0f64,
        frac_t in 0.1..1.0f64,
        probe_w in 0.0..30.0f64,
    ) {
        let b = SavingsBreakdown::estimate(be, bt, be * frac_e, bt * frac_t, probe_w);
        prop_assert!((b.static_j + b.dynamic_j - b.total_j).abs() < 1e-6);
        if b.total_j > 0.0 {
            prop_assert!((b.static_pct() + b.dynamic_pct() - 100.0).abs() < 1e-6);
            prop_assert!(b.dynamic_j >= 0.0);
        }
    }

    /// Probe dynamic power is never negative and is exactly avg − floor when
    /// the probe runs hotter than the floor.
    #[test]
    fn probe_power_clamps(avg_w in 50.0..200.0f64, floor in 50.0..200.0f64) {
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(10),
            draw: PowerDraw { board_w: avg_w, ..PowerDraw::ZERO },
            phase: Phase::IoBench,
        });
        let p = probe_dynamic_power_w(&tl, floor);
        prop_assert!(p >= 0.0);
        if avg_w > floor {
            prop_assert!((p - (avg_w - floor)).abs() < 1e-9);
        }
    }
}
