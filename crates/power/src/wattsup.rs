//! Wattsup Pro wall-meter emulation.
//!
//! The paper's full-system measurements come from a Wattsup Pro between the
//! node and the outlet, read over USB by a *separate* monitoring machine so
//! the instrument adds no load to the system under test (§IV-B, Figure 3).
//! The meter reports one integer-watt reading per second; its rated accuracy
//! is ±1.5%. We reproduce the 1 Hz cadence, the integer quantization, and a
//! seeded Gaussian accuracy error so profiles look and integrate like real
//! meter logs while staying deterministic.

use greenness_faults::Rng;
use greenness_platform::{SimTime, Timeline};
use greenness_trace::{Tracer, Value};

/// A simulated Wattsup Pro meter.
#[derive(Debug, Clone)]
pub struct WattsupMeter {
    /// Sampling period, seconds (the hardware is fixed at 1 Hz).
    pub period_s: f64,
    /// Relative standard deviation of the accuracy error (rated ±1.5% ≈
    /// a 0.5% σ). Zero disables noise entirely.
    pub noise_rel_sigma: f64,
    /// RNG seed for the accuracy error; same seed ⇒ identical log.
    pub seed: u64,
}

impl Default for WattsupMeter {
    fn default() -> Self {
        WattsupMeter {
            period_s: 1.0,
            noise_rel_sigma: 0.005,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl WattsupMeter {
    /// A noise-free meter (for exact regression tests).
    pub fn noiseless() -> Self {
        WattsupMeter {
            noise_rel_sigma: 0.0,
            ..Self::default()
        }
    }

    /// Sample the completed run: one `(interval_end_s, watts)` reading per
    /// period, each reading the integer-rounded average power over its
    /// interval plus the accuracy error.
    ///
    /// Interval boundaries derive from an integer sample index (no floating
    /// accumulator drift on long runs). Like the real instrument, an
    /// incomplete trailing interval is never reported — but see
    /// [`Self::sample_traced`], which counts the drop.
    pub fn sample(&self, timeline: &Timeline) -> Vec<(f64, f64)> {
        self.sample_traced(timeline, &Tracer::off())
    }

    /// [`Self::sample`] with instrumentation: `wattsup.samples` counts the
    /// readings, `wattsup.dropped_samples` counts the discarded partial
    /// final interval (0 or 1 per run), and each reading is journaled as a
    /// `wattsup.sample` event carrying its interval time in `t_s`.
    pub fn sample_traced(&self, timeline: &Timeline, tracer: &Tracer) -> Vec<(f64, f64)> {
        assert!(self.period_s > 0.0, "sampling period must be positive");
        let mut rng = Rng::seeded(self.seed);
        let end = timeline.end();
        let end_s = end.as_secs_f64();
        let t_ns = end.as_nanos();
        let n = ((end_s + 1e-9) / self.period_s).floor() as u64;
        let mut out = Vec::with_capacity(n as usize);
        for k in 1..=n {
            let t = k as f64 * self.period_s;
            let e = timeline
                .energy_between(
                    SimTime::from_secs_f64(t - self.period_s),
                    SimTime::from_secs_f64(t),
                )
                .system_j();
            let mut w = e / self.period_s;
            if self.noise_rel_sigma > 0.0 {
                // Box–Muller from two uniforms; u1 lies in [ε, 1) so its log
                // is finite.
                let u1 = f64::EPSILON + rng.unit_f64() * (1.0 - f64::EPSILON);
                let u1 = if u1 >= 1.0 { f64::EPSILON } else { u1 };
                let u2 = rng.unit_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                w *= 1.0 + self.noise_rel_sigma * z;
            }
            let w = w.round().max(0.0);
            if tracer.is_on() {
                tracer.instant(
                    t_ns,
                    "wattsup.sample",
                    vec![("t_s", Value::from(t)), ("watts", Value::from(w))],
                );
            }
            out.push((t, w));
        }
        tracer.count("wattsup.samples", n);
        if end_s - n as f64 * self.period_s > 1e-9 {
            // The real meter never reports an incomplete interval; record
            // that the tail was discarded instead of silently losing it.
            tracer.count("wattsup.dropped_samples", 1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::{Phase, PowerDraw, Segment, SimDuration};

    fn constant_timeline(system_w: f64, secs: u64) -> Timeline {
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(secs),
            draw: PowerDraw {
                board_w: system_w,
                ..PowerDraw::ZERO
            },
            phase: Phase::Other,
        });
        tl
    }

    #[test]
    fn noiseless_meter_reads_exact_integer_watts() {
        let tl = constant_timeline(143.0, 30);
        let log = WattsupMeter::noiseless().sample(&tl);
        assert_eq!(log.len(), 30);
        assert!(log.iter().all(|(_, w)| *w == 143.0));
    }

    #[test]
    fn readings_are_interval_averages() {
        // 0.5 s at 100 W then 0.5 s at 200 W inside one 1 s interval → 150 W.
        let mut tl = Timeline::new();
        tl.push(Segment {
            start: SimTime::ZERO,
            duration: SimDuration::from_millis(500),
            draw: PowerDraw {
                board_w: 100.0,
                ..PowerDraw::ZERO
            },
            phase: Phase::Other,
        });
        tl.push(Segment {
            start: SimTime::from_secs_f64(0.5),
            duration: SimDuration::from_millis(500),
            draw: PowerDraw {
                board_w: 200.0,
                ..PowerDraw::ZERO
            },
            phase: Phase::Other,
        });
        let log = WattsupMeter::noiseless().sample(&tl);
        assert_eq!(log, vec![(1.0, 150.0)]);
    }

    #[test]
    fn noise_is_deterministic_per_seed_and_small() {
        let tl = constant_timeline(120.0, 100);
        let meter = WattsupMeter::default();
        let a = meter.sample(&tl);
        let b = meter.sample(&tl);
        assert_eq!(a, b, "same seed must give identical logs");
        let other = WattsupMeter { seed: 42, ..meter }.sample(&tl);
        assert_ne!(a, other, "different seeds should differ");
        // All readings within ±5σ of truth.
        for (_, w) in &a {
            assert!(
                (w - 120.0).abs() <= 120.0 * 0.005 * 5.0 + 0.5,
                "reading {w}"
            );
        }
    }

    #[test]
    fn integration_recovers_energy_within_quantization() {
        let tl = constant_timeline(137.0, 60);
        let log = WattsupMeter::noiseless().sample(&tl);
        // Reading × the 1 s period, as the paper derives energy from the log.
        let e: f64 = log.iter().map(|(_, w)| w).sum();
        let truth = tl.total_energy_j();
        assert!((e - truth).abs() <= 0.5 * 60.0, "{e} vs {truth}");
    }

    #[test]
    fn partial_final_interval_is_dropped_like_real_meters() {
        let tl = constant_timeline(100.0, 10);
        // 10 s run, 3 s period → readings at 3, 6, 9; the trailing second is
        // not reported (the meter never completed that interval).
        let meter = WattsupMeter {
            period_s: 3.0,
            ..WattsupMeter::noiseless()
        };
        let log = meter.sample(&tl);
        assert_eq!(log.len(), 3);
        // The traced variant records the drop instead of hiding it.
        let tracer = Tracer::jsonl();
        meter.sample_traced(&tl, &tracer);
        assert_eq!(tracer.counter("wattsup.samples"), 3);
        assert_eq!(tracer.counter("wattsup.dropped_samples"), 1);
    }

    #[test]
    fn long_runs_do_not_drift_off_interval_boundaries() {
        // 20,000 one-second intervals: a float accumulator would be off the
        // exact boundary by ULP accumulation; the integer index is not.
        let tl = constant_timeline(100.0, 20_000);
        let log = WattsupMeter::noiseless().sample(&tl);
        assert_eq!(log.len(), 20_000);
        for (k, (t, w)) in log.iter().enumerate() {
            assert!((t - (k + 1) as f64).abs() < 1e-9, "sample {k} at {t}");
            assert_eq!(*w, 100.0);
        }
    }
}
