//! Power capping — the governor behind the paper's Figure 9 remark.
//!
//! The paper singles out peak power as "an important metric for power-capped
//! systems". This module provides the runtime those systems use: a governor
//! that, given a full-system budget, DVFS-scales the compute phase so the
//! node never exceeds the cap, and a sweep that quantifies the resulting
//! time/energy trade for the in-situ pipeline (the peak phase is the same
//! simulation in both pipelines, so one sweep covers both).
//!
//! This module adds only the governor: the capped run is
//! [`Variant::DvfsSim`] at the scale the bisection picks.

use greenness_platform::Node;

use crate::config::PipelineConfig;
use crate::pipeline::PipelineError;
use crate::variants::{run_variant, Variant};

/// Result of one capped run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CappedRun {
    /// The full-system budget, watts.
    pub cap_w: f64,
    /// The DVFS scale the governor selected for the compute phase.
    pub freq_scale: f64,
    /// Virtual execution time, seconds.
    pub execution_time_s: f64,
    /// Full-system energy, joules.
    pub energy_j: f64,
    /// Observed peak full-system power, watts.
    pub peak_power_w: f64,
}

/// Choose the highest DVFS scale whose simulation-phase draw stays at or
/// under `cap_w` on `node`'s hardware, by bisection over the cube-law power
/// model. Returns `None` if even the lowest clock exceeds the cap (the cap
/// is below the machine's static floor plus minimum dynamic draw).
fn freq_scale_for_cap(node: &Node, cfg: &PipelineConfig, cap_w: f64) -> Option<f64> {
    let cells = (cfg.grid_nx * cfg.grid_ny) as u64;
    let draw_at = |scale: f64| -> f64 {
        let mut spec = node.spec().clone();
        spec.cpu = spec.cpu.with_freq_scale(scale);
        let probe = Node::new(spec);
        let (_, draw) = probe.cost_of(cfg.sim_cost.activity(cells));
        draw.system_w()
    };
    if draw_at(1.0) <= cap_w {
        return Some(1.0);
    }
    if draw_at(0.1) > cap_w {
        return None;
    }
    let (mut lo, mut hi) = (0.1f64, 1.0f64);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if draw_at(mid) <= cap_w {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Run the in-situ pipeline under a full-system power cap. Returns
/// `Ok(None)` when the cap is infeasible for this hardware.
///
/// # Errors
/// The usual pipeline solver/storage errors — reachable from CLI flags and
/// serve requests, so reported as values rather than panics.
fn run_capped_insitu(cfg: &PipelineConfig, cap_w: f64) -> Result<Option<CappedRun>, PipelineError> {
    let mut node = Node::new(greenness_platform::HardwareSpec::table1());
    let Some(freq_scale) = freq_scale_for_cap(&node, cfg, cap_w) else {
        return Ok(None);
    };
    // Rendering is memory-bound; its draw sits far below the cap, so the
    // variant runs it at full clock (race-to-idle within the budget).
    let run = run_variant(Variant::DvfsSim { freq_scale }, &mut node, cfg)?;
    Ok(Some(CappedRun {
        cap_w,
        freq_scale,
        execution_time_s: run.execution_time_s,
        energy_j: run.energy_j,
        peak_power_w: node.timeline().peak_power_w(),
    }))
}

/// Sweep a set of caps; infeasible caps are skipped.
///
/// # Errors
/// Propagates the first [`PipelineError`] from a feasible capped run.
pub fn cap_sweep(cfg: &PipelineConfig, caps_w: &[f64]) -> Result<Vec<CappedRun>, PipelineError> {
    let mut out = Vec::with_capacity(caps_w.len());
    for &cap in caps_w {
        if let Some(run) = run_capped_insitu(cfg, cap)? {
            out.push(run);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PipelineConfig {
        let mut c = PipelineConfig::small(1);
        c.timesteps = 6;
        c
    }

    #[test]
    fn governor_respects_the_cap() {
        for cap in [143.0, 135.0, 128.0, 124.0] {
            let run = run_capped_insitu(&cfg(), cap)
                .expect("run ok")
                .expect("feasible cap");
            assert!(
                run.peak_power_w <= cap + 0.5,
                "cap {cap}: peak {} exceeds budget",
                run.peak_power_w
            );
        }
    }

    #[test]
    fn generous_caps_run_at_full_clock() {
        let run = run_capped_insitu(&cfg(), 200.0)
            .expect("run ok")
            .expect("feasible");
        assert_eq!(run.freq_scale, 1.0);
    }

    #[test]
    fn tighter_caps_cost_time() {
        let loose = run_capped_insitu(&cfg(), 143.0)
            .expect("run ok")
            .expect("feasible");
        let tight = run_capped_insitu(&cfg(), 125.0)
            .expect("run ok")
            .expect("feasible");
        assert!(tight.freq_scale < loose.freq_scale);
        assert!(tight.execution_time_s > loose.execution_time_s);
    }

    #[test]
    fn infeasible_caps_are_rejected() {
        // Below the static floor (≈105 W) no clock can satisfy the budget.
        assert!(run_capped_insitu(&cfg(), 100.0).expect("run ok").is_none());
    }

    #[test]
    fn sweep_skips_infeasible_points_and_is_monotone_in_time() {
        let runs = cap_sweep(&cfg(), &[100.0, 125.0, 135.0, 150.0]).expect("sweep ok");
        assert_eq!(runs.len(), 3, "the 100 W point must be dropped");
        for pair in runs.windows(2) {
            assert!(
                pair[0].execution_time_s >= pair[1].execution_time_s - 1e-9,
                "looser caps must not be slower: {pair:?}"
            );
        }
    }
}
