//! The adaptive runtime — the full version of the paper's §VI-A proposal.
//!
//! "We would also like to develop a runtime system that makes use of our
//! characterization studies … the runtime will decide the power
//! optimization technique to be used." The [`advisor`](crate::advisor)
//! decides *offline* from a workload description; this module decides
//! *online*: it starts in post-processing mode (scientists keep raw data by
//! default), monitors the energy it spends on I/O through the same RAPL/
//! timeline instrumentation the paper uses, and switches the remaining
//! steps to in-situ when the observed I/O energy share crosses a threshold.
//! Snapshots already written stay on disk; the switch is logged. Whatever
//! mode each step ran in, every I/O step ends up *visualized*: snapshots
//! kept on disk are read back and rendered in a final phase, so the
//! adaptive and never-switch runs deliver identical scientific output and
//! their energies compare apples to apples.
//!
//! On top of the shared single-node driver this module adds only the policy:
//! it ticks the stepper one step at a time, picks the snapshot or the image
//! stage per I/O step, and evaluates the window. A policy that never
//! switches *is* the post-processing pipeline, bit for bit.

use greenness_platform::{Node, Phase};

use crate::config::PipelineConfig;
use crate::driver::{self, Stored};
use crate::pipeline::PipelineError;

/// Adaptive policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Re-evaluate every `window_steps` timesteps.
    pub window_steps: u64,
    /// Switch to in-situ when the windowed I/O share of energy exceeds this
    /// fraction.
    pub io_energy_threshold: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            window_steps: 4,
            io_energy_threshold: 0.30,
        }
    }
}

/// What the adaptive run did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveReport {
    /// Step after which the runtime switched to in-situ (`None` = never).
    pub switched_at_step: Option<u64>,
    /// Virtual execution time, seconds.
    pub execution_time_s: f64,
    /// Full-system energy, joules.
    pub energy_j: f64,
    /// Raw snapshots persisted before the switch.
    pub snapshots_kept: u64,
    /// Images persisted after the switch.
    pub images_written: u64,
}

/// Run the workload under the adaptive runtime.
///
/// # Errors
/// [`PipelineError::Config`] on a zero window or an out-of-range threshold
/// (both reachable from CLI flags and, through the serve layer, from
/// requests); otherwise the usual pipeline storage/solver errors.
pub fn run_adaptive(
    node: &mut Node,
    cfg: &PipelineConfig,
    policy: &AdaptivePolicy,
) -> Result<AdaptiveReport, PipelineError> {
    if policy.window_steps < 1 {
        return Err(PipelineError::Config(
            "window must be at least one step".to_string(),
        ));
    }
    if !(0.0..=1.0).contains(&policy.io_energy_threshold) {
        return Err(PipelineError::Config(format!(
            "threshold must be a fraction in 0..=1, got {}",
            policy.io_energy_threshold
        )));
    }
    let (mut stepper, mut store) = driver::open(cfg, None)?;

    let mut switched_at_step = None;
    let mut kept = Vec::new();
    let mut images_written = 0u64;
    let mut window_start_energy = 0.0f64;
    let mut window_start_io = 0.0f64;

    let io_energy = |node: &Node| -> f64 {
        node.timeline().phase_energy(Phase::Write).system_j()
            + node.timeline().phase_energy(Phase::CacheControl).system_j()
    };

    while let Some((step, io_due)) = stepper.tick(node, cfg) {
        if io_due {
            if switched_at_step.is_some() {
                let image = driver::render(node, cfg, &mut stepper, &cfg.render, None);
                store.write_frame(node, &driver::frame_name(step), &image)?;
                images_written += 1;
            } else {
                let snapshot = Stored::of_grid(stepper.grid());
                kept.push(store.write_snapshot(node, step, &snapshot)?);
            }
        }
        // Policy evaluation at window boundaries, while still writing raw.
        if switched_at_step.is_none() && step % policy.window_steps == 0 {
            let total = node.timeline().total_energy_j();
            let io = io_energy(node);
            let window_total = total - window_start_energy;
            let window_io = io - window_start_io;
            if window_total > 0.0 && window_io / window_total > policy.io_energy_threshold {
                switched_at_step = Some(step);
            }
            window_start_energy = total;
            window_start_io = io;
        }
    }
    store.end_phase_one(node);

    // Final phase: visualize the snapshots that stayed raw, exactly as the
    // post-processing pipeline would.
    for name in &kept {
        let snapshot = store.read(node, name)?;
        let shape = (cfg.grid_nx, cfg.grid_ny);
        driver::render_snapshot(node, cfg, shape, (name, &snapshot), None, None)?;
    }

    Ok(AdaptiveReport {
        switched_at_step,
        execution_time_s: node.now().as_secs_f64(),
        energy_j: node.timeline().total_energy_j(),
        snapshots_kept: kept.len() as u64,
        images_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::HardwareSpec;

    fn run(cfg: &PipelineConfig, policy: &AdaptivePolicy) -> AdaptiveReport {
        let mut node = Node::new(HardwareSpec::table1());
        run_adaptive(&mut node, cfg, policy).expect("adaptive run ok")
    }

    fn io_heavy() -> PipelineConfig {
        let mut c = PipelineConfig::small(1); // I/O every step: ~19% write share
        c.timesteps = 12;
        c
    }

    fn compute_heavy() -> PipelineConfig {
        let mut c = PipelineConfig::small(6); // I/O every 6th step
        c.timesteps = 12;
        c
    }

    #[test]
    fn switches_on_io_heavy_workloads() {
        let policy = AdaptivePolicy {
            window_steps: 4,
            io_energy_threshold: 0.10,
        };
        let r = run(&io_heavy(), &policy);
        assert_eq!(r.switched_at_step, Some(4));
        assert!(r.snapshots_kept >= 4);
        assert!(r.images_written >= 1);
    }

    #[test]
    fn stays_in_post_processing_on_compute_heavy_workloads() {
        let policy = AdaptivePolicy {
            window_steps: 4,
            io_energy_threshold: 0.10,
        };
        let r = run(&compute_heavy(), &policy);
        assert_eq!(r.switched_at_step, None);
        assert_eq!(r.images_written, 0);
        assert_eq!(r.snapshots_kept, 2);
    }

    #[test]
    fn switching_saves_energy_over_never_switching() {
        let never = AdaptivePolicy {
            window_steps: 4,
            io_energy_threshold: 1.0,
        };
        let eager = AdaptivePolicy {
            window_steps: 4,
            io_energy_threshold: 0.10,
        };
        let stayed = run(&io_heavy(), &never);
        let switched = run(&io_heavy(), &eager);
        assert_eq!(stayed.switched_at_step, None);
        assert!(
            switched.energy_j < stayed.energy_j,
            "{} !< {}",
            switched.energy_j,
            stayed.energy_j
        );
    }

    #[test]
    fn early_snapshots_survive_the_switch() {
        let policy = AdaptivePolicy {
            window_steps: 2,
            io_energy_threshold: 0.10,
        };
        let r = run(&io_heavy(), &policy);
        assert_eq!(r.switched_at_step, Some(2));
        assert_eq!(r.snapshots_kept, 2);
        assert_eq!(r.images_written, 10);
    }

    #[test]
    fn zero_window_is_rejected_as_a_value() {
        let policy = AdaptivePolicy {
            window_steps: 0,
            io_energy_threshold: 0.5,
        };
        let mut node = Node::new(HardwareSpec::table1());
        let err = run_adaptive(&mut node, &io_heavy(), &policy).expect_err("zero window");
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
        assert!(err.to_string().contains("window must be"));
    }

    #[test]
    fn out_of_range_threshold_is_rejected_as_a_value() {
        let policy = AdaptivePolicy {
            window_steps: 4,
            io_energy_threshold: 1.5,
        };
        let mut node = Node::new(HardwareSpec::table1());
        let err = run_adaptive(&mut node, &io_heavy(), &policy).expect_err("bad threshold");
        assert!(err.to_string().contains("threshold must be a fraction"));
    }
}
