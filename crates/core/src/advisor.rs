//! The runtime optimization advisor — the paper's future-work system.
//!
//! §VI-A sketches "a runtime system that makes use of our characterization
//! studies … power models that estimate the hard disk power based on the
//! number of disk accesses, size of each access, and the corresponding
//! access pattern. Using this model, the runtime will decide the power
//! optimization technique to be used." This module builds exactly that on
//! top of the calibrated disk model: it estimates the energy of an
//! application's I/O passes under each available technique and recommends
//! one, following the paper's own decision logic (§V-C/§V-D): in-situ when
//! exploration is expendable; data reorganization when the pattern is
//! random and exploration must be kept; data sampling when the budget is
//! dominated by dynamic (data-movement) energy and information loss is
//! acceptable.

use greenness_platform::{AccessPattern, Activity, HardwareSpec, Node};

/// How the application touches its dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBehavior {
    /// Streaming passes.
    Sequential,
    /// Scattered accesses of roughly `op_bytes` each.
    Random {
        /// Typical request size, bytes.
        op_bytes: u64,
    },
}

/// What the runtime knows about the application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Bytes written per output pass (one write + later one read each).
    pub pass_bytes: u64,
    /// Exploratory analysis passes expected over the data's lifetime.
    pub passes: u32,
    /// Access pattern of those passes.
    pub behavior: IoBehavior,
    /// Whether scientists need post-hoc exploration of the raw data.
    pub needs_exploration: bool,
    /// Tolerated data reduction for sampling, as a keep-fraction in `(0, 1]`
    /// (1.0 = no loss tolerated).
    pub min_keep_fraction: f64,
}

/// The techniques the advisor chooses among.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Technique {
    /// Visualize alongside the simulation; write only images.
    InSitu,
    /// Reorganize the data layout so passes become sequential (§V-D).
    Reorganize,
    /// Write a stride/triage-sampled subset (refs [21]–[23]).
    DataSampling {
        /// Fraction of the data kept.
        keep_fraction: f64,
    },
    /// The I/O is already cheap; leave the pipeline alone.
    KeepPostProcessing,
}

/// The advisor's output: per-technique energy estimates and a choice.
#[derive(Debug, Clone)]
pub struct Advice {
    /// Energy of the application's I/O as-is, joules.
    pub current_io_j: f64,
    /// Energy with in-situ (I/O eliminated; only image output remains —
    /// approximated as 2% of the raw volume, sequential), joules.
    pub insitu_io_j: f64,
    /// One-time reorganization cost, joules.
    pub reorg_cost_j: f64,
    /// Per-pass energy after reorganization, joules.
    pub reorg_pass_j: f64,
    /// Per-pass energy with sampling at the tolerated keep-fraction, joules.
    pub sampling_pass_j: f64,
    /// The recommendation.
    pub technique: Technique,
}

/// Full-system energy of one buffered I/O activity on an otherwise idle
/// node, joules — the advisor's disk power model (access count × size ×
/// pattern), exactly the model §VI-A calls for.
fn io_energy_j(spec: &HardwareSpec, activity: Activity) -> f64 {
    let node = Node::new(spec.clone());
    let (secs, draw) = node.cost_of(activity);
    draw.system_w() * secs
}

fn pass_energy_j(spec: &HardwareSpec, bytes: u64, behavior: IoBehavior) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let pattern = match behavior {
        IoBehavior::Sequential => AccessPattern::Sequential,
        IoBehavior::Random { op_bytes } => AccessPattern::Random {
            op_bytes,
            queue_depth: 1,
        },
    };
    // One write pass + one read pass per exploration cycle, as in §V-D.
    io_energy_j(
        spec,
        Activity::DiskWrite {
            bytes,
            pattern,
            buffered: true,
        },
    ) + io_energy_j(
        spec,
        Activity::DiskRead {
            bytes,
            pattern,
            buffered: true,
        },
    )
}

/// Estimate all techniques and recommend one.
pub fn recommend(spec: &HardwareSpec, w: &WorkloadProfile) -> Advice {
    assert!(
        w.min_keep_fraction > 0.0 && w.min_keep_fraction <= 1.0,
        "keep fraction must be in (0, 1]"
    );
    let passes = w.passes.max(1) as f64;
    let current_pass_j = pass_energy_j(spec, w.pass_bytes, w.behavior);
    let current_io_j = current_pass_j * passes;

    // In-situ: raw I/O disappears; rendered images ≈ 2% of the raw volume.
    let image_bytes = w.pass_bytes / 50;
    let insitu_io_j = io_energy_j(
        spec,
        Activity::DiskWrite {
            bytes: image_bytes,
            pattern: AccessPattern::Sequential,
            buffered: true,
        },
    ) * passes;

    // Software-directed reorganization (refs [30], [31]) happens at *write*
    // time — the scheduler emits the data in sequential layout — so its cost
    // is one extra sequential streaming pass, not a random defragmentation.
    let reorg_cost_j = match w.behavior {
        IoBehavior::Sequential => 0.0,
        IoBehavior::Random { .. } => io_energy_j(
            spec,
            Activity::DiskWrite {
                bytes: w.pass_bytes,
                pattern: AccessPattern::Sequential,
                buffered: true,
            },
        ),
    };
    let reorg_pass_j = pass_energy_j(spec, w.pass_bytes, IoBehavior::Sequential);

    // Sampling keeps the pattern but shrinks the volume.
    let sampled_bytes = (w.pass_bytes as f64 * w.min_keep_fraction) as u64;
    let sampling_pass_j = pass_energy_j(spec, sampled_bytes, w.behavior);

    let technique = if !w.needs_exploration {
        Technique::InSitu
    } else {
        let keep_total = current_io_j;
        let reorg_total = reorg_cost_j + reorg_pass_j * passes;
        let sampling_total = sampling_pass_j * passes;
        // Among exploration-preserving options, reorganization is preferred
        // over sampling when it wins outright or sampling would lose data
        // without a clear payoff.
        if reorg_total < keep_total * 0.9 && reorg_total <= sampling_total {
            Technique::Reorganize
        } else if w.min_keep_fraction < 1.0 && sampling_total < keep_total * 0.9 {
            Technique::DataSampling {
                keep_fraction: w.min_keep_fraction,
            }
        } else {
            Technique::KeepPostProcessing
        }
    };

    Advice {
        current_io_j,
        insitu_io_j,
        reorg_cost_j,
        reorg_pass_j,
        sampling_pass_j,
        technique,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::units::{GIB, KIB};

    fn spec() -> HardwareSpec {
        HardwareSpec::table1()
    }

    #[test]
    fn no_exploration_means_insitu() {
        let w = WorkloadProfile {
            pass_bytes: GIB,
            passes: 3,
            behavior: IoBehavior::Random { op_bytes: 4 * KIB },
            needs_exploration: false,
            min_keep_fraction: 1.0,
        };
        let a = recommend(&spec(), &w);
        assert_eq!(a.technique, Technique::InSitu);
        assert!(a.insitu_io_j < a.current_io_j / 10.0);
    }

    #[test]
    fn random_exploratory_workload_gets_reorganization() {
        // The §V-D scenario: random I/O, exploration required.
        let w = WorkloadProfile {
            pass_bytes: 4 * GIB,
            passes: 2,
            behavior: IoBehavior::Random { op_bytes: 4 * KIB },
            needs_exploration: true,
            min_keep_fraction: 1.0,
        };
        let a = recommend(&spec(), &w);
        assert_eq!(a.technique, Technique::Reorganize);
        // Reorg amortizes: cost + sequential passes beat random passes.
        assert!(a.reorg_cost_j + a.reorg_pass_j * 2.0 < a.current_io_j);
    }

    #[test]
    fn sequential_workload_is_left_alone() {
        let w = WorkloadProfile {
            pass_bytes: 4 * GIB,
            passes: 5,
            behavior: IoBehavior::Sequential,
            needs_exploration: true,
            min_keep_fraction: 1.0,
        };
        let a = recommend(&spec(), &w);
        assert_eq!(a.technique, Technique::KeepPostProcessing);
        assert_eq!(a.reorg_cost_j, 0.0);
    }

    #[test]
    fn sampling_wins_when_loss_is_tolerated_and_reorg_cannot_help() {
        // Sequential already; only sampling can shrink the sequential cost.
        let w = WorkloadProfile {
            pass_bytes: 4 * GIB,
            passes: 10,
            behavior: IoBehavior::Sequential,
            needs_exploration: true,
            min_keep_fraction: 0.1,
        };
        let a = recommend(&spec(), &w);
        assert_eq!(a.technique, Technique::DataSampling { keep_fraction: 0.1 });
        assert!(a.sampling_pass_j < a.reorg_pass_j);
    }

    #[test]
    fn estimates_scale_with_volume() {
        let small = recommend(
            &spec(),
            &WorkloadProfile {
                pass_bytes: GIB,
                passes: 1,
                behavior: IoBehavior::Sequential,
                needs_exploration: true,
                min_keep_fraction: 1.0,
            },
        );
        let big = recommend(
            &spec(),
            &WorkloadProfile {
                pass_bytes: 4 * GIB,
                passes: 1,
                behavior: IoBehavior::Sequential,
                needs_exploration: true,
                min_keep_fraction: 1.0,
            },
        );
        assert!(big.current_io_j > 3.0 * small.current_io_j);
    }

    #[test]
    #[should_panic(expected = "keep fraction")]
    fn invalid_keep_fraction_is_rejected() {
        let w = WorkloadProfile {
            pass_bytes: GIB,
            passes: 1,
            behavior: IoBehavior::Sequential,
            needs_exploration: true,
            min_keep_fraction: 0.0,
        };
        let _ = recommend(&spec(), &w);
    }
}
