//! Charge rendering work to the platform.
//!
//! Calibrated so one 512×512 frame costs ≈0.476 s at ≈121 W full-system — the
//! visualization-phase level and duration the paper reports (10% of case-1
//! runtime over 50 frames, Figure 4; second-phase power, §V-A).
//! Rasterization is memory/branch-bound compared to the solver, hence the
//! lower arithmetic intensity (0.45), which is what puts the visualization
//! phase ≈22 W below the simulation phase.

use greenness_platform::Activity;

/// Calibrated conversion from pixels shaded to platform compute activities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderCostModel {
    /// Flops charged per output pixel (field sampling and colormapping,
    /// calibrated to the paper's renderer).
    pub flops_per_pixel: f64,
    /// DRAM traffic per pixel, bytes.
    pub dram_bytes_per_pixel: f64,
    /// Cores the renderer keeps busy.
    pub cores: u32,
    /// Arithmetic intensity (rasterization is memory-bound: < 1).
    pub intensity: f64,
}

impl Default for RenderCostModel {
    fn default() -> Self {
        RenderCostModel {
            flops_per_pixel: 1.394e5,
            dram_bytes_per_pixel: 2000.0,
            cores: 16,
            intensity: 0.45,
        }
    }
}

impl RenderCostModel {
    /// The compute activity for rendering `pixels` output pixels.
    pub fn activity(&self, pixels: u64) -> Activity {
        Activity::Compute {
            flops: pixels as f64 * self.flops_per_pixel,
            cores: self.cores,
            intensity: self.intensity,
            dram_bytes: (pixels as f64 * self.dram_bytes_per_pixel) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::{HardwareSpec, Node, Phase};

    #[test]
    fn calibrated_frame_cost() {
        let cost = RenderCostModel::default();
        let mut node = Node::new(HardwareSpec::table1());
        let e = node.execute(cost.activity(512 * 512), Phase::Visualization);
        let secs = e.duration.as_secs_f64();
        assert!((secs - 0.476).abs() < 0.01, "got {secs}");
        let sys = e.draw.system_w();
        assert!((sys - 121.0).abs() < 1.0, "got {sys}");
    }

    #[test]
    fn viz_phase_runs_cooler_than_sim_phase() {
        let node = Node::new(HardwareSpec::table1());
        let (_, viz) = node.cost_of(RenderCostModel::default().activity(512 * 512));
        let (_, sim) = node.cost_of(greenness_heatsim::SimCostModel::default().activity(512 * 512));
        let gap = sim.system_w() - viz.system_w();
        // The paper infers a ≈22 W gap between the two phases (§V-A).
        assert!((gap - 22.0).abs() < 2.0, "gap {gap}");
    }
}
