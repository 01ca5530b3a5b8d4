//! DRAM timing and power model.
//!
//! Models the 4× 16 GB DDR3-1333 DIMMs of Table I: a constant background
//! (refresh + standby) power plus a dynamic component proportional to the
//! byte traffic an activity generates. The per-byte access energy is the
//! standard ≈0.5 nJ/B figure for DDR3, which reproduces the ≈6 W DRAM
//! dynamic power of the Figure 5 simulation phase at ≈12.6 GB/s of traffic.

/// Timing and power model for the node's memory subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct DramModel {
    /// Installed capacity in bytes (Table I: 64 GiB).
    pub capacity_bytes: u64,
    /// Peak sustainable bandwidth, bytes/s (4 channels of DDR3-1333 ≈ 42 GB/s
    /// peak; ≈60% sustainable).
    pub bandwidth_bytes_per_s: f64,
    /// Background (refresh/standby) power for all DIMMs, watts.
    pub background_w: f64,
    /// Access energy per byte moved, joules.
    pub energy_per_byte_j: f64,
}

impl DramModel {
    /// The Table I memory: 4× 16 GB DDR3-1333.
    pub fn ddr3_1333_64gib() -> Self {
        DramModel {
            capacity_bytes: 64 * crate::units::GIB,
            bandwidth_bytes_per_s: 25.0e9,
            background_w: 10.0,
            energy_per_byte_j: 0.5e-9,
        }
    }

    /// Dynamic DRAM power while `bytes` are moved over `secs` seconds, watts.
    /// Returns zero for degenerate durations.
    pub fn dynamic_w(&self, bytes: u64, secs: f64) -> f64 {
        if secs <= 0.0 {
            return 0.0;
        }
        let rate = (bytes as f64 / secs).min(self.bandwidth_bytes_per_s);
        rate * self.energy_per_byte_j
    }

    /// Seconds to move `bytes` at full memory bandwidth (used when an
    /// activity is purely a memory copy).
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::GIB;

    #[test]
    fn capacity_matches_table1() {
        assert_eq!(DramModel::ddr3_1333_64gib().capacity_bytes, 64 * GIB);
    }

    #[test]
    fn simulation_phase_dynamic_power_calibration() {
        let dram = DramModel::ddr3_1333_64gib();
        // 19.8 GB over 1.57 s ≈ 12.6 GB/s ⇒ ≈6.3 W (DESIGN.md §4).
        let w = dram.dynamic_w(19_800_000_000, 1.57);
        assert!((w - 6.3).abs() < 0.05, "got {w}");
    }

    #[test]
    fn dynamic_power_caps_at_bandwidth() {
        let dram = DramModel::ddr3_1333_64gib();
        let capped = dram.dynamic_w(u64::MAX, 1.0);
        assert!((capped - 25.0e9 * 0.5e-9).abs() < 1e-9);
    }

    #[test]
    fn degenerate_duration_is_zero_power() {
        let dram = DramModel::ddr3_1333_64gib();
        assert_eq!(dram.dynamic_w(1_000_000, 0.0), 0.0);
        assert_eq!(dram.dynamic_w(1_000_000, -1.0), 0.0);
    }

    #[test]
    fn transfer_time_is_linear_in_bytes() {
        let dram = DramModel::ddr3_1333_64gib();
        let t1 = dram.transfer_seconds(GIB);
        let t2 = dram.transfer_seconds(2 * GIB);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }
}
