//! Instantaneous per-subsystem power draw.
//!
//! The paper's measurement methodology resolves the node into four channels:
//! processor package (RAPL PKG), DRAM (RAPL DRAM), the full system (Wattsup
//! wall meter), and "rest of system" — disk, network, motherboard, fans —
//! estimated as `system - package - dram` (§IV-B). We carry the disk and NIC
//! separately so model code stays physical; the instrumentation layer lumps
//! them into "rest" exactly as the paper's subtraction does.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Power drawn by each node subsystem at some instant, in watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerDraw {
    /// Both CPU packages combined (what RAPL PKG would report, summed).
    pub package_w: f64,
    /// All DIMMs combined (what RAPL DRAM would report, summed).
    pub dram_w: f64,
    /// The storage device.
    pub disk_w: f64,
    /// The network interface.
    pub net_w: f64,
    /// Motherboard, fans, PSU losses — everything else.
    pub board_w: f64,
}

impl PowerDraw {
    /// Zero draw on every channel.
    pub const ZERO: PowerDraw = PowerDraw {
        package_w: 0.0,
        dram_w: 0.0,
        disk_w: 0.0,
        net_w: 0.0,
        board_w: 0.0,
    };

    /// Full-system power: what a wall meter sees.
    #[inline]
    pub fn system_w(&self) -> f64 {
        self.package_w + self.dram_w + self.disk_w + self.net_w + self.board_w
    }

    /// True if every channel is finite and non-negative.
    pub fn is_physical(&self) -> bool {
        [
            self.package_w,
            self.dram_w,
            self.disk_w,
            self.net_w,
            self.board_w,
        ]
        .iter()
        .all(|w| w.is_finite() && *w >= 0.0)
    }
}

impl Add for PowerDraw {
    type Output = PowerDraw;
    #[inline]
    fn add(self, rhs: PowerDraw) -> PowerDraw {
        PowerDraw {
            package_w: self.package_w + rhs.package_w,
            dram_w: self.dram_w + rhs.dram_w,
            disk_w: self.disk_w + rhs.disk_w,
            net_w: self.net_w + rhs.net_w,
            board_w: self.board_w + rhs.board_w,
        }
    }
}

impl AddAssign for PowerDraw {
    #[inline]
    fn add_assign(&mut self, rhs: PowerDraw) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for PowerDraw {
    type Output = PowerDraw;
    #[inline]
    fn mul(self, k: f64) -> PowerDraw {
        PowerDraw {
            package_w: self.package_w * k,
            dram_w: self.dram_w * k,
            disk_w: self.disk_w * k,
            net_w: self.net_w * k,
            board_w: self.board_w * k,
        }
    }
}

impl Sum for PowerDraw {
    fn sum<I: Iterator<Item = PowerDraw>>(iter: I) -> PowerDraw {
        iter.fold(PowerDraw::ZERO, Add::add)
    }
}

/// Energy accumulated per subsystem, in joules. Mirrors [`PowerDraw`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy consumed by the CPU packages.
    pub package_j: f64,
    /// Energy consumed by DRAM.
    pub dram_j: f64,
    /// Energy consumed by the storage device.
    pub disk_j: f64,
    /// Energy consumed by the NIC.
    pub net_j: f64,
    /// Energy consumed by the rest of the board.
    pub board_j: f64,
}

impl EnergyBreakdown {
    /// Zero energy on every channel.
    pub const ZERO: EnergyBreakdown = EnergyBreakdown {
        package_j: 0.0,
        dram_j: 0.0,
        disk_j: 0.0,
        net_j: 0.0,
        board_j: 0.0,
    };

    /// Total (full-system) energy.
    #[inline]
    pub fn system_j(&self) -> f64 {
        self.package_j + self.dram_j + self.disk_j + self.net_j + self.board_j
    }

    /// Accumulate `draw` held for `secs` seconds.
    #[inline]
    pub fn accumulate(&mut self, draw: PowerDraw, secs: f64) {
        self.package_j += draw.package_w * secs;
        self.dram_j += draw.dram_w * secs;
        self.disk_j += draw.disk_w * secs;
        self.net_j += draw.net_w * secs;
        self.board_j += draw.board_w * secs;
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    #[inline]
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            package_j: self.package_j + rhs.package_j,
            dram_j: self.dram_j + rhs.dram_j,
            disk_j: self.disk_j + rhs.disk_j,
            net_j: self.net_j + rhs.net_j,
            board_j: self.board_j + rhs.board_j,
        }
    }
}

impl Sum for EnergyBreakdown {
    fn sum<I: Iterator<Item = EnergyBreakdown>>(iter: I) -> EnergyBreakdown {
        iter.fold(EnergyBreakdown::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PowerDraw {
        /// The paper's "rest of system" channel: `system - package - dram`.
        fn rest_w(&self) -> f64 {
            self.disk_w + self.net_w + self.board_w
        }
    }

    fn draw() -> PowerDraw {
        PowerDraw {
            package_w: 40.0,
            dram_w: 10.0,
            disk_w: 5.0,
            net_w: 1.0,
            board_w: 49.0,
        }
    }

    #[test]
    fn system_is_sum_of_channels() {
        assert!((draw().system_w() - 105.0).abs() < 1e-12);
    }

    #[test]
    fn rest_matches_paper_subtraction() {
        let d = draw();
        assert!((d.rest_w() - (d.system_w() - d.package_w - d.dram_w)).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let d = draw() + draw();
        assert!((d.system_w() - 210.0).abs() < 1e-12);
        let h = draw() * 0.5;
        assert!((h.system_w() - 52.5).abs() < 1e-12);
    }

    #[test]
    fn physicality_check_rejects_negative_and_nan() {
        let mut d = draw();
        assert!(d.is_physical());
        d.disk_w = -1.0;
        assert!(!d.is_physical());
        d.disk_w = f64::NAN;
        assert!(!d.is_physical());
    }

    #[test]
    fn energy_accumulation_is_power_times_time() {
        let mut e = EnergyBreakdown::ZERO;
        e.accumulate(draw(), 2.0);
        assert!((e.system_j() - 210.0).abs() < 1e-9);
        assert!((e.package_j - 80.0).abs() < 1e-9);
    }
}
