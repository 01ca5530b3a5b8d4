//! Whole-node hardware specification (the paper's Table I).

use crate::cpu::CpuModel;
use crate::disk::DiskModel;
use crate::dram::DramModel;
use crate::net::NetModel;

/// Complete hardware description of the node under test.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareSpec {
    /// Human-readable name for reports.
    pub name: String,
    /// CPU packages.
    pub cpu: CpuModel,
    /// Memory subsystem.
    pub dram: DramModel,
    /// Storage device.
    pub disk: DiskModel,
    /// Network interface.
    pub net: NetModel,
    /// Constant draw of motherboard, fans, PSU losses, watts.
    pub board_w: f64,
}

impl HardwareSpec {
    /// The paper's testbed (Table I): dual-socket Xeon E5-2665 @ 2.4 GHz,
    /// 20 MB LLC, 64 GB DDR3-1333, Seagate 500 GB 7200 rpm HDD, 6 Gb/s SATA.
    ///
    /// The `board_w` constant is chosen so the full-system *static* power is
    /// ≈104.9 W, the figure the paper's Table II implies
    /// (115.1 W total − 10.3 W dynamic during the `nnread` probe).
    pub fn table1() -> Self {
        HardwareSpec {
            name: "2x Intel Xeon E5-2665, 64 GB DDR3-1333, Seagate 7200rpm 500GB".to_string(),
            cpu: CpuModel::e5_2665_pair(),
            dram: DramModel::ddr3_1333_64gib(),
            disk: DiskModel::seagate_7200rpm_500gb(),
            net: NetModel::ten_gbe(),
            board_w: 49.9,
        }
    }

    /// The Table I node with its HDD swapped for a SATA SSD (future work).
    pub fn table1_with_ssd() -> Self {
        HardwareSpec {
            name: "Table I node with SATA SSD".to_string(),
            disk: DiskModel::sata_ssd_512gb(),
            ..Self::table1()
        }
    }

    /// The Table I node with its HDD swapped for NVRAM-class storage
    /// (future work).
    pub fn table1_with_nvram() -> Self {
        HardwareSpec {
            name: "Table I node with NVRAM storage".to_string(),
            disk: DiskModel::nvram_256gb(),
            ..Self::table1()
        }
    }

    /// Full-system power when completely idle, watts.
    pub fn static_w(&self) -> f64 {
        self.cpu.idle_w() + self.dram.background_w + self.disk.idle_w + self.board_w
    }

    /// The Table I rows as `(field, value)` pairs, for the `repro table1`
    /// report.
    pub fn table1_rows(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "CPU",
                format!(
                    "{}x {}-core package",
                    self.cpu.sockets, self.cpu.cores_per_socket
                ),
            ),
            (
                "CPU frequency",
                format!("{:.1} GHz", self.cpu.base_freq_hz / 1e9),
            ),
            (
                "Memory size",
                crate::units::format_bytes(self.dram.capacity_bytes),
            ),
            (
                "Storage size",
                format!("{} GB", self.disk.capacity_bytes / 1_000_000_000),
            ),
            (
                "Disk",
                match self.disk.kind {
                    crate::disk::DiskKind::Hdd => "7200rpm hard disk".to_string(),
                    crate::disk::DiskKind::Ssd => "SATA SSD".to_string(),
                    crate::disk::DiskKind::Nvram => "NVRAM".to_string(),
                    crate::disk::DiskKind::Dram => "DRAM tier".to_string(),
                    crate::disk::DiskKind::Nvme => "NVMe SSD".to_string(),
                },
            ),
            ("Static (idle) power", format!("{:.1} W", self.static_w())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_power_matches_table2_inference() {
        // 115.1 W (nnread total) − 10.3 W (nnread dynamic) ≈ 104.8 W.
        let spec = HardwareSpec::table1();
        assert!(
            (spec.static_w() - 104.9).abs() < 0.2,
            "got {}",
            spec.static_w()
        );
    }

    #[test]
    fn ssd_variant_lowers_static_power() {
        assert!(HardwareSpec::table1_with_ssd().static_w() < HardwareSpec::table1().static_w());
    }

    #[test]
    fn table1_rows_render() {
        let rows = HardwareSpec::table1().table1_rows();
        assert!(rows
            .iter()
            .any(|(k, v)| *k == "CPU frequency" && v == "2.4 GHz"));
        assert!(rows
            .iter()
            .any(|(k, v)| *k == "Memory size" && v == "64 GiB"));
    }
}
