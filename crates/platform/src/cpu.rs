//! CPU package timing and power model.
//!
//! Models the two Intel Xeon E5-2665 packages of Table I. Power is
//! `idle + active`, where the active (dynamic) part scales with the number of
//! busy cores, their arithmetic intensity, and — for the DVFS extension — the
//! cube of the frequency scale (dynamic power `∝ f·V²` with `V ∝ f`).
//!
//! Calibration (see DESIGN.md §4): the simulation phase of the paper's proxy
//! app draws ≈143 W full-system, of which ≈31.8 W is package dynamic power at
//! 16 busy cores; package idle is ≈40 W for both sockets combined, consistent
//! with the ≈53–73 W processor trace of Figure 5.

/// Timing and power model for the node's CPU packages (all sockets combined).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Number of sockets (Table I: 2).
    pub sockets: u32,
    /// Cores per socket (Table I: 8).
    pub cores_per_socket: u32,
    /// Nominal core frequency in Hz (Table I: 2.4 GHz).
    pub base_freq_hz: f64,
    /// Double-precision flops per core per cycle (Sandy Bridge AVX: 8).
    pub flops_per_cycle: f64,
    /// Fraction of peak a real stencil/FEM kernel sustains.
    pub compute_efficiency: f64,
    /// Idle power per socket, watts.
    pub idle_w_per_socket: f64,
    /// Dynamic power per fully-busy core at base frequency, watts.
    pub active_w_per_core: f64,
    /// Extra uncore power per socket while any of its cores is busy, watts.
    pub uncore_active_w_per_socket: f64,
    /// Package power uplift while servicing *buffered* reads (page-cache
    /// copy-to-user, read-ahead bookkeeping). Direct I/O (fio) bypasses this.
    /// Calibrated so the nnread probe averages 115.1 W (Table II).
    pub io_assist_read_w: f64,
    /// Package power uplift while servicing *buffered* writes and journal
    /// commits. Calibrated so the nnwrite probe averages 114.8 W (Table II).
    pub io_assist_write_w: f64,
    /// DVFS frequency multiplier in `(0, 1]`; 1.0 = nominal 2.4 GHz.
    pub freq_scale: f64,
}

impl CpuModel {
    /// The Table I processor: 2× 8-core E5-2665 @ 2.4 GHz.
    pub fn e5_2665_pair() -> Self {
        CpuModel {
            sockets: 2,
            cores_per_socket: 8,
            base_freq_hz: 2.4e9,
            flops_per_cycle: 8.0,
            compute_efficiency: 0.25,
            idle_w_per_socket: 20.0,
            active_w_per_core: 1.8,
            uncore_active_w_per_socket: 1.5,
            io_assist_read_w: 7.6,
            io_assist_write_w: 6.0,
            freq_scale: 1.0,
        }
    }

    /// Total core count across all sockets.
    fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Theoretical peak flop rate of `cores` busy cores at the current DVFS
    /// point, in flops/s.
    fn peak_flops(&self, cores: u32) -> f64 {
        let cores = cores.min(self.total_cores());
        cores as f64 * self.base_freq_hz * self.freq_scale * self.flops_per_cycle
    }

    /// Sustained flop rate (peak × efficiency) of `cores` busy cores.
    fn sustained_flops(&self, cores: u32) -> f64 {
        self.peak_flops(cores) * self.compute_efficiency
    }

    /// Seconds to execute `flops` floating-point operations on `cores` cores.
    pub fn compute_seconds(&self, flops: f64, cores: u32) -> f64 {
        let rate = self.sustained_flops(cores);
        if rate <= 0.0 {
            return 0.0;
        }
        flops / rate
    }

    /// Idle package power (all sockets), watts.
    pub fn idle_w(&self) -> f64 {
        self.sockets as f64 * self.idle_w_per_socket
    }

    /// Package power with `cores` busy at the given arithmetic `intensity`
    /// (0–1), watts. Dynamic power scales with `freq_scale³` (DVFS).
    pub fn busy_w(&self, cores: u32, intensity: f64) -> f64 {
        let cores = cores.min(self.total_cores());
        let intensity = intensity.clamp(0.0, 1.0);
        if cores == 0 || intensity == 0.0 {
            return self.idle_w();
        }
        // Busy cores fill sockets in order; each touched socket wakes its uncore.
        let sockets_touched = cores.div_ceil(self.cores_per_socket);
        let dvfs = self.freq_scale.powi(3);
        let core_dyn = cores as f64 * self.active_w_per_core * intensity * dvfs;
        let uncore = sockets_touched as f64 * self.uncore_active_w_per_socket * dvfs;
        self.idle_w() + core_dyn + uncore
    }

    /// Package power while servicing buffered I/O, watts.
    pub fn io_busy_w(&self, is_read: bool) -> f64 {
        self.idle_w()
            + if is_read {
                self.io_assist_read_w
            } else {
                self.io_assist_write_w
            }
    }

    /// A copy of this model re-clocked to `scale × base frequency`.
    /// `scale` is clamped to `[0.1, 1.0]`.
    pub fn with_freq_scale(&self, scale: f64) -> Self {
        CpuModel {
            freq_scale: scale.clamp(0.1, 1.0),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_core_count() {
        let cpu = CpuModel::e5_2665_pair();
        assert_eq!(cpu.total_cores(), 16);
    }

    #[test]
    fn idle_power_matches_calibration() {
        let cpu = CpuModel::e5_2665_pair();
        assert!((cpu.idle_w() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn fully_busy_power_matches_calibration() {
        let cpu = CpuModel::e5_2665_pair();
        // 40 idle + 16×1.8 core + 2×1.5 uncore = 71.8 W (the Fig. 5 sim trace).
        assert!((cpu.busy_w(16, 1.0) - 71.8).abs() < 1e-9);
    }

    #[test]
    fn one_core_wakes_one_uncore() {
        let cpu = CpuModel::e5_2665_pair();
        assert!((cpu.busy_w(1, 1.0) - (40.0 + 1.8 + 1.5)).abs() < 1e-9);
        // Ninth core spills onto the second socket.
        assert!((cpu.busy_w(9, 1.0) - (40.0 + 9.0 * 1.8 + 3.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_intensity_is_idle() {
        let cpu = CpuModel::e5_2665_pair();
        assert_eq!(cpu.busy_w(16, 0.0), cpu.idle_w());
        assert_eq!(cpu.busy_w(0, 1.0), cpu.idle_w());
    }

    #[test]
    fn core_count_saturates_at_hardware_limit() {
        let cpu = CpuModel::e5_2665_pair();
        assert_eq!(cpu.busy_w(99, 1.0), cpu.busy_w(16, 1.0));
        assert_eq!(cpu.peak_flops(99), cpu.peak_flops(16));
    }

    #[test]
    fn compute_time_scales_inversely_with_cores() {
        let cpu = CpuModel::e5_2665_pair();
        let t16 = cpu.compute_seconds(1e12, 16);
        let t8 = cpu.compute_seconds(1e12, 8);
        assert!((t8 / t16 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dvfs_slows_compute_and_cuts_dynamic_power_cubically() {
        let cpu = CpuModel::e5_2665_pair();
        let half = cpu.with_freq_scale(0.5);
        assert!(
            (half.compute_seconds(1e12, 16) / cpu.compute_seconds(1e12, 16) - 2.0).abs() < 1e-9
        );
        let dyn_full = cpu.busy_w(16, 1.0) - cpu.idle_w();
        let dyn_half = half.busy_w(16, 1.0) - half.idle_w();
        assert!((dyn_half / dyn_full - 0.125).abs() < 1e-9);
    }

    #[test]
    fn freq_scale_is_clamped() {
        let cpu = CpuModel::e5_2665_pair().with_freq_scale(7.0);
        assert_eq!(cpu.freq_scale, 1.0);
        let cpu = CpuModel::e5_2665_pair().with_freq_scale(0.0);
        assert_eq!(cpu.freq_scale, 0.1);
    }
}
