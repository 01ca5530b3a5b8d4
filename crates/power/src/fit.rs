//! Identification of power models from observations — the modeling half of
//! the paper's §VI-A future work.
//!
//! Two tools:
//!
//! * [`estimate_static_floor_w`] recovers a machine's static power from a
//!   measured profile (low quantile of the system channel) — what an
//!   operator without the Table II probes would do;
//! * [`DiskEnergyModel`] fits the linear model the paper sketches: disk
//!   dynamic energy as a function of *(operation count, bytes moved,
//!   positioning time)*, by ordinary least squares over observed transfers.
//!   A runtime can then predict the energy of a planned access pattern
//!   without executing it, which is what drives technique selection.

use crate::profile::PowerProfile;

/// Estimate the static (idle) floor of a profile as its `q`-quantile system
/// power. `q = 0.05` is robust for workloads with any idle/positioning gaps.
pub fn estimate_static_floor_w(profile: &PowerProfile, q: f64) -> f64 {
    if profile.samples.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let mut w: Vec<f64> = profile.samples.iter().map(|s| s.system_w).collect();
    w.sort_by(|a, b| a.total_cmp(b));
    let idx = ((w.len() - 1) as f64 * q).round() as usize;
    w[idx]
}

/// Feature vector of one disk transfer: what the paper says the runtime
/// model should condition on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskAccessFeatures {
    /// Number of device operations issued.
    pub ops: f64,
    /// Bytes moved.
    pub bytes: f64,
    /// Total positioning (seek + rotation) time, seconds.
    pub position_s: f64,
}

/// A fitted linear disk-energy model:
/// `E_dyn ≈ a·ops + b·bytes + c·position_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskEnergyModel {
    /// Joules per operation.
    pub per_op_j: f64,
    /// Joules per byte.
    pub per_byte_j: f64,
    /// Watts during positioning (joules per positioning second).
    pub per_position_w: f64,
}

impl DiskEnergyModel {
    /// Ordinary-least-squares fit of the model over `(features, energy_j)`
    /// observations. Returns `None` when the design matrix is singular
    /// (fewer than three independent observations).
    pub fn fit(samples: &[(DiskAccessFeatures, f64)]) -> Option<DiskEnergyModel> {
        if samples.len() < 3 {
            return None;
        }
        // Normal equations: (XᵀX) β = Xᵀy for the 3-feature design matrix.
        let mut xtx = [[0.0f64; 3]; 3];
        let mut xty = [0.0f64; 3];
        for (f, y) in samples {
            let x = [f.ops, f.bytes, f.position_s];
            for i in 0..3 {
                for j in 0..3 {
                    xtx[i][j] += x[i] * x[j];
                }
                xty[i] += x[i] * y;
            }
        }
        let beta = solve3(xtx, xty)?;
        Some(DiskEnergyModel {
            per_op_j: beta[0],
            per_byte_j: beta[1],
            per_position_w: beta[2],
        })
    }

    /// Predicted dynamic disk energy of a planned access, joules.
    pub fn predict_j(&self, f: DiskAccessFeatures) -> f64 {
        self.per_op_j * f.ops + self.per_byte_j * f.bytes + self.per_position_w * f.position_s
    }

    /// Coefficient of determination over a sample set (1.0 = perfect fit).
    pub fn r_squared(&self, samples: &[(DiskAccessFeatures, f64)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mean = samples.iter().map(|(_, y)| y).sum::<f64>() / samples.len() as f64;
        let ss_tot: f64 = samples.iter().map(|(_, y)| (y - mean) * (y - mean)).sum();
        let ss_res: f64 = samples
            .iter()
            .map(|(f, y)| {
                let e = y - self.predict_j(*f);
                e * e
            })
            .sum();
        if ss_tot <= 0.0 {
            return if ss_res <= 1e-12 { 1.0 } else { 0.0 };
        }
        1.0 - ss_res / ss_tot
    }
}

/// Solve a 3×3 linear system by Gaussian elimination with partial pivoting.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Pivot.
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..3 {
            let k = a[row][col] / a[col][col];
            let pivot_row = a[col];
            for (c, cell) in a[row].iter_mut().enumerate().skip(col) {
                *cell -= k * pivot_row[c];
            }
            b[row] -= k * b[col];
        }
    }
    // Back-substitute.
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut acc = b[row];
        for c in row + 1..3 {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileSample;

    fn features(ops: f64, bytes: f64, position_s: f64) -> DiskAccessFeatures {
        DiskAccessFeatures {
            ops,
            bytes,
            position_s,
        }
    }

    /// Ground truth generator with known coefficients.
    fn truth(f: DiskAccessFeatures) -> f64 {
        0.002 * f.ops + 1.1e-7 * f.bytes + 2.4 * f.position_s
    }

    fn training_set() -> Vec<(DiskAccessFeatures, f64)> {
        let mut out = Vec::new();
        for ops in [1.0, 16.0, 256.0, 4096.0] {
            for bytes in [4096.0, 131072.0, 4.0e6] {
                for pos in [0.001, 0.1, 2.0] {
                    let f = features(ops, bytes, pos);
                    out.push((f, truth(f)));
                }
            }
        }
        out
    }

    #[test]
    fn recovers_known_coefficients() {
        let model = DiskEnergyModel::fit(&training_set()).expect("fit");
        assert!((model.per_op_j - 0.002).abs() < 1e-9, "{model:?}");
        assert!((model.per_byte_j - 1.1e-7).abs() < 1e-12);
        assert!((model.per_position_w - 2.4).abs() < 1e-9);
        assert!(model.r_squared(&training_set()) > 0.999999);
    }

    #[test]
    fn predicts_held_out_points() {
        let model = DiskEnergyModel::fit(&training_set()).expect("fit");
        let f = features(777.0, 2.5e6, 0.37);
        assert!((model.predict_j(f) - truth(f)).abs() < 1e-6);
    }

    #[test]
    fn fit_survives_noise() {
        let mut noisy = training_set();
        for (k, (_, y)) in noisy.iter_mut().enumerate() {
            // ±2% deterministic "noise".
            *y *= 1.0 + 0.02 * ((k as f64 * 0.7).sin());
        }
        let model = DiskEnergyModel::fit(&noisy).expect("fit");
        assert!(model.r_squared(&noisy) > 0.99);
        assert!((model.per_position_w - 2.4).abs() < 0.2);
    }

    #[test]
    fn degenerate_design_is_rejected() {
        // All observations identical ⇒ singular normal matrix.
        let f = features(10.0, 1000.0, 0.1);
        let samples = vec![(f, truth(f)); 5];
        assert!(DiskEnergyModel::fit(&samples).is_none());
        assert!(DiskEnergyModel::fit(&samples[..2]).is_none());
    }

    #[test]
    fn static_floor_estimation() {
        let samples: Vec<ProfileSample> = (0..100)
            .map(|k| ProfileSample {
                t_s: k as f64,
                // Mostly busy at 140 W with dips to ~105 W.
                system_w: if k % 10 == 0 { 105.0 } else { 140.0 },
                package_w: 0.0,
                dram_w: 0.0,
            })
            .collect();
        let profile = PowerProfile {
            samples,
            period_s: 1.0,
        };
        let floor = estimate_static_floor_w(&profile, 0.05);
        assert!((floor - 105.0).abs() < 1.0, "got {floor}");
        // Degenerate cases.
        assert_eq!(estimate_static_floor_w(&PowerProfile::default(), 0.05), 0.0);
    }
}
