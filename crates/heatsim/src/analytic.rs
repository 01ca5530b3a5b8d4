//! Analytic reference solutions used to validate the numerical solver.
//!
//! For the unit square with homogeneous Dirichlet boundaries (`u = 0` on all
//! edges) and the separable initial condition
//! `u₀(x, y) = sin(mπx)·sin(nπy)`, the heat equation has the closed-form
//! solution
//!
//! `u(x, y, t) = exp(−α π² (m² + n²) t) · sin(mπx) · sin(nπy)`.
//!
//! The FTCS scheme applied to this mode must reproduce the exponential decay
//! within its truncation error, which is the strongest easily-checkable
//! correctness statement about the solver.

#[cfg(test)]
mod tests {
    use std::f64::consts::PI;

    use crate::grid::Grid;
    use crate::solver::{Boundary, HeatSolver, SolverConfig};

    /// The separable eigenmode `sin(mπx)·sin(nπy)` sampled at cell centers.
    fn eigenmode(nx: usize, ny: usize, m: u32, n: u32) -> Grid {
        Grid::from_fn(nx, ny, |x, y| {
            (m as f64 * PI * x).sin() * (n as f64 * PI * y).sin()
        })
    }

    /// Decay factor of mode `(m, n)` after time `t` with diffusivity `alpha`.
    fn mode_decay(alpha: f64, m: u32, n: u32, t: f64) -> f64 {
        (-alpha * PI * PI * ((m * m + n * n) as f64) * t).exp()
    }

    /// Relative L2 error between `approx` and `exact` (‖a − e‖₂ / ‖e‖₂).
    fn rel_l2_error(approx: &Grid, exact: &Grid) -> f64 {
        assert_eq!(approx.nx(), exact.nx());
        assert_eq!(approx.ny(), exact.ny());
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, e) in approx.as_slice().iter().zip(exact.as_slice()) {
            num += (a - e) * (a - e);
            den += e * e;
        }
        if den == 0.0 {
            num.sqrt()
        } else {
            (num / den).sqrt()
        }
    }

    /// Integrate mode (m, n) numerically and compare against the analytic
    /// decay; returns the relative L2 error.
    fn mode_error(nx: usize, m: u32, n: u32, steps: u64) -> f64 {
        let alpha = 5.0e-5;
        let dt = 0.5;
        let cfg = SolverConfig {
            alpha,
            dt,
            boundary: Boundary::Dirichlet(0.0),
            sources: Vec::new(),
        };
        let mut s = HeatSolver::new(eigenmode(nx, nx, m, n), cfg).expect("stable test config");
        s.run(steps);
        let t = steps as f64 * dt;
        let mut exact = eigenmode(nx, nx, m, n);
        let k = mode_decay(alpha, m, n, t);
        for v in exact.as_mut_slice() {
            *v *= k;
        }
        rel_l2_error(s.grid(), &exact)
    }

    #[test]
    fn fundamental_mode_matches_analytic_solution() {
        let err = mode_error(64, 1, 1, 400);
        assert!(err < 0.01, "relative L2 error {err} too large");
    }

    #[test]
    fn higher_mode_decays_faster_and_still_matches() {
        let err = mode_error(64, 2, 3, 400);
        assert!(err < 0.05, "relative L2 error {err} too large");
    }

    #[test]
    fn error_shrinks_under_grid_refinement() {
        // Fixed physical time; the spatial truncation error must drop as the
        // mesh refines (the scheme is 2nd-order in space).
        let coarse = mode_error(32, 1, 1, 200);
        let fine = mode_error(96, 1, 1, 200);
        assert!(fine < coarse, "refinement did not help: {coarse} -> {fine}");
    }

    #[test]
    fn decay_factor_sanity() {
        assert!((mode_decay(0.0, 1, 1, 10.0) - 1.0).abs() < 1e-15);
        assert!(mode_decay(1e-3, 1, 1, 100.0) < 1.0);
        assert!(mode_decay(1e-3, 3, 3, 1.0) < mode_decay(1e-3, 1, 1, 1.0));
    }

    #[test]
    fn rel_l2_error_basics() {
        let a = eigenmode(16, 16, 1, 1);
        assert_eq!(rel_l2_error(&a, &a), 0.0);
        let z = Grid::zeros(16, 16);
        assert!((rel_l2_error(&z, &a) - 1.0).abs() < 1e-12);
    }
}
