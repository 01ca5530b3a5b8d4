//! Explicit (FTCS) finite-difference solver for the 2-D heat equation.
//!
//! `∂u/∂t = α ∇²u + q`, advanced with forward-time centered-space stepping on
//! the unit square. Each output row depends only on the previous time level,
//! so rows are independent. Stability requires the CFL condition
//! `α·Δt·(1/Δx² + 1/Δy²) ≤ ½`, checked at construction.
//!
//! The production [`HeatSolver::step`] splits every row into an interior
//! fast path (pure indexed 5-point update, no branches, no bounds casts)
//! plus explicit boundary-column handling; the straight-line
//! `HeatSolver::step_reference` implementation is kept as the bit-for-bit
//! oracle.
//!
//! ## Threading
//!
//! [`HeatSolver::set_jobs`] turns on domain decomposition: the output rows
//! are split into contiguous bands — a pure function of `(ny, jobs)`, so
//! the decomposition never depends on scheduling — and the bands run on the
//! bounded work-stealing pool from `greenness-pool`. Each band reads the
//! shared previous level and writes only its own disjoint slice, and every
//! cell's update expression is exactly the sequential one, so results are
//! **bit-identical for every `jobs` value** (pinned by tests here and by
//! `tests/oracle_equivalence.rs`). With more workers than rows the partition
//! degenerates cleanly to one row per band.

use std::fmt;
use std::sync::{Mutex, PoisonError};

use greenness_pool::run_pool;

use crate::grid::Grid;

/// Boundary condition applied on all four edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Boundary {
    /// Fixed edge temperature (heat flows through the walls).
    Dirichlet(f64),
    /// Insulated walls (zero flux; total heat is conserved).
    Neumann,
}

/// A continuous point heat source: adds `rate` to one cell per unit time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSource {
    /// Cell x-index.
    pub i: usize,
    /// Cell y-index.
    pub j: usize,
    /// Heating rate, temperature units per second.
    pub rate: f64,
}

/// Solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Thermal diffusivity α.
    pub alpha: f64,
    /// Timestep Δt, seconds of *physical* (not virtual-platform) time.
    pub dt: f64,
    /// Boundary condition on every edge.
    pub boundary: Boundary,
    /// Point sources active throughout the run.
    pub sources: Vec<PointSource>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            alpha: 1.0e-4,
            dt: 0.1,
            boundary: Boundary::Dirichlet(0.0),
            sources: Vec::new(),
        }
    }
}

/// Why a solver could not be constructed. These conditions are reachable
/// from CLI flags, so they are reported as values (mapped to the binaries'
/// uniform exit-2 usage path) rather than panics.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// `alpha` or `dt` is NaN or infinite.
    NonFiniteParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `alpha` or `dt` is negative.
    NegativeParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The CFL stability condition `α·Δt·(1/Δx² + 1/Δy²) ≤ ½` is violated.
    Unstable {
        /// The computed CFL number.
        cfl: f64,
    },
    /// A point source lies outside the grid.
    SourceOutsideGrid {
        /// Source x-index.
        i: usize,
        /// Source y-index.
        j: usize,
        /// Grid width.
        nx: usize,
        /// Grid height.
        ny: usize,
    },
    /// A point source has a NaN or infinite heating rate.
    NonFiniteSourceRate {
        /// Source x-index.
        i: usize,
        /// Source y-index.
        j: usize,
        /// The offending rate.
        rate: f64,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NonFiniteParameter { name, value } => {
                write!(f, "{name} must be finite, got {value}")
            }
            SolverError::NegativeParameter { name, value } => {
                write!(f, "{name} must be non-negative, got {value}")
            }
            SolverError::Unstable { cfl } => {
                write!(
                    f,
                    "FTCS unstable: alpha*dt*(1/dx^2+1/dy^2) = {cfl:.3} > 0.5"
                )
            }
            SolverError::SourceOutsideGrid { i, j, nx, ny } => {
                write!(f, "source ({i}, {j}) outside {nx}x{ny} grid")
            }
            SolverError::NonFiniteSourceRate { i, j, rate } => {
                write!(f, "source ({i}, {j}) rate must be finite, got {rate}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

impl SolverConfig {
    /// Check this configuration against an `nx × ny` grid without building
    /// a solver — the validation [`HeatSolver::new`] performs, exposed so
    /// CLI front ends can reject bad flags before any work starts.
    pub fn validate(&self, nx: usize, ny: usize) -> Result<(), SolverError> {
        for (name, value) in [("alpha", self.alpha), ("dt", self.dt)] {
            if !value.is_finite() {
                return Err(SolverError::NonFiniteParameter { name, value });
            }
            if value < 0.0 {
                return Err(SolverError::NegativeParameter { name, value });
            }
        }
        let dx = 1.0 / nx as f64;
        let dy = 1.0 / ny as f64;
        let cfl = self.alpha * self.dt * (1.0 / (dx * dx) + 1.0 / (dy * dy));
        // alpha and dt are already known finite, so cfl cannot be NaN here
        // and a plain > comparison is exhaustive.
        if cfl > 0.5 + 1e-12 {
            return Err(SolverError::Unstable { cfl });
        }
        for s in &self.sources {
            if s.i >= nx || s.j >= ny {
                return Err(SolverError::SourceOutsideGrid {
                    i: s.i,
                    j: s.j,
                    nx,
                    ny,
                });
            }
            if !s.rate.is_finite() {
                return Err(SolverError::NonFiniteSourceRate {
                    i: s.i,
                    j: s.j,
                    rate: s.rate,
                });
            }
        }
        Ok(())
    }
}

/// The heat-equation integrator. Owns the current and scratch fields.
#[derive(Debug, Clone)]
pub struct HeatSolver {
    config: SolverConfig,
    grid: Grid,
    scratch: Grid,
    steps_taken: u64,
    cell_updates: u64,
    jobs: usize,
}

impl HeatSolver {
    /// Build a solver over `initial`. Fails if `alpha`/`dt` are non-finite
    /// or negative, the CFL stability condition is violated, or a source
    /// lies outside the grid.
    pub fn new(initial: Grid, config: SolverConfig) -> Result<HeatSolver, SolverError> {
        config.validate(initial.nx(), initial.ny())?;
        let scratch = initial.clone();
        Ok(HeatSolver {
            config,
            grid: initial,
            scratch,
            steps_taken: 0,
            cell_updates: 0,
            jobs: 1,
        })
    }

    /// Set the worker count for [`Self::step`]'s domain decomposition.
    /// `jobs <= 1` keeps the sequential path. Results are bit-identical for
    /// every value — threading changes wall-clock, never bytes.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The current field.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The solver configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Timesteps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Interior cell updates performed so far (the work measure the cost
    /// model charges).
    pub fn cell_updates(&self) -> u64 {
        self.cell_updates
    }

    /// The stencil coefficients `rx = α·Δt/Δx²`, `ry = α·Δt/Δy²`.
    fn coefficients(&self) -> (f64, f64) {
        let dx = 1.0 / self.grid.nx() as f64;
        let dy = 1.0 / self.grid.ny() as f64;
        let rx = self.config.alpha * self.config.dt / (dx * dx);
        let ry = self.config.alpha * self.config.dt / (dy * dy);
        (rx, ry)
    }

    /// Apply point sources to the freshly computed level, commit it, and
    /// advance the counters. Shared by both step implementations.
    fn commit_step(&mut self) {
        for s in &self.config.sources {
            let v = self.scratch.at(s.i, s.j) + s.rate * self.config.dt;
            self.scratch.set(s.i, s.j, v);
        }
        std::mem::swap(&mut self.grid, &mut self.scratch);
        self.steps_taken += 1;
        self.cell_updates += (self.grid.nx() * self.grid.ny()) as u64;
    }

    /// Advance one timestep on the fast path: per-row slices hoisted once,
    /// interior columns updated by pure indexed loads, wall columns and
    /// wall rows handled explicitly through the boundary's ghost formula.
    /// Bit-identical to `Self::step_reference` (pinned by unit tests,
    /// proptests, and the golden/image-equivalence suites).
    pub fn step(&mut self) {
        let (rx, ry) = self.coefficients();
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let prev = self.grid.as_slice();
        let out = self.scratch.as_mut_slice();
        // Both boundaries reduce an out-of-grid orthogonal neighbor to a
        // function of the wall cell's own value `u`: the clamped mirror
        // index of such a neighbor is the wall cell itself, so Dirichlet's
        // second-order ghost is `2v − u` and Neumann's reflection is `u`.
        let jobs = self.jobs;
        match self.config.boundary {
            Boundary::Dirichlet(v) => {
                step_field(prev, out, nx, ny, rx, ry, move |u| 2.0 * v - u, jobs)
            }
            Boundary::Neumann => step_field(prev, out, nx, ny, rx, ry, |u| u, jobs),
        }
        self.commit_step();
    }

    /// Advance `n` timesteps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

/// The 5-point FTCS update. The expression tree must stay exactly as the
/// reference implementation writes it — floating-point addition is not
/// associative, and the determinism suites compare output bytes.
#[inline(always)]
fn update(u: f64, e: f64, w: f64, n: f64, s: f64, rx: f64, ry: f64) -> f64 {
    u + rx * (e - 2.0 * u + w) + ry * (n - 2.0 * u + s)
}

/// One output row where one vertical neighbor may be a ghost (wall rows).
/// `north`/`south` yield the vertical neighbors of column `i` whose center
/// value is `u`. Interior columns take the branch-free indexed path; the
/// two wall columns are peeled out explicitly.
#[inline(always)]
fn stencil_row<G, N, S>(
    row: &mut [f64],
    cur: &[f64],
    rx: f64,
    ry: f64,
    ghost: G,
    north: N,
    south: S,
) where
    G: Fn(f64) -> f64,
    N: Fn(usize, f64) -> f64,
    S: Fn(usize, f64) -> f64,
{
    let last = cur.len() - 1;
    let u = cur[0];
    row[0] = update(u, cur[1], ghost(u), north(0, u), south(0, u), rx, ry);
    for i in 1..last {
        let u = cur[i];
        row[i] = update(u, cur[i + 1], cur[i - 1], north(i, u), south(i, u), rx, ry);
    }
    let u = cur[last];
    row[last] = update(
        u,
        ghost(u),
        cur[last - 1],
        north(last, u),
        south(last, u),
        rx,
        ry,
    );
}

/// Interior (non-wall) rows, where all four neighbors are real slices. The
/// middle columns walk `[f64; 8]` chunks — six parallel arrays with a
/// fixed-trip inner loop, the shape LLVM autovectorizes — and the scalar
/// remainder plus both wall columns use the very same [`update`] expression,
/// so the chunking changes instruction scheduling, never results.
#[inline(always)]
fn stencil_row_interior<G>(
    row: &mut [f64],
    cur: &[f64],
    north: &[f64],
    south: &[f64],
    rx: f64,
    ry: f64,
    ghost: G,
) where
    G: Fn(f64) -> f64,
{
    const LANES: usize = 8;
    let last = cur.len() - 1;
    let u = cur[0];
    row[0] = update(u, cur[1], ghost(u), north[0], south[0], rx, ry);
    // n interior columns starting at 1: center c, east e, west w.
    let n = last - 1;
    let chunks = n / LANES;
    for blk in 0..chunks {
        let base = 1 + blk * LANES;
        let o: &mut [f64; LANES] = (&mut row[base..base + LANES]).try_into().expect("chunk");
        let c: &[f64; LANES] = cur[base..base + LANES].try_into().expect("chunk");
        let e: &[f64; LANES] = cur[base + 1..base + 1 + LANES].try_into().expect("chunk");
        let w: &[f64; LANES] = cur[base - 1..base - 1 + LANES].try_into().expect("chunk");
        let nn: &[f64; LANES] = north[base..base + LANES].try_into().expect("chunk");
        let ss: &[f64; LANES] = south[base..base + LANES].try_into().expect("chunk");
        for k in 0..LANES {
            o[k] = update(c[k], e[k], w[k], nn[k], ss[k], rx, ry);
        }
    }
    for i in 1 + chunks * LANES..last {
        let u = cur[i];
        row[i] = update(u, cur[i + 1], cur[i - 1], north[i], south[i], rx, ry);
    }
    let u = cur[last];
    row[last] = update(u, ghost(u), cur[last - 1], north[last], south[last], rx, ry);
}

/// Compute a contiguous band of output rows starting at global row `j0`.
/// `band` is the destination slice (`rows × nx` cells); `prev` is the full
/// previous level, so neighbor rows just outside the band stay in reach.
#[allow(clippy::too_many_arguments)]
fn step_rows<G>(
    prev: &[f64],
    band: &mut [f64],
    nx: usize,
    ny: usize,
    j0: usize,
    rx: f64,
    ry: f64,
    ghost: G,
) where
    G: Fn(f64) -> f64 + Copy,
{
    let last_row = ny - 1;
    for (jj, row) in band.chunks_mut(nx).enumerate() {
        let j = j0 + jj;
        let base = j * nx;
        let cur = &prev[base..base + nx];
        if j == 0 {
            let north = &prev[base + nx..base + 2 * nx];
            stencil_row(row, cur, rx, ry, ghost, |i, _| north[i], |_, u| ghost(u));
        } else if j == last_row {
            let south = &prev[base - nx..base];
            stencil_row(row, cur, rx, ry, ghost, |_, u| ghost(u), |i, _| south[i]);
        } else {
            let north = &prev[base + nx..base + 2 * nx];
            let south = &prev[base - nx..base];
            stencil_row_interior(row, cur, north, south, rx, ry, ghost);
        }
    }
}

/// Row counts of the contiguous bands `jobs` workers get over `ny` rows —
/// a pure function of `(ny, jobs)`, so the decomposition is identical
/// across runs and never depends on which worker executes which band. With
/// more workers than rows this degenerates cleanly to one row per band.
fn partition_rows(ny: usize, jobs: usize) -> Vec<usize> {
    let tiles = jobs.clamp(1, ny.max(1));
    let base = ny / tiles;
    let rem = ny % tiles;
    (0..tiles).map(|t| base + usize::from(t < rem)).collect()
}

/// One full time level on the fast path. `ghost(u)` is the value of an
/// out-of-grid neighbor of a wall cell holding `u`. With `jobs > 1` the
/// row bands run on the work-stealing pool; every band writes only its own
/// disjoint slice of `out`, so which worker runs a band never affects the
/// output bytes.
#[allow(clippy::too_many_arguments)]
fn step_field<G>(
    prev: &[f64],
    out: &mut [f64],
    nx: usize,
    ny: usize,
    rx: f64,
    ry: f64,
    ghost: G,
    jobs: usize,
) where
    G: Fn(f64) -> f64 + Copy + Send + Sync,
{
    let tiles = partition_rows(ny, jobs);
    if tiles.len() <= 1 {
        step_rows(prev, out, nx, ny, 0, rx, ry, ghost);
        return;
    }
    // Disjoint destination bands behind per-band mutexes: split_at_mut
    // proves disjointness to the borrow checker, the (uncontended) mutexes
    // make the bands reachable from the pool's Sync closure.
    let mut bands: Vec<Mutex<(usize, &mut [f64])>> = Vec::with_capacity(tiles.len());
    let mut rest = out;
    let mut j0 = 0;
    for &rows in &tiles {
        let (band, tail) = rest.split_at_mut(rows * nx);
        bands.push(Mutex::new((j0, band)));
        rest = tail;
        j0 += rows;
    }
    let mut first_panic: Option<String> = None;
    run_pool(
        bands.len(),
        jobs,
        &|t| {
            let mut guard = bands[t].lock().unwrap_or_else(PoisonError::into_inner);
            let (j0, band) = &mut *guard;
            step_rows(prev, band, nx, ny, *j0, rx, ry, ghost);
        },
        &mut |_, result| {
            if let (Err(message), None) = (result, &first_panic) {
                first_panic = Some(message);
            }
        },
    );
    if let Some(message) = first_panic {
        panic!("stencil band worker panicked: {message}");
    }
}

#[cfg(any(test, feature = "reference"))]
impl HeatSolver {
    /// Advance one timestep through the original per-cell closure (match on
    /// `Boundary` + `isize` clamping for every sample). Retained as the
    /// reference oracle the fast path must match bit-for-bit; built for
    /// tests and under the `reference` feature.
    pub fn step_reference(&mut self) {
        let nx = self.grid.nx();
        let ny = self.grid.ny();
        let (rx, ry) = self.coefficients();

        // Ghost-cell view of the previous level under the active boundary.
        let prev = self.grid.as_slice();
        let boundary = self.config.boundary;
        let sample = move |i: isize, j: isize| -> f64 {
            match boundary {
                Boundary::Dirichlet(v) => {
                    if i < 0 || j < 0 || i >= nx as isize || j >= ny as isize {
                        // Second-order ghost for a cell-centered mesh: the
                        // wall value sits on the face between the ghost and
                        // the nearest interior cell.
                        let ii = i.clamp(0, nx as isize - 1) as usize;
                        let jj = j.clamp(0, ny as isize - 1) as usize;
                        2.0 * v - prev[jj * nx + ii]
                    } else {
                        prev[j as usize * nx + i as usize]
                    }
                }
                Boundary::Neumann => {
                    // Reflect: zero-flux mirror at the walls.
                    let i = i.clamp(0, nx as isize - 1) as usize;
                    let j = j.clamp(0, ny as isize - 1) as usize;
                    prev[j * nx + i]
                }
            }
        };

        self.scratch
            .as_mut_slice()
            .chunks_mut(nx)
            .enumerate()
            .for_each(|(j, row)| {
                let j = j as isize;
                for (i_us, out) in row.iter_mut().enumerate() {
                    let i = i_us as isize;
                    let u = sample(i, j);
                    *out = u
                        + rx * (sample(i + 1, j) - 2.0 * u + sample(i - 1, j))
                        + ry * (sample(i, j + 1) - 2.0 * u + sample(i, j - 1));
                }
            });

        self.commit_step();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver(initial: Grid, config: SolverConfig) -> HeatSolver {
        HeatSolver::new(initial, config).expect("valid test config")
    }

    fn hot_center(n: usize) -> Grid {
        let mut g = Grid::zeros(n, n);
        g.set(n / 2, n / 2, 100.0);
        g
    }

    #[test]
    fn cfl_violation_is_rejected() {
        let cfg = SolverConfig {
            alpha: 1.0,
            dt: 1.0,
            ..Default::default()
        };
        let err = HeatSolver::new(Grid::zeros(32, 32), cfg).unwrap_err();
        assert!(matches!(err, SolverError::Unstable { .. }));
        assert!(err.to_string().contains("FTCS unstable"), "{err}");
    }

    #[test]
    fn out_of_grid_source_is_rejected() {
        let cfg = SolverConfig {
            sources: vec![PointSource {
                i: 99,
                j: 0,
                rate: 1.0,
            }],
            ..Default::default()
        };
        let err = HeatSolver::new(Grid::zeros(16, 16), cfg).unwrap_err();
        assert!(matches!(err, SolverError::SourceOutsideGrid { .. }));
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn non_finite_parameters_are_rejected_not_panicked() {
        for (alpha, dt) in [
            (f64::NAN, 0.1),
            (f64::INFINITY, 0.1),
            (1e-4, f64::NAN),
            (1e-4, f64::NEG_INFINITY),
        ] {
            let cfg = SolverConfig {
                alpha,
                dt,
                ..Default::default()
            };
            let err = HeatSolver::new(Grid::zeros(8, 8), cfg).unwrap_err();
            assert!(
                matches!(err, SolverError::NonFiniteParameter { .. }),
                "alpha={alpha} dt={dt}: {err}"
            );
        }
        // NaN used to slip past `assert!(cfl <= …)` into a poisoned solver
        // on one comparison direction and panic on the other; now both are
        // structured errors, as are negatives (which sailed through the
        // CFL check entirely).
        let neg = SolverConfig {
            alpha: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            HeatSolver::new(Grid::zeros(8, 8), neg).unwrap_err(),
            SolverError::NegativeParameter { .. }
        ));
    }

    #[test]
    fn non_finite_source_rate_is_rejected() {
        let cfg = SolverConfig {
            sources: vec![PointSource {
                i: 2,
                j: 2,
                rate: f64::NAN,
            }],
            ..Default::default()
        };
        assert!(matches!(
            HeatSolver::new(Grid::zeros(8, 8), cfg).unwrap_err(),
            SolverError::NonFiniteSourceRate { .. }
        ));
    }

    #[test]
    fn fast_path_matches_reference_bit_for_bit() {
        for boundary in [Boundary::Dirichlet(1.5), Boundary::Neumann] {
            let cfg = SolverConfig {
                boundary,
                ..Default::default()
            };
            let init = Grid::from_fn(19, 11, |x, y| (x * 9.0).sin() + (y * 4.0).cos());
            let mut fast = solver(init.clone(), cfg.clone());
            let mut reference = solver(init, cfg);
            for step in 0..40 {
                fast.step();
                reference.step_reference();
                assert_eq!(
                    fast.grid().as_slice(),
                    reference.grid().as_slice(),
                    "{boundary:?} diverged at step {step}"
                );
            }
            assert_eq!(fast.cell_updates(), reference.cell_updates());
        }
    }

    #[test]
    fn heat_diffuses_outward() {
        let mut s = solver(hot_center(33), SolverConfig::default());
        let peak_before = s.grid().max();
        s.run(50);
        let c = 33 / 2;
        assert!(s.grid().max() < peak_before, "peak must decay");
        assert!(s.grid().at(c + 1, c) > 0.0, "neighbors must warm up");
        assert_eq!(s.steps_taken(), 50);
        assert_eq!(s.cell_updates(), 50 * 33 * 33);
    }

    #[test]
    fn maximum_principle_without_sources() {
        let mut s = solver(
            Grid::from_fn(24, 24, |x, y| (x * 9.0).sin() * (y * 7.0).cos()),
            SolverConfig::default(),
        );
        let (lo, hi) = (s.grid().min().min(0.0), s.grid().max().max(0.0));
        s.run(200);
        assert!(s.grid().min() >= lo - 1e-9, "new minimum appeared");
        assert!(s.grid().max() <= hi + 1e-9, "new maximum appeared");
    }

    #[test]
    fn neumann_conserves_total_heat() {
        let cfg = SolverConfig {
            boundary: Boundary::Neumann,
            ..Default::default()
        };
        let mut s = solver(hot_center(21), cfg);
        let before = s.grid().total();
        s.run(300);
        let after = s.grid().total();
        assert!(
            (after - before).abs() < 1e-8 * before.abs().max(1.0),
            "{before} -> {after}"
        );
    }

    #[test]
    fn dirichlet_relaxes_to_wall_temperature() {
        let cfg = SolverConfig {
            alpha: 1.0e-3,
            dt: 0.1,
            boundary: Boundary::Dirichlet(5.0),
            sources: Vec::new(),
        };
        let mut s = solver(Grid::zeros(16, 16), cfg);
        s.run(5000);
        let center = s.grid().at(8, 8);
        assert!(
            (center - 5.0).abs() < 0.05,
            "center {center} should approach 5.0"
        );
    }

    #[test]
    fn point_source_injects_heat() {
        let cfg = SolverConfig {
            boundary: Boundary::Neumann,
            sources: vec![PointSource {
                i: 8,
                j: 8,
                rate: 10.0,
            }],
            ..Default::default()
        };
        let mut s = solver(Grid::zeros(17, 17), cfg);
        s.run(100);
        // 100 steps × 10 units/s × 0.1 s = 100 units of heat injected.
        assert!((s.grid().total() - 100.0).abs() < 1e-9);
        assert!(s.grid().at(8, 8) > s.grid().at(0, 0));
    }

    #[test]
    fn symmetric_initial_condition_stays_symmetric() {
        let mut s = solver(hot_center(33), SolverConfig::default());
        s.run(80);
        let g = s.grid();
        for j in 0..33 {
            for i in 0..17 {
                let a = g.at(i, j);
                let b = g.at(32 - i, j);
                assert!(
                    (a - b).abs() < 1e-12,
                    "x-asymmetry at ({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn threaded_step_is_bit_identical_for_every_job_count() {
        for boundary in [Boundary::Dirichlet(1.5), Boundary::Neumann] {
            let cfg = SolverConfig {
                boundary,
                ..Default::default()
            };
            // nx = 37 engages the [f64; 8] chunked interior path (multiple
            // chunks plus a scalar remainder).
            let init = Grid::from_fn(37, 23, |x, y| (x * 9.0).sin() + (y * 4.0).cos());
            let mut reference = solver(init.clone(), cfg.clone());
            for _ in 0..25 {
                reference.step_reference();
            }
            for jobs in [1usize, 2, 3, 8, 64] {
                let mut s = solver(init.clone(), cfg.clone());
                s.set_jobs(jobs);
                assert_eq!(s.jobs(), jobs);
                for _ in 0..25 {
                    s.step();
                }
                assert_eq!(
                    s.grid().as_slice(),
                    reference.grid().as_slice(),
                    "{boundary:?} diverged at jobs={jobs}"
                );
                assert_eq!(s.cell_updates(), reference.cell_updates());
            }
        }
    }

    #[test]
    fn degenerate_slabs_with_more_workers_than_rows_fall_back_cleanly() {
        // The PR-5 proptested slab shapes: 3×N and N×3, plus the thinnest
        // legal slabs — jobs far exceeds the row count, so the partition
        // must degenerate to one row per band without empty bands or
        // out-of-range neighbor slices.
        for (nx, ny) in [(3usize, 37usize), (37, 3), (3, 3), (3, 4), (4, 3)] {
            for boundary in [Boundary::Dirichlet(0.5), Boundary::Neumann] {
                let cfg = SolverConfig {
                    boundary,
                    ..Default::default()
                };
                let init = Grid::from_fn(nx, ny, |x, y| (x * 7.0).sin() * (y * 3.0).cos());
                let mut reference = solver(init.clone(), cfg.clone());
                let mut threaded = solver(init, cfg);
                threaded.set_jobs(8);
                for step in 0..15 {
                    reference.step_reference();
                    threaded.step();
                    assert_eq!(
                        threaded.grid().as_slice(),
                        reference.grid().as_slice(),
                        "{nx}x{ny} {boundary:?} diverged at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_rows_is_exact_and_degenerates_cleanly() {
        for (ny, jobs) in [(7usize, 2usize), (3, 8), (1, 8), (64, 8), (5, 5), (9, 1)] {
            let bands = partition_rows(ny, jobs);
            assert_eq!(bands.iter().sum::<usize>(), ny, "ny={ny} jobs={jobs}");
            assert!(bands.len() <= jobs.max(1));
            assert!(bands.iter().all(|&rows| rows >= 1), "empty band");
            let spread = bands.iter().max().unwrap() - bands.iter().min().unwrap();
            assert!(spread <= 1, "unbalanced bands {bands:?}");
        }
        assert_eq!(partition_rows(5, 0), vec![5], "jobs=0 clamps to one band");
    }

    #[test]
    fn set_jobs_zero_clamps_to_sequential() {
        let mut s = solver(hot_center(9), SolverConfig::default());
        s.set_jobs(0);
        assert_eq!(s.jobs(), 1);
        s.step();
        assert_eq!(s.steps_taken(), 1);
    }
}
