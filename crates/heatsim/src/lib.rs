//! # greenness-heatsim
//!
//! The proxy heat-transfer simulation driving both visualization pipelines —
//! the role played in the paper by a finite-element heat-transfer proxy app
//! (its ref [4], Reddy & Gartling). We implement a 2-D explicit
//! finite-difference (FTCS) solver for the heat equation
//! `∂u/∂t = α ∇²u` with Dirichlet/Neumann boundaries and optional point
//! sources, parallelized over row bands on `greenness-pool`, and validated
//! against the analytic separable-series solution.
//!
//! The solver performs *real* computation — every snapshot that flows into
//! the storage stack and renderer is genuine solver output — while the
//! [`cost`] module translates the work performed into platform activities
//! whose timing is calibrated to the paper's measured simulation-phase
//! duration (see DESIGN.md §4: the paper's proxy did an implicit FEM solve
//! per step, so its per-cell cost is far higher than one explicit sweep;
//! the calibrated `flops_per_cell_update` carries that difference).

pub mod cost;
pub mod grid;
pub mod solver;

pub use cost::SimCostModel;
pub use grid::Grid;
pub use solver::{Boundary, HeatSolver, PointSource, SolverConfig, SolverError};

#[cfg(test)]
mod analytic;
