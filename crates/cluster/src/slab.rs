//! Row-slab decomposition of the heat solver's field.
//!
//! The global grid is split into horizontal slabs, one per compute node.
//! What is decomposed is *ownership*: which rows a node serializes, renders
//! and is charged for, and the ghost rows neighbouring nodes exchange each
//! step ([`GhostTraffic`], which the fabric charges). The field itself is
//! advanced by the workspace's one solver,
//! [`HeatSolver`](greenness_heatsim::HeatSolver), over the whole grid. For
//! FTCS that is exact, not an approximation: an update reads only the
//! previous time level, so "exchange ghost rows, then update every slab"
//! computes what one step over the global array computes — a ghost row is a
//! copy of a row that array already holds.

use std::ops::Range;

use greenness_heatsim::grid::le_bytes;
use greenness_heatsim::{Grid, HeatSolver, SolverConfig};

/// Row-range metadata for one slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabInfo {
    /// First global row this slab owns.
    pub j0: usize,
    /// Rows owned.
    pub rows: usize,
    /// Cells owned (`rows × nx`).
    pub cells: u64,
}

/// Per-step ghost-exchange traffic summary, for the fabric to charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostTraffic {
    /// Bytes each neighbor pair sends in each direction per step.
    pub bytes_per_direction: u64,
    /// Number of neighbor pairs.
    pub pairs: usize,
}

/// `(j0, rows)` of each of `parts` row slabs of an `ny`-row grid:
/// contiguous, covering every row, remainder rows to the leading slabs.
pub(crate) fn row_slabs(ny: usize, parts: usize) -> Vec<(usize, usize)> {
    let mut j0 = 0;
    (0..parts)
        .map(|k| {
            let rows = ny / parts + usize::from(k < ny % parts);
            j0 += rows;
            (j0 - rows, rows)
        })
        .collect()
}

/// Exact pixel-row partition for slab renders: slab rows `[j0, j0+rows)` of
/// a `ny`-row grid own pixel rows `[height*j0/ny, height*(j0+rows)/ny)`.
/// The boundaries telescope, so per-slab heights (and pixel charges) sum to
/// exactly the full frame — no truncation bias on odd grids.
pub fn slab_rows_px(height: usize, ny: usize, j0: usize, rows: usize) -> usize {
    height * (j0 + rows) / ny - height * j0 / ny
}

/// A row-slab view over one [`HeatSolver`]: the same physics, with the
/// field's rows owned by `parts` slabs.
#[derive(Debug, Clone)]
pub struct DecomposedSolver {
    solver: HeatSolver,
    /// `(j0, rows)` per slab.
    slabs: Vec<(usize, usize)>,
}

impl DecomposedSolver {
    /// Decompose `initial` into `parts` row slabs: contiguous, covering
    /// every row, remainder rows to the leading slabs. Panics if a slab
    /// would own fewer than 3 rows or the configuration fails
    /// [`SolverConfig::validate`] (CFL condition, source out of range) — the
    /// same contracts as the single-node solver.
    pub fn new(initial: &Grid, config: SolverConfig, parts: usize) -> Self {
        assert!(parts >= 1, "need at least one slab");
        let ny = initial.ny();
        assert!(
            ny / parts >= 3,
            "each slab needs at least 3 rows ({ny} rows / {parts} parts)"
        );
        let solver = HeatSolver::new(initial.clone(), config).unwrap_or_else(|e| panic!("{e}"));
        DecomposedSolver {
            solver,
            slabs: row_slabs(ny, parts),
        }
    }

    /// Metadata for slab `k`.
    pub fn slab_info(&self, k: usize) -> SlabInfo {
        let (j0, rows) = self.slabs[k];
        SlabInfo {
            j0,
            rows,
            cells: self.cells(k).len() as u64,
        }
    }

    /// The ghost traffic each step generates, for fabric accounting.
    pub fn ghost_traffic(&self) -> GhostTraffic {
        GhostTraffic {
            bytes_per_direction: (self.solver.grid().nx() * std::mem::size_of::<f64>()) as u64,
            pairs: self.slabs.len().saturating_sub(1),
        }
    }

    /// Slab `k`'s owned rows within the global row-major field.
    fn cells(&self, k: usize) -> Range<usize> {
        let (j0, rows) = self.slabs[k];
        let nx = self.solver.grid().nx();
        j0 * nx..(j0 + rows) * nx
    }

    /// Slab `k`'s owned rows as serialized little-endian `f64`s (its
    /// snapshot contribution).
    pub fn slab_bytes(&self, k: usize) -> Vec<u8> {
        le_bytes(&self.solver.grid().as_slice()[self.cells(k)])
    }

    /// Slab `k`'s owned rows as a standalone [`Grid`] (for per-node in-situ
    /// rendering).
    pub fn slab_grid(&self, k: usize) -> Grid {
        let mut g = Grid::zeros(self.solver.grid().nx(), self.slabs[k].1);
        g.as_mut_slice()
            .copy_from_slice(&self.solver.grid().as_slice()[self.cells(k)]);
        g
    }

    /// Advance one timestep.
    pub fn step(&mut self) {
        self.solver.step();
    }

    /// Advance `n` timesteps.
    pub fn run(&mut self, n: u64) {
        self.solver.run(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_heatsim::{Boundary, PointSource};

    fn initial(n: usize) -> Grid {
        Grid::from_fn(n, n, |x, y| (x * 7.0).sin() * (y * 3.0).cos() + 0.3 * x)
    }

    fn config(boundary: Boundary) -> SolverConfig {
        SolverConfig {
            alpha: 1.0e-4,
            dt: 0.05,
            boundary,
            sources: vec![PointSource {
                i: 5,
                j: 17,
                rate: 2.0,
            }],
        }
    }

    /// Every (grid, boundary, parts) the view tests walk: even and odd row
    /// counts, both boundaries, one slab to five.
    fn cases() -> Vec<(usize, Boundary, usize)> {
        let mut cases = Vec::new();
        for n in [30, 31] {
            for boundary in [Boundary::Dirichlet(0.5), Boundary::Neumann] {
                for parts in [1, 2, 3, 5] {
                    cases.push((n, boundary, parts));
                }
            }
        }
        cases
    }

    /// The field an independent single-node solver reaches after `steps`.
    fn whole(n: usize, boundary: Boundary, steps: u64) -> Grid {
        let mut solver = HeatSolver::new(initial(n), config(boundary)).expect("stable");
        solver.run(steps);
        solver.grid().clone()
    }

    /// Every slab's bytes, in slab order.
    fn concatenated(d: &DecomposedSolver, parts: usize) -> Vec<u8> {
        (0..parts).flat_map(|k| d.slab_bytes(k)).collect()
    }

    #[test]
    fn uneven_row_counts_are_distributed() {
        for (n, boundary, parts) in cases() {
            let d = DecomposedSolver::new(&initial(n), config(boundary), parts);
            let mut next = 0;
            for k in 0..parts {
                let info = d.slab_info(k);
                assert_eq!(info.j0, next, "{n} rows / {parts}: gap before slab {k}");
                // Leading slabs absorb the remainder.
                assert_eq!(info.rows, n / parts + usize::from(k < n % parts));
                assert_eq!(info.cells, (info.rows * n) as u64);
                next += info.rows;
            }
            assert_eq!(next, n, "{n} rows / {parts}: rows left unowned");
        }
        // 31 rows over 4: 8, 8, 8, 7.
        let d = DecomposedSolver::new(&initial(31), config(Boundary::Neumann), 4);
        let rows: Vec<usize> = (0..4).map(|k| d.slab_info(k).rows).collect();
        assert_eq!(rows, [8, 8, 8, 7]);
        assert_eq!(d.slab_info(3).j0, 24);
    }

    #[test]
    fn slab_bytes_concatenate_to_the_snapshot() {
        for (n, boundary, parts) in cases() {
            let mut d = DecomposedSolver::new(&initial(n), config(boundary), parts);
            d.run(5);
            let want = whole(n, boundary, 5).to_bytes();
            assert_eq!(concatenated(&d, parts), want, "{n} rows / {parts}");
        }
    }

    #[test]
    fn slab_grid_matches_owned_rows() {
        for (n, boundary, parts) in cases() {
            let mut d = DecomposedSolver::new(&initial(n), config(boundary), parts);
            d.run(3);
            let full = whole(n, boundary, 3);
            assert_ne!(full, initial(n), "the field never moved");
            for k in 0..parts {
                let (g, info) = (d.slab_grid(k), d.slab_info(k));
                assert_eq!((g.nx(), g.ny()), (n, info.rows));
                for r in 0..info.rows {
                    for i in 0..n {
                        assert_eq!(g.at(i, r), full.at(i, info.j0 + r));
                    }
                }
            }
        }
    }

    #[test]
    fn steps_and_dims_follow_the_inner_solver() {
        let mut d = DecomposedSolver::new(&initial(31), config(Boundary::Neumann), 3);
        assert_eq!(concatenated(&d, 3), initial(31).to_bytes());
        d.step();
        d.run(6);
        let want = whole(31, Boundary::Neumann, 7);
        assert_eq!(concatenated(&d, 3), want.to_bytes());
        let widths: Vec<usize> = (0..3).map(|k| d.slab_grid(k).nx()).collect();
        assert_eq!(widths, [31; 3]);
    }

    #[test]
    fn ghost_traffic_accounting() {
        let d = DecomposedSolver::new(&initial(24), config(Boundary::Neumann), 4);
        let t = d.ghost_traffic();
        assert_eq!(t.pairs, 3);
        assert_eq!(t.bytes_per_direction, 24 * 8);
    }

    #[test]
    #[should_panic(expected = "at least 3 rows")]
    fn over_decomposition_is_rejected() {
        let _ = DecomposedSolver::new(&initial(12), config(Boundary::Neumann), 8);
    }
}
