//! Domain-decomposed heat solver: row slabs with ghost-row exchange.
//!
//! The global grid is split into horizontal slabs, one per compute node.
//! Each timestep the slabs exchange their boundary rows (ghost rows), then
//! update independently — the standard 1-D decomposition of a 5-point
//! stencil. The update expression, boundary handling, and source application
//! replicate [`HeatSolver`](greenness_heatsim::HeatSolver) *operation for
//! operation*, so the decomposed run is bit-identical to the single-node
//! run — the strongest possible correctness statement for the distributed
//! solver, and the tests assert it.

use greenness_heatsim::{Boundary, Grid, SolverConfig};

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

#[derive(Debug, Clone)]
struct Slab {
    j0: usize,
    rows: usize,
    /// `(rows + 2) × nx`, rows 0 and rows+1 are ghosts.
    data: Vec<f64>,
    scratch: Vec<f64>,
}

/// Per-step ghost-exchange traffic summary, for the fabric to charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostTraffic {
    /// Bytes each neighbor pair sends in each direction per step.
    pub bytes_per_direction: u64,
    /// Number of neighbor pairs.
    pub pairs: usize,
}

/// The decomposed solver: the same physics as `HeatSolver`, split over
/// `parts` slabs.
#[derive(Debug, Clone)]
pub struct DecomposedSolver {
    config: SolverConfig,
    nx: usize,
    ny: usize,
    slabs: Vec<Slab>,
    steps_taken: u64,
}

impl DecomposedSolver {
    /// Decompose `initial` into `parts` row slabs. Panics if the CFL
    /// condition fails, a slab would own fewer than 3 rows, or a source is
    /// out of range — the same contracts as the single-node solver.
    pub fn new(initial: &Grid, config: SolverConfig, parts: usize) -> Self {
        assert!(parts >= 1, "need at least one slab");
        let nx = initial.nx();
        let ny = initial.ny();
        assert!(
            ny / parts >= 3,
            "each slab needs at least 3 rows ({ny} rows / {parts} parts)"
        );
        let dx = 1.0 / nx as f64;
        let dy = 1.0 / ny as f64;
        let cfl = config.alpha * config.dt * (1.0 / (dx * dx) + 1.0 / (dy * dy));
        assert!(cfl <= 0.5 + 1e-12, "FTCS unstable: {cfl:.3} > 0.5");
        for s in &config.sources {
            assert!(s.i < nx && s.j < ny, "source outside grid");
        }
        // Distribute remainder rows to the leading slabs.
        let base = ny / parts;
        let extra = ny % parts;
        let mut slabs = Vec::with_capacity(parts);
        let mut j0 = 0usize;
        for k in 0..parts {
            let rows = base + usize::from(k < extra);
            let mut data = vec![0.0; (rows + 2) * nx];
            for r in 0..rows {
                for i in 0..nx {
                    data[(r + 1) * nx + i] = initial.at(i, j0 + r);
                }
            }
            slabs.push(Slab {
                j0,
                rows,
                scratch: data.clone(),
                data,
            });
            j0 += rows;
        }
        DecomposedSolver {
            config,
            nx,
            ny,
            slabs,
            steps_taken: 0,
        }
    }

    /// Number of slabs.
    pub fn parts(&self) -> usize {
        self.slabs.len()
    }

    /// Grid extent.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Metadata for slab `k`.
    pub fn slab_info(&self, k: usize) -> SlabInfo {
        let s = &self.slabs[k];
        SlabInfo {
            j0: s.j0,
            rows: s.rows,
            cells: (s.rows * self.nx) as u64,
        }
    }

    /// The ghost traffic each step generates, for fabric accounting.
    pub fn ghost_traffic(&self) -> GhostTraffic {
        GhostTraffic {
            bytes_per_direction: (self.nx * std::mem::size_of::<f64>()) as u64,
            pairs: self.slabs.len().saturating_sub(1),
        }
    }

    /// Slab `k`'s owned rows as serialized little-endian `f64`s (its
    /// snapshot contribution).
    pub fn slab_bytes(&self, k: usize) -> Vec<u8> {
        let s = &self.slabs[k];
        let mut out = Vec::with_capacity(s.rows * self.nx * 8);
        for r in 0..s.rows {
            for i in 0..self.nx {
                out.extend_from_slice(&s.data[(r + 1) * self.nx + i].to_le_bytes());
            }
        }
        out
    }

    /// Slab `k`'s owned rows as a standalone [`Grid`] (for per-node in-situ
    /// rendering).
    pub fn slab_grid(&self, k: usize) -> Grid {
        let s = &self.slabs[k];
        let mut g = Grid::zeros(self.nx, s.rows);
        for r in 0..s.rows {
            for i in 0..self.nx {
                g.set(i, r, s.data[(r + 1) * self.nx + i]);
            }
        }
        g
    }

    /// Reassemble the global field.
    pub fn assemble(&self) -> Grid {
        let mut g = Grid::zeros(self.nx, self.ny);
        for s in &self.slabs {
            for r in 0..s.rows {
                for i in 0..self.nx {
                    g.set(i, s.j0 + r, s.data[(r + 1) * self.nx + i]);
                }
            }
        }
        g
    }

    /// Fill every slab's ghost rows from its neighbors (the communication
    /// the fabric charges via [`Self::ghost_traffic`]).
    fn exchange_ghosts(&mut self) {
        let nx = self.nx;
        for k in 0..self.slabs.len() {
            // Lower ghost (row 0) ← last owned row of the slab below.
            if k > 0 {
                let (below, cur) = {
                    let (a, b) = self.slabs.split_at_mut(k);
                    (&a[k - 1], &mut b[0])
                };
                let src = below.rows * nx; // last owned row (index rows, 1-based storage)
                for i in 0..nx {
                    cur.data[i] = below.data[src + i];
                }
            }
            // Upper ghost (row rows+1) ← first owned row of the slab above.
            if k + 1 < self.slabs.len() {
                let (cur, above) = {
                    let (a, b) = self.slabs.split_at_mut(k + 1);
                    (&mut a[k], &b[0])
                };
                let dst = (cur.rows + 1) * nx;
                for i in 0..nx {
                    cur.data[dst + i] = above.data[nx + i];
                }
            }
        }
    }

    /// Advance one timestep (exchange ghosts, update every slab, apply
    /// sources, swap).
    pub fn step(&mut self) {
        self.exchange_ghosts();
        let nx = self.nx;
        let ny = self.ny;
        let dx = 1.0 / nx as f64;
        let dy = 1.0 / ny as f64;
        let rx = self.config.alpha * self.config.dt / (dx * dx);
        let ry = self.config.alpha * self.config.dt / (dy * dy);
        let boundary = self.config.boundary;

        for s in &mut self.slabs {
            let j0 = s.j0 as isize;
            let rows = s.rows;
            let prev = &s.data;
            // Sample global coordinates through slab storage, replicating
            // HeatSolver::step's ghost logic exactly.
            let sample = |i: isize, jg: isize| -> f64 {
                let in_bounds = i >= 0 && jg >= 0 && i < nx as isize && jg < ny as isize;
                if in_bounds {
                    // Owned row or neighbor ghost row.
                    let local = (jg - j0 + 1) as usize;
                    debug_assert!(local <= rows + 1);
                    prev[local * nx + i as usize]
                } else {
                    let ic = i.clamp(0, nx as isize - 1) as usize;
                    let jc = jg.clamp(0, ny as isize - 1);
                    let local = (jc - j0 + 1) as usize;
                    let u = prev[local * nx + ic];
                    match boundary {
                        Boundary::Dirichlet(v) => 2.0 * v - u,
                        Boundary::Neumann => u,
                    }
                }
            };
            for r in 0..rows {
                let jg = j0 + r as isize;
                for i_us in 0..nx {
                    let i = i_us as isize;
                    let u = sample(i, jg);
                    s.scratch[(r + 1) * nx + i_us] = u
                        + rx * (sample(i + 1, jg) - 2.0 * u + sample(i - 1, jg))
                        + ry * (sample(i, jg + 1) - 2.0 * u + sample(i, jg - 1));
                }
            }
        }
        for s in &mut self.slabs {
            std::mem::swap(&mut s.data, &mut s.scratch);
        }
        // Point sources, applied by the owning slab (after the swap, exactly
        // as the single-node solver applies them to the new level).
        for src in &self.config.sources {
            for s in &mut self.slabs {
                if src.j >= s.j0 && src.j < s.j0 + s.rows {
                    let local = (src.j - s.j0 + 1) * self.nx + src.i;
                    s.data[local] += src.rate * self.config.dt;
                }
            }
        }
        self.steps_taken += 1;
    }

    /// Advance `n` timesteps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_heatsim::{HeatSolver, PointSource};

    fn initial(n: usize) -> Grid {
        Grid::from_fn(n, n, |x, y| (x * 7.0).sin() * (y * 3.0).cos() + 0.3 * x)
    }

    fn config() -> SolverConfig {
        SolverConfig {
            alpha: 1.0e-4,
            dt: 0.05,
            boundary: Boundary::Dirichlet(0.5),
            sources: vec![PointSource {
                i: 5,
                j: 17,
                rate: 2.0,
            }],
        }
    }

    #[test]
    fn decomposed_matches_single_node_bitwise() {
        for parts in [1usize, 2, 3, 5] {
            let mut reference = HeatSolver::new(initial(30), config()).expect("stable config");
            let mut decomposed = DecomposedSolver::new(&initial(30), config(), parts);
            reference.run(40);
            decomposed.run(40);
            assert_eq!(
                decomposed.assemble().as_slice(),
                reference.grid().as_slice(),
                "bitwise divergence with {parts} slabs"
            );
        }
    }

    #[test]
    fn neumann_decomposition_matches_too() {
        let cfg = SolverConfig {
            boundary: Boundary::Neumann,
            sources: vec![PointSource {
                i: 10,
                j: 3,
                rate: 5.0,
            }],
            ..config()
        };
        let mut reference = HeatSolver::new(initial(24), cfg.clone()).expect("stable config");
        let mut decomposed = DecomposedSolver::new(&initial(24), cfg, 4);
        reference.run(60);
        decomposed.run(60);
        assert_eq!(
            decomposed.assemble().as_slice(),
            reference.grid().as_slice()
        );
    }

    #[test]
    fn uneven_row_counts_are_distributed() {
        let d = DecomposedSolver::new(&initial(31), config(), 4);
        let total: usize = (0..4).map(|k| d.slab_info(k).rows).sum();
        assert_eq!(total, 31);
        // Leading slabs absorb the remainder: 8, 8, 8, 7.
        assert_eq!(d.slab_info(0).rows, 8);
        assert_eq!(d.slab_info(3).rows, 7);
        // Contiguous coverage.
        assert_eq!(d.slab_info(1).j0, 8);
        assert_eq!(d.slab_info(3).j0, 24);
    }

    #[test]
    fn slab_bytes_concatenate_to_the_snapshot() {
        let mut d = DecomposedSolver::new(&initial(24), config(), 3);
        d.run(5);
        let mut cat = Vec::new();
        for k in 0..3 {
            cat.extend(d.slab_bytes(k));
        }
        assert_eq!(cat, d.assemble().to_bytes());
    }

    #[test]
    fn slab_grid_matches_owned_rows() {
        let d = DecomposedSolver::new(&initial(24), config(), 2);
        let g = d.slab_grid(1);
        let info = d.slab_info(1);
        assert_eq!(g.ny(), info.rows);
        let full = d.assemble();
        for r in 0..info.rows {
            for i in 0..24 {
                assert_eq!(g.at(i, r), full.at(i, info.j0 + r));
            }
        }
    }

    #[test]
    fn ghost_traffic_accounting() {
        let d = DecomposedSolver::new(&initial(24), config(), 4);
        let t = d.ghost_traffic();
        assert_eq!(t.pairs, 3);
        assert_eq!(t.bytes_per_direction, 24 * 8);
    }

    #[test]
    #[should_panic(expected = "at least 3 rows")]
    fn over_decomposition_is_rejected() {
        let _ = DecomposedSolver::new(&initial(12), config(), 8);
    }
}
