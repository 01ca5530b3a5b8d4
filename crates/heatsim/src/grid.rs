//! The 2-D scalar field the solver evolves and the pipelines move around.
//!
//! Snapshots serialize to little-endian `f64` rows and are consumed by the
//! storage stack in fixed-size chunks — the paper fixes both the grid and the
//! chunk size at 128 KB (§IV-C); a 512×512 grid (2 MiB) written as 128 KiB
//! chunks reproduces its per-iteration I/O pattern.

/// A row-major 2-D field of `f64` samples on a uniform mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    nx: usize,
    ny: usize,
    data: Vec<f64>,
}

impl Grid {
    /// A grid of `nx × ny` cells, initialized to `value`.
    fn filled(nx: usize, ny: usize, value: f64) -> Grid {
        assert!(
            nx >= 3 && ny >= 3,
            "grid must be at least 3x3 (one interior cell)"
        );
        Grid {
            nx,
            ny,
            data: vec![value; nx * ny],
        }
    }

    /// A zero grid.
    pub fn zeros(nx: usize, ny: usize) -> Grid {
        Grid::filled(nx, ny, 0.0)
    }

    /// A grid initialized by `f(x, y)` with `x, y ∈ [0, 1]` at cell centers
    /// of the unit square.
    pub fn from_fn(nx: usize, ny: usize, f: impl Fn(f64, f64) -> f64) -> Grid {
        let mut g = Grid::zeros(nx, ny);
        for j in 0..ny {
            let y = (j as f64 + 0.5) / ny as f64;
            for i in 0..nx {
                let x = (i as f64 + 0.5) / nx as f64;
                g.data[j * nx + i] = f(x, y);
            }
        }
        g
    }

    /// The initial condition every pipeline in the workspace starts from: a
    /// warm Gaussian patch (peak 0.3, centred at `(0.5, 0.4)`) on a cold
    /// plate.
    pub fn warm_patch(nx: usize, ny: usize) -> Grid {
        Grid::from_fn(nx, ny, |x, y| {
            0.3 * (-((x - 0.5).powi(2) + (y - 0.4).powi(2)) * 40.0).exp()
        })
    }

    /// Cells along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Cells along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total cell count.
    pub fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Value at `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nx && j < self.ny);
        self.data[j * self.nx + i]
    }

    /// Set the value at `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nx && j < self.ny);
        self.data[j * self.nx + i] = v;
    }

    /// The backing row-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The backing row-major slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Sum of all samples — proportional to total heat content, the quantity
    /// conserved under insulated (Neumann) boundaries.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Serialized snapshot size in bytes.
    pub fn snapshot_bytes(&self) -> u64 {
        (self.cells() * std::mem::size_of::<f64>()) as u64
    }

    /// Serialize to little-endian `f64`s, row-major.
    pub fn to_bytes(&self) -> Vec<u8> {
        le_bytes(&self.data)
    }

    /// Deserialize a snapshot produced by [`Grid::to_bytes`].
    ///
    /// Returns `None` if `bytes` is not exactly `nx × ny` little-endian
    /// `f64`s.
    pub fn from_bytes(nx: usize, ny: usize, bytes: &[u8]) -> Option<Grid> {
        Grid::from_byte_parts(nx, ny, &[bytes])
    }

    /// Deserialize a snapshot that arrives in pieces (a cluster's slabs, in
    /// row order): the same field as [`Grid::from_bytes`] of the pieces
    /// concatenated, decoded straight into the cells. A piece may end in the
    /// middle of an `f64`; its bytes carry into the next one.
    ///
    /// Returns `None` if the pieces do not add up to exactly `nx × ny`
    /// little-endian `f64`s, or the grid would be smaller than 3×3.
    pub fn from_byte_parts<P: AsRef<[u8]>>(nx: usize, ny: usize, parts: &[P]) -> Option<Grid> {
        let len: usize = parts.iter().map(|p| p.as_ref().len()).sum();
        if len != nx * ny * 8 || nx < 3 || ny < 3 {
            return None;
        }
        let mut data = Vec::with_capacity(nx * ny);
        let (mut carry, mut held) = ([0u8; 8], 0);
        for part in parts {
            let mut part = part.as_ref();
            if held > 0 {
                let take = part.len().min(8 - held);
                carry[held..held + take].copy_from_slice(&part[..take]);
                (held, part) = (held + take, &part[take..]);
                if held < 8 {
                    continue;
                }
                data.push(f64::from_le_bytes(carry));
            }
            let words = part.chunks_exact(8);
            let tail = words.remainder();
            data.extend(words.map(le_f64));
            carry[..tail.len()].copy_from_slice(tail);
            held = tail.len();
        }
        Some(Grid { nx, ny, data })
    }
}

/// `values` as little-endian `f64`s: a [`Grid::to_bytes`] of any run of
/// cells (a cluster slab's owned rows).
pub fn le_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = vec![0; values.len() * 8];
    for (bytes, v) in out.chunks_exact_mut(8).zip(values) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// The `f64` an 8-byte little-endian word holds.
#[inline]
fn le_f64(word: &[u8]) -> f64 {
    let mut bytes = [0; 8];
    bytes.copy_from_slice(word);
    f64::from_le_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_is_2mib_in_128kib_chunks() {
        let g = Grid::zeros(512, 512);
        assert_eq!(g.snapshot_bytes(), 2 * 1024 * 1024);
        assert_eq!(g.to_bytes().len(), 16 * 128 * 1024);
    }

    #[test]
    fn serialization_round_trips() {
        let g = Grid::from_fn(17, 9, |x, y| (x * 31.0).sin() + y * y);
        let b = g.to_bytes();
        let g2 = Grid::from_bytes(17, 9, &b).expect("round trip");
        assert_eq!(g, g2);
    }

    #[test]
    fn from_bytes_rejects_wrong_sizes() {
        let g = Grid::zeros(8, 8);
        let b = g.to_bytes();
        assert!(Grid::from_bytes(8, 8, &b[..b.len() - 1]).is_none());
        assert!(Grid::from_bytes(9, 8, &b).is_none());
    }

    #[test]
    fn extrema_and_total() {
        let mut g = Grid::filled(4, 4, 2.0);
        g.set(1, 2, -3.0);
        g.set(2, 1, 7.0);
        assert_eq!(g.min(), -3.0);
        assert_eq!(g.max(), 7.0);
        assert!((g.total() - (14.0 * 2.0 - 3.0 + 7.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 3x3")]
    fn tiny_grids_are_rejected() {
        let _ = Grid::zeros(2, 5);
    }

    #[test]
    fn from_fn_samples_cell_centers() {
        let g = Grid::from_fn(4, 4, |x, _| x);
        assert!((g.at(0, 0) - 0.125).abs() < 1e-12);
        assert!((g.at(3, 0) - 0.875).abs() < 1e-12);
    }
}
