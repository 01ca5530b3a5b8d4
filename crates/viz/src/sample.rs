//! Data-sampling operators (the paper's refs [21]–[23]).
//!
//! The §V-C discussion distinguishes two optimization families: if the energy
//! saved by in-situ came mostly from *dynamic* (data-movement) power, the
//! right post-processing optimization would be **data sampling** — writing a
//! reduced dataset at some information loss. [`stride_sample`] is its
//! standard form, uniform stride decimation; the sampling variant in
//! `greenness-core` sweeps the reduction factor against energy.

use greenness_heatsim::Grid;

/// Decimate `field` by keeping every `stride`-th sample in each dimension.
/// `stride = 1` is the identity.
pub fn stride_sample(field: &Grid, stride: usize) -> Grid {
    assert!(stride >= 1, "stride must be at least 1");
    let nx = field.nx().div_ceil(stride).max(3);
    let ny = field.ny().div_ceil(stride).max(3);
    Grid::from_fn(nx, ny, |u, v| {
        // Map the coarse cell back to the nearest fine sample.
        let i = ((u * field.nx() as f64) as usize).min(field.nx() - 1);
        let j = ((v * field.ny() as f64) as usize).min(field.ny() - 1);
        field.at(i, j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_one_keeps_resolution() {
        let g = Grid::from_fn(16, 12, |x, y| x + y);
        let s = stride_sample(&g, 1);
        assert_eq!((s.nx(), s.ny()), (16, 12));
    }

    #[test]
    fn stride_reduces_size_and_preserves_range() {
        let g = Grid::from_fn(64, 64, |x, y| x * y);
        let s = stride_sample(&g, 4);
        assert_eq!((s.nx(), s.ny()), (16, 16));
        assert!(s.min() >= g.min() - 1e-12);
        assert!(s.max() <= g.max() + 1e-12);
        // 16x data reduction.
        assert_eq!(s.snapshot_bytes() * 16, g.snapshot_bytes());
    }

    #[test]
    fn huge_strides_clamp_to_minimum_grid() {
        let g = Grid::from_fn(16, 16, |x, _| x);
        let s = stride_sample(&g, 1000);
        assert_eq!((s.nx(), s.ny()), (3, 3));
    }
}
