//! Framebuffer and scalar-field rasterization.

use greenness_faults::fnv1a64_extend;
use greenness_heatsim::Grid;

use crate::colormap::{Colormap, Rgb, StepTable};
use crate::image::ppm_header;

/// A dense RGB image, kept as the binary PPM (P6) that encodes it: the
/// header, then the pixels, in one allocation, so [`Framebuffer::ppm`]
/// hands out the encoded image without a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    /// Length of the PPM header at the front of `ppm`.
    header: usize,
    ppm: Vec<u8>, // header, then RGB, row-major
}

impl Framebuffer {
    /// A black image of the given size.
    pub fn new(width: usize, height: usize) -> Framebuffer {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        let mut ppm = ppm_header(width, height).into_bytes();
        let header = ppm.len();
        ppm.resize(header + width * height * 3, 0);
        Framebuffer {
            width,
            height,
            header,
            ppm,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw RGB bytes, row-major.
    pub fn as_bytes(&self) -> &[u8] {
        &self.ppm[self.header..]
    }

    /// The image encoded as binary PPM (P6, maxval 255): header and pixels.
    pub fn ppm(&self) -> &[u8] {
        &self.ppm
    }

    fn pixels_mut(&mut self) -> &mut [u8] {
        &mut self.ppm[self.header..]
    }

    /// Pixel at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> Rgb {
        let o = (y * self.width + x) * 3;
        let p = self.as_bytes();
        [p[o], p[o + 1], p[o + 2]]
    }

    /// Construct from raw RGB bytes.
    pub fn from_bytes(width: usize, height: usize, bytes: &[u8]) -> Option<Framebuffer> {
        if width == 0 || height == 0 || bytes.len() != width * height * 3 {
            return None;
        }
        let mut fb = Framebuffer::new(width, height);
        fb.pixels_mut().copy_from_slice(bytes);
        Some(fb)
    }
}

/// Rendering controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Output width, pixels.
    pub width: usize,
    /// Output height, pixels.
    pub height: usize,
    /// Colormap applied to the normalized field.
    pub colormap: Colormap,
    /// Fixed normalization range; `None` auto-scales to the field's min/max
    /// (auto-scaling differs frame to frame, so pipelines comparing frames
    /// should fix it).
    pub range: Option<(f64, f64)>,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            width: 512,
            height: 512,
            colormap: Colormap::Viridis,
            range: None,
        }
    }
}

/// One axis of the bilinear stencil for one output coordinate: the two
/// source indices and their weights, computed exactly as `bilinear` does.
#[derive(Clone, Copy)]
struct Tap {
    i0: usize,
    i1: usize,
    w0: f64,
    w1: f64,
}

impl Tap {
    /// The tap of output coordinate `k` of `n_out` over `n_in` source cells.
    fn new(k: usize, n_out: usize, n_in: usize) -> Tap {
        let u = (k as f64 + 0.5) / n_out as f64;
        let f = (u.clamp(0.0, 1.0) * n_in as f64 - 0.5).clamp(0.0, (n_in - 1) as f64);
        let i0 = f.floor() as usize;
        let w1 = f - i0 as f64;
        Tap {
            i0,
            i1: (i0 + 1).min(n_in - 1),
            w0: 1.0 - w1,
            w1,
        }
    }

    /// Whether every tap of `n_out` outputs over `n_in` source cells reads
    /// source `k` for output `k` at weights exactly `(1, 0)`. Holds for
    /// 512, 256, 128 and 64 cells drawn at their own size; not for most
    /// other sizes, whose `(k + 0.5) / n · n − 0.5` rounds off `k` (at
    /// n = 11, k = 7 it is 6.999…).
    fn all_identity(n_out: usize, n_in: usize) -> bool {
        (0..n_out).all(|k| {
            let tap = Tap::new(k, n_out, n_in);
            tap.i0 == k && tap.w0 == 1.0 && tap.w1 == 0.0
        })
    }
}

/// `bilinear` from hoisted parts: the sample at column tap `col` between
/// the source rows `upper` and `lower` that row tap `row` selects.
#[inline]
fn sample(upper: &[f64], lower: &[f64], col: &Tap, row: &Tap) -> f64 {
    let a = upper[col.i0] * col.w0 + upper[col.i1] * col.w1;
    let b = lower[col.i0] * col.w0 + lower[col.i1] * col.w1;
    a * row.w0 + b * row.w1
}

/// Render `field` into an image by bilinear sampling.
///
/// Byte-for-byte `render_field_reference`, with everything that does not
/// depend on the pixel hoisted out of it: bilinear sampling is separable,
/// so the column taps are one table per frame (O(width) scratch) and the
/// row tap and the two source rows are fetched once per scanline; the
/// colormap is an exact step table built once per process. Each pixel
/// evaluates the same `f64` expression tree in the same order — `a·(1−tx) +
/// b·tx` per row, then the rows, then `(v − lo) / span` — so no rounding
/// differs.
///
/// When every tap on both axes is the identity and the field is finite,
/// the sample is the cell itself (`a·1 + b·0 == a` for finite `b`, up to
/// the sign of a zero, which the step table maps alike), so each pixel is
/// one table lookup over the field in storage order.
pub fn render_field(field: &Grid, opts: &RenderOptions) -> Framebuffer {
    rasterize::<false>(field, opts, 0).0
}

/// [`render_field`], with the FNV-1a chain `chain` continued over the
/// frame's PPM bytes as they are written: the image and
/// `fnv1a64_extend(chain, image.ppm())`, in one pass over the pixels.
pub fn render_field_hashed(field: &Grid, opts: &RenderOptions, chain: u64) -> (Framebuffer, u64) {
    rasterize::<true>(field, opts, chain)
}

/// The one rasteriser behind [`render_field`] and [`render_field_hashed`]:
/// with `HASH` it folds FNV-1a over the header and every stored byte.
fn rasterize<const HASH: bool>(
    field: &Grid,
    opts: &RenderOptions,
    mut hash: u64,
) -> (Framebuffer, u64) {
    let (lo, hi) = opts.range.unwrap_or_else(|| (field.min(), field.max()));
    let span = (hi - lo).max(1e-300);
    let mut fb = Framebuffer::new(opts.width, opts.height);
    if HASH {
        hash = fnv1a64_extend(hash, &fb.ppm[..fb.header]);
    }
    let (nx, ny) = (field.nx(), field.ny());
    let colors = opts.colormap.table();
    if Tap::all_identity(opts.width, nx)
        && Tap::all_identity(opts.height, ny)
        && field.as_slice().iter().all(|v| v.is_finite())
    {
        let ts = field.as_slice().iter().map(|v| (v - lo) / span);
        hash = paint::<HASH>(fb.pixels_mut(), ts, colors, hash);
        return (fb, hash);
    }
    let columns: Vec<Tap> = (0..opts.width)
        .map(|x| Tap::new(x, opts.width, nx))
        .collect();
    for (y, scanline) in fb.pixels_mut().chunks_exact_mut(opts.width * 3).enumerate() {
        let row = Tap::new(y, opts.height, ny);
        let upper = &field.as_slice()[row.i0 * nx..][..nx];
        let lower = &field.as_slice()[row.i1 * nx..][..nx];
        let ts = columns
            .iter()
            .map(|col| (sample(upper, lower, col, &row) - lo) / span);
        hash = paint::<HASH>(scanline, ts, colors, hash);
    }
    (fb, hash)
}

/// The per-pixel loop: colour each normalized `t` into the next pixel of
/// `pixels`, and with `HASH` fold the three bytes into `hash` as they are
/// stored.
#[inline(always)]
fn paint<const HASH: bool>(
    pixels: &mut [u8],
    ts: impl Iterator<Item = f64>,
    colors: &StepTable,
    mut hash: u64,
) -> u64 {
    for (pixel, t) in pixels.chunks_exact_mut(3).zip(ts) {
        let c = colors.map(t);
        pixel.copy_from_slice(&c);
        if HASH {
            hash = fnv1a64_extend(hash, &c);
        }
    }
    hash
}

/// The straight-line renderer [`render_field`] replaced, kept verbatim as
/// its oracle (the way `HeatSolver::step_reference` is the stencil's): one
/// [`bilinear`] sample and one [`Colormap::map`] per pixel.
/// `tests/oracle_equivalence.rs` pins the two byte-for-byte (it enables the
/// `reference` feature).
#[cfg(any(test, feature = "reference"))]
pub fn render_field_reference(field: &Grid, opts: &RenderOptions) -> Framebuffer {
    let (lo, hi) = opts.range.unwrap_or_else(|| (field.min(), field.max()));
    let span = (hi - lo).max(1e-300);
    let mut fb = Framebuffer::new(opts.width, opts.height);
    let width = opts.width;
    let cm = opts.colormap;
    fb.pixels_mut()
        .chunks_mut(width * 3)
        .enumerate()
        .for_each(|(y, row)| {
            let v = (y as f64 + 0.5) / opts.height as f64;
            for x in 0..width {
                let u = (x as f64 + 0.5) / width as f64;
                let t = (bilinear(field, u, v) - lo) / span;
                let c = cm.map(t);
                row[x * 3..x * 3 + 3].copy_from_slice(&c);
            }
        });
    fb
}

/// Bilinear sample of `field` at normalized coordinates `(u, v) ∈ [0,1]²`,
/// cell-centered.
#[cfg(any(test, feature = "reference"))]
pub fn bilinear(field: &Grid, u: f64, v: f64) -> f64 {
    let nx = field.nx();
    let ny = field.ny();
    let fx = (u.clamp(0.0, 1.0) * nx as f64 - 0.5).clamp(0.0, (nx - 1) as f64);
    let fy = (v.clamp(0.0, 1.0) * ny as f64 - 0.5).clamp(0.0, (ny - 1) as f64);
    let x0 = fx.floor() as usize;
    let y0 = fy.floor() as usize;
    let x1 = (x0 + 1).min(nx - 1);
    let y1 = (y0 + 1).min(ny - 1);
    let tx = fx - x0 as f64;
    let ty = fy - y0 as f64;
    let a = field.at(x0, y0) * (1.0 - tx) + field.at(x1, y0) * tx;
    let b = field.at(x0, y1) * (1.0 - tx) + field.at(x1, y1) * tx;
    a * (1.0 - ty) + b * ty
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_heatsim::Grid;

    impl Framebuffer {
        /// Set pixel `(x, y)`; out-of-bounds coordinates are ignored (clip).
        fn set(&mut self, x: usize, y: usize, c: Rgb) {
            if x < self.width && y < self.height {
                let o = (y * self.width + x) * 3;
                self.pixels_mut()[o..o + 3].copy_from_slice(&c);
            }
        }
    }

    #[test]
    fn constant_field_renders_uniformly() {
        let g = Grid::from_fn(8, 8, |_, _| 3.0);
        let opts = RenderOptions {
            width: 16,
            height: 16,
            colormap: Colormap::Gray,
            range: Some((0.0, 6.0)),
        };
        let fb = render_field(&g, &opts);
        let mid = Colormap::Gray.map(0.5);
        assert!(fb.as_bytes().chunks(3).all(|p| p == mid));
    }

    #[test]
    fn gradient_field_renders_a_gradient() {
        let g = Grid::from_fn(32, 32, |x, _| x);
        let fb = render_field(
            &g,
            &RenderOptions {
                width: 64,
                height: 8,
                colormap: Colormap::Gray,
                range: Some((0.0, 1.0)),
            },
        );
        // Left darker than right.
        let l = Colormap::luminance(fb.get(2, 4));
        let r = Colormap::luminance(fb.get(61, 4));
        assert!(l < r, "{l} !< {r}");
    }

    #[test]
    fn autoscale_uses_field_extrema() {
        let mut g = Grid::from_fn(8, 8, |_, _| 5.0);
        g.set(0, 0, 1.0);
        g.set(7, 7, 9.0);
        let fb = render_field(
            &g,
            &RenderOptions {
                width: 8,
                height: 8,
                colormap: Colormap::Gray,
                range: None,
            },
        );
        assert_eq!(fb.get(0, 0), [0, 0, 0]);
        assert_eq!(fb.get(7, 7), [255, 255, 255]);
    }

    #[test]
    fn rendering_is_deterministic_and_parallel_safe() {
        let g = Grid::from_fn(64, 48, |x, y| (9.0 * x).sin() * (7.0 * y).cos());
        let opts = RenderOptions::default();
        let a = render_field(&g, &opts);
        let b = render_field(&g, &opts);
        assert_eq!(a, b);
    }

    /// The 8-bit image hides all but a few ulp-sized sampling errors, so
    /// the hoisted taps are pinned against `bilinear` in `f64` bits.
    #[test]
    fn hoisted_taps_reproduce_bilinear_bit_for_bit() {
        for (nx, ny, width, height) in [
            (3, 3, 1, 1),
            (3, 17, 40, 5),
            (31, 3, 7, 64),
            (24, 24, 24, 24),
            (40, 25, 13, 70),
            (9, 33, 70, 11),
        ] {
            let g = Grid::from_fn(nx, ny, |x, y| (13.0 * x).sin() / (0.1 + y) + x * y);
            for y in 0..height {
                let row = Tap::new(y, height, ny);
                let upper = &g.as_slice()[row.i0 * nx..][..nx];
                let lower = &g.as_slice()[row.i1 * nx..][..nx];
                let v = (y as f64 + 0.5) / height as f64;
                for x in 0..width {
                    let u = (x as f64 + 0.5) / width as f64;
                    let hoisted = sample(upper, lower, &Tap::new(x, width, nx), &row);
                    assert_eq!(
                        hoisted.to_bits(),
                        bilinear(&g, u, v).to_bits(),
                        "{nx}x{ny} grid, pixel ({x}, {y}) of {width}x{height}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_paper_sized_frame_matches_the_reference_under_every_colormap() {
        let g = Grid::from_fn(512, 512, |x, y| (9.0 * x).sin() * (7.0 * y).cos());
        for colormap in Colormap::ALL {
            let opts = RenderOptions {
                colormap,
                ..RenderOptions::default()
            };
            assert!(
                render_field(&g, &opts) == render_field_reference(&g, &opts),
                "{colormap:?}: fast path differs from the reference"
            );
        }
    }

    #[test]
    fn same_size_path_fires_on_exact_taps_and_matches_the_reference() {
        for (nx, ny) in [(512, 512), (256, 256), (64, 64), (256, 64), (11, 11)] {
            let exact = nx != 11;
            assert_eq!(Tap::all_identity(nx, nx), exact, "{nx} columns");
            assert_eq!(Tap::all_identity(ny, ny), exact, "{ny} rows");
            let mut g = Grid::from_fn(nx, ny, |x, y| (9.0 * x).sin() * (7.0 * y).cos());
            g.set(1, 2, -0.0);
            let opts = RenderOptions {
                width: nx,
                height: ny,
                colormap: Colormap::Hot,
                range: Some((-0.0, 1.0)),
            };
            assert!(render_field(&g, &opts) == render_field_reference(&g, &opts));
            // Huge cells beside zeros: a tap that only rounds to `(1, 0)`
            // would leak 1e300·ε into the zero pixels and saturate them.
            let spikes = Grid::from_fn(nx, ny, |x, _| {
                if (x * nx as f64) as usize % 2 == 0 {
                    1e300
                } else {
                    0.0
                }
            });
            assert!(render_field(&spikes, &opts) == render_field_reference(&spikes, &opts));
            g.set(nx / 2, ny / 3, f64::NAN);
            for range in [None, opts.range] {
                let opts = RenderOptions { range, ..opts };
                assert!(
                    render_field(&g, &opts) == render_field_reference(&g, &opts),
                    "{nx}x{ny} with a NaN cell, range {range:?}"
                );
            }
        }
    }

    #[test]
    fn bilinear_interpolates_between_cells() {
        let g = Grid::from_fn(4, 4, |x, _| x);
        let left = bilinear(&g, 0.0, 0.5);
        let mid = bilinear(&g, 0.5, 0.5);
        let right = bilinear(&g, 1.0, 0.5);
        assert!(left < mid && mid < right);
        assert!((mid - 0.5).abs() < 0.01);
    }

    #[test]
    fn set_clips_out_of_bounds() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set(100, 100, [255, 0, 0]); // must not panic
        assert_eq!(fb.get(3, 3), [0, 0, 0]);
    }

    #[test]
    fn from_bytes_validates_length() {
        assert!(Framebuffer::from_bytes(2, 2, &[0; 12]).is_some());
        assert!(Framebuffer::from_bytes(2, 2, &[0; 11]).is_none());
        assert!(Framebuffer::from_bytes(0, 2, &[]).is_none());
    }
}
