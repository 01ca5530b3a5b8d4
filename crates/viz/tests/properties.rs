//! Property-based tests for the renderer.

use greenness_heatsim::Grid;
use greenness_viz::{decode_ppm, encode_ppm, render_field, stride_sample, Colormap, RenderOptions};
use proptest::prelude::*;

fn arb_grid() -> impl Strategy<Value = Grid> {
    (
        3usize..32,
        3usize..32,
        -10.0..10.0f64,
        0.1..20.0f64,
        0.1..20.0f64,
    )
        .prop_map(|(nx, ny, base, fx, fy)| {
            Grid::from_fn(nx, ny, |x, y| base + (fx * x).sin() * (fy * y).cos())
        })
}

proptest! {
    /// PPM encoding round-trips for arbitrary rendered fields.
    #[test]
    fn ppm_round_trip(g in arb_grid(), w in 1usize..64, h in 1usize..64) {
        let fb = render_field(
            &g,
            &RenderOptions { width: w, height: h, colormap: Colormap::Viridis, range: None },
        );
        let back = decode_ppm(&encode_ppm(&fb)).expect("decode");
        prop_assert_eq!(back, fb);
    }

    /// Rendering the same field twice is bit-identical and every pixel is a
    /// valid colormap output.
    #[test]
    fn rendering_is_pure(g in arb_grid()) {
        let opts = RenderOptions { width: 48, height: 48, ..Default::default() };
        let a = render_field(&g, &opts);
        let b = render_field(&g, &opts);
        prop_assert_eq!(&a, &b);
    }

    /// Stride sampling never invents values outside the source range, and
    /// always shrinks (or keeps) the snapshot size.
    #[test]
    fn sampling_is_conservative(g in arb_grid(), stride in 1usize..8) {
        let s = stride_sample(&g, stride);
        prop_assert!(s.min() >= g.min() - 1e-12);
        prop_assert!(s.max() <= g.max() + 1e-12);
        prop_assert!(s.snapshot_bytes() <= g.snapshot_bytes());
    }

    /// Colormaps are total over all inputs including pathological ones.
    #[test]
    fn colormaps_are_total(t in prop::num::f64::ANY) {
        for cm in [Colormap::Viridis, Colormap::Hot, Colormap::CoolWarm, Colormap::Gray] {
            let _ = cm.map(t); // must not panic for NaN/inf/any value
        }
    }
}
