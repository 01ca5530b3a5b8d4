//! Property-based tests for the heat solver and grid serialization.

use greenness_heatsim::{Boundary, Grid, HeatSolver, PointSource, SolverConfig};
use proptest::prelude::*;

fn arb_grid() -> impl Strategy<Value = Grid> {
    (
        3usize..24,
        3usize..24,
        prop::collection::vec(-50.0..50.0f64, 1..16),
    )
        .prop_map(|(nx, ny, seeds)| {
            Grid::from_fn(nx, ny, |x, y| {
                seeds
                    .iter()
                    .enumerate()
                    .map(|(k, s)| s * ((k as f64 + 1.0) * (x + 2.0 * y)).sin())
                    .sum()
            })
        })
}

proptest! {
    /// Serialization round-trips exactly for arbitrary fields.
    #[test]
    fn snapshot_round_trip(g in arb_grid()) {
        let b = g.to_bytes();
        prop_assert_eq!(b.len() as u64, g.snapshot_bytes());
        let g2 = Grid::from_bytes(g.nx(), g.ny(), &b).expect("round trip");
        prop_assert_eq!(g, g2);
    }

    /// A snapshot cut anywhere into pieces (empty ones, pieces that end
    /// inside an `f64`, a single byte) decodes to the field the whole
    /// snapshot decodes to. Pieces that add up to one byte too few or too
    /// many, and shapes below 3x3, decode to `None`.
    #[test]
    fn byte_parts_decode_like_the_concatenation(
        g in arb_grid(),
        cuts in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let b = g.to_bytes();
        let mut at: Vec<usize> = cuts.iter().map(|c| (*c as usize) % (b.len() + 1)).collect();
        at.sort_unstable();
        let mut parts = Vec::new();
        let mut from = 0;
        for &to in at.iter().chain([&b.len()]) {
            parts.push(&b[from..to]);
            from = to;
        }
        let whole = Grid::from_bytes(g.nx(), g.ny(), &parts.concat());
        prop_assert_eq!(Grid::from_byte_parts(g.nx(), g.ny(), &parts), whole);
        prop_assert_eq!(Grid::from_byte_parts(g.nx(), g.ny(), &parts), Some(g.clone()));

        let last = parts.len() - 1;
        let short = parts[last].len().checked_sub(1).map(|n| &parts[last][..n]);
        if let Some(short) = short {
            let mut cut = parts.clone();
            cut[last] = short;
            prop_assert_eq!(Grid::from_byte_parts(g.nx(), g.ny(), &cut), None);
        }
        let mut long = parts.clone();
        long.push(&b[..1]);
        prop_assert_eq!(Grid::from_byte_parts(g.nx(), g.ny(), &long), None);
        let thin = [&b[..(g.ny() * 2 * 8)]];
        prop_assert_eq!(Grid::from_byte_parts(2, g.ny(), &thin), None);
        prop_assert_eq!(Grid::from_byte_parts(g.nx(), 2, &[&b[..(g.nx() * 2 * 8)]]), None);
    }

    /// Without sources, the discrete maximum principle holds for any stable
    /// configuration: values stay within the initial range extended by the
    /// wall temperature.
    #[test]
    fn maximum_principle(g in arb_grid(), wall in -20.0..20.0f64, steps in 1u64..100) {
        let cfg = SolverConfig {
            alpha: 1.0e-4,
            dt: 0.05,
            boundary: Boundary::Dirichlet(wall),
            sources: Vec::new(),
        };
        let lo = g.min().min(wall);
        let hi = g.max().max(wall);
        let mut s = HeatSolver::new(g, cfg).expect("stable config");
        s.run(steps);
        prop_assert!(s.grid().min() >= lo - 1e-9, "min {} < {}", s.grid().min(), lo);
        prop_assert!(s.grid().max() <= hi + 1e-9, "max {} > {}", s.grid().max(), hi);
    }

    /// Insulated boundaries conserve total heat exactly (up to roundoff),
    /// and with a source the total grows by exactly rate × time.
    #[test]
    fn heat_budget_under_neumann(
        g in arb_grid(),
        rate in 0.0..10.0f64,
        steps in 1u64..80,
    ) {
        let nx = g.nx();
        let ny = g.ny();
        let cfg = SolverConfig {
            alpha: 1.0e-4,
            dt: 0.05,
            boundary: Boundary::Neumann,
            sources: vec![PointSource { i: nx / 2, j: ny / 2, rate }],
        };
        let before = g.total();
        let mut s = HeatSolver::new(g, cfg).expect("stable config");
        s.run(steps);
        let injected = rate * 0.05 * steps as f64;
        let after = s.grid().total();
        let scale = before.abs().max(injected).max(1.0);
        prop_assert!((after - before - injected).abs() < 1e-8 * scale,
            "{before} + {injected} != {after}");
    }

    /// The solver is deterministic: same input, same result, regardless of
    /// how many times we run it.
    #[test]
    fn determinism(g in arb_grid(), steps in 1u64..50) {
        let cfg = SolverConfig::default();
        let mut a = HeatSolver::new(g.clone(), cfg.clone()).expect("stable config");
        let mut b = HeatSolver::new(g, cfg).expect("stable config");
        a.run(steps);
        b.run(steps);
        prop_assert_eq!(a.grid(), b.grid());
    }
}
