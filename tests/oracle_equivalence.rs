//! Oracle-equivalence suite: every optimized hot path must stay
//! bit-for-bit the retained straight-line reference it replaced.
//!
//! Three properties are pinned here:
//!
//! * the fast stencil path (including the row-parallel step at any `jobs`
//!   value) is bit-for-bit the naive reference on arbitrary grids,
//!   including the thinnest legal slabs;
//! * the blocked single-pass transpose encoder is bit-for-bit the retained
//!   strided reference on arbitrary payloads;
//! * an invalid solver config handed to either binary is a *usage* error:
//!   exit 2 with a structured message, before any work runs.

use std::process::Command;

use greenness_codec::transpose::TransposeRle;
use greenness_codec::Codec;
use greenness_core::PipelineConfig;
use greenness_heatsim::{Boundary, Grid, HeatSolver};
use proptest::prelude::*;

proptest! {
    /// The interior fast path + boundary peeling in `HeatSolver::step` must
    /// reproduce the naive reference exactly — same expression tree, same
    /// rounding — on every shape, boundary, and step count. `Grid` requires
    /// at least one interior cell (>= 3x3), so the thinnest slabs exercised
    /// are 3xN and Nx3: every interior cell is then also boundary-adjacent,
    /// the shape most likely to expose a peeling bug.
    #[test]
    fn fast_stencil_matches_reference_bit_for_bit(shape in any::<u64>(), steps_seed in any::<u64>()) {
        let m = 3 + (shape >> 8) as usize % 10;
        let n = 3 + (shape >> 16) as usize % 10;
        let (nx, ny) = match shape % 3 {
            0 => (3, n),
            1 => (m, 3),
            _ => (m, n),
        };
        let boundary = if shape & 8 == 0 {
            Boundary::Dirichlet(0.25)
        } else {
            Boundary::Neumann
        };
        let steps = 1 + steps_seed % 4;

        let mut cfg = PipelineConfig::default_solver(nx, ny);
        cfg.boundary = boundary;
        let field = Grid::from_fn(nx, ny, |x, y| {
            0.5 + 0.25 * (x * 6.0).sin() * (y * 4.0).cos()
        });
        let mut fast = HeatSolver::new(field.clone(), cfg.clone()).expect("stable config");
        let mut threaded = HeatSolver::new(field.clone(), cfg.clone()).expect("stable config");
        threaded.set_jobs(8);
        let mut naive = HeatSolver::new(field, cfg).expect("stable config");
        for _ in 0..steps {
            fast.step();
            threaded.step();
            naive.step_reference();
        }
        prop_assert_eq!(
            &fast.grid().to_bytes()[..],
            &naive.grid().to_bytes()[..],
            "divergence on {}x{} after {} step(s)", nx, ny, steps
        );
        prop_assert_eq!(
            &threaded.grid().to_bytes()[..],
            &naive.grid().to_bytes()[..],
            "jobs=8 divergence on {}x{} after {} step(s)", nx, ny, steps
        );
    }

    /// The cache-blocked single-pass transpose in `TransposeRle::encode`
    /// must emit the exact bytes of the retained strided reference — the
    /// pinned energy goldens hash these streams — at every length,
    /// including lengths that are not a multiple of the 8-value tile.
    #[test]
    fn blocked_transpose_matches_reference_bit_for_bit(values in proptest::collection::vec(-1e12f64..1e12, 0..200)) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let codec = TransposeRle;
        let fast = codec.encode(&bytes);
        let reference = codec.encode_reference(&bytes).expect("aligned input");
        prop_assert_eq!(&fast, &reference);
        prop_assert_eq!(codec.decode(&fast).expect("round trip"), bytes);
    }
}

/// Drive the real binaries: a CFL-violating or non-finite solver override
/// must be rejected as a usage error (exit 2, structured message) by both
/// front ends, without running the workload.
#[test]
fn invalid_solver_config_is_a_usage_error_in_both_binaries() {
    let cases: [(&str, &[&str]); 3] = [
        (
            env!("CARGO_BIN_EXE_greenness"),
            &["case", "1", "--alpha", "nan"],
        ),
        (
            env!("CARGO_BIN_EXE_greenness"),
            &["case", "2", "--dt", "1e9"],
        ),
        (env!("CARGO_BIN_EXE_repro"), &["--alpha", "-1.0", "table1"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid solver config"),
            "{bin} {args:?} stderr: {stderr}"
        );
    }
}
