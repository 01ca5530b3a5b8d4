//! Oracle-equivalence suite: every optimized hot path must stay
//! bit-for-bit the retained straight-line reference it replaced.
//!
//! Four properties are pinned here:
//!
//! * the fast stencil path (including the row-parallel step at any `jobs`
//!   value) is bit-for-bit the naive reference on arbitrary grids,
//!   including the thinnest legal slabs;
//! * the blocked single-pass transpose encoder is bit-for-bit the retained
//!   strided reference on arbitrary payloads;
//! * the table-driven rasterizer (`render_field`: per-frame column taps,
//!   exact colour step table) is byte-for-byte `render_field_reference` on
//!   arbitrary grid and image shapes, ranges and non-finite cells;
//! * bad command-line input handed to either binary (an invalid solver
//!   config, an unknown artifact, a flag without its value) is a *usage*
//!   error: exit 2 with a one-line message, before any work runs — and the
//!   `--flag=value` spelling is accepted by every subcommand.

use std::process::Command;

use greenness_codec::transpose::TransposeRle;
use greenness_codec::Codec;
use greenness_core::PipelineConfig;
use greenness_heatsim::{Boundary, Grid, HeatSolver};
use greenness_viz::{render_field, render_field_reference, Colormap, RenderOptions};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `render_field` hoists the column taps into a per-frame table and maps
    /// colours through an exact step table; `render_field_reference` samples
    /// and maps pixel by pixel. Same bytes on every shape (square, thin,
    /// non-square grids; 1x1 images, up- and down-sampling), every colormap,
    /// every kind of range (auto, fixed, empty, inverted, and spans so large
    /// or small that `t` overflows to ±inf or collapses to 0) and with
    /// NaN/±inf cells in the field.
    #[test]
    fn fast_raster_matches_reference_byte_for_byte(
        shape in any::<u64>(),
        knobs in any::<u64>(),
        cells in proptest::collection::vec(-2.0f64..3.0, 9..64),
    ) {
        let m = 3 + (shape >> 8) as usize % 38;
        let n = 3 + (shape >> 16) as usize % 38;
        let (nx, ny) = match shape % 4 {
            0 => (3, n),
            1 => (m, 3),
            2 => (m, m),
            _ => (m, n),
        };
        let width = 1 + (shape >> 24) as usize % 70;
        let height = match (shape >> 32) % 3 {
            0 => 1,
            1 => width,
            _ => 1 + (shape >> 40) as usize % 70,
        };
        let mut field = Grid::from_fn(nx, ny, |x, y| {
            let k = ((x * 7.0 + y * 13.0) * cells.len() as f64) as usize % cells.len();
            cells[k] + 0.3 * (x * 5.0).sin() * (y * 3.0).cos()
        });
        // Poison up to three cells; bit 2 leaves one field in four finite.
        if knobs & 4 != 0 {
            let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for (k, bad) in poison.iter().enumerate().take((knobs >> 3) as usize % 4) {
                let at = (knobs >> (8 + 8 * k)) as usize;
                field.set(at % nx, (at / nx) % ny, *bad);
            }
        }
        let colormap = [Colormap::Viridis, Colormap::Hot, Colormap::CoolWarm, Colormap::Gray]
            [(knobs & 3) as usize];
        let range = match (knobs >> 32) % 8 {
            0 | 1 => None,
            2 => Some((0.0, 1.0)),
            3 => Some((0.5, 0.5)),
            4 => Some((1.0, -1.0)),
            5 => Some((-f64::MAX, f64::MAX)),
            6 => Some((-1e300, -1e300)),
            _ => Some((1e300, 1e300)),
        };
        let opts = RenderOptions { width, height, colormap, range };
        let fast = render_field(&field, &opts);
        let reference = render_field_reference(&field, &opts);
        prop_assert!(
            fast == reference,
            "{}x{} grid -> {}x{} image, {:?}, range {:?}", nx, ny, width, height, colormap, range
        );
    }
}

/// Drive the real binaries: each row is `(binary, args, exit code, stderr
/// needle)`. A CFL-violating or non-finite solver override, an unknown
/// `repro` artifact and a flag missing its value must be rejected as usage
/// errors (exit 2, one-line message) without running the workload; the
/// `--flag=value` spelling must work on a subcommand that used to reject it.
#[test]
fn usage_errors_and_flag_spellings_are_uniform_in_both_binaries() {
    let greenness = env!("CARGO_BIN_EXE_greenness");
    let repro = env!("CARGO_BIN_EXE_repro");
    let transcript = std::env::temp_dir().join(format!("steer-{}.ndjson", std::process::id()));
    let transcript = transcript.to_str().expect("utf-8 temp path");
    let cases: [(&str, &[&str], i32, &str); 6] = [
        (
            greenness,
            &["case", "1", "--alpha", "nan"],
            2,
            "invalid solver config",
        ),
        (
            greenness,
            &["case", "2", "--dt", "1e9"],
            2,
            "invalid solver config",
        ),
        (
            repro,
            &["--alpha", "-1.0", "table1"],
            2,
            "invalid solver config",
        ),
        (
            repro,
            &["nosuch"],
            2,
            "unknown artifact 'nosuch'; available:",
        ),
        (greenness, &["sweep", "--jobs"], 2, "--jobs needs a value"),
        (
            greenness,
            &["steer", "--jobs=2", "--out", transcript],
            0,
            "op(s) ok",
        ),
    ];
    for (bin, args, code, needle) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{bin} {args:?} must exit {code}, got {:?}; stderr: {stderr}",
            out.status
        );
        assert!(stderr.contains(needle), "{bin} {args:?} stderr: {stderr}");
    }
    std::fs::remove_file(transcript).expect("steer wrote its transcript");
}
