//! Lossy bounded-error quantization.
//!
//! Maps each `f64` sample onto a `u16` (or `u8`) lattice over the stream's
//! value range (max absolute error ≤ range / 2·(levels−1)), then delta +
//! varint codes the lattice indices. This is the "acceptable information
//! loss" end of the paper's data-reduction spectrum, with the loss explicit
//! and checkable.
//!
//! Stream format: `min: f64 | max: f64 | n: u64 | varint(zigzag(Δindex))…`.

use crate::delta::{push_varint, read_varint, unzigzag, zigzag};
use crate::{le_u64, Codec, CodecError, Scratch};

/// The 16-bit quantizing codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quant16;

/// The 8-bit quantizing codec: a coarser lattice (255 levels) for wire
/// compression, where neighbouring samples usually collapse onto the same
/// index and the delta stream run-lengths down to ~1 byte per sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quant8;

const LEVELS: f64 = u16::MAX as f64;
const LEVELS8: f64 = u8::MAX as f64;

impl Quant16 {
    /// The maximum absolute reconstruction error for data spanning `range`.
    pub fn max_error(range: f64) -> f64 {
        range / (2.0 * LEVELS)
    }
}

impl Quant8 {
    /// The maximum absolute reconstruction error for data spanning `range`.
    pub fn max_error(range: f64) -> f64 {
        range / (2.0 * LEVELS8)
    }
}

impl Codec for Quant16 {
    fn name(&self) -> &'static str {
        "quant16"
    }

    fn encode_into(
        &self,
        input: &[u8],
        scratch: &mut Scratch,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        encode_lattice(LEVELS, input, scratch, out)
    }

    fn decode(&self, input: &[u8]) -> Option<Vec<u8>> {
        decode_lattice(LEVELS, input)
    }
}

impl Codec for Quant8 {
    fn name(&self) -> &'static str {
        "quant8"
    }

    fn encode_into(
        &self,
        input: &[u8],
        scratch: &mut Scratch,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        encode_lattice(LEVELS8, input, scratch, out)
    }

    fn decode(&self, input: &[u8]) -> Option<Vec<u8>> {
        decode_lattice(LEVELS8, input)
    }
}

/// Shared encoder over an `levels`-step lattice (the stream format is the
/// same for every width; decode must use the same `levels` it was encoded
/// with — [`Quant16`] streams are byte-identical to the pre-`Quant8` format).
fn encode_lattice(
    levels: f64,
    input: &[u8],
    _scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    {
        if input.len() % 8 != 0 {
            return Err(CodecError::Misaligned { len: input.len() });
        }
        let n = input.len() / 8;
        // Pass 1: value range (and the finiteness check), straight off the
        // byte stream — no intermediate sample Vec.
        let (mut lo, mut hi) = (0.0f64, 0.0f64);
        for (index, c) in input.chunks_exact(8).enumerate() {
            let v = f64::from_bits(le_u64(c));
            if !v.is_finite() {
                return Err(CodecError::NonFiniteSample { index });
            }
            if index == 0 {
                lo = v;
                hi = v;
            } else {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        let span = hi - lo;
        out.clear();
        out.reserve(n + 24);
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        // Pass 2: quantize. `span` can overflow to +inf when lo and hi sit
        // near opposite ends of the f64 range; quantize in halves there so
        // the indices stay finite (the narrow-span path is byte-identical to
        // the pre-overflow-fix format).
        let mut prev = 0i64;
        for c in input.chunks_exact(8) {
            let v = f64::from_bits(le_u64(c));
            let idx = if span == 0.0 {
                0
            } else if span.is_finite() {
                ((v - lo) / span * levels).round() as i64
            } else {
                (((v / 2.0 - lo / 2.0) / (hi / 2.0 - lo / 2.0)) * levels).round() as i64
            };
            push_varint(out, zigzag(idx - prev));
            prev = idx;
        }
        Ok(())
    }
}

/// Shared decoder; see [`encode_lattice`].
fn decode_lattice(levels: f64, input: &[u8]) -> Option<Vec<u8>> {
    {
        if input.len() < 24 {
            return None;
        }
        let lo = f64::from_le_bytes(input[0..8].try_into().ok()?);
        let hi = f64::from_le_bytes(input[8..16].try_into().ok()?);
        let n = u64::from_le_bytes(input[16..24].try_into().ok()?) as usize;
        // Each index delta costs at least one varint byte; a header claiming
        // more samples than remaining bytes is malformed (and must not drive
        // a huge allocation).
        if n > input.len() - 24 {
            return None;
        }
        let span = hi - lo;
        if !(lo.is_finite() && hi.is_finite()) || span < 0.0 {
            return None;
        }
        let mut out = Vec::with_capacity(n * 8);
        let mut pos = 24usize;
        let mut prev = 0i64;
        for _ in 0..n {
            prev += unzigzag(read_varint(input, &mut pos)?);
            if !(0..=levels as i64).contains(&prev) {
                return None;
            }
            let t = prev as f64 / levels;
            // Mirror the encoder's overflow split: with finite lo/hi but an
            // overflowing span, interpolate without forming hi - lo so the
            // reconstruction stays finite (exact at both endpoints).
            let v = if span.is_finite() {
                lo + t * span
            } else {
                lo * (1.0 - t) + hi * t
            };
            out.extend_from_slice(&v.to_le_bytes());
        }
        if pos != input.len() {
            return None; // trailing garbage
        }
        Some(out)
    }
}

#[cfg(test)]
mod quant8_tests {
    use super::*;
    use crate::Codec;
    use greenness_heatsim::Grid;

    fn samples_of(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn error_is_bounded_on_the_coarse_lattice() {
        let g = Grid::from_fn(48, 48, |x, y| 100.0 * (x * 5.0).sin() + 30.0 * y);
        let bytes = g.to_bytes();
        let codec = Quant8;
        let back = codec.decode(&codec.encode(&bytes)).expect("decode");
        let range = g.max() - g.min();
        let bound = Quant8::max_error(range) * 1.001;
        for (a, b) in samples_of(&bytes).iter().zip(samples_of(&back)) {
            assert!((a - b).abs() <= bound, "{a} vs {b} exceeds {bound}");
        }
    }

    #[test]
    fn compresses_smooth_fields_harder_than_quant16() {
        let g = Grid::from_fn(64, 64, |x, y| (x + y) * 0.5);
        let bytes = g.to_bytes();
        let q8 = Quant8.encode(&bytes);
        let q16 = Quant16.encode(&bytes);
        assert!(q8.len() <= q16.len(), "{} vs {}", q8.len(), q16.len());
        assert!(
            q8.len() * 6 <= bytes.len(),
            "{} vs {}",
            q8.len(),
            bytes.len()
        );
    }

    #[test]
    fn streams_are_not_cross_decodable_blindly() {
        // A quant16 stream can hold indices past the 8-bit lattice; quant8's
        // decoder rejects them instead of reconstructing garbage.
        let g = Grid::from_fn(16, 16, |x, y| x * 1000.0 + y);
        let enc16 = Quant16.encode(&g.to_bytes());
        assert!(Quant8.decode(&enc16).is_none());
    }

    #[test]
    fn quant16_format_is_unchanged_by_the_refactor() {
        // Golden bytes: a tiny known stream, pinned so the shared
        // `encode_lattice` path provably kept the original format.
        let vals = [0.0f64, 0.5, 1.0];
        let mut bytes = Vec::new();
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let enc = Quant16.encode(&bytes);
        let mut want = Vec::new();
        want.extend_from_slice(&0.0f64.to_le_bytes());
        want.extend_from_slice(&1.0f64.to_le_bytes());
        want.extend_from_slice(&3u64.to_le_bytes());
        // indices 0, 32768, 65535 → zigzag deltas of 0, +32768, +32767.
        assert_eq!(&enc[..24], &want[..]);
        let back = samples_of(&Quant16.decode(&enc).expect("decode"));
        assert_eq!(back[0], 0.0);
        assert_eq!(back[2], 1.0);
        assert!((back[1] - 0.5).abs() <= Quant16::max_error(1.0) * 1.001);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_heatsim::Grid;

    fn samples_of(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn error_is_bounded() {
        let g = Grid::from_fn(48, 48, |x, y| 100.0 * (x * 5.0).sin() + 30.0 * y);
        let bytes = g.to_bytes();
        let codec = Quant16;
        let back = codec.decode(&codec.encode(&bytes)).expect("decode");
        let orig = samples_of(&bytes);
        let rec = samples_of(&back);
        let range = g.max() - g.min();
        let bound = Quant16::max_error(range) * 1.001;
        for (a, b) in orig.iter().zip(&rec) {
            assert!((a - b).abs() <= bound, "{a} vs {b} exceeds {bound}");
        }
    }

    #[test]
    fn compresses_smooth_fields_about_4x_or_better() {
        let g = Grid::from_fn(64, 64, |x, y| (x + y) * 0.5);
        let bytes = g.to_bytes();
        let enc = Quant16.encode(&bytes);
        // ~2 bytes per sample on a smooth ramp vs 8 raw.
        assert!(
            enc.len() * 3 <= bytes.len(),
            "{} vs {}",
            enc.len(),
            bytes.len()
        );
    }

    #[test]
    fn constant_and_empty_streams() {
        let codec = Quant16;
        let g = Grid::from_fn(8, 8, |_, _| 42.0);
        let bytes = g.to_bytes();
        let back = codec.decode(&codec.encode(&bytes)).expect("decode");
        assert_eq!(samples_of(&back), samples_of(&bytes));
        assert_eq!(
            codec.decode(&codec.encode(&[])).expect("decode"),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let codec = Quant16;
        assert!(codec.decode(&[0u8; 10]).is_none(), "short header");
        let g = Grid::from_fn(8, 8, |_, _| 1.0);
        let mut enc = codec.encode(&g.to_bytes());
        enc.push(0); // trailing garbage
        assert!(codec.decode(&enc).is_none());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_samples_are_rejected() {
        let _ = Quant16.encode(&f64::NAN.to_le_bytes());
    }

    #[test]
    fn non_finite_samples_are_an_error_through_encode_into() {
        let mut bytes = 1.0f64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&f64::INFINITY.to_le_bytes());
        let err = Quant16
            .encode_into(&bytes, &mut Scratch::default(), &mut Vec::new())
            .unwrap_err();
        assert_eq!(err, CodecError::NonFiniteSample { index: 1 });
        assert!(err.to_string().contains("finite"));
    }

    #[test]
    fn misaligned_input_is_an_error_through_encode_into() {
        let err = Quant16
            .encode_into(&[0u8; 9], &mut Scratch::default(), &mut Vec::new())
            .unwrap_err();
        assert_eq!(err, CodecError::Misaligned { len: 9 });
    }

    #[test]
    fn extreme_range_spans_round_trip_finite() {
        // lo = -MAX, hi = MAX makes hi - lo overflow to +inf; the quantizer
        // used to emit NaN indices here and decode to garbage.
        let vals = [-f64::MAX, 0.0, f64::MAX];
        let mut bytes = Vec::new();
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let codec = Quant16;
        let back = codec.decode(&codec.encode(&bytes)).expect("decode");
        let rec = samples_of(&back);
        assert!(rec.iter().all(|v| v.is_finite()), "{rec:?}");
        // Range endpoints quantize to the lattice ends and reconstruct
        // exactly; the midpoint lands within half a (huge) lattice step,
        // i.e. within range/2/LEVELS computed in overflow-free halves.
        assert_eq!(rec[0], -f64::MAX);
        assert_eq!(rec[2], f64::MAX);
        let half_step = (f64::MAX / 2.0 - (-f64::MAX) / 2.0) / LEVELS;
        assert!(rec[1].abs() <= half_step * 1.001, "{}", rec[1]);
    }
}
