//! # greenness-codec
//!
//! Snapshot compression for the paper's data-reduction discussion.
//! "Application-Driven Compression for Visualizing Large-Scale Time-Varying
//! Data" (Wang, Yu, Ma — the paper's ref [22]) is cited as one of the
//! techniques that shrink post-processing I/O; this crate provides real,
//! tested codecs so the `compressed post-processing` pipeline variant and
//! the `ablate_compression` bench trade actual CPU work against actual byte
//! counts:
//!
//! * [`rle`] — byte-level run-length coding (effective on rendered images
//!   and constant field regions);
//! * [`delta`] — lossless f64 bit-delta + zigzag varint coding (effective
//!   only on near-identical samples — a deliberately naive baseline);
//! * [`transpose`] — byte-plane transposition + RLE, the standard lossless
//!   trick for floating-point fields (the codec the compressed pipeline
//!   variant uses);
//! * [`quant`] — lossy bounded-error quantization to u16 (or u8, for
//!   wire compression on the cluster's staging fabric) + delta coding
//!   (the paper's sampling/triage family trades information for bytes; this
//!   codec makes the loss *bounded and measurable*);
//! * [`cost`] — calibrated CPU cost of (de)compression, charged to the
//!   platform like every other activity.
//!
//! Codecs sit on the per-iteration dump path, so encoding supports a
//! buffer-reusing entry point: [`Codec::encode_into`] appends into a
//! caller-owned output `Vec` and recycles [`Scratch`] working buffers —
//! bundle both behind [`ScratchCodec`] and steady-state encoding performs
//! no heap allocation.

use std::fmt;

pub mod cost;
pub mod delta;
pub mod quant;
pub mod rle;
pub mod transpose;

pub use cost::CodecCostModel;

/// The little-endian `u64` an eight-byte word holds, and 0 for a slice of
/// any other length: a total conversion for the words `chunks_exact(8)` or
/// a bounds check has already sized.
#[inline]
pub(crate) fn le_u64(bytes: &[u8]) -> u64 {
    bytes.try_into().map_or(0, u64::from_le_bytes)
}

/// Why an encode was rejected. These conditions used to be `assert!`s; they
/// are values now so callers feeding externally-sourced streams can report
/// them instead of crashing. [`Codec::encode`] keeps the panicking contract
/// for call sites with library-validated input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The f64 codecs require a whole number of little-endian `f64`s.
    Misaligned {
        /// The offending input length.
        len: usize,
    },
    /// Quantization cannot represent NaN or infinite samples.
    NonFiniteSample {
        /// Index of the first non-finite sample.
        index: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Misaligned { len } => {
                write!(f, "expects a stream of f64s (got {len} bytes)")
            }
            CodecError::NonFiniteSample { index } => {
                write!(f, "quantization requires finite samples (sample {index})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Reusable working buffers for [`Codec::encode_into`]. One `Scratch` may
/// be shared across codecs and calls; each encode clears what it uses, and
/// the buffers keep their capacity, so a warmed-up scratch makes repeated
/// encoding allocation-free.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    /// All eight transposed byte planes, filled by one blocked pass over
    /// the input (see `transpose::transpose_planes`).
    pub(crate) planes: [Vec<u8>; 8],
    /// RLE coding of the plane currently being sized.
    pub(crate) plane_rle: Vec<u8>,
    /// Byte-delta transform of the plane currently being sized.
    pub(crate) plane_delta: Vec<u8>,
    /// RLE coding of the delta plane.
    pub(crate) plane_delta_rle: Vec<u8>,
}

/// A byte-stream codec.
pub trait Codec {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Compress `input` into `out` (cleared first), reusing `scratch`
    /// working buffers between calls. With warmed-up buffers this performs
    /// no heap allocation at steady state.
    fn encode_into(
        &self,
        input: &[u8],
        scratch: &mut Scratch,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError>;

    /// Compress `input` into a fresh `Vec`. Panics on invalid input
    /// (misaligned / non-finite streams) — the contract call sites with
    /// library-validated data rely on; use [`Codec::encode_into`] to get
    /// the error as a value.
    fn encode(&self, input: &[u8]) -> Vec<u8> {
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        self.encode_into(input, &mut scratch, &mut out)
            .unwrap_or_else(|e| panic!("{} codec: {e}", self.name()));
        out
    }

    /// Decompress `input`. Returns `None` on malformed streams.
    fn decode(&self, input: &[u8]) -> Option<Vec<u8>>;
}

/// A codec bundled with its own [`Scratch`] and output buffer: after the
/// first call warms the buffers, repeated encodes on same-shaped input
/// perform no heap allocation. This is what `core`'s compressed pipeline
/// variant threads down the per-iteration dump path.
pub struct ScratchCodec {
    codec: Box<dyn Codec>,
    scratch: Scratch,
    out: Vec<u8>,
}

impl ScratchCodec {
    /// Wrap `codec` with fresh (empty) buffers.
    pub fn new(codec: Box<dyn Codec>) -> ScratchCodec {
        ScratchCodec {
            codec,
            scratch: Scratch::default(),
            out: Vec::new(),
        }
    }

    /// The wrapped codec's name.
    pub fn name(&self) -> &'static str {
        self.codec.name()
    }

    /// Encode `input`, reusing this wrapper's buffers. The returned slice
    /// borrows the internal output buffer and is valid until the next call.
    pub fn try_encode(&mut self, input: &[u8]) -> Result<&[u8], CodecError> {
        self.codec
            .encode_into(input, &mut self.scratch, &mut self.out)?;
        Ok(&self.out)
    }

    /// Decode through the wrapped codec (decoding is off the steady-state
    /// dump path, so it keeps the allocating signature).
    pub fn decode(&self, input: &[u8]) -> Option<Vec<u8>> {
        self.codec.decode(input)
    }
}

/// Compression ratio achieved on `input` (original / encoded; > 1 is a win).
pub fn ratio(codec: &dyn Codec, input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    let encoded = codec.encode(input);
    input.len() as f64 / encoded.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rle::Rle;
    use crate::transpose::TransposeRle;

    #[test]
    fn ratio_reflects_compressibility() {
        let rle = Rle;
        let runs = vec![7u8; 10_000];
        let noise: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761)) as u8)
            .collect();
        assert!(ratio(&rle, &runs) > 100.0);
        assert!(ratio(&rle, &noise) < 1.1);
        assert_eq!(ratio(&rle, &[]), 1.0);
    }

    #[test]
    fn scratch_codec_matches_plain_encode_and_stops_allocating() {
        let field: Vec<u8> = (0..4096u64)
            .flat_map(|i| ((i as f64 * 0.01).sin()).to_le_bytes())
            .collect();
        let mut sc = ScratchCodec::new(Box::new(TransposeRle));
        let warm = sc.try_encode(&field).expect("encode").to_vec();
        assert_eq!(warm, TransposeRle.encode(&field), "buffer reuse drifted");
        // Warmed buffers must be reused, not regrown: capacities stay put
        // across repeated same-shaped encodes.
        let caps = |sc: &ScratchCodec| {
            let plane_caps: Vec<usize> = sc.scratch.planes.iter().map(Vec::capacity).collect();
            (
                sc.out.capacity(),
                plane_caps,
                sc.scratch.plane_rle.capacity(),
                sc.scratch.plane_delta.capacity(),
                sc.scratch.plane_delta_rle.capacity(),
            )
        };
        let warm_caps = caps(&sc);
        for _ in 0..5 {
            let again = sc.try_encode(&field).expect("encode");
            assert_eq!(again, &warm[..]);
        }
        assert_eq!(caps(&sc), warm_caps, "steady state reallocated");
        assert_eq!(sc.decode(&warm).expect("decode"), field);
    }

    #[test]
    fn encode_into_reports_errors_as_values() {
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let err = TransposeRle
            .encode_into(&[1, 2, 3], &mut scratch, &mut out)
            .unwrap_err();
        assert_eq!(err, CodecError::Misaligned { len: 3 });
        assert!(err.to_string().contains("stream of f64s"));
    }
}
