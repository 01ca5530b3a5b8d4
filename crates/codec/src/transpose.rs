//! Byte-plane transposition + RLE — the standard lossless trick for floating
//!-point fields.
//!
//! A smooth `f64` field varies mostly in the low mantissa bytes; the sign/
//! exponent/high-mantissa bytes are locally near-constant. Splitting the
//! stream into its eight byte planes groups those near-constant bytes into
//! long runs that RLE then collapses; the noisy low planes pass through
//! nearly raw. Lossless and format-checked.
//!
//! Each plane is stored raw, RLE-coded, or byte-delta+RLE-coded — whichever
//! is smallest — so the worst case is bounded near the input size while
//! smoothly-varying planes (exponents, high mantissa bytes) collapse to
//! near-zero delta runs.
//!
//! Two hot loops once made this codec 14× slower than plain RLE (0.18 GB/s,
//! CHANGES.md PR 7), and both are fixed here without changing a
//! single output byte:
//!
//! * **The plane split.** The original implementation gathered each plane
//!   with `input.chunks_exact(8).map(|c| c[byte_idx])` — eight strided
//!   passes over the whole input. [`transpose_planes`] now reads the input
//!   **once**, transposing each 64-byte group of eight values as an 8×8
//!   byte tile into all eight planes, so every cache line is touched a
//!   single time.
//! * **The per-plane size contest.** The original encoder materialized
//!   both RLE codings of every plane just to measure them, even though
//!   noisy mantissa planes always lose to raw. The fast path now prunes
//!   with [`rle_len_lower_bound`] — a word-at-a-time run count with early
//!   exit — and only materializes codings that can still win; the clamped
//!   lengths feed the same [`choose_flag`] rule the reference uses, so the
//!   chosen flag (and therefore the stream) cannot differ.
//!
//! The original strided, materialize-everything encoder survives as
//! `TransposeRle::encode_reference`, the bit-identity oracle the fast
//! path is gated on (`tests/oracle_equivalence.rs`, codec proptests).
//!
//! Stream format:
//! `n_values: u64 | 8 × (flag: u8 (0=raw, 1=rle, 2=delta+rle) | plane_len: u64 | plane)`.

use crate::rle::{rle_decode_exact, rle_encode_into, rle_len_lower_bound};
use crate::{Codec, CodecError, Scratch};

/// The transpose + RLE codec. Input length must be a multiple of 8.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransposeRle;

/// Split `input` (a stream of `n` little-endian f64 values) into its eight
/// byte planes in one sequential pass. Each group of eight values is
/// transposed as an 8×8 byte tile: the 64 input bytes are read once, and
/// each plane receives its eight bytes as one contiguous write, so both
/// sides of the transpose stay cache-resident. The tail (`n % 8` values)
/// is scattered value-by-value.
pub(crate) fn transpose_planes(input: &[u8], planes: &mut [Vec<u8>; 8]) {
    let n = input.len() / 8;
    for plane in planes.iter_mut() {
        plane.clear();
        plane.resize(n, 0);
    }
    let tiles = n / 8;
    for t in 0..tiles {
        let tile = &input[t * 64..t * 64 + 64];
        let base = t * 8;
        for (j, plane) in planes.iter_mut().enumerate() {
            let row = &mut plane[base..base + 8];
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = tile[k * 8 + j];
            }
        }
    }
    for k in tiles * 8..n {
        let value = &input[k * 8..k * 8 + 8];
        for (j, plane) in planes.iter_mut().enumerate() {
            plane[k] = value[j];
        }
    }
}

/// The byte-delta transform `d[i] = p[i] − p[i−1]` (wrapping, `p[−1] = 0`),
/// written as a windowed subtraction over the already-materialized plane so
/// the inner loop autovectorizes — no serial `prev` carry.
pub(crate) fn delta_into(plane: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.resize(plane.len(), 0);
    let Some(&first) = plane.first() else {
        return;
    };
    out[0] = first;
    for (d, w) in out[1..].iter_mut().zip(plane.windows(2)) {
        *d = w[1].wrapping_sub(w[0]);
    }
}

/// The smallest-wins flag rule, factored out so the fast path (which feeds
/// it pruned candidate lengths) and the reference (which feeds it fully
/// materialized ones) cannot drift: 2 = delta+RLE iff strictly smallest,
/// else 1 = RLE iff strictly smaller than raw, else 0 = raw.
///
/// The rule only compares each coded length against `raw_len` and the
/// *minimum* of the others, so a candidate whose true length is known to be
/// `>= raw_len` may be passed as `raw_len` without changing the outcome —
/// that is what lets the fast path skip materializing provably-losing
/// encodings.
fn choose_flag(raw_len: usize, rle_len: usize, delta_rle_len: usize) -> u8 {
    if delta_rle_len < rle_len.min(raw_len) {
        2
    } else if rle_len < raw_len {
        1
    } else {
        0
    }
}

impl Codec for TransposeRle {
    fn name(&self) -> &'static str {
        "transpose-rle"
    }

    fn encode_into(
        &self,
        input: &[u8],
        scratch: &mut Scratch,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if input.len() % 8 != 0 {
            return Err(CodecError::Misaligned { len: input.len() });
        }
        let n = input.len() / 8;
        let Scratch {
            planes,
            plane_rle,
            plane_delta,
            plane_delta_rle,
        } = scratch;
        transpose_planes(input, planes);
        out.clear();
        out.reserve(input.len() / 2 + 72);
        out.extend_from_slice(&(n as u64).to_le_bytes());
        for plane in planes.iter() {
            delta_into(plane, plane_delta);
            // Prune before materializing: a cheap word-at-a-time run count
            // gives a lower bound on each RLE coding's length, and a
            // candidate whose bound already reaches `raw_len` cannot win
            // [`choose_flag`]'s strictly-smaller contest — noisy mantissa
            // planes (the common case on real f64 fields) short-circuit
            // here and are emitted raw without either RLE pass running.
            let raw_len = plane.len();
            let rle_len = if rle_len_lower_bound(plane, raw_len) < raw_len {
                rle_encode_into(plane, plane_rle);
                plane_rle.len()
            } else {
                raw_len
            };
            let delta_rle_len = if rle_len_lower_bound(plane_delta, raw_len) < raw_len {
                rle_encode_into(plane_delta, plane_delta_rle);
                plane_delta_rle.len()
            } else {
                raw_len
            };
            let flag = choose_flag(raw_len, rle_len, delta_rle_len);
            let payload: &[u8] = match flag {
                2 => plane_delta_rle,
                1 => plane_rle,
                _ => plane,
            };
            out.push(flag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        Ok(())
    }

    /// Decode a transpose-RLE stream. The eight `plane_len` fields are
    /// attacker-controlled `u64`s, so the stream is validated in two passes
    /// with checked arithmetic: pass one walks every plane header — flag in
    /// range, payload in bounds, length *plausible* for an `n`-byte plane
    /// (a raw payload must be exactly `n` bytes; an RLE payload of `p`
    /// pairs can only yield `p..=255·p`) — and requires the final offset to
    /// land exactly on the end of input. Only then does pass two allocate
    /// and decode, with the RLE expansion capped at exactly `n` bytes per
    /// plane ([`rle_decode_exact`]). Any malformed, truncated, or
    /// overflowing stream returns `None`; allocation never exceeds what a
    /// *valid* stream of the same length could legitimately decompress to.
    fn decode(&self, input: &[u8]) -> Option<Vec<u8>> {
        let n: usize = u64::from_le_bytes(input.get(0..8)?.try_into().ok()?)
            .try_into()
            .ok()?;
        // Pass 1: validate all eight plane headers before any allocation.
        let mut spans = [(0u8, 0usize, 0usize); 8];
        let mut pos = 8usize;
        for span in spans.iter_mut() {
            let flag = *input.get(pos)?;
            if flag > 2 {
                return None;
            }
            pos = pos.checked_add(1)?;
            let len_end = pos.checked_add(8)?;
            let coded_len: usize = u64::from_le_bytes(input.get(pos..len_end)?.try_into().ok()?)
                .try_into()
                .ok()?;
            pos = len_end;
            let coded_end = pos.checked_add(coded_len)?;
            if coded_end > input.len() {
                return None;
            }
            match flag {
                0 => {
                    if coded_len != n {
                        return None;
                    }
                }
                _ => {
                    if coded_len % 2 != 0 {
                        return None;
                    }
                    let pairs = coded_len / 2;
                    if pairs > n || pairs.checked_mul(255)? < n {
                        return None;
                    }
                }
            }
            *span = (flag, pos, coded_len);
            pos = coded_end;
        }
        if pos != input.len() {
            return None;
        }
        // Pass 2: decode each plane (to exactly n bytes or fail) and
        // scatter it back into value order.
        let mut out = vec![0u8; n.checked_mul(8)?];
        for (byte_idx, &(flag, start, coded_len)) in spans.iter().enumerate() {
            let payload = &input[start..start + coded_len];
            let decoded;
            let plane: &[u8] = match flag {
                0 => payload,
                _ => {
                    let mut p = rle_decode_exact(payload, n)?;
                    if flag == 2 {
                        let mut acc = 0u8;
                        for b in &mut p {
                            acc = acc.wrapping_add(*b);
                            *b = acc;
                        }
                    }
                    decoded = p;
                    &decoded
                }
            };
            for (i, &b) in plane.iter().enumerate() {
                out[i * 8 + byte_idx] = b;
            }
        }
        Some(out)
    }
}

/// The reference's plane writer: choose the smallest representation of one
/// plane by [`choose_flag`], the rule the fast path also uses, and append
/// `flag | plane_len | payload` to `out`.
#[cfg(any(test, feature = "reference"))]
fn push_plane(out: &mut Vec<u8>, plane: &[u8], plane_rle: &[u8], plane_delta_rle: &[u8]) {
    let flag = choose_flag(plane.len(), plane_rle.len(), plane_delta_rle.len());
    let payload: &[u8] = match flag {
        2 => plane_delta_rle,
        1 => plane_rle,
        _ => plane,
    };
    out.push(flag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

#[cfg(any(test, feature = "reference"))]
impl TransposeRle {
    /// Encode through the original implementation: per-plane strided gather
    /// (eight passes over `input`), serial-carry delta, and byte-at-a-time
    /// RLE run scan. Retained as the bit-identity oracle the blocked fast
    /// path in [`Codec::encode_into`] must reproduce exactly — the golden
    /// energy values are pinned to these bytes. Built for tests and under
    /// the `reference` feature.
    pub fn encode_reference(&self, input: &[u8]) -> Result<Vec<u8>, CodecError> {
        if input.len() % 8 != 0 {
            return Err(CodecError::Misaligned { len: input.len() });
        }
        let n = input.len() / 8;
        let mut out = Vec::with_capacity(input.len() / 2 + 72);
        out.extend_from_slice(&(n as u64).to_le_bytes());
        let (mut plane, mut plane_rle, mut plane_delta, mut plane_delta_rle) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for byte_idx in 0..8 {
            plane.clear();
            plane.extend(input.chunks_exact(8).map(|c| c[byte_idx]));
            crate::rle::rle_encode_into_reference(&plane, &mut plane_rle);
            plane_delta.clear();
            let mut prev = 0u8;
            plane_delta.extend(plane.iter().map(|&b| {
                let d = b.wrapping_sub(prev);
                prev = b;
                d
            }));
            crate::rle::rle_encode_into_reference(&plane_delta, &mut plane_delta_rle);
            push_plane(&mut out, &plane, &plane_rle, &plane_delta_rle);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_heatsim::Grid;

    #[test]
    fn round_trips_exactly() {
        let g = Grid::from_fn(48, 48, |x, y| {
            0.3 * (-((x - 0.5).powi(2) + y * y) * 20.0).exp()
        });
        let bytes = g.to_bytes();
        let codec = TransposeRle;
        assert_eq!(
            codec.decode(&codec.encode(&bytes)).expect("decode"),
            &bytes[..]
        );
    }

    #[test]
    fn blocked_encode_is_bit_identical_to_the_reference() {
        let codec = TransposeRle;
        // Tile-boundary cases: empty, one value, exactly one 8-value tile,
        // a tile plus a tail, and a large smooth field.
        for n_values in [0usize, 1, 7, 8, 9, 64, 65, 1000] {
            let bytes: Vec<u8> = (0..n_values)
                .flat_map(|i| ((i as f64 * 0.37).sin() * 3.0).to_le_bytes())
                .collect();
            assert_eq!(
                codec.encode(&bytes),
                codec.encode_reference(&bytes).expect("aligned"),
                "divergence at {n_values} values"
            );
        }
        assert_eq!(
            codec.encode_reference(&[1, 2, 3]).unwrap_err(),
            CodecError::Misaligned { len: 3 }
        );
    }

    #[test]
    fn beats_plain_bit_delta_on_smooth_fields() {
        use crate::delta::DeltaVarint;
        let g = Grid::warm_patch(64, 64);
        let bytes = g.to_bytes();
        let t = TransposeRle.encode(&bytes).len();
        let d = DeltaVarint.encode(&bytes).len();
        assert!(t < d, "transpose {t} vs delta {d}");
        // Wide-dynamic-range f64 fields compress poorly losslessly (this is
        // exactly why ZFP/SZ-class scientific compressors are lossy);
        // expect a modest but real win.
        assert!(
            (bytes.len() as f64 / t as f64) > 1.08,
            "ratio only {}",
            bytes.len() as f64 / t as f64
        );
    }

    #[test]
    fn special_values_survive() {
        let vals = [0.0f64, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut bytes = Vec::new();
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let codec = TransposeRle;
        assert_eq!(codec.decode(&codec.encode(&bytes)).expect("decode"), bytes);
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let codec = TransposeRle;
        assert!(codec.decode(&[]).is_none());
        assert!(codec.decode(&[0u8; 7]).is_none());
        let g = Grid::from_fn(8, 8, |_, _| 2.0);
        let mut enc = codec.encode(&g.to_bytes());
        enc.push(9); // trailing garbage
        assert!(codec.decode(&enc).is_none());
        let enc2 = codec.encode(&g.to_bytes());
        assert!(codec.decode(&enc2[..enc2.len() - 1]).is_none());
    }

    #[test]
    fn hostile_plane_lengths_are_rejected_without_allocation_bombs() {
        let codec = TransposeRle;
        let enc = codec.encode(&Grid::from_fn(8, 8, |_, _| 2.0).to_bytes());

        // Claimed value count far beyond anything the payload could back.
        let mut huge_n = enc.clone();
        huge_n[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(codec.decode(&huge_n).is_none());

        // A plane_len of u64::MAX must fail the checked bounds math, not
        // wrap or slice out of range. Plane 0's header starts at offset 8:
        // flag byte, then the 8-byte length.
        let mut huge_plane = enc.clone();
        huge_plane[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(codec.decode(&huge_plane).is_none());

        // An RLE plane whose pair count cannot reach n bytes (too few) or
        // stay within it (too many) is rejected before decoding.
        let mut stream = 64u64.to_le_bytes().to_vec(); // n = 64
        for _ in 0..8 {
            stream.push(1); // flag: rle
            stream.extend_from_slice(&2u64.to_le_bytes()); // one pair
            stream.extend_from_slice(&[10, 7]); // 10 bytes != 64
        }
        assert!(codec.decode(&stream).is_none());
    }

    #[test]
    fn empty_stream() {
        let codec = TransposeRle;
        assert_eq!(
            codec.decode(&codec.encode(&[])).expect("decode"),
            Vec::<u8>::new()
        );
    }
}
