//! Lossless delta + zigzag varint coding for `f64` fields.
//!
//! Smooth simulation fields change little between neighboring cells; coding
//! the bit-pattern difference of consecutive samples as LEB128 varints of
//! the zigzagged delta shrinks them substantially while staying exactly
//! lossless (the round-trip preserves every bit, including NaN payloads).

use crate::{le_u64, Codec, CodecError, Scratch};

/// The delta-varint codec. Input length must be a multiple of 8 (a stream of
/// little-endian `f64`s, as produced by `Grid::to_bytes`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaVarint;

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn read_varint(input: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None; // over-long varint
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

impl Codec for DeltaVarint {
    fn name(&self) -> &'static str {
        "delta-varint"
    }

    fn encode_into(
        &self,
        input: &[u8],
        _scratch: &mut Scratch,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        if input.len() % 8 != 0 {
            return Err(CodecError::Misaligned { len: input.len() });
        }
        out.clear();
        let mut prev = 0u64;
        for chunk in input.chunks_exact(8) {
            let bits = le_u64(chunk);
            let delta = bits.wrapping_sub(prev) as i64;
            push_varint(out, zigzag(delta));
            prev = bits;
        }
        Ok(())
    }

    fn decode(&self, input: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(input.len() * 2);
        let mut pos = 0usize;
        let mut prev = 0u64;
        while pos < input.len() {
            let delta = unzigzag(read_varint(input, &mut pos)?);
            let bits = prev.wrapping_add(delta as u64);
            out.extend_from_slice(&bits.to_le_bytes());
            prev = bits;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_heatsim::Grid;

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn round_trips_smooth_fields_exactly() {
        let g = Grid::from_fn(64, 64, |x, y| (x * 3.0).sin() * (y * 2.0).cos());
        let bytes = g.to_bytes();
        let codec = DeltaVarint;
        let enc = codec.encode(&bytes);
        assert_eq!(codec.decode(&enc).expect("decode"), &bytes[..]);
    }

    #[test]
    fn constant_fields_compress_massively() {
        let g = Grid::from_fn(64, 64, |_, _| 3.25);
        let bytes = g.to_bytes();
        let enc = DeltaVarint.encode(&bytes);
        // One full varint for the first sample, ~1 byte per repeat.
        assert!(
            enc.len() < bytes.len() / 6,
            "{} vs {}",
            enc.len(),
            bytes.len()
        );
    }

    #[test]
    fn special_values_survive() {
        let vals = [
            0.0f64,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        let mut bytes = Vec::new();
        for v in vals {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let codec = DeltaVarint;
        let back = codec.decode(&codec.encode(&bytes)).expect("decode");
        assert_eq!(back, bytes, "bit-exact round trip incl. NaN payloads");
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let g = Grid::from_fn(8, 8, |_, _| 1.0);
        let enc = DeltaVarint.encode(&g.to_bytes());
        // Chop inside a multi-byte varint: find a byte with the continuation
        // bit set and cut right after it.
        if let Some(pos) = enc.iter().position(|b| b & 0x80 != 0) {
            assert!(DeltaVarint.decode(&enc[..=pos]).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "stream of f64s")]
    fn misaligned_input_is_rejected() {
        let _ = DeltaVarint.encode(&[1, 2, 3]);
    }
}
