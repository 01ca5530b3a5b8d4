//! Byte-level run-length coding.
//!
//! Stream format: a sequence of `(count: u8 >= 1, byte)` pairs. Dead simple,
//! worst case 2× expansion on incompressible data — which the tests and the
//! `ablate_compression` bench make visible rather than hide.

use crate::{le_u64, Codec, CodecError, Scratch};

/// The run-length codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rle;

/// Append the RLE coding of `input` to a cleared `out`. The run scan is
/// word-at-a-time ([`run_len`]); `rle_encode_into_reference` retains the
/// byte-at-a-time scan as the oracle the fast path is tested against.
pub(crate) fn rle_encode_into(input: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        let cap = (input.len() - i).min(255);
        let run = run_len(&input[i..], b, cap);
        out.push(run as u8);
        out.push(b);
        i += run;
    }
}

/// Length of the run of `b` at the head of `input`, capped at `cap`
/// (callers guarantee `input[0] == b` and `1 <= cap <= input.len()`).
/// A single-byte probe handles the common case on noisy planes — a run
/// that ends immediately — for the cost of one compare; longer runs then
/// compare eight bytes per iteration against a splat of `b`, and on a
/// mismatch the first differing byte falls out of `trailing_zeros` of the
/// XOR (little-endian word, so byte `k` occupies bits `8k..8k+8`). The
/// residual tail is scanned byte-wise.
#[inline]
fn run_len(input: &[u8], b: u8, cap: usize) -> usize {
    if cap >= 2 && input[1] != b {
        return 1;
    }
    let splat = u64::from_le_bytes([b; 8]);
    let mut run = 1usize;
    while run + 8 <= cap {
        let diff = le_u64(&input[run..run + 8]) ^ splat;
        if diff != 0 {
            return run + (diff.trailing_zeros() / 8) as usize;
        }
        run += 8;
    }
    while run < cap && input[run] == b {
        run += 1;
    }
    run
}

/// A quick **lower bound** on `rle_encode_into(bytes).len()`, used to prune
/// encodings that provably cannot win the per-plane size contest without
/// materializing them. Every position where `bytes[i] != bytes[i + 1]`
/// starts a new run, so the coded length is at least
/// `2 × (boundaries + 1)`; the 255-run cap only ever *adds* runs, so the
/// bound stays valid without modeling it. Boundaries are counted eight at a
/// time: XOR a word against itself shifted one byte, then count the nonzero
/// bytes with the SWAR zero-byte trick (`((x & !MSB) + !MSB) | x` has the
/// high bit of byte `k` set iff byte `k` of `x` is nonzero).
///
/// Returns `limit` as soon as the bound reaches it — on incompressible
/// data that happens about halfway through the plane — so callers pass the
/// length beyond which they no longer care.
pub(crate) fn rle_len_lower_bound(bytes: &[u8], limit: usize) -> usize {
    if bytes.is_empty() {
        return 0;
    }
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const MSB: u64 = 0x8080_8080_8080_8080;
    let mut runs = 1usize; // the first byte opens a run
    let mut i = 0usize;
    while i + 9 <= bytes.len() {
        if 2 * runs >= limit {
            return limit;
        }
        let x = le_u64(&bytes[i..i + 8]) ^ le_u64(&bytes[i + 1..i + 9]);
        let nonzero = ((x & LOW7).wrapping_add(LOW7) | x) & MSB;
        runs += nonzero.count_ones() as usize;
        i += 8;
    }
    while i + 1 < bytes.len() {
        runs += (bytes[i] != bytes[i + 1]) as usize;
        i += 1;
    }
    (2 * runs).min(limit)
}

/// Decode `input` expecting exactly `expected` output bytes, bailing with
/// `None` the moment the output would overshoot — so a malformed stream can
/// never balloon the allocation past the caller's bound.
pub(crate) fn rle_decode_exact(input: &[u8], expected: usize) -> Option<Vec<u8>> {
    if input.len() % 2 != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(expected);
    for pair in input.chunks_exact(2) {
        let count = pair[0] as usize;
        if count == 0 || out.len() + count > expected {
            return None;
        }
        out.extend(std::iter::repeat(pair[1]).take(count));
    }
    (out.len() == expected).then_some(out)
}

impl Codec for Rle {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn encode_into(
        &self,
        input: &[u8],
        _scratch: &mut Scratch,
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        rle_encode_into(input, out);
        Ok(())
    }

    fn decode(&self, input: &[u8]) -> Option<Vec<u8>> {
        if input.len() % 2 != 0 {
            return None;
        }
        let mut out = Vec::with_capacity(input.len());
        for pair in input.chunks_exact(2) {
            let count = pair[0] as usize;
            if count == 0 {
                return None;
            }
            out.extend(std::iter::repeat(pair[1]).take(count));
        }
        Some(out)
    }
}

/// The original `position`-sweep run scan, retained verbatim as the
/// bit-identity reference for [`rle_encode_into`]. Also the baseline the
/// transpose codec's `TransposeRle::encode_reference` oracle encodes
/// through.
#[cfg(any(test, feature = "reference"))]
pub(crate) fn rle_encode_into_reference(input: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut i = 0;
    while i < input.len() {
        let b = input[i];
        let cap = (input.len() - i).min(255);
        let run = input[i + 1..i + cap]
            .iter()
            .position(|&x| x != b)
            .map_or(cap, |p| p + 1);
        out.push(run as u8);
        out.push(b);
        i += run;
    }
}

#[cfg(any(test, feature = "reference"))]
impl Rle {
    /// Encode through the retained byte-at-a-time reference scan. Public so
    /// integration tests can gate the word-at-a-time fast path on bit
    /// identity from outside the crate (under the `reference` feature).
    pub fn encode_reference(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        rle_encode_into_reference(input, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_runs_and_noise() {
        let rle = Rle;
        for input in [
            vec![],
            vec![5u8; 1000],
            b"abcabcabc".to_vec(),
            (0..=255u8).collect::<Vec<u8>>(),
            vec![0u8; 300], // run longer than the 255 cap
        ] {
            let enc = rle.encode(&input);
            assert_eq!(rle.decode(&enc).expect("decode"), input);
        }
    }

    #[test]
    fn long_runs_compress_hard() {
        let rle = Rle;
        let enc = rle.encode(&vec![9u8; 255 * 4]);
        assert_eq!(enc.len(), 8);
    }

    #[test]
    fn runs_near_the_255_cap_split_exactly() {
        let rle = Rle;
        // Every boundary around the u8 run cap: one pair, a full pair plus a
        // 1-run, two full pairs, two full pairs plus a 1-run.
        for (len, pairs) in [(254, 1), (255, 1), (256, 2), (510, 2), (511, 3)] {
            let input = vec![3u8; len];
            let enc = rle.encode(&input);
            assert_eq!(enc.len(), pairs * 2, "len {len}");
            assert_eq!(rle.decode(&enc).expect("decode"), input, "len {len}");
        }
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let rle = Rle;
        assert!(rle.decode(&[1]).is_none(), "odd length");
        assert!(rle.decode(&[0, 7]).is_none(), "zero count");
    }

    #[test]
    fn word_scan_matches_the_reference_scan_bit_for_bit() {
        let rle = Rle;
        // Mismatches planted at every offset within the first word, runs
        // straddling word boundaries, and runs around the 255 cap.
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![1],
            vec![2; 7],
            vec![2; 8],
            vec![2; 9],
            vec![9; 300],
            (0..=255u8).collect(),
            b"aaaaaaabaaaaaaab".to_vec(),
        ];
        for mismatch_at in 0..16 {
            let mut v = vec![4u8; 24];
            v[mismatch_at] = 5;
            cases.push(v);
        }
        for input in cases {
            assert_eq!(
                rle.encode(&input),
                rle.encode_reference(&input),
                "divergence on {input:?}"
            );
        }
    }

    #[test]
    fn length_lower_bound_never_exceeds_the_coded_length() {
        let rle = Rle;
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![1],
            vec![2; 7],
            vec![2; 300],          // 255-cap split: bound < actual
            (0..=255u8).collect(), // all boundaries
            (0..512).map(|i| ((i / 3) % 7) as u8).collect(),
            b"aaaaaaabaaaaaaab".to_vec(),
        ];
        for input in cases {
            let actual = rle.encode(&input).len();
            let bound = rle_len_lower_bound(&input, usize::MAX);
            assert!(
                bound <= actual,
                "bound {bound} > actual {actual} on {input:?}"
            );
            // Without cap splits the bound is exact; with them it only sags.
            if input.len() < 255 {
                assert_eq!(bound, actual, "inexact on {input:?}");
            }
        }
        // Early exit: the limit comes back verbatim on noisy input.
        let noise: Vec<u8> = (0..=255u8).collect();
        assert_eq!(rle_len_lower_bound(&noise, 100), 100);
        assert_eq!(rle_len_lower_bound(&[], 0), 0);
    }

    #[test]
    fn decode_exact_enforces_its_bound() {
        assert_eq!(rle_decode_exact(&[3, 7], 3), Some(vec![7, 7, 7]));
        assert!(rle_decode_exact(&[3, 7], 2).is_none(), "overshoot");
        assert!(rle_decode_exact(&[3, 7], 4).is_none(), "undershoot");
        assert!(rle_decode_exact(&[0, 7], 0).is_none(), "zero count");
        assert!(rle_decode_exact(&[3], 3).is_none(), "odd length");
        assert_eq!(rle_decode_exact(&[], 0), Some(vec![]));
    }
}
