//! BLAKE2s-256 (RFC 7693), implemented in-repo — the workspace vendors no
//! crypto crate, and the cache only needs a stable, well-distributed content
//! address, not a certified implementation. Unkeyed, 32-byte digest.

/// SHA-256 initialization vector, shared by BLAKE2s (RFC 7693 §2.6).
const IV: [u32; 8] = [
    0x6A09_E667,
    0xBB67_AE85,
    0x3C6E_F372,
    0xA54F_F53A,
    0x510E_527F,
    0x9B05_688C,
    0x1F83_D9AB,
    0x5BE0_CD19,
];

/// Message-word schedule, one permutation per round (RFC 7693 §2.7).
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// Incremental BLAKE2s-256 hasher. A clone carries on from the same input,
/// so a common prefix is absorbed once for any number of digests.
#[derive(Clone)]
pub struct Blake2s256 {
    h: [u32; 8],
    t: u64,
    buf: [u8; 64],
    buflen: usize,
}

impl Default for Blake2s256 {
    fn default() -> Self {
        let mut h = IV;
        // Parameter block word 0: digest length 32, no key, fanout 1, depth 1.
        h[0] ^= 0x0101_0020;
        Blake2s256 {
            h,
            t: 0,
            buf: [0; 64],
            buflen: 0,
        }
    }
}

impl Blake2s256 {
    /// Absorb `data`. The buffered block is only compressed once more input
    /// arrives, so the final block is always available for the last-block
    /// flag at [`finalize`](Self::finalize) time.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            if self.buflen == 64 {
                self.t += 64;
                compress(&mut self.h, &self.buf, self.t, false);
                self.buflen = 0;
            }
            let n = (64 - self.buflen).min(data.len());
            self.buf[self.buflen..self.buflen + n].copy_from_slice(&data[..n]);
            self.buflen += n;
            data = &data[n..];
        }
    }

    /// Pad and compress the final block, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        self.t += self.buflen as u64;
        self.buf[self.buflen..].fill(0);
        compress(&mut self.h, &self.buf, self.t, true);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// Text can be streamed straight into the hasher (the cache-key path
/// serializes canonical JSON directly into it, skipping the intermediate
/// `String`).
impl std::fmt::Write for Blake2s256 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// One-shot digest.
pub fn blake2s256(data: &[u8]) -> [u8; 32] {
    let mut h = Blake2s256::default();
    h.update(data);
    h.finalize()
}

/// Lowercase hex rendering of a digest.
pub fn hex(digest: &[u8; 32]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for b in digest {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 15)] as char);
    }
    s
}

/// The mixing function G (RFC 7693 §3.1) over four of the sixteen working
/// words, which are locals so that a round keeps them in registers.
macro_rules! g {
    ($a:ident, $b:ident, $c:ident, $d:ident, $x:expr, $y:expr) => {
        $a = $a.wrapping_add($b).wrapping_add($x);
        $d = ($d ^ $a).rotate_right(16);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_right(12);
        $a = $a.wrapping_add($b).wrapping_add($y);
        $d = ($d ^ $a).rotate_right(8);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_right(7);
    };
}

fn compress(h: &mut [u32; 8], block: &[u8; 64], t: u64, last: bool) {
    let mut m = [0u32; 16];
    for (word, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let [mut v0, mut v1, mut v2, mut v3, mut v4, mut v5, mut v6, mut v7] = *h;
    let [mut v8, mut v9, mut v10, mut v11, mut v12, mut v13, mut v14, mut v15] = IV;
    v12 ^= t as u32;
    v13 ^= (t >> 32) as u32;
    if last {
        v14 ^= 0xFFFF_FFFF;
    }
    // One round per SIGMA row: columns, then diagonals. `SIGMA[r][i]` with
    // constant `r` and `i` folds to a constant index into `m`.
    macro_rules! round {
        ($r:expr) => {
            let s = &SIGMA[$r];
            g!(v0, v4, v8, v12, m[s[0]], m[s[1]]);
            g!(v1, v5, v9, v13, m[s[2]], m[s[3]]);
            g!(v2, v6, v10, v14, m[s[4]], m[s[5]]);
            g!(v3, v7, v11, v15, m[s[6]], m[s[7]]);
            g!(v0, v5, v10, v15, m[s[8]], m[s[9]]);
            g!(v1, v6, v11, v12, m[s[10]], m[s[11]]);
            g!(v2, v7, v8, v13, m[s[12]], m[s[13]]);
            g!(v3, v4, v9, v14, m[s[14]], m[s[15]]);
        };
    }
    round!(0);
    round!(1);
    round!(2);
    round!(3);
    round!(4);
    round!(5);
    round!(6);
    round!(7);
    round!(8);
    round!(9);
    let v = [
        v0 ^ v8,
        v1 ^ v9,
        v2 ^ v10,
        v3 ^ v11,
        v4 ^ v12,
        v5 ^ v13,
        v6 ^ v14,
        v7 ^ v15,
    ];
    for (word, mixed) in h.iter_mut().zip(v) {
        *word ^= mixed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc7693_test_vectors() {
        // RFC 7693 Appendix B plus the standard empty-input vector.
        assert_eq!(
            hex(&blake2s256(b"abc")),
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
        );
        assert_eq!(
            hex(&blake2s256(b"")),
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = blake2s256(&data);
        for chunk in [1usize, 3, 63, 64, 65, 128, 999] {
            let mut h = Blake2s256::default();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn exact_block_multiples_hash_correctly() {
        // 64- and 128-byte inputs exercise the "buffered block is the last
        // block" path.
        let a = blake2s256(&[0u8; 64]);
        let b = blake2s256(&[0u8; 128]);
        assert_ne!(a, b);
        let mut h = Blake2s256::default();
        h.update(&[0u8; 64]);
        h.update(&[0u8; 64]);
        assert_eq!(h.finalize(), b);
    }
}
