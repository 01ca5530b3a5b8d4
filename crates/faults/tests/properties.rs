//! Property tests of the checksum over parts.

use greenness_faults::{checksum64, checksum64_parts};
use proptest::prelude::*;

proptest! {
    /// A buffer cut anywhere into pieces (empty ones, pieces shorter than a
    /// word, cuts inside a 32-byte lane block) sums to the checksum of the
    /// whole buffer, and a flipped bit in any piece changes it.
    #[test]
    fn parts_sum_like_the_concatenation(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(any::<u64>(), 0..8),
        flip in any::<u64>(),
    ) {
        let mut at: Vec<usize> = cuts.iter().map(|c| (*c as usize) % (bytes.len() + 1)).collect();
        at.sort_unstable();
        let mut parts = Vec::new();
        let mut from = 0;
        for &to in at.iter().chain([&bytes.len()]) {
            parts.push(&bytes[from..to]);
            from = to;
        }
        prop_assert_eq!(checksum64_parts(&parts), checksum64(&bytes));
        if !bytes.is_empty() {
            let bit = flip as usize % (bytes.len() * 8);
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let (head, tail) = flipped.split_at(bit / 8);
            prop_assert_ne!(checksum64_parts(&[head, tail]), checksum64(&bytes));
        }
    }
}

#[test]
fn no_parts_sum_like_no_bytes() {
    let none: [&[u8]; 0] = [];
    assert_eq!(checksum64_parts(&none), checksum64(&[]));
    let blocks = [[7u8; 4096], [9u8; 4096]];
    assert_eq!(checksum64_parts(&blocks), checksum64(&blocks.concat()));
}
