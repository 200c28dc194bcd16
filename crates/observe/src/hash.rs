//! FNV-1a 64, the one copy of it in the workspace.
//!
//! Stable across platforms, runs and shard counts, so every figure
//! derived from it is deterministic: head-based sampling in the
//! [`bus`](crate::bus), the trader's shard routing, the store's WAL
//! frame checksums and OO7 checksums, and the population checksums.
//! Start from [`FNV_OFFSET_BASIS`] and fold bytes in with [`fnv1a`];
//! folding `a` then `b` equals folding `a ++ b`.

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64-bit hash.
#[inline]
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_folds_by_concatenation() {
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        let folded = fnv1a(fnv1a(FNV_OFFSET_BASIS, b"foo"), b"bar");
        assert_eq!(folded, fnv1a(FNV_OFFSET_BASIS, b"foobar"));
    }
}
