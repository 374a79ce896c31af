//! FNV-1a 64-bit: the workspace's one byte hash (the repo avoids external
//! hash crates). It checksums WAL frames, digests policies and synthesis
//! footprints, and picks lock shards and store stripes.

/// The FNV-1a offset basis: the state [`fnv1a_step`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running hash `h` (start from [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a_step(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of a whole byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_step(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors_and_composes() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_step(fnv1a_step(FNV_OFFSET, b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
