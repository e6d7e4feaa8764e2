//! The workspace's one content hash: 64-bit FNV-1a.
//!
//! Snapshot checksums and machine-config hashes, the Pre-parser's
//! unit-set generation stamp, fleet scenario fingerprints, and the
//! synthetic workloads' per-name jitter all hash with [`fnv1a`], so
//! their values are pinned by the golden artifacts that carry them.

/// The FNV-1a 64-bit offset basis: the seed of a fresh hash.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The standard 64-bit FNV prime (fleet fingerprints, workload jitter).
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The multiplier the checksummed boot artifacts (snapshot format v2,
/// pre-parse blob v3) were first written with. It is not the standard
/// FNV prime, but every golden snapshot and blob pins hashes made with
/// it, so it is part of those formats.
pub const ARTIFACT_FNV1A_PRIME: u64 = 0x0000_1000_0000_01b3;

/// Folds `bytes` into the FNV-1a state `seed` with multiplier `prime`
/// and returns the new state. Seed with [`FNV1A_OFFSET`] for a fresh
/// hash, or with an earlier result to extend it:
/// `fnv1a(fnv1a(FNV1A_OFFSET, p, a), p, b)` is the hash of `a` followed
/// by `b`.
pub fn fnv1a(seed: u64, prime: u64, bytes: &[u8]) -> u64 {
    let mut hash = seed;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(prime);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        let h = |bytes| fnv1a(FNV1A_OFFSET, FNV1A_PRIME, bytes);
        assert_eq!(h(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(h(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn seeding_with_a_prefix_hash_extends_it() {
        for prime in [FNV1A_PRIME, ARTIFACT_FNV1A_PRIME] {
            let whole = fnv1a(FNV1A_OFFSET, prime, b"foobar");
            let prefix = fnv1a(FNV1A_OFFSET, prime, b"foo");
            assert_eq!(fnv1a(prefix, prime, b"bar"), whole);
        }
    }
}
