//! Canonical content hashing for cache keys.
//!
//! A cache key must be a pure function of *what the call means*, never of
//! how it happened to be issued: two requests with the same target object,
//! method selector and marshalled arguments must collide, while requests
//! differing in any of those must not. The hasher therefore consumes
//! canonical byte encodings (the caller is responsible for normalising
//! volatile fields such as call ids to a fixed value first) and
//! length-prefixes every variable-length field so that adjacent fields
//! can never alias (`"ab" + "c"` ≠ `"a" + "bc"`).
//!
//! The digest is 128-bit FNV-1a. FNV is not cryptographic — an IP user
//! caching its own outbound calls needs collision *resistance against
//! accident*, not against an adversary who already controls both the keys
//! and the values — and at 128 bits accidental collisions are out of
//! reach for any realistic working set.

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// An incremental canonical hasher producing a 128-bit digest.
///
/// # Examples
///
/// ```
/// use vcad_rmi::hash::CanonicalHasher;
///
/// let mut a = CanonicalHasher::new();
/// a.write_str("power_toggle");
/// a.write_bytes(&[1, 2, 3]);
/// let mut b = CanonicalHasher::new();
/// b.write_str("power_toggle");
/// b.write_bytes(&[1, 2, 3]);
/// assert_eq!(a.finish(), b.finish());
///
/// let mut c = CanonicalHasher::new();
/// c.write_str("power_peak");
/// c.write_bytes(&[1, 2, 3]);
/// assert_ne!(a.finish(), c.finish());
/// ```
#[derive(Clone, Debug)]
pub struct CanonicalHasher {
    state: u128,
}

impl CanonicalHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> CanonicalHasher {
        CanonicalHasher { state: FNV_OFFSET }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= u128::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs raw bytes *without* a length prefix.
    ///
    /// Only use this for a single trailing field, or for fixed-width
    /// data; variable-length fields in the middle of a key must go
    /// through [`CanonicalHasher::write_bytes`] to stay unambiguous.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Absorbs a variable-length byte field, length-prefixed.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.write_raw(bytes);
    }

    /// Absorbs a string field, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs a `u64` in little-endian order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_raw(&v.to_le_bytes());
    }

    /// The 128-bit digest of everything absorbed so far.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for CanonicalHasher {
    fn default() -> CanonicalHasher {
        CanonicalHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest of a single byte string.
    fn digest(bytes: &[u8]) -> u128 {
        let mut h = CanonicalHasher::new();
        h.write_raw(bytes);
        h.finish()
    }

    #[test]
    fn digest_is_stable_across_calls() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b""), digest(b"\0"));
    }

    #[test]
    fn known_fnv1a_vectors() {
        // The canonical FNV-1a 128 test vectors (empty and "a").
        assert_eq!(digest(b""), FNV_OFFSET);
        let mut h = CanonicalHasher::new();
        h.write_raw(b"a");
        assert_eq!(
            h.finish(),
            (FNV_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV_PRIME)
        );
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let mut a = CanonicalHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = CanonicalHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn field_order_matters() {
        let mut a = CanonicalHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = CanonicalHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
