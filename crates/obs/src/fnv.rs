//! 64-bit FNV-1a, the workspace's one stable hash: plan-cache
//! fingerprints, trace ids, transport payload checksums and record
//! digests all fold their bytes through [`Fnv1a`], so the same bytes give
//! the same value on every platform and every run.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a hasher over byte slices.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a whole 64-bit word as one FNV-1a step (one xor, one
    /// multiply), where [`Fnv1a::write_u64`] takes eight.
    pub fn fold_word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_is_byte_wise_fnv1a() {
        // The published FNV-1a 64 vectors; every fingerprint, digest and
        // golden in the workspace rests on these staying put.
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        h.write_u64(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), hash(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn fold_word_is_one_step_per_word() {
        // By hand: (basis ^ 1) · prime, then (· ^ 0x0807…01) · prime and
        // (· ^ 0x0a09) · prime, all mod 2^64.
        let mut h = Fnv1a::new();
        h.fold_word(1);
        assert_eq!(h.finish(), 0xaf63_bc4c_8601_b62c);
        let mut h = Fnv1a::new();
        h.fold_word(0x0807_0605_0403_0201);
        h.fold_word(0x0a09);
        assert_eq!(h.finish(), 0xf719_13fd_280a_2cdf);
    }
}
