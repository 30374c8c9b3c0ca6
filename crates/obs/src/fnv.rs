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
