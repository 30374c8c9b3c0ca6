//! SplitMix64: the harness's only source of randomness, so a script is
//! a pure function of `--seed`.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for one purpose: `tag` separates the streams drawn from
    /// one `--seed` (per workload, per use) so they never overlap.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut s = SplitMix(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
