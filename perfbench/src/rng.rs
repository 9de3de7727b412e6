//! Seeded input generation. The benchmark keeps its own generator so the
//! inputs depend only on `--seed`, never on the library's shims.

/// SplitMix64: small, fast, and good enough to draw graph shapes and op
/// mixes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for `tag` (one per thread, round, or purpose),
    /// so adding a stream never shifts the draws of another.
    pub fn fork(seed: u64, tag: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ tag);
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next() >> 32) * n as u64) >> 32) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u32) -> bool {
        self.below(100) < percent as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// Two distinct values of `0..n` (`n >= 2`).
    pub fn pair(&mut self, n: usize) -> (usize, usize) {
        let a = self.below(n);
        let mut b = self.below(n - 1);
        if b >= a {
            b += 1;
        }
        (a, b)
    }
}
