//! The benchmark's seeded generator: SplitMix64, so every input a workload
//! draws is a pure function of `--seed`.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`; `salt` separates independent streams
    /// drawn from one seed (schedule, probes, validation sample).
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct elements of `items`, in the slice's order.
    pub fn subset<T: Copy>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut chosen = vec![false; items.len()];
        let mut left = k.min(items.len());
        while left > 0 {
            let i = self.below(items.len());
            if !chosen[i] {
                chosen[i] = true;
                left -= 1;
            }
        }
        items
            .iter()
            .zip(chosen)
            .filter_map(|(&item, keep)| keep.then_some(item))
            .collect()
    }
}
