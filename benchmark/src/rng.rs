//! The benchmark's own random numbers.
//!
//! Inputs must depend on `--seed` and on nothing else, so the generator is
//! written out here instead of borrowed from `shims/rand`: a later change to
//! the shim must not be able to change the load.

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (corpus text, file sizes, each query set, arrival times).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut state = seed ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bc2f);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut state);
        }
        Rng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        // Multiply-shift: bias is below 2^-32 for every n used here.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Standard normal (Box–Muller; one value per call keeps the stream
    /// position independent of caller history).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential with mean 1.
    pub fn exponential(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^s`
/// in constant time (Vose's alias method).
#[derive(Debug, Clone)]
pub struct Zipf {
    accept: Vec<f64>,
    alias: Vec<u32>,
}

impl Zipf {
    /// # Panics
    ///
    /// Panics when `n` is zero or does not fit `u32`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0 && u32::try_from(n).is_ok(), "zipf support must be 1..=u32::MAX");
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut accept = vec![1.0; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
            small.pop();
            accept[s_i] = scaled[s_i];
            alias[s_i] = l_i as u32;
            scaled[l_i] -= 1.0 - scaled[s_i];
            if scaled[l_i] < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        Zipf { accept, alias }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let column = rng.below(self.accept.len());
        if rng.unit() < self.accept[column] {
            column
        } else {
            self.alias[column] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_stream_repeat_and_others_differ() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let zipf = Zipf::new(1000, 1.0);
        let counts = |seed| {
            let mut rng = Rng::new(seed, 0);
            let mut counts = vec![0u32; 1000];
            for _ in 0..200_000 {
                counts[zipf.sample(&mut rng)] += 1;
            }
            counts
        };
        let first = counts(42);
        assert_eq!(first, counts(42), "same seed must give the same draws");
        assert_ne!(first, counts(43));
        // H(1000) = 7.485: rank 1 carries 13.4 %, rank 10 a tenth of that.
        let share = |rank: usize| f64::from(first[rank - 1]) / 200_000.0;
        assert!((share(1) - 0.1336).abs() < 0.005, "rank 1 share {}", share(1));
        assert!((share(10) - 0.01336).abs() < 0.002, "rank 10 share {}", share(10));
        assert!(first.iter().all(|&c| c > 0), "every rank is reachable");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1, 1);
        for n in [1usize, 2, 3, 1000] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
        assert_eq!(rng.between(5, 5), 5);
    }
}
