//! Seeded input generation: every byte the daemon receives is derived
//! from the workload seed through these generators.

use bas_hash::{mix64, SplitMix64};

/// A stream-specific generator: `(seed, stream)` pairs never share a
/// sequence, so adding a stream does not shift the others.
pub fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(mix64(seed ^ mix64(stream.wrapping_add(0x5EED))))
}

/// Uniform `f64` in `[0, 1)`.
pub fn unit(r: &mut SplitMix64) -> f64 {
    (r.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform integer in `[0, n)`.
pub fn below(r: &mut SplitMix64, n: u64) -> u64 {
    ((r.next_u64() as u128 * n as u128) >> 64) as u64
}

/// Zipf(`s`) ranks over `[1, n]` by rejection-inversion (Hörmann &
/// Derflinger), O(1) per draw, plus a fixed scramble of ranks onto the
/// universe so that hot items are spread over the hash space.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
    scramble: u64,
}

impl Zipf {
    /// A sampler over a universe of `n` items with exponent `s > 0`,
    /// `s ≠ 1`.
    pub fn new(n: u64, s: f64, scramble_seed: u64) -> Self {
        assert!(n >= 2 && s > 0.0 && (s - 1.0).abs() > 1e-9);
        let mut z = Self {
            n,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            threshold: 0.0,
            scramble: mix64(scramble_seed) | 1,
        };
        z.h_x1 = z.h(1.5) - 1.0;
        z.h_n = z.h(n as f64 + 0.5);
        z.threshold = 2.0 - z.h_inv(z.h(2.5) - 2f64.powf(-s));
        z
    }

    /// `H(x) = ∫ t^-s dt`, the integral the inversion runs on.
    fn h(&self, x: f64) -> f64 {
        ((1.0 - self.s) * x.ln()).exp_m1() / (1.0 - self.s)
    }

    fn h_inv(&self, x: f64) -> f64 {
        (((1.0 - self.s) * x).ln_1p() / (1.0 - self.s)).exp()
    }

    /// A rank in `[1, n]`; rank 1 is the most frequent.
    pub fn rank(&self, r: &mut SplitMix64) -> u64 {
        loop {
            let u = self.h_n + unit(r) * (self.h_x1 - self.h_n);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.threshold || u >= self.h(k + 0.5) - (-self.s * k.ln()).exp() {
                return k as u64;
            }
        }
    }

    /// The universe item holding `rank`: a bijection of `[0, n)` when
    /// `n` is a power of two (odd multiplier mod `n`), else a modular
    /// spread.
    pub fn item_of_rank(&self, rank: u64) -> u64 {
        (rank - 1).wrapping_mul(self.scramble) % self.n
    }

    /// One Zipf-distributed universe item.
    pub fn item(&self, r: &mut SplitMix64) -> u64 {
        self.item_of_rank(self.rank(r))
    }
}

/// One frame of `len` updates with Zipf items and integer deltas in
/// `[1, max_delta]`: integer deltas keep every counter sum exact, so
/// the reference gate compares answers bit for bit.
pub fn frame(zipf: &Zipf, r: &mut SplitMix64, len: usize, max_delta: u64) -> Vec<(u64, f64)> {
    (0..len)
        .map(|_| (zipf.item(r), (1 + below(r, max_delta)) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        let z = Zipf::new(1 << 16, 1.1, 7);
        let a = frame(&z, &mut rng(42, 1), 1000, 3);
        let b = frame(&z, &mut rng(42, 1), 1000, 3);
        let c = frame(&z, &mut rng(43, 1), 1000, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|&(i, d)| i < 1 << 16 && (1.0..=3.0).contains(&d)));
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(1 << 20, 1.1, 1);
        let mut r = rng(1, 2);
        let draws = 100_000;
        let ones = (0..draws).filter(|_| z.rank(&mut r) == 1).count();
        // P(rank 1) = 1 / H(n, 1.1) ≈ 0.10 for n = 2^20.
        let share = ones as f64 / draws as f64;
        assert!((0.07..0.13).contains(&share), "rank-1 share {share}");
    }
}
