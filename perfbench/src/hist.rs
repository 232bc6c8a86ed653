//! A log-bucketed latency histogram.
//!
//! Values are non-negative integers (nanoseconds throughout the
//! benchmark). Each power-of-two octave is split into [`SUB`] linear
//! sub-buckets, so a bucket is at most `1/SUB` of its value wide. A
//! percentile is located by rank and then interpolated linearly inside
//! its bucket, which keeps reported figures continuous rather than
//! snapping to bucket edges.

/// Sub-buckets per octave (a power of two).
const SUB: u64 = 128;
const SUB_BITS: u32 = SUB.trailing_zeros();

/// Log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> octave) - SUB;
    ((octave as u64 + 1) * SUB + sub) as usize
}

/// Inclusive lower and exclusive upper value of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, b + 1);
    }
    let octave = b / SUB - 1;
    let sub = b % SUB + SUB;
    (sub << octave, (sub + 1) << octave)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by the nearest-rank rule,
    /// interpolated inside its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_range(b);
                let hi = hi.min(self.max + 1);
                let within = (rank - seen) as f64 - 0.5;
                return lo as f64 + (hi - lo) as f64 * within / c as f64;
            }
            seen += c;
        }
        self.max as f64
    }

    /// Number of samples strictly above `v`'s bucket — the samples a
    /// percentile at `v` has beyond it.
    pub fn count_above(&self, v: f64) -> u64 {
        let b = bucket_of(v.max(0.0) as u64);
        self.counts.iter().skip(b + 1).sum()
    }
}

/// Timestamped samples `(at, value)`, `at` in ns on the phase's clock,
/// so a run can be cut into equal time windows and each window's
/// figure taken on its own.
#[derive(Debug, Clone, Default)]
pub struct Series(Vec<(u64, u64)>);

impl Series {
    /// Records `value` at time `at`.
    pub fn push(&mut self, at: u64, value: u64) {
        self.0.push((at, value));
    }

    /// Appends every sample of `other`.
    pub fn append(&mut self, other: &Series) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the values.
    pub fn sum(&self) -> u64 {
        self.0.iter().map(|s| s.1).sum()
    }

    /// All values in one histogram.
    pub fn hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for &(_, v) in &self.0 {
            h.record(v);
        }
        h
    }

    /// The samples of `n` equal windows of `[start, start + span)`;
    /// samples outside fall into the nearest window.
    pub fn windows(&self, start: u64, span: u64, n: usize) -> Vec<Series> {
        let mut out = vec![Series::default(); n];
        let width = (span / n as u64).max(1);
        for &(at, v) in &self.0 {
            let w = (at.saturating_sub(start) / width).min(n as u64 - 1) as usize;
            out[w].push(at, v);
        }
        out
    }
}

/// The best value of `f` over the non-empty windows (0 when all are
/// empty), where `higher_is_better` says which end is best. Host CPU
/// steal on a small shared VM arrives in episodes that inflate many
/// windows of a run, sometimes most of them; the best window still
/// moves when the code itself gets slower, because then every window
/// does.
pub fn best_over(windows: &[Series], higher_is_better: bool, f: impl Fn(&Series) -> f64) -> f64 {
    let values = windows.iter().filter(|w| w.len() > 0).map(f);
    let best = if higher_is_better {
        values.fold(f64::NEG_INFINITY, f64::max)
    } else {
        values.fold(f64::INFINITY, f64::min)
    };
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_split_by_time_and_the_best_window_ignores_a_burst() {
        let mut s = Series::default();
        for i in 0..100u64 {
            // One slow burst in the third window.
            let v = if (40..60).contains(&i) { 1_000 } else { 10 };
            s.push(i * 10, v);
        }
        let w = s.windows(0, 1_000, 5);
        assert!(w.iter().all(|w| w.len() == 20));
        assert_eq!(best_over(&w, false, |w| w.hist().quantile(0.5)), 10.475);
        assert_eq!(best_over(&w, true, |w| w.sum() as f64), 20_000.0);
        assert_eq!(s.sum(), 80 * 10 + 20 * 1_000);
        assert_eq!(best_over(&[], false, |w| w.len() as f64), 0.0);
    }

    fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_value_line() {
        let mut prev_hi = 0;
        for b in 0..(SUB as usize * 40) {
            let (lo, hi) = bucket_range(b);
            assert_eq!(lo, prev_hi, "bucket {b} must start where {} ended", b - 1);
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi - 1), b);
            prev_hi = hi;
        }
    }

    #[test]
    fn percentiles_match_a_sorted_vector_within_one_bucket() {
        // A skewed, heavy-tailed sample: most values near 40 µs, a
        // tail out to tens of milliseconds.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut values = Vec::new();
        let mut h = Histogram::new();
        for _ in 0..50_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let v = (40_000.0 / (1.0 - u).powf(0.7)) as u64;
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = sorted_quantile(&values, q) as f64;
            let got = h.quantile(q);
            let tol = want / SUB as f64 + 1.0;
            assert!(
                (got - want).abs() <= tol,
                "q={q}: histogram {got} vs sorted {want} (tol {tol})"
            );
        }
        assert_eq!(h.count(), 50_000);
        assert_eq!(h.max(), *values.last().unwrap());
    }

    #[test]
    fn small_values_are_exact_and_merge_adds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v + 100);
        }
        assert_eq!(a.quantile(0.5), 49.5);
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let p50 = a.quantile(0.5);
        assert!((99.0..=100.0).contains(&p50), "{p50}");
        assert_eq!(a.max(), 199);
        assert_eq!(a.count_above(149.0), 50);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }
}
