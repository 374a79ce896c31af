//! The benchmark's own latency histogram and repetition statistics.
//!
//! [`Hist`] is a fixed-size log-linear histogram over nanosecond samples:
//! values below 128 ns get one bucket each, and every octave above that is
//! cut into 128 equal sub-buckets, so a bucket is never wider than 1/128
//! (0.78 %) of its lower bound. It holds no per-sample storage, and two
//! histograms (one per client thread) merge by adding counters.

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves 7..=63 each take `SUB` buckets after the `SUB` exact ones.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Below this many samples a p99 would rest on fewer than ten values, so
/// [`Hist::tail`] falls back to the highest percentile that keeps ten
/// samples beyond it.
pub const TAIL_FULL_SAMPLES: u64 = 1_000;
const TAIL_BEYOND: u64 = 10;

/// Log-linear latency histogram (nanoseconds).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], total: 0 }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((ns >> shift) - SUB)) as usize
}

/// Lower bound and width of a bucket.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let shift = idx / SUB - 1;
    ((idx % SUB + SUB) << shift, 1 << shift)
}

impl Hist {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    /// Add every sample of `other` (the other client's histogram).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds: the sample of rank
    /// `ceil(q·n)`, placed inside its bucket by its rank among the
    /// bucket's samples. 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if before + count >= rank {
                let (lo, width) = bucket_range(idx);
                let within = ((rank - before) as f64 - 0.5) / count as f64;
                return lo as f64 + width as f64 * within;
            }
            before += count;
        }
        unreachable!("rank {rank} within total {}", self.total)
    }

    /// The tail latency and the percentile it was read at: p99 with at
    /// least [`TAIL_FULL_SAMPLES`] samples, otherwise the highest
    /// percentile that still has ten samples beyond it, and never below
    /// the median (which is all fewer than twenty samples support).
    pub fn tail(&self) -> (f64, f64) {
        let pct = if self.total >= TAIL_FULL_SAMPLES {
            99.0
        } else {
            let beyond = self.total.saturating_sub(TAIL_BEYOND) as f64;
            (100.0 * beyond / self.total.max(1) as f64).max(50.0)
        };
        (pct, self.quantile(pct / 100.0))
    }
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median` of `values`: how far the repetitions of one run
/// disagree. 0 when the median is 0.
pub fn rep_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// `(Q3 − Q1) / median` of `values`, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method): the spread
/// the regression gate compares against a bound. Unlike [`rep_spread`] it
/// does not move when a single repetition was descheduled. 0 for fewer
/// than two values or a zero median.
pub fn rep_iqr(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        // Rank k·(n+1)/4, 1-based, clamped into the sample and interpolated.
        let rank = (k * (n + 1)) as f64 / 4.0;
        let below = (rank.floor() as usize).clamp(1, n - 1);
        let weight = (rank - below as f64).clamp(0.0, 1.0);
        v[below - 1] + (v[below] - v[below - 1]) * weight
    };
    (quartile(3) - quartile(1)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_error_is_below_one_percent_over_the_whole_range() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3, v + v / 2, 2 * v - 1] {
                let (lo, width) = bucket_range(bucket_of(probe));
                assert!(lo <= probe && probe < lo + width, "{probe} outside [{lo}, +{width})");
                assert!(
                    width == 1 || (width as f64) / (lo as f64) <= 0.01,
                    "bucket of {probe} is {width} wide at {lo}"
                );
            }
            v *= 2;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::default();
        for ns in 1..=10_000u64 {
            h.record(ns * 100);
        }
        for (q, want) in [(0.5, 500_000.0), (0.9, 900_000.0), (0.99, 990_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.tail().0, 99.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut both) = (Hist::default(), Hist::default(), Hist::default());
        for i in 0..5_000u64 {
            let ns = (i * 7919) % 100_003 + 50;
            if i % 2 == 0 { &mut a } else { &mut b }.record(ns);
            both.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.total, both.total);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn small_samples_use_the_ten_beyond_rule() {
        let mut h = Hist::default();
        for ns in 1..=150u64 {
            h.record(ns * 1_000);
        }
        let (pct, value) = h.tail();
        // 150 samples: the 140th has exactly ten beyond it.
        assert!((pct - 100.0 * 140.0 / 150.0).abs() < 1e-9);
        assert!((value - 140_000.0).abs() / 140_000.0 < 0.01, "{value}");

        let mut tiny = Hist::default();
        for ns in [5u64, 6, 7] {
            tiny.record(ns);
        }
        assert_eq!(tiny.tail().0, 50.0);
        let mut sixteen = Hist::default();
        for ns in 1..=16u64 {
            sixteen.record(ns);
        }
        assert_eq!(sixteen.tail().0, 50.0, "six of sixteen would sit below the median");
        assert_eq!(Hist::default().quantile(0.5), 0.0);
        assert_eq!(Hist::default().tail(), (50.0, 0.0));
    }

    #[test]
    fn median_and_spread_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((rep_spread(&[90.0, 100.0, 110.0, 100.0, 95.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rep_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
        assert!((rep_iqr(&[22.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0]) - 14.0 / 7.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert!((rep_iqr(&[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert!((rep_iqr(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
        // One outlier of eight moves max − min, not the quartiles.
        let reps = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 160.0];
        assert!(rep_spread(&reps) > 0.6 && rep_iqr(&reps) < 0.03);
        assert_eq!(rep_iqr(&[5.0]), 0.0);
    }
}
