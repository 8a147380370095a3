//! The harness's arithmetic: percentiles, per-window medians, quartiles
//! over repeated runs, and the FNV-1a hash that fingerprints a request
//! stream. Pure functions, unit-tested below.

/// The `q`-quantile of an ascending-sorted slice (nearest-rank, the rule
/// `cnp_load` reports with). `None` when the slice is empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a set of floats (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile by the "exclusive" method — the values
/// Python's `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance rule for this benchmark is stated in. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        // Position k*(n+1)/4, 1-based, linearly interpolated and clamped
        // to the data range.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Latency samples (nanoseconds) of one measured run, bucketed into equal time windows
/// so a tail metric can be reported as the median of per-window
/// percentiles: one host stall lands in one window and cannot move the
/// median of five.
#[derive(Debug, Clone)]
pub struct Windows {
    window_ns: u64,
    buckets: Vec<Vec<u64>>,
}

impl Windows {
    /// `count` windows covering `total_ns` of measured time.
    pub fn new(total_ns: u64, count: usize) -> Windows {
        let count = count.max(1);
        Windows {
            window_ns: (total_ns / count as u64).max(1),
            buckets: vec![Vec::new(); count],
        }
    }

    /// Records a latency for an operation that *started* `at_ns` after
    /// the measured period began. Starts past the end land in the last
    /// window (the loop condition is checked before each send, so at most
    /// one request per connection does).
    pub fn record(&mut self, at_ns: u64, latency_ns: u64) {
        let i = ((at_ns / self.window_ns) as usize).min(self.buckets.len() - 1);
        self.buckets[i].push(latency_ns);
    }

    /// Total samples recorded.
    pub fn samples(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Median over non-empty windows of the per-window `q`-quantile.
    pub fn window_median(&self, q: f64) -> Option<f64> {
        let per_window: Vec<f64> = self
            .buckets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| {
                let mut s = b.clone();
                s.sort_unstable();
                percentile(&s, q).unwrap_or(0) as f64
            })
            .collect();
        median(&per_window)
    }

    /// The `q`-quantile over every sample of the run, windows ignored —
    /// for rare-event tails (p999) where a single window holds too few.
    pub fn overall(&self, q: f64) -> Option<u64> {
        let mut all: Vec<u64> = self.buckets.iter().flatten().copied().collect();
        all.sort_unstable();
        percentile(&all, q)
    }

    /// Share of samples strictly above `threshold_ns`.
    pub fn share_over(&self, threshold_ns: u64) -> f64 {
        let n = self.samples();
        if n == 0 {
            return 0.0;
        }
        let over = self
            .buckets
            .iter()
            .flatten()
            .filter(|&&v| v > threshold_ns)
            .count();
        over as f64 / n as f64
    }
}

/// FNV-1a, 64-bit, streaming: the fingerprint of a workload's request
/// bytes, so two result files can prove they were fed the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 0.999), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let mut w = Windows::new(5_000, 5);
        for window in 0..5u64 {
            for i in 0..100u64 {
                // Window 2 is a host stall: every sample 100× slower.
                let v = if window == 2 { 1000 + i } else { 10 + i % 10 };
                w.record(window * 1_000 + i, v);
            }
        }
        assert_eq!(w.samples(), 500);
        assert_eq!(w.window_median(0.99), Some(19.0));
        // The overall p99 is owned by the stall instead.
        assert!(w.overall(0.99).unwrap() >= 1000);
        assert!((w.share_over(999) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn late_starts_land_in_the_last_window() {
        let mut w = Windows::new(1_000, 2);
        w.record(10_000, 5);
        w.record(0, 1);
        w.record(600, 9);
        assert_eq!(w.samples(), 3);
        assert_eq!(w.overall(1.0), Some(9));
        assert_eq!(w.window_median(0.5), Some(3.0)); // windows: [1], [5, 9] → p50 1 and 5
    }

    #[test]
    fn fnv_is_the_reference_function() {
        let mut h = Fnv::default();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv::default();
        split.update(b"foo");
        split.update(b"bar");
        let mut whole = Fnv::default();
        whole.update(b"foobar");
        assert_eq!(split.finish(), whole.finish());
    }
}
