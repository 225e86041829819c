//! Order statistics shared by every workload.
//!
//! Percentiles use the nearest-rank rule: the `p` percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p·n)`, so exactly
//! `n − ceil(p·n)` samples lie beyond it.

/// Tail percentiles a timing may report, lowest first.
pub const TAIL_LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples (at least 1).
fn rank(n: usize, p: f64) -> usize {
    // the epsilon keeps 0.99 × 1000 from rounding up to rank 991
    ((p * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// How many of `n` samples lie beyond the `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the lowest has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The nearest-rank `p` percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (mean of the two middle samples for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency sample summarised the way every workload reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The 99th percentile (meaningful only when `supported >= 0.99`).
    pub p99: f64,
    /// Highest percentile the sample supports under [`tail_percentile`].
    pub supported: Option<f64>,
    /// Value at `supported`.
    pub tail: f64,
    /// Mean.
    pub mean: f64,
}

impl Latency {
    /// Summarises `values` (any order); all zeros when empty.
    pub fn of(values: &[f64]) -> Latency {
        if values.is_empty() {
            return Latency { count: 0, p50: 0.0, p99: 0.0, supported: None, tail: 0.0, mean: 0.0 };
        }
        let s = sorted(values);
        let supported = tail_percentile(s.len());
        Latency {
            count: s.len(),
            p50: percentile(&s, 0.5),
            p99: percentile(&s, 0.99),
            supported,
            tail: supported.map_or(f64::NAN, |p| percentile(&s, p)),
            mean: mean(&s),
        }
    }

    /// One human-readable line: median, p99, the highest supported
    /// percentile, and the sample count.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.supported {
            Some(p) => format!("p{} {:.1}{unit}", p * 100.0, self.tail),
            None => "no tail percentile (<10 beyond p90)".into(),
        };
        format!(
            "p50 {:.1}{unit}  p99 {:.1}{unit}  highest supported {tail}  mean {:.1}{unit}  n={}",
            self.p50, self.p99, self.mean, self.count
        )
    }
}

/// Samples each window of [`windowed`] needs: twice what a p99 with
/// [`MIN_BEYOND`] samples beyond it needs, so that each window's p99 is
/// itself a steady estimate.
pub const WINDOW_MIN: usize = 2000;

/// Most windows [`windowed`] splits a run into.
pub const MAX_WINDOWS: usize = 8;

/// The run's p50 and p99 as medians over consecutive windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median of the windows' p50s.
    pub p50: f64,
    /// Median of the windows' p99s.
    pub p99: f64,
    /// Windows used.
    pub windows: usize,
    /// Samples in all windows.
    pub count: usize,
}

/// Splits `values` (in the order they were measured) into up to
/// [`MAX_WINDOWS`] consecutive windows of at least [`WINDOW_MIN`]
/// samples, and reports the median over windows of each window's p50
/// and p99: a burst that spoils one window moves the run's figure far
/// less than it moves a single whole-run percentile. `None` when the run
/// has fewer than [`WINDOW_MIN`] samples.
pub fn windowed(values: &[f64]) -> Option<Windowed> {
    let k = (values.len() / WINDOW_MIN).min(MAX_WINDOWS);
    if k == 0 {
        return None;
    }
    let size = values.len() / k;
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for w in values.chunks(size).take(k) {
        let s = sorted(w);
        p50s.push(percentile(&s, 0.5));
        p99s.push(percentile(&s, 0.99));
    }
    Some(Windowed { p50: median(&p50s), p99: median(&p99s), windows: k, count: size * k })
}

/// Completion rates over the same windows as [`windowed`]: `done_s`
/// holds each request's completion time (s since the loop started, in
/// order) and `amount` what it carried. Returns the medians over windows
/// of requests/s and amount/s.
pub fn windowed_rates(done_s: &[f64], amount: &[f64]) -> Option<(f64, f64)> {
    let k = (done_s.len() / WINDOW_MIN).min(MAX_WINDOWS);
    if k == 0 || amount.len() != done_s.len() {
        return None;
    }
    let size = done_s.len() / k;
    let (mut jobs, mut amt) = (Vec::new(), Vec::new());
    let mut start = 0.0;
    for w in 0..k {
        let range = w * size..(w + 1) * size;
        let end = done_s[range.end - 1];
        let secs = (end - start).max(f64::MIN_POSITIVE);
        jobs.push(size as f64 / secs);
        amt.push(amount[range].iter().sum::<f64>() / secs);
        start = end;
    }
    Some((median(&jobs), median(&amt)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(999), Some(0.90), "p99 of 999 has only 9 beyond");
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(9999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(1000, 0.999), 1);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let l = Latency::of(&v);
        assert_eq!(l.supported, Some(0.99));
        assert_eq!((l.count, l.p50, l.p99, l.tail), (1000, 500.0, 990.0, 990.0));
        assert_eq!(Latency::of(&v[..999]).supported, Some(0.90));
    }

    #[test]
    fn windows_hold_enough_samples_for_a_p99() {
        assert!(beyond(WINDOW_MIN, 0.99) >= MIN_BEYOND);
        assert_eq!(windowed(&vec![1.0; WINDOW_MIN - 1]), None);
        let w = windowed(&vec![1.0; 2 * WINDOW_MIN + 500]).unwrap();
        assert_eq!((w.windows, w.count), (2, 2 * WINDOW_MIN + 500));
        assert_eq!(windowed(&vec![1.0; 100 * WINDOW_MIN]).unwrap().windows, MAX_WINDOWS);
        // one window spoiled by a burst (2% of the run): the whole-run p99
        // jumps, the median over windows does not
        let mut v: Vec<f64> = (0..5 * WINDOW_MIN).map(|i| (i % 100) as f64).collect();
        for x in &mut v[..WINDOW_MIN / 10] {
            *x = 1e6;
        }
        assert_eq!(Latency::of(&v).p99, 1e6);
        let w = windowed(&v).unwrap();
        assert_eq!((w.windows, w.p99, w.p50), (5, 98.0, 49.0));
    }

    #[test]
    fn window_rates_shrug_off_one_slow_window() {
        // three windows of requests 1 ms apart, but the middle one crawls
        let w = WINDOW_MIN;
        let mut t = 0.0;
        let done: Vec<f64> = (0..3 * w)
            .map(|i| {
                t += if (w..2 * w).contains(&i) { 0.01 } else { 0.001 };
                t
            })
            .collect();
        let (jobs, amount) = windowed_rates(&done, &vec![2.0; 3 * w]).unwrap();
        assert!((jobs - 1000.0).abs() < 1e-6, "{jobs}");
        assert!((amount - 2000.0).abs() < 1e-6);
        assert_eq!(windowed_rates(&done[..w - 1], &vec![1.0; w - 1]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
