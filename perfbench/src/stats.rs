//! Latency samples, the percentile selection rule and failure accounting.
//!
//! Percentiles are taken from the exact raw samples (nearest rank), never
//! from the registry's log₂ histograms, whose buckets can overstate a
//! value by up to 2×. A percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it. A failed request stays in the
//! sample set as an infinite latency: it misses every latency limit, so a
//! percentile that lands on a failure reads as "above any limit".

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Reported in place of a percentile that lands on a failed request.
pub const FAILED_LATENCY: f64 = f64::MAX;

/// Latencies of one operation type, failures included.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Latency of every completed request, in seconds.
    ok: Vec<f64>,
    /// Requests that failed (ERR, BUSY or transport).
    failed: u64,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Records a completed request.
    pub fn ok(&mut self, secs: f64) {
        self.ok.push(secs);
    }

    /// Records a failed request.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Folds another thread's samples into this set.
    pub fn merge(&mut self, other: Samples) {
        self.ok.extend(other.ok);
        self.failed += other.failed;
    }

    /// Requests attempted: completed plus failed.
    pub fn attempted(&self) -> u64 {
        self.ok.len() as u64 + self.failed
    }

    /// Requests that completed.
    pub fn completed(&self) -> u64 {
        self.ok.len() as u64
    }

    /// Requests that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Mean latency of the completed requests, in seconds.
    pub fn mean_ok(&self) -> f64 {
        if self.ok.is_empty() {
            return 0.0;
        }
        self.ok.iter().sum::<f64>() / self.ok.len() as f64
    }

    /// The `q` quantile over every attempted request (failures rank
    /// last), or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
    /// it. A quantile that lands on a failure is [`FAILED_LATENCY`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.attempted() as usize;
        let rank = nearest_rank(n, q)?;
        if rank > self.ok.len() {
            return Some(FAILED_LATENCY);
        }
        let mut sorted = self.ok.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }
}

/// The 1-based nearest rank of quantile `q` among `n` samples, when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    if n == 0 {
        return None;
    }
    // Round before the ceiling so 0.99 × 1000 is rank 990, not 991.
    let rank = ((q * n as f64 * 1e9).round() / 1e9).ceil().max(1.0) as usize;
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// CPU time (user + system, every thread) this process has used, in
/// seconds. Unlike wall time it leaves out time the host takes the CPU
/// away (steal) and time threads wait to be woken.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields, in USER_HZ (100 per second) ticks.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: Vec<f64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    ticks.iter().sum::<f64>() / 100.0
}

/// Median of plain values (setup repetitions), `None` when empty.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        // Pushed in reverse so the quantile must sort.
        for i in (1..=n).rev() {
            s.ok(i as f64);
        }
        s
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(nearest_rank(1000, 0.99), Some(990));
        assert_eq!(nearest_rank(999, 0.99), None);
        assert_eq!(samples(1000).quantile(0.99), Some(990.0));
        assert_eq!(samples(999).quantile(0.99), None);
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(nearest_rank(20, 0.5), Some(10));
        assert_eq!(nearest_rank(19, 0.5), None);
        assert_eq!(samples(20).quantile(0.5), Some(10.0));
        assert_eq!(samples(0).quantile(0.5), None);
    }

    #[test]
    fn failures_count_as_attempted_and_rank_last() {
        let mut s = samples(990);
        for _ in 0..10 {
            s.fail();
        }
        assert_eq!(s.attempted(), 1000);
        assert_eq!(s.completed(), 990);
        assert_eq!(s.failed(), 10);
        // Rank 990 is the slowest success; one more failure pushes the
        // 99th percentile onto a failure.
        assert_eq!(s.quantile(0.99), Some(990.0));
        s.fail();
        assert_eq!(s.quantile(0.99), Some(FAILED_LATENCY));
        // The mean covers completed requests only.
        assert!((s.mean_ok() - 495.5).abs() < 1e-9);
    }

    #[test]
    fn failures_are_never_dropped_by_merge() {
        let mut a = samples(5);
        a.fail();
        let mut b = samples(3);
        b.fail();
        b.fail();
        a.merge(b);
        assert_eq!(a.attempted(), 11);
        assert_eq!(a.failed(), 3);
    }

    #[test]
    fn median_of_plain_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
