//! Measurement primitives the benchmark owns, so a change to the program's
//! own histogram or client code cannot move the numbers: a raw-sample
//! recorder with exact order statistics, an open-loop schedule that times
//! from the instant an operation was *due*, and the process's peak RSS.

use std::time::{Duration, Instant};

/// Raw per-operation samples in nanoseconds. Percentiles are exact order
/// statistics over every sample, never bucket bounds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    pub fn merge(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile in microseconds (nearest rank); 0 with no samples.
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        self.sort();
        percentile(&self.ns, q) as f64 / 1e3
    }

    /// The highest quantile not above `want` that still has at least ten
    /// samples beyond it, and its value in microseconds. A tail read off
    /// fewer samples is one slow operation, not a percentile.
    pub fn tail_us(&mut self, want: f64) -> (f64, f64) {
        let q = supported_quantile(self.ns.len(), want);
        (q, self.percentile_us(q))
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `q` of all samples are at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `want` if `n` samples leave ten beyond it, else the highest quantile
/// that does (never below the median).
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return want;
    }
    let highest = 1.0 - 10.0 / n as f64;
    want.min(highest).max(0.5)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the acceptance rule is stated in.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    [at(1), at(2), at(3)]
}

/// The median of a non-empty slice (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// A fixed-rate open-loop schedule. Operation `i` is due at
/// `start + i * period` whether or not earlier operations have finished;
/// the caller times each one from [`OpenLoop::wait_until_due`]'s due
/// instant, so a stall is charged to every operation it delays.
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    issued: u32,
    /// How late each operation was sent relative to its due time.
    pub lateness: Samples,
}

impl OpenLoop {
    pub fn new(rate_per_s: u32) -> OpenLoop {
        OpenLoop {
            start: Instant::now(),
            period: Duration::from_secs(1) / rate_per_s,
            issued: 0,
            lateness: Samples::default(),
        }
    }

    /// Sleep until the next operation is due (not at all when running
    /// behind) and return its due instant.
    pub fn wait_until_due(&mut self) -> Instant {
        let due = self.start + self.period * self.issued;
        self.issued += 1;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        self.lateness
            .push(Instant::now().saturating_duration_since(due));
        due
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_nearest_rank_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Unsorted input through the recorder.
        let mut s = Samples::default();
        for n in [5u64, 1, 4, 2, 3] {
            s.push(Duration::from_micros(n));
        }
        assert_eq!(s.percentile_us(0.5), 3.0);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert_eq!(supported_quantile(10_000, 0.99), 0.99);
        // 500 samples leave only 5 beyond p99: fall back to p98.
        assert!((supported_quantile(500, 0.99) - 0.98).abs() < 1e-12);
        assert_eq!(supported_quantile(12, 0.99), 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn open_loop_times_from_the_due_instant() {
        let mut sched = OpenLoop::new(1000);
        let first = sched.wait_until_due();
        std::thread::sleep(Duration::from_millis(5));
        // The schedule does not slip: the third operation is due 2 ms
        // after the first even though the caller stalled for 5 ms.
        sched.wait_until_due();
        let third = sched.wait_until_due();
        assert_eq!(third - first, Duration::from_millis(2));
        assert_eq!(sched.lateness.len(), 3);
        assert!(sched.lateness.clone().percentile_us(1.0) >= 2000.0);
    }
}
