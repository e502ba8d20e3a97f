//! The benchmark's own clock and statistics.
//!
//! Two product-side helpers are deliberately **not** reused, so that a
//! later change to them cannot move the ruler:
//!
//! * `nvtraverse_server::ycsb::LatencyHist` buckets samples by powers of
//!   two, so a p50 can only read 16.4 or 32.8 µs and a 10 % regression is
//!   invisible. Here latencies are raw `u32` nanosecond samples, sorted,
//!   and quantiles are exact order statistics.
//! * `nvtraverse_bench::workload::run_throughput` runs a time-bounded loop
//!   (variable work) and divides by the *nominal* seconds. Here a trial
//!   executes a frozen number of operations and every duration is one a
//!   clock measured: per chunk of operations for the throughput (see
//!   `drive::ChunkClock`), first worker's start to last worker's end for
//!   the wall-clock figure reported beside it.

use std::time::Instant;

/// Nanoseconds since `t0`, saturated into a `u32` sample (4.29 s cap).
#[inline]
pub fn ns_since(t0: Instant) -> u32 {
    u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Exact `q`-quantile of an ascending slice by nearest rank
/// (`ceil(q·n)`-th smallest). Empty input reads 0.
pub fn quantile(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample can support: the highest of the ladder
/// below with at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile label, e.g. `99.9`.
    pub percentile: f64,
    /// Its value, in the samples' unit.
    pub value: u32,
    /// Sample count it was taken from.
    pub samples: usize,
}

/// Percentiles as exact fractions, so "ten beyond" is integer arithmetic.
const TAIL_LADDER: [(usize, usize); 6] = [
    (1, 2),
    (9, 10),
    (99, 100),
    (999, 1_000),
    (9_999, 10_000),
    (99_999, 100_000),
];

/// Highest ladder percentile with ≥ 10 samples beyond it (the median when
/// even p90 has fewer).
pub fn tail(sorted: &[u32]) -> Tail {
    let n = sorted.len();
    let rank = |(num, den): (usize, usize)| (n * num).div_ceil(den);
    let step = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&q| n - rank(q) >= 10)
        .unwrap_or(TAIL_LADDER[0]);
    Tail {
        percentile: step.0 as f64 * 100.0 / step.1 as f64,
        value: if n == 0 {
            0
        } else {
            sorted[rank(step).clamp(1, n) - 1]
        },
        samples: n,
    }
}

/// Spread of a metric over a run's trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of trials.
    pub n: usize,
    /// Smallest trial value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median — the value a metric reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest trial value.
    pub max: f64,
}

/// Median and quartiles the way Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them, so a spread computed here and one
/// computed by a script over the same values agree. Fewer than two values
/// have no quartiles: all five numbers then read the single value.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            n,
            min: 0.0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            max: 0.0,
        };
    }
    if n == 1 {
        return Summary {
            n,
            min: v[0],
            q1: v[0],
            median: v[0],
            q3: v[0],
            max: v[0],
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min: v[0],
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        max: v[n - 1],
    }
}

/// The median alone.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&v, 0.999), 999);
        assert_eq!(quantile(&v, 1.0), 1000);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
        // Not bucketed: neighbouring values stay distinguishable.
        assert_eq!(quantile(&[16_400, 17_000, 32_800], 0.5), 17_000);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let of = |n: u32| tail(&(0..n).collect::<Vec<_>>());
        assert_eq!(of(50).percentile, 50.0);
        assert_eq!(of(100).percentile, 90.0);
        assert_eq!(of(999).percentile, 90.0);
        assert_eq!(of(1_000).percentile, 99.0);
        assert_eq!(of(10_000).percentile, 99.9);
        assert_eq!(of(1_000_000).percentile, 99.999);
        let t = of(1_000);
        assert_eq!((t.value, t.samples), (989, 1_000));
    }

    #[test]
    fn summary_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[4.0]).median, 4.0);
    }

    #[test]
    fn elapsed_is_measured_not_nominal() {
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(ns_since(t0) >= 5_000_000);
    }
}
