//! YCSB-style workload driver: zipfian keys, standard mixes, latency
//! histograms — all deterministic under a seed.
//!
//! The zipfian generator is the YCSB standard construction (Gray et al.'s
//! "quickly generating billion-record synthetic databases" rejection-free
//! formula): rank probabilities `P(i) ∝ 1/i^θ`, computed from the
//! harmonic-like constant `zetan = Σ_{i=1..n} 1/i^θ`. Everything is
//! seeded — same seed, same key sequence — so benchmark runs and the
//! top-key-mass unit test are reproducible (ISSUE 9 satellite: the
//! determinism hook is the `seed` parameter, not ambient RNG state).

use crate::client::Client;
use crate::proto::{Reply, Request};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Splitmix64: seeds the per-thread PRNG streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xorshift64* PRNG — deterministic, dependency-free.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the stream (any seed is fine; 0 is remapped internally).
    pub fn new(seed: u64) -> Rng {
        let mut s = seed;
        // splitmix decorrelates adjacent seeds and maps 0 away from the
        // xorshift fixed point.
        let mut v = splitmix64(&mut s);
        if v == 0 {
            v = 0x9E37_79B9_7F4A_7C15;
        }
        Rng(v)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → the full double mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The YCSB zipfian generator over ranks `0..n` with skew `theta`
/// (YCSB's default is 0.99). Rank 0 is the hottest key.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    rng: Rng,
}

impl Zipfian {
    /// Builds the generator; `zetan` is computed exactly (O(n)), which is
    /// fine for benchmark-sized key spaces.
    ///
    /// # Panics
    ///
    /// Panics on `n == 0` or `theta >= 1.0` (the formula needs θ < 1).
    pub fn new(n: u64, theta: f64, seed: u64) -> Zipfian {
        assert!(n > 0, "zipfian over an empty key space");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian { n, theta, alpha, zetan, eta, rng: Rng::new(seed) }
    }

    /// Next rank in `0..n`, zipf-distributed (0 = hottest).
    pub fn next_rank(&mut self) -> u64 {
        let u = self.rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// The standard YCSB core mixes the figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% reads / 50% updates.
    A,
    /// 95% reads / 5% updates.
    B,
    /// 100% reads.
    C,
}

impl Mix {
    /// Fraction of operations that are reads, in percent.
    pub fn read_pct(self) -> u32 {
        match self {
            Mix::A => 50,
            Mix::B => 95,
            Mix::C => 100,
        }
    }

    /// Figure/series label.
    pub fn name(self) -> &'static str {
        match self {
            Mix::A => "A",
            Mix::B => "B",
            Mix::C => "C",
        }
    }
}

/// A log2-bucketed nanosecond latency histogram — self-contained (not
/// gated on the obs env switch) because workload latency must always be
/// measurable.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> LatencyHist {
        LatencyHist { buckets: [0; 64], count: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, nanos: u64) {
        let b = 63 - nanos.max(1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Approximate quantile in nanoseconds (upper bucket bound), `q` in
    /// `[0, 1]`. Zero when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 1u64 << (b + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// Workload parameters for [`run_ycsb`].
#[derive(Debug, Clone)]
pub struct YcsbCfg {
    /// Key-space size (ranks are used directly as keys).
    pub keys: u64,
    /// Zipfian skew (YCSB default 0.99).
    pub theta: f64,
    /// Base seed; thread `t` derives its stream from `seed + t`.
    pub seed: u64,
    /// Read/update mix.
    pub mix: Mix,
    /// Operations per request frame (1 = unbatched singles).
    pub batch: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Client threads, one connection each.
    pub threads: usize,
}

/// What a [`run_ycsb`] run measured.
#[derive(Debug, Clone)]
pub struct YcsbReport {
    /// Data operations completed (acks received) across all threads.
    pub ops: u64,
    /// Measured wall-clock seconds.
    pub secs: f64,
    /// Merged per-round-trip latency histogram (one sample per frame).
    pub latency: LatencyHist,
}

impl YcsbReport {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        if self.secs == 0.0 {
            return 0.0;
        }
        self.ops as f64 / self.secs / 1e6
    }

    /// Median round-trip latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.latency.quantile_ns(0.50) as f64 / 1e3
    }

    /// Tail round-trip latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency.quantile_ns(0.99) as f64 / 1e3
    }
}

/// Drives the server with `cfg.threads` closed-loop clients, each sending
/// zipfian-keyed batches of `cfg.batch` operations, for `cfg.duration`.
/// `mk_client` opens one connection per thread. Deterministic key
/// sequences per thread (seed + thread id); the op *count* still varies
/// with machine speed — determinism here means reproducible key
/// distributions, not reproducible totals.
///
/// # Errors
///
/// The first connection or transport error from any thread.
pub fn run_ycsb(
    mk_client: impl Fn() -> io::Result<Client> + Sync,
    cfg: &YcsbCfg,
) -> io::Result<YcsbReport> {
    assert!(cfg.batch >= 1, "batch size must be at least 1");
    assert!(cfg.threads >= 1, "at least one client thread");
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let results: Vec<io::Result<(u64, LatencyHist)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let mk_client = &mk_client;
                let stop = &stop;
                s.spawn(move || {
                    let mut client = mk_client()?;
                    let mut zipf = Zipfian::new(cfg.keys, cfg.theta, cfg.seed + t as u64);
                    let mut coin = Rng::new(cfg.seed ^ 0xC0FF_EE00 ^ t as u64);
                    let mut hist = LatencyHist::new();
                    let mut ops = 0u64;
                    let mut reqs = Vec::with_capacity(cfg.batch);
                    while !stop.load(Ordering::Relaxed) {
                        reqs.clear();
                        for _ in 0..cfg.batch {
                            let key = zipf.next_rank();
                            if coin.next_u64() % 100 < cfg.mix.read_pct() as u64 {
                                reqs.push(Request::Get(key));
                            } else {
                                reqs.push(Request::Insert(key, key.wrapping_mul(3)));
                            }
                        }
                        let t0 = Instant::now();
                        if cfg.batch == 1 {
                            client.request(&reqs[0])?;
                        } else {
                            let req = Request::Batch(reqs.clone());
                            match client.request(&req)? {
                                Reply::Batch(_) => {}
                                other => {
                                    return Err(io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        format!("unexpected batch reply: {other:?}"),
                                    ))
                                }
                            }
                        }
                        hist.record(t0.elapsed().as_nanos() as u64);
                        ops += cfg.batch as u64;
                    }
                    Ok((ops, hist))
                })
            })
            .collect();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("ycsb worker panicked")).collect()
    });
    let secs = started.elapsed().as_secs_f64();
    let mut ops = 0;
    let mut latency = LatencyHist::new();
    for r in results {
        let (o, h) = r?;
        ops += o;
        latency.merge(&h);
    }
    Ok(YcsbReport { ops, secs, latency })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_seed_deterministic() {
        let mut a = Zipfian::new(1000, 0.99, 42);
        let mut b = Zipfian::new(1000, 0.99, 42);
        let mut c = Zipfian::new(1000, 0.99, 43);
        let seq_a: Vec<u64> = (0..256).map(|_| a.next_rank()).collect();
        let seq_b: Vec<u64> = (0..256).map(|_| b.next_rank()).collect();
        let seq_c: Vec<u64> = (0..256).map(|_| c.next_rank()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same stream");
        assert_ne!(seq_a, seq_c, "different seed, different stream");
    }

    #[test]
    fn zipfian_top_key_mass_matches_theory() {
        // n=1000, θ=0.99 ⇒ P(rank 0) = 1/zetan ≈ 0.1335. Pin the empirical
        // mass of the hottest key to a band around it.
        let mut z = Zipfian::new(1000, 0.99, 42);
        let theory = 1.0 / z.zetan;
        assert!((0.12..0.15).contains(&theory), "theory sanity: {theory}");
        let samples = 100_000;
        let mut top = 0u64;
        let mut max_rank = 0u64;
        for _ in 0..samples {
            let r = z.next_rank();
            max_rank = max_rank.max(r);
            if r == 0 {
                top += 1;
            }
        }
        let mass = top as f64 / samples as f64;
        assert!(
            (mass - theory).abs() < 0.01,
            "empirical top-key mass {mass:.4} vs theoretical {theory:.4}"
        );
        assert!(max_rank < 1000, "ranks stay inside the key space");
    }

    #[test]
    fn latency_histogram_quantiles_are_monotone() {
        let mut h = LatencyHist::new();
        for ns in [100u64, 200, 400, 800, 1600, 3200, 1 << 20] {
            h.record(ns);
        }
        assert_eq!(h.count(), 7);
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        assert!(p50 <= p99, "p50 {p50} <= p99 {p99}");
        assert!(p99 >= 1 << 20, "tail sample dominates p99");

        let mut other = LatencyHist::new();
        other.record(50);
        h.merge(&other);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn mixes_have_the_standard_read_fractions() {
        assert_eq!(Mix::A.read_pct(), 50);
        assert_eq!(Mix::B.read_pct(), 95);
        assert_eq!(Mix::C.read_pct(), 100);
    }
}
