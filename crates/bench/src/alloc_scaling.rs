//! Allocator scaling: pool alloc/free throughput by thread count.
//!
//! Measures the quantity the pool's magazine/bitmap/CAS-frontier allocator
//! is designed for — how `alloc`/`dealloc` throughput scales with thread
//! count. Two workloads:
//!
//! * `churn` — steady state: every thread cycles a ring of live blocks
//!   through a size-class mix, freeing the oldest as it allocates; one in
//!   eight freed blocks is handed to the next thread through a lock-free
//!   exchange slot, so remote frees (a block freed by another thread than
//!   the one that allocated it) are always in play.
//! * `grow` — allocation-only burst until a per-thread quota, then bulk
//!   free; stresses the frontier (slab carving vs per-block bump+persist).
//!
//! Points flow through the `--json` sink as figure `alloc_scaling`, series
//! `lockfree-<workload>`, x = thread count, metric `mops` (million
//! alloc+free pairs per second), so `BENCH_*.json` artifacts capture the
//! trajectory per run. Each series additionally
//! reports `mag_hit_rate` — the fraction of allocations served by the
//! per-thread magazine tier, read from the pool's `nvtraverse-obs` metric
//! set — so a throughput regression can be told apart from a locality one
//! (same Mops/s story, different hit rate).

use crate::figures::Mode;
use nvtraverse_obs as obs;
use nvtraverse_pool::Pool;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Allocation-size mix: a spread over the small size classes (paper-sized
/// nodes live in the 32..512-byte classes).
const SIZES: [usize; 8] = [24, 40, 64, 100, 120, 248, 500, 1016];
/// Live blocks each thread keeps in flight during `churn`.
const RING: usize = 128;
/// Blocks each thread allocates during `grow`.
const GROW_QUOTA: usize = 4096;

fn pool_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "nvt-alloc-scaling-{}-{tag}.pool",
        std::process::id()
    ))
}

/// The magazine hit rate over a metric-set delta: hits / (hits + misses),
/// `NaN` when no magazine traffic was recorded (`NVT_OBS=off`).
fn mag_hit_rate(d: &obs::Snapshot) -> f64 {
    let hits = d.counter(obs::Counter::MagHit) as f64;
    let misses = d.counter(obs::Counter::MagMiss) as f64;
    hits / (hits + misses)
}

/// One churn measurement: returns (million alloc+free pairs per second,
/// magazine hit rate).
fn churn(threads: usize, secs: f64) -> (f64, f64) {
    let path = pool_path("churn");
    let _ = std::fs::remove_file(&path);
    let pool = Pool::builder().path(&path).capacity(256 << 20).create().unwrap();
    // The metric set is keyed by path and outlives the pool, so counters
    // carry over between measurements on the same file — diff, don't read.
    let m_before = pool.metrics().snapshot();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    // One exchange slot per thread: thread t deposits into slot t and frees
    // whatever it evicts from slot (t-1) — a remote free on every exchange.
    let slots: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let mops: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let pool = pool.clone();
                let stop = &stop;
                let barrier = &barrier;
                let slots = &slots;
                s.spawn(move || {
                    let mut ring: Vec<*mut u8> = vec![std::ptr::null_mut(); RING];
                    let mut i = t; // desynchronize the size mix across threads
                    let mut pairs = 0usize;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let slot = i & (RING - 1);
                        let size = SIZES[i % SIZES.len()];
                        i = i.wrapping_add(1);
                        let victim = ring[slot];
                        if !victim.is_null() {
                            if i % 8 == 0 {
                                // Hand the block to a neighbour; free what
                                // the neighbour left for us (remote free).
                                let parked =
                                    slots[t].swap(victim as usize, Ordering::AcqRel);
                                let theirs = slots[(t + threads - 1) % threads]
                                    .swap(0, Ordering::AcqRel);
                                if theirs != 0 {
                                    unsafe { pool.dealloc(theirs as *mut u8) };
                                    pairs += 1;
                                }
                                if parked != 0 {
                                    unsafe { pool.dealloc(parked as *mut u8) };
                                    pairs += 1;
                                }
                            } else {
                                unsafe { pool.dealloc(victim) };
                                pairs += 1;
                            }
                        }
                        let Some(p) = pool.alloc(size, 8) else { break };
                        unsafe { p.write(t as u8) };
                        ring[slot] = p;
                    }
                    for p in ring {
                        if !p.is_null() {
                            unsafe { pool.dealloc(p) };
                        }
                    }
                    pairs
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        let pairs: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let elapsed = start.elapsed().as_secs_f64();
        // Drain the exchange slots before the pool drops.
        for slot in slots.iter() {
            let p = slot.swap(0, Ordering::AcqRel);
            if p != 0 {
                unsafe { pool.dealloc(p as *mut u8) };
            }
        }
        pairs as f64 / elapsed / 1e6
    });
    pool.verify_heap().expect("heap corrupt after churn bench");
    let hit_rate = mag_hit_rate(&pool.metrics().snapshot().since(&m_before));
    drop(pool);
    let _ = std::fs::remove_file(&path);
    (mops, hit_rate)
}

/// One grow measurement: allocation-only burst, then bulk free; returns
/// (million allocations per second over the burst phase, magazine hit
/// rate). Each thread times its own burst before freeing; the rate is
/// total allocations over the slowest thread's burst window, so the free
/// phase is not measured.
fn grow(threads: usize, secs: f64) -> (f64, f64) {
    let path = pool_path("grow");
    let _ = std::fs::remove_file(&path);
    let pool = Pool::builder().path(&path).capacity(1 << 30).create().unwrap();
    let m_before = pool.metrics().snapshot();
    let quota = ((GROW_QUOTA as f64 * secs.max(0.05) / 0.12) as usize).max(256);
    let barrier = Barrier::new(threads);
    let (allocs, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let pool = pool.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut held = Vec::with_capacity(quota);
                    for i in 0..quota {
                        let size = SIZES[(i + t) % SIZES.len()];
                        match pool.alloc(size, 8) {
                            Some(p) => held.push(p),
                            None => break,
                        }
                    }
                    let burst = start.elapsed().as_secs_f64();
                    let n = held.len();
                    for p in held {
                        unsafe { pool.dealloc(p) };
                    }
                    (n, burst)
                })
            })
            .collect();
        let mut allocs = 0usize;
        let mut slowest = 0f64;
        for h in handles {
            let (n, burst) = h.join().unwrap();
            allocs += n;
            slowest = slowest.max(burst);
        }
        // Floor the window: a quick-mode burst can finish in microseconds,
        // where scheduler jitter would turn the rate into noise.
        (allocs, slowest.max(1e-3))
    });
    pool.verify_heap().expect("heap corrupt after grow bench");
    let hit_rate = mag_hit_rate(&pool.metrics().snapshot().since(&m_before));
    drop(pool);
    let _ = std::fs::remove_file(&path);
    (allocs as f64 / elapsed / 1e6, hit_rate)
}

/// Runs the full sweep and prints/records one table per workload.
pub fn run(mode: Mode) {
    let secs = match mode {
        Mode::Quick => 0.12,
        Mode::Full => 1.0,
    };
    let threads = [1usize, 2, 4, 8];
    for (workload, f) in [
        ("churn", churn as fn(usize, f64) -> (f64, f64)),
        ("grow", grow as fn(usize, f64) -> (f64, f64)),
    ] {
        println!("\n== alloc_scaling: pool alloc/free throughput, {workload} workload ==");
        println!(
            "{:>10}{:>14}{:>10}  [Mops/s; mag-hit = magazine hit rate]",
            "threads", "lockfree", "mag-hit"
        );
        for &t in &threads {
            let (mops, hit_rate) = f(t, secs);
            let (series, x) = (format!("lockfree-{workload}"), t.to_string());
            crate::json::record("alloc_scaling", &series, &x, "mops", mops);
            crate::json::record("alloc_scaling", &series, &x, "mag_hit_rate", hit_rate);
            println!("{t:>10}{mops:>14.3}{:>9.1}%", hit_rate * 100.0);
        }
    }
}
