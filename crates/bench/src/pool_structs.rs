//! Pool-backed *structure* throughput, structure × threads. Where
//! `alloc_scaling` measures the allocator in isolation, this sweep measures
//! what users feel: full operations on pool-resident structures (policy
//! flushes + traversal + allocator together).
//!
//! Every structure is created inside a fresh pool file via its
//! [`PoolAttach`] implementation — the same path `PooledHandle` takes — so
//! node allocation, EBR reclamation and the durability policy's fences all
//! exercise the production configuration (`NvTraverse<MmapBackend>`).
//!
//! Workloads:
//!
//! * sets (list, hash, skiplist, both BSTs) — [`crate::workload`]'s §5.1
//!   harness (the same prefill-to-half + 10% insert / 10% delete / 80%
//!   lookup mix every paper figure uses, so points are comparable across
//!   figures) over a 4096-key range;
//! * queue / stack — enqueue+dequeue (push+pop) pairs, keeping the
//!   population near its prefill.
//!
//! Points flow through the `--json` sink as figure `pool_structs`, series
//! `lockfree-<structure>`, x = thread count, metric `mops` (million
//! operations per second), so `BENCH_*.json` artifacts capture the
//! trajectory per run.

use crate::figures::Mode;
use nvtraverse::policy::NvTraverse;
use nvtraverse::{DurableSet, PoolAttach, TypedRoots};
use nvtraverse_pmem::MmapBackend;
use nvtraverse_pool::Pool;
use nvtraverse_structures::ellen_bst::EllenBst;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::nm_bst::NmBst;
use nvtraverse_structures::queue::MsQueue;
use nvtraverse_structures::skiplist::SkipList;
use nvtraverse_structures::stack::TreiberStack;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

type D = NvTraverse<MmapBackend>;

/// Uniform key range; prefill to half (paper §5.1). Small enough that the
/// list's O(n) traversals stay measurable, large enough for real towers and
/// tree depth.
const KEY_RANGE: u64 = 4096;
/// Small on purpose: the live population is bounded (≤ KEY_RANGE nodes plus
/// EBR slack), and every measurement creates + syncs + unmaps its own pool
/// file — capacity is pure per-measurement I/O overhead.
const POOL_CAP: u64 = 32 << 20;

fn pool_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "nvt-pool-structs-{}-{tag}.pool",
        std::process::id()
    ))
}

/// Runs `body` on `threads` threads for `secs`, returning Mops/s. Each body
/// invocation loops until the stop flag and returns its operation count.
fn measure(
    threads: usize,
    secs: f64,
    body: &(impl Fn(usize, &AtomicBool) -> usize + Sync),
) -> f64 {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stop = &stop;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    body(t, stop)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        let ops: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        ops as f64 / start.elapsed().as_secs_f64() / 1e6
    })
}

/// Creates `S` in a fresh pool, runs `workload`, then closes and
/// **reopens** the pool — without dropping the structure (its nodes live
/// in the file) — and returns `(mops, reopen µs)`: the wall time of the
/// pool's recovery at the reopen. The close is clean and seals, so that is
/// the read of the sealed summary; an open that walks instead (a close
/// that could not seal) adds the walk and the mark-sweep GC `root::<S>`
/// runs with `S`'s tracer before attaching.
fn with_pooled<S: PoolAttach + nvtraverse::PoolTrace>(
    tag: &str,
    workload: impl FnOnce(&S) -> f64,
) -> (f64, f64) {
    let path = pool_path(tag);
    let _ = std::fs::remove_file(&path);
    let pool = Pool::builder().path(&path).capacity(POOL_CAP).create().unwrap();
    // The typed root keeps the structure's nodes in the pool file; closing
    // the handle drains retired blocks back to the pool first.
    let s = pool.create_root::<S>("bench").unwrap();
    let mops = workload(&s);
    s.close().unwrap();
    drop(pool);
    // The reopen path a restart pays: the sealed summary's read, or a heap
    // walk + root-driven mark-sweep over everything the workload left live.
    let pool = Pool::builder().path(&path).open().unwrap();
    // `root::<S>` hands a walked open's collection S's tracer.
    pool.root::<S>("bench").unwrap().close().unwrap();
    let report = pool.recovery_report();
    assert!(
        report.sealed || report.gc_ran,
        "walked and tracer given, yet the GC skipped"
    );
    let gc_us = (report.phases.heap_walk_nanos + report.gc_nanos) as f64 / 1e3;
    drop(pool);
    let _ = std::fs::remove_file(&path);
    (mops, gc_us)
}

/// §5.1 mixed set workload, via the shared harness (same prefill and op
/// mix as every paper figure).
fn set_mops<S: PoolAttach + nvtraverse::PoolTrace + DurableSet<u64, u64>>(
    tag: &str,
    threads: usize,
    secs: f64,
) -> (f64, f64) {
    with_pooled::<S>(tag, |s| {
        let mut cfg = crate::workload::Cfg::paper_default(threads, KEY_RANGE);
        cfg.secs = secs;
        crate::workload::prefill(s, &cfg);
        crate::workload::run_throughput(s, &cfg)
    })
}

/// Enqueue+dequeue pairs on a prefilled queue (2 ops per iteration).
fn queue_mops(threads: usize, secs: f64) -> (f64, f64) {
    with_pooled::<MsQueue<u64, D>>("queue", |q| {
        for v in 0..KEY_RANGE / 2 {
            q.enqueue(v);
        }
        measure(threads, secs, &|t, stop| {
            let mut v = (t as u64) << 48;
            let mut ops = 0;
            while !stop.load(Ordering::Relaxed) {
                q.enqueue(v);
                v += 1;
                q.dequeue();
                ops += 2;
            }
            ops
        })
    })
}

/// Push+pop pairs on a prefilled stack (2 ops per iteration).
fn stack_mops(threads: usize, secs: f64) -> (f64, f64) {
    with_pooled::<TreiberStack<u64, D>>("stack", |s| {
        for v in 0..KEY_RANGE / 2 {
            s.push(v);
        }
        measure(threads, secs, &|t, stop| {
            let mut v = (t as u64) << 48;
            let mut ops = 0;
            while !stop.load(Ordering::Relaxed) {
                s.push(v);
                v += 1;
                s.pop();
                ops += 2;
            }
            ops
        })
    })
}

/// Runs the full sweep: structure × threads, one table per structure.
pub fn run(mode: Mode) {
    let secs = match mode {
        Mode::Quick => 0.12,
        Mode::Full => 1.0,
    };
    let threads = [1usize, 2, 4];
    type Bench = fn(usize, f64) -> (f64, f64);
    let list: Bench = |t, s| set_mops::<HarrisList<u64, u64, D>>("list", t, s);
    let hash: Bench = |t, s| set_mops::<HashMapDs<u64, u64, D>>("hash", t, s);
    let skip: Bench = |t, s| set_mops::<SkipList<u64, u64, D>>("skiplist", t, s);
    let ellen: Bench = |t, s| set_mops::<EllenBst<u64, u64, D>>("ellen-bst", t, s);
    let nm: Bench = |t, s| set_mops::<NmBst<u64, u64, D>>("nm-bst", t, s);
    let benches: [(&str, Bench); 7] = [
        ("list", list),
        ("hash", hash),
        ("skiplist", skip),
        ("ellen-bst", ellen),
        ("nm-bst", nm),
        ("queue", queue_mops),
        ("stack", stack_mops),
    ];
    for (name, f) in benches {
        println!("\n== pool_structs: pool-backed {name} throughput ==");
        println!(
            "{:>10}{:>14}{:>14}  [Mops/s; reopen-gc = pool recovery µs at reopen: sealed read, or walk+mark+sweep]",
            "threads", "lockfree", "reopen-gc"
        );
        for &t in &threads {
            let (mops, gc_us) = f(t, secs);
            let x = t.to_string();
            crate::json::record("pool_structs", &format!("lockfree-{name}"), &x, "mops", mops);
            crate::json::record(
                "pool_structs",
                &format!("lockfree-{name}-reopen-gc"),
                &x,
                "us",
                gc_us,
            );
            println!("{t:>10}{mops:>14.3}{gc_us:>12.0}µs");
        }
    }
}
