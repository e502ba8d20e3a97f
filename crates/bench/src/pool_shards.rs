//! `pool_shards`: throughput of the **sharded multi-pool set** — shard
//! count × thread count — the first scaling figure of the multi-pool era.
//!
//! Where `pool_structs` measures one structure in one pool, this sweep
//! runs [`ShardedSet`] over N concurrently-open pools: every point uses
//! the §5.1 harness (prefill to half the range, 10% insert / 10% delete /
//! 80% lookup), so numbers are comparable with every other figure. With
//! one shard the figure reduces to the single-pool hash map (the overhead
//! of the routing mix is visible there); with more shards, operations on
//! different shards share no allocator state and no structure memory, so
//! contention drops as shards grow — on a multicore box the threads axis
//! is where that pays off.
//!
//! After each measurement the set is closed and **reopened** (all shards
//! concurrently), and the summed per-shard pool recovery time is recorded
//! — each shard's sealed summary read after the clean close, or its heap
//! walk and mark-sweep GC when it could not seal: the restart cost of a
//! sharded deployment is N small independent recoveries, not one big one.
//!
//! Points flow through the `--json` sink as figure `pool_shards`, series
//! `shards-<n>` (x = threads, metric `mops`) and `shards-<n>-reopen-gc`
//! (x = threads, metric `us`).

use crate::figures::Mode;
use nvtraverse::policy::NvTraverse;
use nvtraverse_pmem::MmapBackend;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::sharded::ShardedSet;

type ShardStruct = HashMapDs<u64, u64, NvTraverse<MmapBackend>>;

/// Same key range as `pool_structs`, for comparability.
const KEY_RANGE: u64 = 4096;
/// Per-shard capacity: the live population splits across shards, so each
/// file stays small.
const SHARD_CAP: u64 = 16 << 20;

fn shard_dir(shards: usize) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "nvt-pool-shards-{}-{shards}.shards",
        std::process::id()
    ))
}

/// One point: create the sharded set, run the §5.1 mixed workload, close,
/// reopen (N concurrent independent recoveries), return
/// `(mops, summed reopen recovery µs)`.
fn point(shards: usize, threads: usize, secs: f64) -> (f64, f64) {
    let dir = shard_dir(shards);
    let _ = std::fs::remove_dir_all(&dir);
    let set = ShardedSet::<ShardStruct>::create(&dir, shards, SHARD_CAP).unwrap();
    let mut cfg = crate::workload::Cfg::paper_default(threads, KEY_RANGE);
    cfg.secs = secs;
    crate::workload::prefill(&set, &cfg);
    let mops = crate::workload::run_throughput(&set, &cfg);
    set.close().unwrap();

    let set = ShardedSet::<ShardStruct>::open(&dir).unwrap();
    let gc_us: f64 = set
        .recovery_reports()
        .iter()
        .map(|r| (r.phases.heap_walk_nanos + r.gc_nanos) as f64 / 1e3)
        .sum();
    set.close().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (mops, gc_us)
}

/// Runs the sweep: shards × threads.
pub fn run(mode: Mode) {
    let secs = match mode {
        Mode::Quick => 0.12,
        Mode::Full => 1.0,
    };
    let shard_counts = [1usize, 2, 4];
    let threads = [1usize, 2, 4];
    println!("\n== pool_shards: hash-sharded multi-pool set throughput ==");
    println!(
        "{:>10}{:>10}{:>14}{:>16}  [Mops/s; reopen-gc = summed per-shard recovery µs: sealed read, or walk+mark+sweep]",
        "shards", "threads", "mops", "reopen-gc"
    );
    for &n in &shard_counts {
        for &t in &threads {
            let (mops, gc_us) = point(n, t, secs);
            let x = t.to_string();
            crate::json::record("pool_shards", &format!("shards-{n}"), &x, "mops", mops);
            crate::json::record(
                "pool_shards",
                &format!("shards-{n}-reopen-gc"),
                &x,
                "us",
                gc_us,
            );
            println!("{n:>10}{t:>10}{mops:>14.3}{gc_us:>14.0}µs");
        }
    }
}
