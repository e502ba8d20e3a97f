//! A pooled SOFT table must leave nothing behind on the volatile heap.
//!
//! `PooledHandle` holds its structure in `ManuallyDrop` (dropping it would
//! free the pool-resident nodes), so whatever volatile memory the structure
//! owns at `close` is never returned. Until the recovery-at-memory-speed PR
//! every `SoftList` kept a `Mutex<Vec<usize>>` registry with one entry per
//! node — 8 bytes a key, re-built at every attach and leaked at every close,
//! and locked (and, on remove, scanned) by every update. A pool already
//! knows its blocks, so a pooled list now keeps no registry at all: recovery
//! takes its candidates from `Pool::for_each_live_payload`.
//!
//! The check counts the process's live heap bytes with a counting
//! `#[global_allocator]` (not `VmRSS`, which is the host's business): over
//! twenty close/reopen cycles of a 2^14-key `SoftHash`, what a cycle leaves
//! behind must not scale with the table — less than one byte per key per
//! cycle, against the 8 a registry entry cost (measured: ≈ 8.5 KB a cycle,
//! the 64 bucket handles and the collector of the `ManuallyDrop`ped table,
//! whatever the key count; the parent commit leaves 138 KB). One test only,
//! so nothing else allocates beside it.

use nvtraverse::policy::Soft;
use nvtraverse::pool::Pool;
use nvtraverse::{DurableSet, TypedRoots};
use nvtraverse_pmem::MmapBackend;
use nvtraverse_structures::soft_hash::SoftHash;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes currently allocated from the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: defers to `System` with the caller's layout on both sides; the
// counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations carry over unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

type Table = SoftHash<u64, u64, Soft<MmapBackend>>;

const KEYS: u64 = 1 << 14;

#[test]
fn pooled_soft_hash_reopen_cycles_do_not_grow_the_heap() {
    let path = std::env::temp_dir().join(format!("nvt-soft-reopen-heap-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let pool = Pool::builder().path(&path).capacity(8 << 20).create().unwrap();
        let table = pool.create_root::<Table>("t").unwrap();
        for k in 0..KEYS {
            assert!(table.insert(k, k * 3));
        }
        table.close().unwrap();
    }
    let mut after_cycle = Vec::new();
    for cycle in 0..20u64 {
        let pool = Pool::builder().path(&path).open().unwrap();
        let table = pool.root::<Table>("t").unwrap();
        assert_eq!(table.len() as u64, KEYS);
        // Updates too: a remove must not leave a stale inventory entry, an
        // insert must not add one that outlives the handle.
        for k in (cycle * 64)..(cycle * 64 + 64) {
            assert!(table.remove(k));
            assert!(table.insert(k, k * 3));
        }
        table.close().unwrap();
        drop(pool);
        after_cycle.push(LIVE.load(Ordering::Relaxed));
    }
    let per_cycle = (after_cycle[19] - after_cycle[1]) / 18;
    assert!(
        per_cycle < KEYS as isize,
        "a close/reopen cycle leaves {per_cycle} bytes on the heap — at {KEYS} keys that scales \
         with the table (a per-node registry is 8 bytes a key): {after_cycle:?}"
    );
    std::fs::remove_file(&path).unwrap();
}
