//! A pooled structure must leave nothing behind on the volatile heap when it
//! is closed and reopened.
//!
//! A close drops the structure like any value: a pooled structure's
//! destructor frees its volatile shell — bucket array, list handles, the
//! clone of its pool's epoch collector — and no node, because the nodes
//! belong to the pool. The pool owns the one collector its structures retire
//! into; the last pool handle drains and closes it, which also removes the
//! closing thread's EBR participant.
//!
//! The check counts the process's live heap bytes with a counting
//! `#[global_allocator]` (not `VmRSS`, which is the host's business): over
//! twenty close/reopen cycles of each of four pooled structures — a 2^14-key
//! `SoftHash` and `HashMapDs`, a 2^14-key `SkipList` and a 2^10-key
//! `HarrisList` — what a cycle leaves behind must stay within 1 345 bytes,
//! whatever the structure and its size (measured: 109–155). A handle that
//! never dropped its structure left 1 165–7 376 bytes a cycle here, the
//! tables the most. One test only, so nothing else allocates beside it.

use nvtraverse::policy::{NvTraverse, Soft};
use nvtraverse::pool::Pool;
use nvtraverse::{DurableSet, PoolTrace, TypedRoots};
use nvtraverse_pmem::MmapBackend;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::skiplist::SkipList;
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

/// The most a close/reopen cycle may leave on the heap, for any structure.
const MAX_BYTES_PER_CYCLE: isize = 1_345;

/// Twenty close/reopen cycles of an `S` holding `keys` keys; returns the
/// bytes a cycle leaves on the heap (cycles 2–20, so first-use registries
/// are not counted).
fn bytes_per_cycle<S: PoolTrace + DurableSet<u64, u64>>(tag: &str, keys: u64) -> isize {
    let path =
        std::env::temp_dir().join(format!("nvt-reopen-heap-{tag}-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let pool = Pool::builder()
            .path(&path)
            .capacity(8 << 20)
            .create()
            .unwrap();
        let s = pool.create_root::<S>("s").unwrap();
        for k in 0..keys {
            assert!(s.insert(k, k * 3));
        }
        s.close().unwrap();
    }
    let mut after_cycle = Vec::new();
    for cycle in 0..20u64 {
        let pool = Pool::builder().path(&path).open().unwrap();
        let s = pool.root::<S>("s").unwrap();
        assert_eq!(s.len() as u64, keys, "{tag}");
        // Updates too: removes retire nodes into the pool's collector, and
        // an insert must not add anything that outlives the handle.
        for k in (cycle * 32)..(cycle * 32 + 32) {
            assert!(s.remove(k), "{tag}");
            assert!(s.insert(k, k * 3), "{tag}");
        }
        s.close().unwrap();
        drop(pool);
        after_cycle.push(LIVE.load(Ordering::Relaxed));
    }
    std::fs::remove_file(&path).unwrap();
    (after_cycle[19] - after_cycle[1]) / 18
}

#[test]
fn pooled_reopen_cycles_do_not_grow_the_heap() {
    let measured = [
        (
            "soft-hash",
            bytes_per_cycle::<SoftHash<u64, u64, Soft<MmapBackend>>>("soft-hash", 1 << 14),
        ),
        (
            "hash",
            bytes_per_cycle::<HashMapDs<u64, u64, NvTraverse<MmapBackend>>>("hash", 1 << 14),
        ),
        (
            "list",
            bytes_per_cycle::<HarrisList<u64, u64, NvTraverse<MmapBackend>>>("list", 1 << 10),
        ),
        (
            "skiplist",
            bytes_per_cycle::<SkipList<u64, u64, NvTraverse<MmapBackend>>>("skiplist", 1 << 14),
        ),
    ];
    eprintln!("bytes left per close/reopen cycle: {measured:?}");
    for (tag, per_cycle) in measured {
        assert!(
            per_cycle <= MAX_BYTES_PER_CYCLE,
            "a {tag} close/reopen cycle leaves {per_cycle} bytes on the heap \
             (at most {MAX_BYTES_PER_CYCLE}): {measured:?}"
        );
    }
}
