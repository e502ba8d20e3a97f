//! Multi-pool isolation: several pools open concurrently in one process
//! must stay fully independent — allocation routing, cross-pool misuse
//! detection, and per-pool recovery GC.
//!
//! These are the tests ISSUE 5's per-pool-context redesign makes possible:
//! under the old process-global installed pool, two concurrently *used*
//! pools could not even exist.

use nvtraverse::policy::NvTraverse;
use nvtraverse::pool::{POff, Pool};
use nvtraverse::{DurableSet, TypedRoots};
use nvtraverse_pmem::MmapBackend;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::queue::MsQueue;
use std::path::PathBuf;

mod common;
use common::unseal;

type PooledList = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
type PooledQueue = MsQueue<u64, NvTraverse<MmapBackend>>;

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "nvt-multipool-{}-{}.pool",
        std::process::id(),
        name
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Two pools, two structures, mutated **concurrently from several threads**
/// — every node must land in its own structure's pool file, proven by
/// closing both and reopening each in isolation.
#[test]
fn two_pools_used_concurrently_stay_disjoint() {
    let (path_a, path_b) = (tmp("conc-a"), tmp("conc-b"));
    {
        let pool_a = Pool::builder().path(&path_a).capacity(8 << 20).create().unwrap();
        let pool_b = Pool::builder().path(&path_b).capacity(8 << 20).create().unwrap();
        let list = pool_a.create_root::<PooledList>("list").unwrap();
        let queue = pool_b.create_root::<PooledQueue>("queue").unwrap();

        std::thread::scope(|s| {
            for t in 0..2u64 {
                let list = &list;
                let queue = &queue;
                s.spawn(move || {
                    for k in (t * 500)..(t * 500 + 500) {
                        assert!(list.insert(k, k * 3));
                        queue.enqueue(k);
                        if k % 4 == 0 {
                            list.remove(k);
                            queue.dequeue();
                        }
                    }
                });
            }
        });

        // Interleaved allocations went to the right files: both heaps
        // verify block by block (contents are checked after the reopen).
        list.pool().verify_heap().unwrap();
        queue.pool().verify_heap().unwrap();
        queue.close().unwrap();
        list.close().unwrap();
        drop(pool_a);
        drop(pool_b);
    }

    // Reopen each pool on its own: contents are complete and disjoint.
    let pool_a = Pool::builder().path(&path_a).open().unwrap();
    let list = pool_a.root::<PooledList>("list").unwrap();
    assert_eq!(list.len(), 750, "list lost or gained keys across pools");
    list.check_consistency(false).unwrap();
    drop(list);
    drop(pool_a);

    let pool_b = Pool::builder().path(&path_b).open().unwrap();
    let queue = pool_b.root::<PooledQueue>("queue").unwrap();
    assert_eq!(queue.len(), 750, "queue lost or gained values across pools");
    drop(queue);
    drop(pool_b);

    std::fs::remove_file(&path_a).unwrap();
    std::fs::remove_file(&path_b).unwrap();
}

/// A `POff` minted against pool A and dereferenced against pool B must be
/// rejected loudly (panic with a cross-pool message), not silently resolve
/// to unrelated memory.
#[test]
fn cross_pool_poff_dereference_is_rejected_loudly() {
    let (path_a, path_b) = (tmp("poff-a"), tmp("poff-b"));
    let pool_a = Pool::builder().path(&path_a).capacity(1 << 20).create().unwrap();
    // B is freshly created: it has no allocated block anywhere, so A's
    // offset can never name an allocated payload in it.
    let pool_b = Pool::builder().path(&path_b).capacity(1 << 20).create().unwrap();

    let off: POff<u64> = pool_a.alloc_value(123u64).unwrap();
    assert_eq!(unsafe { off.as_ref(&pool_a) }, Some(&123));
    // The graceful form rejects with None…
    assert_eq!(off.try_resolve(&pool_b), None);
    // …and the panicking form names the offending pool.
    let err = std::panic::catch_unwind(|| off.resolve(&pool_b))
        .expect_err("cross-pool POff::resolve must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("does not name an allocated block"),
        "unexpected panic message: {msg}"
    );

    drop(pool_a);
    drop(pool_b);
    std::fs::remove_file(&path_a).unwrap();
    std::fs::remove_file(&path_b).unwrap();
}

/// A pointer allocated from pool A handed to pool B's `dealloc` must be
/// rejected loudly (the block-ownership assert), never linked into B's
/// free lists.
#[test]
fn cross_pool_free_is_rejected_loudly() {
    let (path_a, path_b) = (tmp("free-a"), tmp("free-b"));
    let pool_a = Pool::builder().path(&path_a).capacity(1 << 20).create().unwrap();
    let pool_b = Pool::builder().path(&path_b).capacity(1 << 20).create().unwrap();

    let p = pool_a.alloc(64, 8).unwrap();
    let err = std::panic::catch_unwind(|| unsafe { pool_b.dealloc(p) })
        .expect_err("cross-pool dealloc must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("not in pool"), "unexpected panic message: {msg}");

    // Both pools are unharmed: A still owns the block, B's heap verifies.
    unsafe { pool_a.dealloc(p) };
    pool_a.verify_heap().unwrap();
    pool_b.verify_heap().unwrap();

    drop(pool_a);
    drop(pool_b);
    std::fs::remove_file(&path_a).unwrap();
    std::fs::remove_file(&path_b).unwrap();
}

/// Recovery GC runs per pool: stranding garbage in one pool is invisible
/// to the other's reopen.
#[test]
fn per_pool_gc_runs_independently() {
    let (path_a, path_b) = (tmp("gc-a"), tmp("gc-b"));
    {
        let pool_a = Pool::builder().path(&path_a).capacity(2 << 20).create().unwrap();
        let pool_b = Pool::builder().path(&path_b).capacity(2 << 20).create().unwrap();
        let list_a = pool_a.create_root::<PooledList>("set").unwrap();
        let list_b = pool_b.create_root::<PooledList>("set").unwrap();
        for k in 0..20u64 {
            list_a.insert(k, k);
            list_b.insert(k, k);
        }
        // Strand two blocks in A only (what a crash mid-operation leaves).
        pool_a.alloc(64, 8).unwrap();
        pool_a.alloc(500, 8).unwrap();
        list_a.close().unwrap();
        list_b.close().unwrap();
        drop(pool_a);
        drop(pool_b);
    }

    // Both closes sealed; open the images as a crash leaves them.
    unseal(&path_a);
    unseal(&path_b);
    let pool_a = Pool::builder().path(&path_a).open().unwrap();
    let pool_b = Pool::builder().path(&path_b).open().unwrap();
    let list_a = pool_a.root::<PooledList>("set").unwrap();
    let list_b = pool_b.root::<PooledList>("set").unwrap();
    let (ra, rb) = (pool_a.recovery_report(), pool_b.recovery_report());
    assert!(ra.gc_ran && rb.gc_ran);
    assert_eq!(ra.reclaimed_blocks, 2, "A's sweep must reclaim exactly A's orphans");
    assert_eq!(rb.reclaimed_blocks, 0, "B had no garbage — its sweep must find none");
    assert_eq!(list_a.len(), 20);
    assert_eq!(list_b.len(), 20);

    drop((list_a, list_b, pool_a, pool_b));
    std::fs::remove_file(&path_a).unwrap();
    std::fs::remove_file(&path_b).unwrap();
}
