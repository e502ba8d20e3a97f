//! Closing a pool while another thread still holds retired nodes.
//!
//! A removed node is retired into the pool's epoch collector and waits in the
//! removing thread's bag until every thread has moved on. The last pool
//! handle drains what it can and then closes the collector, so a node still
//! in another thread's bag at that moment stays allocated in the file — the
//! next open's recovery GC sweeps it — and is never freed later: not into an
//! unmapped range, and not, after a reopen at the same base, into a heap
//! whose GC already took the block back and may have handed it out again
//! (a double free).
//!
//! Such a close writes no sealed summary: the next open must walk the heap
//! and collect. Neither does a close while another thread still holds a
//! magazine of the pool's allocator, whose cached free blocks the summary
//! could not name.

use nvtraverse::policy::NvTraverse;
use nvtraverse::pool::Pool;
use nvtraverse::{DurableSet, TypedRoots};
use nvtraverse_pmem::MmapBackend;
use nvtraverse_structures::list::HarrisList;
use std::collections::BTreeSet;
use std::sync::{mpsc, Arc};

type List = HarrisList<u64, u64, NvTraverse<MmapBackend>>;

const KEYS: u64 = 64;
/// Fewer than the retires between two epoch advances, so the remover's bag
/// is never collected by its own operations.
const REMOVED: u64 = 16;

#[test]
fn a_retire_outstanding_at_close_is_swept_by_the_next_open_and_never_freed_again() {
    let path = std::env::temp_dir().join(format!("nvt-pool-close-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let pool = Pool::builder()
        .path(&path)
        .capacity(4 << 20)
        .create()
        .unwrap();
    let base = pool.base();
    let list = Arc::new(pool.create_root::<List>("l").unwrap());
    for k in 0..KEYS {
        assert!(list.insert(k, k * 10));
    }
    let before: BTreeSet<u64> = pool.live_offsets().into_iter().collect();

    // The remover retires REMOVED nodes, lets go of the list and parks with
    // them still in its bag.
    let (removed_tx, removed_rx) = mpsc::channel();
    let (exit_tx, exit_rx) = mpsc::channel::<()>();
    let remover = {
        let list = Arc::clone(&list);
        std::thread::spawn(move || {
            for k in 0..REMOVED {
                assert!(list.remove(k));
            }
            drop(list);
            removed_tx.send(()).unwrap();
            exit_rx.recv().unwrap();
        })
    };
    removed_rx.recv().unwrap();
    Arc::into_inner(list)
        .expect("the remover let go")
        .close()
        .unwrap();
    drop(pool);

    // Reopen the same file at the same base: the remover's nodes were still
    // allocated at the close, so the close sealed nothing and this open's
    // GC reclaims exactly them.
    let pool = Pool::builder().path(&path).open().unwrap();
    assert_eq!(pool.base(), base, "the reopen must map at the old base");
    let list = pool.root::<List>("l").unwrap();
    let report = pool.recovery_report();
    assert!(!report.sealed, "a close with a stranded bag sealed");
    assert!(report.gc_ran);
    assert_eq!(report.reclaimed_blocks, REMOVED as usize);
    let after: BTreeSet<u64> = pool.live_offsets().into_iter().collect();
    assert!(after.is_subset(&before));
    assert_eq!(before.difference(&after).count(), REMOVED as usize);
    // Hand the swept blocks out again before the remover exits. Every
    // allocated block is then a reachable node: the head and one per key.
    for k in 0..REMOVED {
        assert!(list.insert(k, k * 10 + 1));
    }
    // A payload starts 16 bytes past its block's header.
    let reachable: Vec<u64> = pool.verify_heap().unwrap().live.iter().map(|&(block, _)| block + 16).collect();
    assert_eq!(reachable.len(), 1 + list.len());

    // The remover's exit must not free its bag into the new mapping.
    exit_tx.send(()).unwrap();
    remover.join().unwrap();
    let freed: Vec<_> = reachable
        .iter()
        .filter(|&&off| !pool.is_allocated_payload(off))
        .collect();
    assert!(
        freed.is_empty(),
        "the remover's exit freed reachable nodes at {freed:?}"
    );
    // Nothing it freed can be handed out twice either.
    for k in KEYS..KEYS + 2 * REMOVED {
        assert!(list.insert(k, k * 10));
    }
    assert_eq!(pool.live_offsets().len(), 1 + list.len());
    for k in 0..KEYS + 2 * REMOVED {
        let want = if k < REMOVED { k * 10 + 1 } else { k * 10 };
        assert_eq!(list.get(k), Some(want), "key {k}");
    }
    list.check_consistency(false).unwrap();
    pool.verify_heap().unwrap();
    list.close().unwrap();
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_close_while_another_thread_holds_a_magazine_writes_no_seal() {
    let path = std::env::temp_dir().join(format!("nvt-pool-close-mag-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
    let list = Arc::new(pool.create_root::<List>("l").unwrap());
    for k in 0..KEYS {
        assert!(list.insert(k, k * 10));
    }

    // The inserter carves a slab for its nodes and keeps the spare blocks
    // in its magazine; it inserts only, so no bag of it holds anything.
    let (done_tx, done_rx) = mpsc::channel();
    let (exit_tx, exit_rx) = mpsc::channel::<()>();
    let inserter = {
        let list = Arc::clone(&list);
        std::thread::spawn(move || {
            for k in KEYS..KEYS + REMOVED {
                assert!(list.insert(k, k * 10));
            }
            drop(list);
            done_tx.send(()).unwrap();
            exit_rx.recv().unwrap();
        })
    };
    done_rx.recv().unwrap();
    Arc::into_inner(list).expect("the inserter let go").close().unwrap();
    drop(pool);

    let pool = Pool::builder().path(&path).open().unwrap();
    let list = pool.root::<List>("l").unwrap();
    let report = pool.recovery_report();
    assert!(!report.sealed, "a close with another thread's magazine sealed");
    assert!(report.gc_ran);
    assert_eq!(report.reclaimed_blocks, 0, "inserts strand nothing");
    // The walk found the magazine's blocks free.
    assert_eq!(report.free_blocks, pool.verify_heap().unwrap().free_blocks);
    assert!((0..KEYS + REMOVED).all(|k| list.get(k) == Some(k * 10)));
    exit_tx.send(()).unwrap();
    inserter.join().unwrap();
    list.check_consistency(false).unwrap();
    pool.verify_heap().unwrap();
    list.close().unwrap();
    drop(pool);

    // With every thread gone, the next close seals.
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(pool.recovery_report().sealed, "a close with no other thread left did not seal");
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}
