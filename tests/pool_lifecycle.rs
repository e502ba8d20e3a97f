//! In-process pool lifecycle: create a structure in a pool file, let go of
//! every volatile handle, reopen the pool, and find the data again.
//!
//! These tests cover the single-process half of the pool story; the
//! cross-process half (surviving SIGKILL) is `tests/crash_process.rs`.
//!
//! Pools are first-class (per-pool allocation contexts, no process-global
//! install), so these tests run concurrently — each on its own pool file,
//! with no serializing mutex.

use nvtraverse::policy::{NvTraverse, Soft};
use nvtraverse::pool::Pool;
use nvtraverse::{DurableSet, TypedRoots};
use nvtraverse_pmem::MmapBackend;
use nvtraverse_structures::ellen_bst::EllenBst;
use nvtraverse_structures::hash::HashMapDs;
use nvtraverse_structures::list::HarrisList;
use nvtraverse_structures::nm_bst::NmBst;
use nvtraverse_structures::queue::MsQueue;
use nvtraverse_structures::skiplist::SkipList;
use nvtraverse_structures::soft_hash::SoftHash;
use nvtraverse_structures::soft_list::SoftList;
use nvtraverse_structures::stack::TreiberStack;
use std::path::PathBuf;

mod common;
use common::{create_pooled, open_or_create_pooled, open_pooled, unseal};

type PooledList = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
type PooledMap = HashMapDs<u64, u64, NvTraverse<MmapBackend>>;
type PooledSkip = SkipList<u64, u64, NvTraverse<MmapBackend>>;
type PooledEllen = EllenBst<u64, u64, NvTraverse<MmapBackend>>;
type PooledNm = NmBst<u64, u64, NvTraverse<MmapBackend>>;
type PooledQueue = MsQueue<u64, NvTraverse<MmapBackend>>;
type PooledStack = TreiberStack<u64, NvTraverse<MmapBackend>>;
type PooledSoftList = SoftList<u64, u64, Soft<MmapBackend>>;
type PooledSoftHash = SoftHash<u64, u64, Soft<MmapBackend>>;

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "nvt-lifecycle-{}-{}.pool",
        std::process::id(),
        name
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn list_survives_close_and_reopen() {
    let path = tmp("list");

    {
        let list = create_pooled::<PooledList>(&path, 4 << 20, "set").unwrap();
        for k in 0..200u64 {
            assert!(list.insert(k, k * 10));
        }
        for k in (0..200u64).step_by(4) {
            assert!(list.remove(k));
        }
        assert_eq!(list.len(), 150);
        list.close().unwrap();
    }

    // Every volatile handle is gone; only the file remains. Reopen.
    {
        let list = open_pooled::<PooledList>(&path, "set").unwrap();
        assert_eq!(list.check_consistency(false).unwrap(), 150);
        for k in 0..200u64 {
            if k % 4 == 0 {
                assert_eq!(list.get(k), None, "removed key {k} resurrected");
            } else {
                assert_eq!(list.get(k), Some(k * 10), "lost key {k}");
            }
        }
        // The reopened structure is fully usable.
        assert!(list.insert(1000, 1));
        assert!(list.remove(1000));
        list.close().unwrap();
    }

    // And once more, to prove reopen does not degrade the pool.
    let list = open_pooled::<PooledList>(&path, "set").unwrap();
    assert_eq!(list.len(), 150);
    drop(list);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn hash_survives_close_and_reopen() {
    let path = tmp("hash");

    {
        let map = create_pooled::<PooledMap>(&path, 8 << 20, "kv").unwrap();
        for k in 0..500u64 {
            assert!(map.insert(k, k ^ 0xABCD));
        }
        for k in (0..500u64).step_by(3) {
            assert!(map.remove(k));
        }
        map.close().unwrap();
    }

    let map = open_pooled::<PooledMap>(&path, "kv").unwrap();
    map.check_consistency(false).unwrap();
    for k in 0..500u64 {
        if k % 3 == 0 {
            assert_eq!(map.get(k), None);
        } else {
            assert_eq!(map.get(k), Some(k ^ 0xABCD));
        }
    }
    drop(map);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn skiplist_survives_close_and_reopen_with_tower_rebuild() {
    let path = tmp("skiplist");

    {
        let s = create_pooled::<PooledSkip>(&path, 8 << 20, "skip").unwrap();
        for k in 0..600u64 {
            assert!(s.insert(k, k * 3));
        }
        for k in (0..600u64).step_by(3) {
            assert!(s.remove(k));
        }
        s.close().unwrap();
    }

    let s = open_pooled::<PooledSkip>(&path, "skip").unwrap();
    // check_consistency(false) audits the towers rebuilt by recovery: every
    // tower link must reference a live bottom node, sorted per level.
    assert_eq!(s.check_consistency(false).unwrap(), 400);
    for k in 0..600u64 {
        if k % 3 == 0 {
            assert_eq!(s.get(k), None, "removed key {k} resurrected");
        } else {
            assert_eq!(s.get(k), Some(k * 3), "lost key {k}");
        }
    }
    // Fully usable, including fresh tower draws past the reseeded sequence.
    for k in 1000..1100u64 {
        assert!(s.insert(k, k));
    }
    s.check_consistency(false).unwrap();
    s.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn ellen_bst_survives_close_and_reopen() {
    let path = tmp("ellen");

    {
        let t = create_pooled::<PooledEllen>(&path, 8 << 20, "tree").unwrap();
        for k in 0..400u64 {
            assert!(t.insert(k, k ^ 0xE11E));
        }
        for k in (0..400u64).step_by(5) {
            assert!(t.remove(k));
        }
        t.close().unwrap();
    }

    let t = open_pooled::<PooledEllen>(&path, "tree").unwrap();
    assert_eq!(t.check_consistency(true).unwrap(), 320);
    for k in 0..400u64 {
        if k % 5 == 0 {
            assert_eq!(t.get(k), None);
        } else {
            assert_eq!(t.get(k), Some(k ^ 0xE11E));
        }
    }
    assert!(t.insert(1000, 1));
    assert!(t.remove(1000));
    t.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn nm_bst_survives_close_and_reopen() {
    let path = tmp("nm");

    {
        let t = create_pooled::<PooledNm>(&path, 8 << 20, "tree").unwrap();
        for k in 0..400u64 {
            assert!(t.insert(k, k.rotate_left(17)));
        }
        for k in (0..400u64).step_by(7) {
            assert!(t.remove(k));
        }
        t.close().unwrap();
    }

    let t = open_pooled::<PooledNm>(&path, "tree").unwrap();
    assert_eq!(t.check_consistency(true).unwrap(), 400 - 400_usize.div_ceil(7));
    for k in 0..400u64 {
        if k % 7 == 0 {
            assert_eq!(t.get(k), None);
        } else {
            assert_eq!(t.get(k), Some(k.rotate_left(17)));
        }
    }
    assert!(t.insert(1000, 1));
    t.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn queue_survives_close_and_reopen_with_tail_rebuild() {
    let path = tmp("queue");

    {
        let q = create_pooled::<PooledQueue>(&path, 4 << 20, "fifo").unwrap();
        for v in 0..100u64 {
            q.enqueue(v);
        }
        for v in 0..25u64 {
            assert_eq!(q.dequeue(), Some(v));
        }
        q.close().unwrap();
    }

    let q = open_pooled::<PooledQueue>(&path, "fifo").unwrap();
    assert_eq!(q.iter_snapshot(), (25..100u64).collect::<Vec<_>>());
    // The recovered tail shortcut must land new values at the real end.
    q.enqueue(100);
    assert_eq!(q.dequeue(), Some(25));
    assert_eq!(q.len(), 75);
    assert_eq!(*q.iter_snapshot().last().unwrap(), 100);
    q.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn stack_survives_close_and_reopen() {
    let path = tmp("stack");

    {
        let s = create_pooled::<PooledStack>(&path, 4 << 20, "lifo").unwrap();
        for v in 0..60u64 {
            s.push(v);
        }
        for v in (45..60u64).rev() {
            assert_eq!(s.pop(), Some(v));
        }
        s.close().unwrap();
    }

    let s = open_pooled::<PooledStack>(&path, "lifo").unwrap();
    assert_eq!(s.iter_snapshot(), (0..45u64).rev().collect::<Vec<_>>());
    s.push(99);
    assert_eq!(s.pop(), Some(99));
    assert_eq!(s.pop(), Some(44));
    assert_eq!(s.len(), 44);
    s.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn missing_root_and_wrong_name_fail_cleanly() {
    let path = tmp("wrongname");
    {
        let list = create_pooled::<PooledList>(&path, 1 << 20, "right").unwrap();
        list.insert(1, 1);
        list.close().unwrap();
    }
    let err = open_pooled::<PooledList>(&path, "wrong").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    // The right name still works afterwards.
    let list = open_pooled::<PooledList>(&path, "right").unwrap();
    assert_eq!(list.get(1), Some(1));
    drop(list);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn open_or_create_roundtrip() {
    let path = tmp("ooc");
    {
        let list = open_or_create_pooled::<PooledList>(&path, 1 << 20, "s").unwrap();
        assert!(list.is_empty());
        list.insert(7, 70);
        list.close().unwrap();
    }
    let list = open_or_create_pooled::<PooledList>(&path, 1 << 20, "s").unwrap();
    assert_eq!(list.get(7), Some(70));
    drop(list);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn open_or_create_heals_interrupted_creation() {
    let path = tmp("heal");

    // State 1: a crash between Pool::create and root registration — the
    // pool is valid but the named structure does not exist.
    nvtraverse::pool::Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
    let list = open_or_create_pooled::<PooledList>(&path, 1 << 20, "s")
        .expect("must finish the interrupted creation, not fail forever");
    list.insert(5, 50);
    list.close().unwrap();
    let list = open_pooled::<PooledList>(&path, "s").unwrap();
    assert_eq!(list.get(5), Some(50));
    drop(list);
    std::fs::remove_file(&path).unwrap();

    // State 2: a crash before the pool magic was persisted — an all-zero
    // file. open_or_create must recreate rather than fail forever.
    std::fs::write(&path, vec![0u8; 1 << 20]).unwrap();
    let list = open_or_create_pooled::<PooledList>(&path, 1 << 20, "s").unwrap();
    assert!(list.is_empty());
    drop(list);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn deliberately_orphaned_allocation_is_swept_on_reopen() {
    let path = tmp("orphan");

    let orphan_count;
    {
        let list = create_pooled::<PooledList>(&path, 4 << 20, "set").unwrap();
        for k in 0..50u64 {
            assert!(list.insert(k, k));
        }
        // Strand blocks the way a crash does: allocate from the pool and
        // register them nowhere. A clean close cannot return these (no
        // collector ever saw them); only the reopen mark-sweep can.
        let sizes = [24usize, 100, 1000, 70_000];
        orphan_count = sizes.len();
        for size in sizes {
            list.pool().alloc(size, 8).unwrap();
        }
        list.close().unwrap();
    }

    // The clean close sealed the pool; the typed attach collects nothing
    // on a sealed open, so
    // open the image as a crash leaves it.
    unseal(&path);
    let list = open_pooled::<PooledList>(&path, "set").unwrap();
    let report = list.pool().recovery_report();
    assert!(report.gc_ran, "single traced root: the GC must run");
    assert_eq!(
        report.reclaimed_blocks, orphan_count,
        "the sweep must reclaim exactly the orphans (clean close drained the rest)"
    );
    assert!(
        report.reclaimed_bytes >= (24 + 100 + 1000 + 70_000) as u64,
        "reclaimed bytes must cover the orphans' payloads"
    );
    // The report breaks the recovery down by phase: the open really walked
    // the heap, and `gc_nanos` is by definition the mark+sweep portion —
    // the breakdown must account for it exactly.
    assert!(report.phases.heap_walk_nanos > 0, "reopen must time the heap walk");
    assert_eq!(
        report.phases.mark_nanos + report.phases.sweep_nanos,
        report.gc_nanos,
        "phase breakdown must sum exactly to gc_nanos"
    );
    // Per-root mark counts: one traced root, and it marks the head
    // sentinel plus the 50 live nodes (the orphans are unreachable by
    // construction, so they are not marked — they are swept).
    assert_eq!(
        report.root_marks,
        vec![("set".to_string(), 51)],
        "per-root mark count must be exactly the reachable block count"
    );
    // The reachable data is untouched…
    assert_eq!(list.check_consistency(false).unwrap(), 50);
    for k in 0..50u64 {
        assert_eq!(list.get(k), Some(k), "GC must never free reachable nodes");
    }
    // …and the footprint is exact again: head sentinel + 50 nodes.
    assert_eq!(list.pool().live_offsets().len(), 51);
    // The swept blocks really are reusable (oversize included).
    let p = list.pool().alloc(70_000, 8).unwrap();
    unsafe { list.pool().dealloc(p) };
    list.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

/// A pool holding a root the open's schema does not name must NOT be
/// collected: that root's reachability is unprovable, so the crashed
/// open refuses, sweeping nothing, instead of keeping or freeing blocks
/// on a guess. A sealed open has nothing to recover and only attaches.
#[test]
fn gc_skips_pools_with_untraceable_roots() {
    let path = tmp("no-tracer");

    let (raw, orphan);
    {
        let list = create_pooled::<PooledList>(&path, 1 << 20, "set").unwrap();
        for k in 0..20u64 {
            assert!(list.insert(k, k));
        }
        let pool = list.pool();
        raw = pool.offset_of(pool.alloc(64, 8).unwrap());
        // A raw root no structure type describes (like the storm test's
        // slot array): no schema names it.
        pool.set_root_offset("raw-root", raw).unwrap();
        orphan = pool.offset_of(pool.alloc(64, 8).unwrap());
        list.close().unwrap();
    }
    let before = std::fs::read(&path).unwrap();
    refused_sealed_and_walked(&path, &before, |pool| {
        let opened = pool.root::<PooledList>("set");
        if pool.recovery_report().sealed {
            return opened.is_ok();
        }
        let err = opened.unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        let live = pool.live_offsets();
        live.contains(&(raw - 16)) && live.contains(&(orphan - 16))
    });
    std::fs::remove_file(&path).unwrap();
}

/// A failed wrong-typed `create` against somebody else's pool file leaves
/// that pool alone: the next typed open collects it with its own type's
/// tracer, reclaims nothing and finds every value.
#[test]
fn a_failed_create_leaves_the_next_collection_intact() {
    let path = tmp("foreign");

    // The "foreign" pool: a queue registered under the name a list will
    // later (wrongly) try to claim.
    let q = create_pooled::<PooledQueue>(&path, 1 << 20, "r").unwrap();
    for v in 0..20u64 {
        q.enqueue(v);
    }
    q.close().unwrap();

    // Wrong-typed create fails on the existing file.
    assert!(create_pooled::<PooledList>(&path, 1 << 20, "r").is_err());

    // The reopen GCs with the queue's own tracer, and the queue's data is
    // intact.
    unseal(&path);
    let q = open_pooled::<PooledQueue>(&path, "r").unwrap();
    assert!(q.pool().recovery_report().gc_ran);
    assert_eq!(q.pool().recovery_report().reclaimed_blocks, 0);
    assert_eq!(q.iter_snapshot(), (0..20u64).collect::<Vec<_>>());
    q.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

/// The collection traces a root as the type the attach names, never as a
/// type an earlier file at the same path held. Here a stack is created at
/// a path by the typed API, the file is deleted, and a list is built at
/// the same path under the same root name by `create_in_pool` — what
/// another process writing the path amounts to. A reopen that traced the
/// list as a stack would mark only its head and sweep every node, and the
/// inserts after it would overwrite the keys.
#[test]
fn a_reused_pool_path_never_traces_with_the_old_files_type() {
    use nvtraverse::PoolAttach;
    let path = tmp("reused-path");
    let stack = create_pooled::<PooledStack>(&path, 1 << 20, "x").unwrap();
    stack.push(7);
    stack.close().unwrap();
    std::fs::remove_file(&path).unwrap();
    {
        let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        let list = PooledList::create_in_pool(&pool, "x").unwrap();
        for k in 0..100u64 {
            assert!(list.insert(k, k * 3));
        }
        drop(list);
    }

    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    let list = pool.root::<PooledList>("x").unwrap();
    for k in 1000..1100u64 {
        assert!(list.insert(k, k));
    }
    let missing = (0..100u64).filter(|&k| list.get(k) != Some(k * 3)).count();
    assert_eq!(missing, 0, "{missing} of 100 keys lost");
    pool.verify_heap().unwrap();
    let report = pool.recovery_report();
    assert!(report.gc_ran);
    assert_eq!(report.reclaimed_blocks, 0, "live list nodes were swept: {report:?}");
    assert_eq!(report.root_marks, vec![("x".to_string(), 101)]);
    list.close().unwrap();
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

/// Two roots in one pool are opened by one typed call that names both.
/// After a crash that call traces both roots, sweeps exactly the block
/// neither reaches and recovers both structures, so the session's clean
/// close seals again and the next open reads the summary.
#[test]
fn two_structures_share_one_pool() {
    let path = tmp("two");
    {
        // Secondary roots are first-class: just ask the pool for a second
        // named root — no create/attach/adopt dance.
        let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
        let a = pool.create_root::<PooledList>("a").unwrap();
        let b = pool.create_root::<PooledList>("b").unwrap();
        for k in 0..100u64 {
            assert!(a.insert(k, k + 100));
            assert!(b.insert(k + 1000, k + 200));
        }
        // An orphan: allocated, linked nowhere, as a crash mid-insert
        // leaves one.
        pool.alloc(64, 8).unwrap();
        b.close().unwrap();
        a.close().unwrap();
    }
    let check = |pool: &Pool| {
        let (a, b) = pool.open_roots::<(PooledList, PooledList)>(["a", "b"]).unwrap();
        for k in 0..100u64 {
            assert_eq!(a.get(k), Some(k + 100));
            assert_eq!(b.get(k + 1000), Some(k + 200));
        }
        assert_eq!(a.get(1000), None, "structures must be disjoint");
        assert_eq!((a.len(), b.len()), (100, 100));
    };
    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    check(&pool);
    let report = pool.recovery_report();
    assert!(report.gc_ran && !report.sealed);
    assert_eq!(report.reclaimed_blocks, 1, "exactly the orphan is swept");
    // Multi-root attribution: each root reports its own mark count
    // (sentinel + 100 nodes each), regardless of registry order.
    let mut marks = report.root_marks;
    marks.sort();
    assert_eq!(
        marks,
        vec![("a".to_string(), 101), ("b".to_string(), 101)],
        "each root must report the blocks marked from it"
    );
    assert_eq!(pool.live_offsets().len(), 202);
    drop(pool);
    for _ in 0..2 {
        let pool = Pool::builder().path(&path).open().unwrap();
        let report = pool.recovery_report();
        assert!(report.sealed, "the recovered session's close did not seal");
        assert!(!report.gc_ran);
        assert_eq!(report.live_blocks, 202);
        check(&pool);
    }
    std::fs::remove_file(&path).unwrap();
}

/// `create_root` must refuse to overwrite a live root: the raw registry
/// would replace the slot's offset, orphaning the previous structure's
/// whole node graph for the next open's GC to silently reclaim.
#[test]
fn create_root_refuses_to_overwrite_a_live_root() {
    let path = tmp("no-overwrite");
    let pool = Pool::builder().path(&path).capacity(2 << 20).create().unwrap();
    let a = pool.create_root::<PooledList>("kv").unwrap();
    a.insert(1, 10);
    let err = pool.create_root::<PooledList>("kv").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    // The original structure is untouched, and root_or_create attaches to
    // it instead of recreating.
    assert_eq!(a.get(1), Some(10));
    drop(a);
    std::fs::remove_file(&path).unwrap();
}

/// The bucket table's root block `[n, head_off…]` is read back from media
/// on every open (by the GC tracer inside `root::<S>` after a crash, then
/// by attach), so nothing in it may be trusted: a count the block cannot
/// hold and a head offset that names no allocated block must both surface
/// as an `Err` from `root::<S>` — not a panic, not a read past the mapping,
/// not a table quietly missing a bucket. The tracer refuses such a root,
/// so a crashed open sweeps nothing (the table's nodes would otherwise all
/// be unreachable garbage to the sweep), and sealed or crashed, the
/// refused open leaves the file as it was.
#[test]
fn corrupt_bucket_table_root_is_rejected_not_trusted() {
    use std::os::unix::fs::FileExt;
    const CAPACITY: u64 = 2 << 20;

    // `patch(root_off)` names the file offset to overwrite and the word to
    // put there (pool offsets are file offsets).
    fn check<S: nvtraverse::PoolTrace + DurableSet<u64, u64>>(
        tag: &str,
        patch: fn(u64) -> (u64, u64),
    ) {
        let path = tmp(tag);
        let root_off;
        {
            let map = create_pooled::<S>(&path, CAPACITY, "set").unwrap();
            for k in 0..100u64 {
                assert!(map.insert(k, k));
            }
            root_off = map.pool().root_offset("set").unwrap();
            map.close().unwrap();
        }
        let (at, word) = patch(root_off);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&word.to_le_bytes(), at).unwrap();
        drop(file);

        // Sealed, attach rejects the root; crashed, root::<S> traces it
        // before attach ever sees it, and the tracer refuses it.
        let before = std::fs::read(&path).unwrap();
        refused_sealed_and_walked(&path, &before, |pool| pool.root::<S>("set").is_err());
        std::fs::remove_file(&path).unwrap();
    }

    // (a) 2^20 buckets would need an 8 MiB root block — four times the pool.
    let huge_count: fn(u64) -> (u64, u64) = |root| (root, 1 << 20);
    // (b) bucket 3's head: in the pool and aligned, but far past the
    // frontier, so no allocated block starts there.
    let stray_head: fn(u64) -> (u64, u64) = |root| (root + 8 * (1 + 3), CAPACITY - 4096);
    check::<PooledMap>("corrupt-nvt-count", huge_count);
    check::<PooledMap>("corrupt-nvt-head", stray_head);
    check::<PooledSoftHash>("corrupt-soft-count", huge_count);
    check::<PooledSoftHash>("corrupt-soft-head", stray_head);
}

/// A skiplist pool written under another node layout — its head's value
/// word holds 0 where this layout keeps its tag, as every pool written
/// before the tag existed does — is refused, not destroyed. Traced as
/// this layout, its `next[0]` would be another word: the GC would mark the
/// wrong blocks and its sweep would durably free live nodes. Instead the
/// tracer refuses (no sweep, `gc_ran` false), the attach fails, and the
/// file keeps every byte.
#[test]
fn skiplist_pool_of_another_layout_is_refused_not_destroyed() {
    use nvtraverse::TypedRoots;
    use std::os::unix::fs::FileExt;
    let path = tmp("skip-layout");
    let head;
    {
        let s = create_pooled::<PooledSkip>(&path, 4 << 20, "skip").unwrap();
        for k in 0..300u64 {
            assert!(s.insert(k, k * 3));
        }
        for k in (0..300u64).step_by(3) {
            assert!(s.remove(k));
        }
        head = s.pool().root_offset("skip").unwrap();
        s.close().unwrap();
    }
    // Word 1 of the head sentinel (pool offsets are file offsets).
    let stamp = |word: &[u8; 8]| {
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(word, head + 8).unwrap();
    };
    stamp(&[0; 8]);
    let before = std::fs::read(&path).unwrap();

    refused_sealed_and_walked(&path, &before, |pool| pool.root::<PooledSkip>("skip").is_err());

    // Nothing was lost: with its tag back, the list opens with every key.
    stamp(b"SKIPv003");
    let s = open_pooled::<PooledSkip>(&path, "skip").unwrap();
    assert_eq!(s.check_consistency(false).unwrap(), 200);
    assert!((0..300u64).all(|k| s.get(k) == (k % 3 != 0).then_some(k * 3)));
    s.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

/// Opens the image `before` (a sealed close's, one word stamped, or one
/// holding a root no schema names) twice and requires `refuses(pool)` each
/// time. Sealed, no tracer runs and only the attach can refuse; the file
/// keeps every byte. With its clean flag cleared, as a crash leaves it, the
/// open walks and the typed open refuses the collection: nothing is swept,
/// the heap verifies, and the close — of a session that never recovered —
/// writes no seal, so only the header's clean flag (1) and signature
/// (poisoned) differ. The sealed image is put back at the end.
fn refused_sealed_and_walked(path: &std::path::Path, before: &[u8], refuses: impl Fn(&Pool) -> bool) {
    for sealed in [true, false] {
        if !sealed {
            unseal(path);
        }
        let pool = Pool::builder().path(path).open().unwrap();
        assert_eq!(pool.recovery_report().sealed, sealed);
        assert!(refuses(&pool), "the open was not refused (sealed: {sealed})");
        let report = pool.recovery_report();
        assert!(!report.gc_ran && report.reclaimed_blocks == 0, "a refusing tracer must not sweep");
        pool.verify_heap().unwrap();
        drop(pool);
        let after = std::fs::read(path).unwrap();
        if sealed {
            assert!(after == before, "the refused sealed open changed the file");
        } else {
            assert!(after[..40] == before[..40] && after[56..] == before[56..], "the refused open changed the file");
            assert_eq!(after[40..48], 1u64.to_le_bytes(), "a walk that never collected sealed");
        }
    }
    std::fs::write(path, before).unwrap();
}

/// A SOFT pool written under another node layout — a head sentinel whose
/// value word holds 0 where this layout keeps its `"SOFTv003"` tag, as
/// every pool written under the seven-word layout does, or `"SOFTv002"`,
/// whose head may hold no `seq` lease — is refused, not destroyed. Probed
/// as this layout, about half of a seven-word pool's live nodes would read
/// as tombstones and be swept, and a lease of 0 would issue generations
/// its headers already hold. Instead the tracer refuses (no sweep,
/// `gc_ran` false) and the attach fails, for a list and for a table with
/// one such bucket head, and the file keeps every byte.
#[test]
fn soft_pool_of_another_layout_is_refused_not_destroyed() {
    use std::os::unix::fs::FileExt;

    /// `head_of(file, root)` is the file offset of the head sentinel whose
    /// tag is zeroed (pool offsets are file offsets).
    fn check<S: nvtraverse::PoolTrace + DurableSet<u64, u64>>(
        tag: &str,
        head_of: fn(&std::fs::File, u64) -> u64,
    ) {
        let path = tmp(tag);
        let root;
        {
            let s = create_pooled::<S>(&path, 8 << 20, "soft").unwrap();
            for k in 0..300u64 {
                assert!(s.insert(k, k * 3));
            }
            for k in (0..300u64).step_by(3) {
                assert!(s.remove(k));
            }
            root = s.pool().root_offset("soft").unwrap();
            s.close().unwrap();
        }
        let file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        // Word 2 of the head sentinel: its value word.
        let tag_at = head_of(&file, root) + 16;
        let mut saved = [0u8; 8];
        file.read_exact_at(&mut saved, tag_at).unwrap();
        assert_eq!(&saved, b"SOFTv003", "{tag}: the head carries no layout tag");
        for old in [[0; 8], *b"SOFTv002"] {
            file.write_all_at(&old, tag_at).unwrap();
            let before = std::fs::read(&path).unwrap();
            refused_sealed_and_walked(&path, &before, |pool| pool.root::<S>("soft").is_err());
        }

        // Nothing was lost: with its tag back, the set opens with every key.
        file.write_all_at(&saved, tag_at).unwrap();
        drop(file);
        unseal(&path);
        let s = open_pooled::<S>(&path, "soft").unwrap();
        assert!(s.pool().recovery_report().gc_ran, "{tag}");
        assert_eq!(s.len(), 200, "{tag}");
        assert!((0..300u64).all(|k| s.get(k) == (k % 3 != 0).then_some(k * 3)), "{tag}");
        s.close().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
    check::<PooledSoftList>("soft-list-layout", |_, root| root);
    // The table's root block is `[n, head_off…]`: bucket 0's head.
    check::<PooledSoftHash>("soft-hash-layout", |file, root| {
        let mut word = [0u8; 8];
        file.read_exact_at(&mut word, root + 8).unwrap();
        u64::from_le_bytes(word)
    });
}

/// A sealed open runs no tracer and no recovery, for any pooled type: the
/// attach to a cleanly closed structure flushes and fences nothing (a
/// queue whose adoption walk re-flushed every link, or a stack that
/// re-flushed `top`, would) and finds the contents the close left.
#[test]
fn a_sealed_open_persists_nothing_for_any_pooled_type() {
    use nvtraverse::PoolTrace;
    use nvtraverse_obs as obs;
    if !obs::enabled() {
        return; // NVT_OBS=off: nothing is counted
    }

    /// Fills a fresh `S` with `fill`, closes it cleanly, and attaches to it
    /// from a sealed open under an attributed metric set: nothing persisted,
    /// and `contents` (with the type's consistency check, where it has one)
    /// reads what it read before the close.
    fn check<S: PoolTrace, T: PartialEq + std::fmt::Debug>(
        tag: &str,
        fill: impl Fn(&S),
        contents: impl Fn(&S) -> T,
    ) {
        let path = tmp(tag);
        let want = {
            let s = create_pooled::<S>(&path, 4 << 20, "s").unwrap();
            fill(&s);
            let want = contents(&s);
            s.close().unwrap();
            want
        };
        let pool = Pool::builder().path(&path).open().unwrap();
        assert!(pool.recovery_report().sealed, "{tag}: the close did not seal");
        let set: &'static obs::MetricSet = Box::leak(Box::new(obs::MetricSet::new(1)));
        let s = {
            let _t = obs::attribute_to(Some(set));
            pool.root::<S>("s").unwrap()
        };
        let m = set.snapshot();
        assert_eq!((m.total_flushes(), m.total_fences()), (0, 0), "{tag}: a sealed open persisted something");
        assert_eq!(contents(&s), want, "{tag}");
        s.close().unwrap();
        drop(pool);
        std::fs::remove_file(&path).unwrap();
    }
    fn fill_set<S: DurableSet<u64, u64>>(s: &S) {
        for k in 0..300u64 {
            assert!(s.insert(k * 7 % 300, k));
        }
        for k in (0..300u64).step_by(4) {
            assert!(s.remove(k));
        }
    }

    check::<PooledList, _>("sealed-list", fill_set, |s| (s.check_consistency(false), s.iter_snapshot()));
    check::<PooledMap, _>("sealed-map", fill_set, |s| (s.check_consistency(false), s.iter_snapshot()));
    check::<PooledSkip, _>("sealed-skip", fill_set, |s| (s.check_consistency(false), s.iter_snapshot()));
    check::<PooledEllen, _>("sealed-ellen", fill_set, |s| (s.check_consistency(true), s.iter_snapshot()));
    check::<PooledNm, _>("sealed-nm", fill_set, |s| (s.check_consistency(true), s.iter_snapshot()));
    check::<PooledSoftList, _>("sealed-soft-list", fill_set, |s| (s.check_consistency(false), s.iter_snapshot()));
    check::<PooledSoftHash, _>("sealed-soft-hash", fill_set, |s| (s.check_consistency(false), s.iter_snapshot()));
    check::<PooledQueue, _>(
        "sealed-queue",
        |q| {
            (0..300u64).for_each(|v| q.enqueue(v));
            (0..75u64).for_each(|v| assert_eq!(q.dequeue(), Some(v)));
        },
        |q| q.iter_snapshot(),
    );
    check::<PooledStack, _>(
        "sealed-stack",
        |st| {
            (0..300u64).for_each(|v| st.push(v));
            (0..75u64).for_each(|_| assert!(st.pop().is_some()));
        },
        |st| st.iter_snapshot(),
    );
}

/// Builds a pool whose free blocks' link words follow no address order: a
/// hash table that inserted and removed keys, then raw blocks allocated and
/// freed (highest first) on a thread that exits — more frees than one
/// magazine holds, so blocks left the magazine tier in drain batches and
/// at the thread's exit, each batch linking them in its own order. An open
/// that rebuilt free lists by storing links in address order would change
/// bytes of this file. Returns the number of keys the table holds and the
/// header offset of a block past the middle of the heap with free blocks
/// below it — found before the close, since on a build whose open rewrote
/// link words even a looking open would settle them.
fn churned_image(path: &std::path::Path) -> (usize, u64) {
    let map = create_pooled::<PooledMap>(path, 4 << 20, "set").unwrap();
    for k in 0..600u64 {
        assert!(map.insert(k, k * 7));
    }
    for k in (0..600u64).step_by(3) {
        assert!(map.remove(k));
    }
    let pool = map.pool().clone();
    std::thread::spawn(move || {
        let blocks: Vec<usize> = (0..300).map(|_| pool.alloc(40, 8).unwrap() as usize).collect();
        for p in blocks.into_iter().rev() {
            // SAFETY: allocated above, referenced by nobody.
            unsafe { pool.dealloc(p as *mut u8) };
        }
    })
    .join()
    .unwrap();
    let heap = map.pool().verify_heap().unwrap();
    let victim = heap.live.iter().map(|&(off, _)| off).find(|&off| off > heap.frontier / 2).unwrap();
    // Consecutive live blocks with a gap between them: free blocks.
    let free_below = heap.live.windows(2).any(|w| w[1].0 < victim && w[0].0 + 16 + w[0].1 < w[1].0);
    assert!(free_below, "no free block below {victim:#x}");
    map.close().unwrap();
    (400, victim)
}

/// The allocator's recovery only reads: free blocks wait in a volatile
/// bitmap until an allocation claims them, and the table's recovery runs
/// only on chains whose trace crossed a marked link. So a clean open, a read-only
/// session and a close leave the file exactly as they found it.
#[test]
fn a_clean_open_and_close_leave_the_file_byte_identical() {
    let path = tmp("open-writes-nothing");
    let (keys, _) = churned_image(&path);
    let before = std::fs::read(&path).unwrap();
    let map = open_pooled::<PooledMap>(&path, "set").unwrap();
    let report = map.pool().recovery_report();
    assert!(report.sealed && report.clean_shutdown);
    assert!(report.free_blocks > 64, "too few free blocks to tell: {report:?}");
    assert_eq!(map.len(), keys);
    assert!((0..600u64).all(|k| map.get(k) == (k % 3 != 0).then_some(k * 7)));
    map.close().unwrap();
    assert!(std::fs::read(&path).unwrap() == before, "a clean open and close changed the file");
    std::fs::remove_file(&path).unwrap();
}

/// A clean SOFT open reads every node header and link and writes neither:
/// the relink finds each link already right and stores nothing. Measured
/// as the dirty memory of the pool's mapping right after the open (a
/// relink that rewrote every link dirtied every node page, megabytes
/// here), then as the file's bytes after the close.
#[cfg(target_os = "linux")]
#[test]
fn a_clean_soft_open_dirties_no_node_page() {
    const KEYS: u64 = 1 << 15;
    let path = tmp("soft-open-writes-nothing");
    {
        let map = create_pooled::<PooledSoftHash>(&path, 16 << 20, "kv").unwrap();
        for k in 0..KEYS {
            assert!(map.insert(k, k ^ 0x5A));
        }
        map.close().unwrap();
    }
    let before = std::fs::read(&path).unwrap();
    let map = open_pooled::<PooledSoftHash>(&path, "kv").unwrap();
    let report = map.pool().recovery_report();
    assert!(report.sealed && report.clean_shutdown);
    let dirty = dirty_kib(map.pool().base(), map.pool().capacity());
    assert!(dirty <= 64, "a clean open dirtied {dirty} KiB of the pool");
    assert_eq!(map.len(), KEYS as usize);
    assert!((0..KEYS).all(|k| map.get(k) == Some(k ^ 0x5A)));
    map.close().unwrap();
    assert!(std::fs::read(&path).unwrap() == before, "a clean open and close changed the file");
    std::fs::remove_file(&path).unwrap();
}

/// The skiplist twin of `a_clean_soft_open_dirties_no_node_page`: the
/// trace verifies every tower word and `link_state` against what recovery
/// would store, so a clean open stores into no node.
#[cfg(target_os = "linux")]
#[test]
fn a_clean_skiplist_open_dirties_no_node_page() {
    const KEYS: u64 = 1 << 15;
    let path = tmp("skiplist-open-writes-nothing");
    {
        let s = create_pooled::<PooledSkip>(&path, 8 << 20, "skip").unwrap();
        for i in 0..KEYS {
            let k = i * 2_654_435_761 % KEYS;
            assert!(s.insert(k, k ^ 0x5A));
        }
        s.close().unwrap();
    }
    let before = std::fs::read(&path).unwrap();
    let s = open_pooled::<PooledSkip>(&path, "skip").unwrap();
    let report = s.pool().recovery_report();
    assert!(report.sealed && report.clean_shutdown);
    let dirty = dirty_kib(s.pool().base(), s.pool().capacity());
    assert!(dirty <= 64, "a clean open dirtied {dirty} KiB of the pool");
    assert_eq!(s.len(), KEYS as usize);
    assert!((0..KEYS).all(|k| s.get(k) == Some(k ^ 0x5A)));
    s.close().unwrap();
    assert!(std::fs::read(&path).unwrap() == before, "a clean open and close changed the file");
    std::fs::remove_file(&path).unwrap();
}

/// `Private_Dirty + Shared_Dirty`, in KiB, of this process's mappings that
/// overlap `[base, base + len)`, from `/proc/self/smaps`.
#[cfg(target_os = "linux")]
fn dirty_kib(base: usize, len: u64) -> u64 {
    let end = base + len as usize;
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
    let (mut inside, mut kib) = (false, 0);
    for line in smaps.lines() {
        let mut words = line.split_whitespace();
        let Some(first) = words.next() else { continue };
        let range = first.split_once('-').and_then(|(lo, hi)| {
            Some((usize::from_str_radix(lo, 16).ok()?, usize::from_str_radix(hi, 16).ok()?))
        });
        if let Some((lo, hi)) = range {
            inside = lo < end && hi > base;
        } else if inside && matches!(first, "Private_Dirty:" | "Shared_Dirty:") {
            kib += words.next().unwrap().parse::<u64>().unwrap();
        }
    }
    kib
}

/// An open that rejects the image — here a block header zeroed past the
/// middle of the heap, with free blocks below it — has written nothing by
/// the time the walk reaches the corruption.
#[test]
fn an_open_rejected_by_a_corrupt_header_leaves_the_file_byte_identical() {
    use std::os::unix::fs::FileExt;
    let path = tmp("rejected-open-writes-nothing");
    let (_, victim) = churned_image(&path);
    // Pool offsets are file offsets; a zero size word fails the walk.
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.write_all_at(&0u64.to_le_bytes(), victim).unwrap();
    drop(file);
    // Cleared as a crash leaves it: a sealed open would not walk at all.
    unseal(&path);
    let before = std::fs::read(&path).unwrap();
    let err = Pool::builder().path(&path).open().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(std::fs::read(&path).unwrap() == before, "the rejected open changed the file");
    std::fs::remove_file(&path).unwrap();
}

/// SOFT keeps every link word volatile, so a close/reopen loses the entire
/// chain by construction — attach must rebuild it from nothing but the
/// per-node validity headers. This is the single-process version of the
/// recovery-rebuild contract (the SIGKILL version is `crash_process.rs`).
#[test]
fn soft_list_survives_close_and_reopen() {
    let path = tmp("soft-list");

    {
        let list = create_pooled::<PooledSoftList>(&path, 4 << 20, "set").unwrap();
        for k in 0..200u64 {
            assert!(list.insert(k, k * 10));
        }
        for k in (0..200u64).step_by(4) {
            assert!(list.remove(k));
        }
        assert_eq!(list.len(), 150);
        list.close().unwrap();
    }

    unseal(&path);
    {
        let list = open_pooled::<PooledSoftList>(&path, "set").unwrap();
        // GC ran, and the marks from this root are exactly the head
        // sentinel plus one mark per sealed node: SOFT reachability is
        // proved by header, not by following (volatile, now-stale) links.
        let report = list.pool().recovery_report();
        assert!(report.gc_ran);
        assert_eq!(
            report.root_marks,
            vec![("set".to_string(), 151)],
            "marks must be the sentinel + every sealed node"
        );
        assert_eq!(list.check_consistency(false).unwrap(), 150);
        for k in 0..200u64 {
            if k % 4 == 0 {
                assert_eq!(list.get(k), None, "removed key {k} resurrected");
            } else {
                assert_eq!(list.get(k), Some(k * 10), "lost key {k}");
            }
        }
        // The reopened structure is fully usable.
        assert!(list.insert(1000, 1));
        assert!(list.remove(1000));
        list.close().unwrap();
    }

    // And once more, to prove reopen does not degrade the pool.
    let list = open_pooled::<PooledSoftList>(&path, "set").unwrap();
    assert_eq!(list.len(), 150);
    drop(list);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn soft_hash_survives_close_and_reopen() {
    let path = tmp("soft-hash");

    {
        let map = create_pooled::<PooledSoftHash>(&path, 8 << 20, "kv").unwrap();
        for k in 0..500u64 {
            assert!(map.insert(k, k ^ 0xABCD));
        }
        for k in (0..500u64).step_by(3) {
            assert!(map.remove(k));
        }
        map.close().unwrap();
    }

    unseal(&path);
    let map = open_pooled::<PooledSoftHash>(&path, "kv").unwrap();
    assert!(map.pool().recovery_report().gc_ran);
    map.check_consistency(false).unwrap();
    for k in 0..500u64 {
        if k % 3 == 0 {
            assert_eq!(map.get(k), None);
        } else {
            assert_eq!(map.get(k), Some(k ^ 0xABCD));
        }
    }
    // Still fully usable after the per-bucket rebuild.
    assert!(map.insert(10_000, 1));
    assert_eq!(map.get(10_000), Some(1));
    drop(map);
    std::fs::remove_file(&path).unwrap();
}

/// A cleanly closed pool image, addressed word by word: where its blocks
/// lie, recorded before the close. Pool offsets are file offsets, and a
/// link holds an absolute address, `base + offset`.
struct Image {
    path: PathBuf,
    base: u64,
    /// Payload offsets of the allocated blocks, the root's excepted.
    blocks: Vec<u64>,
}

impl Image {
    /// Closes `set`, the root named `name` of the pool at `path`.
    fn close<S: nvtraverse::PoolTrace>(set: nvtraverse::PooledHandle<S>, name: &str, path: &std::path::Path) -> Self {
        let pool = set.pool();
        let root = pool.root_offset(name).unwrap();
        let heap = pool.verify_heap().unwrap();
        let blocks = heap.live.iter().map(|&(off, _)| off + 16).filter(|&p| p != root).collect();
        let base = pool.base() as u64;
        set.close().unwrap();
        Image { path: path.to_path_buf(), base, blocks }
    }

    /// Word `i` of the payload at `block`.
    fn word(&self, block: u64, i: u64) -> u64 {
        use std::os::unix::fs::FileExt;
        let mut word = [0u8; 8];
        std::fs::File::open(&self.path).unwrap().read_exact_at(&mut word, block + 8 * i).unwrap();
        u64::from_le_bytes(word)
    }

    /// Rewrites word `i` of the payload at `block`: the one-word tamper.
    /// The clean flag goes with it, so the open verifies the structure
    /// instead of trusting the close's seal.
    fn set_word(&self, block: u64, i: u64, value: u64) {
        use std::os::unix::fs::FileExt;
        let file = std::fs::OpenOptions::new().write(true).open(&self.path).unwrap();
        file.write_all_at(&value.to_le_bytes(), block + 8 * i).unwrap();
        unseal(&self.path);
    }

    /// The address a link to `block` holds.
    fn addr(&self, block: u64) -> u64 {
        self.base + block
    }
}

/// Skiplist node words: `key, value, meta (height << 56 | parent),
/// link_state, next[0], next[1], …`.
const SKIP_LINK_STATE: u64 = 3;
const SKIP_NEXT: u64 = 4;

/// 600 keys (value `3k`) in a skiplist, closed cleanly; and the file's
/// bytes, untampered.
fn closed_skiplist(path: &std::path::Path) -> (Image, Vec<u8>) {
    let s = create_pooled::<PooledSkip>(path, 4 << 20, "skip").unwrap();
    for i in 0..600u64 {
        assert!(s.insert(i * 7 % 600, i * 7 % 600 * 3));
    }
    let image = Image::close(s, "skip", path);
    let bytes = std::fs::read(path).unwrap();
    (image, bytes)
}

/// Opens a tampered image, which the open must rebuild: every key but
/// `gone` (the one the tamper deleted) is there, the structure is
/// consistent, and — when the tamper deleted nothing — the rebuild restored
/// the word, so after the close the file is the untampered one again.
fn rebuilt<S: nvtraverse::PoolTrace + DurableSet<u64, u64>>(
    image: &Image,
    name: &str,
    untampered: &[u8],
    keys: std::ops::Range<u64>,
    value: impl Fn(u64) -> u64,
    gone: Option<u64>,
    consistent: impl Fn(&S) -> Result<usize, String>,
) {
    let set = open_pooled::<S>(&image.path, name).unwrap();
    let want = keys.end - keys.start - u64::from(gone.is_some());
    assert_eq!(consistent(&set), Ok(want as usize), "not rebuilt");
    for k in keys {
        assert_eq!(set.get(k), (Some(k) != gone).then(|| value(k)), "key {k}");
    }
    set.close().unwrap();
    if gone.is_none() {
        assert!(std::fs::read(&image.path).unwrap() == untampered, "the open left the tampered word");
    }
    std::fs::remove_file(&image.path).unwrap();
}

/// A tower word naming its own node — a stale shortcut the trace must
/// compare, not follow — sends the open to the rebuild.
#[test]
fn a_wrong_tower_word_rebuilds_the_skiplist() {
    let path = tmp("tamper-skip-tower");
    let (image, untampered) = closed_skiplist(&path);
    let node = *image.blocks.iter().find(|&&b| image.word(b, 2) >> 56 >= 2).unwrap();
    image.set_word(node, SKIP_NEXT + 1, image.addr(node));
    rebuilt::<PooledSkip>(&image, "skip", &untampered, 0..600, |k| k * 3, None, |s| s.check_consistency(false));
}

/// A `link_state` left at `THREADING` (0) — an inserter that never
/// finished, as a crash leaves it — is reset by the rebuild.
#[test]
fn a_threading_link_state_rebuilds_the_skiplist() {
    let path = tmp("tamper-skip-threading");
    let (image, untampered) = closed_skiplist(&path);
    let node = image.blocks[image.blocks.len() / 2];
    assert_eq!(image.word(node, SKIP_LINK_STATE), 1, "not LINKED");
    image.set_word(node, SKIP_LINK_STATE, 0);
    rebuilt::<PooledSkip>(&image, "skip", &untampered, 0..600, |k| k * 3, None, |s| s.check_consistency(false));
}

/// A marked bottom link — a remove that crashed between its mark and its
/// unlink — is a deletion the rebuild completes.
#[test]
fn a_marked_bottom_link_rebuilds_the_skiplist() {
    let path = tmp("tamper-skip-marked");
    let (image, untampered) = closed_skiplist(&path);
    let node = image.blocks[image.blocks.len() / 3];
    image.set_word(node, SKIP_NEXT, image.word(node, SKIP_NEXT) | 1);
    let key = image.word(node, 0);
    rebuilt::<PooledSkip>(&image, "skip", &untampered, 0..600, |k| k * 3, Some(key), |s| s.check_consistency(false));
}

/// SOFT node words: `vstart, key, value, owner, seq, next`.
const SOFT_OWNER: u64 = 3;
const SOFT_NEXT: u64 = 5;

/// 2 000 keys (value `k ^ 0x5A`) in a SOFT table, closed cleanly; each
/// bucket's chain in link order (key order, on a clean image); and the
/// file's bytes, untampered.
fn closed_soft_hash(path: &std::path::Path) -> (Image, Vec<Vec<u64>>, Vec<u8>) {
    let map = create_pooled::<PooledSoftHash>(path, 4 << 20, "kv").unwrap();
    for k in 0..2000u64 {
        assert!(map.insert(k, k ^ 0x5A));
    }
    let image = Image::close(map, "kv", path);
    let mut chains = std::collections::BTreeMap::<u64, Vec<(u64, u64)>>::new();
    // Heads own nothing (owner 0).
    for &b in image.blocks.iter().filter(|&&b| image.word(b, SOFT_OWNER) != 0) {
        chains.entry(image.word(b, SOFT_OWNER)).or_default().push((image.word(b, 1), b));
    }
    let chains = chains
        .into_values()
        .map(|mut chain| {
            chain.sort_unstable();
            chain.into_iter().map(|(_, b)| b).collect()
        })
        .collect();
    let bytes = std::fs::read(path).unwrap();
    (image, chains, bytes)
}

/// A bucket link that skips one sealed node leaves a straggler: the
/// trace finds it among the unmarked blocks, and its bucket relinks.
#[test]
fn a_soft_link_skipping_a_sealed_node_rebuilds_its_bucket() {
    let path = tmp("tamper-soft-skip");
    let (image, chains, untampered) = closed_soft_hash(&path);
    let chain = &chains[0];
    image.set_word(chain[0], SOFT_NEXT, image.addr(chain[2]));
    rebuilt::<PooledSoftHash>(&image, "kv", &untampered, 0..2000, |k| k ^ 0x5A, None, |m| m.check_consistency(false));
}

/// A bucket link into another bucket's node: that node's `owner` names
/// the other list.
#[test]
fn a_soft_link_into_another_bucket_rebuilds_its_bucket() {
    let path = tmp("tamper-soft-foreign");
    let (image, chains, untampered) = closed_soft_hash(&path);
    image.set_word(chains[0][0], SOFT_NEXT, image.addr(chains[1][1]));
    rebuilt::<PooledSoftHash>(&image, "kv", &untampered, 0..2000, |k| k ^ 0x5A, None, |m| m.check_consistency(false));
}

/// A marked link out of a live node — a remove's tombstone store lost
/// while its mark reached the media. The seal is live, so the key stays:
/// the node that holds the link is relinked, the mark cleared.
#[test]
fn a_soft_marked_link_rebuilds_its_bucket() {
    let path = tmp("tamper-soft-marked");
    let (image, chains, untampered) = closed_soft_hash(&path);
    let chain = &chains[3];
    image.set_word(chain[1], SOFT_NEXT, image.word(chain[1], SOFT_NEXT) | 1);
    rebuilt::<PooledSoftHash>(&image, "kv", &untampered, 0..2000, |k| k ^ 0x5A, None, |m| m.check_consistency(false));
}

/// A link back to a smaller key: the chain's keys descend there.
#[test]
fn a_soft_descending_pair_rebuilds_its_bucket() {
    let path = tmp("tamper-soft-descending");
    let (image, chains, untampered) = closed_soft_hash(&path);
    let chain = &chains[2];
    image.set_word(chain[2], SOFT_NEXT, image.addr(chain[0]));
    rebuilt::<PooledSoftHash>(&image, "kv", &untampered, 0..2000, |k| k ^ 0x5A, None, |m| m.check_consistency(false));
}
