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
use nvtraverse_structures::pqueue::PriorityQueue;
use nvtraverse_structures::queue::MsQueue;
use nvtraverse_structures::skiplist::SkipList;
use nvtraverse_structures::soft_hash::SoftHash;
use nvtraverse_structures::soft_list::SoftList;
use nvtraverse_structures::stack::TreiberStack;
use std::path::PathBuf;

mod common;
use common::{create_pooled, open_or_create_pooled, open_pooled};

type PooledList = HarrisList<u64, u64, NvTraverse<MmapBackend>>;
type PooledMap = HashMapDs<u64, u64, NvTraverse<MmapBackend>>;
type PooledSkip = SkipList<u64, u64, NvTraverse<MmapBackend>>;
type PooledEllen = EllenBst<u64, u64, NvTraverse<MmapBackend>>;
type PooledNm = NmBst<u64, u64, NvTraverse<MmapBackend>>;
type PooledQueue = MsQueue<u64, NvTraverse<MmapBackend>>;
type PooledStack = TreiberStack<u64, NvTraverse<MmapBackend>>;
type PooledPq = PriorityQueue<u64, u64, NvTraverse<MmapBackend>>;
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
fn priority_queue_survives_close_and_reopen() {
    let path = tmp("pq");

    {
        let pq = create_pooled::<PooledPq>(&path, 4 << 20, "heap").unwrap();
        for p in [9u64, 2, 7, 4, 11, 1] {
            assert!(pq.push(p, p * 100));
        }
        assert_eq!(pq.pop_min(), Some((1, 100)));
        pq.close().unwrap();
    }

    let pq = open_pooled::<PooledPq>(&path, "heap").unwrap();
    assert_eq!(pq.check_consistency(false).unwrap(), 5);
    assert_eq!(pq.pop_min(), Some((2, 200)));
    assert_eq!(pq.peek_min(), Some((4, 400)));
    assert!(pq.push(3, 300), "usable after reopen");
    assert_eq!(pq.pop_min(), Some((3, 300)));
    pq.close().unwrap();
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

/// A pool whose roots lack a registered tracer must NOT be collected:
/// reachability is unprovable, so the conservative answer is to keep
/// every allocated block.
#[test]
fn gc_skips_pools_with_untraceable_roots() {
    let path = tmp("no-tracer");

    let off;
    {
        let pool = nvtraverse::pool::Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        let p = pool.alloc(64, 8).unwrap();
        off = pool.offset_of(p);
        // A raw root no structure type describes (like the storm test's
        // slot array): nobody registers a tracer for it.
        pool.set_root_offset("raw-root", off).unwrap();
    }

    let pool = nvtraverse::pool::Pool::builder().path(&path).open().unwrap();
    let report = pool.recovery_report();
    assert!(!report.gc_ran, "an untraceable root must disable the GC");
    assert_eq!(report.reclaimed_blocks, 0);
    assert_eq!(
        pool.live_offsets(),
        vec![off - 16],
        "the unprovable block must survive untouched"
    );
    drop(pool);
    std::fs::remove_file(&path).unwrap();
}

/// A failed `create` against somebody else's pool file must not leave (or
/// overwrite) a GC tracer for that pool's roots: the next open would run a
/// wrong-typed trace over live data.
#[test]
fn failed_create_does_not_poison_the_tracer_registry() {
    let path = tmp("foreign");

    // The "foreign" pool: a queue registered under the name a list will
    // later (wrongly) try to claim.
    let q = create_pooled::<PooledQueue>(&path, 1 << 20, "r").unwrap();
    for v in 0..20u64 {
        q.enqueue(v);
    }
    q.close().unwrap();

    // Wrong-typed create fails on the existing file — and must not have
    // registered (or replaced) a tracer for (path, "r").
    assert!(create_pooled::<PooledList>(&path, 1 << 20, "r").is_err());

    // A raw reopen still GCs with the queue's own tracer (from its create)
    // and the queue's data is intact.
    let pool = nvtraverse::pool::Pool::builder().path(&path).open().unwrap();
    assert!(pool.recovery_report().gc_ran);
    assert_eq!(pool.recovery_report().reclaimed_blocks, 0);
    drop(pool);
    let q = open_pooled::<PooledQueue>(&path, "r").unwrap();
    assert_eq!(q.iter_snapshot(), (0..20u64).collect::<Vec<_>>());
    q.close().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn two_structures_share_one_pool() {
    let path = tmp("two");
    {
        // Secondary roots are first-class now: just ask the pool for a
        // second named root — no create/attach/adopt dance.
        let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
        let a = pool.create_root::<PooledList>("a").unwrap();
        let b = pool.create_root::<PooledList>("b").unwrap();
        a.insert(1, 100);
        b.insert(2, 200);
        b.close().unwrap();
        a.close().unwrap();
    }
    let pool = Pool::builder().path(&path).open().unwrap();
    // Multi-root GC: both tracers were registered by the creation above
    // (same process), so the open itself ran the mark-sweep eagerly.
    assert!(pool.recovery_report().gc_ran);
    assert_eq!(pool.recovery_report().reclaimed_blocks, 0);
    // Multi-root attribution: each root reports its own mark count
    // (sentinel + one node each), regardless of registry order.
    let mut marks = pool.recovery_report().root_marks;
    marks.sort();
    assert_eq!(
        marks,
        vec![("a".to_string(), 2), ("b".to_string(), 2)],
        "each root must report the blocks marked from it"
    );
    let a = pool.root::<PooledList>("a").unwrap();
    let b = pool.root::<PooledList>("b").unwrap();
    assert_eq!(a.get(1), Some(100));
    assert_eq!(a.get(2), None, "structures must be disjoint");
    assert_eq!(b.get(2), Some(200));
    drop(b);
    drop(a);
    drop(pool);
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
/// on every open (by the GC tracer inside `Pool::open`, then by attach), so
/// nothing in it may be trusted: a count the block cannot hold and a head
/// offset that names no allocated block must both surface as an `Err` from
/// `root::<S>` — not a panic, not a read past the mapping, not a table
/// quietly missing a bucket.
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

        // create_pooled registered S's tracer for this path, so the open
        // itself traces the corrupt root before attach ever sees it.
        let pool = Pool::builder().path(&path).open().unwrap();
        assert!(pool.recovery_report().gc_ran);
        assert!(pool.root::<S>("set").is_err(), "{tag}: corrupt root attached");
        pool.verify_heap().unwrap();
        drop(pool);
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
/// tracer refuses (no sweep, `gc_ran` false) and the attach fails, as a
/// `SkipList` and as a `PriorityQueue`, and the file keeps every byte.
#[test]
fn skiplist_pool_of_another_layout_is_refused_not_destroyed() {
    use nvtraverse::{PoolTrace, TypedRoots};
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

    fn refused<S: PoolTrace>(path: &std::path::Path, before: &[u8]) {
        let pool = Pool::builder().path(path).open().unwrap();
        assert!(!pool.recovery_report().gc_ran, "a refusing tracer must not sweep");
        assert!(pool.root::<S>("skip").is_err(), "an old-layout head attached");
        let report = pool.recovery_report();
        assert!(!report.gc_ran && report.reclaimed_blocks == 0);
        pool.verify_heap().unwrap();
        drop(pool);
        assert!(std::fs::read(path).unwrap() == before, "the refused open changed the file");
    }
    refused::<PooledSkip>(&path, &before);
    refused::<PooledPq>(&path, &before);

    // Nothing was lost: with its tag back, the list opens with every key.
    stamp(b"SKIPv003");
    let s = open_pooled::<PooledSkip>(&path, "skip").unwrap();
    assert_eq!(s.check_consistency(false).unwrap(), 200);
    assert!((0..300u64).all(|k| s.get(k) == (k % 3 != 0).then_some(k * 3)));
    s.close().unwrap();
    std::fs::remove_file(&path).unwrap();
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
/// bitmap until an allocation claims them, and the table's recovery scan
/// is skipped on the GC's clean verdict. So a clean open, a read-only
/// session and a close leave the file exactly as they found it.
#[test]
fn a_clean_open_and_close_leave_the_file_byte_identical() {
    let path = tmp("open-writes-nothing");
    let (keys, _) = churned_image(&path);
    let before = std::fs::read(&path).unwrap();
    let map = open_pooled::<PooledMap>(&path, "set").unwrap();
    let report = map.pool().recovery_report();
    assert!(report.gc_ran && report.clean_shutdown);
    assert!(report.free_blocks > 64, "too few free blocks to tell: {report:?}");
    assert_eq!(map.len(), keys);
    assert!((0..600u64).all(|k| map.get(k) == (k % 3 != 0).then_some(k * 7)));
    map.close().unwrap();
    assert!(std::fs::read(&path).unwrap() == before, "a clean open and close changed the file");
    std::fs::remove_file(&path).unwrap();
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
