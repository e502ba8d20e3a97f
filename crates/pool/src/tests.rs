//! Unit tests: allocator behaviour, roots, reopen recovery, rebasing.

use super::*;

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "nvt-pool-test-{}-{}.pool",
        std::process::id(),
        name
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
}

/// Clears a closed pool file's clean flag, as a crash would leave it: the
/// next open walks the heap and keeps the inventory a collection needs,
/// instead of reading the sealed summary.
fn unseal(p: &Path) {
    use std::os::unix::fs::FileExt;
    let file = OpenOptions::new().write(true).open(p).unwrap();
    file.write_all_at(&0u64.to_le_bytes(), OFF_CLEAN).unwrap();
}

/// [`Pool::collect`] with `trace` as the tracer of root `name` and a
/// recovery that attaches nothing: whether it succeeded.
///
/// # Safety
///
/// As for [`Pool::collect`].
unsafe fn collect(pool: &Pool, name: &str, trace: unsafe fn(*mut u8, &mut gc::Marker<'_>)) -> bool {
    // SAFETY: forwarded.
    unsafe { pool.collect(&mut [(name, &mut |root, marker| trace(root, marker))], || Ok(())) }.is_ok()
}

#[test]
fn create_rejects_tiny_and_duplicate() {
    let path = tmp("tiny");
    assert!(Pool::builder().path(&path).capacity(1024).create().is_err());
    let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    assert!(Pool::builder().path(&path).capacity(MIN_CAPACITY).create().is_err(), "file exists");
    drop(pool);
    cleanup(&path);
}

#[test]
fn open_rejects_non_pool_files() {
    let path = tmp("garbage");
    std::fs::write(&path, vec![0xABu8; MIN_CAPACITY as usize]).unwrap();
    let err = Pool::builder().path(&path).open().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    cleanup(&path);
}

#[test]
fn alloc_is_aligned_in_pool_and_usable() {
    let path = tmp("align");
    let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
    for size in [1usize, 8, 16, 17, 48, 100, 1000, 5000] {
        let p = pool.alloc(size, 8).unwrap();
        assert_eq!(p as usize % BLOCK_ALIGN as usize, 0);
        assert!(pool.contains(p as *const u8));
        assert!(pool.usable_size(p as *const u8) >= size as u64);
        unsafe { std::ptr::write_bytes(p, 0x5A, size) };
    }
    pool.verify_heap().unwrap();
    drop(pool);
    cleanup(&path);
}

#[test]
fn free_list_reuses_blocks_per_class() {
    let path = tmp("reuse");
    let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
    let a = pool.alloc(40, 8).unwrap(); // class 64
    let b = pool.alloc(40, 8).unwrap();
    assert_ne!(a, b);
    unsafe { pool.dealloc(a) };
    let c = pool.alloc(33, 8).unwrap(); // same class → reuses a
    assert_eq!(a, c);
    // A different class must not reuse it.
    unsafe { pool.dealloc(b) };
    let d = pool.alloc(500, 8).unwrap();
    assert_ne!(b, d);
    pool.verify_heap().unwrap();
    drop(pool);
    cleanup(&path);
}

#[test]
fn oversize_blocks_first_fit_and_reuse() {
    let path = tmp("oversize");
    let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
    let big = pool.alloc(100_000, 16).unwrap();
    let bigger = pool.alloc(200_000, 16).unwrap();
    unsafe { pool.dealloc(big) };
    unsafe { pool.dealloc(bigger) };
    // 150k fits only in the 200k block (first fit over the list).
    let p = pool.alloc(150_000, 16).unwrap();
    assert_eq!(p, bigger);
    // 90k fits in the freed 100k block.
    let q = pool.alloc(90_000, 16).unwrap();
    assert_eq!(q, big);
    pool.verify_heap().unwrap();
    drop(pool);
    cleanup(&path);
}

#[test]
fn exhaustion_returns_none_not_panic() {
    let path = tmp("exhaust");
    let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    let mut n = 0;
    while pool.alloc(4096, 8).is_some() {
        n += 1;
        assert!(n < 1000, "pool never filled");
    }
    assert!(n > 0, "nothing allocated before exhaustion");
    // Small allocations may still fit; the pool must stay consistent.
    pool.verify_heap().unwrap();
    drop(pool);
    cleanup(&path);
}

#[test]
#[should_panic(expected = "double free")]
fn double_free_is_detected() {
    let path = tmp("dfree");
    let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
    let p = pool.alloc(64, 8).unwrap();
    unsafe {
        pool.dealloc(p);
        pool.dealloc(p); // must panic
    }
}

#[test]
fn roots_set_get_overwrite() {
    let path = tmp("roots");
    let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
    assert_eq!(pool.root_offset("list"), None);
    pool.set_root_offset("list", 4096).unwrap();
    pool.set_root_offset("map", 8192).unwrap();
    assert_eq!(pool.root_offset("list"), Some(4096));
    assert_eq!(pool.root_offset("map"), Some(8192));
    pool.set_root_offset("list", 12288).unwrap(); // overwrite
    assert_eq!(pool.root_offset("list"), Some(12288));
    assert_eq!(pool.roots().len(), 2);
    // Name limits: empty, too long, and embedded NUL (would alias the
    // NUL-terminated on-disk form) are all rejected.
    assert!(pool.set_root_offset("", 1).is_err());
    assert!(pool.set_root_offset(&"x".repeat(MAX_ROOT_NAME + 1), 1).is_err());
    assert!(pool.set_root_offset("a\0b", 1).is_err());
    assert!(pool.set_root_offset("\0", 1).is_err());
    assert!(pool.set_root_offset(&"y".repeat(MAX_ROOT_NAME), 1).is_ok());
    drop(pool);
    cleanup(&path);
}

#[test]
fn open_or_create_heals_a_crashed_create() {
    let path = tmp("heal");
    // A file whose magic never got persisted (all-zero prefix) is exactly
    // what a crash during Pool::create leaves behind.
    std::fs::write(&path, vec![0u8; MIN_CAPACITY as usize]).unwrap();
    assert!(Pool::builder().path(&path).open().is_err(), "plain open must still refuse");
    let pool = Pool::builder().path(&path).capacity(1 << 20).open_or_create().unwrap();
    assert_eq!(pool.capacity(), 1 << 20, "must have been recreated");
    drop(pool);
    // A file with a non-zero, non-magic prefix is somebody else's data:
    // open_or_create must refuse to destroy it.
    std::fs::remove_file(&path).unwrap();
    std::fs::write(&path, vec![0xABu8; MIN_CAPACITY as usize]).unwrap();
    assert!(Pool::builder().path(&path).capacity(1 << 20).open_or_create().is_err());
    cleanup(&path);
}

#[test]
fn root_slots_exhaust_cleanly() {
    let path = tmp("rootfull");
    let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
    for i in 0..MAX_ROOTS {
        pool.set_root_offset(&format!("r{i}"), i as u64 + 1).unwrap();
    }
    assert!(pool.set_root_offset("one-too-many", 99).is_err());
    // A full registry still repoints an existing name.
    pool.set_root_offset("r3", 99).unwrap();
    assert_eq!(pool.root_offset("r3"), Some(99));
    drop(pool);
    cleanup(&path);
}

#[test]
fn reopen_preserves_data_roots_and_free_lists() {
    let path = tmp("reopen");
    let (off_keep, off_freed);
    {
        let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        let keep = pool.alloc(64, 8).unwrap();
        unsafe { (keep as *mut u64).write(0xFACE_FEED) };
        nvtraverse_pmem::MmapBackend::flush(keep);
        nvtraverse_pmem::MmapBackend::fence();
        let freed = pool.alloc(64, 8).unwrap();
        off_keep = pool.offset_of(keep as *const u8);
        off_freed = pool.offset_of(freed as *const u8);
        unsafe { pool.dealloc(freed) };
        pool.set_root_offset("keep", off_keep).unwrap();
    }
    let pool = Pool::builder().path(&path).open().unwrap();
    let report = pool.recovery_report();
    assert_eq!(report.live_blocks, 1);
    // The explicitly freed block plus the rest of its carved slab.
    assert!(report.free_blocks >= 1, "freed block lost: {report:?}");
    assert!(report.clean_shutdown);
    // Root and payload survive.
    assert_eq!(pool.root_offset("keep"), Some(off_keep));
    let keep = pool.at(off_keep) as *const u64;
    assert_eq!(unsafe { keep.read() }, 0xFACE_FEED);
    // The rebuilt free lists serve recovered blocks before carving anew:
    // the frontier must not move, and the freed block must be reusable.
    let frontier_before = pool.verify_heap().unwrap().frontier;
    let mut got = Vec::new();
    loop {
        let p = pool.alloc(64, 8).unwrap();
        let off = pool.offset_of(p as *const u8);
        assert_ne!(off, off_keep, "live block handed out twice");
        let found = off == off_freed;
        got.push(p);
        if found {
            break;
        }
        assert!(got.len() < 1000, "freed block never served again");
    }
    assert_eq!(
        pool.verify_heap().unwrap().frontier,
        frontier_before,
        "allocator carved fresh space while recovered free blocks existed"
    );
    for p in got {
        unsafe { pool.dealloc(p) };
    }
    pool.verify_heap().unwrap();
    drop(pool);
    cleanup(&path);
}

#[test]
fn reopen_reproduces_live_set_exactly() {
    let path = tmp("liveset");
    let before;
    {
        let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        let mut held = Vec::new();
        for i in 0..50usize {
            let p = pool.alloc(16 + i * 7, 8).unwrap();
            held.push(p);
        }
        for p in held.iter().step_by(3) {
            unsafe { pool.dealloc(*p) };
        }
        before = pool.live_offsets();
    }
    let pool = Pool::builder().path(&path).open().unwrap();
    assert_eq!(pool.live_offsets(), before);
    drop(pool);
    cleanup(&path);
}

#[test]
fn concurrent_second_open_is_refused() {
    let path = tmp("locked");
    let pool1 = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
    // The flock makes pools single-writer: a second open of a live pool
    // must fail instead of racing two allocators over the same pages.
    let err = Pool::builder().path(&path).open().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::WouldBlock, "{err}");
    drop(pool1);
    // Released with the descriptor: reopening now succeeds.
    let pool = Pool::builder().path(&path).open().unwrap();
    drop(pool);
    cleanup(&path);
}

/// A child process that another thread forks holds a copy of every
/// descriptor until its `exec`. A pool's close must still release the lock
/// at once, or a reopen right after the close meets `WouldBlock`.
#[test]
fn a_close_releases_the_lock_while_a_forked_child_holds_the_descriptor() {
    use std::io::{Read, Write};
    use std::os::unix::process::CommandExt;
    let path = tmp("fork-lock");
    let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    let (mut forked, child_side) = std::io::pipe().unwrap();
    let child = std::thread::spawn(move || {
        let mut cmd = std::process::Command::new("true");
        // SAFETY: the hook only writes to a pipe and sleeps, both
        // async-signal-safe.
        unsafe {
            cmd.pre_exec(move || {
                (&child_side).write_all(&[1])?;
                std::thread::sleep(std::time::Duration::from_millis(300));
                Ok(())
            });
        }
        cmd.status().unwrap()
    });
    // The child has forked, with the pool's descriptor, and waits to exec.
    forked.read_exact(&mut [0]).unwrap();
    drop(pool);
    let reopened = Pool::builder().path(&path).open();
    assert!(child.join().unwrap().success());
    drop(reopened.expect("a closed pool stayed locked while a forked child held its descriptor"));
    cleanup(&path);
}

#[cfg(target_os = "linux")]
#[test]
fn occupied_preferred_base_forces_rebased_open() {
    let path = tmp("rebase");
    let (base1, cap) = {
        let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        pool.set_root_offset("r", 4242).unwrap();
        (pool.base(), pool.capacity() as usize)
    };
    // Squat on the recorded base so the next open cannot have it.
    assert!(
        mmap::reserve_anon_at(base1, cap),
        "could not occupy the preferred base for the test"
    );
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(pool.is_rebased());
    assert_ne!(pool.base(), base1);
    // Offset-based access still works on a rebased mapping.
    assert_eq!(pool.root_offset("r"), Some(4242));
    drop(pool);
    mmap::unmap(base1, cap);
    // A rebased open must NOT have re-recorded its temporary base: with the
    // original range free again, the pool maps at its true home and the
    // embedded absolute pointers are valid — not silently "non-rebased" at
    // the wrong address.
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(!pool.is_rebased());
    assert_eq!(pool.base(), base1, "preferred base lost across rebased open");
    drop(pool);
    cleanup(&path);
}

#[test]
fn same_base_on_clean_reopen() {
    let path = tmp("samebase");
    let base1 = {
        let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        pool.base()
    };
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(!pool.is_rebased());
    assert_eq!(pool.base(), base1);
    drop(pool);
    cleanup(&path);
}

#[test]
fn remote_frees_are_reusable_without_fresh_carving() {
    // Blocks allocated here, freed on another thread: the freeing thread's
    // magazines must drain back to the class bitmap when it exits, so this thread
    // can reallocate every block without moving the frontier.
    let path = tmp("remote-free");
    let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
    let blocks: Vec<usize> = (0..40)
        .map(|_| pool.alloc(48, 8).unwrap() as usize)
        .collect();
    let frontier = pool.verify_heap().unwrap().frontier;
    {
        let pool = pool.clone();
        let blocks = blocks.clone();
        std::thread::spawn(move || {
            for p in blocks {
                unsafe { pool.dealloc(p as *mut u8) };
            }
        })
        .join()
        .unwrap();
    }
    assert_eq!(pool.verify_heap().unwrap().live.len(), 0);
    let again: Vec<*mut u8> = (0..40).map(|_| pool.alloc(48, 8).unwrap()).collect();
    assert_eq!(
        pool.verify_heap().unwrap().frontier,
        frontier,
        "remote-freed blocks were stranded; allocator carved fresh space"
    );
    for p in again {
        unsafe { pool.dealloc(p) };
    }
    drop(pool);
    cleanup(&path);
}

#[test]
fn a_drain_writes_only_the_free_bit() {
    // A drain hands blocks to the class bitmap without touching the heap
    // beyond the free bit it flushes: no link word, no other header bit.
    let path = tmp("drain-writes");
    let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
    let mem = pool.inner.mem;
    let blocks: Vec<u64> =
        (0..300).map(|_| pool.offset_of(pool.alloc(48, 8).unwrap()) - BLOCK_HEADER).collect();
    let before: Vec<(u64, u64)> = blocks.iter().map(|&b| (mem.load(b), mem.load(b + 8))).collect();
    {
        let pool = pool.clone();
        let blocks = blocks.clone();
        // The magazine overflows and drains while freeing; the thread's
        // exit drains the rest.
        std::thread::spawn(move || {
            for b in blocks {
                // SAFETY: allocated above, referenced by nobody.
                unsafe { pool.dealloc(pool.at(b + BLOCK_HEADER)) };
            }
        })
        .join()
        .unwrap();
    }
    for (&b, &(w0, w1)) in blocks.iter().zip(&before) {
        assert_eq!(mem.load(b) ^ w0, W0_ALLOCATED, "block {b:#x}: word 0 changed beyond the free bit");
        assert_eq!(mem.load(b + 8), w1, "block {b:#x}: a drain rewrote word 1");
    }
    assert_eq!(pool.verify_heap().unwrap().live.len(), 0);
    drop(pool);
    cleanup(&path);
}

#[test]
fn mixed_class_concurrent_churn_with_oversize() {
    // All three tiers under concurrency: magazines (small classes),
    // class bitmaps (cross-thread frees), the slab frontier, and the
    // mutexed oversize path.
    let path = tmp("mixed-churn");
    let pool = Pool::builder().path(&path).capacity(64 << 20).create().unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = pool.clone();
            s.spawn(move || {
                let mut held: Vec<(*mut u8, usize)> = Vec::new();
                let mut x = t.wrapping_mul(0x9E37_79B9) + 1;
                for i in 0..1500u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 3 != 0 || held.is_empty() {
                        // Mostly small, occasionally oversize (> 64 KiB).
                        let size = if i % 97 == 0 {
                            70_000 + (x % 50_000) as usize
                        } else {
                            8 + (x % 3000) as usize
                        };
                        if let Some(p) = pool.alloc(size, 8) {
                            unsafe { std::ptr::write_bytes(p, t as u8 + 1, size) };
                            held.push((p, size));
                        }
                    } else {
                        let (p, size) = held.swap_remove((x % held.len() as u64) as usize);
                        let b = unsafe { p.read() };
                        assert_eq!(b, t as u8 + 1, "payload of {p:p} ({size}B) corrupted");
                        unsafe { pool.dealloc(p) };
                    }
                }
                for (p, _) in held {
                    unsafe { pool.dealloc(p) };
                }
            });
        }
    });
    let report = pool.verify_heap().unwrap();
    assert_eq!(report.live.len(), 0, "all blocks were freed");
    drop(pool);
    cleanup(&path);
}

#[test]
fn concurrent_alloc_free_stress_keeps_heap_consistent() {
    let path = tmp("stress");
    let pool = Pool::builder().path(&path).capacity(8 << 20).create().unwrap();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let pool = pool.clone();
            s.spawn(move || {
                let mut held: Vec<*mut u8> = Vec::new();
                let mut x = t.wrapping_mul(0x9E37_79B9) + 1;
                for _ in 0..2000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x % 3 != 0 || held.is_empty() {
                        let size = 16 + (x % 300) as usize;
                        if let Some(p) = pool.alloc(size, 8) {
                            unsafe { std::ptr::write_bytes(p, t as u8, size) };
                            held.push(p);
                        }
                    } else {
                        let p = held.swap_remove((x % held.len() as u64) as usize);
                        unsafe { pool.dealloc(p) };
                    }
                }
                for p in held {
                    unsafe { pool.dealloc(p) };
                }
            });
        }
    });
    let report = pool.verify_heap().unwrap();
    assert_eq!(report.live.len(), 0, "all blocks were freed");
    drop(pool);
    cleanup(&path);
}

// ---- builder, recovery collection, payload validation -----------------------------------

#[test]
fn builder_requires_path_and_capacity() {
    let e = Pool::builder().create().unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    assert!(e.to_string().contains("path"));
    let e = Pool::builder().path(tmp("nocap")).create().unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    assert!(e.to_string().contains("capacity"));
    let e = Pool::builder().open().unwrap_err();
    assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    // open never needs a capacity: the file dictates it.
    let path = tmp("nocap-open");
    {
        let _p = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    }
    let p = Pool::builder().path(&path).open().unwrap();
    drop(p);
    cleanup(&path);
}

unsafe fn mark_root(root: *mut u8, marker: &mut gc::Marker<'_>) {
    marker.mark(root);
}

/// A walked open collects once, in its first recovery that names every
/// root, and only if nothing allocated, freed or attached before it; a
/// refused recovery sweeps nothing. A sealed open never collects: a block
/// the sealed session left allocated and unlinked stays live.
#[test]
fn a_walked_open_collects_once_before_any_alloc_free_or_attach() {
    let path = tmp("collect-rules");
    let (root_off, orphans);
    {
        let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
        let keep = pool.alloc(64, 8).unwrap();
        root_off = pool.offset_of(keep);
        pool.set_root_offset("r", root_off).unwrap();
        // Orphans: allocated, reachable from nothing.
        orphans = [
            pool.offset_of(pool.alloc(64, 8).unwrap()),
            pool.offset_of(pool.alloc(64, 8).unwrap()),
        ];
    }
    // Every close below seals: to walk, unseal before each open.
    let open = || {
        unseal(&path);
        Pool::builder().path(&path).open().unwrap()
    };
    // SAFETY (every `collect` below): the root is a single self-contained
    // block; `mark_root` covers it, and nothing attaches to this pool.

    // A free, an allocation or an attach before the recovery refuses it.
    let pool = open();
    // SAFETY: an orphan nothing references.
    unsafe { pool.dealloc(pool.at(orphans[0])) };
    assert!(!unsafe { collect(&pool, "r", mark_root) }, "a free left the inventory");
    assert!(!pool.recovery_report().gc_ran);
    drop(pool);
    let pool = open();
    let fresh = pool.alloc(64, 8).unwrap();
    assert!(!unsafe { collect(&pool, "r", mark_root) }, "an allocation left the inventory");
    assert!(!pool.recovery_report().gc_ran);
    // SAFETY: just allocated, referenced by nobody.
    unsafe { pool.dealloc(fresh) };
    drop(pool);
    let pool = open();
    assert!(pool.attach_root_ptr::<u64>("r").is_some());
    assert!(!unsafe { collect(&pool, "r", mark_root) }, "an attach left the inventory");
    assert!(!pool.recovery_report().gc_ran);
    drop(pool);

    // A root no tracer names, or a tracer whose root is missing, refuses
    // without running the recovery or sweeping, and keeps the inventory.
    let pool = open();
    assert!(!pool.recovery_report().gc_ran, "the open ran a collection");
    let err = unsafe { pool.collect(&mut [], || -> io::Result<()> { panic!("recovered a refused open") }) };
    assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
    assert!(!unsafe { collect(&pool, "x", mark_root) }, "a missing root was collected");
    let report = pool.recovery_report();
    assert!(!report.gc_ran);
    assert_eq!((report.reclaimed_blocks, report.live_blocks), (0, 2));
    // Every tracer, nothing allocated, freed or attached: exactly the
    // orphan goes, and the pool is recovered.
    assert!(unsafe { collect(&pool, "r", mark_root) }, "tracer given, nothing attached: collect");
    let report = pool.recovery_report();
    assert!(report.gc_ran);
    assert_eq!(report.reclaimed_blocks, 1, "exactly the orphan");
    assert_eq!(pool.live_offsets(), vec![root_off - BLOCK_HEADER]);
    let mut traced = false;
    let mut again = |_: *mut u8, _: &mut gc::Marker<'_>| traced = true;
    assert!(unsafe { pool.collect(&mut [("r", &mut again)], || Ok(())) }.is_ok());
    assert!(!traced, "a recovered open traced again");
    assert_eq!(pool.recovery_report(), report, "a second recovery changed the report");
    drop(pool);

    // A recovery that fails after the collection leaves the pool
    // unrecovered: no second collection, and no seal.
    let pool = open();
    let err = unsafe { pool.collect(&mut [("r", &mut |root, marker| mark_root(root, marker))], || -> io::Result<()> { Err(io::Error::other("attach failed")) }) };
    assert_eq!(err.unwrap_err().to_string(), "attach failed");
    assert!(pool.recovery_report().gc_ran);
    assert!(!unsafe { collect(&pool, "r", mark_root) }, "a second collection ran");
    drop(pool);
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(!pool.recovery_report().sealed, "an unrecovered session sealed");
    assert!(unsafe { collect(&pool, "r", mark_root) });
    drop(pool);

    // Sealed: no tracer runs, the recovery does, and the block the sealed
    // session allocated and never linked stays live.
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(pool.recovery_report().sealed);
    let orphan = pool.offset_of(pool.alloc(64, 8).unwrap());
    drop(pool);
    let pool = Pool::builder().path(&path).open().unwrap();
    let mut never = |_: *mut u8, _: &mut gc::Marker<'_>| panic!("a sealed open traced");
    let recovered = unsafe { pool.collect(&mut [("r", &mut never)], || Ok(true)) }.unwrap();
    let report = pool.recovery_report();
    assert!(recovered && report.sealed && !report.gc_ran);
    assert!(pool.is_allocated_payload(orphan), "a sealed open swept");
    drop(pool);
    cleanup(&path);
}

#[test]
fn a_refusing_tracer_sweeps_nothing() {
    unsafe fn mark_then_refuse(root: *mut u8, marker: &mut gc::Marker<'_>) {
        marker.mark(root);
        marker.refuse();
    }
    let path = tmp("refuse");
    {
        let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
        let keep = pool.alloc(64, 8).unwrap();
        pool.set_root_offset("r", pool.offset_of(keep)).unwrap();
        // An orphan a collection would sweep.
        pool.alloc(64, 8).unwrap();
    }
    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    // SAFETY: the tracer reads nothing; it refuses every root.
    assert!(!unsafe { collect(&pool, "r", mark_then_refuse) });
    let report = pool.recovery_report();
    assert!(!report.gc_ran, "a refused collection must not count as run");
    assert_eq!((report.reclaimed_blocks, report.live_blocks), (0, 2));
    assert!(report.root_marks.is_empty());
    // SAFETY: as above.
    assert!(!unsafe { collect(&pool, "r", mark_then_refuse) }, "a second collect ran");
    assert_eq!(pool.live_offsets().len(), 2, "nothing was swept");
    pool.verify_heap().unwrap();
    drop(pool);
    cleanup(&path);
}

/// `mark_allocated_if` offers only the blocks no tracer has marked yet:
/// a tracer that marked its chain first enumerates just the rest.
#[test]
fn mark_allocated_if_skips_marked_blocks() {
    let path = tmp("mark-unmarked");
    let blocks: Vec<u64> = {
        let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
        let blocks: Vec<_> = (0..4).map(|_| pool.offset_of(pool.alloc(64, 8).unwrap())).collect();
        pool.set_root_offset("r", blocks[0]).unwrap();
        blocks
    };
    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    let mut offered = Vec::new();
    let mut trace = |root: *mut u8, marker: &mut gc::Marker<'_>| {
        assert!(marker.mark(root));
        marker.mark_allocated_if(|p, _| {
            offered.push(pool.offset_of(p));
            false
        });
    };
    // SAFETY: the tracer marks the root and reads nothing.
    assert!(unsafe { pool.collect(&mut [("r", &mut trace)], || Ok(())) }.is_ok());
    assert_eq!(offered, blocks[1..], "a marked block was offered");
    drop(pool);
    cleanup(&path);
}

#[test]
fn only_allocated_payload_starts_are_allocated_payloads() {
    let path = tmp("payload-validate");
    let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    let p = pool.alloc(8, 8).unwrap();
    let off = pool.offset_of(p);
    assert!(pool.is_allocated_payload(off));
    // A mid-block offset is not a payload start, and null is nothing.
    assert!(!pool.is_allocated_payload(off + 8));
    assert!(!pool.is_allocated_payload(0));
    // A freed block's offset is rejected too.
    unsafe { pool.dealloc(p) };
    assert!(!pool.is_allocated_payload(off));
    drop(pool);
    cleanup(&path);
}

// ---- detectable-operation descriptor table (optable) ----------------------

/// Writes one armed descriptor into a registered slot, optionally with a
/// published result, through the raw slot pointer (what the `nvtraverse`
/// arm/publish path does through its durability policy).
unsafe fn arm_raw(base: *mut u64, seq: u64, kind: u64, key: u64, result: Option<u64>) {
    unsafe {
        base.add(optable::OPW_KIND).write_volatile(kind);
        base.add(optable::OPW_KEY).write_volatile(key);
        base.add(optable::OPW_VALUE).write_volatile(key + 1000);
        base.add(optable::OPW_TARGET).write_volatile(0);
        base.add(optable::OPW_CHECK)
            .write_volatile(optable::descriptor_check(seq, kind, key, key + 1000, 0));
        base.add(optable::OPW_SEQ).write_volatile(seq);
        if let Some(r) = result {
            base.add(optable::OPW_RESULT).write_volatile(r);
        }
    }
}

#[test]
fn op_table_registers_slots_and_survives_reopen() {
    let path = tmp("ops-register");
    let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    assert_eq!(pool.ops_table_offset(), None, "table is lazy");
    let (slot0, base0, seq0) = pool.register_op_token_raw().unwrap();
    let (slot1, _, _) = pool.register_op_token_raw().unwrap();
    assert_eq!((slot0, seq0), (0, 0));
    assert_eq!(slot1, 1);
    assert!(pool.ops_table_offset().is_some());
    // Slot 0: armed seq 1 and published a no-op; slot 1 left untouched.
    unsafe {
        arm_raw(
            base0,
            1,
            optable::OP_KIND_INSERT,
            7,
            Some(optable::encode_result(1, optable::OP_RESULT_NOOP)),
        )
    };
    drop(pool);

    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    // SAFETY: the pool's one root is the ops table, which brings its own.
    assert!(unsafe { pool.collect(&mut [], || Ok(())) }.is_ok(), "ops root has a built-in tracer");
    let report = pool.recovery_report();
    assert_eq!(report.ops_descriptors, 1);
    assert_eq!(report.ops_not_applied, 1, "published no-op is decided");
    assert_eq!(report.ops_pending, 0);
    // The slot's latest op: published no-op => NotApplied.
    assert_eq!(pool.op_outcome(OpId::new(0, 1)), Some(OpOutcome::NotApplied));
    // A later sequence number was never durably armed.
    assert_eq!(pool.op_outcome(OpId::new(0, 2)), Some(OpOutcome::NotApplied));
    // Registered-but-never-armed slot: nothing ever happened in it.
    assert_eq!(pool.op_outcome(OpId::new(1, 1)), Some(OpOutcome::NotApplied));
    // Out-of-table slot index: unanswerable, not NotApplied.
    assert_eq!(pool.op_outcome(OpId::new(200, 1)), None);
    // Slot hand-out is monotonic across reopens (crashed slots stay
    // answerable; re-registrants get fresh slots).
    let (slot2, _, _) = pool.register_op_token_raw().unwrap();
    assert_eq!(slot2, 2);
    drop(pool);
    cleanup(&path);
}

#[test]
fn unpublished_op_waits_for_structure_resolution() {
    let path = tmp("ops-resolve");
    let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    let (slot, base, _) = pool.register_op_token_raw().unwrap();
    // Armed (seq 3 after two earlier ops, say) but the result word still
    // holds seq 2's published value: the crash hit between arm and publish.
    unsafe {
        arm_raw(
            base,
            3,
            optable::OP_KIND_REMOVE,
            42,
            Some(optable::encode_result(2, optable::OP_RESULT_APPLIED)),
        )
    };
    let id = OpId::new(slot, 3);
    drop(pool);

    let pool = Pool::builder().path(&path).open().unwrap();
    assert_eq!(pool.recovery_report().ops_pending, 1);
    assert_eq!(pool.op_outcome(id), None, "needs the structure's lookup");
    let unresolved = pool.unresolved_ops();
    assert_eq!(unresolved.len(), 1);
    assert_eq!(unresolved[0].id(), id);
    assert_eq!(unresolved[0].key, 42);
    assert_eq!(unresolved[0].published(), None, "stale result is not ours");
    // The structure's recovered-state lookup answers; the pool records it.
    pool.resolve_op(id, OpOutcome::Committed);
    assert_eq!(pool.op_outcome(id), Some(OpOutcome::Committed));
    assert!(pool.unresolved_ops().is_empty());
    let report = pool.recovery_report();
    assert_eq!((report.ops_committed, report.ops_pending), (1, 0));
    // An op the slot's seq has moved past reports Superseded.
    assert_eq!(pool.op_outcome(OpId::new(slot, 2)), Some(OpOutcome::Superseded));
    drop(pool);
    cleanup(&path);
}

#[test]
fn op_id_packs_slot_and_seq() {
    let id = OpId::new(5, (1 << 48) - 1);
    assert_eq!(id.slot(), 5);
    assert_eq!(id.seq(), (1 << 48) - 1);
    assert_eq!(OpId::from_bits(id.to_bits()), id);
    assert_ne!(OpId::new(0, 1).to_bits(), 0, "tag 0 never names a real op");
}

#[test]
fn marker_refuses_payload_bytes_that_mimic_a_header() {
    use std::sync::atomic::AtomicU8;
    // 1 = refused, 2 = accepted; written by the tracer below.
    static MARKED: AtomicU8 = AtomicU8::new(0);
    static RESOLVED: AtomicU8 = AtomicU8::new(0);
    unsafe fn probe_inside(root: *mut u8, marker: &mut gc::Marker<'_>) {
        assert!(marker.mark(root), "the root itself is a real block");
        // SAFETY: 16 bytes into the root's 112-byte payload.
        let inside = unsafe { root.add(BLOCK_HEADER as usize) };
        MARKED.store(1 + u8::from(marker.mark(inside)), Ordering::SeqCst);
        // The same address as a pool offset, which the test body left in
        // the root's second payload word.
        // SAFETY: the second payload word of the root block.
        let inside_off = unsafe { (root as *const u64).add(1).read() };
        RESOLVED.store(1 + u8::from(marker.at(inside_off).is_some()), Ordering::SeqCst);
    }
    let path = tmp("mimic");
    {
        let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
        let a = pool.alloc(112, 8).unwrap() as *mut u64;
        // Another allocated block behind it, so the fake block below ends
        // under the frontier whatever the slab geometry.
        pool.alloc(112, 8).unwrap();
        let a_off = pool.offset_of(a as *const u8);
        // A word that decodes as the header of an allocated 64-byte-class
        // block, at the start of a payload — values arrive off the wire.
        let fake = CLASS_SIZES[1] | (1 << W0_CLASS_SHIFT) | W0_ALLOCATED;
        assert!(matches!(
            check_block_header(fake, a_off, pool.inner.engine.frontier()),
            Ok((64, 1, true))
        ));
        // SAFETY: both words are inside `a`'s 112-byte payload.
        unsafe {
            a.write(fake);
            a.add(1).write(a_off + BLOCK_HEADER);
        }
        pool.set_root_offset("r", a_off).unwrap();
    }
    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    // SAFETY: the root is one self-contained block; the tracer marks it.
    assert!(unsafe { collect(&pool, "r", probe_inside) });
    let report = pool.recovery_report();
    assert_eq!(MARKED.load(Ordering::SeqCst), 1, "mark() accepted a pointer into the middle of a block");
    assert_eq!(RESOLVED.load(Ordering::SeqCst), 1, "at() resolved an offset into the middle of a block");
    assert_eq!(report.root_marks, vec![("r".to_string(), 1)]);
    assert_eq!(report.reclaimed_blocks, 1, "exactly the unreachable second block");
    drop(pool);
    cleanup(&path);
}

/// Every block below the frontier as `(offset, size, class, allocated)`.
fn inventory(pool: &Pool) -> Vec<(u64, u64, usize, bool)> {
    let mut blocks = Vec::new();
    walk_heap(pool.inner.mem, pool.inner.engine.frontier(), |off, size, class, allocated| {
        blocks.push((off, size, class, allocated));
    })
    .unwrap();
    blocks
}

#[test]
fn recovery_gc_reclaims_exactly_the_garbage_and_allocates_in_address_order() {
    // The root block lists the offsets it keeps alive: `[n, off…]`.
    unsafe fn trace_listed(root: *mut u8, marker: &mut gc::Marker<'_>) {
        if !marker.mark(root) {
            return;
        }
        // SAFETY: the test wrote `n` and `n` offsets into this block.
        unsafe {
            let words = root as *const u64;
            for i in 1..=words.read() as usize {
                let kept = marker.at(words.add(i).read()).expect("kept block is allocated");
                marker.mark(kept);
            }
        }
    }
    const OVERSIZE_PAYLOAD: usize = 100 * 1024;
    // Payload sizes landing in the 64-, 256- and 1024-byte classes.
    const SIZES: [usize; 3] = [40, 200, 1000];
    let path = tmp("gc-order");
    let (before, kept, frontier);
    {
        let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
        let root = pool.alloc(8 * 200, 8).unwrap() as *mut u64;
        let (mut keep, mut free) = (Vec::new(), Vec::new());
        for (c, &size) in SIZES.iter().enumerate() {
            for i in 0..150usize {
                let p = pool.alloc(size, 8).unwrap();
                match (i + c) % 3 {
                    0 => keep.push(pool.offset_of(p)),
                    1 => free.push(p),
                    _ => {} // garbage: allocated, reachable from no root
                }
            }
        }
        // Freed only now, so no later allocation takes a block straight
        // back out of the magazine.
        for p in free {
            // SAFETY: allocated above, referenced by nobody.
            unsafe { pool.dealloc(p) };
        }
        // Oversize: one freed, one garbage, one kept — all the same size,
        // so first-fit takes whichever the list offers first.
        let over_freed = pool.alloc(OVERSIZE_PAYLOAD, 8).unwrap();
        pool.alloc(OVERSIZE_PAYLOAD, 8).unwrap();
        keep.push(pool.offset_of(pool.alloc(OVERSIZE_PAYLOAD, 8).unwrap()));
        // SAFETY: just allocated, referenced by nobody.
        unsafe { pool.dealloc(over_freed) };
        // SAFETY: the root block holds 200 words; `keep` has 151 entries.
        unsafe {
            root.write(keep.len() as u64);
            for (i, off) in keep.iter().enumerate() {
                root.add(1 + i).write(*off);
            }
        }
        pool.set_root_offset("r", pool.offset_of(root as *const u8)).unwrap();
        keep.push(pool.offset_of(root as *const u8));
        before = inventory(&pool);
        frontier = pool.inner.engine.frontier();
        kept = keep;
    }
    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    // SAFETY: `trace_listed` reads the layout written above.
    assert!(unsafe { collect(&pool, "r", trace_listed) });
    let report = pool.recovery_report();

    // The reclaimed set is exactly the garbage.
    let is_kept = |off: u64| kept.contains(&(off + BLOCK_HEADER));
    let garbage: Vec<_> = before.iter().filter(|b| b.3 && !is_kept(b.0)).collect();
    assert_eq!(garbage.len(), 3 * 50 + 1);
    assert!(garbage.iter().any(|b| b.2 == OVERSIZE), "an oversize block is among the garbage");
    assert_eq!(report.reclaimed_blocks, garbage.len());
    assert_eq!(report.reclaimed_bytes, garbage.iter().map(|b| b.1).sum::<u64>());
    assert_eq!(report.live_blocks, kept.len());
    assert_eq!(report.free_blocks, before.len() - kept.len());
    assert_eq!(report.root_marks, vec![("r".to_string(), kept.len() as u64)]);
    let heap = pool.verify_heap().unwrap();
    let mut live: Vec<u64> = heap.live.iter().map(|&(off, _)| off + BLOCK_HEADER).collect();
    live.sort_unstable();
    let mut want = kept.clone();
    want.sort_unstable();
    assert_eq!(live, want);
    assert_eq!(heap.free_blocks, report.free_blocks);
    assert_eq!(heap.frontier, frontier);

    // Allocation order after the open: the walk's free blocks and the swept
    // ones wait in their class's free bitmap, and allocations claim them merged, in
    // ascending address order — a function of the image alone, whatever
    // the shard count.
    for (c, &size) in SIZES.iter().enumerate() {
        let class = [1, 3, 5][c];
        let free_or_swept: Vec<u64> =
            before.iter().filter(|b| b.2 == class && !is_kept(b.0)).map(|b| b.0).collect();
        assert!(free_or_swept.len() >= 64, "class {class}: too few free blocks to check");
        for (n, &want) in free_or_swept[..64].iter().enumerate() {
            let off = pool.offset_of(pool.alloc(size, 8).unwrap()) - BLOCK_HEADER;
            assert!(off < frontier, "class {class}: carved fresh space at allocation {n}");
            assert_eq!(off, want, "class {class}: allocation {n} came out of address order");
        }
    }
    // Oversize first-fit walks the list from its head: the swept block
    // (pushed last), then the one the walk found free.
    let over: Vec<u64> = before.iter().filter(|b| b.2 == OVERSIZE && !is_kept(b.0)).map(|b| b.0).collect();
    let (over_free, over_swept) = if before.iter().any(|b| b.0 == over[0] && b.3) {
        (over[1], over[0])
    } else {
        (over[0], over[1])
    };
    for want in [over_swept, over_free] {
        let got = pool.offset_of(pool.alloc(OVERSIZE_PAYLOAD, 8).unwrap()) - BLOCK_HEADER;
        assert_eq!(got, want, "oversize allocation order changed");
    }
    pool.verify_heap().unwrap();
    drop(pool);
    cleanup(&path);
}

#[test]
fn concurrent_claims_are_exact_and_come_before_the_frontier() {
    const THREADS: usize = 4;
    // Payload sizes in the 64- and 128-byte classes: both carve 64-block
    // slabs, so 2·K blocks fill whole slabs and leave no carved spare.
    const SIZES: [usize; 2] = [40, 100];
    const K: usize = THREADS * engine::REFILL;
    // A rare class (1024-byte blocks, 8 to a slab) whose few free blocks
    // lie above every other class's.
    const RARE_SIZE: usize = 1000;
    const RARE: usize = 4;
    let path = tmp("claims");
    {
        let pool = Pool::builder().path(&path).capacity(4 << 20).create().unwrap();
        for (size, n) in [(SIZES[0], K), (SIZES[1], K), (RARE_SIZE, RARE)] {
            let blocks: Vec<*mut u8> = (0..2 * n).map(|_| pool.alloc(size, 8).unwrap()).collect();
            for &p in blocks.iter().step_by(2) {
                // SAFETY: allocated above, referenced by nobody.
                unsafe { pool.dealloc(p) };
            }
        }
    }
    let pool = Pool::builder().path(&path).open().unwrap();
    let frontier = pool.inner.engine.frontier();
    let blocks = inventory(&pool);
    let mut free: Vec<u64> = blocks.iter().filter(|b| !b.3).map(|b| b.0).collect();
    for (class, n) in [(1, K), (2, K), (5, RARE)] {
        let found = blocks.iter().filter(|b| !b.3 && b.2 == class).count();
        assert_eq!(found, n, "class {class}: the image should hold exactly {n} free blocks");
    }
    let rare_low = blocks.iter().filter(|b| !b.3 && b.2 == 5).map(|b| b.0).min().unwrap();
    assert!(blocks.iter().filter(|b| b.2 != 5).all(|b| b.0 < rare_low), "the rare blocks lie high");
    assert_eq!(free.len(), 2 * K + RARE);

    // Every thread takes exactly one claim's worth of each common class,
    // in its own order of classes, so the K blocks of a class go in
    // THREADS claims and nothing is left to carve. Midway, one thread
    // also takes the rare class's blocks in one claim while the others
    // keep claiming theirs.
    let start = std::sync::Barrier::new(THREADS);
    let mut got: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    let mut take = |size: usize| {
                        let p = pool.alloc(size, 8).unwrap();
                        mine.push(pool.offset_of(p) - BLOCK_HEADER);
                    };
                    start.wait();
                    for i in 0..engine::REFILL {
                        take(SIZES[(i + t) % 2]);
                        take(SIZES[(i + t + 1) % 2]);
                        if t == 0 && i == engine::REFILL / 2 {
                            (0..RARE).for_each(|_| take(RARE_SIZE));
                        }
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
    });
    got.sort_unstable();
    free.sort_unstable();
    assert_eq!(got.len(), 2 * K + RARE);
    assert!(got.windows(2).all(|w| w[0] != w[1]), "a block was handed out twice");
    assert_eq!(got, free, "the allocations are exactly the recovered free blocks");
    assert_eq!(pool.inner.engine.frontier(), frontier, "a slab was carved while free blocks waited");
    let heap = pool.verify_heap().unwrap();
    assert_eq!((heap.live.len(), heap.free_blocks), (4 * K + 2 * RARE, 0));
    // Every recovered block is claimed: the next allocation carves.
    pool.alloc(SIZES[0], 8).unwrap();
    assert!(pool.inner.engine.frontier() > frontier, "nothing left to claim, yet no carve");
    drop(pool);
    cleanup(&path);
}

// ---- the sealed summary ------------------------------------------------------

/// The summary a heap walk of `pool` derives: what a sealed open must
/// restore.
fn walked_summary(pool: &Pool) -> seal::Summary {
    let mut summary = seal::Summary { frontier: pool.inner.engine.frontier(), ..seal::Summary::default() };
    for (off, _, class, allocated) in inventory(pool) {
        if allocated {
            summary.live += 1;
        } else {
            summary.free[class].push(off);
        }
    }
    summary
}

/// A closed image holding every kind of free block: a root listing `KEYS`
/// blocks that each hold their key, frees of several classes on this thread
/// (some still in its magazine at the close, some drained), frees on a
/// thread that exits, and two oversize frees. Returns the root's offset.
fn mixed_image(path: &Path) -> u64 {
    const KEYS: usize = 40;
    let pool = Pool::builder().path(path).capacity(2 << 20).create().unwrap();
    let root = pool.alloc(8 * (KEYS + 1), 8).unwrap() as *mut u64;
    let mut freed = Vec::new();
    for i in 0..KEYS {
        let p = pool.alloc(24 + 40 * (i % 5), 8).unwrap();
        // SAFETY: fresh blocks of at least 24 bytes; the root holds KEYS + 1 words.
        unsafe {
            (p as *mut u64).write(1000 + i as u64);
            root.add(1 + i).write(pool.offset_of(p));
        }
        freed.extend((0..3).map(|_| pool.alloc(24 + 40 * (i % 5), 8).unwrap()));
    }
    // SAFETY: as above.
    unsafe { root.write(KEYS as u64) };
    pool.set_root_offset("r", pool.offset_of(root as *const u8)).unwrap();
    for p in freed {
        // SAFETY: allocated above, referenced by nobody.
        unsafe { pool.dealloc(p) };
    }
    let big: Vec<_> = (0..3).map(|i| pool.alloc(70_000 + 4096 * i, 8).unwrap()).collect();
    // SAFETY: as above.
    unsafe {
        pool.dealloc(big[2]);
        pool.dealloc(big[0]);
    }
    let other = pool.clone();
    std::thread::spawn(move || {
        let blocks: Vec<usize> = (0..200).map(|_| other.alloc(40, 8).unwrap() as usize).collect();
        for p in blocks.into_iter().rev() {
            // SAFETY: allocated above, referenced by nobody.
            unsafe { other.dealloc(p as *mut u8) };
        }
    })
    .join()
    .unwrap();
    let root = pool.offset_of(root as *const u8);
    drop(pool);
    root
}

/// The keys `mixed_image` left behind its root, read back through `pool`.
fn mixed_keys(pool: &Pool, root: u64) -> Vec<u64> {
    let root = pool.at(root) as *const u64;
    // SAFETY: the root block `[n, off…]` written by `mixed_image`.
    unsafe { (1..=root.read() as usize).map(|i| (pool.at(root.add(i).read()) as *const u64).read()).collect() }
}

#[test]
fn a_sealed_open_agrees_with_verify_heap() {
    let path = tmp("sealed-agrees");
    let root = mixed_image(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    let report = pool.recovery_report();
    assert!(report.sealed && report.clean_shutdown && !report.gc_ran, "{report:?}");
    let walked = walked_summary(&pool);
    let free: usize = walked.free.iter().map(Vec::len).sum();
    assert!(free > 200 && walked.free[OVERSIZE].len() == 2, "too few free blocks to tell");
    assert_eq!(pool.inner.engine.summary(pool.inner.mem), walked, "the engine's free blocks are not the heap's");
    let heap = pool.verify_heap().unwrap();
    assert_eq!((report.live_blocks, report.free_blocks), (heap.live.len(), heap.free_blocks));
    assert_eq!(mixed_keys(&pool, root), (1000..1040).collect::<Vec<_>>());
    drop(pool);
    // The same image walked reports the same heap.
    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    let walked_report = pool.recovery_report();
    assert!(!walked_report.sealed);
    assert_eq!((walked_report.live_blocks, walked_report.free_blocks, walked_report.heap_bytes), (report.live_blocks, report.free_blocks, report.heap_bytes));
    drop(pool);
    cleanup(&path);
}

#[test]
fn a_thousand_blocks_freed_before_a_sealed_close_come_back_after_it() {
    let path = tmp("sealed-reuse");
    let freed: Vec<u64> = {
        let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
        let blocks: Vec<*mut u8> = (0..1000).map(|_| pool.alloc(40, 8).unwrap()).collect();
        let keep = pool.alloc(40, 8).unwrap();
        pool.set_root_offset("r", pool.offset_of(keep)).unwrap();
        let offsets = blocks.iter().map(|&p| pool.offset_of(p)).collect();
        for p in blocks {
            // SAFETY: allocated above, referenced by nobody.
            unsafe { pool.dealloc(p) };
        }
        offsets
    };
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(pool.recovery_report().sealed);
    let frontier = pool.inner.engine.frontier();
    let got: std::collections::BTreeSet<u64> = (0..1000).map(|_| pool.offset_of(pool.alloc(40, 8).unwrap())).collect();
    assert_eq!(pool.inner.engine.frontier(), frontier, "a slab was carved while freed blocks waited");
    assert_eq!(got, freed.into_iter().collect(), "the reallocated blocks are not the freed ones");
    pool.verify_heap().unwrap();
    drop(pool);
    cleanup(&path);
}

/// Every word of the record, and the header words that seal it, flipped,
/// zeroed or cut off: each such open walks the heap, finds every key, and
/// leaves the engine holding exactly the heap's free blocks.
#[test]
fn every_damaged_seal_takes_the_full_walk() {
    let path = tmp("sealed-fuzz");
    let root = mixed_image(&path);
    let sealed = std::fs::read(&path).unwrap();
    let word = |at: u64| u64::from_le_bytes(sealed[at as usize..at as usize + 8].try_into().unwrap());
    let at = word(OFF_SEAL_AT);
    let words = word(at + 8);
    assert!(words > 200, "record of {words} words");
    let (live, free) = {
        let pool = Pool::builder().path(&path).open().unwrap();
        assert!(pool.recovery_report().sealed);
        let report = pool.recovery_report();
        (report.live_blocks, report.free_blocks)
    };
    let mut damaged = Vec::new();
    for off in [OFF_SEAL_SIG, OFF_SEAL_AT] {
        damaged.push(vec![(off, word(off) ^ 1)]);
        damaged.push(vec![(off, 0)]);
    }
    for i in 0..words {
        let w = at + 8 * i;
        damaged.push(vec![(w, word(w) ^ (1 << (i % 64)))]);
        damaged.push(vec![(w, 0)]);
        // The record cut short at word `i`: its length says so, and the
        // words past it are gone.
        damaged.push((i..words).map(|j| (at + 8 * j, 0)).chain([(at + 8, i)]).collect());
    }
    let mut opened = 0;
    for patch in damaged {
        let mut image = sealed.clone();
        for &(off, value) in &patch {
            image[off as usize..off as usize + 8].copy_from_slice(&value.to_le_bytes());
        }
        if image == sealed {
            continue;
        }
        std::fs::write(&path, &image).unwrap();
        let pool = Pool::builder().path(&path).open().unwrap();
        let report = pool.recovery_report();
        assert!(!report.sealed, "a damaged seal was trusted: {patch:x?}");
        assert_eq!((report.live_blocks, report.free_blocks), (live, free), "{patch:x?}");
        assert_eq!(pool.inner.engine.summary(pool.inner.mem), walked_summary(&pool), "{patch:x?}");
        assert_eq!(mixed_keys(&pool, root), (1000..1040).collect::<Vec<_>>(), "{patch:x?}");
        drop(pool);
        opened += 1;
    }
    assert!(opened as u64 > 2 * words, "only {opened} damaged images");
    cleanup(&path);
}

/// The close writes in `nvdata.c`'s order: the state, then the record and
/// its CRC, then the signature, then the clean flag. A close that cannot
/// seal — here a walked session that never collected — writes only the
/// state and the clean flag.
#[test]
fn a_close_seals_in_nvdata_order() {
    let path = tmp("seal-order");
    let steps = || seal::STEPS.with(|s| std::mem::take(&mut *s.borrow_mut()));
    steps();
    let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    let p = pool.alloc(64, 8).unwrap();
    pool.set_root_offset("r", pool.offset_of(p)).unwrap();
    drop(pool);
    assert_eq!(steps(), ["state", "record", "signature", "clean"]);
    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(!pool.recovery_report().sealed);
    drop(pool);
    assert_eq!(steps(), ["state", "clean"], "a session that never collected sealed");
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(!pool.recovery_report().sealed, "an unsealed close was trusted");
    drop(pool);
    cleanup(&path);
}

/// A repointed root may leave its old graph as garbage that only a
/// collection finds, so that session's close writes no seal.
#[test]
fn a_session_that_drops_a_root_writes_no_seal() {
    let path = tmp("seal-orphan");
    let pool = Pool::builder().path(&path).capacity(MIN_CAPACITY).create().unwrap();
    pool.set_root_offset("a", pool.offset_of(pool.alloc(64, 8).unwrap())).unwrap();
    pool.set_root_offset("a", pool.root_offset("a").unwrap()).unwrap();
    drop(pool);
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(pool.recovery_report().sealed, "rewriting a root's own offset orphans nothing");
    let fresh = pool.offset_of(pool.alloc(64, 8).unwrap());
    pool.set_root_offset("a", fresh).unwrap();
    drop(pool);
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(!pool.recovery_report().sealed, "a session that repointed a root sealed");
    drop(pool);
    // SAFETY: the one root is a single block; a recovery seals again.
    unseal(&path);
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(unsafe { collect(&pool, "a", |root, marker| _ = marker.mark(root)) });
    drop(pool);
    let pool = Pool::builder().path(&path).open().unwrap();
    assert!(pool.recovery_report().sealed);
    drop(pool);
    cleanup(&path);
}
