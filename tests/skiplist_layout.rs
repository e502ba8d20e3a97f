//! A skiplist node is allocated at exactly its tower's size, so it must be
//! freed at exactly that size too: the free path reads the height back from
//! the node, and a wrong height hands the heap a layout it never issued.
//!
//! This binary's global allocator records every live allocation's `(size,
//! align)` in a header in front of the block and checks that `dealloc`
//! presents the same pair. Every test drives skiplist nodes through one of
//! their free paths — insert/remove churn, EBR reclamation, teardown on
//! drop — and then
//! requires that no free in the whole binary presented a different layout.
//! (A mismatch is counted, not panicked on, and the real layout is still
//! returned to `System`, so the check itself never corrupts the heap.)

use nvtraverse::policy::{NvTraverse, Volatile};
use nvtraverse::{DurableSet, TypedRoots};
use nvtraverse_ebr::Collector;
use nvtraverse_pmem::{MmapBackend, Sim, SimHandle};
use nvtraverse_pool::Pool;
use nvtraverse_structures::skiplist::SkipList;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Room in front of each block for its recorded `(size, align)`.
const HEADER: usize = 16;

struct LayoutChecked;

/// Frees whose presented layout differed from the allocated one.
static MISMATCHES: AtomicUsize = AtomicUsize::new(0);
/// The first mismatch: allocated size, presented size.
static FIRST_MISMATCH: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

/// The layout `System` really serves for a request of `layout`: the
/// request plus a header, aligned to at least the header.
fn outer(size: usize, align: usize) -> Layout {
    let pad = align.max(HEADER);
    Layout::from_size_align(size + pad, pad).expect("a valid layout stays valid padded")
}

// SAFETY: every block is a `System` block of `outer(size, align)` whose
// first `pad` bytes end in the recorded `(size, align)`; `dealloc` frees
// exactly that recorded layout, whatever the caller presents.
unsafe impl GlobalAlloc for LayoutChecked {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let pad = layout.align().max(HEADER);
        // SAFETY: `outer` is never zero-sized.
        let base = unsafe { System.alloc(outer(layout.size(), layout.align())) };
        if base.is_null() {
            return base;
        }
        // SAFETY: the block starts `pad >= 16` bytes before the returned
        // pointer, which is aligned to `pad`, so both header words fit.
        unsafe {
            let user = base.add(pad);
            user.cast::<usize>().sub(2).write(layout.size());
            user.cast::<usize>().sub(1).write(layout.align());
            user
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, which wrote the header.
        let (size, align) = unsafe {
            (
                ptr.cast::<usize>().sub(2).read(),
                ptr.cast::<usize>().sub(1).read(),
            )
        };
        if (size, align) != (layout.size(), layout.align())
            && MISMATCHES.fetch_add(1, Ordering::SeqCst) == 0
        {
            FIRST_MISMATCH[0].store(size, Ordering::SeqCst);
            FIRST_MISMATCH[1].store(layout.size(), Ordering::SeqCst);
        }
        // SAFETY: the block `alloc` made for the recorded layout.
        unsafe { System.dealloc(ptr.sub(align.max(HEADER)), outer(size, align)) }
    }
}

#[global_allocator]
static HEAP: LayoutChecked = LayoutChecked;

fn assert_every_free_matched() {
    assert_eq!(
        MISMATCHES.load(Ordering::SeqCst),
        0,
        "a block allocated at {} bytes was freed as {} bytes",
        FIRST_MISMATCH[0].load(Ordering::SeqCst),
        FIRST_MISMATCH[1].load(Ordering::SeqCst),
    );
}

/// Inserts and removes over a small key range so that every height class
/// is allocated, retired and reused: 4 000 ops per thread.
fn churn<S: DurableSet<u64, u64>>(s: &S, seed: u64) {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in 0..4_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 512;
        if i % 3 == 0 {
            s.remove(k);
        } else {
            s.insert(k, i);
        }
    }
}

#[test]
fn volatile_skiplist_frees_every_node_at_its_own_size() {
    let s: SkipList<u64, u64, Volatile> = SkipList::new();
    std::thread::scope(|sc| {
        for t in 0..3 {
            let s = &s;
            sc.spawn(move || churn(s, t));
        }
    });
    s.check_consistency(false).unwrap();
    // EBR reclamation frees every retired node through its own function.
    s.collector().drain();
    assert_every_free_matched();
    drop(s);
    assert_every_free_matched();
}

#[test]
fn sim_skiplist_frees_and_deregisters_every_node_at_its_own_size() {
    let sim = SimHandle::new();
    let _g = sim.enter();
    let baseline = sim.tracked_cells();
    let s = SkipList::<u64, u64, NvTraverse<Sim>>::with_collector(Collector::new());
    churn(&s, 11);
    s.collector().drain();
    assert_every_free_matched();
    drop(s);
    assert_every_free_matched();
    assert_eq!(
        sim.tracked_cells(),
        baseline,
        "a free deregistered a different range"
    );
}

#[test]
fn pooled_skiplist_returns_every_node_to_its_pool() {
    type Pooled = SkipList<u64, u64, NvTraverse<MmapBackend>>;
    let path =
        std::env::temp_dir().join(format!("nvt-skiplist-layout-{}.pool", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let pool = Pool::builder()
            .path(&path)
            .capacity(4 << 20)
            .create()
            .unwrap();
        let s = pool.create_root::<Pooled>("skip").unwrap();
        churn(&*s, 23);
        s.check_consistency(false).unwrap();
        s.close().unwrap();
    }
    let pool = Pool::builder().path(&path).open().unwrap();
    let s = pool.root::<Pooled>("skip").unwrap();
    for (k, _) in s.iter_snapshot() {
        assert!(s.remove(k));
    }
    s.collector().drain();
    // Only the head sentinel is left: every node reached its pool.
    assert_eq!(pool.live_offsets().len(), 1);
    pool.verify_heap().unwrap();
    s.close().unwrap();
    drop(pool);
    std::fs::remove_file(&path).unwrap();
    assert_every_free_matched();
}
