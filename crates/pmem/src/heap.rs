//! Registry of foreign (non-`Box`) heaps: the glue that lets node allocation
//! and reclamation route through persistent pools — **several at once**.
//!
//! Real NVRAM deployments replace the volatile allocator wholesale — the
//! paper links against `libvmmalloc`, which transparently serves *every*
//! `malloc` from a memory-mapped persistent heap (§5.1). This repository
//! keeps the volatile `Box` path as the default and lets persistent pools
//! (the `nvtraverse-pool` crate) take over by registering themselves here:
//!
//! * [`register_region`] announces an address range owned by a foreign heap
//!   together with its deallocation function. Free paths (`nvtraverse`'s
//!   `alloc::free`, the EBR collector's reclamation) consult [`owner_of`] so
//!   a pointer is always returned to the heap it came from — **regardless of
//!   how many pools are open**: the live regions are published as an
//!   immutable sorted snapshot, and `owner_of` is a lock-free binary search
//!   over it (one load + `O(log #pools)` compares; one load + one compare
//!   with a single pool).
//! * **Scoped targets** ([`swap_scoped_target`]) are the multi-pool
//!   allocation story: a per-thread allocation target that a pool-backed
//!   structure's operations enter around their allocating sections, so
//!   *each structure* allocates from *its own* pool with no process-global
//!   state. This is what lets two pools serve allocations concurrently in
//!   one process.
//!
//! With no scope entered a thread allocates from the volatile heap; that
//! fast path is one TLS read.
//!
//! # Lifetime contract
//!
//! `(ctx, dealloc)` pairs returned by [`owner_of`]/consumed by [`allocate`]
//! are invoked *after* the snapshot pointer is read, so unregistering a
//! heap does **not** wait for in-flight calls. The registering heap must
//! stay alive until no thread can still be allocating from it or freeing
//! pointers into it — for a pool, that is the rule (documented on `Pool`)
//! that the last pool handle may only be dropped once its structures are no
//! longer in use; their memory is unmapped by the drop anyway, so any
//! concurrent use is already a use-after-unmap regardless of this registry.
//! Deferred frees obey it too: a pool's retired nodes wait in the pool's
//! own epoch collector, which the pool drains before it unregisters and
//! then closes, so no reclaim reaches a heap after its unregister. The same
//! rule covers scoped targets: a structure enters its pool's target only
//! while its `PooledHandle`, which holds the pool, is alive — a pooled
//! structure's destructor enters none.

use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::RwLock;

/// Deallocation entry point of a foreign heap.
///
/// # Safety contract
///
/// Called with the `ctx` passed to [`register_region`], a pointer previously
/// produced by that heap, and the layout it was allocated with. The heap must
/// tolerate being called from any thread.
pub type DeallocFn = unsafe fn(ctx: usize, ptr: *mut u8, size: usize, align: usize);

/// Allocation entry point of a foreign heap. Returns null on exhaustion.
pub type AllocFn = unsafe fn(ctx: usize, size: usize, align: usize) -> *mut u8;

/// One foreign heap's allocation entry point: the opaque context plus the
/// function that serves allocations from it. `Copy`, so per-structure pool
/// contexts (`nvtraverse::alloc::PoolCtx`) can carry it by value.
///
/// The pair is only meaningful while the heap that produced it (via
/// `Pool::alloc_target`) is alive — see the module-level lifetime contract.
#[derive(Clone, Copy)]
pub struct AllocTarget {
    /// Opaque per-heap context handed back to `alloc`.
    pub ctx: usize,
    /// The heap's allocation function.
    pub alloc: AllocFn,
}

impl std::fmt::Debug for AllocTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocTarget").field("ctx", &self.ctx).finish()
    }
}

#[derive(Clone, Copy)]
struct Region {
    start: usize,
    len: usize,
    ctx: usize,
    dealloc: DeallocFn,
}

/// Source of truth for mutations (rare: one per pool open/close).
static REGIONS: RwLock<Vec<Region>> = RwLock::new(Vec::new());

/// Lock-free read path: an immutable snapshot of the live regions, sorted
/// by start address, republished under the `REGIONS` write lock on every
/// change. Snapshots are intentionally leaked (registrations are rare —
/// one per pool open — and readers may still hold the old pointer); null
/// means "no foreign heap registered", the common case's single load.
static SNAPSHOT: AtomicPtr<Vec<Region>> = AtomicPtr::new(std::ptr::null_mut());

/// Re-publishes the sorted snapshot (caller holds the `REGIONS` write lock).
fn refresh_snapshot(regions: &[Region]) {
    let snap = if regions.is_empty() {
        std::ptr::null_mut()
    } else {
        let mut v = regions.to_vec();
        v.sort_unstable_by_key(|r| r.start);
        Box::into_raw(Box::new(v))
    };
    // The previous snapshot is intentionally leaked (see `SNAPSHOT`).
    SNAPSHOT.store(snap, Ordering::Release);
}

thread_local! {
    /// This thread's scoped allocation target — the top of the (saved/
    /// restored, hence effectively stacked) per-structure pool scope.
    static SCOPED: Cell<Option<AllocTarget>> = const { Cell::new(None) };
}

/// Replaces this thread's **scoped allocation target** with `target`,
/// returning the previous one so the caller can restore it — the save/
/// restore discipline makes scopes nest like a stack. `None` clears the
/// scope (allocations come from the volatile heap).
///
/// This is the multi-pool allocation mechanism: a pool-backed structure's
/// operations bracket their allocating sections with their own pool's
/// target (via `nvtraverse::alloc::PoolCtx::enter`), so concurrent
/// structures in different pools allocate from the right files with no
/// global state. During thread TLS teardown the call is a lossy no-op
/// (returns `None`); allocation is then volatile, which only teardown-time
/// drops can observe.
pub fn swap_scoped_target(target: Option<AllocTarget>) -> Option<AllocTarget> {
    SCOPED.try_with(|s| s.replace(target)).unwrap_or(None)
}

/// The allocation target [`allocate`] would use right now: this thread's
/// scoped target, or `None` — allocations come from the volatile heap.
#[inline]
pub fn current_target() -> Option<AllocTarget> {
    SCOPED.try_with(|s| s.get()).unwrap_or(None)
}

/// Announces `[start, start + len)` as owned by a foreign heap.
///
/// `ctx` is an opaque value handed back to `dealloc`; it must stay valid
/// until [`unregister_region`]. Overlapping registrations are a caller bug.
pub fn register_region(start: usize, len: usize, ctx: usize, dealloc: DeallocFn) {
    let mut regions = REGIONS.write().unwrap_or_else(|e| e.into_inner());
    debug_assert!(
        regions
            .iter()
            .all(|r| start + len <= r.start || r.start + r.len <= start),
        "overlapping foreign heap registration"
    );
    regions.push(Region {
        start,
        len,
        ctx,
        dealloc,
    });
    refresh_snapshot(&regions);
}

/// Removes the region previously registered at `start`, returning its `ctx`.
pub fn unregister_region(start: usize) -> Option<usize> {
    let mut regions = REGIONS.write().unwrap_or_else(|e| e.into_inner());
    let i = regions.iter().position(|r| r.start == start)?;
    let r = regions.swap_remove(i);
    refresh_snapshot(&regions);
    Some(r.ctx)
}

/// Looks up the foreign heap owning `ptr`, if any — the routing every
/// `free`/EBR-reclaim performs so a pointer always returns to the pool that
/// issued it, whichever of the process's open pools that is.
///
/// Lock-free at any pool count: one snapshot load, then a binary search of
/// the sorted live regions (`O(log #pools)`; a degenerate single compare in
/// the zero- and one-pool cases).
#[inline]
pub fn owner_of(ptr: *const u8) -> Option<(usize, DeallocFn)> {
    let snap = SNAPSHOT.load(Ordering::Acquire);
    if snap.is_null() {
        return None;
    }
    // SAFETY: snapshots are never freed (see `SNAPSHOT`).
    let regions = unsafe { &*snap };
    let addr = ptr as usize;
    let idx = regions.partition_point(|r| r.start <= addr);
    let r = &regions[idx.checked_sub(1)?];
    if addr < r.start + r.len {
        Some((r.ctx, r.dealloc))
    } else {
        None
    }
}

/// Allocates from this thread's scoped target.
///
/// Returns `None` when no scope is entered **or** the target heap is
/// exhausted — callers decide whether to fall back to the volatile heap or
/// to fail (use [`current_target`] to distinguish). The no-target fast path
/// is one TLS read.
#[inline]
pub fn allocate(size: usize, align: usize) -> Option<*mut u8> {
    let t = current_target()?;
    // SAFETY: the target pair was published together by its heap.
    let p = unsafe { (t.alloc)(t.ctx, size, align) };
    if p.is_null() {
        None
    } else {
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    unsafe fn fake_dealloc(_ctx: usize, _ptr: *mut u8, _size: usize, _align: usize) {}

    #[test]
    fn lookup_respects_bounds_and_unregister() {
        let base = 0x10_0000_0000usize;
        register_region(base, 4096, 7, fake_dealloc);
        assert_eq!(owner_of(base as *const u8).map(|(c, _)| c), Some(7));
        assert_eq!(owner_of((base + 4095) as *const u8).map(|(c, _)| c), Some(7));
        assert!(owner_of((base + 4096) as *const u8).is_none());
        assert!(owner_of((base - 1) as *const u8).is_none());
        assert_eq!(unregister_region(base), Some(7));
        assert!(owner_of(base as *const u8).is_none());
        assert_eq!(unregister_region(base), None);
    }

    #[test]
    fn many_regions_resolve_via_the_sorted_snapshot() {
        // Deliberately registered out of address order: the snapshot sorts.
        let bases = [0x40_0000_0000usize, 0x20_0000_0000, 0x30_0000_0000];
        for (i, &b) in bases.iter().enumerate() {
            register_region(b, 4096, 100 + i, fake_dealloc);
        }
        for (i, &b) in bases.iter().enumerate() {
            assert_eq!(owner_of(b as *const u8).map(|(c, _)| c), Some(100 + i));
            assert_eq!(
                owner_of((b + 4095) as *const u8).map(|(c, _)| c),
                Some(100 + i)
            );
            assert!(owner_of((b + 4096) as *const u8).is_none());
        }
        assert_eq!(unregister_region(bases[0]), Some(100));
        // Remaining regions still resolve after the republish.
        assert_eq!(owner_of(bases[1] as *const u8).map(|(c, _)| c), Some(101));
        assert_eq!(owner_of(bases[2] as *const u8).map(|(c, _)| c), Some(102));
        assert!(owner_of(bases[0] as *const u8).is_none());
        assert_eq!(unregister_region(bases[1]), Some(101));
        assert_eq!(unregister_region(bases[2]), Some(102));
    }

    #[test]
    fn scoped_targets_save_restore_and_nest() {
        unsafe fn grab(ctx: usize, _size: usize, _align: usize) -> *mut u8 {
            ctx as *mut u8
        }
        let target = |ctx| Some(AllocTarget { ctx, alloc: grab });
        assert_eq!(allocate(8, 8), None, "no scope entered: volatile");
        let outer_prev = swap_scoped_target(target(0x1000));
        assert!(outer_prev.is_none());
        assert_eq!(allocate(8, 8), Some(0x1000 as *mut u8));
        // Nested scope wins while entered …
        let inner_prev = swap_scoped_target(target(0x2000));
        assert_eq!(inner_prev.map(|t| t.ctx), Some(0x1000));
        assert_eq!(allocate(8, 8), Some(0x2000 as *mut u8));
        // … a nested `None` scope is volatile, not the enclosing target …
        let cleared_prev = swap_scoped_target(None);
        assert_eq!(allocate(8, 8), None);
        assert!(current_target().is_none());
        swap_scoped_target(cleared_prev);
        // … and each restore puts back exactly what it displaced.
        assert_eq!(swap_scoped_target(inner_prev).map(|t| t.ctx), Some(0x2000));
        assert_eq!(allocate(8, 8), Some(0x1000 as *mut u8));
        swap_scoped_target(outer_prev);
        assert_eq!(allocate(8, 8), None);
    }

    #[test]
    fn scoped_target_is_per_thread() {
        unsafe fn grab(ctx: usize, _size: usize, _align: usize) -> *mut u8 {
            ctx as *mut u8
        }
        let prev = swap_scoped_target(Some(AllocTarget {
            ctx: 0x3000,
            alloc: grab,
        }));
        let other = std::thread::spawn(|| allocate(8, 8).map(|p| p as usize))
            .join()
            .unwrap();
        assert_eq!(other, None, "another thread must not see this scope");
        assert_eq!(allocate(8, 8), Some(0x3000 as *mut u8));
        swap_scoped_target(prev);
    }
}
