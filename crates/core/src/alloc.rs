//! Node allocation helpers: volatile heap by default, a persistent pool per
//! **allocation context**, with crash-simulator bookkeeping in both cases.
//!
//! Real NVRAM deployments allocate nodes from a persistent heap
//! (`libvmmalloc` in the paper's setup, §5.1); the allocation itself survives
//! a crash but its *contents* are only as persistent as the program's flushes
//! made them. This module follows the same shape:
//!
//! * By default, nodes come from the volatile Rust heap — correct for the
//!   simulator and for benchmarks that only need the flush/fence cost
//!   profile.
//! * Every node, whatever its type, is allocated and freed through one
//!   byte-sized pair, [`try_alloc_bytes`]/[`free_bytes`]; [`alloc_node`],
//!   [`try_alloc_node`] and [`free`] are its typed wrappers. A node whose
//!   size is not its type's (a skiplist node is exactly its tower) calls
//!   the pair directly and frees at the size it allocated.
//! * A pool-backed structure carries a [`PoolCtx`] — its pool's allocation
//!   entry point, captured at `create_in_pool`/`attach_to_pool` time — and
//!   brackets its allocating operations with [`PoolCtx::enter`]. Inside the
//!   scope, [`alloc_node`] serves every node from *that structure's* pool
//!   file; structures living in different pools allocate correctly from
//!   different files **concurrently**, with no process-global state.
//! * [`free`] — together with the EBR collector's reclamation — returns each
//!   pointer to the heap that issued it, found via
//!   [`nvtraverse_pmem::heap::owner_of`]; no context needed, the address
//!   itself names the owner.
//!
//! The crash simulator mirrors a persistent heap by registering every word
//! of a new node with persisted value = poison: if the node becomes
//! reachable but was never flushed, a simulated crash visibly destroys it.
//!
//! # Scalability of the pool path
//!
//! [`alloc_node`] and [`free`] sit on the insert and remove hot paths of
//! every structure, so both stay off any global lock:
//!
//! * Entering a [`PoolCtx`] is one TLS swap; [`alloc_node`] then reaches
//!   the pool's **per-thread magazine** for the node's size class — a
//!   thread-local pop plus one header flush, whose ordering fence is
//!   deferred to the fence every durability policy already issues before
//!   durably publishing the node.
//! * [`free`] — and the EBR collector's deferred reclamation, which calls
//!   the same `owner_of` + dealloc pair per retired node — finds the owning
//!   heap via a lock-free search of the sorted region snapshot (one load
//!   plus `O(log #pools)` compares) and pushes the block into the *freeing*
//!   thread's magazine. EBR reclaims whole bags of retired nodes at once on
//!   whichever thread advances the epoch, so those frees batch naturally
//!   into that thread's magazines; an overflowing one drains a batch back
//!   by setting the blocks' bits in their class's free bitmap, under that
//!   class's lock — one lock per batch, never a pool-wide one.

use nvtraverse_obs as obs;
use nvtraverse_pmem::heap::AllocTarget;
use nvtraverse_pmem::{heap, Backend};
use nvtraverse_pool::Pool;
use std::marker::PhantomData;

/// A structure's **allocation context**: which heap its nodes come from —
/// the volatile Rust heap ([`PoolCtx::volatile`], the default) or one
/// specific persistent pool ([`PoolCtx::of`]).
///
/// This is the value `PoolAttach` implementations capture at
/// `create_in_pool`/`attach_to_pool` and re-enter around every allocating
/// operation, which is what makes pools first-class: two structures in two
/// pools, used concurrently from the same thread or different threads, each
/// allocate from their own file. `Copy` and word-sized — carrying one per
/// structure costs nothing.
///
/// # Lifetime
///
/// A pooled context is **non-owning**: it must not be entered after the
/// last handle to its pool is dropped (the pool would be unmapped). The
/// `PooledHandle` lifecycle upholds this by construction — the handle owns
/// a pool handle, and a pooled structure's destructor enters no context.
#[derive(Clone, Copy, Default)]
pub struct PoolCtx {
    target: Option<AllocTarget>,
    /// The pool's metric set, captured alongside the allocation target so
    /// every entered scope also attributes flushes/fences to the pool.
    metrics: Option<&'static obs::MetricSet>,
}

impl std::fmt::Debug for PoolCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolCtx")
            .field("pooled", &self.target.is_some())
            .finish()
    }
}

impl PoolCtx {
    /// The no-pool context: entering it clears any scoped target, so
    /// allocations come from the volatile Rust heap — even when the scope is
    /// nested inside a pooled one.
    pub const fn volatile() -> Self {
        PoolCtx {
            target: None,
            metrics: None,
        }
    }

    /// The context that allocates from `pool` (and attributes persistence
    /// traffic to `pool`'s metric set while entered).
    pub fn of(pool: &Pool) -> Self {
        PoolCtx {
            target: Some(pool.alloc_target()),
            metrics: Some(pool.metrics()),
        }
    }

    /// Snapshot of the allocation target in effect on this thread right
    /// now (an enclosing [`PoolCtx::enter`] scope, else volatile). Structure
    /// constructors call
    /// this so a structure built inside a pool scope *remembers* its pool.
    pub fn current() -> Self {
        PoolCtx {
            target: heap::current_target(),
            metrics: obs::current_target(),
        }
    }

    /// Whether this context targets a persistent pool.
    pub fn is_pooled(&self) -> bool {
        self.target.is_some()
    }

    /// Makes this context the thread's allocation target until the returned
    /// guard drops (scopes nest: the previous target is saved and
    /// restored). Pool-backed structures bracket their allocating
    /// operations with this; a [`PoolCtx::volatile`] context clears the
    /// scoped target for the scope's duration (allocations are volatile).
    pub fn enter(&self) -> AllocScope {
        AllocScope {
            prev: heap::swap_scoped_target(self.target),
            // A pooled context attributes the scope's flushes/fences to its
            // pool. A volatile one leaves attribution alone — unlike the
            // allocation target, attribution has no correctness meaning, so
            // the nearest *explicit* `obs::attribute_to` keeps winning (a
            // Count-backend test attributing a volatile structure's ops to
            // a private set must not be silenced by the structure's own
            // volatile-ctx brackets).
            _obs: self.metrics.map(|m| obs::attribute_to(Some(m))),
            _not_send: PhantomData,
        }
    }
}

/// Guard of an entered [`PoolCtx`] — restores the thread's previous
/// allocation target on drop. Not `Send`: the restore must happen on the
/// thread that entered.
#[must_use = "the allocation scope ends when this guard drops"]
pub struct AllocScope {
    prev: Option<AllocTarget>,
    /// Attribution scope: flushes/fences inside the alloc scope are charged
    /// to the context's pool (restored to the previous target on drop).
    /// `None` for a volatile context — see [`PoolCtx::enter`].
    _obs: Option<obs::TargetScope>,
    _not_send: PhantomData<*mut ()>,
}

impl std::fmt::Debug for AllocScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocScope").finish()
    }
}

impl Drop for AllocScope {
    fn drop(&mut self) {
        heap::swap_scoped_target(self.prev);
    }
}

/// Allocates `value` as a node — from the thread's current allocation
/// target (an entered [`PoolCtx`] scope, else the volatile heap) — and,
/// under a simulating backend, registers the node's memory with the thread's simulation
/// context.
///
/// The returned pointer is owned by the data structure; free it with
/// [`Guard::retire`](nvtraverse_ebr::Guard::retire) after unlinking (or
/// [`free`] during teardown).
///
/// # Panics
///
/// Panics when the targeted persistent pool is exhausted: silently falling
/// back to the volatile heap would split one structure across two heaps and
/// lose the volatile part on reopen. Structures that surface exhaustion as
/// a recoverable error use [`try_alloc_node`] instead.
#[inline]
pub fn alloc_node<T, B: Backend>(value: T) -> *mut T {
    try_alloc_node::<T, B>(value)
        .expect("persistent pool exhausted (and volatile fallback would lose data)")
}

thread_local! {
    /// Set by [`try_alloc_node`] on pool exhaustion; structure `critical`
    /// sections cannot return errors through the operation driver, so they
    /// leave this flag for the calling `try_insert`/`try_*` wrapper to
    /// translate into an `OpError::PoolFull`.
    static POOL_FULL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Clears the thread's pool-exhaustion flag; call before running an
/// operation whose outcome should be checked with [`pool_full_seen`].
#[inline]
pub fn clear_pool_full() {
    POOL_FULL.with(|f| f.set(false));
}

/// Whether [`try_alloc_node`] hit pool exhaustion on this thread since the
/// last [`clear_pool_full`].
#[inline]
pub fn pool_full_seen() -> bool {
    POOL_FULL.with(|f| f.get())
}

/// [`alloc_node`], but pool exhaustion returns `None` (with the thread's
/// pool-full flag set and the pool's `pool_full` obs counter bumped)
/// instead of panicking: nothing is allocated and the volatile heap is
/// **not** used as a fallback — a full pool must surface as a recoverable
/// error, never as a structure silently split across two heaps. Volatile
/// allocations never fail this way.
///
/// A typed wrapper over [`try_alloc_bytes`] at `T`'s size and alignment.
#[inline]
pub fn try_alloc_node<T, B: Backend>(value: T) -> Option<*mut T> {
    let ptr = try_alloc_bytes::<B>(std::mem::size_of::<T>(), std::mem::align_of::<T>())?.cast::<T>();
    // SAFETY: a fresh block of at least size_of::<T>() bytes, aligned for `T`.
    unsafe { ptr.write(value) };
    Some(ptr)
}

/// The layout of a `size`-byte volatile allocation (never zero-sized, as
/// the global allocator requires).
#[inline]
fn volatile_layout(size: usize, align: usize) -> std::alloc::Layout {
    std::alloc::Layout::from_size_align(size.max(1), align).expect("node layout overflows")
}

/// The one allocation path behind every node: `size` bytes aligned to
/// `align`, from the thread's current allocation target — an entered
/// [`PoolCtx`] scope's pool, else the volatile heap at exactly that
/// layout — and, under a simulating backend, registered with the thread's
/// simulation context (every word of the `size` bytes, persisted value
/// poison). Variable-size nodes (a skiplist node is exactly its tower) use
/// it directly; [`try_alloc_node`] is its typed form.
///
/// Pool exhaustion returns `None` exactly as [`try_alloc_node`] describes.
/// The memory is uninitialised; free it with [`free_bytes`] at the same
/// `size` and `align`.
#[inline]
pub fn try_alloc_bytes<B: Backend>(size: usize, align: usize) -> Option<*mut u8> {
    let ptr = match heap::current_target() {
        Some(t) => {
            // SAFETY: the target pair was published together by its pool.
            let p = unsafe { (t.alloc)(t.ctx, size, align) };
            if p.is_null() {
                POOL_FULL.with(|f| f.set(true));
                // The entered PoolCtx attributed this thread to its pool's
                // metric set, so the refusal is charged to the right pool.
                if let Some(m) = obs::current_target() {
                    m.add(obs::Counter::PoolFull, 1);
                }
                return None;
            }
            p
        }
        None => {
            let layout = volatile_layout(size, align);
            // SAFETY: `volatile_layout` is never zero-sized.
            let p = unsafe { std::alloc::alloc(layout) };
            if p.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            p
        }
    };
    if B::SIM {
        nvtraverse_pmem::sim::current_register_range(ptr as usize, size);
    }
    Some(ptr)
}

/// Frees a node allocated by [`alloc_node`], returning it to whichever heap
/// issued it (persistent pool or volatile heap): drops it in place, then
/// [`free_bytes`] at `T`'s size and alignment.
///
/// # Safety
///
/// `ptr` must come from [`alloc_node`], must not be reachable by any thread,
/// and must not be freed twice.
#[inline]
pub unsafe fn free<T>(ptr: *mut T) {
    // SAFETY: the caller's contract is `free_bytes`'s, at `T`'s layout.
    unsafe {
        std::ptr::drop_in_place(ptr);
        free_bytes(ptr.cast(), std::mem::size_of::<T>(), std::mem::align_of::<T>());
    }
}

/// Returns `size` bytes at `ptr` to whichever heap issued them, found from
/// the address alone ([`nvtraverse_pmem::heap::owner_of`]): the owning
/// pool, else the volatile heap at the exact layout [`try_alloc_bytes`]
/// used.
///
/// Under a simulating backend the **entire** range is removed from the
/// crash simulator before the memory is returned — the `PCell` destructors
/// only cover the cell words, and non-cell words (keys, flags, padding)
/// would otherwise linger as dangling registrations that a later rollback
/// writes through.
///
/// # Safety
///
/// `ptr` must come from [`try_alloc_bytes`] (or a typed wrapper) with this
/// same `size` — and, for a volatile allocation, this same `align` (a pool
/// block's alignment is its pool's, whatever was asked) — must not be
/// reachable by any thread, and must not be freed twice.
#[inline]
pub unsafe fn free_bytes(ptr: *mut u8, size: usize, align: usize) {
    nvtraverse_pmem::sim::current_deregister_range_if_active(ptr as usize, size);
    match heap::owner_of(ptr) {
        // SAFETY: `ptr` came from this heap (the caller's contract).
        Some((ctx, dealloc)) => unsafe { dealloc(ctx, ptr, size, align) },
        // SAFETY: a volatile allocation made at this very layout.
        None => unsafe { std::alloc::dealloc(ptr, volatile_layout(size, align)) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvtraverse_pmem::{Noop, PCell, Sim, SimHandle, POISON};

    struct Node<B: Backend> {
        a: PCell<u64, B>,
        b: PCell<u64, B>,
    }

    #[test]
    fn alloc_without_sim_needs_no_context() {
        let p = alloc_node::<_, Noop>(Node::<Noop> {
            a: PCell::new(1),
            b: PCell::new(2),
        });
        unsafe {
            assert_eq!((*p).a.load(), 1);
            free(p);
        }
    }

    #[test]
    fn sim_alloc_registers_every_word_as_unpersisted() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let p = alloc_node::<_, Sim>(Node::<Sim> {
            a: PCell::new(1),
            b: PCell::new(2),
        });
        assert_eq!(sim.tracked_cells(), 2);
        // Never flushed: a crash poisons the whole node.
        unsafe { sim.crash_and_rollback() };
        unsafe {
            assert_eq!((*p).a.peek_bits(), POISON);
            assert_eq!((*p).b.peek_bits(), POISON);
            free(p);
        }
        assert_eq!(sim.tracked_cells(), 0, "free must deregister the cells");
    }

    #[test]
    fn sim_alloc_then_flush_survives_crash() {
        let sim = SimHandle::new();
        let _g = sim.enter();
        let p = alloc_node::<_, Sim>(Node::<Sim> {
            a: PCell::new(7),
            b: PCell::new(8),
        });
        <Sim as Backend>::flush_range(p as *const u8, std::mem::size_of::<Node<Sim>>());
        <Sim as Backend>::fence();
        unsafe { sim.crash_and_rollback() };
        unsafe {
            assert_eq!((*p).a.load(), 7);
            assert_eq!((*p).b.load(), 8);
            free(p);
        }
    }

    #[test]
    fn ebr_reclaim_deregisters_the_whole_node() {
        // A node with a non-cell word: the `PCell` destructor alone would
        // leave `key`'s registration dangling after reclamation.
        struct Mixed {
            cell: PCell<u64, Sim>,
            key: u64,
        }
        let sim = SimHandle::new();
        let _g = sim.enter();
        let baseline = sim.tracked_cells();
        let c = nvtraverse_ebr::Collector::new();
        {
            let g = c.pin();
            let p = alloc_node::<_, Sim>(Mixed {
                cell: PCell::new(1),
                key: 2,
            });
            unsafe { (*p).cell.store(3) };
            let _ = unsafe { (*p).key };
            assert!(sim.tracked_cells() > baseline);
            unsafe { g.retire(p) };
        }
        c.drain();
        assert_eq!(
            sim.tracked_cells(),
            baseline,
            "reclaimed node left dangling Sim registrations"
        );
    }

    #[test]
    fn unscoped_and_volatile_scopes_allocate_outside_every_open_pool() {
        let open = |tag: &str| {
            let path = std::env::temp_dir()
                .join(format!("nvt-alloc-scope-{}-{tag}.pool", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let pool = Pool::builder().path(&path).capacity(1 << 20).create().unwrap();
            (pool, path)
        };
        let ((a, path_a), (b, path_b)) = (open("a"), open("b"));
        let in_a_pool = |p: *mut u64| a.contains(p as *const u8) || b.contains(p as *const u8);

        // Two pools open, no scope entered: an open pool is not a target.
        let p = alloc_node::<_, Noop>(1u64);
        assert!(!in_a_pool(p));
        unsafe { free(p) };

        let pooled = PoolCtx::of(&a).enter();
        let p = alloc_node::<_, Noop>(2u64);
        assert!(a.contains(p as *const u8));
        unsafe { free(p) };
        {
            // Volatile nested inside pooled means the volatile heap, not "whatever
            // encloses me" …
            let _volatile = PoolCtx::volatile().enter();
            assert!(!PoolCtx::current().is_pooled());
            let p = alloc_node::<_, Noop>(3u64);
            assert!(!in_a_pool(p));
            unsafe { free(p) };
        }
        // … and its drop restores the pooled target.
        let p = alloc_node::<_, Noop>(4u64);
        assert!(a.contains(p as *const u8));
        unsafe { free(p) };
        drop(pooled);
        assert!(!PoolCtx::current().is_pooled());

        a.verify_heap().unwrap();
        assert!(a.live_offsets().is_empty() && b.live_offsets().is_empty());
        drop((a, b));
        for path in [path_a, path_b] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn foreign_heap_pointers_route_back_to_their_heap() {
        // A fake foreign heap: hands out boxed blocks, records frees.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static FREED: AtomicUsize = AtomicUsize::new(0);
        unsafe fn fake_dealloc(_ctx: usize, ptr: *mut u8, size: usize, align: usize) {
            FREED.fetch_add(1, Ordering::SeqCst);
            unsafe {
                std::alloc::dealloc(ptr, std::alloc::Layout::from_size_align(size, align).unwrap())
            };
        }
        let layout = std::alloc::Layout::new::<Node<Noop>>();
        let p = unsafe { std::alloc::alloc(layout) } as *mut Node<Noop>;
        unsafe {
            p.write(Node {
                a: PCell::new(1),
                b: PCell::new(2),
            })
        };
        heap::register_region(p as usize, layout.size(), 0, fake_dealloc);
        unsafe { free(p) };
        assert_eq!(FREED.load(Ordering::SeqCst), 1, "foreign dealloc not used");
        heap::unregister_region(p as usize);
    }
}
