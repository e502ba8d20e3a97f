//! Epoch-based memory reclamation for the NVTraverse data structures.
//!
//! The paper's evaluation (§5.1) manages memory with `ssmem`, an epoch-based
//! allocator/garbage collector: threads *pin* an epoch while operating on a
//! structure, removed nodes are *retired* rather than freed, and a retired
//! node is reclaimed only after every thread has moved two epochs past the
//! retirement — at which point no thread can still hold a reference to it.
//!
//! This crate is a compact, dependency-free implementation of that scheme:
//!
//! * [`Collector`] — one per data structure (or shared), holding the global
//!   epoch and the participant registry.
//! * [`Collector::pin`] — announce the current epoch; returns a [`Guard`]
//!   whose lifetime protects any pointer read while pinned.
//! * [`Guard::retire`] — hand a removed node to the collector for deferred
//!   reclamation ([`Guard::retire_with`] when only the node's own free
//!   function knows its size).
//! * [`Collector::drain`] reclaims what it can now; [`Collector::close`]
//!   stops all reclamation for good — a persistent pool does both before it
//!   unmaps. [`Collector::leaking`] is closed from birth: crash tests use it
//!   so that simulated-NVRAM rollback never writes through a dangling
//!   pointer, mirroring how a persistent heap survives a crash.
//!
//! # The pin path and its orderings
//!
//! Every structure operation starts with a pin, so pinning is kept to one
//! thread-local read and one announce/re-read handshake: no lock, no hash,
//! and no write to a cache line another thread writes.
//!
//! * **Finding the handle.** Each thread keeps one handle per collector in a
//!   map keyed by collector id, and in front of it a one-entry cache of the
//!   collector it pinned last. Ids are never reused, so a cache entry cannot
//!   name a collector created later at the same address. Two collectors
//!   pinned alternately on one thread miss the cache and take the map.
//! * **`pin`: `SeqCst` store, then `SeqCst` re-read.** The thread announces
//!   `epoch << 1 | 1` in its record and re-reads the global epoch. This is
//!   the one store→load fence EBR needs: either the re-read sees a newer
//!   epoch (and the thread announces again), or every later `try_advance`
//!   scan sees the announcement and refuses to move the epoch a second step
//!   past it. The scan's loads and the epoch CAS are `SeqCst` for the same
//!   total order.
//! * **`unpin`: `Release` store.** Clearing the pinned bit only has to keep
//!   the operation's own reads and writes *before* it, so that a scanner
//!   whose `SeqCst` (hence acquire) load sees the record unpinned also sees
//!   the thread done with every node it could reach. Nothing after the
//!   unpin depends on it being globally visible early: a scanner that still
//!   reads "pinned" merely fails to advance, which is always safe.
//! * **Participants.** A thread's first pin adds its record to the list an
//!   advance scans; its exit removes it, so the list holds live threads.
//! * **Orphans.** A thread that exits pushes its bags to the collector's
//!   `orphans` list and raises `orphans_present`, both under the `orphans`
//!   lock. `collect_orphans` returns on an `Acquire` load of the flag when
//!   it is clear, and lowers it (`Release`, under the same lock, so a
//!   concurrent raise cannot be lost) when the list drains. The flag
//!   publishes no data of its own — the lock does — so a stale `false`
//!   only delays adoption to the next collection.
//! * **When a pin collects.** Only when the announced epoch moved since
//!   this thread's last pin, or the thread holds sealed bags. A read-only
//!   thread on a quiet collector therefore never reaches the flag at all.
//!
//! # Example
//!
//! ```
//! use nvtraverse_ebr::Collector;
//!
//! let collector = Collector::new();
//! let guard = collector.pin();
//! let node = Box::into_raw(Box::new(42u64));
//! // ... unlink `node` from a shared structure ...
//! unsafe { guard.retire(node) }; // freed once all threads move on
//! drop(guard);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use crossbeam_utils::CachePadded;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How many retires between attempts to advance the global epoch.
const ADVANCE_EVERY: usize = 64;

/// An object awaiting reclamation.
struct Retired {
    ptr: *mut u8,
    drop_fn: unsafe fn(*mut u8),
}

// SAFETY: `Retired` is only ever dropped by the collector once no thread can
// reach the pointer; the pointer itself is not dereferenced until then.
unsafe impl Send for Retired {}

impl Retired {
    /// # Safety
    /// `ptr` must be exclusively owned by the caller (already unlinked).
    unsafe fn new<T>(ptr: *mut T) -> Self {
        unsafe fn drop_any<T>(p: *mut u8) {
            // Remove the node's crash-simulator registrations (all words,
            // not just the `PCell` fields the destructor would catch) while
            // the memory is still live: a rollback racing a reclaim, or a
            // flush of a recycled address, must never see a stale entry.
            nvtraverse_pmem::sim::current_deregister_range_if_active(
                p as usize,
                std::mem::size_of::<T>(),
            );
            // Return the object to whichever heap issued it: a registered
            // foreign heap (e.g. a persistent pool) or the volatile heap.
            if let Some((ctx, dealloc)) = nvtraverse_pmem::heap::owner_of(p as *const u8) {
                unsafe {
                    std::ptr::drop_in_place(p as *mut T);
                    dealloc(ctx, p, std::mem::size_of::<T>(), std::mem::align_of::<T>());
                }
            } else {
                drop(unsafe { Box::from_raw(p as *mut T) });
            }
        }
        Retired {
            ptr: ptr as *mut u8,
            drop_fn: drop_any::<T>,
        }
    }

    /// # Safety
    /// Callable once, when no thread can still reach the object.
    unsafe fn reclaim(self) {
        unsafe { (self.drop_fn)(self.ptr) }
    }
}

/// A bag of objects retired during one epoch.
struct Bag {
    epoch: u64,
    items: Vec<Retired>,
}

/// Per-thread participant record scanned when advancing the epoch.
struct Record {
    /// `epoch << 1 | pinned`.
    state: CachePadded<AtomicU64>,
    /// Objects this participant retired and has not reclaimed. Written
    /// only by its own thread, read by [`Collector::unreclaimed`].
    held: AtomicUsize,
}

impl Record {
    fn pinned_epoch(&self) -> Option<u64> {
        let s = self.state.load(Ordering::SeqCst);
        (s & 1 == 1).then_some(s >> 1)
    }
}

struct Inner {
    id: u64,
    epoch: CachePadded<AtomicU64>,
    records: Mutex<Vec<Arc<Record>>>,
    /// Bags abandoned by exited threads, reclaimed by whoever collects next.
    orphans: Mutex<Vec<Bag>>,
    /// Whether `orphans` may be non-empty. Written only under the `orphans`
    /// lock; read without it so that collecting costs one load when no
    /// thread has exited with garbage.
    orphans_present: AtomicBool,
    /// Set by [`Collector::close`]: nothing is reclaimed from then on.
    closed: AtomicBool,
}

impl Inner {
    /// Tries to move the global epoch forward by one. Fails if any active
    /// participant is pinned at an older epoch.
    fn try_advance(&self) -> bool {
        let global = self.epoch.load(Ordering::SeqCst);
        {
            let records = self.records.lock().unwrap_or_else(|e| e.into_inner());
            for r in records.iter() {
                if let Some(e) = r.pinned_epoch() {
                    if e != global {
                        return false;
                    }
                }
            }
        }
        self.epoch
            .compare_exchange(global, global + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn orphaned(&self) -> usize {
        let orphans = self.orphans.lock().unwrap_or_else(|e| e.into_inner());
        orphans.iter().map(|bag| bag.items.len()).sum()
    }

    /// Reclaims orphan bags that are at least two epochs old.
    fn collect_orphans(&self, global: u64) {
        if !self.orphans_present.load(Ordering::Acquire) || self.is_closed() {
            return;
        }
        let ready: Vec<Bag> = {
            let mut orphans = self.orphans.lock().unwrap_or_else(|e| e.into_inner());
            let (ready, keep): (Vec<_>, Vec<_>) =
                orphans.drain(..).partition(|b| b.epoch + 2 <= global);
            if keep.is_empty() {
                self.orphans_present.store(false, Ordering::Release);
            }
            *orphans = keep;
            ready
        };
        for bag in ready {
            for item in bag.items {
                unsafe { item.reclaim() };
            }
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // No handle can be alive (they hold an Arc on us), so everything
        // still queued is unreachable and safe to free — unless closed.
        if self.is_closed() {
            return;
        }
        let orphans = std::mem::take(self.orphans.get_mut().unwrap_or_else(|e| e.into_inner()));
        for bag in orphans {
            for item in bag.items {
                unsafe { item.reclaim() };
            }
        }
    }
}

/// An epoch-based garbage collector.
///
/// Cloning shares the same collector. Typically a data structure owns one
/// collector and pins it at the start of each operation.
#[derive(Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("epoch", &self.epoch())
            .field("closed", &self.inner.is_closed())
            .finish()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

impl Collector {
    /// Creates a collector that reclaims retired objects after two epochs.
    pub fn new() -> Self {
        Collector {
            inner: Arc::new(Inner {
                id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
                epoch: CachePadded::new(AtomicU64::new(0)),
                records: Mutex::new(Vec::new()),
                orphans: Mutex::new(Vec::new()),
                orphans_present: AtomicBool::new(false),
                closed: AtomicBool::new(false),
            }),
        }
    }

    /// Creates a collector that never reclaims: one [closed](Self::close)
    /// from birth.
    ///
    /// Used by the crash tests: simulated-crash rollback writes the persisted
    /// bits back into every registered cell, so node memory must stay valid
    /// for the whole test — exactly as a persistent heap would keep it.
    pub fn leaking() -> Self {
        let c = Self::new();
        c.close();
        c
    }

    /// The current global epoch (monotonically increasing from 0).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Pins the current thread, returning a guard that keeps every pointer
    /// read during its lifetime safe from reclamation. Pins nest.
    pub fn pin(&self) -> Guard {
        let handle = local_handle(self, true).expect("registered");
        handle.pin();
        Guard { handle }
    }

    /// Makes a best effort to advance the epoch and reclaim everything this
    /// thread and exited threads have retired. Intended for tests and
    /// shutdown paths, not the hot path. Registers no participant.
    pub fn synchronize(&self) {
        for _ in 0..3 {
            self.inner.try_advance();
        }
        let global = self.epoch();
        self.inner.collect_orphans(global);
        if let Some(handle) = local_handle(self, false) {
            handle.seal_current();
            handle.collect(global);
        }
    }

    /// Reclaims everything this thread and exited threads retired: three
    /// [`synchronize`](Self::synchronize) passes, as the newest bags need two
    /// epoch ticks to age out and one more to be collected. Another live
    /// thread's bags stay with it.
    pub fn drain(&self) {
        for _ in 0..3 {
            self.synchronize();
        }
    }

    /// Closes the collector: from now on nothing retired into it is
    /// reclaimed — not from a thread's bags, not from the orphans, not when
    /// the collector drops — and a retire forgets its object at once.
    ///
    /// A persistent pool [drains](Self::drain) and closes its collector
    /// before it unmaps, so a node still in another thread's bag stays
    /// allocated for the next open's recovery GC; freeing it later would hit
    /// an unmapped range or, after a reopen at the same base, a block that
    /// GC already took back. The calling thread's participant goes at once,
    /// other threads' when they exit.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
        let id = self.inner.id;
        // During thread teardown the map may be gone, and its handles too.
        let _ = LOCAL.try_with(|local| {
            local.last.borrow_mut().take_if(|(last_id, _)| *last_id == id);
            local.handles.borrow_mut().remove(&id)
        });
    }

    /// Number of retired objects no [`drain`](Self::drain) on this thread
    /// reached: every live participant's bags plus the orphans of exited
    /// threads. After [`close`](Self::close) the count no longer falls —
    /// nothing is reclaimed — so it is exactly what the close stranded; a
    /// persistent pool writes its sealed summary only when it is 0. A
    /// thread exiting concurrently may be counted twice, never missed.
    pub fn unreclaimed(&self) -> usize {
        let records = self.inner.records.lock().unwrap_or_else(|e| e.into_inner());
        let held: usize = records.iter().map(|r| r.held.load(Ordering::Relaxed)).sum();
        drop(records);
        held + self.inner.orphaned()
    }

    /// Number of objects this thread has retired that are not yet reclaimed.
    pub fn local_garbage(&self) -> usize {
        let handle = local_handle(self, true).expect("registered");
        let bags = handle.bags.borrow();
        let current = handle.current.borrow();
        bags.iter().map(|b| b.items.len()).sum::<usize>() + current.len()
    }
}

struct HandleInner {
    collector: Arc<Inner>,
    record: Arc<Record>,
    /// Sealed bags, oldest first.
    bags: RefCell<VecDeque<Bag>>,
    /// Items retired in `current_epoch`, not yet sealed.
    current: RefCell<Vec<Retired>>,
    current_epoch: Cell<u64>,
    pin_depth: Cell<usize>,
    retires_since_advance: Cell<usize>,
}

impl HandleInner {
    fn pin(&self) {
        let depth = self.pin_depth.get();
        if depth == 0 {
            // Announce our epoch; re-read to make sure the announcement is
            // visible before we trust `e` (standard EBR handshake).
            let mut e = self.collector.epoch.load(Ordering::SeqCst);
            loop {
                self.record.state.store(e << 1 | 1, Ordering::SeqCst);
                let now = self.collector.epoch.load(Ordering::SeqCst);
                if now == e {
                    break;
                }
                e = now;
            }
            // Nothing can have become reclaimable unless the epoch moved or
            // bags sealed earlier are still waiting for it to.
            let moved = e != self.current_epoch.get();
            if moved {
                self.seal_current();
                self.current_epoch.set(e);
            }
            if moved || !self.bags.borrow().is_empty() {
                self.collect(e);
            }
        }
        self.pin_depth.set(depth + 1);
    }

    fn unpin(&self) {
        let depth = self.pin_depth.get();
        debug_assert!(depth > 0);
        if depth == 1 {
            let e = self.current_epoch.get();
            self.record.state.store(e << 1, Ordering::Release);
        }
        self.pin_depth.set(depth - 1);
    }

    fn seal_current(&self) {
        let items = std::mem::take(&mut *self.current.borrow_mut());
        if !items.is_empty() {
            self.bags.borrow_mut().push_back(Bag {
                epoch: self.current_epoch.get(),
                items,
            });
        }
    }

    /// Frees every sealed bag that is two epochs old.
    fn collect(&self, global: u64) {
        if self.collector.is_closed() {
            return;
        }
        loop {
            let bag = {
                let mut bags = self.bags.borrow_mut();
                match bags.front() {
                    Some(b) if b.epoch + 2 <= global => bags.pop_front(),
                    _ => None,
                }
            };
            match bag {
                Some(bag) => {
                    self.hold(-(bag.items.len() as isize));
                    for item in bag.items {
                        unsafe { item.reclaim() };
                    }
                }
                None => break,
            }
        }
        self.collector.collect_orphans(global);
    }

    /// Adjusts this participant's [`Record::held`] count; only its own
    /// thread writes it, so a load and a store suffice.
    fn hold(&self, delta: isize) {
        let held = &self.record.held;
        held.store(held.load(Ordering::Relaxed).wrapping_add_signed(delta), Ordering::Relaxed);
    }

    fn retire(&self, item: Retired) {
        if self.collector.is_closed() {
            return; // `Retired` has no `Drop`: the object stays valid forever.
        }
        self.current.borrow_mut().push(item);
        self.hold(1);
        let n = self.retires_since_advance.get() + 1;
        if n >= ADVANCE_EVERY {
            self.retires_since_advance.set(0);
            if self.collector.try_advance() {
                let global = self.collector.epoch.load(Ordering::SeqCst);
                self.collect(global);
            }
        } else {
            self.retires_since_advance.set(n);
        }
    }
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        // Bags first, record second: a concurrent `unreclaimed` may count
        // them twice, but never misses them.
        self.seal_current();
        let bags: Vec<Bag> = self.bags.borrow_mut().drain(..).collect();
        if !bags.is_empty() {
            let mut orphans = self.collector.orphans.lock().unwrap_or_else(|e| e.into_inner());
            orphans.extend(bags);
            self.collector.orphans_present.store(true, Ordering::Release);
        }
        let mut records = self.collector.records.lock().unwrap_or_else(|e| e.into_inner());
        records.retain(|r| !Arc::ptr_eq(r, &self.record));
    }
}

/// This thread's handles.
struct Local {
    /// The collector pinned last, by id, and its handle: the common pin
    /// (same collector as last time) stops here.
    last: RefCell<Option<(u64, Rc<HandleInner>)>>,
    /// Every collector this thread has used, by id.
    handles: RefCell<HashMap<u64, Rc<HandleInner>>>,
}

thread_local! {
    static LOCAL: Local = Local {
        last: RefCell::new(None),
        handles: RefCell::new(HashMap::new()),
    };
}

/// This thread's handle for `collector`. A thread without one registers
/// only if `join`: draining must not make a thread a participant.
fn local_handle(collector: &Collector, join: bool) -> Option<Rc<HandleInner>> {
    let id = collector.inner.id;
    LOCAL.with(|local| {
        if let Some((last_id, handle)) = &*local.last.borrow() {
            if *last_id == id {
                return Some(Rc::clone(handle));
            }
        }
        let handle = match local.handles.borrow_mut().entry(id) {
            Entry::Occupied(e) => Rc::clone(e.get()),
            Entry::Vacant(e) if join => Rc::clone(e.insert(register(collector))),
            Entry::Vacant(_) => return None,
        };
        *local.last.borrow_mut() = Some((id, Rc::clone(&handle)));
        Some(handle)
    })
}

/// Adds this thread to `collector`'s participants.
fn register(collector: &Collector) -> Rc<HandleInner> {
    let record = Arc::new(Record {
        state: CachePadded::new(AtomicU64::new(0)),
        held: AtomicUsize::new(0),
    });
    collector
        .inner
        .records
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&record));
    Rc::new(HandleInner {
        collector: Arc::clone(&collector.inner),
        record,
        bags: RefCell::new(VecDeque::new()),
        current: RefCell::new(Vec::new()),
        current_epoch: Cell::new(0),
        pin_depth: Cell::new(0),
        retires_since_advance: Cell::new(0),
    })
}

/// An RAII pin on the collector's current epoch.
///
/// While any guard is alive on a thread, no object retired at the pinned
/// epoch (or later) is reclaimed, so pointers read from the structure stay
/// valid. Guards are `!Send` — they belong to the pinning thread.
pub struct Guard {
    handle: Rc<HandleInner>,
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("epoch", &self.handle.current_epoch.get())
            .finish()
    }
}

impl Guard {
    /// Retires an unlinked object; it is dropped (as a `Box<T>`) once every
    /// thread has advanced two epochs.
    ///
    /// # Safety
    ///
    /// * `ptr` must have been allocated by `Box::<T>::new` and be fully
    ///   unlinked: no *new* references to it can be created after this call.
    /// * `retire` must be called at most once per object.
    pub unsafe fn retire<T>(&self, ptr: *mut T) {
        self.handle.retire(unsafe { Retired::new(ptr) });
    }

    /// Retires an unlinked object that is freed by calling `free(ptr)` once
    /// every thread has advanced two epochs — for objects whose size is not
    /// their type's (a skiplist node is exactly its tower), which only the
    /// object's own free function can return to its heap.
    ///
    /// # Safety
    ///
    /// * `ptr` must be fully unlinked, as for [`Guard::retire`], and
    ///   retired at most once.
    /// * `free(ptr)` must be sound to call once, on any thread, when no
    ///   thread can still reach the object.
    pub unsafe fn retire_with(&self, ptr: *mut u8, free: unsafe fn(*mut u8)) {
        self.handle.retire(Retired { ptr, drop_fn: free });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.handle.unpin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Per-test drop counter (a shared static would race between tests).
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counter() -> Arc<AtomicUsize> {
        Arc::new(AtomicUsize::new(0))
    }

    #[test]
    fn retired_objects_are_eventually_dropped() {
        let c = Collector::new();
        let n = counter();
        for _ in 0..10 {
            let g = c.pin();
            unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n))))) };
        }
        c.synchronize();
        c.synchronize();
        assert_eq!(n.load(Ordering::SeqCst), 10, "retired objects never reclaimed");
    }

    #[test]
    fn retire_with_frees_through_the_objects_own_function() {
        static FREED: AtomicUsize = AtomicUsize::new(0);
        unsafe fn free_pair(p: *mut u8) {
            FREED.fetch_add(1, Ordering::SeqCst);
            drop(unsafe { Box::from_raw(p.cast::<[u64; 2]>()) });
        }
        let c = Collector::new();
        for _ in 0..3 {
            let g = c.pin();
            unsafe { g.retire_with(Box::into_raw(Box::new([7u64; 2])).cast(), free_pair) };
        }
        assert_eq!(std::mem::size_of::<Retired>(), 2 * std::mem::size_of::<usize>());
        assert_eq!(FREED.load(Ordering::SeqCst), 0, "freed while still in its epoch");
        c.synchronize();
        c.synchronize();
        assert_eq!(FREED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn nothing_is_dropped_while_pinned_elsewhere() {
        let c = Collector::new();
        let c2 = c.clone();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            let _g = c2.pin();
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();

        struct Flagged(Arc<AtomicBool>);
        impl Drop for Flagged {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let freed = Arc::new(AtomicBool::new(false));
        {
            let g = c.pin();
            unsafe { g.retire(Box::into_raw(Box::new(Flagged(Arc::clone(&freed))))) };
        }
        for _ in 0..8 {
            c.synchronize();
        }
        assert!(
            !freed.load(Ordering::SeqCst),
            "object freed while another thread was pinned at its epoch"
        );
        release_tx.send(()).unwrap();
        t.join().unwrap();
        for _ in 0..8 {
            c.synchronize();
        }
        assert!(freed.load(Ordering::SeqCst));
    }

    #[test]
    fn leaking_collector_never_reclaims() {
        let c = Collector::leaking();
        assert!(c.inner.is_closed());
        let n = counter();
        {
            let g = c.pin();
            unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n))))) };
        }
        // Nor through the thread-exit hand-off and another thread's pins.
        let (c2, n2) = (c.clone(), Arc::clone(&n));
        std::thread::spawn(move || {
            let g = c2.pin();
            unsafe { g.retire(Box::into_raw(Box::new(Counted(n2)))) };
        })
        .join()
        .unwrap();
        for _ in 0..8 {
            c.synchronize();
            drop(c.pin());
        }
        assert_eq!(n.load(Ordering::SeqCst), 0);
        assert!(!c.inner.orphans_present.load(Ordering::SeqCst));
    }

    #[test]
    fn exited_threads_leave_no_participant_record() {
        let c = Collector::new();
        let records = |c: &Collector| c.inner.records.lock().unwrap().len();
        for _ in 0..200 {
            let c2 = c.clone();
            std::thread::spawn(move || drop(c2.pin())).join().unwrap();
        }
        assert_eq!(records(&c), 0, "exited threads are still scanned");
        // Live participants stay: this thread and one parked thread.
        drop(c.pin());
        let (c2, (ready_tx, ready_rx)) = (c.clone(), std::sync::mpsc::channel());
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let parked = std::thread::spawn(move || {
            drop(c2.pin());
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        assert_eq!(records(&c), 2);
        go_tx.send(()).unwrap();
        parked.join().unwrap();
        assert_eq!(records(&c), 1);
        // Draining registers nobody; closing drops this thread's record.
        let fresh = Collector::new();
        fresh.drain();
        assert_eq!(records(&fresh), 0, "a drain registered a participant");
        c.close();
        assert_eq!(records(&c), 0, "close kept the closing thread's record");
    }

    #[test]
    fn a_closed_collector_reclaims_nothing_it_still_holds() {
        let c = Collector::new();
        let n = counter();
        // Another thread's bag outstanding at close, then handed over on exit.
        let (c2, n2) = (c.clone(), Arc::clone(&n));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            drop(c2.pin());
            let g = c2.pin();
            unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n2))))) };
            drop(g);
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        // This thread's own retire is reclaimable by the drain.
        let g = c.pin();
        unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n))))) };
        drop(g);
        c.drain();
        assert_eq!(
            n.load(Ordering::SeqCst),
            1,
            "the drain missed this thread's bag"
        );
        c.close();
        go_tx.send(()).unwrap();
        t.join().unwrap();
        {
            let g = c.pin();
            unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n))))) };
        }
        for _ in 0..8 {
            c.drain();
        }
        drop(c);
        assert_eq!(n.load(Ordering::SeqCst), 1, "a closed collector reclaimed");
    }

    #[test]
    fn unreclaimed_counts_what_a_drain_cannot_reach() {
        let c = Collector::new();
        let n = counter();
        let g = c.pin();
        unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n))))) };
        drop(g);
        assert_eq!(c.unreclaimed(), 1);
        c.drain();
        assert_eq!(c.unreclaimed(), 0, "this thread's drained bag is still counted");
        // Another live thread's bag, then the same bag as an orphan.
        let (c2, n2) = (c.clone(), Arc::clone(&n));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::spawn(move || {
            let g = c2.pin();
            for _ in 0..3 {
                unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n2))))) };
            }
            drop(g);
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        c.drain();
        assert_eq!(c.unreclaimed(), 3, "another thread's bag was missed");
        c.close();
        go_tx.send(()).unwrap();
        t.join().unwrap();
        assert_eq!(c.unreclaimed(), 3, "the exited thread's orphans were missed");
        assert_eq!(n.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pins_nest() {
        let c = Collector::new();
        let g1 = c.pin();
        let g2 = c.pin();
        drop(g1);
        // Still pinned: the epoch cannot advance past us twice.
        let e = c.epoch();
        c.synchronize();
        c.synchronize();
        assert!(c.epoch() <= e + 1, "epoch advanced twice while pinned");
        drop(g2);
    }

    #[test]
    fn epoch_advances_when_unpinned() {
        let c = Collector::new();
        let e = c.epoch();
        c.synchronize();
        assert!(c.epoch() > e);
    }

    #[test]
    fn exiting_thread_orphans_are_reclaimed() {
        let c = Collector::new();
        let n = counter();
        let c2 = c.clone();
        let n2 = Arc::clone(&n);
        std::thread::spawn(move || {
            let g = c2.pin();
            for _ in 0..5 {
                unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n2))))) };
            }
        })
        .join()
        .unwrap();
        for _ in 0..8 {
            c.synchronize();
        }
        assert_eq!(n.load(Ordering::SeqCst), 5, "orphan bags were lost");
    }

    #[test]
    fn collector_drop_reclaims_leftovers() {
        let n = counter();
        let c2 = Collector::new();
        let n2 = Arc::clone(&n);
        std::thread::spawn(move || {
            let g = c2.pin();
            for _ in 0..5 {
                unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n2))))) };
            }
            // thread exits; collector dropped right after
        })
        .join()
        .unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 5);
    }

    /// Marks its slot when dropped, so a double or missing drop is visible
    /// per object and not only in a total.
    struct Slotted(Arc<Vec<AtomicUsize>>, usize);
    impl Drop for Slotted {
        fn drop(&mut self) {
            self.0[self.1].fetch_add(1, Ordering::SeqCst);
        }
    }

    /// `NVT_STRESS_ITERS` scales the run (CI sets 50 in release).
    #[test]
    fn concurrent_stress_drops_everything_exactly_once() {
        const THREADS: usize = 4;
        let per_thread = 500
            * std::env::var("NVT_STRESS_ITERS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(1);
        let c = Collector::new();
        let slots: Arc<Vec<AtomicUsize>> =
            Arc::new((0..THREADS * per_thread).map(|_| AtomicUsize::new(0)).collect());
        let start = Arc::new(std::sync::Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (c, slots, start) = (c.clone(), Arc::clone(&slots), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..per_thread {
                        let g = c.pin();
                        let nested = (i % 7 == 0).then(|| c.pin());
                        let obj = Slotted(Arc::clone(&slots), t * per_thread + i);
                        unsafe { g.retire(Box::into_raw(Box::new(obj))) };
                        drop(g);
                        drop(nested);
                    }
                })
            })
            .collect();
        // `join` (unlike `thread::scope`) returns after the worker's TLS
        // destructors, so every bag has been handed over by now.
        for w in workers {
            w.join().unwrap();
        }
        c.synchronize();
        let wrong = slots.iter().filter(|s| s.load(Ordering::SeqCst) != 1).count();
        assert_eq!(wrong, 0, "objects not dropped exactly once");
        assert!(!c.inner.orphans_present.load(Ordering::SeqCst));
    }

    /// Retires `Counted` objects through ordinary pinned operations until
    /// `c`'s epoch reaches `target` — no `synchronize`.
    fn operate_until_epoch(c: &Collector, target: u64, n: &Arc<AtomicUsize>) {
        for _ in 0..=(target as usize + 1) * ADVANCE_EVERY {
            if c.epoch() >= target {
                break;
            }
            let g = c.pin();
            unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(n))))) };
        }
        assert!(c.epoch() >= target, "retires did not advance the epoch");
    }

    #[test]
    fn orphans_are_adopted_by_another_threads_pins() {
        let c = Collector::new();
        let n = counter();
        let (c2, n2) = (c.clone(), Arc::clone(&n));
        std::thread::spawn(move || {
            let g = c2.pin();
            for _ in 0..5 {
                unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n2))))) };
            }
        })
        .join()
        .unwrap();
        assert!(c.inner.orphans_present.load(Ordering::SeqCst), "hand-off did not raise the flag");
        assert_eq!(n.load(Ordering::SeqCst), 0);

        // One epoch later the bag is too young: it stays, and so does the flag.
        let own = counter();
        operate_until_epoch(&c, 1, &own);
        drop(c.pin());
        assert_eq!(n.load(Ordering::SeqCst), 0, "orphans reclaimed after one epoch");
        assert!(c.inner.orphans_present.load(Ordering::SeqCst));

        operate_until_epoch(&c, 2, &own);
        drop(c.pin());
        assert_eq!(n.load(Ordering::SeqCst), 5, "pins never adopted the orphans");
        assert!(c.inner.orphans.lock().unwrap().is_empty());
        assert!(
            !c.inner.orphans_present.load(Ordering::SeqCst),
            "flag still raised over an empty list"
        );
    }

    #[test]
    fn alternating_and_nested_collectors_keep_separate_state() {
        let (a, b) = (Collector::new(), Collector::new());
        let (na, nb) = (counter(), counter());
        // Every pin below misses the one-entry cache.
        let ga = a.pin();
        let gb = b.pin();
        let ga2 = a.pin();
        unsafe { ga2.retire(Box::into_raw(Box::new(Counted(Arc::clone(&na))))) };
        for _ in 0..2 {
            unsafe { gb.retire(Box::into_raw(Box::new(Counted(Arc::clone(&nb))))) };
        }
        assert_eq!((a.local_garbage(), b.local_garbage()), (1, 2));
        drop(ga);
        drop(gb);
        // `b` is unpinned and moves on; `a` is still pinned by `ga2`.
        b.synchronize();
        assert_eq!(nb.load(Ordering::SeqCst), 2);
        assert_eq!(b.local_garbage(), 0);
        a.synchronize();
        a.synchronize();
        assert!(a.epoch() <= 1, "epoch advanced twice past a nested pin");
        assert_eq!(na.load(Ordering::SeqCst), 0);
        assert_eq!(a.local_garbage(), 1);
        drop(ga2);
        for _ in 0..100 {
            drop(a.pin());
            drop(b.pin());
        }
        a.synchronize();
        assert_eq!(na.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_new_collector_never_hits_a_stale_cache_entry() {
        let n = counter();
        for round in 0..4 {
            let c = Collector::new();
            assert_eq!(c.local_garbage(), 0, "round {round}: saw another collector's bags");
            let g = c.pin();
            assert_eq!(g.handle.collector.id, c.inner.id);
            assert_eq!(g.handle.current_epoch.get(), 0);
            unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&n))))) };
            drop(g);
            // Leave the cache pointing at a collector that moved on and died.
            c.synchronize();
            assert_eq!(n.load(Ordering::SeqCst), round + 1);
        }
    }

    #[test]
    fn thread_exit_hands_bags_over_exactly_once() {
        // The exiting thread's cache names `a` in one round and `b` in the
        // other; its map holds both either way.
        for last_is_a in [true, false] {
            let (a, b) = (Collector::new(), Collector::new());
            let (na, nb) = (counter(), counter());
            let (a2, b2, na2, nb2) = (a.clone(), b.clone(), Arc::clone(&na), Arc::clone(&nb));
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let g = a2.pin();
                    unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&na2))))) };
                }
                for _ in 0..2 {
                    let g = b2.pin();
                    unsafe { g.retire(Box::into_raw(Box::new(Counted(Arc::clone(&nb2))))) };
                }
                if last_is_a {
                    drop(a2.pin());
                }
            })
            .join()
            .unwrap();
            let handed = |c: &Collector| -> usize {
                c.inner.orphans.lock().unwrap().iter().map(|bag| bag.items.len()).sum()
            };
            assert_eq!((handed(&a), handed(&b)), (3, 2));
            a.synchronize();
            b.synchronize();
            assert_eq!((na.load(Ordering::SeqCst), nb.load(Ordering::SeqCst)), (3, 2));
            assert_eq!((handed(&a), handed(&b)), (0, 0));
        }
    }

    #[test]
    fn two_collectors_are_independent() {
        let a = Collector::new();
        let b = Collector::new();
        let _ga = a.pin();
        // Pinned `a` must not stop `b` from advancing.
        let e = b.epoch();
        b.synchronize();
        assert!(b.epoch() > e);
    }

    #[test]
    fn local_garbage_reports_pending() {
        let c = Collector::new();
        let n = counter();
        let g = c.pin();
        unsafe { g.retire(Box::into_raw(Box::new(Counted(n)))) };
        assert!(c.local_garbage() >= 1);
        drop(g);
    }
}
