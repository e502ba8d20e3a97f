//! The pool's allocation engine: per-thread magazines over one free bitmap
//! per size class, with a CAS-bump slab frontier.
//!
//! The persistent format is 16-byte block headers, size-classed blocks and a
//! persisted frontier word in the pool header; everything in this module is
//! volatile state rebuilt from those by the recovery heap walk of an open
//! after a crash, or restored from the summary a clean close sealed
//! ([`Engine::seal`], [`Engine::restore`]).
//! The walk only *reads*: it writes no link word into the free blocks it
//! finds (tier 2 below). The only heap store an open makes is the links
//! of oversize free blocks; the recovery collection that may follow
//! clears and flushes the headers it sweeps.
//!
//! Three tiers, ordered hot to cold:
//!
//! 1. **Per-thread magazines** — a volatile `Vec<u64>` of free block offsets
//!    per size class per thread ([`MAG_CAP`] deep). The common alloc/free is
//!    a thread-local push/pop plus one header flush: no shared-memory CAS,
//!    no lock, no fence (see *Deferred fences* below).
//! 2. **The class free bitmaps** — every small-class free block outside the
//!    magazines, one bitmap per class with one bit per 16-byte heap unit,
//!    each behind its own class lock for the engine's whole life. A
//!    magazine that overflows *drains* [`DRAIN`] blocks into it: it flushes
//!    their headers, then sets their bits and lowers the class's word
//!    cursor. A magazine miss *claims* up to [`REFILL`] blocks in address
//!    order from that cursor and clears their bits. Either costs one class
//!    lock per batch, and reads only its own class's bitmap — no block
//!    header, no link word, no other class's lock. The open's heap walk
//!    fills the same bitmaps with the free blocks it finds, and the
//!    recovery collection's sweep drains into them, so after an open
//!    allocations claim recovered blocks exactly as they claim drained
//!    ones. A claim comes before the frontier, so no slab is carved
//!    while a free block of its class waits. A bitmap covers the heap up to
//!    its highest free block and grows under the class lock when a drain
//!    passes its end. Oversize blocks never enter it: they sit on a
//!    first-fit list behind a mutex of their own.
//! 3. **CAS-bump slab frontier** — when a class is dry everywhere, a thread
//!    reserves a whole slab of blocks with one CAS on the volatile frontier,
//!    formats every header in the slab, and only then publishes the persisted
//!    frontier. Publication is *in reservation order* (a short spin on
//!    [`Engine::published`]), which maintains the recovery invariant:
//!    every byte below the persisted frontier is covered by a fully-persisted
//!    block header. A crash between reservation and publication leaves the
//!    slab invisible — the space is simply re-carved after reopen.
//!
//! # Deferred persistence ("the destination is more important than the journey")
//!
//! A flush + fence on every allocator metadata update would dominate the hot
//! pair. The engine applies the paper's own philosophy to the allocator and
//! persists headers at the *destination*, not along the journey:
//!
//! * **Alloc** — the allocated header is stored, and flushed only when it
//!   occupies a cache line of its own ([`flush_header_if_isolated`]); in the
//!   other three alignments it shares the line with the payload's first
//!   bytes, which the caller flushes anyway before durably publishing the
//!   node (every durability policy does `flush_range(node)` + fence before
//!   the linking CAS, and a fence orders **all** earlier flushes by the
//!   thread). A crash before that fence may recover the block as free — but
//!   the caller had not durably published it either, so handing it out again
//!   is correct.
//! * **Free** — the free bit is stored at `dealloc` but flushed in batch
//!   when the magazine drains to its class bitmap (or at clean close /
//!   thread exit), where the lines are cold. Flushing at `dealloc` would
//!   stall the magazine's LIFO reallocation of the same line on the
//!   in-flight write-back. Power failure can leak magazine-resident blocks
//!   (bounded per thread × class); it can never double-allocate.
//! * **Frontier** — slab formatting and the frontier publish keep their own
//!   flush + fence: the walk invariant (all bytes below the persisted
//!   frontier have persisted headers) is the allocator's to maintain and no
//!   caller fence can restore it.
//!
//! Magazines and the free bitmaps are volatile and rebuilt by the recovery
//! walk on open (or restored from a clean close's sealed summary, which the
//! close writes only once every magazine is back in the bitmaps); the
//! allocated bit is the only persistent free/live fact the walk trusts.

use crate::{
    gc, make_allocated, seal, Mem, CLASS_SIZES, HEAP_START, OFF_FRONTIER, OVERSIZE, W0_ALLOCATED,
    W0_CLASS_SHIFT, W0_SIZE_MASK,
};
use nvtraverse_obs as obs;
use nvtraverse_pmem::{Backend, MmapBackend};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Capacity of one per-thread magazine (blocks per size class).
const MAG_CAP: usize = 64;
/// Blocks claimed from a class bitmap into the magazine per refill.
pub(crate) const REFILL: usize = 32;
/// Blocks drained from an overflowing magazine back to its class bitmap.
const DRAIN: usize = 32;
/// Target slab size in bytes for frontier carving (small classes carve many
/// blocks per frontier CAS; classes at or above this carve one at a time).
const SLAB_TARGET: u64 = 8192;
/// Upper bound on blocks per slab (also bounds magazine spill after a carve).
const MAX_SLAB_BLOCKS: usize = 64;

/// Flushes a freshly allocated header only when it occupies a cache line
/// the caller's payload never touches (`off % 64 == 48`: the 16-byte header
/// fills the line's tail and the payload starts on the next line). In every
/// other alignment the header shares its line with the payload's first
/// bytes, so the caller's own pre-publication `flush_range` of the node
/// contents persists the header for free — and flushing here would stall
/// the caller's first payload store on the in-flight write-back.
fn flush_header_if_isolated(mem: Mem, off: u64) {
    if off % 64 == 48 {
        MmapBackend::flush(mem.ptr(off));
    }
}

/// First-fit search of the intrusive oversize list rooted at `head`:
/// unlinks and returns the first free block of at least `want` bytes, with
/// its header written as allocated (stores only — the caller decides when
/// the header is flushed).
fn oversize_first_fit(mem: Mem, head: &mut u64, want: u64, payload: u64) -> Option<u64> {
    let mut prev = 0u64;
    let mut cur = *head;
    while cur != 0 {
        let w0 = mem.load(cur);
        let next = mem.load(cur + 8);
        if w0 & W0_SIZE_MASK >= want {
            if prev == 0 {
                *head = next;
            } else {
                mem.store(prev + 8, next);
            }
            make_allocated(mem, cur, w0 & W0_SIZE_MASK, OVERSIZE, payload);
            return Some(cur);
        }
        prev = cur;
        cur = next;
    }
    None
}

// ---- the engine -------------------------------------------------------------

/// Monotonic id distinguishing engine instances in thread-local magazines
/// (a reopened pool must never consume magazine entries of a previous
/// instance, even at the same mapping address).
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

pub(crate) struct Engine {
    instance: u64,
    /// Volatile reservation frontier (CAS-bumped, slab granular).
    frontier: AtomicU64,
    /// Frontier up to which slab headers AND the persistent frontier word
    /// are known persisted. Trails `frontier` only while a slab is being
    /// formatted; publication is in reservation order.
    published: AtomicU64,
    /// Oversize blocks (exact-size, > 64 KiB): intrusive first-fit list.
    /// Behind a mutex — oversize traffic is rare and first-fit needs
    /// mid-list unlinking.
    oversize: Mutex<u64>,
    /// Per small class, its free blocks outside every magazine (tier 2 of
    /// the module docs), each class behind its own lock.
    free: [Mutex<FreeBits>; CLASS_SIZES.len()],
    /// Blocks below the published frontier, allocated or free: set by a
    /// recovery, raised by each carve. A close's summary derives the live
    /// count from it.
    blocks: AtomicU64,
    /// Threads holding a magazine set of this engine. A close seals a
    /// summary only when none but its own does: another thread's magazine
    /// may hold free blocks the class bitmaps do not.
    holders: AtomicUsize,
    /// The owning pool's metric set (allocator-domain counters land here).
    obs: &'static obs::MetricSet,
}

/// One class's free bitmap.
struct FreeBits {
    bits: gc::Bitmap,
    /// The first bitmap word that may still hold a block.
    cursor: usize,
    /// Blocks in `bits`.
    left: usize,
}

impl Default for FreeBits {
    fn default() -> Self {
        FreeBits {
            bits: gc::Bitmap::default(),
            cursor: usize::MAX,
            left: 0,
        }
    }
}

impl FreeBits {
    /// Records the free block at `off`, which lies below `frontier`.
    fn put(&mut self, off: u64, frontier: u64) {
        self.bits.set_growing(off, frontier);
        self.cursor = self.cursor.min(gc::Bitmap::word_of(off));
        self.left += 1;
    }
}

impl Engine {
    /// `metrics` is the owning pool's attributed metric set; the engine
    /// records its allocator counters (magazine hit/miss, shared-tier
    /// traffic, CAS retries, slab carves, thread-exit drains) into it.
    pub(crate) fn new(metrics: &'static obs::MetricSet) -> Self {
        Engine {
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            frontier: AtomicU64::new(HEAP_START),
            published: AtomicU64::new(HEAP_START),
            oversize: Mutex::new(0),
            free: std::array::from_fn(|_| Mutex::default()),
            blocks: AtomicU64::new(0),
            holders: AtomicUsize::new(0),
            obs: metrics,
        }
    }

    /// Allocates one block of `class` (`OVERSIZE` ⇒ exact `want` bytes),
    /// returning its block offset with an allocated header.
    pub(crate) fn alloc(&self, mem: Mem, class: usize, want: u64, payload: u64) -> Option<u64> {
        if class < OVERSIZE {
            let off = self.alloc_small(mem, class)?;
            make_allocated(mem, off, CLASS_SIZES[class], class, payload);
            flush_header_if_isolated(mem, off);
            Some(off)
        } else {
            self.alloc_oversize(mem, want, payload)
        }
    }

    /// The *published* frontier every formatted block lies below, so a
    /// concurrent heap walk never runs into a half-formatted slab.
    pub(crate) fn frontier(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Announces this (stably addressed) engine so exiting threads can
    /// drain their magazines back to it.
    pub(crate) fn register(&self, mem: Mem) {
        alive().push(AliveEntry {
            instance: self.instance,
            engine: self as *const Engine,
            mem,
        });
    }

    /// Withdraws the [`Engine::register`] announcement. Must run before the
    /// engine (or its mapping) is torn down.
    pub(crate) fn unregister(&self) {
        alive().retain(|a| a.instance != self.instance);
    }

    // -- small classes: magazine → class bitmap → slab carve --

    fn alloc_small(&self, mem: Mem, class: usize) -> Option<u64> {
        if let Some(Some(off)) = with_cache(self, |mags| mags[class].pop()) {
            self.obs.add(obs::Counter::MagHit, 1);
            return Some(off);
        }
        self.obs.add(obs::Counter::MagMiss, 1);
        let mut got = Vec::with_capacity(REFILL.max(MAX_SLAB_BLOCKS));
        // Before the frontier: a slab carved while free blocks wait would
        // grow the heap for nothing.
        self.claim(class, &mut got);
        if got.is_empty() {
            self.carve_slab(mem, class, &mut got);
        }
        let ret = *got.first()?;
        let rest = &got[1..];
        if !rest.is_empty() {
            let cached = with_cache(self, |mags| {
                let mag = &mut mags[class];
                // Reverse so got[1] (the hottest leftover) ends on top.
                mag.extend(rest.iter().rev());
            });
            if cached.is_none() {
                // TLS already torn down (thread exit path): hand the batch
                // straight back to the class bitmap.
                self.drain(mem, class, rest);
            }
        }
        Some(ret)
    }

    /// Claims up to [`REFILL`] free blocks of `class` into `out`, lowest
    /// address first, clearing their bits. Holds only `class`'s lock and
    /// reads only its bitmap, so claims of different classes never wait on
    /// each other.
    fn claim(&self, class: usize, out: &mut Vec<u64>) {
        let mut guard = self.free[class].lock().unwrap_or_else(|p| p.into_inner());
        let free = &mut *guard;
        let want = REFILL.min(free.left);
        free.bits.take(&mut free.cursor, want, out);
        debug_assert_eq!(
            out.len(),
            want,
            "class {class}: the free bitmap lost a block"
        );
        free.left -= out.len();
        drop(guard);
        self.obs.add(obs::Counter::ShardPop, out.len() as u64);
    }

    /// Reserves `n × unit` bytes from the frontier (fewer if the pool is
    /// nearly full), without formatting or publishing anything.
    fn reserve(&self, mem: Mem, unit: u64, max_n: usize) -> Option<(u64, usize)> {
        loop {
            let f = self.frontier.load(Ordering::Acquire);
            let avail = mem.len() as u64 - f;
            let n = (avail / unit).min(max_n as u64);
            if n == 0 {
                return None; // pool exhausted for this block size
            }
            let end = f + n * unit;
            if self
                .frontier
                .compare_exchange_weak(f, end, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some((f, n as usize));
            }
            self.obs.add(obs::Counter::CasRetry, 1);
        }
    }

    /// Persists the frontier word covering `[start, end)`, in reservation
    /// order: every earlier reservation must publish first, so all bytes
    /// below the persisted frontier are always covered by persisted headers.
    /// The wait is bounded by predecessors' (short, lock-free) format work.
    fn publish(&self, mem: Mem, start: u64, end: u64) {
        let mut spins = 0u32;
        while self.published.load(Ordering::Acquire) != start {
            // Brief spin for the multicore case, then yield: on few-core
            // machines the predecessor needs the CPU to finish its format,
            // and spinning a whole quantum against it would serialize worse
            // than a single global lock would.
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        mem.store(OFF_FRONTIER, end);
        mem.persist_u64(OFF_FRONTIER);
        self.published.store(end, Ordering::Release);
    }

    /// Carves a slab of `class` blocks from the frontier: one reservation
    /// CAS, persisted free headers for every block, one ordered frontier
    /// publish. Pushes the carved offsets (lowest first) into `out`.
    fn carve_slab(&self, mem: Mem, class: usize, out: &mut Vec<u64>) {
        let bs = CLASS_SIZES[class];
        let target = (MAX_SLAB_BLOCKS as u64).min((SLAB_TARGET / bs).max(1)) as usize;
        let Some((start, n)) = self.reserve(mem, bs, target) else {
            return;
        };
        self.obs.add(obs::Counter::SlabCarve, 1);
        self.obs.add(obs::Counter::SlabBlocks, n as u64);
        self.blocks.fetch_add(n as u64, Ordering::Relaxed);
        let free_w0 = bs | (class as u64) << W0_CLASS_SHIFT;
        for i in 0..n {
            let off = start + i as u64 * bs;
            mem.store(off, free_w0);
            mem.store(off + 8, 0);
            MmapBackend::flush(mem.ptr(off));
            out.push(off);
        }
        MmapBackend::fence();
        self.publish(mem, start, start + n as u64 * bs);
    }

    /// Returns the block at `off` (already validated as allocated, of
    /// `class`) to the free structures, clearing its allocated bit.
    pub(crate) fn dealloc(&self, mem: Mem, off: u64, class: usize) {
        let w0 = mem.load(off);
        mem.store(off, w0 & !W0_ALLOCATED);
        // The free bit is *stored* here but only *flushed* when the block
        // next leaves the magazine tier (a drain flushes the batch;
        // reallocation rewrites the word under the new owner's flush). A
        // magazine pops its most-recent free first, and flushing a line
        // that is about to be rewritten stalls the rewrite on the in-flight
        // write-back — measurably the single largest cost of the hot pair.
        // A power failure can therefore leak magazine-resident blocks
        // (bounded per thread and class, recovered as live and re-leaked at
        // worst), but never double-allocate: free-list membership is only
        // load-bearing for blocks that stay free, and those reach a drain
        // or a clean close, both of which persist the bit.
        if class < OVERSIZE {
            let overflow = with_cache(self, |mags| {
                let mag = &mut mags[class];
                mag.push(off);
                if mag.len() > MAG_CAP {
                    Some(mag.drain(..DRAIN).collect::<Vec<u64>>())
                } else {
                    None
                }
            });
            match overflow {
                Some(Some(batch)) => self.drain(mem, class, &batch),
                Some(None) => {}
                // TLS torn down: skip the magazine tier entirely.
                None => self.drain(mem, class, &[off]),
            }
        } else {
            self.free_oversize(mem, off);
        }
    }

    /// Links the oversize block at `off`, whose header already reads free,
    /// onto the first-fit list. Oversize blocks skip the magazine tier, so
    /// the header is flushed here.
    fn free_oversize(&self, mem: Mem, off: u64) {
        MmapBackend::flush(mem.ptr(off));
        let mut head = self.oversize.lock().unwrap_or_else(|p| p.into_inner());
        mem.store(off + 8, *head);
        *head = off;
    }

    /// Frees the blocks a recovery collection proved unreachable, given as
    /// `(header offset, class)`: each header's allocated bit is cleared,
    /// and a small block [drains](Self::drain) into its class bitmap, an
    /// oversize one joins the first-fit list. One closing fence orders the
    /// flushed headers, so a crash mid-sweep leaves each block either still
    /// allocated (the next open's collection sweeps it again) or durably
    /// free.
    pub(crate) fn sweep(&self, mem: Mem, garbage: impl Iterator<Item = (u64, usize)>) {
        let mut any = false;
        for (off, class) in garbage {
            mem.store(off, mem.load(off) & !W0_ALLOCATED);
            if class == OVERSIZE {
                self.free_oversize(mem, off);
            } else {
                self.drain(mem, class, &[off]);
            }
            any = true;
        }
        if any {
            MmapBackend::fence();
        }
    }

    fn alloc_oversize(&self, mem: Mem, want: u64, payload: u64) -> Option<u64> {
        {
            let mut head = self.oversize.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(cur) = oversize_first_fit(mem, &mut head, want, payload) {
                flush_header_if_isolated(mem, cur);
                return Some(cur);
            }
        }
        // Carve an exact block: header persisted (the walk invariant needs
        // it, caller flushes cannot stand in), then the frontier publish
        // that makes it recoverable, then hand it out.
        let (start, _) = self.reserve(mem, want, 1)?;
        self.blocks.fetch_add(1, Ordering::Relaxed);
        make_allocated(mem, start, want, OVERSIZE, payload);
        MmapBackend::flush(mem.ptr(start));
        MmapBackend::fence();
        self.publish(mem, start, start + want);
        Some(start)
    }

    /// Returns a batch of `class` free blocks to the class bitmap. Flushes
    /// every header first: this is where the free bits deferred by
    /// [`Self::dealloc`] become persistent (the lines are cold by now, so
    /// the flushes are cheap and stall nobody). Then sets their bits under
    /// the class lock. The free bit it flushes is the only heap word a
    /// drain writes.
    fn drain(&self, mem: Mem, class: usize, blocks: &[u64]) {
        for &off in blocks {
            MmapBackend::flush(mem.ptr(off));
        }
        // Every block handed out lies below the published frontier.
        let frontier = self.frontier();
        let mut free = self.free[class].lock().unwrap_or_else(|p| p.into_inner());
        for &off in blocks {
            free.put(off, frontier);
        }
        drop(free);
        self.obs.add(obs::Counter::ShardPush, blocks.len() as u64);
    }

    /// Starts the recovery walk of a fresh engine at the persisted
    /// `frontier`. The walk then [`recover_free`](Self::recover_free)s each
    /// free small-class block, and
    /// [`finish_recovery`](Self::finish_recovery) links the oversize ones.
    pub(crate) fn reset(&mut self, frontier: u64) {
        *self.frontier.get_mut() = frontier;
        *self.published.get_mut() = frontier;
    }

    /// Records the free block at `off` of small class `class` without
    /// touching it: its bit is set in the class's free bitmap. Nothing is
    /// written to the heap, so a walk that then rejects the image has
    /// changed no byte.
    pub(crate) fn recover_free(&mut self, off: u64, class: usize) {
        let frontier = *self.frontier.get_mut();
        let free = self.free[class]
            .get_mut()
            .unwrap_or_else(|p| p.into_inner());
        free.put(off, frontier);
    }

    /// Ends a recovery that found `blocks` blocks below the frontier: links
    /// the `oversize` free blocks onto their first-fit list — the one write an open makes to a free block, and
    /// only to one of more than 64 KiB. Blocks are linked in the order
    /// given (the walk's address order) onto a LIFO list, so first-fit
    /// tries the last one first — after any a later [sweep](Self::sweep)
    /// pushes.
    pub(crate) fn finish_recovery(&mut self, mem: Mem, oversize: &[u64], blocks: u64) {
        *self.blocks.get_mut() = blocks;
        let head = self.oversize.get_mut().unwrap_or_else(|p| p.into_inner());
        for &off in oversize {
            mem.store(off + 8, *head);
            *head = off;
        }
    }

    /// Fills a fresh engine from a sealed record instead of a heap walk,
    /// for a heap ending at `frontier`: the state a walk of the same heap
    /// would build.
    pub(crate) fn restore(&mut self, mem: Mem, frontier: u64, record: &seal::Record) {
        self.reset(frontier);
        let mut oversize = Vec::new();
        for (class, off) in record.blocks(mem) {
            match class {
                OVERSIZE => oversize.push(off),
                _ => self.recover_free(off, class),
            }
        }
        self.finish_recovery(mem, &oversize, record.live + record.free_blocks());
    }

    /// Returns this thread's magazines of this engine to the class bitmaps
    /// (the close's own: a closing thread's cached frees belong in the
    /// summary). Other threads' magazines are theirs to drain on exit.
    pub(crate) fn drain_own(&self, mem: Mem) {
        let _ = FAST_MAG.try_with(|fast| {
            if fast.get().0 == self.instance {
                fast.set((0, std::ptr::null_mut()));
            }
        });
        let Ok(Some(mags)) = CACHES.try_with(|c| c.borrow_mut().0.remove(&self.instance)) else {
            return;
        };
        for (class, blocks) in mags.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            self.drain(mem, class, blocks);
        }
        self.holders.fetch_sub(1, Ordering::Release);
    }

    /// Threads still holding a magazine set of this engine.
    pub(crate) fn magazines_held(&self) -> usize {
        self.holders.load(Ordering::Acquire)
    }

    /// Writes a quiescent engine's sealed record (see [`seal`]): the
    /// frontier, the live count and every free block outside the
    /// magazines, so exact only once every magazine has drained. The
    /// offsets stream from the class bitmaps into the mapping. Returns
    /// whether the record was written.
    pub(crate) fn seal(&self, mem: Mem, at_field: u64) -> bool {
        let classes: Vec<_> = self.free.iter().map(|f| f.lock().unwrap_or_else(|p| p.into_inner())).collect();
        let oversize = self.oversize_blocks(mem);
        let mut counts = [0u64; OVERSIZE + 1];
        classes.iter().zip(&mut counts).for_each(|(free, count)| *count = free.left as u64);
        counts[OVERSIZE] = oversize.len() as u64;
        let live = self.blocks.load(Ordering::Relaxed) - counts.iter().sum::<u64>();
        let small = (classes.iter().enumerate())
            .flat_map(|(class, free)| free.bits.blocks_from(free.cursor).map(move |off| (class, off)));
        let oversize = oversize.into_iter().map(|off| (OVERSIZE, off));
        seal::write_record(mem, at_field, self.frontier(), live, &counts, small.chain(oversize))
    }

    /// The oversize free list, in address order.
    fn oversize_blocks(&self, mem: Mem) -> Vec<u64> {
        let mut blocks = Vec::new();
        let mut cur = *self.oversize.lock().unwrap_or_else(|p| p.into_inner());
        while cur != 0 {
            blocks.push(cur);
            cur = mem.load(cur + 8);
        }
        blocks.sort_unstable();
        blocks
    }

    /// What the engine holds, for a test to compare with a heap walk.
    #[cfg(test)]
    pub(crate) fn summary(&self, mem: Mem) -> seal::Summary {
        let mut summary = seal::Summary { frontier: self.frontier(), ..seal::Summary::default() };
        for (class, free) in self.free.iter().enumerate() {
            let free = free.lock().unwrap_or_else(|p| p.into_inner());
            summary.free[class] = free.bits.blocks_from(free.cursor).collect();
            assert_eq!(summary.free[class].len(), free.left);
        }
        summary.free[OVERSIZE] = self.oversize_blocks(mem);
        let free: usize = summary.free.iter().map(Vec::len).sum();
        summary.live = self.blocks.load(Ordering::Relaxed) - free as u64;
        summary
    }
}

// ---- per-thread magazines --------------------------------------------------

type MagSet = [Vec<u64>; CLASS_SIZES.len()];

/// Live engines, so exiting threads can return their magazine
/// contents to the right engine. The raw pointer is valid while the entry
/// is present: `Engine::unregister` removes it (under the same lock) before
/// the engine is dropped.
struct AliveEntry {
    instance: u64,
    engine: *const Engine,
    mem: Mem,
}
// SAFETY: the pointer is only dereferenced under the ALIVE lock, while the
// engine is registered (and therefore alive).
unsafe impl Send for AliveEntry {}

static ALIVE: Mutex<Vec<AliveEntry>> = Mutex::new(Vec::new());

fn alive() -> std::sync::MutexGuard<'static, Vec<AliveEntry>> {
    ALIVE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-thread magazines, keyed by engine instance. On thread exit the
/// destructor drains every magazine of a still-alive engine back to its
/// class bitmaps, so blocks cached by short-lived threads are not stranded
/// until the next reopen.
struct Caches(HashMap<u64, Box<MagSet>>);

impl Drop for Caches {
    fn drop(&mut self) {
        // The fast slot points into this map; kill it first.
        let _ = FAST_MAG.try_with(|fast| fast.set((0, std::ptr::null_mut())));
        let alive = alive();
        for (instance, mags) in self.0.drain() {
            if let Some(entry) = alive.iter().find(|a| a.instance == instance) {
                // SAFETY: entry present under the lock ⇒ engine alive.
                let engine = unsafe { &*entry.engine };
                let mut drained = false;
                for (class, blocks) in mags.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
                    engine.drain(entry.mem, class, blocks);
                    drained = true;
                }
                if drained {
                    engine.obs.add(obs::Counter::ThreadDrain, 1);
                }
                engine.holders.fetch_sub(1, Ordering::Release);
            }
        }
    }
}

thread_local! {
    static CACHES: RefCell<Caches> = RefCell::new(Caches(HashMap::new()));
    /// One-entry cache of the last `(instance, magazine set)` this thread
    /// touched: the hot path dereferences it directly instead of hashing
    /// into `CACHES`. The pointer targets the boxed `MagSet` owned by
    /// `CACHES` (stable across map growth); it is cleared whenever the map
    /// prunes or drops (both happen on this thread), so it can never
    /// outlive its target.
    static FAST_MAG: std::cell::Cell<(u64, *mut MagSet)> =
        const { std::cell::Cell::new((0, std::ptr::null_mut())) };
}

/// Runs `f` on this thread's magazine set for `engine`. Returns `None`
/// when the thread's TLS is already torn down (callers fall back to the
/// class bitmaps directly).
fn with_cache<R>(engine: &Engine, f: impl FnOnce(&mut MagSet) -> R) -> Option<R> {
    let instance = engine.instance;
    if let Ok((id, ptr)) = FAST_MAG.try_with(|fast| fast.get()) {
        if id == instance && !ptr.is_null() {
            // SAFETY: FAST_MAG only holds entries of this thread's live
            // CACHES map (cleared on prune and on Caches::drop), and
            // with_cache never re-enters itself, so the exclusive borrow
            // is unique.
            // SAFETY: the offset/address was produced by this pool's allocator or recovery walk and stays within the mapping; layout invariants are documented on the enclosing type.
            return Some(f(unsafe { &mut *ptr }));
        }
    }
    CACHES
        .try_with(|caches| {
            let mut caches = caches.borrow_mut();
            if !caches.0.contains_key(&instance) && caches.0.len() >= 16 {
                // Prune magazines of closed pools before admitting a new
                // one; the fast slot may point at a pruned entry.
                let _ = FAST_MAG.try_with(|fast| fast.set((0, std::ptr::null_mut())));
                let alive = alive();
                caches
                    .0
                    .retain(|id, _| alive.iter().any(|a| a.instance == *id));
            }
            let mags = caches.0.entry(instance).or_insert_with(|| {
                engine.holders.fetch_add(1, Ordering::Relaxed);
                Box::new(std::array::from_fn(|_| Vec::new()))
            });
            let _ = FAST_MAG.try_with(|fast| fast.set((instance, &mut **mags as *mut MagSet)));
            f(mags)
        })
        .ok()
}
