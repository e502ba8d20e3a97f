//! The pool's allocation engine: per-thread magazines over sharded
//! lock-free free lists, with a CAS-bump slab frontier.
//!
//! The persistent format is 16-byte block headers, size-classed blocks and a
//! persisted frontier word in the pool header; everything in this module is
//! volatile state rebuilt from those by the recovery heap walk at every open.
//!
//! Three tiers, ordered hot to cold:
//!
//! 1. **Per-thread magazines** — a volatile `Vec<u64>` of free block offsets
//!    per size class per thread ([`MAG_CAP`] deep). The common alloc/free is
//!    a thread-local push/pop plus one header flush: no shared-memory CAS,
//!    no lock, no fence (see *Deferred fences* below).
//! 2. **Sharded Treiber stacks** — up to [`MAX_SHARDS`] lock-free stacks per
//!    size class, threaded through the (volatile-content) link word of free block
//!    headers. The head word packs a 40-bit offset with a 24-bit ABA tag;
//!    pops bump the tag, so a popped-and-reused block can never satisfy a
//!    stale CAS. Magazines refill from and drain to these stacks in batches
//!    of [`REFILL`]/[`DRAIN`] blocks (one or two CASes per batch, not one
//!    per block: a refill takes the whole stack by CAS and splices the
//!    surplus back, so it never reads a link it does not own).
//!    A block freed on any thread eventually lands in the shard owned by its
//!    *address* ([`shard_of`]), so remote frees hand blocks back without a
//!    global lock and allocation locality follows slab locality.
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
//!   when the magazine drains to a shard (or at clean close / thread exit),
//!   where the lines are cold. Flushing at `dealloc` would stall the
//!   magazine's LIFO reallocation of the same line on the in-flight
//!   write-back. Power failure can leak magazine-resident blocks (bounded
//!   per thread × class); it can never double-allocate.
//! * **Frontier** — slab formatting and the frontier publish keep their own
//!   flush + fence: the walk invariant (all bytes below the persisted
//!   frontier have persisted headers) is the allocator's to maintain and no
//!   caller fence can restore it.
//!
//! Magazines and shard heads are volatile and rebuilt by the recovery walk
//! on open; the allocated bit is the only persistent free/live fact.

use crate::{
    make_allocated, Mem, BLOCK_ALIGN, BLOCK_HEADER, CLASS_SIZES, HEAP_START, OFF_FRONTIER,
    OVERSIZE, W0_ALLOCATED, W0_CLASS_SHIFT, W0_SIZE_MASK,
};
use nvtraverse_obs as obs;
use nvtraverse_pmem::{Backend, MmapBackend};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on lock-free free-list shards per size class (the actual
/// count is derived from [`std::thread::available_parallelism`] per engine
/// instance — volatile rebuild state, nothing persisted).
pub(crate) const MAX_SHARDS: usize = 64;
/// Capacity of one per-thread magazine (blocks per size class).
const MAG_CAP: usize = 64;
/// Blocks pulled from a shard into the magazine per refill.
const REFILL: usize = 32;
/// Blocks drained from an overflowing magazine back to the shards.
const DRAIN: usize = 32;
/// Target slab size in bytes for frontier carving (small classes carve many
/// blocks per frontier CAS; classes at or above this carve one at a time).
const SLAB_TARGET: u64 = 8192;
/// Upper bound on blocks per slab (also bounds magazine spill after a carve).
const MAX_SLAB_BLOCKS: usize = 64;

/// Bits of a shard head word holding the block offset; the rest is the ABA
/// tag. Bounds pool capacity (checked at `Pool::create`).
const OFF_BITS: u32 = 40;
const OFF_MASK: u64 = (1 << OFF_BITS) - 1;

fn pack(off: u64, tag: u64) -> u64 {
    debug_assert!(off <= OFF_MASK);
    off | (tag << OFF_BITS)
}

fn unpack(word: u64) -> (u64, u64) {
    (word & OFF_MASK, word >> OFF_BITS)
}

/// The address-derived home shard of a block: slab-granular, so blocks carved
/// together stay together and remote frees return to a stable shard without
/// any per-block owner metadata.
pub(crate) fn shard_of(off: u64, num_shards: usize) -> usize {
    ((off / SLAB_TARGET) as usize) & (num_shards - 1)
}

/// Shards this machine wants: the detected parallelism rounded up to a
/// power of two (the shard index is an AND mask), clamped to
/// `1..=`[`MAX_SHARDS`]. Hard-coding 8 either wasted cache on small boxes
/// or contended on big ones; deriving it is free because the shard arrays
/// are volatile — recovery rebuilds them at every open, so two opens of
/// one file may legitimately disagree on the count.
fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .next_power_of_two()
        .clamp(1, MAX_SHARDS)
}

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

/// Whether `off` can be a block offset (used to reject garbage read from a
/// racing free-list walk before it is dereferenced; the tagged CAS rejects
/// the walk itself).
fn plausible_off(mem: Mem, off: u64) -> bool {
    off >= HEAP_START && off.is_multiple_of(BLOCK_ALIGN) && off + BLOCK_HEADER <= mem.len() as u64
}

// ---- the engine -------------------------------------------------------------

/// Monotonic id distinguishing engine instances in thread-local magazines
/// (a reopened pool must never consume magazine entries of a previous
/// instance, even at the same mapping address).
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

pub(crate) struct Engine {
    instance: u64,
    /// Shards per size class for this instance (power of two in
    /// `1..=MAX_SHARDS`, derived from the machine's parallelism at
    /// construction; purely volatile — recovery rebuilds the shard arrays,
    /// so reopening under a different count is routine).
    num_shards: usize,
    /// Volatile reservation frontier (CAS-bumped, slab granular).
    frontier: AtomicU64,
    /// Frontier up to which slab headers AND the persistent frontier word
    /// are known persisted. Trails `frontier` only while a slab is being
    /// formatted; publication is in reservation order.
    published: AtomicU64,
    /// Tagged Treiber heads, `num_shards` per class, row-major:
    /// `shards[class * num_shards + shard]` = offset | tag << 40.
    shards: Box<[AtomicU64]>,
    /// Oversize blocks (exact-size, > 64 KiB): intrusive first-fit list.
    /// Behind a mutex — oversize traffic is rare and first-fit needs mid-list
    /// unlinking that a Treiber stack cannot express.
    oversize: Mutex<u64>,
    /// The owning pool's metric set (allocator-domain counters land here).
    obs: &'static obs::MetricSet,
}

impl Engine {
    /// `metrics` is the owning pool's attributed metric set; the engine
    /// records its allocator counters (magazine hit/miss, shard traffic,
    /// CAS retries, slab carves, thread-exit drains) into it.
    pub(crate) fn new(metrics: &'static obs::MetricSet) -> Self {
        let num_shards = default_shard_count();
        Engine {
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            num_shards,
            frontier: AtomicU64::new(HEAP_START),
            published: AtomicU64::new(HEAP_START),
            shards: (0..CLASS_SIZES.len() * num_shards)
                .map(|_| AtomicU64::new(0))
                .collect(),
            oversize: Mutex::new(0),
            obs: metrics,
        }
    }

    /// The tagged head of `class`'s shard `idx`.
    #[inline]
    fn shard(&self, class: usize, idx: usize) -> &AtomicU64 {
        &self.shards[class * self.num_shards + idx]
    }

    /// Free-list shards per size class.
    pub(crate) fn shard_count(&self) -> usize {
        self.num_shards
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
    /// drain their magazines back to its shards.
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

    // -- small classes: magazine → shards → slab carve --

    fn alloc_small(&self, mem: Mem, class: usize) -> Option<u64> {
        if let Some(Some(off)) = with_cache(self.instance, |mags| mags[class].pop()) {
            self.obs.add(obs::Counter::MagHit, 1);
            return Some(off);
        }
        self.obs.add(obs::Counter::MagMiss, 1);
        let mut got = Vec::with_capacity(REFILL.max(MAX_SLAB_BLOCKS));
        let pref = preferred_shard(self.num_shards);
        for i in 0..self.num_shards {
            let head = self.shard(class, (pref + i) & (self.num_shards - 1));
            if pop_chain(head, mem, REFILL, &mut got, self.obs) {
                self.obs.add(obs::Counter::ShardPop, got.len() as u64);
                break;
            }
        }
        if got.is_empty() {
            self.carve_slab(mem, class, &mut got);
        }
        let ret = *got.first()?;
        let rest = &got[1..];
        if !rest.is_empty() {
            let cached = with_cache(self.instance, |mags| {
                let mag = &mut mags[class];
                // Reverse so got[1] (the hottest leftover) ends on top.
                mag.extend(rest.iter().rev());
            });
            if cached.is_none() {
                // TLS already torn down (thread exit path): hand the batch
                // straight back to the shards.
                self.drain_to_shards(mem, class, rest);
            }
        }
        Some(ret)
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
        // next leaves the magazine tier (shard drain flushes the batch;
        // reallocation rewrites the word under the new owner's flush). A
        // magazine pops its most-recent free first, and flushing a line
        // that is about to be rewritten stalls the rewrite on the in-flight
        // write-back — measurably the single largest cost of the hot pair.
        // A power failure can therefore leak magazine-resident blocks
        // (bounded per thread and class, recovered as live and re-leaked at
        // worst), but never double-allocate: free-list membership is only
        // load-bearing for blocks that stay free, and those reach a shard
        // drain or a clean close, both of which persist the bit.
        if class < OVERSIZE {
            let overflow = with_cache(self.instance, |mags| {
                let mag = &mut mags[class];
                mag.push(off);
                if mag.len() > MAG_CAP {
                    Some(mag.drain(..DRAIN).collect::<Vec<u64>>())
                } else {
                    None
                }
            });
            match overflow {
                Some(Some(batch)) => self.drain_to_shards(mem, class, &batch),
                Some(None) => {}
                // TLS torn down: skip the magazine tier entirely.
                None => self.drain_to_shards(mem, class, &[off]),
            }
        } else {
            // Oversize blocks skip the magazine tier: flush immediately.
            MmapBackend::flush(mem.ptr(off));
            let mut head = self.oversize.lock().unwrap_or_else(|p| p.into_inner());
            mem.store(off + 8, *head);
            *head = off;
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
        make_allocated(mem, start, want, OVERSIZE, payload);
        MmapBackend::flush(mem.ptr(start));
        MmapBackend::fence();
        self.publish(mem, start, start + want);
        Some(start)
    }

    /// Pushes a batch of `class` free blocks to their home shards, one
    /// chain splice (single CAS) per touched shard. Flushes every header on
    /// the way out: this is where the free bits deferred by [`Self::dealloc`]
    /// become persistent (the lines are cold by now, so the flushes are
    /// cheap and stall nobody).
    fn drain_to_shards(&self, mem: Mem, class: usize, blocks: &[u64]) {
        self.obs.add(obs::Counter::ShardPush, blocks.len() as u64);
        let pref = preferred_shard(self.num_shards);
        // (first, last) of a chain being built per shard; 0 = empty.
        let mut chains = [(0u64, 0u64); MAX_SHARDS];
        let mut remote = 0u64;
        for &off in blocks {
            let home = shard_of(off, self.num_shards);
            if home != pref {
                remote += 1;
            }
            let (first, last) = &mut chains[home];
            if *first == 0 {
                mem.store(off + 8, 0);
                *last = off;
            } else {
                mem.store(off + 8, *first);
            }
            *first = off;
        }
        if remote != 0 {
            self.obs.add(obs::Counter::RemoteFree, remote);
        }
        // Separate pass so no header is rewritten after its flush (which
        // would stall on the in-flight write-back).
        for &off in blocks {
            MmapBackend::flush(mem.ptr(off));
        }
        for (s, &(first, last)) in chains.iter().take(self.num_shards).enumerate() {
            if first != 0 {
                push_chain(self.shard(class, s), mem, first, last, self.obs);
            }
        }
    }

    /// Starts a recovery walk: the persisted frontier, and every free list
    /// empty. The walk then [`push_free`](Self::push_free)es each free
    /// block as it meets it.
    pub(crate) fn reset(&mut self, frontier: u64) {
        *self.frontier.get_mut() = frontier;
        *self.published.get_mut() = frontier;
        for head in self.shards.iter_mut() {
            *head.get_mut() = 0;
        }
        *self.oversize.get_mut().unwrap_or_else(|p| p.into_inner()) = 0;
    }

    /// Pushes the free block at `off` onto its class's list — its home
    /// shard's stack, or the oversize list. Recovery calls it while the
    /// block's header line is still in cache (the walk just validated it;
    /// the sweep just cleared it), in address order: the lists are LIFO, so
    /// that order *is* the allocation order after the open.
    pub(crate) fn push_free(&mut self, mem: Mem, off: u64, class: usize) {
        if class < OVERSIZE {
            let head =
                self.shards[class * self.num_shards + shard_of(off, self.num_shards)].get_mut();
            let (top, tag) = unpack(*head);
            mem.store(off + 8, top);
            *head = pack(off, tag);
        } else {
            let head = self.oversize.get_mut().unwrap_or_else(|p| p.into_inner());
            mem.store(off + 8, *head);
            *head = off;
        }
    }
}

// ---- tagged Treiber stack primitives ---------------------------------------

/// Pops up to `max` linked blocks from a tagged head into `out`, splicing
/// any surplus straight back. Returns `false` if the stack was observed
/// empty.
///
/// Ownership-first protocol: one tagged CAS **takes the entire stack**
/// (bumping the ABA tag) before any link word is read, so the walk only
/// ever dereferences links of blocks this thread exclusively owns — there
/// is no optimistic traversal of memory a concurrent pop could be
/// reallocating. The surplus chain (everything past `max`) is pushed back
/// with a single splice; a concurrent thread that finds the head
/// momentarily empty simply falls through to another shard or the
/// frontier.
fn pop_chain(
    head: &AtomicU64,
    mem: Mem,
    max: usize,
    out: &mut Vec<u64>,
    stats: &obs::MetricSet,
) -> bool {
    let first = loop {
        let h = head.load(Ordering::Acquire);
        let (off, tag) = unpack(h);
        if off == 0 {
            return false;
        }
        if head
            .compare_exchange_weak(
                h,
                pack(0, tag.wrapping_add(1)),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            break off;
        }
        stats.add(obs::Counter::CasRetry, 1);
    };
    // The whole chain is ours now: the walk is race-free. The bounds check
    // is pure corruption defense, never a race filter; a bad link ends the
    // chain (dropping what would follow it rather than faulting).
    out.clear();
    let mut cur = first;
    loop {
        out.push(cur);
        let next = mem.load(cur + 8);
        if next == 0 || !plausible_off(mem, next) {
            return true; // took the whole (possibly truncated) chain
        }
        if out.len() >= max {
            // Walk the surplus to its end and splice it back in one CAS.
            let (rest_first, mut rest_last) = (next, next);
            loop {
                let n = mem.load(rest_last + 8);
                if n == 0 || !plausible_off(mem, n) {
                    break;
                }
                rest_last = n;
            }
            push_chain(head, mem, rest_first, rest_last, stats);
            return true;
        }
        cur = next;
    }
}

/// Pushes the pre-linked chain `first → … → last` onto a tagged head.
/// Pushes do not bump the tag; only pops do.
fn push_chain(head: &AtomicU64, mem: Mem, first: u64, last: u64, stats: &obs::MetricSet) {
    loop {
        let h = head.load(Ordering::Acquire);
        let (top, tag) = unpack(h);
        mem.store(last + 8, top);
        if head
            .compare_exchange_weak(h, pack(first, tag), Ordering::Release, Ordering::Acquire)
            .is_ok()
        {
            return;
        }
        stats.add(obs::Counter::CasRetry, 1);
    }
}

// ---- per-thread magazines --------------------------------------------------

type MagSet = [Vec<u64>; CLASS_SIZES.len()];

/// Live engines, so exiting threads can return their magazine
/// contents to the right shards. The raw pointer is valid while the entry is
/// present: `Engine::unregister` removes it (under the same lock) before the
/// engine is dropped.
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
/// shards, so blocks cached by short-lived threads are not stranded until
/// the next reopen.
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
                    engine.drain_to_shards(entry.mem, class, blocks);
                    drained = true;
                }
                if drained {
                    engine.obs.add(obs::Counter::ThreadDrain, 1);
                }
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

/// Runs `f` on this thread's magazine set for `instance`. Returns `None`
/// when the thread's TLS is already torn down (callers fall back to the
/// shard tier directly).
fn with_cache<R>(instance: u64, f: impl FnOnce(&mut MagSet) -> R) -> Option<R> {
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
            let mags = caches
                .0
                .entry(instance)
                .or_insert_with(|| Box::new(std::array::from_fn(|_| Vec::new())));
            let _ = FAST_MAG.try_with(|fast| fast.set((instance, &mut **mags as *mut MagSet)));
            f(mags)
        })
        .ok()
}

/// The shard a thread prefers for refills: assigned round-robin at first
/// use (masked per engine by its own shard count), so concurrent threads
/// spread across shards.
fn preferred_shard(num_shards: usize) -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.try_with(|s| *s).unwrap_or(0) & (num_shards - 1)
}
