//! Root-driven mark-sweep recovery GC.
//!
//! A crash can strand allocated blocks that no root reaches: nodes retired
//! to EBR but not yet reclaimed at the kill, nodes a crashed operation
//! allocated but never published, and (for the Natarajan–Mittal tree)
//! tagged chains disconnected under contention. The allocator's heap walk
//! faithfully recovers all of them as *allocated* — they are, as far as the
//! block headers know — so without a collector the pool file only ever
//! grows under crash-churn workloads.
//!
//! This module supplies the missing half of the recovery contract: during
//! [`PoolBuilder::open`](crate::PoolBuilder::open), after the heap walk has
//! validated every block header and **before** any structure attaches, a mark phase
//! walks each registered root's persistent node graph (via a type-erased
//! [`TraceFn`] the embedding process registered per pool path + root name) into a
//! volatile [`Marker`], and the sweep phase hands every
//! allocated-but-unmarked block back to the allocation engine: at open into
//! its free bitmaps beside the walk's free blocks, where allocations claim
//! them in address order; in a deferred collection through its ordinary
//! free path.
//!
//! Both sets are **bitmaps** with one bit per 16-byte heap unit, a block
//! named by its header's unit: the heap walk fills the *allocated* bitmap
//! with every allocated block's start, the tracers fill the *mark* bitmap,
//! and the sweep set is `allocated & !marked`, a word at a time — no side
//! vector grows with the heap's block count. The allocated bitmap is also
//! what makes pointer validation **exact**: [`Marker::mark`] and
//! [`Marker::at`] accept a pointer iff it is in bounds, 16-aligned and 16
//! bytes past a block start the walk recorded, so payload bytes that merely
//! *decode* as a block header (values arrive off the wire; a header has no
//! checksum) can never name a block — and marking reads no heap memory at
//! all, which leaves the tracer's own link loads as the mark phase's only
//! cache misses.
//!
//! The sweep clears and flushes the swept headers, so
//! the reclamation itself is crash-consistent: re-killing the process at
//! any point mid-GC leaves each garbage block either still allocated (the
//! next open sweeps it again) or durably free — never torn.
//!
//! The mark phase also keeps one finding that recovery would otherwise
//! walk the heap again for: whether any tracer crossed a marked link
//! ([`Marker::note_marked_link`]). A collection that traced every root and
//! noted none leaves a one-shot clean verdict
//! ([`Pool::take_clean_trace`](crate::Pool::take_clean_trace)), and a
//! structure whose tracer notes every marked link it crosses may skip its
//! recovery scan on it.
//!
//! The GC is conservative about what it cannot prove: it runs only when the
//! pool is mapped at its preferred base (tracers chase embedded absolute
//! pointers, exactly like `recover()`) and **every** registered root has a
//! tracer. One unknown root disables the whole collection — reachability of
//! its blocks cannot be established, and sweeping them would destroy live
//! data — and so does a tracer that [refuses](Marker::refuse) its root
//! (one written under another node layout). `collect` is the one collection both the open-time recovery and
//! the deferred [`Pool::run_pending_gc`](crate::Pool::run_pending_gc) run;
//! they differ only in where a swept block goes. See `ARCHITECTURE.md`
//! § "Recovery GC" for the per-structure reachability contract.

use crate::{
    Mem, RecoveryReport, BLOCK_ALIGN, BLOCK_HEADER, HEAP_START, W0_CLASS_MASK, W0_CLASS_SHIFT,
    W0_SIZE_MASK,
};
use nvtraverse_obs as obs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// A type-erased tracer for one root: `root` is the root's payload pointer
/// in the current mapping, and the implementation must [`Marker::mark`]
/// every block the structure's `recover()` pass may reach — following
/// marked/logically-deleted links (a reachable-but-marked node is kept so
/// recovery can trim it into the collector), and ignoring volatile
/// auxiliary links that recovery rebuilds without reading (skiplist towers,
/// the queue's tail shortcut).
///
/// # Safety
///
/// The function is called during `Pool::open`, single-threaded, on a
/// quiescent heap whose every block header has been validated. It must only
/// dereference memory inside the pool that is reachable from `root` under
/// the structure's own invariants; `register_tracer`'s contract guarantees
/// `root` really is a root of the traced structure type.
pub type TraceFn = unsafe fn(root: *mut u8, marker: &mut Marker<'_>);

/// The process-wide tracer registry, keyed by **(normalized pool path,
/// root name)** — per-pool scoping means a tracer registered while working
/// with one pool file can never be applied to an unrelated pool that
/// happens to reuse the root name. Tiny (one entry per root the process
/// touches), so a vector beats a map.
static TRACERS: Mutex<Vec<(PathBuf, String, TraceFn)>> = Mutex::new(Vec::new());

/// Stable registry key for a pool path: the canonicalized parent directory
/// plus the file name. Canonicalizing the *parent* (not the file) gives
/// the same key whether the pool file exists yet (open) or not (create),
/// and is symlink-stable for the directory components.
pub(crate) fn normalize_path(path: &Path) -> PathBuf {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => match std::fs::canonicalize(dir) {
            Ok(dir) => dir.join(path.file_name().unwrap_or_default()),
            Err(_) => path.to_path_buf(),
        },
        _ => std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf()),
    }
}

/// Registers (or replaces) the tracer for the root named `name` of the
/// pool file at `pool_path`, returning the tracer it displaced (if any) so
/// a caller whose subsequent attach fails can *restore* the previous
/// registration instead of deleting an assertion somebody else made.
///
/// [`PoolBuilder::open`](crate::PoolBuilder::open) runs the mark-sweep
/// collection only when every root name present in the opened pool has a tracer registered
/// for that pool's path; higher layers (`nvtraverse::PooledHandle`,
/// `PoolTrace`) call this with the right function for the structure type
/// they are about to attach.
///
/// # Safety
///
/// By registering, the caller asserts that whenever this process opens the
/// pool at `pool_path`, its root registered under `name` points at a
/// structure `f` can correctly trace (same concrete node layout) — the
/// same contract `attach_to_pool` requires of the attaching type. A
/// mismatch makes the mark phase misinterpret pool memory: undefined
/// behaviour, and live blocks may be swept. Re-register (the newest
/// registration wins) if the root is recreated with a different type.
pub unsafe fn register_tracer(pool_path: &Path, name: &str, f: TraceFn) -> Option<TraceFn> {
    let key = normalize_path(pool_path);
    let mut reg = TRACERS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(entry) = reg.iter_mut().find(|(p, n, _)| *p == key && n == name) {
        Some(std::mem::replace(&mut entry.2, f))
    } else {
        reg.push((key, name.to_string(), f));
        None
    }
}

/// Removes the tracer registered for `name` of the pool at `pool_path`, if
/// any. Subsequent opens of that pool skip the recovery GC.
pub fn unregister_tracer(pool_path: &Path, name: &str) {
    let key = normalize_path(pool_path);
    TRACERS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .retain(|(p, n, _)| !(*p == key && n == name));
}

/// The tracer registered for `name` under the (already normalized) pool
/// key, if any.
pub(crate) fn tracer_for(pool_key: &Path, name: &str) -> Option<TraceFn> {
    TRACERS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .find(|(p, n, _)| p == pool_key && n == name)
        .map(|&(_, _, f)| f)
}

/// One bit per 16-byte heap unit below the walked frontier; a block is
/// named by the unit of its **header**. The recovery walk records every
/// allocated block's start in one of these (128 KiB for a 16 MiB heap), the
/// mark phase fills a second one of the same geometry, and the sweep is
/// their word-wise difference. The engine keeps one more per small class,
/// holding that class's free blocks until allocations claim them.
#[derive(Default)]
pub(crate) struct Bitmap(Vec<u64>);

impl Bitmap {
    /// An all-clear bitmap covering `[HEAP_START, frontier)`.
    pub(crate) fn new(frontier: u64) -> Self {
        Bitmap(vec![0; Self::words(frontier)])
    }

    /// Words covering `[HEAP_START, frontier)`.
    fn words(frontier: u64) -> usize {
        (((frontier - HEAP_START) / BLOCK_ALIGN) as usize).div_ceil(64)
    }

    /// [`Bitmap::set`], first growing the bitmap — to cover
    /// `[HEAP_START, frontier)` and to at least twice its old size — when
    /// `block` lies past its end. The grown words come zeroed from the
    /// allocator, so a page the bitmap never writes costs no memory.
    pub(crate) fn set_growing(&mut self, block: u64, frontier: u64) {
        let word = Self::word_of(block);
        if word >= self.0.len() {
            let len = Self::words(frontier).max(word + 1).max(2 * self.0.len());
            let mut grown = vec![0; len];
            grown[..self.0.len()].copy_from_slice(&self.0);
            self.0 = grown;
        }
        self.set(block);
    }

    fn index(block: u64) -> (usize, u64) {
        let unit = (block - HEAP_START) / BLOCK_ALIGN;
        ((unit / 64) as usize, 1 << (unit % 64))
    }

    /// Sets the bit of the block at heap offset `block`; `false` when it
    /// was already set.
    pub(crate) fn set(&mut self, block: u64) -> bool {
        let (word, bit) = Self::index(block);
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Whether `block`'s bit is set; a block past the covered range has
    /// none.
    fn get(&self, block: u64) -> bool {
        let (word, bit) = Self::index(block);
        self.0.get(word).is_some_and(|w| w & bit != 0)
    }

    /// The word holding `block`'s bit.
    pub(crate) fn word_of(block: u64) -> usize {
        Self::index(block).0
    }

    /// Clears and pushes onto `out`, in address order, up to `max` set
    /// blocks, scanning from word `*cursor` on. Leaves `*cursor` at the
    /// first word that may still hold one, so no call rescans a word an
    /// earlier one exhausted.
    pub(crate) fn take(&mut self, cursor: &mut usize, max: usize, out: &mut Vec<u64>) {
        let mut left = max;
        while left > 0 && *cursor < self.0.len() {
            let bits = &mut self.0[*cursor];
            while left > 0 && *bits != 0 {
                let unit = *cursor as u64 * 64 + u64::from(bits.trailing_zeros());
                *bits &= *bits - 1;
                out.push(HEAP_START + unit * BLOCK_ALIGN);
                left -= 1;
            }
            if *bits != 0 {
                return;
            }
            *cursor += 1;
        }
    }

    /// Heap offsets of the blocks whose bits are set in `bits`, the
    /// `word`-th word of a bitmap, in address order.
    fn blocks_in(word: usize, mut bits: u64) -> impl Iterator<Item = u64> {
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let unit = word as u64 * 64 + u64::from(bits.trailing_zeros());
            bits &= bits - 1;
            Some(HEAP_START + unit * BLOCK_ALIGN)
        })
    }
}

/// The mark phase's working state: the walk's allocated-block bitmap (what
/// a pointer is validated against) and a mark bitmap of the same geometry.
///
/// Handed to [`TraceFn`]s by the sweep driver; user code never constructs
/// one.
pub struct Marker<'a> {
    mem: Mem,
    allocated: &'a Bitmap,
    marks: Bitmap,
    marked: usize,
    refused: bool,
    marked_link: bool,
}

impl<'a> std::fmt::Debug for Marker<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Marker")
            .field("marked", &self.marked)
            .field("refused", &self.refused)
            .field("marked_link", &self.marked_link)
            .finish_non_exhaustive()
    }
}

impl<'a> Marker<'a> {
    fn new(mem: Mem, allocated: &'a Bitmap) -> Self {
        Marker {
            mem,
            allocated,
            marks: Bitmap(vec![0; allocated.0.len()]),
            marked: 0,
            refused: false,
            marked_link: false,
        }
    }

    /// Notes that the tracer crossed a **marked** (logically deleted) link.
    ///
    /// A collection that traced every root and noted none leaves a clean
    /// verdict behind, which [`Pool::take_clean_trace`](crate::Pool::take_clean_trace)
    /// hands to the first structure that attaches: its recovery may then
    /// skip its own scan for marked links, which would find none. The
    /// contract is on the reader: a structure may skip its scan on the
    /// verdict only if its own tracer calls this for **every** marked link
    /// it crosses. A tracer that never calls it (SOFT, the skiplist, the
    /// trees) leaves the verdict clean whatever its links hold, so their
    /// recoveries must not read it.
    pub fn note_marked_link(&mut self) {
        self.marked_link = true;
    }

    /// Refuses the whole collection: the tracer found a root it cannot
    /// trace — one whose on-media layout stamp names a different node
    /// layout than the tracer's — so no block's reachability is provable.
    /// The collection then ends before its sweep with
    /// [`RecoveryReport::gc_ran`] false, the same conservative outcome as
    /// a root with no tracer at all: nothing is freed.
    pub fn refuse(&mut self) {
        self.refused = true;
    }

    /// The single validity check behind [`Marker::mark`] and [`Marker::at`]:
    /// `off` (a heap offset) is the payload start of an **allocated** block
    /// — in bounds, 16-aligned, and 16 bytes past a block start the heap
    /// walk recorded. The answer is exact: bytes inside a payload that
    /// merely decode as a header name no block. Returns the block's header
    /// offset.
    fn valid_payload(&self, off: u64) -> Option<u64> {
        if off < HEAP_START + BLOCK_HEADER || !off.is_multiple_of(BLOCK_ALIGN) {
            return None;
        }
        let block = off - BLOCK_HEADER;
        self.allocated.get(block).then_some(block)
    }

    /// [`Marker::valid_payload`] for a pointer: out-of-pool pointers are
    /// `None`, like a stray pointer landing mid-block.
    fn block_of(&self, ptr: *const u8) -> Option<u64> {
        let addr = ptr as usize;
        let base = self.mem.base();
        if addr < base || addr >= base + self.mem.len() {
            return None;
        }
        self.valid_payload((addr - base) as u64)
    }

    /// Payload capacity of the (walk-validated) block at heap offset `block`.
    fn capacity_at(&self, block: u64) -> u64 {
        (self.mem.load(block) & W0_SIZE_MASK) - BLOCK_HEADER
    }

    /// Payload capacity in bytes of the allocated block whose payload
    /// starts at `ptr` (same validation as [`Marker::mark`]) — the bound a
    /// tracer needs before reading a variable-length root block such as
    /// the hash table's bucket table.
    pub fn capacity_of(&self, ptr: *const u8) -> Option<u64> {
        self.block_of(ptr).map(|block| self.capacity_at(block))
    }

    /// Marks the block whose **payload** starts at `ptr` as reachable.
    ///
    /// Returns `true` when the block was newly marked — tracers use this to
    /// cut off shared suffixes and cycles. Returns `false` (marking
    /// nothing) when the block was already marked, or when `ptr` is not the
    /// payload start of an allocated block of this pool: out-of-pool
    /// and malformed pointers are ignored rather than trusted, so a tracer
    /// following a stale auxiliary word cannot corrupt the mark state.
    /// Touches no heap memory: the answer comes from the two bitmaps.
    pub fn mark(&mut self, ptr: *const u8) -> bool {
        let fresh = self.block_of(ptr).is_some_and(|block| self.marks.set(block));
        self.marked += usize::from(fresh);
        fresh
    }

    /// Number of distinct blocks marked so far.
    pub fn marked_blocks(&self) -> usize {
        self.marked
    }

    /// Translates a stable heap offset to a pointer in the current mapping,
    /// for structures whose persistent root stores offsets rather than
    /// pointers (the hash table's bucket table). Returns `Some` only when
    /// `off` is the payload start of an **allocated block** (same
    /// validation as [`Marker::mark`]), so a tracer reading a torn or stale
    /// offset word gets `None` instead of a dereferenceable garbage
    /// pointer.
    pub fn at(&self, off: u64) -> Option<*mut u8> {
        self.valid_payload(off).map(|_| self.mem.ptr(off))
    }

    /// Visits every **allocated** block in address order — `keep(payload,
    /// capacity)` — and marks the ones it returns `true` for: the mark
    /// phase of structures whose reachability is not encoded in link words
    /// at all. The SOFT structures use this: their links are volatile
    /// (rebuilt by recovery from per-node validity bits), so their tracers
    /// *enumerate* candidate nodes and keep the ones whose persistent
    /// header proves membership, rather than chasing pointers.
    pub fn mark_allocated_if(&mut self, mut keep: impl FnMut(*mut u8, u64) -> bool) {
        for word in 0..self.allocated.0.len() {
            for block in Bitmap::blocks_in(word, self.allocated.0[word]) {
                if keep(self.mem.ptr(block + BLOCK_HEADER), self.capacity_at(block))
                    && self.marks.set(block)
                {
                    self.marked += 1;
                }
            }
        }
    }

    /// Header offsets of the allocated blocks no tracer marked — the sweep
    /// set, `allocated & !marked` a word at a time.
    fn unmarked(&self) -> impl Iterator<Item = u64> + '_ {
        (self.allocated.0.iter().zip(&self.marks.0).enumerate())
            .flat_map(|(word, (&allocated, &marked))| Bitmap::blocks_in(word, allocated & !marked))
    }
}

/// One mark-sweep collection over `roots` — the mark phase, the report
/// bookkeeping and the GC counters of both the open-time and the deferred
/// collection. `allocated` is the heap walk's block-start bitmap; `sweep`
/// receives the `(header offset, class)` of every allocated block the mark
/// phase never reached, in address order, and decides where it goes.
/// Returns the swept `(blocks, bytes)` and whether the trace was clean (no
/// tracer [noted a marked link](Marker::note_marked_link)), or `None` —
/// with nothing swept and the report untouched — when a tracer
/// [refused](Marker::refuse).
pub(crate) fn collect(
    mem: Mem,
    allocated: &Bitmap,
    roots: &[(String, u64, TraceFn)],
    metrics: &obs::MetricSet,
    report: &mut RecoveryReport,
    sweep: impl FnOnce(&mut dyn Iterator<Item = (u64, usize)>),
) -> Option<(usize, u64, bool)> {
    // nvt-lint: allow(wall-clock): recovery/GC telemetry only; never reaches durable state
    let mark_start = Instant::now();
    let mut marker = Marker::new(mem, allocated);
    let mut root_marks = Vec::with_capacity(roots.len());
    for (name, off, trace) in roots {
        let before = marker.marked_blocks();
        // Quiescent, header-verified heap mapped at its recorded base:
        // open-time recovery, or the pre-attach state `run_pending_gc`
        // requires.
        // SAFETY: register_tracer's contract — the tracer matches the type
        // that created this root — on the heap state described above.
        unsafe { trace(mem.ptr(*off), &mut marker) };
        if marker.refused {
            return None;
        }
        root_marks.push((name.clone(), (marker.marked_blocks() - before) as u64));
    }
    report.root_marks.extend(root_marks);
    let mark_nanos = mark_start.elapsed().as_nanos() as u64;
    // nvt-lint: allow(wall-clock): recovery/GC telemetry only; never reaches durable state
    let sweep_start = Instant::now();
    let (mut swept, mut swept_bytes) = (0usize, 0u64);
    sweep(&mut marker.unmarked().map(|block| {
        let w0 = mem.load(block);
        swept += 1;
        swept_bytes += w0 & W0_SIZE_MASK;
        (block, ((w0 >> W0_CLASS_SHIFT) & W0_CLASS_MASK) as usize)
    }));
    let sweep_nanos = sweep_start.elapsed().as_nanos() as u64;
    report.gc_ran = true;
    report.reclaimed_blocks += swept;
    report.reclaimed_bytes += swept_bytes;
    report.live_blocks -= swept;
    report.free_blocks += swept;
    report.phases.mark_nanos += mark_nanos;
    report.phases.sweep_nanos += sweep_nanos;
    report.gc_nanos += mark_nanos + sweep_nanos;
    metrics.add(obs::Counter::GcRuns, 1);
    metrics.add(obs::Counter::GcMarked, marker.marked_blocks() as u64);
    metrics.add(obs::Counter::GcSwept, swept as u64);
    Some((swept, swept_bytes, !marker.marked_link))
}
