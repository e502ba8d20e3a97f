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
//! This module supplies the missing half of the recovery contract. After a
//! crash, the open's one heap walk records every allocated block's start
//! and keeps that inventory (an open that reads a clean close's sealed
//! summary walks nothing and never collects); the open runs no tracer,
//! because only the caller knows which type each root holds. The typed
//! open — `TypedRoots::open_roots`, of which `root::<S>` is the one-root
//! case — names every root with its type and hands their tracers to
//! [`Pool::collect`](crate::Pool::collect), which consumes the inventory: a
//! mark phase walks each root's persistent node graph (via the [`TraceFn`]
//! for that root's name) into a volatile [`Marker`], and the sweep hands
//! every allocated-but-unmarked block to the allocation engine's free path,
//! into the class bitmaps where the walk's free blocks already wait and
//! allocations claim both in address order. Only then does any structure
//! attach. The first allocation, free or attach after the open consumes
//! the inventory too, so a block the session itself allocated, freed or
//! retired is never taken for crash garbage — and the typed open then
//! fails instead of collecting.
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
//! The mark phase is also the structures' recovery read. A tracer returns
//! what it found to the caller that named its type — the chains that cross
//! a marked link, the sealed nodes of a SOFT list — and the structure's
//! recovery acts on that plan alone, so an open reads each structure's
//! graph once. On a sealed open the typed open runs neither: the clean
//! close left nothing to recover.
//!
//! The GC is conservative about what it cannot prove: it runs only when
//! **every** root has a tracer. A root the open does not name fails the typed open — reachability of its
//! blocks cannot be established, and sweeping them would destroy live
//! data — and so does a tracer that [refuses](Marker::refuse) its root
//! (one written under another node layout); nothing is swept either way.
//! See `ARCHITECTURE.md` § "Recovery GC" for the per-structure
//! reachability contract.

use crate::engine::Engine;
use crate::{
    Mem, RecoveryReport, BLOCK_ALIGN, BLOCK_HEADER, HEAP_START, W0_CLASS_MASK, W0_CLASS_SHIFT,
    W0_SIZE_MASK,
};
use nvtraverse_obs as obs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A type-erased tracer for one root, called with the root's payload
/// pointer in the current mapping. It must [`Marker::mark`] every block
/// the structure's recovery may reach — following marked/logically-deleted
/// links (a reachable-but-marked node is kept so recovery can trim it into
/// the collector), and never following volatile auxiliary links that
/// recovery rebuilds (skiplist towers, the queue's tail shortcut) — and it
/// may keep whatever it reads for that recovery. It must write nothing: a
/// collection a tracer [refuses](Marker::refuse), or an open whose attach
/// then fails, leaves the file as it found it.
///
/// [`Pool::collect`](crate::Pool::collect) calls it single-threaded, on a
/// quiescent heap whose every block header was validated, before any
/// structure attaches; its `unsafe` contract is what vouches that each
/// tracer matches its root's type.
pub type TraceFn<'t> = &'t mut dyn FnMut(*mut u8, &mut Marker<'_>);

/// A root the mark phase traces: its name, its payload offset, and the
/// tracer for it — an index into the caller's tracers, or `None` for the
/// operation-descriptor table's built-in one.
pub(crate) type Root = (String, u64, Option<usize>);

/// Stable per-file key for a pool path: the canonicalized parent directory
/// plus the file name. Canonicalizing the *parent* (not the file) gives
/// the same key whether the pool file exists yet (open) or not (create),
/// and is symlink-stable for the directory components. Keys the pool's
/// telemetry set (`nvtraverse_obs::for_pool`), so a reopened pool keeps
/// accumulating into the same one.
pub(crate) fn normalize_path(path: &Path) -> PathBuf {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => match std::fs::canonicalize(dir) {
            Ok(dir) => dir.join(path.file_name().unwrap_or_default()),
            Err(_) => path.to_path_buf(),
        },
        _ => std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf()),
    }
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

    /// Heap offsets of the set blocks from word `cursor` on, in address
    /// order, without clearing them.
    pub(crate) fn blocks_from(&self, cursor: usize) -> impl Iterator<Item = u64> + '_ {
        let words = self.0.get(cursor..).unwrap_or_default();
        (words.iter().enumerate()).flat_map(move |(i, &bits)| Self::blocks_in(cursor + i, bits))
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
}

impl<'a> std::fmt::Debug for Marker<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Marker")
            .field("marked", &self.marked)
            .field("refused", &self.refused)
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
        }
    }

    /// Refuses the whole collection: the tracer found a root it cannot
    /// trace — one whose on-media layout stamp names a different node
    /// layout than the tracer's — so no block's reachability is provable.
    /// The collection then ends before its sweep with
    /// [`RecoveryReport::gc_ran`] false and the typed open fails, the same
    /// conservative outcome as a root with no tracer at all: nothing is
    /// freed.
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

    /// Visits every **allocated** block no tracer has marked yet, in
    /// address order — `keep(payload, capacity)` — and marks the ones it
    /// returns `true` for: the mark phase of structures whose reachability
    /// is not encoded in link words alone. The SOFT structures use this:
    /// their links are volatile (recovery rebuilds them from per-node
    /// validity bits), so after marking their heads their tracers
    /// *enumerate* the remaining candidates and keep the ones whose
    /// persistent header proves membership.
    pub fn mark_allocated_if(&mut self, mut keep: impl FnMut(*mut u8, u64) -> bool) {
        for word in 0..self.allocated.0.len() {
            for block in Bitmap::blocks_in(word, self.allocated.0[word] & !self.marks.0[word]) {
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

/// The mark phase: traces `roots` in order into a fresh [`Marker`] over
/// `allocated`, calling `tracers[i]` for a root whose tracer is `Some(i)`.
/// Returns the marker and each root's newly marked block count, or `None`
/// as soon as a tracer [refuses](Marker::refuse).
fn mark<'a>(
    mem: Mem,
    allocated: &'a Bitmap,
    roots: &[Root],
    tracers: &mut [(&str, TraceFn<'_>)],
) -> Option<(Marker<'a>, Vec<(String, u64)>)> {
    let mut marker = Marker::new(mem, allocated);
    let mut root_marks = Vec::with_capacity(roots.len());
    for (name, off, tracer) in roots {
        let before = marker.marked_blocks();
        let root = mem.ptr(*off);
        match tracer {
            Some(i) => (tracers[*i].1)(root, &mut marker),
            // SAFETY: the reserved ops-table root is one self-contained block.
            None => unsafe { crate::optable::ops_trace(root, &mut marker) },
        }
        if marker.refused {
            return None;
        }
        root_marks.push((name.clone(), (marker.marked_blocks() - before) as u64));
    }
    Some((marker, root_marks))
}

/// One mark-sweep collection over `roots`: the [mark phase](mark), the
/// sweep through `engine`'s free path, the report bookkeeping and the GC
/// counters. `allocated` is the open's block-start bitmap. Returns the
/// swept `(blocks, bytes)`, or `None` — with nothing swept and the report
/// untouched — when a tracer [refused](Marker::refuse).
pub(crate) fn collect(
    mem: Mem,
    allocated: &Bitmap,
    roots: &[Root],
    tracers: &mut [(&str, TraceFn<'_>)],
    engine: &Engine,
    metrics: &obs::MetricSet,
    report: &mut RecoveryReport,
) -> Option<(usize, u64)> {
    // nvt-lint: allow(wall-clock): recovery/GC telemetry only; never reaches durable state
    let mark_start = Instant::now();
    let (marker, root_marks) = mark(mem, allocated, roots, tracers)?;
    report.root_marks = root_marks;
    let mark_nanos = mark_start.elapsed().as_nanos() as u64;
    // nvt-lint: allow(wall-clock): recovery/GC telemetry only; never reaches durable state
    let sweep_start = Instant::now();
    let (mut swept, mut swept_bytes) = (0usize, 0u64);
    engine.sweep(
        mem,
        marker.unmarked().map(|block| {
            let w0 = mem.load(block);
            swept += 1;
            swept_bytes += w0 & W0_SIZE_MASK;
            (block, ((w0 >> W0_CLASS_SHIFT) & W0_CLASS_MASK) as usize)
        }),
    );
    let sweep_nanos = sweep_start.elapsed().as_nanos() as u64;
    report.gc_ran = true;
    report.reclaimed_blocks = swept;
    report.reclaimed_bytes = swept_bytes;
    report.live_blocks -= swept;
    report.free_blocks += swept;
    report.phases.mark_nanos = mark_nanos;
    report.phases.sweep_nanos = sweep_nanos;
    report.gc_nanos = mark_nanos + sweep_nanos;
    metrics.add(obs::Counter::GcRuns, 1);
    metrics.add(obs::Counter::GcMarked, marker.marked_blocks() as u64);
    metrics.add(obs::Counter::GcSwept, swept as u64);
    Some((swept, swept_bytes))
}
